import numpy as np
import pytest

import dilqr.ilqr as ilqr_mod
from dilqr.config import default_config
from dilqr.costs import NominalTrajectory, QuadraticCostModel
from dilqr.envs import LINEAR_TEST_A, LINEAR_TEST_B, make_linear_env, rollout_open_loop
from dilqr.errors import ContractViolation, NotPositiveDefinite
from dilqr.feedback import DecoupledPolicy, build_policy, riccati_gains
from dilqr.sysid import EstimatorConfig, LinearizedModel, identify_ltv

from oracles import joseph_riccati_gains, riccati_reference_gains


def scalar_models(n):
    return LinearizedModel(A=np.ones((n, 1, 1)), B=np.ones((n, 1, 1)), eval_count=0)


def linear_test_models(n):
    return LinearizedModel(
        A=np.broadcast_to(LINEAR_TEST_A, (n, 2, 2)),
        B=np.broadcast_to(LINEAR_TEST_B, (n, 2, 1)),
        eval_count=0,
    )


def zero_nominal(n, n_x=1, n_u=1):
    return NominalTrajectory(np.zeros((n + 1, n_x)), np.zeros((n, n_u)), 0.0)


def unit_weights(n_x=1, n_u=1):
    return QuadraticCostModel(
        Q=np.eye(n_x), R=np.eye(n_u), Q_terminal=np.eye(n_x), x_goal=np.zeros(n_x)
    )


class TestRiccatiGains:
    def test_scalar_two_step_hand_oracle(self):
        # A=B=Q=R=Q_N=1: P_2=1, K_1=-1/2, P_1=3/2, K_0=-3/5, P_0=8/5
        w = unit_weights()
        K = riccati_gains(zero_nominal(2), scalar_models(2), w)
        assert K[1, 0, 0] == pytest.approx(-0.5, abs=1e-14)
        assert K[0, 0, 0] == pytest.approx(-0.6, abs=1e-14)

    def test_matches_independent_recursion_on_linear_system(self):
        w = QuadraticCostModel(
            Q=np.diag([2.0, 0.5]), R=np.array([[0.3]]),
            Q_terminal=np.diag([10.0, 1.0]), x_goal=np.zeros(2),
        )
        N = 12
        K = riccati_gains(zero_nominal(N, 2), linear_test_models(N), w)
        ref = riccati_reference_gains(LINEAR_TEST_A, LINEAR_TEST_B, w.Q, w.R, w.Q_terminal, N)
        for t in range(N):
            assert np.allclose(K[t], ref[t], atol=1e-12)

    def test_gains_invariant_to_uniform_weight_scaling(self):
        w = QuadraticCostModel(
            Q=np.diag([2.0, 0.5]), R=np.array([[0.3]]),
            Q_terminal=np.diag([10.0, 1.0]), x_goal=np.zeros(2),
        )
        models = linear_test_models(8)
        nominal = zero_nominal(8, 2)
        scaled = QuadraticCostModel(7.3 * w.Q, 7.3 * w.R, 7.3 * w.Q_terminal, w.x_goal)
        assert np.allclose(
            riccati_gains(nominal, models, w), riccati_gains(nominal, models, scaled)
        )

    def test_terminal_gain_uses_terminal_weight(self):
        # one-step problem: K_0 depends only on Q_N, R; with Q_N large the
        # gain approaches dead-beat -(B'B)^-1 B'A
        w = QuadraticCostModel(Q=1.0, R=1e-9, Q_terminal=1e6, x_goal=[0.0])
        K = riccati_gains(zero_nominal(1), scalar_models(1), w)
        assert K[0, 0, 0] == pytest.approx(-1.0, abs=1e-6)

    def test_synthesis_failure_carries_timestep(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        weights = unit_weights()  # validated by Cholesky too, so built before the patch
        monkeypatch.setattr(ilqr_mod.np.linalg, "cholesky", boom)
        with pytest.raises(NotPositiveDefinite) as exc_info:
            riccati_gains(zero_nominal(3), scalar_models(3), weights)
        assert exc_info.value.t == 2  # recursion runs backward from the end


class TestBuildPolicy:
    def test_linear_system_recovers_reference_gains(self):
        env = make_linear_env(horizon=10)
        w = unit_weights(2, 1)
        nominal = rollout_open_loop(env, env.x0, np.zeros((10, 1)), w)
        policy = build_policy(env, nominal, EstimatorConfig(seed=0), w)
        ref = riccati_reference_gains(LINEAR_TEST_A, LINEAR_TEST_B, w.Q, w.R, w.Q_terminal, 10)
        assert policy.gains.shape == (10, 1, 2)
        for t in range(10):
            assert np.allclose(policy.gains[t], ref[t], atol=1e-8)

    @pytest.mark.parametrize("which", ["pendulum", "cartpole"])
    def test_trained_gains_match_joseph_form_recursion(
        self, which, trained_pendulum, trained_cartpole
    ):
        # the backward pass at mu = 0 against the former Joseph-form synthesis,
        # on the identified models of a trained nonlinear nominal
        r = {"pendulum": trained_pendulum, "cartpole": trained_cartpole}[which]
        models = identify_ltv(r.env, r.traj, default_config().make_estimator())
        ref = joseph_riccati_gains(models, r.cost)
        np.testing.assert_allclose(r.policy.gains, ref, rtol=0, atol=1e-12)

    def test_deterministic_for_fixed_estimator_seed(self):
        env = make_linear_env(horizon=5)
        w = unit_weights(2, 1)
        nominal = rollout_open_loop(env, env.x0, np.zeros((5, 1)), w)
        a = build_policy(env, nominal, EstimatorConfig(seed=3), w)
        b = build_policy(env, nominal, EstimatorConfig(seed=3), w)
        assert np.array_equal(a.gains, b.gains)


class TestDecoupledPolicy:
    def _policy(self):
        env = make_linear_env(horizon=4)
        w = unit_weights(2, 1)
        nominal = rollout_open_loop(env, env.x0, np.zeros((4, 1)), w)
        return DecoupledPolicy(nominal, np.ones((4, 1, 2)))

    def test_zero_gain_variant_keeps_nominal(self):
        p = self._policy()
        z = p.with_zero_gains()
        assert np.all(z.gains == 0.0)
        assert z.nominal is p.nominal

    def test_gain_length_must_match_horizon(self):
        p = self._policy()
        with pytest.raises(ContractViolation, match="horizon"):
            DecoupledPolicy(p.nominal, np.zeros((3, 1, 2)))

    def test_non_finite_gains_rejected(self):
        p = self._policy()
        bad = np.zeros((4, 1, 2))
        bad[2, 0, 0] = np.inf
        with pytest.raises(ContractViolation, match="non-finite"):
            DecoupledPolicy(p.nominal, bad)


def test_gains_contract_initial_state_perturbations():
    # deterministic check: the synthesized gains shrink the terminal
    # deviation produced by an initial-state offset several-fold

    env = make_linear_env(horizon=25)
    w = QuadraticCostModel(
        Q=np.eye(2), R=np.array([[0.1]]), Q_terminal=5 * np.eye(2), x_goal=np.zeros(2)
    )
    nominal = rollout_open_loop(env, env.x0, np.zeros((25, 1)), w)
    policy = build_policy(env, nominal, EstimatorConfig(seed=0), w)
    dx0 = np.array([0.3, -0.2])

    def run(gains):
        x = env.x0 + dx0
        for t in range(25):
            u = nominal.controls[t] + gains[t] @ (x - nominal.states[t])
            x = LINEAR_TEST_A @ x + LINEAR_TEST_B @ env.clamp(u)
        return np.linalg.norm(x - nominal.states[-1])

    assert run(policy.gains) < 0.25 * run(np.zeros_like(policy.gains))
