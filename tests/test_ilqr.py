import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import dilqr.ilqr as ilqr_mod
from dilqr.costs import NominalTrajectory, QuadraticCostModel, terminal_partials
from dilqr.config import default_config
from dilqr.envs import (
    LINEAR_TEST_A, LINEAR_TEST_B, make_linear_env, make_pendulum_env, rollout_open_loop,
)
from dilqr.errors import ContractViolation, NotPositiveDefinite, RegularizationExhausted
from dilqr.ilqr import (
    IterationGains,
    OptimizerConfig,
    backward_pass,
    forward_pass,
    optimize,
)
from dilqr.sysid import EstimatorConfig, LinearizedModel, identify_ltv

from oracles import (
    lqr_optimal_cost, per_step_augmented_backward_pass, per_step_backward_pass,
)


def scalar_setup():
    """One-step scalar problem solvable by hand: A=B=Q=R=Q_N=1, x0=1, u=0."""
    env = make_linear_env(A=[[1.0]], B=[[1.0]], horizon=1)
    cost = QuadraticCostModel(Q=1.0, R=1.0, Q_terminal=1.0, x_goal=[0.0])
    traj = rollout_open_loop(env, np.array([1.0]), np.zeros((1, 1)), cost)
    models = LinearizedModel(A=np.ones((1, 1, 1)), B=np.ones((1, 1, 1)), eval_count=0)
    return env, cost, traj, models


def _always_fail(*args, **kwargs):
    raise NotPositiveDefinite(0)


def two_solve_backward_pass(traj, cost, models, mu):
    """scipy reference: the backward pass with k_t and K_t from two separate cho_solve calls."""
    N, n_x = traj.horizon, traj.states.shape[1]
    k = np.empty((N, traj.controls.shape[1]))
    K = np.empty((N, *k.shape[1:], n_x))
    J_x, J_xx = terminal_partials(traj.states[N], cost), cost.Q_terminal
    for t in range(N - 1, -1, -1):
        A, B = models.A[t], models.B[t]
        c_x, c_u = cost.Q @ (traj.states[t] - cost.x_goal), cost.R @ traj.controls[t]
        J_xx_reg = J_xx + mu * np.eye(n_x)
        Q_x = c_x + A.T @ J_x
        Q_u = c_u + B.T @ J_x
        Q_xx = cost.Q + A.T @ J_xx @ A
        Q_ux = B.T @ J_xx_reg @ A
        Q_uu = cost.R + B.T @ J_xx_reg @ B
        Q_uu = 0.5 * (Q_uu + Q_uu.T)
        chol = scipy.linalg.cho_factor(Q_uu, lower=True)
        k[t] = -scipy.linalg.cho_solve(chol, Q_u)
        K[t] = -scipy.linalg.cho_solve(chol, Q_ux)
        J_x = Q_x + K[t].T @ Q_uu @ k[t] + K[t].T @ Q_u + Q_ux.T @ k[t]
        J_xx = Q_xx + K[t].T @ Q_uu @ K[t] + K[t].T @ Q_ux + Q_ux.T @ K[t]
        J_xx = 0.5 * (J_xx + J_xx.T)
    return k, K


# The pass solves in augmented coordinates with one numpy solve, the
# references with the Q-function blocks and two solves, so they round
# differently. Each gap is measured against the largest entry of the
# reference's own k or K. Over 2,000 random problems (n_u 1-5, mu in
# {0, U(0, 1e-3), 1}) the largest gap measured 2.8e3 eps, and 20 eps on
# the identified pendulum and cart-pole models.
MULTI_CONTROL_REL_TOL = 1e5 * np.finfo(float).eps

# On the trained linear system k_t = -Q_uu^-1 Q_u is the remainder of
# Q_u = R u_t + B_t'J_x, two terms that cancel near the optimum: max |k| is
# 1.3e-8 against max |u_t| = 0.93, and the two recursions' k differ by up to
# 4e7 eps of max |k|. Rounding in Q_u is relative to the size of those
# terms, |R u_t|, and a scalar Q_uu >= R passes it to k_t at no more than
# |u_t|, so there k is measured against max |u_t|: the gap measured at most
# 0.6 eps of it at mu = 0, 1e-6 and 1.
CANCELLING_K_TOL = 1e2 * np.finfo(float).eps


def assert_single_solve_matches_to_rounding(traj, cost, models, mu, cancelling_k=False):
    gains = backward_pass(traj, cost, models, mu)
    for reference in (two_solve_backward_pass, per_step_backward_pass):
        k, K = reference(traj, cost, models, mu)
        if cancelling_k:
            assert np.max(np.abs(gains.k - k)) <= CANCELLING_K_TOL * np.max(np.abs(traj.controls))
        else:
            assert np.max(np.abs(gains.k - k)) <= MULTI_CONTROL_REL_TOL * np.max(np.abs(k))
        assert np.max(np.abs(gains.K - K)) <= MULTI_CONTROL_REL_TOL * np.max(np.abs(K))


def assert_bit_identical_to_the_per_step_pass(traj, cost, models, mu, cancelling_k=False):
    gains = backward_pass(traj, cost, models, mu)
    k, K = per_step_augmented_backward_pass(traj, cost, models, mu)
    assert np.array_equal(gains.k, k) and np.array_equal(gains.K, K)
    assert_single_solve_matches_to_rounding(traj, cost, models, mu, cancelling_k)


def random_problem(rng, n_u_low, n_u_high):
    n_x, n_u, N = int(rng.integers(2, 9)), int(rng.integers(n_u_low, n_u_high)), 4
    Q, R = np.diag(rng.uniform(0.1, 3.0, n_x)), np.diag(rng.uniform(0.1, 3.0, n_u))
    cost = QuadraticCostModel(Q, R, 10 * Q, rng.normal(size=n_x))
    traj = NominalTrajectory(rng.normal(size=(N + 1, n_x)), rng.normal(size=(N, n_u)), 0.0)
    models = LinearizedModel(
        A=rng.normal(size=(N, n_x, n_x)), B=rng.normal(size=(N, n_x, n_u)), eval_count=0
    )
    return traj, cost, models


class TestBackwardPass:
    def test_scalar_hand_oracle(self):
        # J_x = J_xx = 1 at x_1 = 1; Q_u = 1, Q_uu = 2, Q_ux = 1
        # so k_0 = -1/2 and K_0 = -1/2
        _, cost, traj, models = scalar_setup()
        gains = backward_pass(traj, cost, models, mu=0.0)
        assert gains.k[0, 0] == pytest.approx(-0.5, abs=1e-14)
        assert gains.K[0, 0, 0] == pytest.approx(-0.5, abs=1e-14)

    def test_regularizer_shrinks_feedforward(self):
        # mu enters Q_uu, damping the feedforward toward zero; the feedback
        # instead approaches the model-inversion limit -(B'B)^-1 B'A
        _, cost, traj, models = scalar_setup()
        g0 = backward_pass(traj, cost, models, mu=0.0)
        g1 = backward_pass(traj, cost, models, mu=10.0)
        assert abs(g1.k[0, 0]) < abs(g0.k[0, 0])
        big = backward_pass(traj, cost, models, mu=1e9)
        assert big.K[0, 0, 0] == pytest.approx(-1.0, abs=1e-6)

    def test_indefinite_q_uu_raises_with_timestep(self):
        _, cost, traj, _ = scalar_setup()
        # a large negative-feedthrough model makes B' J_xx B overwhelm R
        bad = LinearizedModel(A=np.ones((1, 1, 1)), B=np.full((1, 1, 1), 50.0), eval_count=0)
        nasty = QuadraticCostModel(Q=1.0, R=1.0, Q_terminal=1.0, x_goal=[0.0])
        with pytest.raises(NotPositiveDefinite) as exc_info:
            backward_pass(traj, nasty, bad, mu=-1.1)  # indefinite via negative mu
        assert exc_info.value.t == 0

    def test_model_count_mismatch_rejected(self):
        _, cost, traj, models = scalar_setup()
        two = LinearizedModel(A=np.ones((2, 1, 1)), B=np.ones((2, 1, 1)), eval_count=0)
        with pytest.raises(ContractViolation, match="models"):
            backward_pass(traj, cost, two, mu=0.0)
        one_point = LinearizedModel(A=np.ones((1, 1)), B=np.ones((1, 1)), eval_count=0)
        with pytest.raises(ContractViolation, match="models"):
            backward_pass(traj, cost, one_point, mu=0.0)

    def test_single_solve_matches_two_solves_on_two_controls(self):
        rng = np.random.default_rng(3)
        A = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 2))
        env = make_linear_env(A=A, B=B, horizon=12)
        cost = QuadraticCostModel(np.diag([2.0, 1.0, 0.5]), np.diag([0.3, 0.7]), 5 * np.eye(3), np.zeros(3))
        traj = rollout_open_loop(env, env.x0, rng.normal(size=(12, 2)), cost)
        models = identify_ltv(env, traj, EstimatorConfig(seed=0))
        for mu in (0.0, 1e-6, 1e-2):
            assert_single_solve_matches_to_rounding(traj, cost, models, mu)

    def test_single_solve_matches_two_solves_on_pendulum(self, trained_pendulum):
        run = trained_pendulum
        models = identify_ltv(run.env, run.traj, EstimatorConfig(seed=0))
        assert_single_solve_matches_to_rounding(run.traj, run.cost, models, OptimizerConfig().mu)

    def test_single_solve_matches_two_solves_on_cartpole(self, trained_cartpole):
        run = trained_cartpole
        models = identify_ltv(run.env, run.traj, EstimatorConfig(seed=0))
        for mu in (0.0, OptimizerConfig().mu):
            assert_single_solve_matches_to_rounding(run.traj, run.cost, models, mu)

    def test_single_solve_matches_two_solves_on_random_single_control_systems(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            traj, cost, models = random_problem(rng, 1, 2)
            assert_single_solve_matches_to_rounding(traj, cost, models, float(rng.uniform(0.0, 1e-3)))

    def test_single_solve_matches_two_solves_on_random_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            traj, cost, models = random_problem(rng, 2, 6)
            assert_single_solve_matches_to_rounding(traj, cost, models, float(rng.uniform(0.0, 1e-3)))

    @pytest.mark.parametrize("columns", [2, 3, 5])
    def test_single_control_reciprocal_is_solve_bit_for_bit(self, columns):
        # backward_pass takes Z_u * (1 / q) for solve(q, Z_u) at n_u = 1, where
        # Z_u has n_x + 1 columns: 3 on pendulum, 5 on cart-pole. With two or
        # more right-hand sides solve runs the BLAS's trsm, which multiplies by
        # the reciprocal (one right-hand side goes through a division instead).
        rng = np.random.default_rng(40 + columns)
        n = 100_000
        q = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n)
        q *= 10.0 ** np.concatenate([rng.integers(-300, 301, n - 400), np.repeat([-300, -299, 299, 300], 100)])
        Z_u = rng.normal(size=(n, 1, columns))
        solved = np.linalg.solve(q[:, None, None], Z_u)
        reciprocal = Z_u * (1.0 / q)[:, None, None]
        differ = np.count_nonzero(np.any(solved != reciprocal, axis=(1, 2)))
        recorded = json.loads((Path(__file__).parent / "golden_digests.json").read_text())["blas"]
        assert differ == 0, (
            f"Z_u * (1 / q) differs from np.linalg.solve on {differ} of {n} 1x1 systems. "
            f"backward_pass's n_u = 1 branch rests on the BLAS's trsm multiplying by the "
            f"reciprocal, as {recorded} (recorded in tests/golden_digests.json) does; "
            f"this numpy's BLAS is {np.show_config(mode='dicts')['Build Dependencies']['blas']}"
        )

    def test_overflowing_recursion_raises_instead_of_returning_nan(self):
        # A = 1e200 makes J_xx overflow to inf after one step, so Q_uu at t = 0
        # is not finite and k_0 would be nan
        _, cost, _, _ = scalar_setup()
        traj = NominalTrajectory(np.ones((3, 1)), np.zeros((2, 1)), 0.0)
        models = LinearizedModel(A=np.full((2, 1, 1), 1e200), B=np.ones((2, 1, 1)), eval_count=0)
        with warnings.catch_warnings(), pytest.raises(NotPositiveDefinite) as exc_info:
            warnings.simplefilter("error")  # the pass itself must not warn on overflow
            backward_pass(traj, cost, models, mu=0.0)
        assert exc_info.value.t == 0

    @pytest.mark.parametrize("mu", [0.0, 1e-6, 1.0])
    def test_hoisted_pass_is_bit_identical_to_the_per_step_loop(self, mu):
        # the per-t reference forms F_t, H_t (stage gradients and mu * B_t'[B_t A_t]
        # included) inside the loop, where the pass builds them for every t up front
        rng = np.random.default_rng(17)
        compared = 0
        for low, high in ((1, 2), (2, 6)):
            for _ in range(50):
                traj, cost, models = random_problem(rng, low, high)
                try:
                    per_step_backward_pass(traj, cost, models, mu)
                except np.linalg.LinAlgError:  # Q_uu indefinite: both passes must fail
                    with pytest.raises(np.linalg.LinAlgError):
                        per_step_augmented_backward_pass(traj, cost, models, mu)
                    with pytest.raises(NotPositiveDefinite):
                        backward_pass(traj, cost, models, mu)
                    continue
                assert_bit_identical_to_the_per_step_pass(traj, cost, models, mu)
                compared += 1
        assert compared >= 50  # of 100; random models at mu = 1 often make Q_uu indefinite

    @pytest.mark.parametrize("mu", [0.0, 1e-6, 1.0])
    def test_hoisted_pass_is_bit_identical_on_identified_models(
        self, mu, trained_linear, trained_pendulum, trained_cartpole
    ):
        # only the linear system's k is a cancelling remainder
        runs = ((trained_linear, True), (trained_pendulum, False), (trained_cartpole, False))
        for run, cancelling_k in runs:
            models = identify_ltv(run.env, run.traj, EstimatorConfig(seed=0))
            assert_bit_identical_to_the_per_step_pass(run.traj, run.cost, models, mu, cancelling_k)

    def test_value_constant_overflow_does_not_fail_the_pass(self):
        # with u_t = 1e160 the constant of the value function, sum of
        # -Q_u'Q_uu^-1 Q_u, overflows while every gain stays finite
        _, cost, _, _ = scalar_setup()
        traj = NominalTrajectory(np.zeros((4, 1)), np.full((3, 1), 1e160), 0.0)
        models = LinearizedModel(A=np.ones((3, 1, 1)), B=np.ones((3, 1, 1)), eval_count=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the pass itself must not warn on overflow
            gains = backward_pass(traj, cost, models, 0.0)
        with np.errstate(over="ignore"):
            k, K = per_step_augmented_backward_pass(traj, cost, models, 0.0)
        assert np.array_equal(gains.k, k) and np.array_equal(gains.K, K)
        assert_single_solve_matches_to_rounding(traj, cost, models, 0.0)

    def test_a_successful_pass_factors_once(self, monkeypatch):
        traj, cost, models = random_problem(np.random.default_rng(2), 2, 3)
        calls = []
        real_cholesky = np.linalg.cholesky

        def spy(a):
            calls.append(np.shape(a))
            return real_cholesky(a)

        monkeypatch.setattr(ilqr_mod.np.linalg, "cholesky", spy)
        backward_pass(traj, cost, models, 1e-6)
        assert calls == [(4, 2, 2)]  # every Q_uu of the horizon in one batched call


def switched_problem(B, A=0.0, mu=-2.0):
    """A scalar problem whose Q_uu at t is set by B[t] alone: 1 + B[t]^2 (1 + mu).

    With A = 0 every P_xx is Q = 1 and Q_N = 1, so at mu = -2 a step with
    B_t = 0 has Q_uu = 1, B_t = 1 gives the singular Q_uu = 0 exactly (the
    oracle's solve raises, and the pass's reciprocal 1 / 0 gives non-finite
    gains there) and B_t = 2 the indefinite Q_uu = -3 (its solve succeeds).
    Either way the recursion runs on to t = 0.
    """
    N = len(B)
    cost = QuadraticCostModel(Q=1.0, R=1.0, Q_terminal=1.0, x_goal=[0.0])
    traj = NominalTrajectory(np.linspace(1.0, 2.0, N + 1)[:, None], np.full((N, 1), 0.5), 0.0)
    models = LinearizedModel(
        A=(np.zeros(N) + A).reshape(N, 1, 1), B=np.reshape(B, (N, 1, 1)).astype(float), eval_count=0
    )
    return traj, cost, models, mu


class TestBatchedCheck:
    """The pass checks every Q_uu in one batched call after the recursion, and
    names the same failing t as the per-step checks of the oracle."""

    @staticmethod
    def assert_fails_where_the_oracle_does(traj, cost, models, mu, t):
        with np.errstate(all="ignore"), pytest.raises(NotPositiveDefinite) as want:
            per_step_augmented_backward_pass(traj, cost, models, mu, checked=True)
        with warnings.catch_warnings(), pytest.raises(NotPositiveDefinite) as got:
            warnings.simplefilter("error")  # the pass itself must not warn
            backward_pass(traj, cost, models, mu)
        assert got.value.t == want.value.t == t

    @pytest.mark.parametrize(
        "B, t",
        [([0, 0, 2, 0, 0, 0], 2), ([0, 2, 0, 2, 0, 0], 3)],
        ids=["one_interior", "two_interior"],
    )
    def test_indefinite_q_uu_whose_solve_succeeds(self, B, t):
        self.assert_fails_where_the_oracle_does(*switched_problem(B), t)

    @pytest.mark.parametrize(
        "B, t",
        [([0, 1, 0, 2, 0, 0], 3), ([0, 1, 0, 0, 0, 0], 1), ([0, 0, 2, 0, 1, 0], 4)],
        ids=["indefinite_above_singular", "singular_alone", "singular_above_indefinite"],
    )
    def test_singular_q_uu_whose_solve_raises(self, B, t):
        # the non-finite gains at the singular t fail its check, and the
        # non-finite steps below it never hide it
        self.assert_fails_where_the_oracle_does(*switched_problem(B), t)

    @pytest.mark.parametrize(
        "B, A, mu, t",
        [
            # Q_uu = R + B_t^2 (P_xx + mu) overflows to inf at t, its gains stay finite
            ([1, 1, 1e200, 1, 1, 1], 0.5, 1.0, 2),
            # P_xx overflows below t
            ([1] * 6, [0.5, 0.5, 1e200, 0.5, 0.5, 0.5], 0.0, 1),
        ],
        ids=["B", "A"],
    )
    def test_non_finite_recursion_from_an_interior_model(self, B, A, mu, t):
        # LinearizedModel rejects non-finite entries, so a finite model
        # overflows the recursion instead
        self.assert_fails_where_the_oracle_does(*switched_problem(B, A, mu), t)

    def test_non_finite_gains_from_a_finite_q_uu(self):
        # at mu = -2 + 2**-51, B_t = 1 gives the positive definite Q_uu = 2**-51
        # exactly, and u_t = 1e300 a finite Q_u = 1e300: the gains overflow, Q_uu
        # stays finite, and only the gains' finiteness check names t
        traj, cost, models, _ = switched_problem([0, 0, 1, 0, 0, 0])
        controls = traj.controls.copy()
        controls[2] = 1e300
        traj = NominalTrajectory(traj.states, controls, 0.0)
        self.assert_fails_where_the_oracle_does(traj, cost, models, -2 + 2**-51, 2)


class TestForwardPass:
    def test_full_step_reaches_hand_computed_cost(self):
        # u_0 = -1/2, x_1 = 1/2: cost 0.5 + 0.125 + 0.125 = 0.75 < 1.0
        env, cost, traj, models = scalar_setup()
        gains = backward_pass(traj, cost, models, mu=0.0)
        out, ok = forward_pass(traj, gains, 1.0, env, cost)
        assert ok
        assert out.controls[0, 0] == pytest.approx(-0.5, abs=1e-14)
        assert out.cost == pytest.approx(0.75, abs=1e-14)

    def test_zero_alpha_reproduces_previous_trajectory(self):
        env, cost, traj, models = scalar_setup()
        gains = backward_pass(traj, cost, models, mu=0.0)
        out, ok = forward_pass(traj, gains, 0.0, env, cost)
        assert ok
        assert np.array_equal(out.states, traj.states)
        assert out.cost == pytest.approx(traj.cost)

    def test_band_zero_rejects_any_cost_increase(self):
        env, cost, traj, _ = scalar_setup()
        # feedforward in the wrong direction strictly increases cost
        bad_gains = IterationGains(k=np.array([[2.0]]), K=np.zeros((1, 1, 1)))
        out, ok = forward_pass(traj, bad_gains, 1.0, env, cost, band=0.0)
        assert not ok
        assert out is traj

    def test_band_admits_bounded_increase(self):
        env, cost, traj, _ = scalar_setup()
        # u_0 = 0.1 gives cost 0.5 + 0.005 + 0.605 = 1.11, a 11% increase
        gains = IterationGains(k=np.array([[0.1]]), K=np.zeros((1, 1, 1)))
        _, ok_tight = forward_pass(traj, gains, 1.0, env, cost, band=0.05)
        _, ok_loose = forward_pass(traj, gains, 1.0, env, cost, band=0.2)
        assert not ok_tight and ok_loose

    def test_acceptance_references_external_best_cost(self):
        env, cost, traj, models = scalar_setup()
        gains = backward_pass(traj, cost, models, mu=0.0)
        # the improving step (cost 0.75) fails against a tighter reference
        _, ok = forward_pass(traj, gains, 1.0, env, cost, band=0.0, reference_cost=0.5)
        assert not ok

    def test_alpha_out_of_range_rejected(self):
        env, cost, traj, models = scalar_setup()
        gains = backward_pass(traj, cost, models, mu=0.0)
        with pytest.raises(ContractViolation):
            forward_pass(traj, gains, 1.5, env, cost)

    def test_divergent_candidate_is_rejected_after_exactly_n_step_rows(self):
        # x_2 = (0, 1e200) and x_3 overflows; the pass still makes all N rows,
        # so optimize's eval_count (+N per tried alpha) stays exact
        env = make_linear_env(A=1e200 * np.eye(2), B=[[0.0], [1.0]], horizon=5)
        rows = []

        def counting(x, u):
            rows.append(1 if x.ndim == 1 else x.shape[0])
            return env.step_fn(x, u)

        cost = QuadraticCostModel(Q=np.eye(2), R=1.0, Q_terminal=np.eye(2), x_goal=np.zeros(2))
        prev = NominalTrajectory(np.zeros((6, 2)), np.zeros((5, 1)), 0.0)
        gains = IterationGains(k=np.ones((5, 1)), K=np.zeros((5, 1, 2)))
        out, ok = forward_pass(prev, gains, 1.0, replace(env, step_fn=counting), cost)
        assert not ok and out is prev
        assert sum(rows) == prev.horizon

    def test_overflowing_one_point_rollout_is_rejected_after_exactly_n_step_rows(self):
        # math.sin(inf) raises on the one-point float path; the step falls back
        # to numpy's nan, the row dies and the candidate is rejected, not raised
        env = make_pendulum_env(horizon=4)
        rows = []

        def counting(x, u):
            rows.append(1 if x.ndim == 1 else x.shape[0])
            return env.step_fn(x, u)

        cost = QuadraticCostModel(Q=np.eye(2), R=1.0, Q_terminal=np.eye(2), x_goal=np.zeros(2))
        states = np.zeros((5, 2))
        states[0] = [1.7e308, 1e308]
        prev = NominalTrajectory(states, np.zeros((4, 1)), 0.0)
        gains = IterationGains(k=np.ones((4, 1)), K=np.zeros((4, 1, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, ok = forward_pass(prev, gains, 1.0, replace(env, step_fn=counting), cost)
        assert not ok and out is prev
        assert rows == [1] * prev.horizon


class TestOptimize:
    def test_linear_problem_reaches_exact_lqr_cost(self):
        env = make_linear_env(horizon=20)
        cost = QuadraticCostModel(Q=np.eye(2), R=np.eye(1), Q_terminal=np.eye(2), x_goal=np.zeros(2))
        cfg = OptimizerConfig(estimator=EstimatorConfig(seed=0))
        traj, trace = optimize(env, cost, env.x0, np.zeros((20, 1)), cfg)
        opt = lqr_optimal_cost(
            LINEAR_TEST_A, LINEAR_TEST_B, np.eye(2), np.eye(1), np.eye(2), env.x0, 20
        )
        assert traj.cost == pytest.approx(opt, abs=1e-8)
        # exact models on a linear-quadratic problem: one full Newton step
        accepted = [r for r in trace.records if r.accepted]
        assert accepted[0].alpha == 1.0
        assert accepted[0].cost == pytest.approx(opt, abs=1e-8)

    def test_zero_iteration_budget_returns_initial_rollout(self):
        env, cost, _, _ = scalar_setup()
        cfg = OptimizerConfig(max_iters=0)
        traj, trace = optimize(env, cost, np.array([1.0]), np.zeros((1, 1)), cfg)
        assert len(trace) == 0
        assert traj.cost == pytest.approx(1.0)

    def test_band_zero_cost_sequence_is_monotone(self):
        env = make_pendulum_env(horizon=20)
        cost = QuadraticCostModel(
            Q=np.diag([0.5, 0.1]), R=0.1 * np.eye(1), Q_terminal=np.diag([60.0, 6.0]),
            x_goal=env.x_goal,
        )
        cfg = OptimizerConfig(band=0.0, max_iters=40)
        _, trace = optimize(env, cost, env.x0, np.zeros((20, 1)), cfg)
        costs = [r.cost for r in trace.records if r.accepted]
        assert len(costs) > 2
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_band_bounds_excursions_above_running_best(self):
        env = make_pendulum_env(horizon=20)
        cost = QuadraticCostModel(
            Q=np.diag([0.5, 0.1]), R=0.1 * np.eye(1), Q_terminal=np.diag([60.0, 6.0]),
            x_goal=env.x_goal,
        )
        cfg = OptimizerConfig(band=0.05, max_iters=40)
        _, trace = optimize(env, cost, env.x0, np.zeros((20, 1)), cfg)
        best = np.inf
        for r in trace.records:
            if r.accepted:
                assert r.cost <= best * 1.05 + 1e-12
                best = min(best, r.cost)

    def test_returns_best_cost_seen_not_last(self):
        env = make_pendulum_env(horizon=20)
        cost = QuadraticCostModel(
            Q=np.diag([0.5, 0.1]), R=0.1 * np.eye(1), Q_terminal=np.diag([60.0, 6.0]),
            x_goal=env.x_goal,
        )
        cfg = OptimizerConfig(band=0.05, max_iters=40)
        traj, trace = optimize(env, cost, env.x0, np.zeros((20, 1)), cfg)
        accepted = [r.cost for r in trace.records if r.accepted]
        assert traj.cost <= min(accepted) + 1e-12

    def test_mu_escalates_on_backward_failure(self, monkeypatch):
        def always_fail(*args, **kwargs):
            raise NotPositiveDefinite(0)

        monkeypatch.setattr(ilqr_mod, "backward_pass", always_fail)
        env, cost, _, _ = scalar_setup()
        cfg = OptimizerConfig(mu=1.0, mu_factor=10.0, mu_max=1e4, max_iters=50)
        with pytest.raises(RegularizationExhausted):
            optimize(env, cost, np.array([1.0]), np.zeros((1, 1)), cfg)

    def test_failed_backward_iterations_are_traced(self, monkeypatch):
        calls = {"n": 0}
        real = ilqr_mod.backward_pass

        def fail_once(traj, cost, models, mu):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NotPositiveDefinite(3)
            return real(traj, cost, models, mu)

        monkeypatch.setattr(ilqr_mod, "backward_pass", fail_once)
        env, cost, _, _ = scalar_setup()
        cfg = OptimizerConfig(mu=1e-6, max_iters=5)
        _, trace = optimize(env, cost, np.array([1.0]), np.zeros((1, 1)), cfg)
        first = trace.records[0]
        assert not first.backward_success and not first.accepted
        assert first.mu == pytest.approx(1e-5)  # escalated by mu_factor
        assert any(r.accepted for r in trace.records[1:])

    def test_mu_escalates_from_zero(self, monkeypatch):
        # mu = 0 first escalates to mu_min, so the regularizer still reaches
        # mu_max and a pass that keeps failing raises instead of spinning
        monkeypatch.setattr(ilqr_mod, "backward_pass", _always_fail)
        env, cost, _, _ = scalar_setup()
        cfg = OptimizerConfig(mu=0.0, max_iters=200)
        with pytest.raises(RegularizationExhausted):
            optimize(env, cost, np.array([1.0]), np.zeros((1, 1)), cfg)

    def test_eval_count_is_cumulative_and_increasing(self):
        env, cost, _, _ = scalar_setup()
        cfg = OptimizerConfig(max_iters=5)
        _, trace = optimize(env, cost, np.array([1.0]), np.zeros((1, 1)), cfg)
        counts = [r.eval_count for r in trace.records]
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_eval_count_leaves_out_the_open_loop_rollout(self):
        # eval_count counts identification and line-search rows; the N rows
        # of the open-loop rollout before iteration 1 are stepped uncounted
        cfg = default_config()
        env = cfg.make_env()
        stepped = []

        def counting(x, u):
            stepped.append(int(np.prod(np.shape(x)[:-1])))
            return env.step_fn(x, u)

        opt = replace(cfg.make_optimizer(), max_iters=3)
        u_init = np.zeros((env.horizon, env.n_u))
        _, trace = optimize(replace(env, step_fn=counting), cfg.make_cost(env), env.x0, u_init, opt)
        N, n_s = env.horizon, opt.estimator.resolve_n_s(env)
        assert (N, n_s) == (30, 7)
        assert sum(stepped) == 1380
        assert trace.records[-1].eval_count == sum(stepped) - N
        # each iteration identifies 2 * n_s rows per step, then steps N rows at alpha = 1
        assert [(r.alpha, r.accepted) for r in trace.records] == [(1.0, True)] * 3
        assert [r.eval_count for r in trace.records] == [450, 900, 1350]
        assert 2 * n_s * N + N == 450


def _default_run(name, **overrides):
    cfg = default_config()
    cfg.set("env", "name", name)
    env = cfg.make_env()
    cost = cfg.make_cost(env)
    opt = replace(cfg.make_optimizer(), **overrides)
    return optimize(env, cost, env.x0, np.zeros((env.horizon, env.n_u)), opt)


# The default pendulum run improves its best cost on every iteration and
# converges; with this tolerance it never converges, makes its last
# improvement at iteration 53 and stops "stalled" at 83.
STALLING_CONV_TOL = 1e-12


@pytest.fixture(scope="module")
def stalled_pendulum():
    return _default_run("pendulum", conv_tol=STALLING_CONV_TOL)


def _default_cost(env):
    cfg = default_config()
    cfg.set("env", "name", env.name)
    return cfg.make_cost(env)


def _rows(trace):
    # every field but the wall clock, as round-trip text so NaN alphas compare equal
    return [repr((r.iteration, r.cost, r.best_cost, r.mu, r.alpha, r.backward_success,
                  r.accepted, r.eval_count)) for r in trace.records]


class TestTermination:
    def test_linear_problem_converges(self):
        _, trace = _default_run("linear_test")
        assert trace.stop_reason == "converged"

    def test_rejected_line_search_stops_the_run(self, monkeypatch):
        monkeypatch.setattr(ilqr_mod, "forward_pass", lambda prev, *a, **k: (prev, False))
        _, trace = _default_run("linear_test")
        assert trace.stop_reason == "line_search_exhausted"
        assert len(trace) == 1 and not trace.records[0].accepted

    def test_iteration_cap(self):
        _, trace = _default_run("pendulum", max_iters=3)
        assert trace.stop_reason == "max_iters"
        assert len(trace) == 3

    def test_failed_backward_passes_count_toward_the_stall(self, monkeypatch):
        # three failed passes, then passes whose line search accepts without
        # improving: the stall fires on the first successful pass, iteration 4
        real = ilqr_mod.backward_pass
        calls = {"n": 0}

        def fail_three(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] <= 3:
                raise NotPositiveDefinite(0)
            return real(*args, **kwargs)

        monkeypatch.setattr(ilqr_mod, "STALL_WINDOW", 4)
        monkeypatch.setattr(ilqr_mod, "backward_pass", fail_three)
        monkeypatch.setattr(ilqr_mod, "forward_pass", lambda prev, *a, **k: (prev, True))
        env, cost, _, _ = scalar_setup()
        traj, trace = optimize(env, cost, np.array([1.0]), np.zeros((1, 1)), OptimizerConfig())
        assert trace.stop_reason == "stalled"
        assert [r.backward_success for r in trace.records] == [False, False, False, True]
        assert traj.cost == pytest.approx(1.0)  # the open-loop rollout, iteration 0

    def test_failing_backward_pass_raises_before_it_stalls(self, monkeypatch):
        # escalating 1e-6 -> 1e10 by 1.5 takes about 91 failures, far more
        # than the window; exhaustion must still raise, not stop "stalled"
        monkeypatch.setattr(ilqr_mod, "STALL_WINDOW", 4)
        monkeypatch.setattr(ilqr_mod, "backward_pass", _always_fail)
        env, cost, _, _ = scalar_setup()
        cfg = OptimizerConfig(mu_factor=1.5, max_iters=500)
        with pytest.raises(RegularizationExhausted):
            optimize(env, cost, np.array([1.0]), np.zeros((1, 1)), cfg)

    def test_pendulum_stalls_one_window_after_its_last_improvement(self, stalled_pendulum):
        traj, trace = stalled_pendulum
        assert trace.stop_reason == "stalled"
        env = make_pendulum_env()
        best = rollout_open_loop(env, env.x0, np.zeros((env.horizon, env.n_u)), _default_cost(env)).cost
        last_improvement = 0
        for rec in trace.records:
            assert rec.best_cost == min(best, rec.cost)
            if rec.best_cost < best:
                best, last_improvement = rec.best_cost, rec.iteration
        assert traj.cost == best
        assert len(trace) == last_improvement + ilqr_mod.STALL_WINDOW

    def test_stall_stop_is_bit_identical_to_a_capped_run(self, stalled_pendulum, monkeypatch):
        # the rule only ends the run: up to the stop, every iteration is
        # computed as without it
        stalled_traj, stalled_trace = stalled_pendulum
        stop = len(stalled_trace)
        monkeypatch.setattr(ilqr_mod, "STALL_WINDOW", stop + 1)
        traj, trace = _default_run("pendulum", max_iters=stop, conv_tol=STALLING_CONV_TOL)
        assert trace.stop_reason == "max_iters"
        assert _rows(trace) == _rows(stalled_trace)
        assert np.array_equal(traj.states, stalled_traj.states)
        assert np.array_equal(traj.controls, stalled_traj.controls)
        assert traj.cost == stalled_traj.cost


class TestOptimizerConfig:
    def test_alpha_schedule_must_decrease(self):
        with pytest.raises(ContractViolation, match="decreasing"):
            OptimizerConfig(alphas=(0.5, 0.5))

    def test_alpha_values_must_be_in_unit_interval(self):
        with pytest.raises(ContractViolation):
            OptimizerConfig(alphas=(1.5, 0.5))
        with pytest.raises(ContractViolation):
            OptimizerConfig(alphas=())

    def test_mu_factor_must_exceed_one(self):
        with pytest.raises(ContractViolation):
            OptimizerConfig(mu_factor=1.0)

    def test_negative_band_rejected(self):
        with pytest.raises(ContractViolation):
            OptimizerConfig(band=-0.01)

    @pytest.mark.parametrize("key", ["mu", "mu_factor", "band", "conv_tol"])
    def test_nan_parameter_rejected(self, key):
        # NaN fails no comparison, so each check must be written as the range it accepts
        with pytest.raises(ContractViolation):
            OptimizerConfig(**{key: np.nan})

    def test_default_alpha_schedule_halves(self):
        cfg = OptimizerConfig()
        assert cfg.alphas[0] == 1.0
        assert cfg.alphas[1] == 0.5
