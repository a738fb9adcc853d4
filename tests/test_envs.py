import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilqr
from dilqr.costs import QuadraticCostModel
from dilqr.envs import (
    LINEAR_TEST_A,
    LINEAR_TEST_B,
    NoiseModel,
    make_cartpole_env,
    make_env,
    make_linear_env,
    make_pendulum_env,
    pendulum_deriv,
    rk4_step,
    rollout_closed_loop,
    rollout_open_loop,
    step,
    step_noisy,
)
from dilqr.errors import ContractViolation
from dilqr.feedback import DecoupledPolicy


def unit_cost(n_x, n_u):
    return QuadraticCostModel(np.eye(n_x), np.eye(n_u), np.eye(n_x), np.zeros(n_x))


class TestStep:
    def test_linear_step_is_a_hand_matrix_multiply(self):
        env = make_linear_env()
        x = np.array([1.0, 0.0])
        u = np.array([0.0])
        assert np.allclose(step(env, x, u), LINEAR_TEST_A @ x + LINEAR_TEST_B @ u)
        assert np.allclose(step(env, x, u), [1.0, 0.0])

    def test_pendulum_upright_is_a_fixed_point(self):
        env = make_pendulum_env()
        out = step(env, np.array([np.pi, 0.0]), np.zeros(1))
        assert np.allclose(out, [np.pi, 0.0], atol=1e-12)

    def test_cartpole_rest_is_a_fixed_point(self):
        env = make_cartpole_env()
        out = step(env, np.zeros(4), np.zeros(1))
        assert np.allclose(out, np.zeros(4), atol=1e-12)

    def test_controls_are_clamped_to_bounds(self):
        env = make_pendulum_env(torque_limit=2.0)
        big = step(env, np.zeros(2), np.array([100.0]))
        at_limit = step(env, np.zeros(2), np.array([2.0]))
        assert np.allclose(big, at_limit)

    def test_dimension_mismatch_rejected(self):
        env = make_linear_env()
        with pytest.raises(ContractViolation, match="dimensions"):
            step(env, np.zeros(3), np.zeros(1))

    def test_non_finite_input_rejected(self):
        env = make_linear_env()
        with pytest.raises(ContractViolation, match="non-finite"):
            step(env, np.array([np.inf, 0.0]), np.zeros(1))

    def test_step_is_pure(self):
        env = make_pendulum_env()
        x = np.array([0.5, -0.2])
        u = np.array([1.0])
        assert np.array_equal(step(env, x, u), step(env, x, u))

    @pytest.mark.parametrize("name", ["linear_test", "pendulum", "cartpole"])
    def test_batch_rows_equal_single_point_calls_exactly(self, name):
        env = make_env(name)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((64, env.n_x))
        U = 2 * env.u_scale * rng.standard_normal((64, env.n_u))  # some rows clamp
        batch = step(env, X, U)
        for i in range(64):
            assert np.array_equal(batch[i], step(env, X[i], U[i]))

    def test_non_finite_row_in_a_batch_rejected(self):
        env = make_pendulum_env()
        X = np.zeros((8, 2))
        X[5, 1] = np.nan
        with pytest.raises(ContractViolation, match="non-finite"):
            step(env, X, np.zeros((8, 1)))


class TestIntegratorFidelity:
    def test_undamped_pendulum_conserves_energy(self):
        # total mechanical energy drift must stay under 0.1% per 100 steps
        env = make_pendulum_env(damping=0.0)
        m, length, g = 1.0, 1.0, 9.81

        def energy(x):
            theta, omega = x
            return 0.5 * m * (length * omega) ** 2 + m * g * length * (1 - np.cos(theta))

        x = np.array([2.0, 0.0])  # large-amplitude release
        e0 = energy(x)
        for _ in range(100):
            x = step(env, x, np.zeros(1))
        assert abs(energy(x) - e0) / e0 < 1e-3

    def test_rk4_matches_exact_linear_flow(self):
        # d/dt x = a x integrates to exp(a t) within RK4's O(h^5) error
        a = -0.7

        def deriv(x, u):
            return a * x

        x = rk4_step(deriv, np.array([1.0]), np.zeros(1), 0.1, substeps=4)
        assert x[0] == pytest.approx(np.exp(a * 0.1), rel=1e-10)


class TestNoiseModel:
    def test_zero_epsilon_matches_deterministic_step(self):
        env = make_linear_env()
        noise = NoiseModel(epsilon=0.0, channel="state", seed=5)
        x, u = np.array([1.0, 2.0]), np.array([0.3])
        assert np.array_equal(step_noisy(env, x, u, noise, t=0), step(env, x, u))
        noise_c = NoiseModel(epsilon=0.0, channel="control", seed=5)
        assert np.allclose(step_noisy(env, x, u, noise_c, t=0), step(env, x, u))

    def test_state_noise_std_matches_epsilon(self):
        env = make_linear_env()
        eps = 0.05
        noise = NoiseModel(epsilon=eps, channel="state", seed=11)
        x, u = np.array([1.0, 0.0]), np.array([0.0])
        base = step(env, x, u)
        residuals = np.array(
            [step_noisy(env, x, u, noise, t=0, rollout_id=i) - base for i in range(10_000)]
        )
        stds = residuals.std(axis=0, ddof=1)
        assert np.all(np.abs(stds - eps) / eps < 0.05)

    def test_identical_seeds_give_bit_identical_draws(self):
        a = NoiseModel(epsilon=0.1, channel="state", seed=3).draws(7, 30, 2)
        b = NoiseModel(epsilon=0.1, channel="state", seed=3).draws(7, 30, 2)
        assert np.array_equal(a, b)

    def test_distinct_rollouts_get_distinct_streams(self):
        n = NoiseModel(epsilon=0.1, channel="state", seed=3)
        assert not np.array_equal(n.draws(0, 30, 2), n.draws(1, 30, 2))

    def test_epsilon_range_validated(self):
        with pytest.raises(ContractViolation):
            NoiseModel(epsilon=-0.1)
        with pytest.raises(ContractViolation):
            NoiseModel(epsilon=1.0)

    def test_unknown_channel_rejected(self):
        with pytest.raises(ContractViolation, match="channel"):
            NoiseModel(epsilon=0.1, channel="torque")

    def test_control_noise_unit_is_the_bound_half_width(self):
        env = make_pendulum_env(torque_limit=4.0)
        assert np.allclose(env.u_scale, [4.0])
        env2 = make_linear_env()
        assert np.allclose(env2.u_scale, [100.0])


class TestRollouts:
    def test_open_loop_shapes_and_cost(self):
        env = make_linear_env()
        cost = unit_cost(2, 1)
        controls = np.zeros((5, 1))
        traj = rollout_open_loop(env, env.x0, controls, cost)
        assert traj.states.shape == (6, 2)
        assert traj.controls.shape == (5, 1)
        # x stays (1, 0) under zero control: 6 state terms, no control cost
        assert traj.cost == pytest.approx(0.5 * 6, rel=1e-14)

    def test_zero_gain_closed_loop_equals_noisy_open_loop(self):
        env = make_linear_env()
        cost = unit_cost(2, 1)
        controls = 0.1 * np.ones((8, 1))
        nominal = rollout_open_loop(env, env.x0, controls, cost)
        policy = DecoupledPolicy(nominal, np.zeros((8, 1, 2)))
        noise = NoiseModel(epsilon=0.05, channel="state", seed=2)
        states, applied, _ = rollout_closed_loop(env, policy, noise, cost, rollout_id=4)
        # zero gains: applied controls are exactly the nominal ones
        assert np.allclose(applied, controls)
        # and states reproduce a manual noisy propagation
        x = env.x0.copy()
        w = noise.draws(4, 8, 2)
        for t in range(8):
            x = step(env, x, controls[t]) + noise.epsilon * w[t]
            assert np.allclose(states[t + 1], x)

    def test_closed_loop_feedback_tracks_reference(self):
        env = make_linear_env()
        cost = unit_cost(2, 1)
        nominal = rollout_open_loop(env, env.x0, np.zeros((20, 1)), cost)
        gains = np.tile(np.array([[-1.0, -1.5]]), (20, 1, 1))
        policy = DecoupledPolicy(nominal, gains)
        noise = NoiseModel(epsilon=0.02, channel="state", seed=9)
        states_fb, _, _ = rollout_closed_loop(env, policy, noise, cost, rollout_id=0)
        states_ol, _, _ = rollout_closed_loop(
            env, policy.with_zero_gains(), noise, cost, rollout_id=0
        )
        dev_fb = np.linalg.norm(states_fb - nominal.states)
        dev_ol = np.linalg.norm(states_ol - nominal.states)
        assert dev_fb < dev_ol

    def test_rollouts_reproducible_across_calls(self):
        env = make_linear_env()
        cost = unit_cost(2, 1)
        nominal = rollout_open_loop(env, env.x0, np.zeros((5, 1)), cost)
        policy = DecoupledPolicy(nominal, np.zeros((5, 1, 2)))
        noise = NoiseModel(epsilon=0.1, channel="state", seed=1)
        a = rollout_closed_loop(env, policy, noise, cost, rollout_id=2)
        b = rollout_closed_loop(env, policy, noise, cost, rollout_id=2)
        assert np.array_equal(a[0], b[0]) and a[2] == b[2]


class TestBuilders:
    def test_registry_contents(self):
        for name in ("linear_test", "pendulum", "cartpole"):
            env = make_env(name)
            assert env.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ContractViolation, match="unknown environment"):
            make_env("acrobot")

    def test_overrides_apply(self):
        env = make_pendulum_env(dt=0.05, horizon=40, torque_limit=3.0)
        assert env.dt == 0.05 and env.horizon == 40
        assert np.allclose(env.control_bounds, [[-3.0, 3.0]])

    def test_dimensions(self):
        assert (make_env("linear_test").n_x, make_env("linear_test").n_u) == (2, 1)
        assert (make_env("pendulum").n_x, make_env("pendulum").n_u) == (2, 1)
        assert (make_env("cartpole").n_x, make_env("cartpole").n_u) == (4, 1)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ContractViolation, match="bounds"):
            make_linear_env(control_bounds=[[2.0, -2.0]])

    @settings(max_examples=20, deadline=None)
    @given(
        theta=st.floats(-np.pi, np.pi),
        omega=st.floats(-5.0, 5.0),
        torque=st.floats(-5.0, 5.0),
    )
    def test_pendulum_deriv_velocity_slot_is_consistent(self, theta, omega, torque):
        d = pendulum_deriv(np.array([theta, omega]), np.array([torque]))
        assert d[0] == omega

    @settings(max_examples=20, deadline=None)
    @given(u=st.floats(-500.0, 500.0), seed=st.integers(0, 1000))
    def test_clamp_respects_bounds(self, u, seed):
        rng = np.random.default_rng(seed)
        env = make_pendulum_env(torque_limit=float(rng.uniform(0.5, 20.0)))
        out = env.clamp(np.array([u]))
        lo, hi = env.control_bounds[0]
        assert lo <= out[0] <= hi
