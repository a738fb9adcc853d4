import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dilqr
from dilqr.costs import QuadraticCostModel, total_cost
from dilqr.envs import (
    LINEAR_TEST_A,
    LINEAR_TEST_B,
    CARTPOLE_PARAMS,
    ENV_BUILDERS,
    PENDULUM_PARAMS,
    NoiseModel,
    cartpole_deriv,
    make_cartpole_env,
    make_env,
    make_linear_env,
    make_pendulum_env,
    pendulum_deriv,
    rk4_step,
    rollout,
    rollout_open_loop,
    step,
)
from dilqr.errors import ContractViolation, Diverged
from oracles import rows_of, stacked_cartpole_step, stacked_pendulum_step, stacked_rk4_step


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
        # a ragged x is refused as a contract violation, not numpy's ValueError
        with pytest.raises(ContractViolation, match="dimensions"):
            step(env, [[0.0, 0.0], [0.0]], np.zeros(1))

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

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(["pendulum", "cartpole"]),
        x=st.lists(
            st.one_of(st.floats(-1e3, 1e3), st.floats(-1e300, 1e300)), min_size=4, max_size=4
        ),
        u=st.floats(-1e3, 1e3),
    )
    # cart-pole points whose step changes if a square is libm's pow rather than a product
    @example("cartpole", [1.0127919237457959, -0.7824082484800332, -1.0544501469845304,
                          -0.2658701914395942], 23.690530982817897)
    @example("cartpole", [-12.741842866631497, 30.086821986403645, 7.166867701799929,
                          64.16520269555285], 32.989160841725024)
    def test_one_point_equals_the_one_row_batch_on_wide_states(self, name, x, u):
        # one point runs on Python floats, a batch on arrays; controls beyond
        # the bounds are clamped first, and overflowing points fall back
        env = make_env(name)
        x, u = np.array(x[: env.n_x]), np.array([u])
        with np.errstate(all="ignore"):
            one = step(env, x, u)
            batch = step(env, x[None], u[None])[0]
        assert np.array_equal(one, batch, equal_nan=True)

    @pytest.mark.parametrize(
        "name, x",
        [
            ("cartpole", [0.0, 0.0, 0.0, 1e200]),  # dtheta * dtheta overflows to inf
            ("cartpole", [0.0, 0.0, 1.7e308, 1e308]),  # math.sin(-inf) raises
            ("pendulum", [1.7e308, 1e308]),  # math.sin(inf) raises
        ],
    )
    def test_overflowing_point_gets_the_one_row_batch_result(self, name, x):
        env = make_env(name)
        x, u = np.array(x), np.zeros(1)
        with np.errstate(all="ignore"):
            one = step(env, x, u)
            batch = step(env, x[None], u[None])[0]
        assert not np.isfinite(one).all()
        assert np.array_equal(one, batch, equal_nan=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states, _, alive = rollout(env, x[None], np.zeros((3, 1)))
        assert not alive and np.all(states[1:] == 0.0)

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

        def physics(lib):
            return lambda x, u: (a * x[0],)

        x = rk4_step(physics, 1, 0.1, substeps=4)(np.array([1.0]), np.zeros(1))
        assert x[0] == pytest.approx(np.exp(a * 0.1), rel=1e-10)

    @pytest.mark.parametrize(
        "make, reference, params",
        [
            (make_pendulum_env, stacked_pendulum_step, {}),
            (make_cartpole_env, stacked_cartpole_step, {}),
            (make_pendulum_env, stacked_pendulum_step, dict(dt=0.07, damping=0.35, substeps=3)),
            (make_cartpole_env, stacked_cartpole_step, dict(dt=0.2, substeps=7)),
        ],
        ids=["pendulum", "cartpole", "pendulum-dt-damping-substeps", "cartpole-dt-substeps"],
    )
    @pytest.mark.parametrize("batch", [(), (7,), (420,), (10_000,), (3, 5)])
    def test_step_matches_stacked_rk4_bit_for_bit(self, make, reference, params, batch):
        env = make(**params)
        rng = np.random.default_rng(len(batch) * 1000 + sum(batch))
        x = rng.normal(scale=3.0, size=(*batch, env.n_x))
        u = rng.normal(scale=2.0 * env.u_scale, size=(*batch, env.n_u))
        out = env.step_fn(x, u)
        expected = reference(x, u, **params)
        assert out.shape == expected.shape == (*batch, env.n_x)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)


def chain_physics(n_x):
    """Synthetic physics on n_x coupled components and one control: each
    derivative reads its neighbours through sin and cos, so every component
    of every stage feeds the next."""

    def physics(lib):
        sin, cos = lib.sin, lib.cos

        def deriv(x, u):
            (force,) = u
            return [
                sin(x[(i + 1) % n_x]) - 0.3 * x[i] + (0.5 + cos(x[i - 1])) * force / (i + 1)
                for i in range(n_x)
            ]

        return deriv

    return physics


class TestGeneratedStages:
    """rk4_step's stage code is generated per n_x; these pin it at sizes no
    built-in environment has."""

    @pytest.mark.parametrize("n_x", [3, 6])
    @pytest.mark.parametrize("batch", [(), (7,), (420,)])
    def test_stages_match_stacked_rk4_bit_for_bit(self, n_x, batch):
        physics = chain_physics(n_x)
        step_fn = rk4_step(physics, n_x, 0.15, substeps=4)

        def stacked_deriv(x, u):
            return np.stack(physics(np)([x[..., i] for i in range(n_x)], [u[..., 0]]), axis=-1)

        rng = np.random.default_rng(n_x * 1000 + sum(batch))
        x = rng.normal(scale=2.0, size=(*batch, n_x))
        u = rng.normal(scale=3.0, size=(*batch, 1))
        out = step_fn(x, u)
        expected = stacked_rk4_step(stacked_deriv, x, u, 0.15, 4)
        assert out.shape == expected.shape == (*batch, n_x)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("make", [make_pendulum_env, make_cartpole_env], ids=["pendulum", "cartpole"])
    def test_stage_code_is_compiled_once_per_environment(self, monkeypatch, make):
        compiled = []

        def spy(source, namespace):
            compiled.append(source)
            exec(source, namespace)

        monkeypatch.setattr(dilqr.envs, "exec", spy, raising=False)
        env = make()
        assert len(compiled) == 1
        assert f"x{env.n_x - 1}" in compiled[0] and f"x{env.n_x}" not in compiled[0]
        step(env, env.x0, np.ones(1))
        step(env, np.tile(env.x0, (3, 1)), np.ones((3, 1)))
        rollout(env, env.x0[None], np.ones((4, 2, 1)))
        assert len(compiled) == 1

    def test_a_state_with_the_wrong_number_of_components_raises(self):
        # the physics reads x[0] only, so nothing but the stages can notice a
        # second component; a loop over zip(x, k) used to drop it silently
        def physics(lib):
            return lambda x, u: (-0.7 * x[0],)

        step_fn = rk4_step(physics, 1, 0.1)
        assert step_fn(np.ones(1), np.zeros(1)).shape == (1,)
        for x in (np.ones(2), np.ones((5, 2)), np.ones((5, 0))):
            with pytest.raises(ValueError, match="unpack"):
                step_fn(x, np.zeros((*x.shape[:-1], 1)))


def recording_physics(calls):
    """Damped-pendulum physics whose deriv appends its library's name to calls at each call."""

    def physics(lib):
        def deriv(x, u):
            calls.append(lib.__name__)
            theta, omega = x
            (torque,) = u
            return omega, torque - 0.1 * omega - 9.81 * lib.sin(theta)

        return deriv

    return physics


class TestSingleRowRule:
    """One row each in x and u runs the float stages; anything else runs the array stages."""

    @pytest.mark.parametrize(
        "x_shape, u_shape, out_shape",
        [((2,), (1,), (2,)), ((1, 2), (1, 1), (1, 2)), ((1, 2), (1,), (1, 2)),
         ((2,), (1, 1), (1, 2)), ((1, 1, 2), (1,), (1, 1, 2))],
        ids=["point", "one-row-batch", "one-row-x", "one-row-u", "one-row-3d"],
    )
    def test_one_row_runs_the_float_stages(self, x_shape, u_shape, out_shape):
        calls = []
        step_fn = rk4_step(recording_physics(calls), 2, 0.1, substeps=4)
        x, u = np.array([0.8, -0.5]), np.array([1.5])
        point = step_fn(x, u)
        calls.clear()
        out = step_fn(x.reshape(x_shape), u.reshape(u_shape))
        assert calls == ["math"] * 16  # 4 substeps of 4 stages
        assert out.shape == out_shape
        assert np.array_equal(out.reshape(-1), point)

    def test_two_rows_run_the_array_stages(self):
        calls = []
        step_fn = rk4_step(recording_physics(calls), 2, 0.1, substeps=4)
        out = step_fn(np.array([[0.8, -0.5], [0.1, 0.2]]), np.array([[1.5], [-1.0]]))
        assert calls == ["numpy"] * 16
        assert out.shape == (2, 2)

    @pytest.mark.parametrize("batch", [(), (1,)], ids=["point", "one-row-batch"])
    def test_a_row_the_floats_refuse_runs_the_array_stages_once(self, batch):
        # math.sin(inf) raises at the first stage; numpy's sin returns nan
        calls = []
        step_fn = rk4_step(recording_physics(calls), 2, 0.1, substeps=4)
        x, u = np.full((*batch, 2), np.inf), np.zeros((*batch, 1))
        with np.errstate(all="ignore"):
            out = step_fn(x, u)
            two_rows = step_fn(np.full((2, 2), np.inf), np.zeros((2, 1)))
        assert calls == ["math"] + ["numpy"] * 16 + ["numpy"] * 16
        assert out.shape == (*batch, 2)
        assert np.isnan(out).all()
        assert np.array_equal(out.reshape(-1), two_rows[0], equal_nan=True)


class TestNoiseModel:
    def test_zero_epsilon_matches_deterministic_step(self):
        env = make_linear_env()
        noise = NoiseModel(epsilon=0.0, channel="state", seed=5)
        x, u = np.array([1.0, 2.0]), np.array([0.3])
        states, _, _ = rollout(env, x[None], u[None, None], noise=noise)
        assert np.array_equal(states[1, 0], step(env, x, u))
        noise_c = NoiseModel(epsilon=0.0, channel="control", seed=5)
        states, _, _ = rollout(env, x[None], u[None, None], noise=noise_c)
        assert np.allclose(states[1, 0], step(env, x, u))

    def test_state_noise_std_matches_epsilon(self):
        env = make_linear_env()
        eps = 0.05
        noise = NoiseModel(epsilon=eps, channel="state", seed=11)
        x, u = np.array([1.0, 0.0]), np.array([0.0])
        base = step(env, x, u)
        states, _, _ = rollout(env, x[None], rows_of(u[None], 10_000), noise=noise)
        residuals = states[1] - base
        stds = residuals.std(axis=0, ddof=1)
        assert np.all(np.abs(stds - eps) / eps < 0.05)

    def test_identical_seeds_give_bit_identical_draws(self):
        a = NoiseModel(epsilon=0.1, channel="state", seed=3).draws(4, 8, 2)
        b = NoiseModel(epsilon=0.1, channel="state", seed=3).draws(4, 8, 2)
        assert np.array_equal(a, b)

    def test_distinct_rollouts_get_distinct_streams(self):
        w = NoiseModel(epsilon=0.1, channel="state", seed=3).draws(0, 2, 2)
        assert not np.array_equal(w[0], w[1])

    def test_rollouts_a_block_apart_get_distinct_draws(self):
        # rollouts 0 and 1,024 once opened separate streams; in one stream they still differ
        w = NoiseModel(epsilon=0.1, channel="state", seed=3).draws(0, 1025, 2)
        assert not np.array_equal(w[0], w[1024])

    def test_step_draws_are_rows_of_one_generator_keyed_by_seed_and_step(self):
        M = 2500
        n = NoiseModel(epsilon=0.1, channel="state", seed=3)
        for t in (0, 1, 29, 1000):
            w = n.draws(t, M, 2)
            assert w.shape == (M, 2)
            expected = np.random.default_rng(np.random.SeedSequence([3, t])).standard_normal((M, 2))
            assert np.array_equal(w, expected)
            # sequential draws are prefix-stable: fewer rollouts are a prefix of more
            assert np.array_equal(n.draws(t, 5, 2), w[:5])
        assert not np.array_equal(n.draws(0, 5, 2), n.draws(1, 5, 2))

    def test_no_rollouts_is_a_contract_violation(self):
        n = NoiseModel(epsilon=0.1, channel="state", seed=3)
        with pytest.raises(ContractViolation, match="rows"):
            n.draws(0, 0, 2)

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
        noise = NoiseModel(epsilon=0.05, channel="state", seed=2)
        states, applied, _ = rollout(
            env, nominal.states, rows_of(nominal.controls, 5), np.zeros((8, 1, 2)), noise
        )
        # zero gains: applied controls are exactly the nominal ones
        assert np.array_equal(applied[:, 4], controls)
        # and rollout 4's states reproduce a manual noisy propagation
        x = env.x0.copy()
        for t in range(8):
            x = step(env, x, controls[t]) + noise.epsilon * noise.draws(t, 5, 2)[4]
            assert np.allclose(states[t + 1, 4], x)

    def test_closed_loop_feedback_tracks_reference(self):
        env = make_linear_env()
        cost = unit_cost(2, 1)
        nominal = rollout_open_loop(env, env.x0, np.zeros((20, 1)), cost)
        gains = np.tile(np.array([[-1.0, -1.5]]), (20, 1, 1))
        noise = NoiseModel(epsilon=0.02, channel="state", seed=9)
        u_bar = rows_of(nominal.controls, 1)
        states_fb, _, _ = rollout(env, nominal.states, u_bar, gains, noise)
        states_ol, _, _ = rollout(env, nominal.states, u_bar, np.zeros_like(gains), noise)
        dev_fb = np.linalg.norm(states_fb[:, 0] - nominal.states)
        dev_ol = np.linalg.norm(states_ol[:, 0] - nominal.states)
        assert dev_fb < dev_ol

    def test_rollouts_reproducible_across_calls(self):
        env = make_linear_env()
        cost = unit_cost(2, 1)
        nominal = rollout_open_loop(env, env.x0, np.zeros((5, 1)), cost)
        noise = NoiseModel(epsilon=0.1, channel="state", seed=1)
        K = np.zeros((5, 1, 2))
        a = rollout(env, nominal.states, rows_of(nominal.controls, 3), K, noise)
        b = rollout(env, nominal.states, rows_of(nominal.controls, 3), K, noise)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert np.array_equal(total_cost(a[0], a[1], cost), total_cost(b[0], b[1], cost))

    def test_open_loop_records_and_charges_applied_controls(self):
        # the torque limit is 10: u = 50 drives the same states as u = 10,
        # so it must also record and cost the same controls
        env = make_pendulum_env()
        cost = unit_cost(2, 1)
        over = rollout_open_loop(env, env.x0, 50.0 * np.ones((30, 1)), cost)
        at_limit = rollout_open_loop(env, env.x0, 10.0 * np.ones((30, 1)), cost)
        assert over.controls[0, 0] == 10.0
        assert np.array_equal(over.states, at_limit.states)
        assert np.array_equal(over.controls, at_limit.controls)
        assert over.cost == at_limit.cost

    def test_open_loop_in_bounds_equals_step_by_step_exactly(self):
        env = make_cartpole_env()
        cost = unit_cost(4, 1)
        controls = np.random.default_rng(0).uniform(-15.0, 15.0, (30, 1))
        traj = rollout_open_loop(env, env.x0, controls, cost)
        x = env.x0
        for t in range(30):
            x = step(env, x, controls[t])
            assert np.array_equal(traj.states[t + 1], x)
        assert np.array_equal(traj.controls, controls)
        assert traj.cost == total_cost(traj.states, controls, cost)

    def test_overflowing_open_loop_rollout_is_a_numerical_failure(self):
        # valid input on an explosively unstable map: the state overflows within the horizon
        env = make_linear_env(A=[[1e80, 0], [0, 1e80]], B=[[0.0], [1.0]], horizon=10)
        with pytest.raises(Diverged, match="open-loop rollout diverged"):
            rollout_open_loop(env, env.x0, np.zeros((10, 1)), unit_cost(2, 1))

    @pytest.mark.parametrize("channel", ["state", "control"])
    @pytest.mark.parametrize("name", ["linear_test", "pendulum", "cartpole"])
    def test_batch_rows_equal_single_rollouts_exactly(self, name, channel):
        env = make_env(name)
        rng = np.random.default_rng(1)
        N, M = 12, 16
        u_bar = 0.8 * env.u_scale * rng.uniform(-1.0, 1.0, (N, env.n_u))
        nominal = rollout_open_loop(env, env.x0, u_bar, unit_cost(env.n_x, env.n_u))
        K = rng.standard_normal((N, env.n_u, env.n_x))
        noise = NoiseModel(epsilon=0.3, channel=channel, seed=7)
        dim = env.n_x if channel == "state" else env.n_u
        states, controls, alive = rollout(env, nominal.states, rows_of(nominal.controls, M), K, noise)
        assert states.shape == (N + 1, M, env.n_x) and controls.shape == (N, M, env.n_u)
        assert alive.all()
        w = np.stack([noise.draws(t, M, dim) for t in range(N)])
        for i in range(M):
            # rollout i as single points: 1-D states, K_t @ dx and one step per t
            x = nominal.states[0]
            for t in range(N):
                u = nominal.controls[t] + K[t] @ (x - nominal.states[t])
                if channel == "control":
                    u = u + noise.epsilon * env.u_scale * w[t, i]
                u = env.clamp(u)
                x = step(env, x, u)
                if channel == "state":
                    x = x + noise.epsilon * w[t, i]
                assert np.array_equal(controls[t, i], u)
                assert np.array_equal(states[t + 1, i], x)

    @pytest.mark.parametrize("feedback", [False, True], ids=["open-loop", "feedback"])
    @pytest.mark.parametrize("name", ["linear_test", "pendulum", "cartpole"])
    def test_control_batch_rows_equal_single_rollouts_exactly(self, name, feedback):
        # M distinct control sequences as one (N, M, n_u) batch, without noise
        env = make_env(name)
        rng = np.random.default_rng(4)
        N, M = 12, 5
        nominal = rollout_open_loop(env, env.x0, np.zeros((N, env.n_u)), unit_cost(env.n_x, env.n_u))
        K = rng.standard_normal((N, env.n_u, env.n_x)) if feedback else None
        U = 0.8 * env.u_scale * rng.uniform(-1.0, 1.0, (N, M, env.n_u))
        calls = []

        def counting(x, u):
            calls.append((x.shape, u.shape))
            return env.step_fn(x, u)

        states, controls, alive = rollout(replace(env, step_fn=counting), nominal.states, U, K)
        assert calls == [((M, env.n_x), (M, env.n_u))] * N
        assert states.shape == (N + 1, M, env.n_x) and controls.shape == (N, M, env.n_u)
        assert alive.shape == (M,) and alive.all()
        assert len({U[:, i].tobytes() for i in range(M)}) == M
        for i in range(M):
            # row i as one trajectory: 1-D states, on the float RK4 path
            one = rollout(env, nominal.states, U[:, i], K)
            assert np.array_equal(states[:, i], one[0])
            assert np.array_equal(controls[:, i], one[1])
            assert one[2].shape == () and one[2]

    @pytest.mark.parametrize("name", ["linear_test", "pendulum", "cartpole"])
    def test_noise_needs_a_non_empty_control_batch(self, name):
        env = make_env(name)
        calls = []
        counted = replace(env, step_fn=lambda x, u: calls.append(x.shape) or env.step_fn(x, u))
        noise = NoiseModel(epsilon=0.1, seed=1)
        for u_bar, K, noise_model in (
            (np.zeros((4, env.n_u)), None, noise),
            (np.zeros((4, env.n_u)), np.zeros((4, env.n_u, env.n_x)), noise),
            (np.zeros((4, 2, 3, env.n_u)), None, noise),
            (np.zeros((4, 0, env.n_u)), None, noise),
            (np.zeros((4, 0, env.n_u)), None, None),
        ):
            with pytest.raises(ContractViolation, match="batch"):
                rollout(counted, np.zeros((5, env.n_x)), u_bar, K, noise_model)
        assert calls == []

    def test_divergent_row_is_held_at_zero_while_the_batch_steps_on(self, monkeypatch):
        env = make_linear_env(A=10.0 * np.eye(2), B=[[0.0], [1.0]], horizon=4)
        calls = []

        def counting(x, u):
            calls.append((x.shape, u.shape))
            return env.step_fn(x, u)

        counted = replace(env, step_fn=counting)
        noise = NoiseModel(epsilon=0.5, channel="state", seed=0)
        w = np.zeros((4, 3, 2))
        w[0, 1, 0] = 1e308  # row 1 reaches 5e307, then overflows at t = 1
        monkeypatch.setattr(NoiseModel, "draws", lambda self, t, rows, dim: w[t])
        states, _, alive = rollout(counted, np.zeros((1, 2)), np.zeros((4, 3, 1)), None, noise)
        assert alive.tolist() == [True, False, True]
        assert np.all(states[2:, 1] == 0.0)
        assert np.all(np.isfinite(states))
        assert calls == [((3, 2), (3, 1))] * 4  # without K every row still gets its control row
        # a feedback control that overflows under an infinite bound reaches step_fn as
        # it is, and its row dies the same way: here K_1 dx_1 = 1e200 * 1e200
        calls.clear()
        env = make_linear_env(A=[[1e200, 0.0], [0.0, 1.0]], horizon=3,
                              control_bounds=[[-np.inf, np.inf]])
        counted = replace(env, step_fn=counting)
        x_bar = np.zeros((4, 2))
        x_bar[0] = env.x0
        K = np.tile([[[1e200, 0.0]]], (3, 1, 1))
        states, controls, alive = rollout(counted, x_bar, np.zeros((3, 2, 1)), K)
        assert alive.tolist() == [False, False] and np.all(controls[1] == np.inf)
        assert np.all(states[2:] == 0.0)
        assert calls == [((2, 2), (2, 1))] * 3
        # on the linear test system only row 1, which reaches x_1 = (1, 10), overflows
        env = make_linear_env(horizon=3, control_bounds=[[-np.inf, np.inf]])
        u_bar = np.zeros((3, 2, 1))
        u_bar[0, 1] = 100.0
        K = np.tile([[[0.0, 1e308]]], (3, 1, 1))
        states, _, alive = rollout(env, x_bar, u_bar, K)
        assert alive.tolist() == [True, False]
        assert np.array_equal(states[:, 0], rollout(env, x_bar, u_bar[:, 0], K)[0])

    def test_non_finite_nominal_control_rejected(self):
        # clamping would turn an infinite control into the bound; it is refused instead
        env = make_pendulum_env()
        calls = []
        counted = replace(env, step_fn=lambda x, u: calls.append(x.shape) or env.step_fn(x, u))
        controls = np.zeros((5, 1))
        controls[2] = np.inf
        with pytest.raises(ContractViolation, match="non-finite"):
            rollout_open_loop(counted, env.x0, controls, unit_cost(2, 1))
        # the loop steps step_fn unchecked, so all it reads is checked before the first
        # step: K_t and x_bar_t for t < N, and u_scale for control noise, which an
        # infinite bound makes infinite
        unbounded = replace(counted, control_bounds=[[-np.inf, np.inf]])
        nan_gain, nan_ref = np.zeros((5, 1, 2)), np.zeros((6, 2))
        nan_gain[1, 0, 1] = np.nan
        nan_ref[3, 0] = np.nan
        for run_env, x_bar, u_bar, K, noise in (
            (counted, np.zeros((6, 2)), np.zeros((5, 1)), nan_gain, None),
            (counted, np.zeros((6, 2)), np.zeros((5, 3, 1)), nan_gain, None),
            (counted, nan_ref, np.zeros((5, 1)), np.zeros((5, 1, 2)), None),
            (counted, nan_ref[3:], np.zeros((5, 1)), None, None),
            (unbounded, np.zeros((1, 2)), np.zeros((5, 3, 1)), None, NoiseModel(0.1, "control")),
            (unbounded, np.zeros((1, 2)), np.zeros((5, 3, 1)), None, NoiseModel(0.0, "control")),
        ):
            with pytest.raises(ContractViolation, match="non-finite"):
                rollout(run_env, x_bar, u_bar, K, noise)
        assert calls == []
        # x_bar_N is never read, and without K nothing after x_bar_0 is
        nan_ref[3, 0], nan_ref[5, 0] = 0.0, np.nan
        for K in (np.zeros((5, 1, 2)), None):
            states, _, alive = rollout(counted, nan_ref, np.zeros((5, 1)), K)
            assert alive and np.all(np.isfinite(states))
        assert len(calls) == 10

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["one", "batch"])
    def test_empty_horizon_returns_the_start_state(self, batch):
        env = make_pendulum_env()
        states, controls, alive = rollout(env, env.x0[None], np.zeros((0, *batch, env.n_u)))
        assert states.shape == (1, *batch, env.n_x)
        assert controls.shape == (0, *batch, env.n_u)
        assert states.dtype == controls.dtype == np.float64
        assert np.array_equal(states[0], np.broadcast_to(env.x0, (*batch, env.n_x)))
        assert alive.shape == batch and np.all(alive)

    def test_rollout_dimension_mismatch_rejected(self):
        calls = []
        env = make_pendulum_env()
        env = replace(env, step_fn=lambda x, u, _step=env.step_fn: calls.append(x) or _step(x, u))
        with pytest.raises(ContractViolation, match="dimensions"):
            rollout(env, np.zeros((1, 4)), np.zeros((5, 1)))
        with pytest.raises(ContractViolation, match="batch"):
            rollout(env, np.zeros((1, 2)), np.zeros((5, 0, 1)), None, NoiseModel(epsilon=0.1))
        with pytest.raises(ContractViolation, match="dimensions"):
            rollout(env, np.zeros((6, 2)), np.zeros((5, 1)), np.zeros((5, 1, 4)))
        # a 1-D x_bar would start from (x_bar[0], x_bar[0]); 3-D and empty ones are refused too
        for x_bar in (np.array([0.5, 0.1]), np.zeros((1, 1, 2)), np.zeros((0, 2))):
            with pytest.raises(ContractViolation, match="dimensions"):
                rollout(env, x_bar, np.zeros((3, 1)))
        # a 0-d or 1-d control has no time axis and no control axis to read
        for u_bar in (np.float64(1.0), np.zeros(3)):
            with pytest.raises(ContractViolation, match="dimensions"):
                rollout(env, np.zeros((1, 2)), u_bar)
        with pytest.raises(ContractViolation, match="dimensions"):
            rollout(env, np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((3, 1, 2)))
        # K is read through np.asarray: a nested list of the wrong shape is refused
        with pytest.raises(ContractViolation, match="dimensions"):
            rollout(env, np.zeros((6, 2)), np.zeros((5, 1)), [[[0.0, 0.0]]] * 4)
        # a ragged nested list is refused as a contract violation, not numpy's ValueError
        for x_bar, u_bar, K in (
            (np.zeros((3, 2)), np.zeros((2, 1)), [[[0.0, 0.0]], [[0.0]]]),
            ([[0.0, 0.0], [0.0]], np.zeros((2, 1)), None),
            (np.zeros((3, 2)), [[0.0], [0.0, 1.0]], None),
        ):
            with pytest.raises(ContractViolation, match="dimensions"):
                rollout(env, x_bar, u_bar, K)
        assert calls == []  # every check runs before the first step
        # and a nested list of the right shape steps exactly like the array
        linear = make_linear_env(horizon=2)
        x_bar, u_bar = np.zeros((3, 2)), np.zeros((2, 1))
        x_bar[0] = linear.x0
        K = [[[-1.0, -1.5]], [[-0.5, 2.0]]]
        listed, array = rollout(linear, x_bar, u_bar, K), rollout(linear, x_bar, u_bar, np.array(K))
        assert all(np.array_equal(a, b) for a, b in zip(listed, array))


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
        env = make_cartpole_env(dt=0.2, horizon=25, force_limit=7.5)
        assert env.dt == 0.2 and env.horizon == 25
        assert np.allclose(env.control_bounds, [[-7.5, 7.5]])

    @pytest.mark.parametrize(
        "name, n_x, dt, limit, x0, x_goal",
        [
            ("linear_test", 2, 0.1, 100.0, [1.0, 0.0], [0.0, 0.0]),
            ("pendulum", 2, 0.1, 10.0, [0.0, 0.0], [np.pi, 0.0]),
            ("cartpole", 4, 0.15, 20.0, [0.0] * 4, [0.0, 0.0, np.pi, 0.0]),
        ],
        ids=["linear_test", "pendulum", "cartpole"],
    )
    def test_builder_defaults_are_pinned(self, name, n_x, dt, limit, x0, x_goal):
        env = ENV_BUILDERS[name]()
        assert env.name == name
        assert (env.n_x, env.n_u, env.dt, env.horizon) == (n_x, 1, dt, 30)
        assert np.array_equal(env.control_bounds, [[-limit, limit]])
        assert np.array_equal(env.x0, x0) and np.array_equal(env.x_goal, x_goal)

    @pytest.mark.parametrize("substeps", [0, -1])
    @pytest.mark.parametrize("make", [make_pendulum_env, make_cartpole_env],
                             ids=["pendulum", "cartpole"])
    def test_substeps_below_one_rejected(self, make, substeps):
        with pytest.raises(ContractViolation, match=f"substeps={substeps}"):
            make(substeps=substeps)

    def test_dimensions(self):
        assert (make_env("linear_test").n_x, make_env("linear_test").n_u) == (2, 1)
        assert (make_env("pendulum").n_x, make_env("pendulum").n_u) == (2, 1)
        assert (make_env("cartpole").n_x, make_env("cartpole").n_u) == (4, 1)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ContractViolation, match="bounds"):
            make_linear_env(control_bounds=[[2.0, -2.0]])

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: make_linear_env(control_bounds=[[np.nan, 1.0]]), "bounds"),
            (lambda: make_linear_env(control_bounds=[[-1.0, np.nan]]), "bounds"),
            (lambda: make_pendulum_env(torque_limit=np.nan), "bounds"),
            (lambda: make_pendulum_env(dt=np.nan), "dt > 0"),
            (lambda: make_pendulum_env(dt=np.inf), "dt > 0, finite"),
        ],
        ids=["bound_lo", "bound_hi", "torque_limit", "dt", "dt_inf"],
    )
    def test_nan_parameter_rejected(self, build, match):
        # a NaN bound, or a NaN or infinite dt, must fail the check, not
        # construct and step to NaN states
        with pytest.raises(ContractViolation, match=match):
            build()

    @settings(max_examples=20, deadline=None)
    @given(
        theta=st.floats(-np.pi, np.pi),
        omega=st.floats(-5.0, 5.0),
        torque=st.floats(-5.0, 5.0),
    )
    def test_pendulum_deriv_velocity_slot_is_consistent(self, theta, omega, torque):
        d = pendulum_deriv(math, **PENDULUM_PARAMS)((theta, omega), (torque,))
        assert d[0] == omega

    @pytest.mark.parametrize(
        "deriv, params, x",
        [
            (pendulum_deriv, PENDULUM_PARAMS, [np.inf, 0.0]),
            (cartpole_deriv, CARTPOLE_PARAMS, [0.0, 1.0, -np.inf, 2.0]),
        ],
    )
    def test_derivs_on_numpy_scalars_keep_numpy_semantics(self, deriv, params, x):
        # bound to numpy, the physics keeps numpy's semantics on np.float64
        # (a float subclass): an infinite angle gives nan, not math.sin's ValueError
        physics = deriv(np, **params)
        with np.errstate(all="ignore"):
            scalars = physics([np.float64(v) for v in x], [np.float64(0.5)])
            arrays = physics([np.array([v]) for v in x], [np.array([0.5])])
        assert all(type(d) is not float for d in scalars)
        assert np.array_equal(np.array(scalars), np.array(arrays)[:, 0], equal_nan=True)

    @pytest.mark.parametrize(
        "make, physics_name",
        [(make_pendulum_env, "pendulum_deriv"), (make_cartpole_env, "cartpole_deriv")],
        ids=["pendulum", "cartpole"],
    )
    def test_physics_is_bound_once_per_library(self, monkeypatch, make, physics_name):
        bound = []
        physics = getattr(dilqr.envs, physics_name)

        def spy(lib, **params):
            bound.append(lib)
            return physics(lib, **params)

        monkeypatch.setattr(dilqr.envs, physics_name, spy)
        env = make()
        assert bound == [math, np]
        step(env, env.x0, np.ones(1))
        step(env, np.tile(env.x0, (3, 1)), np.ones((3, 1)))
        rollout(env, env.x0[None], np.ones((4, 2, 1)))
        assert bound == [math, np]

    @settings(max_examples=20, deadline=None)
    @given(u=st.floats(-500.0, 500.0), seed=st.integers(0, 1000))
    def test_clamp_respects_bounds(self, u, seed):
        rng = np.random.default_rng(seed)
        env = make_pendulum_env(torque_limit=float(rng.uniform(0.5, 20.0)))
        out = env.clamp(np.array([u]))
        lo, hi = env.control_bounds[0]
        assert lo <= out[0] <= hi

    @pytest.mark.parametrize(
        "bounds",
        [
            [[-10.0, 10.0]],
            [[-10.0, 10.0], [0.5, 2.0], [-np.inf, np.inf]],
            [[-3.0, np.inf], [-np.inf, -1.0], [1e-300, 1e300]],
            [[0.0, 1.0]],
            [[-1.0, -0.0]],
            [[0.0, 1.0], [-0.0, 2.0], [-1.0, 0.0]],
        ],
    )
    def test_clamp_equals_np_clip_bit_for_bit(self, bounds):
        env = make_linear_env(A=np.eye(1), B=np.ones((1, len(bounds))), control_bounds=bounds)
        lo, hi = env.control_bounds[:, 0], env.control_bounds[:, 1]
        entries = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -3.0, 1e300, -1e300, np.inf, -np.inf, np.nan]
        # 1,000 rows take numpy's vectorized loops, a point its scalar ones
        batch = np.random.default_rng(0).choice(entries, size=(1000, env.n_u))
        for u in (*batch[:50], batch):
            # where u equals a bound clamp returns the bound, which only a signed
            # zero tells apart; np.clip returns u there on an n_u = 1 batch
            expected = np.where(u == lo, lo, np.where(u == hi, hi, np.clip(u, lo, hi)))
            assert np.array_equal(env.clamp(u).view(np.int64), expected.view(np.int64))
