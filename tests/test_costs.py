import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilqr.costs import (
    NominalTrajectory,
    QuadraticCostModel,
    cost_partials,
    stage_cost,
    terminal_cost,
    terminal_partials,
    total_cost,
)
from dilqr.config import default_config
from dilqr.envs import NoiseModel, make_env, rollout
from dilqr.errors import ContractViolation
from oracles import per_step_total_cost, rows_of


def simple_cost(n_x=2, n_u=1):
    return QuadraticCostModel(
        Q=np.eye(n_x),
        R=np.eye(n_u),
        Q_terminal=2.0 * np.eye(n_x),
        x_goal=np.zeros(n_x),
    )


class TestQuadraticCostModel:
    def test_scalar_weights_promoted_to_matrices(self):
        c = QuadraticCostModel(Q=1.0, R=2.0, Q_terminal=3.0, x_goal=[0.0])
        assert c.Q.shape == (1, 1)
        assert c.R.shape == (1, 1)
        assert c.n_x == 1 and c.n_u == 1

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ContractViolation, match="symmetric"):
            QuadraticCostModel(Q=[[1, 2], [0, 1]], R=1.0, Q_terminal=np.eye(2), x_goal=[0, 0])

    def test_indefinite_q_rejected(self):
        with pytest.raises(ContractViolation, match="semidefinite"):
            QuadraticCostModel(Q=[[-1, 0], [0, 1]], R=1.0, Q_terminal=np.eye(2), x_goal=[0, 0])

    def test_singular_r_rejected(self):
        with pytest.raises(ContractViolation, match="positive definite"):
            QuadraticCostModel(Q=np.eye(2), R=0.0, Q_terminal=np.eye(2), x_goal=[0, 0])

    def test_goal_dimension_mismatch_rejected(self):
        with pytest.raises(ContractViolation, match="dimensions"):
            QuadraticCostModel(Q=np.eye(2), R=1.0, Q_terminal=np.eye(2), x_goal=[0, 0, 0])

    def test_time_varying_stack_rejected(self):
        # weights are constant matrices; a (N, n, n) stack is not a weight
        Q = np.stack([np.eye(2), 3 * np.eye(2)])
        with pytest.raises(ContractViolation, match="Q must be a square matrix"):
            QuadraticCostModel(Q=Q, R=1.0, Q_terminal=np.eye(2), x_goal=[0, 0])
        with pytest.raises(ContractViolation, match="R must be a square matrix"):
            QuadraticCostModel(Q=np.eye(2), R=np.ones((3, 1, 1)), Q_terminal=np.eye(2), x_goal=[0, 0])

    def test_scaled_multiplies_all_weights(self):
        base = simple_cost()
        c = QuadraticCostModel(4.0 * base.Q, 4.0 * base.R, 4.0 * base.Q_terminal, base.x_goal)
        assert np.allclose(c.Q, 4 * np.eye(2))
        assert np.allclose(c.R, 4 * np.eye(1))
        assert np.allclose(c.Q_terminal, 8 * np.eye(2))


class TestTotalCost:
    def test_hand_computed_two_step_value(self):
        # x = (1,0) -> (0.5,0) -> (0,0); u = -1, -0.5; Q=I, R=I, Q_N=2I
        c = simple_cost()
        states = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]])
        controls = np.array([[-1.0], [-0.5]])
        expected = 0.5 * 1.0 + 0.5 * 1.0 + 0.5 * 0.25 + 0.5 * 0.25 + 0.0
        assert total_cost(states, controls, c) == pytest.approx(expected, rel=1e-15)

    def test_at_goal_with_zero_control_is_free(self):
        c = simple_cost()
        states = np.zeros((4, 2))
        controls = np.zeros((3, 1))
        assert total_cost(states, controls, c) == 0.0

    def test_equals_stage_plus_terminal_decomposition(self):
        rng = np.random.default_rng(3)
        c = simple_cost()
        states = rng.standard_normal((6, 2))
        controls = rng.standard_normal((5, 1))
        decomposed = sum(
            stage_cost(states[t], controls[t], c) for t in range(5)
        ) + terminal_cost(states[-1], c)
        assert total_cost(states, controls, c) == pytest.approx(decomposed, rel=1e-14)

    def test_batch_rows_equal_single_trajectories_exactly(self):
        rng = np.random.default_rng(5)
        c = QuadraticCostModel(
            Q=np.diag(rng.uniform(0.1, 2.0, 3)),
            R=np.array([[0.7]]), Q_terminal=np.diag([3.0, 1.0, 2.0]), x_goal=[0.5, -1.0, 2.0],
        )
        states = rng.standard_normal((7, 9, 3))  # time-major, 9 trajectories
        controls = rng.standard_normal((6, 9, 1))
        batch = total_cost(states, controls, c)
        assert batch.shape == (9,)
        for i in range(9):
            assert batch[i] == total_cost(states[:, i], controls[:, i], c)
            # and a single point keeps the plain 1-D quadratic form bit for bit
            dx, u = states[0, i] - c.x_goal, controls[0, i]
            plain = 0.5 * (dx @ c.Q @ dx) + 0.5 * (u @ c.R @ u)
            assert stage_cost(states[0], controls[0], c)[i] == plain

    @pytest.mark.parametrize("name", ["linear_test", "pendulum", "cartpole"])
    def test_matches_the_per_step_loop_bit_for_bit(self, name):
        cfg = default_config()
        cfg.set("env", "name", name)
        env = cfg.make_env()
        cost = cfg.make_cost(env)
        noise = NoiseModel(epsilon=0.2, seed=3)
        for seed in range(10):  # a summation order other than left to right shows on some
            rng = np.random.default_rng(seed)
            u_bar = env.u_scale * rng.uniform(-1.0, 1.0, (env.horizon, env.n_u))
            single = rollout(env, env.x0[None], u_bar)
            batch = rollout(env, env.x0[None], rows_of(u_bar, 9), None, noise)
            for states, controls, _ in (single, batch):
                J = total_cost(states, controls, cost)
                assert np.array_equal(J, per_step_total_cost(states, controls, cost))
                assert np.shape(J) == states.shape[1:-1]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolation, match="one more"):
            total_cost(np.zeros((3, 2)), np.zeros((3, 1)), simple_cost())

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(min_value=0.1, max_value=50.0), seed=st.integers(0, 10_000))
    def test_scaling_weights_scales_cost_linearly(self, scale, seed):
        rng = np.random.default_rng(seed)
        c = simple_cost()
        states = rng.standard_normal((5, 2))
        controls = rng.standard_normal((4, 1))
        base = total_cost(states, controls, c)
        c_scaled = QuadraticCostModel(scale * c.Q, scale * c.R, scale * c.Q_terminal, c.x_goal)
        scaled = total_cost(states, controls, c_scaled)
        assert scaled == pytest.approx(scale * base, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_cost_is_never_negative(self, seed):
        rng = np.random.default_rng(seed)
        c = simple_cost()
        states = 10 * rng.standard_normal((5, 2))
        controls = 10 * rng.standard_normal((4, 1))
        assert total_cost(states, controls, c) >= 0.0


class TestPartials:
    def test_match_numerical_gradients(self):
        c = QuadraticCostModel(
            Q=np.array([[2.0, 0.5], [0.5, 1.0]]),
            R=np.array([[3.0]]),
            Q_terminal=np.diag([4.0, 5.0]),
            x_goal=np.array([1.0, -1.0]),
        )
        x = np.array([0.3, 0.7])
        u = np.array([-0.2])
        c_x, c_u = cost_partials(x, u, c)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            num = (stage_cost(x + e, u, c) - stage_cost(x - e, u, c)) / (2 * h)
            assert c_x[i] == pytest.approx(num, abs=1e-8)
        num_u = (stage_cost(x, u + h, c) - stage_cost(x, u - h, c)) / (2 * h)
        assert c_u[0] == pytest.approx(num_u, abs=1e-8)

    def test_terminal_partials_at_goal_vanish(self):
        c = simple_cost()
        g = terminal_partials(np.zeros(2), c)
        assert np.allclose(g, 0.0)

    def test_partials_type_is_complete(self):
        # the partials are the two gradients; the Hessians are the weights
        c_x, c_u = cost_partials(np.zeros(2), np.zeros(1), simple_cost())
        assert c_x.shape == (2,) and c_u.shape == (1,)

    def test_batch_rows_equal_single_points_exactly(self):
        # the backward pass takes every stage gradient from one batched call
        rng = np.random.default_rng(9)
        for n_x, n_u in ((1, 1), (2, 1), (4, 1), (3, 2), (8, 5)):
            A = rng.normal(size=(n_x, n_x))
            Rh = rng.normal(size=(n_u, n_u))
            c = QuadraticCostModel(A @ A.T, Rh @ Rh.T + np.eye(n_u), np.eye(n_x), rng.normal(size=n_x))
            x, u = 10 * rng.normal(size=(30, n_x)), 10 * rng.normal(size=(30, n_u))
            C_x, C_u = cost_partials(x, u, c)
            assert C_x.shape == (30, n_x) and C_u.shape == (30, n_u)
            for t in range(30):
                assert np.array_equal(C_x[t], c.Q @ (x[t] - c.x_goal))
                assert np.array_equal(C_u[t], c.R @ u[t])


class TestNominalTrajectory:
    def test_horizon_and_last_state(self):
        traj = NominalTrajectory(np.zeros((4, 2)), np.zeros((3, 1)), 0.0)
        assert traj.horizon == 3
        assert np.allclose(traj.states[-1], np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            NominalTrajectory(np.zeros((4, 2)), np.zeros((4, 1)), 0.0)

    def test_non_finite_entries_rejected(self):
        states = np.zeros((3, 2))
        states[1, 0] = np.nan
        with pytest.raises(ContractViolation, match="non-finite"):
            NominalTrajectory(states, np.zeros((2, 1)), 0.0)
