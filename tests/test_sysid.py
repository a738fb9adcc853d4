import dataclasses
import warnings

import numpy as np
import pytest

import dilqr
from dilqr import sysid
from dilqr.cli import _bench_points, _reference_jacobian
from dilqr.costs import QuadraticCostModel
from dilqr.envs import (
    LINEAR_TEST_A,
    LINEAR_TEST_B,
    make_linear_env,
    make_pendulum_env,
    rollout_open_loop,
    step,
)
from dilqr.errors import ContractViolation, NonFiniteModel, SingularSystem
from dilqr.sysid import EstimatorConfig, estimate_fd, estimate_llscd, identify_ltv

from oracles import cartpole_step_jacobians, pendulum_step_jacobians


class TestLeastSquaresEstimator:
    def test_exact_on_linear_dynamics(self):
        env = make_linear_env()
        cfg = EstimatorConfig(seed=0)
        m = estimate_llscd(env, np.array([1.0, -2.0]), np.array([0.5]), cfg)
        assert np.max(np.abs(m.A - LINEAR_TEST_A)) < 1e-10
        assert np.max(np.abs(m.B - LINEAR_TEST_B)) < 1e-10

    def test_pendulum_matches_analytic_jacobian(self):
        env = make_pendulum_env()
        cfg = EstimatorConfig(sigma=1e-3, seed=1)
        x, u = np.array([0.8, -0.5]), np.array([1.5])
        m = estimate_llscd(env, x, u, cfg)
        A_ref, B_ref = pendulum_step_jacobians(x, u, dt=env.dt)
        rel_A = np.max(np.abs(m.A - A_ref)) / np.max(np.abs(A_ref))
        rel_B = np.max(np.abs(m.B - B_ref)) / np.max(np.abs(B_ref))
        assert rel_A <= 1e-4 and rel_B <= 1e-4

    def test_error_scales_quadratically_in_sigma(self):
        env = make_pendulum_env()
        x, u = np.array([0.8, -0.5]), np.array([1.5])
        A_ref, B_ref = pendulum_step_jacobians(x, u, dt=env.dt)
        sigmas = [4e-2, 2e-2, 1e-2, 5e-3]
        errs = []
        for sigma in sigmas:
            # average over estimator seeds so the slope reflects bias, not
            # the direction of any one perturbation draw
            err = np.mean(
                [
                    np.max(
                        np.abs(
                            np.hstack(
                                [
                                    estimate_llscd(env, x, u, EstimatorConfig(sigma=sigma, seed=s)).A - A_ref,
                                    estimate_llscd(env, x, u, EstimatorConfig(sigma=sigma, seed=s)).B - B_ref,
                                ]
                            )
                        )
                    )
                    for s in range(8)
                ]
            )
            errs.append(err)
        slope = np.polyfit(np.log(sigmas), np.log(errs), 1)[0]
        assert 1.7 <= slope <= 2.3

    def test_eval_count_is_two_per_sample(self):
        env = make_pendulum_env()
        cfg = EstimatorConfig(n_s=9, seed=0)
        m = estimate_llscd(env, env.x0, np.zeros(1), cfg)
        assert m.eval_count == 18

    def test_default_sample_count_resolves_per_environment(self):
        cfg = EstimatorConfig()
        assert cfg.resolve_n_s(make_pendulum_env()) == 2 + 1 + 4
        assert cfg.resolve_n_s(dilqr.make_cartpole_env()) == 4 + 1 + 4

    def test_undersampled_config_rejected(self):
        cfg = EstimatorConfig(n_s=2)
        with pytest.raises(ContractViolation, match="unsolvable"):
            cfg.resolve_n_s(dilqr.make_cartpole_env())

    def test_negative_sample_count_rejected(self):
        # n_s = 0 is the documented "auto"; a negative count must not fall back to it
        with pytest.raises(ContractViolation, match="n_s=-5"):
            EstimatorConfig(n_s=-5)

    def test_seed_determinism(self):
        env = make_pendulum_env()
        cfg = EstimatorConfig(seed=7)
        a = estimate_llscd(env, env.x0, np.zeros(1), cfg)
        b = estimate_llscd(env, env.x0, np.zeros(1), cfg)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)

    def test_child_seeds_are_distinct_and_stable(self):
        cfg = EstimatorConfig(seed=7)
        assert cfg.child(1).seed != cfg.child(2).seed
        assert cfg.child(1).seed == cfg.child(1).seed

    def test_child_seeds_are_pinned(self):
        # the SeedSequence derivation shared with the epsilon sweep; stored runs depend on it
        assert EstimatorConfig(seed=7).child(1).seed == 3317731564112288844
        assert EstimatorConfig(seed=-3).child(2, 5).seed == 1293049783127028401

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ContractViolation):
            EstimatorConfig(sigma=0.0)

    @pytest.mark.parametrize("key", ["sigma", "fd_step"])
    def test_nan_parameter_rejected(self, key):
        # NaN fails no comparison, so each check must be written as the range it accepts
        with pytest.raises(ContractViolation):
            EstimatorConfig(**{key: np.nan})


class TestFiniteDifferenceBaseline:
    def test_exact_on_linear_dynamics(self):
        env = make_linear_env()
        m = estimate_fd(env, np.array([0.0, 1.0]), np.array([-0.3]), 1e-4)
        assert np.max(np.abs(m.A - LINEAR_TEST_A)) < 1e-10
        assert np.max(np.abs(m.B - LINEAR_TEST_B)) < 1e-10

    def test_pendulum_matches_analytic_jacobian(self):
        env = make_pendulum_env()
        x, u = np.array([0.8, -0.5]), np.array([1.5])
        m = estimate_fd(env, x, u, 1e-4)
        A_ref, B_ref = pendulum_step_jacobians(x, u, dt=env.dt)
        assert np.max(np.abs(m.A - A_ref)) / np.max(np.abs(A_ref)) <= 1e-6

    def test_eval_count_is_two_per_coordinate(self):
        env = dilqr.make_cartpole_env()
        m = estimate_fd(env, env.x0, np.zeros(1), 1e-4)
        assert m.eval_count == 2 * (4 + 1)

    def test_invalid_step_rejected(self):
        env = make_linear_env()
        for h in (0.0, np.nan):
            with pytest.raises(ContractViolation, match="h must be positive"):
                estimate_fd(env, env.x0, np.zeros(1), h)


class TestTrajectoryIdentification:
    def _cost(self, n_x, n_u):
        return QuadraticCostModel(np.eye(n_x), np.eye(n_u), np.eye(n_x), np.zeros(n_x))

    def test_linear_trajectory_gives_the_constant_true_pair(self):
        env = make_linear_env()
        traj = rollout_open_loop(env, env.x0, 0.1 * np.ones((6, 1)), self._cost(2, 1))
        models = identify_ltv(env, traj, EstimatorConfig(seed=0))
        assert models.A.shape == (6, 2, 2) and models.B.shape == (6, 2, 1)
        assert np.max(np.abs(models.A - LINEAR_TEST_A)) < 1e-10
        assert np.max(np.abs(models.B - LINEAR_TEST_B)) < 1e-10

    def test_constant_trajectory_gives_matching_models(self):
        # all states at rest, zero controls: the local system is time-invariant
        env = make_pendulum_env()
        states = np.zeros((5, 2))
        controls = np.zeros((4, 1))
        traj = dilqr.NominalTrajectory(states, controls, 0.0)
        models = identify_ltv(env, traj, EstimatorConfig(seed=0))
        assert models.A.shape == (4, 2, 2) and models.B.shape == (4, 2, 1)
        # per-step draws differ, so agreement is limited by the O(sigma^2) bias
        assert np.max(np.abs(models.A[1:] - models.A[0])) < 1e-5
        assert np.max(np.abs(models.B[1:] - models.B[0])) < 1e-5

    def test_single_step_horizon(self):
        env = make_linear_env()
        traj = rollout_open_loop(env, env.x0, np.zeros((1, 1)), self._cost(2, 1))
        models = identify_ltv(env, traj, EstimatorConfig(seed=0))
        assert models.A.shape == (1, 2, 2) and models.B.shape == (1, 2, 1)

    def test_total_eval_count_scales_with_horizon(self):
        env = make_pendulum_env()
        traj = rollout_open_loop(env, env.x0, np.zeros((5, 1)), self._cost(2, 1))
        models = identify_ltv(env, traj, EstimatorConfig(seed=0))
        n_s = EstimatorConfig(seed=0).resolve_n_s(env)
        assert models.eval_count == 2 * n_s * 5


def counting_env(env):
    """A copy of env whose black-box map records the shape of every call."""
    calls = []

    def step_fn(x, u):
        calls.append(x.shape)
        return env.step_fn(x, u)

    return dataclasses.replace(env, step_fn=step_fn), calls


def random_trajectory(env, seed=3):
    """Scattered states and applied controls, many exactly on a bound (so some rows clamp)."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((env.horizon + 1, env.n_x))
    controls = env.clamp(2 * env.u_scale * rng.standard_normal((env.horizon, env.n_u)))
    return dilqr.NominalTrajectory(states, controls, 0.0)


ENV_NAMES = ["linear_test", "pendulum", "cartpole"]


class TestBatchedIdentification:
    @pytest.mark.parametrize("name", ENV_NAMES)
    def test_trajectory_equals_per_point_estimates_exactly(self, name):
        # draws are prefix-stable, so the one-point estimate is row 0 of the
        # trajectory, bit for bit, on and off the control bounds
        env = dilqr.make_env(name)
        cfg = EstimatorConfig(seed=5)
        full = random_trajectory(env)
        assert np.isin(full.controls[2], env.control_bounds).all()
        for start in (0, 2):  # from t = 2 on, row 0's nominal control lies on a bound
            traj = dilqr.NominalTrajectory(full.states[start:], full.controls[start:], 0.0)
            models = identify_ltv(env, traj, cfg)
            ref = estimate_llscd(env, traj.states[0], traj.controls[0], cfg)
            assert np.array_equal(models.A[0], ref.A) and np.array_equal(models.B[0], ref.B)
            assert models.eval_count == traj.horizon * ref.eval_count

    @pytest.mark.parametrize("name", ENV_NAMES)
    def test_batched_svd_fit_matches_per_timestep_lstsq(self, name):
        env = dilqr.make_env(name)
        traj = random_trajectory(env)
        cfg = EstimatorConfig(seed=5)
        models = identify_ltv(env, traj, cfg)
        D, Y = sysid._sample(env, traj.states[:-1], traj.controls, cfg)
        AB = np.concatenate([models.A, models.B], axis=-1)
        for t in range(traj.horizon):
            ref = np.linalg.lstsq(D[t], Y[t], rcond=None)[0].T
            assert np.max(np.abs(AB[t] - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", ENV_NAMES)
    def test_fd_equals_per_coordinate_differences_exactly(self, name):
        env = dilqr.make_env(name)
        traj = random_trajectory(env)
        x, on_bound, h = traj.states[2], traj.controls[2], 1e-4
        assert np.isin(on_bound, env.control_bounds).all()
        # inside the bounds a control column divides by 2h, on a bound by the
        # step the black box applied
        for u, applied in ((0.5 * on_bound, False), (on_bound, True)):
            m = estimate_fd(env, x, u, h)
            for j in range(env.n_x):
                e = np.zeros(env.n_x)
                e[j] = h
                assert np.array_equal(m.A[:, j], (step(env, x + e, u) - step(env, x - e, u)) / (2 * h))
            for j in range(env.n_u):
                e = np.zeros(env.n_u)
                e[j] = h
                du = (env.clamp(u + e) - env.clamp(u - e))[j] if applied else 2 * h
                assert np.array_equal(m.B[:, j], (step(env, x, u + e) - step(env, x, u - e)) / du)

    def test_each_estimate_is_one_step_call(self):
        env, calls = counting_env(dilqr.make_cartpole_env())
        traj = random_trajectory(env)
        n_s = EstimatorConfig().resolve_n_s(env)
        models = identify_ltv(env, traj, EstimatorConfig(seed=0))
        assert calls == [(traj.horizon * 2 * n_s, env.n_x)]
        assert models.eval_count == calls[0][0]
        calls.clear()
        estimate_llscd(env, env.x0, np.zeros(1), EstimatorConfig(seed=0))
        assert calls == [(2 * n_s, env.n_x)]
        calls.clear()
        estimate_fd(env, env.x0, np.zeros(1), 1e-4)
        assert calls == [(2 * (4 + 1), env.n_x)]

    def test_non_finite_state_rejected(self):
        env = make_pendulum_env()
        traj = random_trajectory(env)
        traj.states[17, 1] = np.inf  # past construction-time validation
        with pytest.raises(ContractViolation, match="non-finite"):
            identify_ltv(env, traj, EstimatorConfig(seed=0))

    @pytest.mark.parametrize("n_x, n_u", [(3, 1), (1, 1), (2, 2)])
    def test_wrong_trailing_dimension_rejected(self, n_x, n_u):
        # (1, 1) would broadcast silently against the perturbations
        env = make_pendulum_env()
        traj = dilqr.NominalTrajectory(np.zeros((5, n_x)), np.zeros((4, n_u)), 0.0)
        with pytest.raises(ContractViolation, match="dimensions"):
            identify_ltv(env, traj, EstimatorConfig(seed=0))

    def test_singular_system_names_its_timestep(self, monkeypatch):
        env = make_pendulum_env()
        traj = random_trajectory(env)
        cfg = EstimatorConfig(seed=0)
        D, _ = sysid._sample(env, traj.states[:-1], traj.controls, cfg)
        s = np.linalg.svd(D, compute_uv=False)
        conds = s[:, 0] / s[:, -1]
        # with rcond = 1 every point fails; the first is reported with its condition number
        monkeypatch.setattr(sysid, "LSTSQ_RCOND", 1.0)
        with pytest.raises(SingularSystem, match=r"identification failed at t=0: ") as info:
            identify_ltv(env, traj, cfg)
        assert info.value.condition_number == pytest.approx(conds[0], rel=1e-12)
        # a threshold between the two worst-conditioned points fails only the worst
        worst = int(np.argmax(conds))
        inv = np.sort(1.0 / conds)
        monkeypatch.setattr(sysid, "LSTSQ_RCOND", 0.5 * (inv[0] + inv[1]))
        with pytest.raises(SingularSystem, match=rf"identification failed at t={worst}: ") as info:
            identify_ltv(env, traj, cfg)
        assert info.value.condition_number == pytest.approx(conds[worst], rel=1e-12)

    def test_overflowing_black_box_is_a_numerical_failure_naming_t(self):
        # huge perturbations send some rows of the cart-pole map to inf or nan;
        # that is a numerical failure at the first such t, and it must not warn
        env = dilqr.make_cartpole_env()
        traj = dilqr.NominalTrajectory(np.zeros((31, 4)), np.zeros((30, 1)), 0.0)
        cfg = EstimatorConfig(sigma=1e3, seed=0)
        Y = sysid._sample(env, traj.states[:-1], traj.controls, cfg)[1]
        first = int(np.argmax(~np.isfinite(Y).all(axis=(1, 2))))
        assert first > 0 and not np.isfinite(Y[first]).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteModel, match=rf"identification failed at t={first}: "):
                identify_ltv(env, traj, cfg)


    def test_overflowing_perturbation_draw_is_a_numerical_failure_naming_t(self):
        # sigma just above what t = 0's largest |N(0, 1)| entry can carry without
        # overflowing: a later t overflows first, before any step call
        env = dilqr.make_cartpole_env()
        traj = dilqr.NominalTrajectory(np.zeros((31, 4)), np.zeros((30, 1)), 0.0)
        z = np.random.default_rng(0).standard_normal((30, 9, 5))
        peak = np.abs(z).max(axis=(1, 2))
        first = int(np.argmax(peak > 1.001 * peak[0]))
        assert first > 0
        cfg = EstimatorConfig(sigma=np.finfo(float).max / (1.001 * peak[0]), seed=0)
        calls = []
        counting = dataclasses.replace(env, step_fn=lambda x, u: calls.append(x) or env.step_fn(x, u))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteModel, match=rf"identification failed at t={first}: "):
                identify_ltv(counting, traj, cfg)
        assert calls == []


class TestClampedPerturbations:
    X = np.array([0.8, -0.5])

    def test_estimate_on_the_bound_is_the_slope_inside_it(self):
        # half of each pair is clamped at u = 10; regressing on the commanded
        # du returned about half of B here
        env = make_pendulum_env()
        _, B_inside = pendulum_step_jacobians(self.X, np.array([9.99]), dt=env.dt)

        def err(sigma, seed):
            m = estimate_llscd(env, self.X, np.array([10.0]), EstimatorConfig(sigma=sigma, seed=seed))
            return np.max(np.abs(m.B - B_inside)) / np.max(np.abs(B_inside))

        assert err(1e-3, 1) <= 1e-4
        sigmas = [4e-2, 2e-2, 1e-2]
        errs = [np.mean([err(sigma, s) for s in range(8)]) for sigma in sigmas]
        assert 1.7 <= np.polyfit(np.log(sigmas), np.log(errs), 1)[0] <= 2.3

    @pytest.mark.parametrize("name", ENV_NAMES)
    def test_only_clamped_entries_of_the_perturbations_change(self, name):
        env = dilqr.make_env(name)
        traj = random_trajectory(env)
        cfg = EstimatorConfig(seed=5)
        D, _ = sysid._sample(env, traj.states[:-1], traj.controls, cfg)
        drawn = cfg.sigma * np.random.default_rng(cfg.seed).standard_normal(D.shape)
        dU, U = drawn[..., env.n_x :], traj.controls[:, None]
        lo, hi = env.control_bounds[:, 0], env.control_bounds[:, 1]
        inside = (U - np.abs(dU) >= lo) & (U + np.abs(dU) <= hi)
        assert inside.any() and not inside.all()
        assert np.array_equal(D[..., : env.n_x], drawn[..., : env.n_x])
        assert np.array_equal(D[..., env.n_x :][inside], dU[inside])
        applied = 0.5 * (env.clamp(U + dU) - env.clamp(U - dU))
        assert np.array_equal(D[..., env.n_x :][~inside], applied[~inside])

    def test_nominal_beyond_the_bound_is_singular(self):
        # both signs clamp, so the applied du is zero and B is unidentifiable
        env = make_pendulum_env()
        with pytest.raises(SingularSystem):
            estimate_llscd(env, self.X, np.array([15.0]), EstimatorConfig(seed=0))
        controls = np.zeros((4, 1))
        controls[2] = 15.0
        traj = dilqr.NominalTrajectory(np.zeros((5, 2)), controls, 0.0)
        with pytest.raises(SingularSystem, match=r"identification failed at t=2: "):
            identify_ltv(env, traj, EstimatorConfig(seed=0))


class TestClampedFiniteDifferences:
    X = np.array([0.8, -0.5])

    def test_fd_on_the_bound_is_the_slope_inside_it(self):
        # u + h is clamped at u = 10; dividing by the commanded 2h returned
        # about half of B here
        env = make_pendulum_env()
        for u in (10.0, -10.0):
            _, B_ref = pendulum_step_jacobians(self.X, np.array([u]), dt=env.dt)

            def err(h):
                m = estimate_fd(env, self.X, np.array([u]), h)
                return np.max(np.abs(m.B - B_ref)) / np.max(np.abs(B_ref))

            assert err(1e-4) <= 1e-6
            hs = [4e-2, 2e-2, 1e-2]
            assert 0.8 <= np.polyfit(np.log(hs), np.log([err(h) for h in hs]), 1)[0] <= 1.2

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda env, x, u: estimate_llscd(env, x, u, EstimatorConfig(sigma=1e-6, seed=0)),
            lambda env, x, u: estimate_fd(env, x, u, 1e-4),
        ],
        ids=["llscd", "fd"],
    )
    def test_fd_clamped_on_both_sides_is_singular(self, estimate):
        # both estimators are one fit, so they fail alike beyond a bound
        env = make_pendulum_env()
        with pytest.raises(SingularSystem, match="clamped on both sides"):
            estimate(env, self.X, np.array([15.0]))
        with pytest.raises(SingularSystem, match="clamped on both sides"):
            estimate(env, self.X, np.array([-10.0 - 2e-4]))

    @pytest.mark.parametrize("name", ENV_NAMES)
    def test_fd_inside_the_bounds_divides_by_the_commanded_step(self, name):
        # on a bound the control column divides by the applied step instead;
        # either way the least-squares fit changes no bits of the division
        env = dilqr.make_env(name)
        rng = np.random.default_rng(4)
        h, n = 1e-4, env.n_x + env.n_u
        dX, dU = np.hsplit(h * np.eye(n), [env.n_x])
        points = []
        for _ in range(5):
            x = rng.standard_normal(env.n_x)
            points.append((x, 0.9 * env.u_scale * rng.uniform(-1.0, 1.0, env.n_u)))
        points += [(rng.standard_normal(env.n_x), bound) for bound in env.control_bounds.T]
        for x, u in points:
            m = estimate_fd(env, x, u, h)
            F = step(env, np.concatenate([x + dX, x - dX]), np.concatenate([u + dU, u - dU]))
            diffs = F[:n] - F[n:]
            applied = 0.5 * (env.clamp(u + h) - env.clamp(u - h))
            du = np.where(np.isin(u, env.control_bounds), applied, h)
            AB = (diffs / (2 * np.concatenate([np.full(env.n_x, h), du]))[:, None]).T
            assert np.array_equal(m.A, AB[:, : env.n_x]) and np.array_equal(m.B, AB[:, env.n_x :])


class TestReferenceJacobian:
    """cli._reference_jacobian, the bench table's reference, against the analytic step Jacobians."""

    ORACLES = {
        "linear_test": lambda env, x, u: (LINEAR_TEST_A, LINEAR_TEST_B),
        "pendulum": lambda env, x, u: pendulum_step_jacobians(x, u, dt=env.dt),
        "cartpole": lambda env, x, u: cartpole_step_jacobians(x, u, dt=env.dt),
    }

    @pytest.mark.parametrize("point", ["probe", "bound"])
    @pytest.mark.parametrize("name", ENV_NAMES)
    def test_matches_the_analytic_jacobians_at_every_bench_point(self, name, point):
        env = dilqr.make_env(name)
        x, u = _bench_points(env)[point]
        A, B = _reference_jacobian(env, x, u)
        A_ref, B_ref = self.ORACLES[name](env, x, u)
        # at most 9.0e-9 (cart-pole's one-sided B on the bound)
        assert np.max(np.abs(A - A_ref)) < 2e-8
        assert np.max(np.abs(B - B_ref)) < 2e-8


class TestSingularSystemError:
    def test_carries_condition_number(self):
        err = SingularSystem("degenerate", condition_number=1e15)
        assert err.condition_number == 1e15
