import os
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dilqr.costs import NominalTrajectory, QuadraticCostModel, total_cost
from dilqr.envs import (
    LINEAR_TEST_A,
    LINEAR_TEST_B,
    NoiseModel,
    make_cartpole_env,
    make_linear_env,
    make_pendulum_env,
    rollout,
    rollout_open_loop,
)
from dilqr import evaluation
from dilqr.errors import ContractViolation
from dilqr.evaluation import (
    COST_VAR,
    DEFAULT_EPSILON_GRID,
    MEAN_COST_GAP,
    RolloutStats,
    epsilon_sweep,
    monte_carlo_eval,
    variance_scaling_fit,
)
from dilqr.feedback import DecoupledPolicy, build_policy
from dilqr.sysid import EstimatorConfig

from oracles import history_monte_carlo_eval


def small_problem(horizon=3):
    env = make_linear_env(horizon=horizon)
    cost = QuadraticCostModel(
        Q=np.eye(2), R=np.array([[0.5]]), Q_terminal=3 * np.eye(2), x_goal=np.zeros(2)
    )
    nominal = rollout_open_loop(env, env.x0, 0.1 * np.ones((horizon, 1)), cost)
    gains = np.tile(np.array([[-0.8, -1.2]]), (horizon, 1, 1))
    return env, cost, DecoupledPolicy(nominal, gains)


def cost_of_noise_vector(env, cost, policy, eps, w_flat):
    """Hand propagation of one closed-loop rollout with a prescribed state-noise
    block; the reference implementation the batched evaluator must match."""
    nominal = policy.nominal
    N = nominal.horizon
    w = np.asarray(w_flat, dtype=float).reshape(N, env.n_x)
    x = nominal.states[0].copy()
    total = 0.0
    for t in range(N):
        u = nominal.controls[t] + policy.gains[t] @ (x - nominal.states[t])
        u = env.clamp(u)
        total += 0.5 * x @ cost.Q @ x + 0.5 * u @ cost.R @ u
        x = LINEAR_TEST_A @ x + LINEAR_TEST_B @ u + eps * w[t]
    return total + 0.5 * x @ cost.Q_terminal @ x


class TestExactMomentOracle:
    """J is an exact quadratic in the stacked noise vector for a linear system
    with linear feedback: J(w) = J0 + eps b'w + eps^2 w'Mw. Recover (J0, b, M)
    by probing basis directions, derive the closed-form moments
    E[J] = J0 + eps^2 tr(M) and Var[J] = eps^2 b'b + 2 eps^4 tr(M^2),
    and require the Monte-Carlo evaluator to reproduce them."""

    def _quadratic_form(self, env, cost, policy):
        N = policy.nominal.horizon
        d = N * env.n_x
        J = lambda w: cost_of_noise_vector(env, cost, policy, 1.0, w)
        J0 = J(np.zeros(d))
        b = np.empty(d)
        M = np.empty((d, d))
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            b[i] = 0.5 * (J(e) - J(-e))
            M[i, i] = 0.5 * (J(e) + J(-e) - 2 * J0)
        for i in range(d):
            for j in range(i + 1, d):
                e = np.zeros(d)
                e[i] = e[j] = 1.0
                M[i, j] = M[j, i] = 0.5 * (
                    J(e) - J0 - b[i] - b[j] - M[i, i] - M[j, j]
                )
        return J0, b, M

    def test_quadratic_model_reproduces_probe_costs(self):
        env, cost, policy = small_problem()
        J0, b, M = self._quadratic_form(env, cost, policy)
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.standard_normal(len(b))
            predicted = J0 + b @ w + w @ M @ w
            actual = cost_of_noise_vector(env, cost, policy, 1.0, w)
            assert actual == pytest.approx(predicted, rel=1e-10)

    def test_monte_carlo_matches_closed_form_moments(self):
        env, cost, policy = small_problem()
        J0, b, M = self._quadratic_form(env, cost, policy)
        eps = 0.05
        mean_exact = J0 + eps**2 * np.trace(M)
        var_exact = eps**2 * (b @ b) + 2 * eps**4 * np.trace(M @ M)
        stats = monte_carlo_eval(
            env, policy, NoiseModel(epsilon=eps, channel="state", seed=0), 20_000, cost
        )
        assert stats.cost_mean == pytest.approx(mean_exact, rel=2e-3)
        assert stats.cost_var == pytest.approx(var_exact, rel=0.05)

    def test_batched_evaluator_matches_reference_rollout(self):
        env, cost, policy = small_problem()
        eps = 0.03
        noise = NoiseModel(epsilon=eps, channel="state", seed=4)
        stats = monte_carlo_eval(env, policy, noise, 1, cost)
        w = [noise.draws(t, 1, env.n_x)[0] for t in range(policy.nominal.horizon)]
        expected = cost_of_noise_vector(env, cost, policy, eps, np.ravel(w))
        assert stats.cost_mean == pytest.approx(expected, rel=1e-12)
        assert stats.cost_var == 0.0  # single rollout


class TestNoiseStreams:
    """The evaluator's draws, captured at each step's noise.draws call and
    stacked time-major into w (N, M, dim)."""

    def _w(self, monkeypatch, noise, M):
        env, cost, policy = small_problem()
        seen = []
        draws = NoiseModel.draws

        def spy(*args):
            seen.append(draws(*args))
            return seen[-1]

        monkeypatch.setattr(NoiseModel, "draws", spy)
        monte_carlo_eval(env, policy, noise, M, cost)
        assert len(seen) == policy.nominal.horizon  # one draw per step, as it runs
        w = np.stack(seen)
        assert w.shape == (policy.nominal.horizon, M, env.n_x)
        return w

    def test_a_rollouts_draws_do_not_depend_on_M(self, monkeypatch):
        noise = NoiseModel(epsilon=0.05, channel="state", seed=6)
        w = self._w(monkeypatch, noise, 2500)
        for M in (1, 500, 1024, 1025):
            assert np.array_equal(self._w(monkeypatch, noise, M), w[:, :M])

    def test_each_step_is_one_generator_keyed_by_seed_and_step(self, monkeypatch):
        noise = NoiseModel(epsilon=0.05, channel="state", seed=6)
        w = self._w(monkeypatch, noise, 2500)
        N, M, dim = w.shape
        for t in range(N):
            # the stream's definition, not noise.draws, which built w
            key = np.random.SeedSequence([6, t])
            assert np.array_equal(w[t], np.random.default_rng(key).standard_normal((M, dim)))
        assert not np.array_equal(w[0], w[1])
        assert not np.array_equal(w[:, 0], w[:, 1024])


# the bound, in (M, n_x) float arrays, on what one Monte-Carlo level holds at its peak
LEVEL_PEAK_UNITS = 16


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn runs, in any thread."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestStreamingEvaluator:
    """monte_carlo_eval adds up each rollout's cost as the batch steps; it must
    equal the history-based evaluator (rollout, then total_cost) field for field."""

    @pytest.mark.parametrize("M", [1, 1025])
    @pytest.mark.parametrize("channel", ["state", "control"])
    @pytest.mark.parametrize("run", ["trained_linear", "trained_pendulum", "trained_cartpole"])
    def test_matches_history_oracle(self, request, run, channel, M):
        run = request.getfixturevalue(run)
        noise = NoiseModel(epsilon=0.05, channel=channel, seed=11)
        streamed = monte_carlo_eval(run.env, run.policy, noise, M, run.cost)
        assert streamed == history_monte_carlo_eval(run.env, run.policy, noise, M, run.cost)

    def test_matches_history_oracle_when_some_rollouts_diverge(self):
        env, cost, policy = small_problem()
        linear = env.step_fn

        def blows_up(x, u):
            # rows whose velocity passes 0.4 overflow to inf and are masked from
            # then on; the overflow would warn outside the kernel's errstate
            return np.where(np.abs(x[..., 1:]) > 0.4, np.exp(np.full_like(x, 1e3)), linear(x, u))

        env = replace(env, step_fn=blows_up)
        noise = NoiseModel(epsilon=0.3, channel="state", seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            streamed = monte_carlo_eval(env, policy, noise, 1025, cost)
        assert 0 < streamed.divergences < 1025
        assert streamed == history_monte_carlo_eval(env, policy, noise, 1025, cost)

    def test_peak_memory_holds_no_array_with_both_N_and_M_axes(self, trained_cartpole):
        # each step draws its own (M, n_x) noise, so the peak is a few (M, n_x)
        # arrays whatever the horizon; an (N, M, n_x) array of draws or states
        # alone would be N = 30 of these units
        run, M = trained_cartpole, 4000
        unit = M * run.env.n_x * 8
        noise = NoiseModel(epsilon=0.05, channel="state", seed=0)
        peak = traced_peak(lambda: monte_carlo_eval(run.env, run.policy, noise, M, run.cost))
        assert peak < LEVEL_PEAK_UNITS * unit, f"peak {peak} B is {peak / unit:.1f} (M, n_x) arrays"


class TestMonteCarloEval:
    def test_zero_epsilon_is_exactly_the_nominal(self):
        env, cost, policy = small_problem()
        stats = monte_carlo_eval(env, policy, NoiseModel(epsilon=0.0, seed=9), 50, cost)
        assert stats.cost_mean == policy.nominal.cost
        assert stats.cost_var == 0.0
        mse = float(np.sum((policy.nominal.states[-1] - cost.x_goal) ** 2))
        assert stats.terminal_mse_mean == mse

    def test_deterministic_given_seed(self):
        env, cost, policy = small_problem()
        noise = NoiseModel(epsilon=0.05, channel="state", seed=1)
        a = monte_carlo_eval(env, policy, noise, 200, cost)
        b = monte_carlo_eval(env, policy, noise, 200, cost)
        assert a == b

    def test_invalid_rollout_count_rejected(self):
        env, cost, policy = small_problem()
        with pytest.raises(ContractViolation):
            monte_carlo_eval(env, policy, NoiseModel(epsilon=0.1), 0, cost)

    def test_all_divergent_rollouts_raise(self):
        # an explosively unstable map overflows within the horizon
        env = make_linear_env(A=[[1e80, 0], [0, 1e80]], B=[[0.0], [1.0]], horizon=10)
        cost = QuadraticCostModel(Q=np.eye(2), R=1.0, Q_terminal=np.eye(2), x_goal=np.zeros(2))
        nominal_states = np.ones((11, 2))
        from dilqr.costs import NominalTrajectory

        nominal = NominalTrajectory(nominal_states, np.zeros((10, 1)), 0.0)
        policy = DecoupledPolicy(nominal, np.zeros((10, 1, 2)))
        for epsilon in (0.1, 0.0):
            with pytest.raises(ContractViolation, match="diverged"):
                monte_carlo_eval(env, policy, NoiseModel(epsilon=epsilon, seed=0), 8, cost)

    def test_policy_for_another_environment_rejected(self):
        cartpole = make_cartpole_env()
        cost = QuadraticCostModel(Q=np.eye(4), R=1.0, Q_terminal=np.eye(4), x_goal=np.zeros(4))
        nominal = rollout_open_loop(cartpole, cartpole.x0, np.zeros((30, 1)), cost)
        policy = DecoupledPolicy(nominal, np.zeros((30, 1, 4)))
        with pytest.raises(ContractViolation, match="dimensions"):
            monte_carlo_eval(make_pendulum_env(), policy, NoiseModel(epsilon=0.05), 4, cost)

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_policy_or_cost_for_another_environment_rejected_at_every_epsilon(self, epsilon):
        cartpole, pendulum = make_cartpole_env(), make_pendulum_env()
        cost4 = QuadraticCostModel(Q=np.eye(4), R=1.0, Q_terminal=np.eye(4), x_goal=np.zeros(4))
        cost2 = QuadraticCostModel(Q=np.eye(2), R=1.0, Q_terminal=np.eye(2), x_goal=np.zeros(2))
        nominal = rollout_open_loop(cartpole, cartpole.x0, np.zeros((30, 1)), cost4)
        cartpole_policy = DecoupledPolicy(nominal, np.zeros((30, 1, 4)))
        nominal = rollout_open_loop(pendulum, pendulum.x0, np.zeros((30, 1)), cost2)
        pendulum_policy = DecoupledPolicy(nominal, np.zeros((30, 1, 2)))
        noise = NoiseModel(epsilon=epsilon)
        for policy, cost in ((cartpole_policy, cost4), (cartpole_policy, cost2),
                             (pendulum_policy, cost4)):
            with pytest.raises(ContractViolation, match="dimensions"):
                monte_carlo_eval(pendulum, policy, noise, 4, cost)

    def test_zero_epsilon_cost_mean_is_a_python_float(self):
        env, cost, policy = small_problem()
        nominal = policy.nominal
        nominal = NominalTrajectory(nominal.states, nominal.controls, np.float64(nominal.cost))
        stats = monte_carlo_eval(env, DecoupledPolicy(nominal, policy.gains),
                                 NoiseModel(epsilon=0.0), 5, cost)
        assert type(stats.cost_mean) is float
        assert stats.cost_mean == policy.nominal.cost

    def test_zero_epsilon_charges_the_given_cost(self):
        env, _, policy = small_problem()
        other = QuadraticCostModel(
            Q=5 * np.eye(2), R=np.array([[2.0]]), Q_terminal=np.eye(2), x_goal=np.ones(2)
        )
        stats = monte_carlo_eval(env, policy, NoiseModel(epsilon=0.0), 20, other)
        states, controls, _ = rollout(
            env, policy.nominal.states, policy.nominal.controls, policy.gains
        )
        assert stats.cost_mean == total_cost(states, controls, other)
        assert stats.cost_mean != policy.nominal.cost
        assert stats.terminal_mse_mean == float(np.sum((states[-1] - other.x_goal) ** 2))

    def test_zero_epsilon_runs_the_given_environment(self):
        # a nominal made under the default damping, evaluated under another
        trained_on, damped = make_pendulum_env(), make_pendulum_env(damping=2.0)
        cost = QuadraticCostModel(
            Q=np.diag([0.5, 0.1]), R=0.1, Q_terminal=np.diag([60.0, 6.0]),
            x_goal=trained_on.x_goal,
        )
        nominal = rollout_open_loop(trained_on, trained_on.x0, np.full((30, 1), 3.0), cost)
        policy = DecoupledPolicy(nominal, np.tile([[-2.0, -0.5]], (30, 1, 1)))
        stats = monte_carlo_eval(damped, policy, NoiseModel(epsilon=0.0), 20, cost)
        states, controls, _ = rollout(damped, nominal.states, nominal.controls, policy.gains)
        assert stats.cost_mean == total_cost(states, controls, cost)
        assert stats.cost_mean != nominal.cost

    def test_zero_epsilon_steps_one_row(self):
        env, cost, policy = small_problem()
        calls = []

        def counting(x, u):
            calls.append(x.shape)
            return env.step_fn(x, u)

        stats = monte_carlo_eval(
            replace(env, step_fn=counting), policy, NoiseModel(epsilon=0.0), 10_000, cost
        )
        assert (stats.n_rollouts, stats.divergences, stats.cost_var) == (10_000, 0, 0.0)
        assert calls == [(1, env.n_x)] * policy.nominal.horizon


class TestEpsilonSweep:
    def test_one_stat_per_epsilon_in_order(self):
        env, cost, policy = small_problem()
        eps = (0.01, 0.02, 0.04)
        sweep = epsilon_sweep(env, policy, "state", eps, 50, cost, seed=0)
        assert [s.epsilon for s in sweep] == list(eps)
        assert all(s.n_rollouts == 50 for s in sweep)

    def test_each_epsilon_gets_a_disjoint_stream(self):
        env, cost, policy = small_problem()
        sweep = epsilon_sweep(env, policy, "state", (0.05, 0.05001), 50, cost, seed=0)
        assert sweep[0].seed != sweep[1].seed

    def test_stream_seeds_are_pinned(self):
        # the SeedSequence derivation shared with EstimatorConfig.child; stored sweeps depend on it
        env, cost, policy = small_problem()
        sweep = epsilon_sweep(env, policy, "state", (0.01, 0.02), 5, cost, seed=0)
        assert [s.seed for s in sweep] == [7896617691693857887, 2918264622725855778]
        sweep = epsilon_sweep(env, policy, "state", (0.01, 0.02), 5, cost, seed=2**64 + 11)
        assert sweep[1].seed == 9080609714381269916

    def test_unsorted_grid_rejected(self):
        env, cost, policy = small_problem()
        with pytest.raises(ContractViolation, match="ascending"):
            epsilon_sweep(env, policy, "state", (0.05, 0.01), 10, cost)

    def test_empty_grid_rejected(self):
        env, cost, policy = small_problem()
        with pytest.raises(ContractViolation, match="non-empty"):
            epsilon_sweep(env, policy, "state", (), 10, cost)

    def test_negative_epsilon_rejected(self):
        env, cost, policy = small_problem()
        with pytest.raises(ContractViolation):
            epsilon_sweep(env, policy, "state", (-0.01, 0.05), 10, cost)

    def test_a_bad_level_is_refused_before_any_level_runs(self, monkeypatch):
        env, cost, policy = small_problem()
        calls = []

        def spy(*args):
            calls.append(args)
            return monte_carlo_eval(*args)

        monkeypatch.setattr(evaluation, "monte_carlo_eval", spy)
        with pytest.raises(ContractViolation, match=r"epsilon must lie in \[0, 1\)"):
            epsilon_sweep(env, policy, "state", (0.01, 0.02, 1.5), 10, cost)
        assert calls == []


def on_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def forks_counted(monkeypatch) -> list:
    """The pids of the children epsilon_sweep forks, by a spy on the real os.fork."""
    real_fork, pids = os.fork, []

    def spy():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def derailing_problem(monkeypatch):
    """small_problem whose batches derail whole once their states spread past
    0.1, with each failing level's epsilon tagged on its error."""
    env, cost, policy = small_problem()
    linear = env.step_fn

    def derails(x, u):
        x_next = linear(x, u)
        return np.full_like(x_next, np.inf) if x.std(axis=0).max() > 0.1 else x_next

    def tagged(env, policy, noise, M, cost):
        try:
            return monte_carlo_eval(env, policy, noise, M, cost)
        except ContractViolation as exc:
            exc.epsilon = noise.epsilon
            raise

    monkeypatch.setattr(evaluation, "monte_carlo_eval", tagged)
    return replace(env, step_fn=derails), cost, policy


class TestForkedSweep:
    """From PARALLEL_MIN_ROLLOUTS rollouts per level, epsilon_sweep runs its
    levels on one process per core, all but its own share in forked children;
    the output must not depend on it, and no child may outlive the sweep."""

    M = evaluation.PARALLEL_MIN_ROLLOUTS

    @pytest.mark.parametrize("channel", ["state", "control"])
    def test_forks_give_the_sequential_sweep(self, monkeypatch, trained_cartpole, channel):
        run, eps = trained_cartpole, (0.01, 0.04, 0.08)
        forks = forks_counted(monkeypatch)

        def sweep(cores):
            on_cores(monkeypatch, cores)
            return epsilon_sweep(run.env, run.policy, channel, eps, self.M, run.cost, seed=3)

        forked = sweep(2)
        assert len(forks) == 1
        assert forked == sweep(1)
        assert len(forks) == 1

    def test_a_level_that_all_diverges_fails_alike(self, monkeypatch):
        # level 0.3 fails in the child's share and 0.5 in the caller's: the
        # child's error, epsilon tag and all, comes back through the pickle
        env, cost, policy = derailing_problem(monkeypatch)
        raised = []
        for cores in (2, 1):
            on_cores(monkeypatch, cores)
            with pytest.raises(ContractViolation, match="all rollouts diverged") as info:
                epsilon_sweep(env, policy, "state", (0.01, 0.3, 0.5), self.M, cost)
            raised.append((str(info.value), info.value.epsilon))
        assert raised == [("all rollouts diverged; cannot form moments", 0.3)] * 2

    def test_one_child_per_core_but_the_callers_and_none_below_the_gate(self, monkeypatch):
        forks = forks_counted(monkeypatch)
        env, cost, policy = small_problem()
        eps = (0.01, 0.02, 0.03, 0.04)
        on_cores(monkeypatch, 1)
        in_turn = epsilon_sweep(env, policy, "state", eps, self.M, cost)
        on_cores(monkeypatch, 4)
        epsilon_sweep(env, policy, "state", eps, self.M - 1, cost)
        assert forks == []
        children = []
        for cores in (2, 3, 8):
            on_cores(monkeypatch, cores)
            assert epsilon_sweep(env, policy, "state", eps, self.M, cost) == in_turn
            children.append(len(forks))
            forks.clear()
        assert children == [1, 2, 3]

    def test_without_cpu_affinity_the_levels_run_in_turn(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        env, cost, policy = small_problem()
        eps = (0.01, 0.02, 0.03)
        on_cores(monkeypatch, 1)
        in_turn = epsilon_sweep(env, policy, "state", eps, self.M, cost)
        forks = forks_counted(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert epsilon_sweep(env, policy, "state", eps, self.M, cost) == in_turn
        assert forks == []

    def test_the_calling_process_holds_at_most_one_level_at_a_time(self, monkeypatch, trained_cartpole):
        # of eight levels on two processes, the caller runs its four in turn
        run = trained_cartpole
        unit = self.M * run.env.n_x * 8
        on_cores(monkeypatch, 2)
        eps = DEFAULT_EPSILON_GRID
        peak = traced_peak(lambda: epsilon_sweep(run.env, run.policy, "state", eps, self.M, run.cost))
        assert peak < LEVEL_PEAK_UNITS * unit, f"peak {peak} B is {peak / unit:.1f} (M, n_x) arrays"

    @pytest.mark.parametrize("eps", [(0.01, 0.02, 0.03, 0.04), (0.01, 0.02, 0.3), (0.01, 0.3)],
                             ids=["good", "fails-in-caller", "fails-in-child"])
    def test_no_child_outlives_a_sweep(self, monkeypatch, eps):
        env, cost, policy = derailing_problem(monkeypatch)
        forks = forks_counted(monkeypatch)
        on_cores(monkeypatch, 2)
        if max(eps) < 0.3:
            assert len(epsilon_sweep(env, policy, "state", eps, self.M, cost)) == len(eps)
        else:
            with pytest.raises(ContractViolation, match="all rollouts diverged") as info:
                epsilon_sweep(env, policy, "state", eps, self.M, cost)
            assert info.value.epsilon == 0.3
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_child_that_dies_without_a_result_is_named_and_reaped(self, monkeypatch):
        env, cost, policy = small_problem()
        caller = os.getpid()

        def dies_in_a_child(*args):
            if os.getpid() != caller:
                os._exit(3)
            return monte_carlo_eval(*args)

        monkeypatch.setattr(evaluation, "monte_carlo_eval", dies_in_a_child)
        on_cores(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match="exited with status 3"):
            epsilon_sweep(env, policy, "state", (0.01, 0.02), self.M, cost)
        assert_no_child_left()

    def test_leaving_by_an_exception_kills_the_children(self, monkeypatch):
        # the caller's share is interrupted while its child would run for a minute
        env, cost, policy = small_problem()
        caller = os.getpid()

        class Interrupted(BaseException):
            pass

        def level(*args):
            if os.getpid() != caller:
                time.sleep(60)
            raise Interrupted

        monkeypatch.setattr(evaluation, "monte_carlo_eval", level)
        on_cores(monkeypatch, 2)
        t0 = time.perf_counter()
        with pytest.raises(Interrupted):
            epsilon_sweep(env, policy, "state", (0.01, 0.02), self.M, cost)
        assert time.perf_counter() - t0 < 30
        assert_no_child_left()


class TestScalingFit:
    def _stats(self, eps, var, mean):
        return RolloutStats(
            epsilon=eps, n_rollouts=100, cost_mean=mean, cost_var=var,
            terminal_mse_mean=0.0, channel="state", seed=0,
        )

    def test_recovers_exact_power_law(self):
        sweep = [self._stats(e, 3.0 * e**2.5, 1.0) for e in DEFAULT_EPSILON_GRID]
        fit = variance_scaling_fit(sweep, COST_VAR)
        assert fit.slope == pytest.approx(2.5, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.dropped == 0

    def test_mean_gap_power_law_uses_nominal_cost(self):
        sweep = [self._stats(e, 1.0, 5.0 + 0.7 * e**2) for e in DEFAULT_EPSILON_GRID]
        fit = variance_scaling_fit(sweep, MEAN_COST_GAP, nominal_cost=5.0)
        assert fit.slope == pytest.approx(2.0, abs=1e-10)

    def test_mean_gap_without_nominal_cost_rejected(self):
        sweep = [self._stats(e, 1.0, 1.0) for e in DEFAULT_EPSILON_GRID]
        with pytest.raises(ContractViolation, match="nominal_cost"):
            variance_scaling_fit(sweep, MEAN_COST_GAP)

    def test_unknown_response_rejected(self):
        sweep = [self._stats(e, 1.0, 1.0) for e in DEFAULT_EPSILON_GRID]
        with pytest.raises(ContractViolation, match="response"):
            variance_scaling_fit(sweep, "terminal_wobble")

    def test_degenerate_entries_are_dropped_and_counted(self):
        sweep = [self._stats(0.0, 0.0, 1.0)] + [
            self._stats(e, 2.0 * e**2, 1.0) for e in (0.02, 0.04, 0.06, 0.08)
        ]
        fit = variance_scaling_fit(sweep, COST_VAR)
        assert fit.dropped == 1
        assert fit.slope == pytest.approx(2.0, abs=1e-10)

    def test_too_few_points_rejected(self):
        sweep = [self._stats(e, e**2, 1.0) for e in (0.02, 0.04, 0.06)]
        with pytest.raises(ContractViolation, match=">= 4"):
            variance_scaling_fit(sweep, COST_VAR)


def test_linear_closed_loop_variance_scales_quadratically():
    # around a non-optimal nominal the linear term b'w dominates, so
    # Var(J) ~ eps^2 over the default grid
    env = make_linear_env(horizon=10)
    cost = QuadraticCostModel(Q=np.eye(2), R=np.eye(1), Q_terminal=np.eye(2), x_goal=np.zeros(2))
    nominal = rollout_open_loop(env, env.x0, 0.2 * np.ones((10, 1)), cost)
    policy = build_policy(env, nominal, EstimatorConfig(seed=0), cost)
    sweep = epsilon_sweep(env, policy, "state", DEFAULT_EPSILON_GRID, 4000, cost, seed=0)
    fit = variance_scaling_fit(sweep, COST_VAR)
    assert 1.8 <= fit.slope <= 2.2
    assert fit.r_squared > 0.99
