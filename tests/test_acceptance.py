"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (visible with -s, and in the failure
report otherwise) and enforces its thresholds with asserts. Trained
artifacts come from the session-scoped fixtures in conftest so the three
training runs happen once.
"""

import time

import numpy as np
import pytest

from dilqr.cli import main as cli_main
from dilqr.config import default_config
from dilqr.envs import LINEAR_TEST_A, LINEAR_TEST_B, make_pendulum_env
from dilqr.evaluation import COST_VAR, MEAN_COST_GAP, epsilon_sweep, monte_carlo_eval, variance_scaling_fit
from dilqr.envs import NoiseModel
from dilqr.ilqr import OptimizerConfig, optimize
from dilqr.sysid import EstimatorConfig, estimate_fd, estimate_llscd

from oracles import lqr_optimal_cost, pendulum_step_jacobians

EPSILON_GRID = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08)


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- 1: exact-LQR equivalence on the linear system ---------------------------


def test_linear_training_matches_exact_lqr(trained_linear):
    r = trained_linear
    opt = lqr_optimal_cost(
        LINEAR_TEST_A, LINEAR_TEST_B, r.cost.Q, r.cost.R, r.cost.Q_terminal,
        r.env.x0, r.env.horizon,
    )
    rel = abs(r.traj.cost - opt) / abs(opt)
    iters_to_opt = next(
        rec.iteration
        for rec in r.trace.records
        if rec.accepted and abs(rec.cost - opt) / abs(opt) <= 1e-8
    )
    ok = rel <= 1e-8 and iters_to_opt <= 2 and r.train_seconds < 1.0
    report(
        "linear exact-LQR equivalence", ok,
        f"rel_err={rel:.2e} iters_to_opt={iters_to_opt} time={r.train_seconds:.2f}s",
    )


# -- 2: sampled Jacobian accuracy and O(sigma^2) bias ------------------------


def test_sampled_jacobian_accuracy_and_bias_order():
    env = make_pendulum_env()
    x, u = np.array([0.8, -0.5]), np.array([1.5])
    A_ref, B_ref = pendulum_step_jacobians(x, u, dt=env.dt)
    m = estimate_llscd(env, x, u, EstimatorConfig(n_s=env.n_x + env.n_u + 4, sigma=1e-3, seed=0))
    rel = max(
        np.max(np.abs(m.A - A_ref)) / np.max(np.abs(A_ref)),
        np.max(np.abs(m.B - B_ref)) / np.max(np.abs(B_ref)),
    )

    sigmas = [4e-2, 2e-2, 1e-2, 5e-3]
    errs = []
    for sigma in sigmas:
        per_seed = []
        for s in range(8):
            est = estimate_llscd(env, x, u, EstimatorConfig(sigma=sigma, seed=s))
            per_seed.append(
                max(np.max(np.abs(est.A - A_ref)), np.max(np.abs(est.B - B_ref)))
            )
        errs.append(np.mean(per_seed))
    slope = float(np.polyfit(np.log(sigmas), np.log(errs), 1)[0])
    ok = rel <= 1e-4 and 1.7 <= slope <= 2.3
    report("sampled Jacobian accuracy", ok, f"rel_err={rel:.2e} bias_slope={slope:.3f}")


# -- 3: black-box call bookkeeping -------------------------------------------


def test_step_call_counts_are_exact():
    env = make_pendulum_env()
    n_s = env.n_x + env.n_u + 4
    m_lls = estimate_llscd(env, env.x0, np.zeros(1), EstimatorConfig(n_s=n_s, seed=0))
    m_fd = estimate_fd(env, env.x0, np.zeros(1), 1e-4)
    ok = m_lls.eval_count == 2 * n_s and m_fd.eval_count == 2 * (env.n_x + env.n_u)
    report(
        "step-call bookkeeping", ok,
        f"sampled={m_lls.eval_count} (want {2 * n_s}), "
        f"per-coordinate={m_fd.eval_count} (want {2 * (env.n_x + env.n_u)})",
    )


# -- 4 and 5: swing-up convergence -------------------------------------------


def test_pendulum_swingup_converges(trained_pendulum):
    r = trained_pendulum
    theta_err = abs(r.traj.states[-1][0] - np.pi)
    ok = theta_err <= 0.1 and len(r.trace) <= 500 and r.train_seconds <= 60.0
    report(
        "pendulum swing-up", ok,
        f"|theta_N - pi|={theta_err:.4f} iters={len(r.trace)} time={r.train_seconds:.1f}s",
    )


def test_cartpole_swingup_converges(trained_cartpole):
    r = trained_cartpole
    theta_err = abs(r.traj.states[-1][2] - np.pi)
    ok = theta_err <= 0.1 and len(r.trace) <= 500 and r.train_seconds <= 120.0
    report(
        "cart-pole swing-up", ok,
        f"|theta_N - pi|={theta_err:.4f} iters={len(r.trace)} time={r.train_seconds:.1f}s",
    )


# -- 6: noise-scaling power laws ----------------------------------------------

_sweep_seconds = {"total": 0.0}


@pytest.mark.parametrize("which", ["linear_test", "pendulum", "cartpole"])
def test_cost_moments_scale_with_noise(which, trained_linear, trained_pendulum, trained_cartpole):
    r = {"linear_test": trained_linear, "pendulum": trained_pendulum, "cartpole": trained_cartpole}[which]
    t0 = time.perf_counter()
    sweep = epsilon_sweep(r.env, r.policy, "state", EPSILON_GRID, 10_000, r.cost, seed=0)
    _sweep_seconds["total"] += time.perf_counter() - t0
    var_fit = variance_scaling_fit(sweep, COST_VAR)
    gap_fit = variance_scaling_fit(sweep, MEAN_COST_GAP, nominal_cost=r.traj.cost)
    ok = (
        1.7 <= var_fit.slope <= 2.3
        and 1.6 <= gap_fit.slope <= 2.4
        and _sweep_seconds["total"] <= 600.0
    )
    report(
        f"noise-scaling power law ({which})", ok,
        f"var_slope={var_fit.slope:.3f} (want [1.7, 2.3]) "
        f"gap_slope={gap_fit.slope:.3f} (want [1.6, 2.4]) "
        f"cumulative_time={_sweep_seconds['total']:.0f}s",
    )


# -- 7: feedback beats open loop under noise ----------------------------------


@pytest.mark.parametrize("which", ["pendulum", "cartpole"])
def test_feedback_reduces_variance_and_terminal_error(which, trained_pendulum, trained_cartpole):
    r = {"pendulum": trained_pendulum, "cartpole": trained_cartpole}[which]
    details = []
    ok = True
    for eps in (0.02, 0.05, 0.1):
        noise = NoiseModel(epsilon=eps, channel="state", seed=0)  # paired streams
        closed = monte_carlo_eval(r.env, r.policy, noise, 1_000, r.cost)
        opened = monte_carlo_eval(r.env, r.policy.with_zero_gains(), noise, 1_000, r.cost)
        ok &= closed.cost_var < opened.cost_var
        ok &= closed.terminal_mse_mean < opened.terminal_mse_mean
        details.append(
            f"eps={eps}: var {closed.cost_var:.3g}<{opened.cost_var:.3g} "
            f"mse {closed.terminal_mse_mean:.3g}<{opened.terminal_mse_mean:.3g}"
        )
    report(f"closed-loop variance reduction ({which})", bool(ok), "; ".join(details))


# -- 8: acceptance-band invariants --------------------------------------------


def _band_zero_run(name):
    cfg = default_config()
    cfg.set("env", "name", name)
    env = cfg.make_env()
    cost = cfg.make_cost(env)
    opt_cfg = OptimizerConfig(band=0.0, max_iters=60)
    _, trace = optimize(env, cost, env.x0, np.zeros((env.horizon, env.n_u)), opt_cfg)
    return trace


def test_acceptance_band_invariants(trained_linear, trained_pendulum, trained_cartpole):
    ok = True
    details = []
    for name in ("linear_test", "pendulum", "cartpole"):
        costs = [rec.cost for rec in _band_zero_run(name).records if rec.accepted]
        monotone = all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        ok &= monotone
        details.append(f"{name}: band=0 monotone={monotone}")
    for r in (trained_linear, trained_pendulum, trained_cartpole):
        best = np.inf
        bounded = True
        for rec in r.trace.records:  # default runs use band = 0.05
            if rec.accepted:
                bounded &= rec.cost <= best * 1.05 + 1e-12
                best = min(best, rec.cost)
        ok &= bounded
        details.append(f"{r.env.name}: band=0.05 bounded={bounded}")
    report("acceptance-band invariants", bool(ok), "; ".join(details))


# -- 9: bit-identical reruns ---------------------------------------------------


def test_identical_configs_give_bit_identical_outputs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[env]\nname = linear_test\nhorizon = 15\n"
        "[eval]\nrollouts = 300\nepsilons = 0.01, 0.02, 0.04, 0.08\n"
    )
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_main(
            ["feedback", "--config", str(cfg), "--out", str(out), str(out / "trajectory.txt")]
        ) == 0
        assert cli_main(
            ["eval", "--config", str(cfg), "--out", str(out), str(out / "policy.txt")]
        ) == 0
        assert cli_main(
            ["sweep", "--config", str(cfg), "--out", str(out), str(out / "policy.txt")]
        ) == 0
        assert cli_main(["jacobian-bench", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    mismatched = [
        name
        for name in (
            "config.txt", "trajectory.txt", "trace.csv", "policy.txt",
            "eval.csv", "sweep.csv", "fit.csv", "bench.csv",
        )
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()
    ]
    report(
        "bit-identical reruns", not mismatched,
        "all command outputs identical" if not mismatched else f"differs: {mismatched}",
    )
