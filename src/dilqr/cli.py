"""Command-line entry point.

Subcommands: train, feedback, eval, sweep, jacobian-bench. Exit codes:
0 success, 1 usage/config error, 2 numerical failure.

jacobian-bench compares both Jacobian estimators on the config's
environment at PROBE_POINTS and with u on its upper bound: black-box rows
next to the error. A sigma, n_s or seed study is a set of runs.

All file output lands under the --out directory, alongside a verbatim echo
of the effective configuration. Timing columns are written as 0.0 unless
run.record_timing is set, so repeated runs produce bit-identical files.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, default_config, load_config, parse_seed
from .envs import make_env  # noqa: F401  (unused here; perfbench/layers.py wraps cli.make_env)
from .errors import (
    ContractViolation,
    NonFiniteModel,
    NotPositiveDefinite,
    RegularizationExhausted,
    SingularSystem,
)
from .evaluation import COST_VAR, MEAN_COST_GAP, epsilon_sweep, monte_carlo_eval, variance_scaling_fit
from .feedback import build_policy
from .ilqr import optimize
from .serialize import load_policy, load_trajectory, save_policy, save_trajectory
from .sysid import estimate_fd, estimate_llscd

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # plain round-trip digits, also for np.float64
    return str(v)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg.set("run", "seed", parse_seed(args.seed))
    return cfg


def _out_dir(args, cfg: RunConfig) -> Path:
    """Create --out and write config.txt; called once the inputs have passed their checks."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(cfg.dump())
    return out


def _config_env(cfg: RunConfig, file_env: str, file_horizon: int, made: str):
    """The config's environment, whose name and horizon must be the input file's."""
    env = cfg.make_env()
    if env.name != file_env:
        raise ConfigError(f"{made} on {file_env!r} but config selects {env.name!r}")
    if env.horizon != file_horizon:
        raise ConfigError(
            f"{made} with horizon {file_horizon} but config selects horizon {env.horizon}"
        )
    return env


def cmd_train(args) -> int:
    cfg = _load(args)
    env = cfg.make_env()
    cost = cfg.make_cost(env)
    opt = cfg.make_optimizer()
    out = _out_dir(args, cfg)
    u_init = np.zeros((env.horizon, env.n_u))
    traj, trace = optimize(env, cost, env.x0, u_init, opt)
    save_trajectory(out / "trajectory.txt", traj, env.name)
    record_timing = cfg.get("run", "record_timing")
    last = len(trace) - 1
    _write_csv(
        out / "trace.csv",
        ["iteration", "cost", "mu", "alpha", "accepted", "wall_time_s", "eval_count",
         "backward_success", "best_cost", "stop_reason"],
        [
            (r.iteration, r.cost, r.mu, r.alpha, int(r.accepted),
             r.wall_time_s if record_timing else 0.0, r.eval_count,
             int(r.backward_success), r.best_cost, trace.stop_reason if i == last else "")
            for i, r in enumerate(trace.records)
        ],
    )
    print(
        f"train: {env.name} final cost {float(traj.cost)!r} after {len(trace)} iterations "
        f"({trace.stop_reason})"
    )
    return EXIT_OK


def cmd_feedback(args) -> int:
    cfg = _load(args)
    traj, env_name = load_trajectory(args.trajectory)
    env = _config_env(cfg, env_name, traj.horizon, "trajectory was recorded")
    est, cost = cfg.make_estimator(), cfg.make_cost(env)
    out = _out_dir(args, cfg)
    policy = build_policy(env, traj, est, cost)
    save_policy(out / "policy.txt", policy, env.name)
    print(f"feedback: wrote {out / 'policy.txt'} ({traj.horizon} gains)")
    return EXIT_OK


SWEEP_HEADER = [
    "epsilon", "channel", "n_rollouts", "divergences",
    "cost_mean", "cost_var", "terminal_mse_mean", "seed",
]


def _stats_row(s):
    return (s.epsilon, s.channel, s.n_rollouts, s.divergences,
            s.cost_mean, s.cost_var, s.terminal_mse_mean, s.seed)


def cmd_eval(args) -> int:
    cfg = _load(args)
    policy, env_name = load_policy(args.policy)
    env = _config_env(cfg, env_name, policy.nominal.horizon, "policy was built")
    cost, noise = cfg.make_cost(env), cfg.make_noise()
    out = _out_dir(args, cfg)
    stats = monte_carlo_eval(env, policy, noise, cfg.get("eval", "rollouts"), cost)
    _write_csv(out / "eval.csv", SWEEP_HEADER, [_stats_row(stats)])
    print(f"eval: eps={stats.epsilon} cost_mean={stats.cost_mean!r} cost_var={stats.cost_var!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    policy, env_name = load_policy(args.policy)
    env = _config_env(cfg, env_name, policy.nominal.horizon, "policy was built")
    cost = cfg.make_cost(env)
    out = _out_dir(args, cfg)
    sweep = epsilon_sweep(
        env, policy, cfg.get("noise", "channel"),
        sorted(cfg.get("eval", "epsilons")), cfg.get("eval", "rollouts"),
        cost, seed=cfg.get("run", "seed"),
    )
    _write_csv(out / "sweep.csv", SWEEP_HEADER, [_stats_row(s) for s in sweep])
    clean = [s for s in sweep if s.divergences == 0]
    nominal_cost = monte_carlo_eval(env, policy, cfg.make_noise(0.0), 1, cost).cost_mean
    fit_rows = []
    for response in (COST_VAR, MEAN_COST_GAP):
        try:
            fit = variance_scaling_fit(clean, response, nominal_cost=nominal_cost)
        except ContractViolation as exc:
            print(f"sweep: {response} not fitted: {exc}")
            continue
        fit_rows.append((response, fit.slope, fit.intercept, fit.r_squared, len(fit.epsilons)))
        print(f"sweep: {response} slope={fit.slope:.3f} r2={fit.r_squared:.4f}")
    _write_csv(out / "fit.csv", ["response", "slope", "intercept", "r_squared", "n_points"], fit_rows)
    return EXIT_OK


# Off-nominal (x, u) per environment at which jacobian-bench compares the
# estimators. The control is clamped into the config's bounds first: beyond a
# bound both signs of every step clamp, and both estimators raise SingularSystem.
PROBE_POINTS = {
    "linear_test": (np.array([0.7, -0.3]), np.array([0.2])),
    "pendulum": (np.array([0.8, -0.5]), np.array([1.5])),
    "cartpole": (np.array([0.1, 0.2, 0.8, -0.4]), np.array([2.0])),
}


def _reference_jacobian(env, x, u):
    """Richardson-extrapolated central differences; bench-table reference.

    (4 D(h/2) - D(h)) / 3 cancels a central difference's O(h^2) error. With u
    on a bound the B column is one-sided, with an O(h) error it does not
    cancel: against the analytic step Jacobians, cart-pole's on-bound B is off
    by 5.4e-9 and no probe entry by more than 1.3e-9.
    """
    h = 1e-5
    m1 = estimate_fd(env, x, u, h)
    m2 = estimate_fd(env, x, u, h / 2)
    A = (4 * m2.A - m1.A) / 3
    B = (4 * m2.B - m1.B) / 3
    return A, B


def _bench_points(env) -> dict:
    """(x, u) per jacobian-bench point: the probe, its u clamped, and u on the upper bound."""
    x, u = PROBE_POINTS[env.name]
    return {"probe": (x, env.clamp(u)), "bound": (x, env.control_bounds[:, 1])}


def cmd_jacobian_bench(args) -> int:
    cfg = _load(args)
    env = cfg.make_env()
    est = cfg.make_estimator()
    n_s = est.resolve_n_s(env)
    out = _out_dir(args, cfg)
    record_timing = cfg.get("run", "record_timing")
    rows = []
    for point, (x, u) in _bench_points(env).items():
        A_ref, B_ref = _reference_jacobian(env, x, u)
        for method, param in (("llscd", n_s), ("fd", est.fd_step)):
            t0 = time.perf_counter()
            if method == "llscd":
                m = estimate_llscd(env, x, u, est)
            else:
                m = estimate_fd(env, x, u, est.fd_step)
            wall = time.perf_counter() - t0
            err = max(np.max(np.abs(m.A - A_ref)), np.max(np.abs(m.B - B_ref)))
            rows.append(
                (env.name, point, method, param, wall if record_timing else 0.0,
                 m.eval_count, float(err))
            )
    _write_csv(
        out / "bench.csv",
        ["env", "point", "method", "n_s_or_h", "wall_time_s", "eval_count",
         "max_abs_error_vs_oracle"],
        rows,
    )
    print(f"jacobian-bench: wrote {out / 'bench.csv'} ({len(rows)} rows)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1; its default 2 means a numerical failure here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dilqr",
        description="Sample-based ILQR with decoupled LQR feedback and noise-scaling evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")

    p = sub.add_parser("train", help="optimize an open-loop trajectory")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("feedback", help="wrap a trajectory with LQR feedback gains")
    common(p)
    p.add_argument("trajectory", help="trajectory file from `train`")
    p.set_defaults(func=cmd_feedback)

    p = sub.add_parser("eval", help="Monte-Carlo closed-loop evaluation at one noise level")
    common(p)
    p.add_argument("policy", help="policy file from `feedback`")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="noise-scaling sweep with power-law fits")
    common(p)
    p.add_argument("policy", help="policy file from `feedback`")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "jacobian-bench", help="compare both Jacobian estimators on the config's environment"
    )
    common(p)
    p.set_defaults(func=cmd_jacobian_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RegularizationExhausted, NotPositiveDefinite, SingularSystem, NonFiniteModel) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
