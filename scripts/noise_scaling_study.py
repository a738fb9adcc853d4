#!/usr/bin/env python3
"""Measure how closed-loop cost moments scale with the noise factor.

For each selected environment: train, synthesize feedback, run a Monte-Carlo
epsilon sweep, and print the fitted log-log slopes of Var(J) and of the mean
cost gap |E[J] - J_nominal|. Both are expected to be near 2 (variance of a
quadratic-in-noise cost is dominated by its eps^2 term at small eps).

    python3 scripts/noise_scaling_study.py --envs pendulum cartpole --rollouts 10000
"""

import argparse
import sys

import numpy as np

import dilqr
from dilqr.config import default_config
from dilqr.envs import ENV_BUILDERS
from dilqr.evaluation import COST_VAR, MEAN_COST_GAP, epsilon_sweep, variance_scaling_fit


def study(name, rollouts, channel, seed):
    cfg = default_config()
    cfg.set("env", "name", name)
    cfg.set("run", "seed", seed)
    env = cfg.make_env()
    cost = cfg.make_cost(env)
    traj, trace = dilqr.optimize(
        env, cost, env.x0, np.zeros((env.horizon, env.n_u)), cfg.make_optimizer()
    )
    policy = dilqr.build_policy(env, traj, cfg.make_estimator(), cost)
    sweep = epsilon_sweep(
        env, policy, channel, cfg.get("eval", "epsilons"), rollouts, cost, seed=seed
    )
    var_fit = variance_scaling_fit(sweep, COST_VAR)
    nominal_cost = dilqr.monte_carlo_eval(env, policy, cfg.make_noise(0.0), 1, cost).cost_mean
    gap_fit = variance_scaling_fit(sweep, MEAN_COST_GAP, nominal_cost=nominal_cost)

    print(f"\n== {name} (channel={channel}, M={rollouts}) ==")
    print(f"nominal cost {traj.cost:.4f} after {len(trace)} iterations ({trace.stop_reason})")
    print(f"{'eps':>6} {'cost_mean':>12} {'cost_var':>12} {'terminal_mse':>12}")
    for s in sweep:
        print(f"{s.epsilon:>6} {s.cost_mean:>12.5f} {s.cost_var:>12.5g} {s.terminal_mse_mean:>12.5g}")
    print(f"Var(J) slope      = {var_fit.slope:.3f}  (r^2 {var_fit.r_squared:.4f})")
    print(f"mean-gap slope    = {gap_fit.slope:.3f}  (r^2 {gap_fit.r_squared:.4f})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--envs", nargs="+", default=list(ENV_BUILDERS))
    ap.add_argument("--rollouts", type=int, default=10_000)
    ap.add_argument("--channel", default="state", choices=["state", "control"])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for name in args.envs:
        study(name, args.rollouts, args.channel, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
