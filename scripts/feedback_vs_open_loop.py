#!/usr/bin/env python3
"""Compare closed-loop feedback against open-loop replay under process noise.

Trains an environment, then evaluates the same nominal trajectory with and
without its LQR gains on paired noise streams, printing Var(J) and terminal
MSE at each noise level.

    python3 scripts/feedback_vs_open_loop.py --env cartpole
"""

import argparse
import sys

import numpy as np

import dilqr
from dilqr.config import default_config
from dilqr.envs import ENV_BUILDERS, NoiseModel
from dilqr.evaluation import monte_carlo_eval


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--env", default="pendulum", choices=list(ENV_BUILDERS))
    ap.add_argument("--epsilons", type=float, nargs="+", default=[0.02, 0.05, 0.1])
    ap.add_argument("--rollouts", type=int, default=1_000)
    ap.add_argument("--channel", default="state", choices=["state", "control"])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = default_config()
    cfg.set("env", "name", args.env)
    cfg.set("run", "seed", args.seed)
    env = cfg.make_env()
    cost = cfg.make_cost(env)
    traj, _ = dilqr.optimize(
        env, cost, env.x0, np.zeros((env.horizon, env.n_u)), cfg.make_optimizer()
    )
    policy = dilqr.build_policy(env, traj, cfg.make_estimator(), cost)
    open_loop = policy.with_zero_gains()

    print(f"{args.env}: nominal cost {traj.cost:.4f}, M={args.rollouts}, channel={args.channel}")
    print(f"{'eps':>6} {'closed var':>12} {'open var':>12} {'closed mse':>12} {'open mse':>12}")
    for eps in args.epsilons:
        noise = NoiseModel(epsilon=eps, channel=args.channel, seed=args.seed)
        closed = monte_carlo_eval(env, policy, noise, args.rollouts, cost)
        opened = monte_carlo_eval(env, open_loop, noise, args.rollouts, cost)
        print(
            f"{eps:>6} {closed.cost_var:>12.5g} {opened.cost_var:>12.5g}"
            f" {closed.terminal_mse_mean:>12.5g} {opened.terminal_mse_mean:>12.5g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
