#!/usr/bin/env python3
"""Compare closed-loop feedback against open-loop replay under process noise.

Trains an environment, then evaluates the same nominal trajectory with and
without its LQR gains on paired noise streams, printing Var(J) and terminal
MSE at each noise level, and the paired closed-minus-open cost difference:
its mean over the rollouts that stay finite under both policies, and that
mean's standard error. Rollout i draws the same noise under both policies,
so the pairing cancels the noise the two costs share.

    python3 scripts/feedback_vs_open_loop.py --env cartpole
"""

import argparse
import sys

import numpy as np

import dilqr
from dilqr.config import default_config, parse_seed
from dilqr.envs import CONTROL_CHANNEL, ENV_BUILDERS, STATE_CHANNEL, NoiseModel
from dilqr.evaluation import rollout_costs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--env", default="pendulum", choices=list(ENV_BUILDERS))
    ap.add_argument("--epsilons", type=float, nargs="+", default=[0.02, 0.05, 0.1])
    ap.add_argument("--rollouts", type=int, default=1_000)
    ap.add_argument("--channel", default=STATE_CHANNEL, choices=[STATE_CHANNEL, CONTROL_CHANNEL])
    ap.add_argument("--seed", type=parse_seed, default=0)
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
    print(
        f"{'eps':>6} {'closed var':>12} {'open var':>12} {'closed mse':>12} {'open mse':>12}"
        f" {'closed-open':>12} {'se':>12}"
    )
    for eps in args.epsilons:
        noise = NoiseModel(epsilon=eps, channel=args.channel, seed=args.seed)
        # each rollout's cost, terminal squared error and alive flag, paired by row
        c_costs, c_sq, c_alive = rollout_costs(env, policy, [noise], args.rollouts, cost)
        o_costs, o_sq, o_alive = rollout_costs(env, open_loop, [noise], args.rollouts, cost)
        diff = (c_costs - o_costs)[c_alive & o_alive]
        columns = (
            np.var(c_costs[c_alive], ddof=1), np.var(o_costs[o_alive], ddof=1),
            np.mean(c_sq[c_alive]), np.mean(o_sq[o_alive]),
            np.mean(diff), np.std(diff, ddof=1) / np.sqrt(len(diff)),
        )
        print(f"{eps:>6} " + " ".join(f"{c:>12.5g}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
