#!/usr/bin/env python3
"""Accuracy-vs-budget comparison of the two black-box Jacobian estimators.

At a fixed off-nominal point of each environment, prints the max-abs error of
the sampled least-squares estimator (across sigma) and the per-coordinate
central-difference baseline, against a Richardson-extrapolated reference.

    python3 scripts/jacobian_accuracy.py
"""

import argparse
import sys

import numpy as np

from dilqr.cli import _reference_jacobian
from dilqr.envs import make_env
from dilqr.sysid import EstimatorConfig, estimate_fd, estimate_llscd

PROBE_POINTS = {
    "linear_test": (np.array([0.7, -0.3]), np.array([0.2])),
    "pendulum": (np.array([0.8, -0.5]), np.array([1.5])),
    "cartpole": (np.array([0.1, 0.2, 0.8, -0.4]), np.array([2.0])),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sigmas", type=float, nargs="+", default=[1e-2, 1e-3, 1e-4])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for name, (x, u) in PROBE_POINTS.items():
        env = make_env(name)
        A_ref, B_ref = _reference_jacobian(env, x, u)

        def err(m):
            return max(np.max(np.abs(m.A - A_ref)), np.max(np.abs(m.B - B_ref)))

        print(f"\n== {name} (n_x={env.n_x}, n_u={env.n_u}) ==")
        print(f"{'method':>24} {'step rows':>11} {'max abs error':>14}")
        for sigma in args.sigmas:
            cfg = EstimatorConfig(sigma=sigma, seed=args.seed)
            m = estimate_llscd(env, x, u, cfg)
            print(f"{f'sampled (sigma={sigma:g})':>24} {m.eval_count:>11} {err(m):>14.3e}")
        m = estimate_fd(env, x, u, 1e-4)
        print(f"{'central diff (h=1e-4)':>24} {m.eval_count:>11} {err(m):>14.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
