#!/usr/bin/env python3
"""Train a swing-up trajectory, wrap it with LQR feedback, and sweep noise.

Runs the whole pipeline on one environment and leaves trajectory.txt,
policy.txt, trace.csv, sweep.csv, and fit.csv under --out.

    python3 scripts/train_swingup.py --env pendulum --out out/pendulum
"""

import argparse
import sys
from pathlib import Path

from dilqr.cli import main as cli_main
from dilqr.envs import ENV_BUILDERS


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--env", default="pendulum", choices=list(ENV_BUILDERS))
    ap.add_argument("--out", default=None, help="output directory (default out/<env>)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rollouts", type=int, default=10_000, help="Monte-Carlo rollouts per epsilon")
    args = ap.parse_args()

    out = Path(args.out or f"out/{args.env}")
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "input.cfg"
    cfg_path.write_text(
        f"[env]\nname = {args.env}\n\n"
        f"[eval]\nrollouts = {args.rollouts}\n\n"
        f"[run]\nseed = {args.seed}\n"
    )

    for argv in (
        ["train", "--config", str(cfg_path), "--out", str(out)],
        ["feedback", "--config", str(cfg_path), "--out", str(out), str(out / "trajectory.txt")],
        ["sweep", "--config", str(cfg_path), "--out", str(out), str(out / "policy.txt")],
    ):
        rc = cli_main(argv)
        if rc != 0:
            return rc
    print(f"done; outputs in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
