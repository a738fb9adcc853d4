#!/usr/bin/env python3
"""Train, wrap with LQR feedback, and sweep noise, one environment at a time.

Runs `dilqr train`, `feedback` and `sweep` on each --env and leaves
trajectory.txt, policy.txt, trace.csv, sweep.csv and fit.csv under
<out>/<env>/. The CLI prints each stop reason and the fitted slopes of
Var(J) and of the mean cost gap, both expected near 2.

    python3 scripts/train_swingup.py --env pendulum cartpole --rollouts 10000
"""

import argparse
import sys
from pathlib import Path

from dilqr.cli import main as cli_main
from dilqr.config import parse_seed
from dilqr.envs import CONTROL_CHANNEL, ENV_BUILDERS, STATE_CHANNEL


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--env", nargs="+", default=["pendulum"], choices=list(ENV_BUILDERS))
    ap.add_argument("--out", default="out", help="output root; each environment gets <out>/<env>")
    ap.add_argument("--seed", type=parse_seed, default=0)
    ap.add_argument("--rollouts", type=int, default=10_000, help="Monte-Carlo rollouts per epsilon")
    ap.add_argument("--channel", default=STATE_CHANNEL, choices=[STATE_CHANNEL, CONTROL_CHANNEL])
    args = ap.parse_args()

    for name in args.env:
        out = Path(args.out) / name
        out.mkdir(parents=True, exist_ok=True)
        cfg_path = out / "input.cfg"
        cfg_path.write_text(
            f"[env]\nname = {name}\n\n"
            f"[noise]\nchannel = {args.channel}\n\n"
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
