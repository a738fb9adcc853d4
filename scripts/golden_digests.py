"""SHA-256 digests of every file the CLI pipeline writes.

For each environment in ENV_BUILDERS and each seed in SEEDS, runs
`dilqr train -> feedback -> eval -> sweep` and `dilqr jacobian-bench`
in-process with `eval.rollouts = ROLLOUTS`, each command into its own
directory, and hashes every file the five commands write. Two more sweeps of
the cart-pole seed-0 policy pin the bytes of sweeps whose levels run in
forked worker processes (from `evaluation.PARALLEL_MIN_ROLLOUTS` rollouts per
level; on a single core they run in turn, and must write the same bytes):
one at `eval.rollouts = PARALLEL_ROLLOUTS` (8,192), one level per batch,
under the key `sweep-threaded` that it got when the levels ran on threads;
and one at `PACKED_ROLLOUTS` (1,000, the CLI default), whose levels each
process packs into one batch of up to `evaluation.PACK_MAX_ROWS` rows, under
`sweep-packed`. The digests are stored with the numpy
and BLAS versions that produced them, because a different BLAS build may
round differently; tests/test_golden.py recomputes them and fails on any
changed byte or on a version mismatch.

Usage:
    python scripts/golden_digests.py            # print the digests as JSON
    python scripts/golden_digests.py --write    # overwrite tests/golden_digests.json

Regenerate the stored digests only for a change that alters outputs on
purpose, and name each changed file and the reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dilqr.cli import main as dilqr_main  # noqa: E402
from dilqr.envs import ENV_BUILDERS  # noqa: E402

DIGEST_FILE = ROOT / "tests" / "golden_digests.json"
SEEDS = (0, 7)
ROLLOUTS = 500
PARALLEL_ROLLOUTS = 8192
PACKED_ROLLOUTS = 1000


def library_versions() -> dict:
    """The numpy version and the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas_version = "unknown"
    return {"numpy": np.__version__, "blas": blas_version}


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dilqr_main(list(argv))
    if code != 0:
        raise RuntimeError(f"dilqr {' '.join(argv)} exited {code}")


def _config(path: Path, env_name: str, rollouts: int) -> Path:
    path.write_text(f"[env]\nname = {env_name}\n\n[eval]\nrollouts = {rollouts}\n")
    return path


def run_pipeline(root: Path, env_name: str, seed: int) -> None:
    """train -> feedback -> eval -> sweep, and jacobian-bench, into root/<env>/seed<seed>/<cmd>."""
    run = root / env_name / f"seed{seed}"
    run.mkdir(parents=True)
    cfg = _config(run / "run.cfg", env_name, ROLLOUTS)
    common = ("--config", str(cfg), "--seed", str(seed))
    _run("train", *common, "--out", str(run / "train"))
    _run("feedback", *common, "--out", str(run / "feedback"), str(run / "train" / "trajectory.txt"))
    policy = str(run / "feedback" / "policy.txt")
    _run("eval", *common, "--out", str(run / "eval"), policy)
    _run("sweep", *common, "--out", str(run / "sweep"), policy)
    _run("jacobian-bench", *common, "--out", str(run / "bench"))


def run_parallel_sweep(root: Path, rollouts: int, name: str) -> None:
    """sweep of the cart-pole seed-0 policy at `rollouts` into root/cartpole/seed0/<name>."""
    run = root / "cartpole" / "seed0"
    cfg = _config(run / f"{name}.cfg", "cartpole", rollouts)
    _run("sweep", "--config", str(cfg), "--seed", "0", "--out", str(run / name),
         str(run / "feedback" / "policy.txt"))


def pipeline_digests() -> dict[str, str]:
    """SHA-256 of every output file, keyed by its path relative to the run root."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for env_name in ENV_BUILDERS:
            for seed in SEEDS:
                run_pipeline(root, env_name, seed)
        run_parallel_sweep(root, PARALLEL_ROLLOUTS, "sweep-threaded")
        run_parallel_sweep(root, PACKED_ROLLOUTS, "sweep-packed")
        return {
            path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.suffix != ".cfg"
        }


def golden_record() -> dict:
    return {**library_versions(), "seeds": list(SEEDS), "rollouts": ROLLOUTS,
            "files": pipeline_digests()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"overwrite {DIGEST_FILE.name}")
    args = parser.parse_args(argv)
    text = json.dumps(golden_record(), indent=2, sort_keys=True) + "\n"
    if args.write:
        DIGEST_FILE.write_text(text)
        print(f"wrote {DIGEST_FILE}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
