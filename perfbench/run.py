"""dilqr benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload pendulum-train --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; dilqr is imported from ./src.
The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}. The line before it carries
the machine, every end-to-end figure that applies to the workload (by the
names in README.md), and the names of failed checks. Both are also written
to perfbench/out/. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, scipy.linalg, dilqr.cli; print(time.perf_counter() - t)"
)

# (name, unit) of every end-to-end figure; which ones a workload reports is
# set by the passes it runs. END_TO_END are the ones defined on every
# workload, the ones BENCHMARK.json gates.
REPORT_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "train_iters": "count",
    "train_step_calls": "count",
    "final_cost": "cost",
    "policy_s": "s",
    "sweep_rollouts_per_s": "rollouts/s",
    "var_slope_gap": "slope",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
END_TO_END = ("setup_s", "pipeline_s", "peak_rss_mb", "final_cost")


def cap_blas_threads() -> None:
    """Cap BLAS threads at the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in BLAS_THREAD_VARS:
        try:
            cap = min(cap, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get(BLAS_THREAD_VARS[0], "unset"),
        "git_commit": git_commit(),
        "seed": seed,
    }


def import_seconds() -> float:
    """Median time to import numpy, scipy.linalg and dilqr in a fresh interpreter.

    A process imports only once, so the set-up repeats run in child
    interpreters, one after another; each is waited for.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(float(child.stdout))
    return statistics.median(times)


def _passes(run_pass, seconds: float, count: int | None = None) -> list:
    """Run passes back to back: `count` of them, or until `seconds` have gone by."""
    out = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        p = run_pass()
        p["wall_s"] = time.perf_counter() - t0
        out.append(p)
        if len(out) == count or (count is None and time.perf_counter() >= deadline):
            return out


def _same(p: dict, q: dict) -> bool:
    return p["fixed"] == q["fixed"] and p["digest"] == q["digest"]


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one benchmark invocation; return (result line, detail record)."""
    import_s = import_seconds()
    import layers
    from tracer import Tracer
    from workloads import OUT, WORKLOADS, Checks

    checks = Checks()
    wl = WORKLOADS[workload](seed, tiny=tiny)
    build_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(checks)
        build_s.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(build_s)
    originals = layers.originals()

    traced, per_layer = [], {}
    if trace:
        tracer = Tracer()
        traced_pass = tracer.wrap("bench.pass", wl.run_pass)
        bounds = []

        def one_traced_pass() -> dict:
            lo = len(tracer.spans)
            p = traced_pass()
            bounds.append((lo, len(tracer.spans)))
            return p

        layers.install(tracer, wl)
        try:
            traced = _passes(one_traced_pass, seconds)
        finally:
            tracer.remove()
        samples = []
        for (lo, hi), p in zip(bounds, traced):
            eval_count = p["fixed"].get("train_step_calls", 0)
            samples.append(layers.pass_metrics(tracer.spans, lo, hi, eval_count))
            if wl.trains:
                checks.check(samples[-1]["ilqr.eval_count_gap"] == 0, "ilqr.eval_count_gap == 0")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_csv(OUT / f"spans-{workload}.csv")
        del tracer
        per_layer = {k: statistics.median(s[k] for s in samples) for k in samples[0]}

    checks.check(
        all(getattr(owner, attr) is fn for (owner, attr), fn in originals.items()),
        "untraced run sees the original function objects",
    )
    passes = _passes(wl.run_pass, seconds, count=len(traced) if trace else None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for p in passes + traced:
        wl.check_pass(p, checks)
        checks.check(_same(p, passes[0]), "outputs identical across passes and traced/untraced")

    report = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    for key in passes[0]["timed"]:
        report[key] = statistics.median(p["timed"][key] for p in passes)
    for key in REPORT_UNITS:
        if key in passes[0]["fixed"]:
            report[key] = passes[0]["fixed"][key]
    report = {k: {"value": report[k], "unit": u} for k, u in REPORT_UNITS.items() if k in report}

    if trace:
        per_layer["trace.overhead_ratio"] = statistics.median(
            p["wall_s"] for p in traced
        ) / statistics.median(p["wall_s"] for p in passes)
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {name: report[name] for name in END_TO_END}

    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "traced_passes": len(traced),
        "pass_seconds": [p["wall_s"] for p in passes],
        "traced_pass_seconds": [p["wall_s"] for p in traced],
        "machine": machine(seed),
        "report": report,
        "failed_checks": checks.failures,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pendulum-train", "cartpole-sweep", "cartpole-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_blas_threads()
    if not (ROOT / "src" / "dilqr" / "__init__.py").is_file():
        print(f"error: no dilqr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = HERE / "out"
    out.mkdir(parents=True, exist_ok=True)
    record = {**detail, "result": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
