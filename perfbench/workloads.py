"""The three benchmark workloads.

Each workload is a closed loop with one client: ``run_pass`` performs one
whole operation and returns when it is done, and the runner starts the
next pass only then. Everything the program sees is built from the
default config plus the workload seed (as ``run.seed``), so the same seed
gives the same inputs and the same deterministic outputs.

A pass returns a dict with three parts:

* ``timed``: wall-clock figures of this pass (the runner reports medians);
* ``fixed``: deterministic outputs, equal on every pass of one seed;
* ``digest``: hashes of the pass's arrays or files, equal on every pass.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from dilqr import cli, evaluation, feedback, ilqr, serialize
from dilqr.config import default_config

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# the default-config cart-pole policy (run.seed = 0) written by the seed
# code's `dilqr train` + `dilqr feedback`; see README.md
POLICY_PATH = HERE / "data" / "cartpole_policy.txt"
POLICY_SHA256 = "0a8997098eccb65988d93041fa5a2d70d9f50d6699f213224521f1fb5fe833d6"

# |theta_N - pi| tolerance of the acceptance gate's swing-up tests
SWING_UP_TOL = 0.1
# angle index in the state vector, per environment
THETA_INDEX = {"pendulum": 0, "cartpole": 2}


class Checks:
    """Correctness checks; each failed check is one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _swing_up_error(env_name: str, states: np.ndarray) -> float:
    return abs(float(states[-1][THETA_INDEX[env_name]]) - np.pi)


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


class PendulumTrain:
    """optimize from zero controls on the default pendulum config, then build_policy.

    Training dominates: 500 iterations (the cap) of per-point identification
    and line search. No evaluation work.
    """

    name = "pendulum-train"
    trains = True

    def __init__(self, seed: int, tiny: bool = False):
        self.seed, self.tiny = seed, tiny
        self.env = None

    def setup(self, checks: Checks) -> None:
        cfg = default_config()
        cfg.set("run", "seed", self.seed)
        if self.tiny:
            cfg.set("optimizer", "max_iters", 3)
        self.env = cfg.make_env()
        self.cost = cfg.make_cost(self.env)
        self.optimizer = cfg.make_optimizer()
        self.estimator = cfg.make_estimator()

    def run_pass(self) -> dict:
        env = self.env
        t0 = time.perf_counter()
        traj, trace = ilqr.optimize(
            env, self.cost, env.x0, np.zeros((env.horizon, env.n_u)), self.optimizer
        )
        t1 = time.perf_counter()
        policy = feedback.build_policy(env, traj, self.estimator, self.cost)
        t2 = time.perf_counter()
        return {
            "timed": {"pipeline_s": t2 - t0, "train_s": t1 - t0, "policy_s": t2 - t1},
            "fixed": {
                "final_cost": float(traj.cost),
                "train_iters": len(trace),
                "train_step_calls": trace.records[-1].eval_count,
                "swing_up_error": _swing_up_error(env.name, traj.states),
                "finite": _finite(traj.states, traj.controls, policy.gains),
            },
            "digest": _digest(traj.states, traj.controls, policy.gains),
        }

    def check_pass(self, p: dict, checks: Checks) -> None:
        fixed = p["fixed"]
        checks.check(fixed["finite"], "all returned arrays finite")
        checks.check(fixed["swing_up_error"] <= SWING_UP_TOL, "swing-up |theta_N - pi| <= 0.1")


class CartpoleSweep:
    """epsilon_sweep of the stored cart-pole policy: 8 epsilons x 10,000 rollouts.

    Evaluation only (sysid and ilqr do no work). Carries the known-red
    variance slope on a policy that training changes cannot move.
    """

    name = "cartpole-sweep"
    trains = False
    rollouts = 10_000

    def __init__(self, seed: int, tiny: bool = False):
        self.seed, self.tiny = seed, tiny
        self.env = None

    def setup(self, checks: Checks) -> None:
        cfg = default_config()
        cfg.set("env", "name", "cartpole")
        cfg.set("run", "seed", self.seed)
        self.cfg = cfg
        self.env = cfg.make_env()
        self.cost = cfg.make_cost(self.env)
        checks.check(
            hashlib.sha256(POLICY_PATH.read_bytes()).hexdigest() == POLICY_SHA256,
            "stored sweep policy matches its checksum",
        )
        self.policy, env_name = serialize.load_policy(POLICY_PATH)
        checks.check(env_name == self.env.name, "stored sweep policy is a cart-pole policy")
        self.M = 200 if self.tiny else self.rollouts

    def run_pass(self) -> dict:
        epsilons = self.cfg.get("eval", "epsilons")
        t0 = time.perf_counter()
        sweep = evaluation.epsilon_sweep(
            self.env, self.policy, self.cfg.get("noise", "channel"), epsilons, self.M,
            self.cost, seed=self.cfg.get("run", "seed"),
        )
        fit = evaluation.variance_scaling_fit(sweep, evaluation.COST_VAR)
        t1 = time.perf_counter()
        moments = [
            (s.epsilon, s.cost_mean, s.cost_var, s.terminal_mse_mean, s.divergences)
            for s in sweep
        ]
        rollouts = sum(s.n_rollouts for s in sweep)
        return {
            "timed": {"pipeline_s": t1 - t0, "sweep_rollouts_per_s": rollouts / (t1 - t0)},
            "fixed": {
                "final_cost": float(self.policy.nominal.cost),
                "var_slope_gap": abs(fit.slope - 2.0),
                "rollouts": rollouts,
                "moments": moments,
                "swing_up_error": _swing_up_error(self.env.name, self.policy.nominal.states),
                "finite": _finite(np.array([m[1:4] for m in moments])),
            },
            "digest": _digest(np.array(moments)),
        }

    def check_pass(self, p: dict, checks: Checks) -> None:
        fixed = p["fixed"]
        checks.check(fixed["finite"], "all sweep moments finite")
        checks.check(fixed["swing_up_error"] <= SWING_UP_TOL, "swing-up |theta_N - pi| <= 0.1")


class CartpoleCli:
    """All five CLI commands in-process through dilqr.cli.main, cart-pole config.

    train -> feedback -> eval -> sweep -> jacobian-bench, each pass into a
    fresh output directory. Training stops by patience; evaluation runs at
    the default M = 1,000; estimate_fd runs beside estimate_llscd; config,
    cli and serialize do real file I/O.
    """

    name = "cartpole-cli"
    trains = True

    def __init__(self, seed: int, tiny: bool = False):
        self.seed, self.tiny = seed, tiny

    def setup(self, checks: Checks) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        text = f"[env]\nname = cartpole\n\n[run]\nseed = {self.seed}\n"
        if self.tiny:
            text += "\n[optimizer]\nmax_iters = 3\n\n[eval]\nrollouts = 100\n"
        self.config = OUT / f"cartpole-cli-seed{self.seed}.cfg"
        self.config.write_text(text)

    def run_pass(self) -> dict:
        work = Path(tempfile.mkdtemp(prefix="cartpole-cli-", dir=OUT))
        try:
            return self._run_in(work)
        finally:
            shutil.rmtree(work)

    def _run_in(self, work: Path) -> dict:
        cfg = ["--config", str(self.config)]
        commands = {
            "train": ["train", *cfg, "--out", str(work / "train")],
            "feedback": ["feedback", *cfg, "--out", str(work / "feedback"),
                         str(work / "train" / "trajectory.txt")],
            "eval": ["eval", *cfg, "--out", str(work / "eval"),
                     str(work / "feedback" / "policy.txt")],
            "sweep": ["sweep", *cfg, "--out", str(work / "sweep"),
                      str(work / "feedback" / "policy.txt")],
            "jacobian-bench": ["jacobian-bench", *cfg, "--out", str(work / "bench")],
        }
        seconds, codes = {}, {}
        with contextlib.redirect_stdout(io.StringIO()):
            for command, argv in commands.items():
                t0 = time.perf_counter()
                codes[command] = cli.main(argv)
                seconds[command] = time.perf_counter() - t0
        files = {
            str(path.relative_to(work)): path.read_bytes()
            for path in sorted(work.rglob("*")) if path.is_file()
        }
        trajectory, env_name = serialize.load_trajectory(work / "train" / "trajectory.txt")
        with open(work / "train" / "trace.csv", newline="") as fh:
            trace = list(csv.DictReader(fh))
        with open(work / "sweep" / "fit.csv", newline="") as fh:
            fits = {row["response"]: float(row["slope"]) for row in csv.DictReader(fh)}
        return {
            "timed": {
                "pipeline_s": sum(seconds.values()),
                "train_s": seconds["train"],
            },
            "fixed": {
                "final_cost": float(trajectory.cost),
                "train_iters": len(trace),
                "train_step_calls": int(trace[-1]["eval_count"]),
                "var_slope_gap": abs(fits[evaluation.COST_VAR] - 2.0),
                "exit_codes": codes,
                "swing_up_error": _swing_up_error(env_name, trajectory.states),
                "finite": _finite(trajectory.states, trajectory.controls),
            },
            "digest": {
                name: hashlib.sha256(data).hexdigest() for name, data in files.items()
            },
        }

    def check_pass(self, p: dict, checks: Checks) -> None:
        fixed = p["fixed"]
        for command, code in fixed["exit_codes"].items():
            checks.check(code == cli.EXIT_OK, f"cli {command} exit code 0")
        checks.check(fixed["finite"], "all returned arrays finite")
        checks.check(fixed["swing_up_error"] <= SWING_UP_TOL, "swing-up |theta_N - pi| <= 0.1")


WORKLOADS = {w.name: w for w in (PendulumTrain, CartpoleSweep, CartpoleCli)}
