"""Monte-Carlo closed-loop evaluation under scaled process noise.

Provides per-epsilon rollout statistics (cost mean/variance, terminal
squared deviation from goal) and log-log power-law fits of how those
statistics scale with the noise factor.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .costs import QuadraticCostModel, stage_cost, terminal_cost
from .envs import Environment, NoiseModel, _closed_loop, child_seed
from .errors import ContractViolation
from .feedback import DecoupledPolicy


# Rollouts per level from which epsilon_sweep runs its levels in forked
# workers. Below it a fork costs about what a second core gains: on a 2-core
# VM, over the default 8-level grid, forked beat in turn in at least 9 of 10
# interleaved rounds at every power of two from 1,024 to 8,192 on linear_test,
# pendulum and cart-pole, in every set of rounds taken (one to three; median
# speed-up 1.1-1.8x at 1,024, 1.4-1.7x at 8,192); at 512 linear_test won 8,
# 10 and 2 of 10.
PARALLEL_MIN_ROLLOUTS = 1024


@dataclass(frozen=True)
class RolloutStats:
    epsilon: float
    n_rollouts: int
    cost_mean: float
    cost_var: float
    terminal_mse_mean: float
    channel: str
    seed: int
    divergences: int = 0

    def __post_init__(self):
        if self.n_rollouts < 1:
            raise ContractViolation("n_rollouts must be >= 1")
        if self.cost_var < 0:
            raise ContractViolation("cost variance cannot be negative")


@dataclass(frozen=True)
class ScalingFit:
    epsilons: tuple
    slope: float
    intercept: float
    r_squared: float
    dropped: int = 0


def monte_carlo_eval(
    env: Environment,
    policy: DecoupledPolicy,
    noise: NoiseModel,
    M: int,
    cost: QuadraticCostModel,
) -> RolloutStats:
    """M independent closed-loop rollouts, run as one batch; unbiased sample moments.

    Rollout i gets row i of each step's noise.draws, drawn as the step
    runs; the prefix-stable streams make rollout i's noise independent of
    M. Each rollout's cost is added up while the batch steps, in
    total_cost's order, so neither the draws nor a state or control history
    is stored: memory is O(M), whatever the horizon.
    Divergent rollouts (non-finite states) are excluded from the moments and
    counted. Deterministic given (noise.seed, M).
    """
    if M < 1:
        raise ContractViolation("M must be >= 1")
    nominal = policy.nominal
    # states, controls, gains, cost (n_x, n_u)
    dims = (nominal.states.shape[1:], nominal.controls.shape[1:], policy.gains.shape[1:],
            (cost.n_x, cost.n_u))
    if dims != ((env.n_x,), (env.n_u,), (env.n_u, env.n_x), (env.n_x, env.n_u)):
        raise ContractViolation(f"policy and cost dimensions {dims} do not fit {env.name}")
    # at epsilon = 0 every rollout is the same noiseless rollout; the rows are one view
    rows = 1 if noise.epsilon == 0.0 else M
    controls = np.broadcast_to(nominal.controls[:, None], (nominal.horizon, rows, env.n_u))
    steps = _closed_loop(env, nominal.states, controls, policy.gains, noise)
    costs = 0.0
    with np.errstate(all="ignore"):
        for _ in range(nominal.horizon):
            # bind nothing: x_t and u_t are freed before the loop steps t + 1
            costs += stage_cost(*next(steps), cost)
        x, ok = next(steps)
        costs += terminal_cost(x, cost)
        terminal_sq = np.sum((x - cost.x_goal) ** 2, axis=-1)
    n_ok = int(np.sum(ok))
    if n_ok == 0:
        raise ContractViolation("all rollouts diverged; cannot form moments")
    cost_var = float(np.var(costs[ok], ddof=1)) if n_ok > 1 else 0.0
    return RolloutStats(
        epsilon=noise.epsilon,
        n_rollouts=M,
        cost_mean=float(np.mean(costs[ok])),
        cost_var=cost_var,
        terminal_mse_mean=float(np.mean(terminal_sq[ok])),
        channel=noise.channel,
        seed=noise.seed,
        divergences=rows - n_ok,
    )


def epsilon_sweep(
    env: Environment,
    policy: DecoupledPolicy,
    channel: str,
    epsilons: Sequence[float],
    M: int,
    cost: QuadraticCostModel,
    seed: int = 0,
) -> list[RolloutStats]:
    """One RolloutStats per epsilon, each from a disjoint noise stream.

    With M >= PARALLEL_MIN_ROLLOUTS, on Linux, the levels run on W processes,
    W = min(cores in this process's CPU affinity, levels): this process runs
    levels 0, W, 2W, ... and each of W - 1 children made by os.fork runs
    levels w, w + W, ..., so the Monte-Carlo kernel runs outside the GIL.
    Elsewhere, or below the gate, they run in turn. Each level keeps its own
    stream and the results come back in epsilon order, so the output is the
    same either way, and so is the first failing level's error. Every level's
    NoiseModel is built, and so checked, before the first level runs.

    Fork safety rests on a child running numpy code only, taking no lock that
    another thread of this process may hold, and writing nothing but its
    result to its own pipe before it leaves by os._exit. Python >= 3.12 warns
    (DeprecationWarning) when a process with threads forks.
    """
    epsilons = [float(e) for e in epsilons]
    if not epsilons or any(e < 0 for e in epsilons) or epsilons != sorted(epsilons):
        raise ContractViolation("epsilons must be non-empty, non-negative and ascending")
    noises = [
        NoiseModel(epsilon=e, channel=channel, seed=child_seed(seed, i))
        for i, e in enumerate(epsilons)
    ]

    def level(noise: NoiseModel) -> RolloutStats:
        return monte_carlo_eval(env, policy, noise, M, cost)

    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    workers = min(len(affinity(0)), len(noises)) if affinity else 1
    if M < PARALLEL_MIN_ROLLOUTS or workers < 2:
        return [level(noise) for noise in noises]

    def attempt(noise: NoiseModel) -> tuple[bool, object]:
        try:
            return True, level(noise)
        except Exception as exc:  # raised again below, in epsilon order
            return False, exc

    shares = _forked(lambda share: [attempt(noise) for noise in share],
                     [noises[w::workers] for w in range(workers)])
    outcomes = [shares[i % workers][i // workers] for i in range(len(noises))]
    for ok, outcome in outcomes:
        if not ok:
            raise outcome
    return [stats for _, stats in outcomes]


def _forked(run, shares: list) -> list:
    """[run(share) for share in shares], shares[1:] each in a forked child.

    A child pickles its result down a pipe and leaves by os._exit, so it
    flushes no inherited stdio buffer and runs no atexit handler. Every child
    is reaped before this returns or raises; if the caller leaves by an
    exception, the children still running are killed first. A child that
    hands back no result raises ChildProcessError with its exit status.
    """
    readers, pids = [], []
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            readers.append(os.fdopen(r, "rb"))
            with os.fdopen(w, "wb") as pipe:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        pickle.dump(run(share), pipe)
                        pipe.flush()
                        status = 0
                    finally:
                        os._exit(status)
            pids.append(pid)
        mine = run(shares[0])
        handed = [reader.read() for reader in readers]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for reader in readers:
            reader.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for pid, code in zip(pids, codes):
        if code != 0:
            raise ChildProcessError(f"epsilon_sweep worker {pid} exited with status {code} "
                                    "and handed back no levels")
    return [mine] + [pickle.loads(blob) for blob in handed]


COST_VAR = "cost_var"
MEAN_COST_GAP = "mean_cost_gap"


def variance_scaling_fit(
    sweep: Sequence[RolloutStats],
    response: str,
    nominal_cost: float | None = None,
) -> ScalingFit:
    """OLS fit of log(response) against log(epsilon) over a sweep.

    response selects Var(J) or |E[J] - J_nominal|; for the latter the
    nominal (noiseless) cost must be supplied. Non-positive responses and
    epsilon = 0 entries are dropped; at least 4 must survive.
    """
    if response == COST_VAR:
        pairs = [(s.epsilon, s.cost_var) for s in sweep]
    elif response == MEAN_COST_GAP:
        if nominal_cost is None:
            raise ContractViolation("mean_cost_gap response requires nominal_cost")
        pairs = [(s.epsilon, abs(s.cost_mean - nominal_cost)) for s in sweep]
    else:
        raise ContractViolation(f"unknown response {response!r}")

    kept = [(e, r) for e, r in pairs if e > 0 and r > 0]
    dropped = len(pairs) - len(kept)
    if len(kept) < 4:
        raise ContractViolation(
            f"scaling fit needs >= 4 positive (epsilon, response) pairs, have {len(kept)}"
        )
    log_e = np.log([e for e, _ in kept])
    log_r = np.log([r for _, r in kept])
    slope, intercept = np.polyfit(log_e, log_r, 1)
    pred = slope * log_e + intercept
    ss_res = float(np.sum((log_r - pred) ** 2))
    ss_tot = float(np.sum((log_r - np.mean(log_r)) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return ScalingFit(
        epsilons=tuple(e for e, _ in kept),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        dropped=dropped,
    )


DEFAULT_EPSILON_GRID = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08)
