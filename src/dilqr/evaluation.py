"""Monte-Carlo closed-loop evaluation under scaled process noise.

Provides per-rollout costs for one or more noise levels stepped as one
batch, per-epsilon rollout statistics (cost mean/variance, terminal
squared deviation from goal) and log-log power-law fits of how those
statistics scale with the noise factor. monte_carlo_eval (one level) and
epsilon_sweep (a grid of levels) reach their statistics through one level
path, _levels; a level whose rollouts all diverge raises errors.Diverged.
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
from .errors import ContractViolation, Diverged
from .feedback import DecoupledPolicy


# Rollouts per level from which epsilon_sweep runs its levels in forked
# workers. Below it a fork costs about what a second core gains. Forked
# against in turn, both packed, on a 2-core VM over the default 8-level grid
# with the trained default policies, wins of 10 interleaved rounds per set:
#   256:   linear_test 5 3 3 1, pendulum 8 3 6 10, cart-pole 6 7 8 7
#   512:   linear_test 6 5 10 8 8 6 4 2 7 10 10 10 10 8 10,
#          pendulum 9 9 5 9 6 10 7 10, cart-pole 10 8 10 9 8 9 10
#   1,024: linear_test 9 6 9 9 10 10 9 8 8 7 10, pendulum 10 in 7 of 7,
#          cart-pole 10 10 10 10 10 10 8
# No power of two up to 1,024 won 9 of 10 in every set on every environment;
# 512 is the smallest where forked won most rounds on each (76%, 81%, 91%;
# at 256 linear_test won 30%).
PARALLEL_MIN_ROLLOUTS = 512

# Rows up to which each epsilon_sweep process packs its levels into one
# batch. `dilqr sweep` of the stored cart-pole policy (8 x 1,000, forked on 2
# cores; median of 12 interleaved sweeps): 242 ms one level per batch, 194 ms
# at 2,048 rows, 184 ms at 4,096 and 203 ms at 8,192 (at both, each process
# steps its 4,000 rows as one batch). perfbench cartpole-cli peak_rss_mb, 2
# runs each: 38.8-39.1 MB one level per batch, 39.2-39.3 at 2,048, 39.7 at
# 4,096 and at 8,192.
PACK_MAX_ROWS = 4096


@dataclass(frozen=True)
class RolloutStats:
    """One noise level's moments; the field order is eval.csv's and sweep.csv's column order."""

    epsilon: float
    channel: str
    n_rollouts: int
    divergences: int
    cost_mean: float
    cost_var: float
    terminal_mse_mean: float
    seed: int

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


def rollout_costs(
    env: Environment,
    policy: DecoupledPolicy,
    noises: Sequence[NoiseModel],
    M: int,
    cost: QuadraticCostModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each rollout's cost, terminal squared error and alive flag, for M rollouts per level.

    The len(noises) * M rollouts step as one batch; level j owns rows
    [jM, (j + 1)M), and rollout i of level j gets row i of that level's
    noise.draws at each step, so its noise, and every product epsilon * w,
    is the same as when the level steps alone; levels all at epsilon = 0
    draw nothing. Each rollout's cost is added up while the batch steps, in
    total_cost's order, so neither the draws nor a state or control history
    is stored: memory is O(len(noises) * M), whatever the horizon. A divergent rollout (non-finite state) is not
    alive; its cost and terminal error are what the kernel left.
    """
    if M < 1:
        raise ContractViolation("M must be >= 1")
    if not noises or len({noise.channel for noise in noises}) != 1:
        raise ContractViolation("rollout_costs needs one or more levels on one noise channel")
    nominal = policy.nominal
    # states, controls, gains, cost (n_x, n_u)
    dims = (nominal.states.shape[1:], nominal.controls.shape[1:], policy.gains.shape[1:],
            (cost.n_x, cost.n_u))
    if dims != ((env.n_x,), (env.n_u,), (env.n_u, env.n_x), (env.n_x, env.n_u)):
        raise ContractViolation(f"policy and cost dimensions {dims} do not fit {env.name}")
    # one level steps on its own NoiseModel: a scalar epsilon, and no copy of its draws
    noise = noises[0] if len(noises) == 1 else _Stacked(noises, M)
    rows = len(noises) * M
    controls = np.broadcast_to(nominal.controls[:, None], (nominal.horizon, rows, env.n_u))
    steps = _closed_loop(env, nominal.states, controls, policy.gains, noise)
    costs = 0.0
    with np.errstate(all="ignore"):
        for _ in range(nominal.horizon):
            # bind nothing: x_t and u_t are freed before the loop steps t + 1
            costs += stage_cost(*next(steps), cost)
        x, alive = next(steps)
        costs += terminal_cost(x, cost)
        terminal_sq = np.sum((x - cost.x_goal) ** 2, axis=-1)
    return costs, terminal_sq, alive


class _Stacked:
    """Levels' noise stacked row-wise, as _closed_loop reads a NoiseModel.

    epsilon is a (rows, 1) column, and draws concatenates each level's own
    draws, so every row's epsilon * w has the bits of its level alone.
    """

    def __init__(self, noises: Sequence[NoiseModel], M: int):
        self.noises, self.M, self.channel = noises, M, noises[0].channel
        self.epsilon = np.repeat([noise.epsilon for noise in noises], M)[:, None]

    def draws(self, t: int, rows: int, dim: int) -> np.ndarray:
        return np.concatenate([noise.draws(t, self.M, dim) for noise in self.noises])


def _moments(noise: NoiseModel, M: int, costs, terminal_sq, alive) -> RolloutStats:
    """One level's RolloutStats from its rows of rollout_costs; divergent rows are left out and counted."""
    n_ok = int(np.sum(alive))
    if n_ok == 0:
        raise Diverged("all rollouts diverged; cannot form moments")
    cost_var = float(np.var(costs[alive], ddof=1)) if n_ok > 1 else 0.0
    return RolloutStats(
        epsilon=noise.epsilon,
        n_rollouts=M,
        cost_mean=float(np.mean(costs[alive])),
        cost_var=cost_var,
        terminal_mse_mean=float(np.mean(terminal_sq[alive])),
        channel=noise.channel,
        seed=noise.seed,
        divergences=len(alive) - n_ok,
    )


def monte_carlo_eval(
    env: Environment,
    policy: DecoupledPolicy,
    noise: NoiseModel,
    M: int,
    cost: QuadraticCostModel,
) -> RolloutStats:
    """M independent closed-loop rollouts, run as one batch; unbiased sample moments.

    The one level of _levels: rollout i gets row i of each step's
    noise.draws, and the prefix-stable streams make rollout i's noise
    independent of M; at epsilon = 0 one noiseless row stands for all M.
    Divergent rollouts (non-finite states) are excluded from the moments
    and counted; if all M diverge it raises Diverged. Deterministic given
    (noise.seed, M).
    """
    return _levels(env, policy, [noise], M, cost)[0]


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

    Level i is monte_carlo_eval under NoiseModel(epsilons[i], channel,
    child_seed(seed, i)), bit for bit; _levels runs them all, and raises
    the first failing level's error. The grid and every level's NoiseModel
    are checked before the first level runs.
    """
    epsilons = [float(e) for e in epsilons]
    if not epsilons or any(e < 0 for e in epsilons) or epsilons != sorted(epsilons):
        raise ContractViolation("epsilons must be non-empty, non-negative and ascending")
    noises = [
        NoiseModel(epsilon=e, channel=channel, seed=child_seed(seed, i))
        for i, e in enumerate(epsilons)
    ]
    return _levels(env, policy, noises, M, cost)


def _levels(
    env: Environment,
    policy: DecoupledPolicy,
    noises: list,
    M: int,
    cost: QuadraticCostModel,
) -> list[RolloutStats]:
    """One RolloutStats per level of noises (ascending in epsilon), in order: M rollouts each.

    With M >= PARALLEL_MIN_ROLLOUTS, on Linux, the levels run on W processes,
    W = min(cores in this process's CPU affinity, levels): this process runs
    levels 0, W, 2W, ... and each of W - 1 children made by os.fork runs
    levels w, w + W, ..., so the rollouts run outside the GIL. Elsewhere,
    below the gate, or with one level, this process runs them all and forks
    nothing. Each process steps its levels in batches of whole levels
    through rollout_costs, as many as fit in PACK_MAX_ROWS rows (at least
    one), and reduces each level from its own rows; a level at epsilon = 0
    steps alone, as one row. A process stops at its first failing batch or
    level and hands back the levels it finished with that error; the levels
    are then walked in order and the first failure is raised. Each level
    keeps its own stream, so the output, and the first failing level's
    error, are the same however the levels are split or packed. M is
    checked before the first level runs.

    Fork safety rests on a child running numpy code only, taking no lock that
    another thread of this process may hold, and writing nothing but its
    result to its own pipe before it leaves by os._exit. Python >= 3.12 warns
    (DeprecationWarning) when a process with threads forks.
    """
    if M < 1:
        raise ContractViolation("M must be >= 1")

    def run(share: list) -> tuple:
        """(RolloutStats of share's levels up to its first failure, that failure or None)."""
        # levels ascend in epsilon, so the levels at epsilon = 0, each its own
        # one-row batch, lead, and the batches keep the share's order
        batches = [[noise] for noise in share if noise.epsilon == 0.0]
        packed = [noise for noise in share if noise.epsilon != 0.0]
        per_batch = max(1, PACK_MAX_ROWS // M)
        batches += [packed[i:i + per_batch] for i in range(0, len(packed), per_batch)]
        done = []
        try:
            for batch in batches:
                rows = 1 if batch[0].epsilon == 0.0 else M
                costs, terminal_sq, alive = rollout_costs(env, policy, batch, rows, cost)
                for j, noise in enumerate(batch):
                    level = slice(j * rows, (j + 1) * rows)
                    done.append(_moments(noise, M, costs[level], terminal_sq[level], alive[level]))
                del costs, terminal_sq, alive  # freed before the next batch steps
        except Exception as exc:  # raised by _levels, in level order
            return done, exc
        return done, None

    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    parallel = affinity and M >= PARALLEL_MIN_ROLLOUTS
    workers = min(len(affinity(0)), len(noises)) if parallel else 1
    shares = _forked(run, [noises[w::workers] for w in range(workers)])
    stats = []
    for i in range(len(noises)):
        done, failure = shares[i % workers]
        if i // workers == len(done):
            raise failure
        stats.append(done[i // workers])
    return stats


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
