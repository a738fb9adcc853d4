"""Model-free ILQR: regularized backward pass, line-searched forward pass,
and the outer loop with band acceptance.

The backward pass runs the Riccati recursion in augmented (homogeneous)
coordinates z = (u, x, 1), where the value function is one matrix P over
(x, 1) and a timestep is one product Z = H_t + F_t' P F_t. It adds mu*I to
the value Hessian inside Q_ux and Q_uu only (state-regularization
variant). Each timestep symmetrizes Q_uu and takes one solve of it for
K_t and k_t together; with one control that solve is a product with the
reciprocal of Q_uu, bit for bit, which skips np.linalg.solve's per-call
overhead. After the recursion, one batched numpy Cholesky
factorization and finiteness check covers every Q_uu and gain. A Q_uu that
is not positive definite, or a non-finite Q_uu or (k_t, K_t), fails the
pass at the first failing t in recursion order, so the caller can raise mu.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence

import numpy as np

from .costs import (
    NominalTrajectory,
    QuadraticCostModel,
    cost_partials,
    terminal_partials,
    total_cost,
)
from .envs import Environment, all_finite, rollout, rollout_open_loop
from .errors import ContractViolation, NotPositiveDefinite, RegularizationExhausted
from .sysid import EstimatorConfig, LinearizedModel, identify_ltv


@dataclass(frozen=True)
class IterationGains:
    """Feedforward k_t and feedback K_t from one backward pass."""

    k: np.ndarray  # (N, n_u)
    K: np.ndarray  # (N, n_u, n_x)


# Iterations without a new best cost before optimize stops. The default
# pendulum problem (seeds 0-7) improves its best cost on every iteration and
# converges, so no default run stalls; with conv_tol = 1e-12 the largest gap
# between improvements is 4 before it stalls. Change this only after
# re-measuring those gaps.
STALL_WINDOW = 30


@dataclass(frozen=True)
class OptimizerConfig:
    mu: float = 1e-6
    mu_factor: float = 10.0
    mu_min: float = 1e-9
    mu_max: float = 1e10
    alphas: Sequence[float] = tuple(0.5**i for i in range(10))
    band: float = 0.05
    conv_tol: float = 5e-3
    conv_patience: int = 5
    max_iters: int = 500
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)

    def __post_init__(self):
        if not (self.mu >= 0 and self.mu_factor > 1 and 0 < self.mu_min <= self.mu_max):
            raise ContractViolation("invalid regularizer bounds")
        alphas = tuple(float(a) for a in self.alphas)
        if not alphas or any(not 0 < a <= 1 for a in alphas):
            raise ContractViolation("alpha schedule must lie in (0, 1]")
        if any(b >= a for a, b in zip(alphas, alphas[1:])):
            raise ContractViolation("alpha schedule must be strictly decreasing")
        object.__setattr__(self, "alphas", alphas)
        if not (self.band >= 0 and self.conv_tol > 0) or self.conv_patience < 1 or self.max_iters < 0:
            raise ContractViolation("invalid convergence parameters")


@dataclass(frozen=True)
class IterationRecord:
    """One optimize iteration. The field order is trace.csv's column order;
    the trace's stop_reason is appended as its last column."""

    iteration: int
    cost: float
    mu: float
    alpha: float
    accepted: bool
    wall_time_s: float
    # cumulative rows passed to step by identification and line search; the
    # open-loop rollout's N rows before iteration 1 are not counted
    eval_count: int
    backward_success: bool
    best_cost: float  # lowest cost seen so far, the open-loop rollout included


StopReason = Literal["converged", "stalled", "line_search_exhausted", "max_iters"]


@dataclass
class ConvergenceTrace:
    records: list[IterationRecord] = field(default_factory=list)
    stop_reason: StopReason = "max_iters"

    def __len__(self) -> int:
        return len(self.records)


def backward_pass(
    traj: NominalTrajectory,
    cost: QuadraticCostModel,
    models: LinearizedModel,
    mu: float,
) -> IterationGains:
    """Riccati-like recursion producing (k_t, K_t) from the stacked models.A[t], models.B[t].

    Over z = (u, x, 1), F_t = [[B_t A_t 0], [0 0 1]] maps z to (x_{t+1}, 1),
    and the stage Hessian H_t holds R, Q and, in its last row and column,
    the stage gradients from one cost_partials call over the whole
    trajectory. mu * B_t'[B_t A_t] is added to H_t's control rows, which is
    mu*I on the value Hessian inside Q_uu and Q_ux only. Both are built for
    every t before the recursion; each t then forms Z = H_t + F_t' P F_t,
    whose control rows are [Q_uu Q_ux Q_u], symmetrizes Q_uu, solves
    Q_uu [K_t k_t] = -[Q_ux Q_u] and takes
    P = Z_(x,1)(x,1) + [Q_ux Q_u]'[K_t k_t], symmetrized.

    At n_u = 1 the solve is the product with 1 / Q_uu, bit for bit, so a
    singular Q_uu gets non-finite gains; at n_u > 1 a solve that raises
    stores NaN gains. Either way the recursion runs on. _checked runs once on the whole stack of Q_uu and gains; only
    when that fails does it run per step, N-1 down to 0, to raise
    NotPositiveDefinite(t) at the first t where Q_uu is not positive
    definite or not finite, or where k_t or K_t is not finite. Every step
    above that t is computed as in a pass that stops there.
    """
    N = traj.horizon
    if models.A.ndim != 3 or len(models.A) != N:
        raise ContractViolation(
            f"expected linearized models stacked over {N} timesteps, got A {models.A.shape}"
        )
    n_x = traj.states.shape[1]
    n_u = traj.controls.shape[1]
    C_x, C_u = cost_partials(traj.states[:-1], traj.controls, cost)
    F = np.zeros((N, n_x + 1, n_u + n_x + 1))
    F[:, :n_x, :n_u] = models.B
    F[:, :n_x, n_u:-1] = models.A
    F[:, n_x, -1] = 1.0
    H = np.zeros((N, n_u + n_x + 1, n_u + n_x + 1))
    H[:, :n_u, :n_u] = cost.R
    H[:, n_u:-1, n_u:-1] = cost.Q
    H[:, :n_u, -1] = H[:, -1, :n_u] = C_u
    H[:, n_u:-1, -1] = H[:, -1, n_u:-1] = C_x
    F_T = F.transpose(0, 2, 1)
    # P's corner, the constant of the value function, is held at 0: no gain
    # reads it, and were it to overflow, F_t' P F_t would take 0 * inf = nan
    P = np.zeros((n_x + 1, n_x + 1))
    P[:n_x, :n_x] = cost.Q_terminal
    P[:n_x, n_x] = P[n_x, :n_x] = terminal_partials(traj.states[N], cost)
    S = np.empty((N, n_u, n_x + 1))  # -[K_t k_t]
    Q_uus = np.empty((N, n_u, n_u))
    # overflow and 1 / 0 only ever yield inf or nan, which _checked turns
    # into NotPositiveDefinite(t), so numpy's warnings would just be noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        H[:, :n_u, :-1] += mu * (models.B.transpose(0, 2, 1) @ F[:, :n_x, :-1])
        for t in range(N - 1, -1, -1):
            Z = H[t] + F_T[t] @ P @ F[t]
            Z_u = Z[:n_u, n_u:]
            # the check and the solve see one matrix
            Q_uu = Q_uus[t] = 0.5 * (Z[:n_u, :n_u] + Z[:n_u, :n_u].T)
            if n_u == 1:
                # Z_u has n_x + 1 >= 2 columns, so solve runs the BLAS's trsm,
                # which in the OpenBLAS that tests/golden_digests.json records
                # multiplies by the reciprocal: solve's bits, without its overhead
                S[t] = Z_u * (1.0 / Q_uu[0, 0])
            else:
                try:
                    S[t] = np.linalg.solve(Q_uu, Z_u)
                except np.linalg.LinAlgError:
                    S[t] = np.nan  # fails the check at t, and every t below it
            P = Z[n_u:, n_u:] - Z_u.T @ S[t]
            P = 0.5 * (P + P.T)
            P[n_x, n_x] = 0.0
        if not _checked(Q_uus, S):
            raise NotPositiveDefinite(
                next(t for t in range(N - 1, -1, -1) if not _checked(Q_uus[t], S[t]))
            )
    return IterationGains(k=-S[:, :, n_x], K=-S[:, :, :n_x])


def _checked(Q_uu: np.ndarray, S: np.ndarray) -> bool:
    """Whether Q_uu (one or a stack) is positive definite and finite, and the solves S finite."""
    try:
        np.linalg.cholesky(Q_uu)
    except np.linalg.LinAlgError:
        return False
    return all_finite(Q_uu) and all_finite(S)


def forward_pass(
    prev: NominalTrajectory,
    gains: IterationGains,
    alpha: float,
    env: Environment,
    cost: QuadraticCostModel,
    band: float = 0.0,
    reference_cost: Optional[float] = None,
) -> tuple[NominalTrajectory, bool]:
    """Roll out u_t = u_prev_t + alpha*k_t + K_t (x_t - x_prev_t).

    The candidate is accepted when its cost stays within the relative band
    of reference_cost (the best cost so far; defaults to prev.cost). A
    rejected or divergent candidate returns prev unchanged.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ContractViolation("alpha must lie in [0, 1]")
    if len(gains.k) != prev.horizon:
        raise ContractViolation("gain and trajectory horizons disagree")
    ref = prev.cost if reference_cost is None else reference_cost
    states, controls, alive = rollout(env, prev.states, prev.controls + alpha * gains.k, gains.K)
    if not alive:
        return prev, False
    candidate_cost = total_cost(states, controls, cost)
    if candidate_cost <= ref * (1.0 + band) + 1e-300:
        return NominalTrajectory(states, controls, candidate_cost), True
    return prev, False


def optimize(
    env: Environment,
    cost: QuadraticCostModel,
    x0: np.ndarray,
    u_init: np.ndarray,
    cfg: OptimizerConfig,
) -> tuple[NominalTrajectory, ConvergenceTrace]:
    """Outer ILQR loop: identify, backward pass, line search, band acceptance.

    mu escalates (to at least mu_min) on a failed backward pass and decays
    after an accepted iteration; RegularizationExhausted is raised when the
    pass still fails at mu_max. Three rules stop the loop early, and
    trace.stop_reason names the one that fired:

    - "converged": the relative cost change stayed below conv_tol for
      conv_patience accepted iterations in a row;
    - "line_search_exhausted": every alpha was rejected by the band test;
    - "stalled": after a successful backward pass, the best cost has not
      improved for STALL_WINDOW iterations (the open-loop rollout is
      iteration 0, and failed backward passes count as iterations without
      improvement, so a pass that keeps failing still ends in
      RegularizationExhausted).

    Otherwise the loop ends at "max_iters". Returns the best-cost
    trajectory seen; band acceptance lets the last accepted one be worse.
    """
    t_start = time.perf_counter()
    current = rollout_open_loop(env, x0, u_init, cost)
    best = current
    best_it = 0
    trace = ConvergenceTrace()
    mu = cfg.mu
    eval_count = 0
    patience = 0

    for it in range(1, cfg.max_iters + 1):
        models = identify_ltv(env, current, cfg.estimator.child(it))
        eval_count += models.eval_count
        try:
            gains = backward_pass(current, cost, models, mu)
        except NotPositiveDefinite:
            gains = None
        if gains is None:
            if mu >= cfg.mu_max:
                raise RegularizationExhausted(
                    f"mu reached {mu:g} with the backward pass still failing"
                )
            mu = min(max(mu * cfg.mu_factor, cfg.mu_min), cfg.mu_max)

        accepted = False
        alpha_used = float("nan")
        prev_cost = current.cost
        for alpha in (cfg.alphas if gains is not None else ()):
            candidate, ok = forward_pass(
                current, gains, alpha, env, cost, band=cfg.band, reference_cost=best.cost
            )
            eval_count += current.horizon  # the kernel steps all N rows, even on divergence
            if ok:
                current = candidate
                accepted = True
                alpha_used = alpha
                break
        if current.cost < best.cost:
            best, best_it = current, it
        trace.records.append(
            IterationRecord(
                iteration=it, cost=current.cost, mu=mu, alpha=alpha_used, accepted=accepted,
                wall_time_s=time.perf_counter() - t_start, eval_count=eval_count,
                backward_success=gains is not None, best_cost=best.cost,
            )
        )
        if gains is not None:
            if not accepted:
                trace.stop_reason = "line_search_exhausted"
                break
            mu = max(mu / cfg.mu_factor, cfg.mu_min)
            rel_change = abs(prev_cost - current.cost) / max(abs(prev_cost), 1e-300)
            patience = patience + 1 if rel_change < cfg.conv_tol else 0
            if patience >= cfg.conv_patience:
                trace.stop_reason = "converged"
                break
            if it - best_it >= STALL_WINDOW:
                trace.stop_reason = "stalled"
                break

    return best, trace
