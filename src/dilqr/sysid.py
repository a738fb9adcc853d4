"""Sample-based Jacobian estimation from black-box rollouts.

Two estimators share the LinearizedModel output type:

* a least-squares central-difference estimator: n_s random symmetric
  perturbations of state and control, paired rollouts, one least-squares
  solve recovering [f_x f_u] simultaneously (2*n_s black-box rows). It
  regresses on the control the black box applied: where ``step`` clamped
  either sign of a pair, du is the applied half-difference
  (clamp(u + du) - clamp(u - du)) / 2;
* a per-coordinate central-difference baseline (2*(n_x+n_u) rows), whose
  control columns divide by the applied difference by the same rule.

Each estimate sends all of its perturbed points to the black box as one
batched ``step`` call, and ``identify_ltv`` sends the 2*n_s rows of every
timestep of a trajectory as a single call; ``eval_count`` still counts
rows, one per transition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .costs import NominalTrajectory
from .envs import Environment, child_seed, step
from .errors import ContractViolation, SingularSystem

LSTSQ_RCOND = 1e-12


@dataclass(frozen=True)
class LinearizedModel:
    """Jacobian pair (A, B) of the dynamics at one nominal point."""

    A: np.ndarray
    B: np.ndarray
    eval_count: int

    def __post_init__(self):
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.B))):
            raise ContractViolation("linearized model contains non-finite entries")


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling parameters for the least-squares estimator."""

    n_s: int = 0  # 0 -> n_x + n_u + 4, resolved per environment
    sigma: float = 1e-3
    seed: int = 0
    approx_identity: bool = False  # use the sigma^2 (n_s - 1) I shortcut
    fd_step: float = 1e-4

    def __post_init__(self):
        if self.sigma <= 0 or self.fd_step <= 0:
            raise ContractViolation("sigma and fd_step must be positive")
        if self.n_s < 0:
            raise ContractViolation(f"n_s={self.n_s} is negative; 0 selects the default count")

    def resolve_n_s(self, env: Environment) -> int:
        n_s = self.n_s if self.n_s > 0 else env.n_x + env.n_u + 4
        if n_s < env.n_x + env.n_u:
            raise ContractViolation(
                f"n_s={n_s} below n_x + n_u = {env.n_x + env.n_u}; system unsolvable"
            )
        return n_s

    def child(self, *key: int) -> "EstimatorConfig":
        """Derive a config with an independent seed for a subproblem."""
        return replace(self, seed=child_seed(self.seed, *key))


def _central_differences(
    env: Environment, x_bar: np.ndarray, u_bar: np.ndarray, D: np.ndarray
) -> np.ndarray:
    """f(z_t + d) - f(z_t - d) for every perturbation row d of D[t], in one step call.

    x_bar (T, n_x) and u_bar (T, n_u) are the nominal points z_t; D has shape
    (T, m, n_x + n_u). Returns (T, m, n_x).
    """
    if x_bar.shape[-1] != env.n_x or u_bar.shape[-1] != env.n_u:
        raise ContractViolation(
            f"bad dimensions for {env.name}: state {x_bar.shape}, control {u_bar.shape}"
        )
    dX, dU = D[..., : env.n_x], D[..., env.n_x :]
    X = np.concatenate([x_bar[:, None] + dX, x_bar[:, None] - dX], axis=1)
    U = np.concatenate([u_bar[:, None] + dU, u_bar[:, None] - dU], axis=1)
    F = step(env, X.reshape(-1, env.n_x), U.reshape(-1, env.n_u))
    F = F.reshape(D.shape[0], 2, D.shape[1], env.n_x)
    return F[:, 0] - F[:, 1]


def _sample(
    env: Environment, x_bar: np.ndarray, u_bar: np.ndarray, seeds: list[int], cfg: EstimatorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Perturbations D (T, n_s, n_x + n_u) and half-differences Y (T, n_s, n_x).

    Point t draws its n_s perturbation pairs from seeds[t]; all T * 2 * n_s
    rollouts go to the black box in one step call.
    """
    shape = (cfg.resolve_n_s(env), env.n_x + env.n_u)
    D = np.stack([cfg.sigma * np.random.default_rng(s).standard_normal(shape) for s in seeds])
    Y = 0.5 * _central_differences(env, x_bar, u_bar, D)
    # regress on the control the black box applied
    D[..., env.n_x :] = _applied_half_step(env, u_bar[:, None], D[..., env.n_x :])
    return D, Y


def _applied_half_step(env: Environment, u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """du, except where step clamps u + du or u - du: there (clamp(u+du) - clamp(u-du)) / 2.

    Only clamped entries change: 0.5 * ((u + du) - (u - du)) is not du bit for
    bit, and estimates that never touch a bound must not move.
    """
    hi, lo = env.clamp(u + du), env.clamp(u - du)
    clamped = (hi != u + du) | (lo != u - du)
    return np.where(clamped, 0.5 * (hi - lo), du)


def _fit(env: Environment, D: np.ndarray, Y: np.ndarray, cfg: EstimatorConfig) -> LinearizedModel:
    """Least-squares [f_x f_u] from one point's perturbations D and half-differences Y."""
    n_s = D.shape[0]
    if cfg.approx_identity:
        # sample-covariance identity approximation: D'D ~ sigma^2 (n_s - 1) I
        AB = (Y.T @ D) / (cfg.sigma**2 * (n_s - 1))
    else:
        X, _, _, sv = np.linalg.lstsq(D, Y, rcond=LSTSQ_RCOND)
        # test sv directly, not lstsq's rank: gelsd reads rcond >= 1 as machine epsilon
        if sv[-1] <= LSTSQ_RCOND * sv[0]:
            raise SingularSystem(
                f"perturbation matrix rank-deficient (cond {sv[0] / max(sv[-1], 1e-300):.3e})",
                condition_number=sv[0] / max(sv[-1], 1e-300),
            )
        AB = X.T
    return LinearizedModel(A=AB[:, : env.n_x], B=AB[:, env.n_x :], eval_count=2 * n_s)


def estimate_llscd(
    env: Environment, x_bar: np.ndarray, u_bar: np.ndarray, cfg: EstimatorConfig
) -> LinearizedModel:
    """Central-difference least-squares estimate of (f_x, f_u).

    Draws n_s Gaussian perturbation pairs with per-entry std sigma, rolls
    out both signs of each, and solves the stacked system

        [f_x f_u] [dx_i; du_i] = (f(x+dx_i, u+du_i) - f(x-dx_i, u-du_i)) / 2

    in the least-squares sense. Where either sign of a pair is clamped to the
    control bounds, du_i in that system is the applied half-difference
    (clamp(u+du_i) - clamp(u-du_i)) / 2, so a nominal on a bound gets the
    one-sided slope inside it; a nominal beyond a bound, where both signs
    clamp, leaves the control column zero and raises SingularSystem. Bias
    is O(sigma^2) on smooth dynamics.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    u_bar = np.asarray(u_bar, dtype=float)
    D, Y = _sample(env, x_bar[None], u_bar[None], [cfg.seed], cfg)
    return _fit(env, D[0], Y[0], cfg)


def estimate_fd(
    env: Environment, x_bar: np.ndarray, u_bar: np.ndarray, h: float
) -> LinearizedModel:
    """Per-coordinate central-difference baseline; 2*(n_x + n_u) black-box rows.

    A control column whose step is clamped on either side is divided by the
    applied difference clamp(u+h) - clamp(u-h), so a nominal on a bound gets
    the one-sided slope inside it; one clamped on both sides raises
    SingularSystem.
    """
    if h <= 0:
        raise ContractViolation("finite-difference step h must be positive")
    x_bar = np.asarray(x_bar, dtype=float)
    u_bar = np.asarray(u_bar, dtype=float)
    E = h * np.eye(env.n_x + env.n_u)
    du = _applied_half_step(env, u_bar, np.full(env.n_u, h))
    if np.any(du == 0):
        raise SingularSystem(
            f"control step clamped on both sides at u={u_bar}", condition_number=np.inf
        )
    half_steps = np.concatenate([np.full(env.n_x, h), du])
    diffs = _central_differences(env, x_bar[None], u_bar[None], E[None])[0]
    AB = (diffs / (2 * half_steps)[:, None]).T
    return LinearizedModel(A=AB[:, : env.n_x], B=AB[:, env.n_x :], eval_count=2 * len(E))


def identify_ltv(
    env: Environment, traj: NominalTrajectory, cfg: EstimatorConfig
) -> list[LinearizedModel]:
    """One LinearizedModel per timestep along a nominal trajectory.

    Timestep t gets exactly the estimate_llscd result under cfg.child(t);
    the whole trajectory costs one step call.
    """
    seeds = [child_seed(cfg.seed, t) for t in range(traj.horizon)]
    D, Y = _sample(env, traj.states[:-1], traj.controls, seeds, cfg)
    models = []
    for t in range(traj.horizon):
        try:
            models.append(_fit(env, D[t], Y[t], cfg))
        except SingularSystem as exc:
            raise SingularSystem(f"identification failed at t={t}: {exc}") from exc
    return models
