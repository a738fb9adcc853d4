"""Sample-based Jacobian estimation from black-box rollouts.

Two estimators share the LinearizedModel output type:

* a least-squares central-difference estimator (LLS-CD): n_s random
  symmetric perturbations of state and control, paired rollouts, one
  least-squares solve recovering [f_x f_u] simultaneously (2*n_s black-box
  rows). It regresses on the control the black box applied: where ``step``
  clamped either sign of a pair, du is the applied half-difference
  (clamp(u + du) - clamp(u - du)) / 2;
* a per-coordinate central-difference baseline (2*(n_x+n_u) rows), whose
  control columns divide by the applied difference by the same rule.

Identifying a trajectory is one step call, one SVD, one stacked model:
``identify_ltv`` draws the perturbations of every timestep from one
generator, sends all 2*n_s*N perturbed rows to the black box as a single
batched ``step`` call, solves the N least-squares problems with one
batched SVD, and returns a single LinearizedModel whose A and B carry a
leading time axis. ``estimate_llscd`` is the one-point case. ``eval_count``
counts rows, one per transition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .costs import NominalTrajectory
from .envs import Environment, child_seed, step
from .errors import ContractViolation, NonFiniteModel, SingularSystem

LSTSQ_RCOND = 1e-12


@dataclass(frozen=True)
class LinearizedModel:
    """Jacobian pair (A, B) of the dynamics at one nominal point, or stacked
    along a trajectory: A (N, n_x, n_x) and B (N, n_x, n_u), indexed by t.

    Non-finite entries raise NonFiniteModel, naming the first such t of a stack.
    """

    A: np.ndarray
    B: np.ndarray
    eval_count: int

    def __post_init__(self):
        finite = np.isfinite(self.A).all(axis=(-2, -1)) & np.isfinite(self.B).all(axis=(-2, -1))
        if not finite.all():
            at = f"identification failed at t={np.argmin(finite)}: " if finite.ndim else ""
            raise NonFiniteModel(at + "linearized model contains non-finite entries")


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
    (T, m, n_x + n_u). Returns (T, m, n_x); overflow gives inf or nan silently.
    """
    if x_bar.shape[-1] != env.n_x or u_bar.shape[-1] != env.n_u:
        raise ContractViolation(
            f"bad dimensions for {env.name}: state {x_bar.shape}, control {u_bar.shape}"
        )
    dX, dU = D[..., : env.n_x], D[..., env.n_x :]
    X = np.concatenate([x_bar[:, None] + dX, x_bar[:, None] - dX], axis=1)
    U = np.concatenate([u_bar[:, None] + dU, u_bar[:, None] - dU], axis=1)
    with np.errstate(all="ignore"):
        F = step(env, X.reshape(-1, env.n_x), U.reshape(-1, env.n_u))
        F = F.reshape(D.shape[0], 2, D.shape[1], env.n_x)
        return F[:, 0] - F[:, 1]


def _sample(
    env: Environment, x_bar: np.ndarray, u_bar: np.ndarray, cfg: EstimatorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Perturbations D (T, n_s, n_x + n_u) and half-differences Y (T, n_s, n_x).

    D is one (T, n_s, n_x + n_u) draw of default_rng(cfg.seed); sequential
    draws are prefix-stable, so point t's pairs do not depend on T. All
    T * 2 * n_s rollouts go to the black box in one step call. A sigma so
    large that a perturbation overflows raises NonFiniteModel naming the
    first such t.
    """
    shape = (len(x_bar), cfg.resolve_n_s(env), env.n_x + env.n_u)
    with np.errstate(over="ignore"):
        D = cfg.sigma * np.random.default_rng(cfg.seed).standard_normal(shape)
    finite = np.isfinite(D).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteModel(
            f"identification failed at t={np.argmin(finite)}: "
            f"perturbations of sigma={cfg.sigma:g} are not finite"
        )
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


def _identify(
    env: Environment, x_bar: np.ndarray, u_bar: np.ndarray, cfg: EstimatorConfig
) -> LinearizedModel:
    """LLS-CD estimates at the T points (x_bar, u_bar), as one model stacked over T.

    Every point's system D_t X_t = Y_t is solved by one batched SVD,
    X_t = V_t diag(1/s_t) U_t' Y_t, and AB_t = X_t'.
    """
    D, Y = _sample(env, x_bar, u_bar, cfg)
    T, n_s, _ = D.shape
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite Y: LinearizedModel reports t
        if cfg.approx_identity:
            # sample-covariance identity approximation: D'D ~ sigma^2 (n_s - 1) I
            AB = (Y.transpose(0, 2, 1) @ D) / (cfg.sigma**2 * (n_s - 1))
        else:
            U, s, Vh = np.linalg.svd(D, full_matrices=False)
            singular = s[:, -1] <= LSTSQ_RCOND * s[:, 0]
            if singular.any():
                t = int(np.argmax(singular))
                cond = s[t, 0] / max(s[t, -1], 1e-300)
                raise SingularSystem(
                    f"identification failed at t={t}: perturbation matrix rank-deficient "
                    f"(cond {cond:.3e})",
                    condition_number=cond,
                )
            X = Vh.transpose(0, 2, 1) @ ((U.transpose(0, 2, 1) @ Y) / s[..., None])
            AB = X.transpose(0, 2, 1)
    return LinearizedModel(A=AB[..., : env.n_x], B=AB[..., env.n_x :], eval_count=2 * n_s * T)


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
    is O(sigma^2) on smooth dynamics. This is identify_ltv at one point:
    under the same cfg it equals row 0 of a trajectory starting at (x, u).
    """
    x_bar = np.asarray(x_bar, dtype=float)
    u_bar = np.asarray(u_bar, dtype=float)
    m = _identify(env, x_bar[None], u_bar[None], cfg)
    return LinearizedModel(A=m.A[0], B=m.B[0], eval_count=m.eval_count)


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
) -> LinearizedModel:
    """The LLS-CD estimate at every timestep of a nominal trajectory, as one stacked model.

    A is (N, n_x, n_x), B (N, n_x, n_u) and eval_count = 2 * n_s * N, from one
    step call and one batched SVD. Row 0 equals estimate_llscd(env, x_0, u_0,
    cfg). A rank-deficient perturbation matrix raises SingularSystem, and a
    non-finite estimate NonFiniteModel, each naming the first failing t.
    """
    return _identify(env, traj.states[:-1], traj.controls, cfg)
