"""Sample-based Jacobian estimation from black-box rollouts.

Every estimate is one least-squares central-difference fit (LLS-CD) of a
perturbation design D: both signs of every row d of D are rolled out, and

    [f_x f_u] d = (f(x + dx, u + du) - f(x - dx, u - du)) / 2

is solved in the least-squares sense over the rows (2 black-box rows per row
of D). The fit regresses on the control the black box applied: where
``step`` clamped either sign of a row, du is the applied half-difference
(clamp(u + du) - clamp(u - du)) / 2. The fit is exact, by SVD, and it
raises SingularSystem where a control was clamped on both sides of every
row or where D is rank-deficient. Two designs use it:

* ``estimate_llscd``: n_s random Gaussian rows of std sigma;
* ``estimate_fd``: the per-coordinate baseline, D = h * I.

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
    fd_step: float = 1e-4

    def __post_init__(self):
        if not (self.sigma > 0 and self.fd_step > 0):
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


def _sample(
    env: Environment, x_bar: np.ndarray, u_bar: np.ndarray, cfg: EstimatorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The random design D (T, n_s, n_x + n_u), then _step_design: (applied D, Y).

    D is one draw of default_rng(cfg.seed); sequential draws are
    prefix-stable, so point t's pairs do not depend on T. A sigma so large
    that a perturbation overflows raises NonFiniteModel naming the first
    such t, before any step call.
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
    return _step_design(env, x_bar, u_bar, D)


def _step_design(
    env: Environment, x_bar: np.ndarray, u_bar: np.ndarray, D: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both signs of every row d of D (T, m, n_x + n_u) about z_t in one step call.

    z_t is (x_bar[t], u_bar[t]). Returns D, rewritten in place to the applied
    design, and Y (T, m, n_x) = (f(z_t + d) - f(z_t - d)) / 2; overflow gives
    inf or nan silently. Only a control entry du that step clamped on either
    side changes, to (clamp(u + du) - clamp(u - du)) / 2: that expression is
    not du bit for bit, and fits that never touch a bound must not move.
    """
    if x_bar.shape[-1] != env.n_x or u_bar.shape[-1] != env.n_u:
        raise ContractViolation(
            f"bad dimensions for {env.name}: state {x_bar.shape}, control {u_bar.shape}"
        )
    x, u = x_bar[:, None], u_bar[:, None]
    dX, dU = D[..., : env.n_x], D[..., env.n_x :]
    up, down = u + dU, u - dU
    X = np.concatenate([x + dX, x - dX], axis=1)
    U = np.concatenate([up, down], axis=1)
    with np.errstate(all="ignore"):
        F = step(env, X.reshape(-1, env.n_x), U.reshape(-1, env.n_u))
        F = F.reshape(D.shape[0], 2, D.shape[1], env.n_x)
        Y = 0.5 * (F[:, 0] - F[:, 1])
    hi, lo = env.clamp(up), env.clamp(down)
    D[..., env.n_x :] = np.where((hi != up) | (lo != down), 0.5 * (hi - lo), dU)
    return D, Y


def _solve(env: Environment, D: np.ndarray, Y: np.ndarray) -> LinearizedModel:
    """The fit of D_t [f_x f_u]_t' = Y_t at every t, as one model stacked over T.

    One batched SVD solves them all: X_t = V_t diag(1/s_t) U_t' Y_t and
    AB_t = X_t'. A control column of D_t that is all zero (clamped on both
    sides) raises SingularSystem before the SVD, and a rank-deficient D_t
    after it; a non-finite fit raises NonFiniteModel. Each names the first t.
    """
    T, n_s, _ = D.shape
    stuck = (D[..., env.n_x :] == 0).all(axis=1)  # (T, n_u): a control that never moved
    if stuck.any():
        t, j = (int(i) for i in np.argwhere(stuck)[0])
        raise SingularSystem(
            f"identification failed at t={t}: control u[{j}] clamped on both sides (cond inf)",
            condition_number=np.inf,
        )
    with np.errstate(all="ignore"):  # non-finite Y: LinearizedModel reports t; cond may be inf
        U, s, Vh = np.linalg.svd(D, full_matrices=False)
        singular = s[:, -1] <= LSTSQ_RCOND * s[:, 0]
        if singular.any():
            t = int(np.argmax(singular))
            cond = s[t, 0] / s[t, -1]
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
    """(f_x, f_u) from the LLS-CD fit of n_s random pairs of per-entry std sigma.

    A nominal on a control bound gets the one-sided slope inside it; one
    beyond a bound, where both signs of every pair clamp, raises
    SingularSystem. Bias is O(sigma^2) on smooth dynamics. This is
    identify_ltv at one point: under the same cfg it equals row 0 of a
    trajectory starting at (x, u).
    """
    x_bar = np.asarray(x_bar, dtype=float)
    u_bar = np.asarray(u_bar, dtype=float)
    return _first(_solve(env, *_sample(env, x_bar[None], u_bar[None], cfg)))


def estimate_fd(
    env: Environment, x_bar: np.ndarray, u_bar: np.ndarray, h: float
) -> LinearizedModel:
    """Per-coordinate central differences: the LLS-CD fit of the design h * I.

    2 * (n_x + n_u) black-box rows. Each column is a difference divided by
    2h, or by clamp(u+h) - clamp(u-h) where step clamped the control, so a
    nominal on a bound gets the one-sided slope inside it; one clamped on
    both sides raises SingularSystem.
    """
    if not h > 0:
        raise ContractViolation("finite-difference step h must be positive")
    x_bar = np.asarray(x_bar, dtype=float)
    u_bar = np.asarray(u_bar, dtype=float)
    D = h * np.eye(env.n_x + env.n_u)[None]
    return _first(_solve(env, *_step_design(env, x_bar[None], u_bar[None], D)))


def _first(m: LinearizedModel) -> LinearizedModel:
    """Point 0 of a stacked model, with its eval_count."""
    return LinearizedModel(A=m.A[0], B=m.B[0], eval_count=m.eval_count)


def identify_ltv(
    env: Environment, traj: NominalTrajectory, cfg: EstimatorConfig
) -> LinearizedModel:
    """The LLS-CD estimate at every timestep of a nominal trajectory, as one stacked model.

    A is (N, n_x, n_x), B (N, n_x, n_u) and eval_count = 2 * n_s * N, from one
    step call and one batched SVD. Row 0 equals estimate_llscd(env, x_0, u_0,
    cfg). A rank-deficient perturbation matrix raises SingularSystem, and a
    non-finite estimate NonFiniteModel, each naming the first failing t.
    """
    return _solve(env, *_sample(env, traj.states[:-1], traj.controls, cfg))
