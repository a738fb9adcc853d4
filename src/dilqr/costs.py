"""Quadratic trajectory costs and their analytic partials.

Costs are 1/2-scaled quadratics about a goal state:

    J = sum_t 1/2 (x_t - x_g)' Q (x_t - x_g) + 1/2 u_t' R u_t
        + 1/2 (x_N - x_g)' Q_N (x_N - x_g)

The weights Q, R and Q_N are constant matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    return M


def _check_symmetric_psd(M: np.ndarray, name: str, tol: float = 1e-9) -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ContractViolation(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.allclose(M, M.T, atol=tol):
        raise ContractViolation(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(M)) < -tol:
        raise ContractViolation(f"{name} must be positive semidefinite")


def _check_symmetric_pd(M: np.ndarray, name: str) -> None:
    _check_symmetric_psd(M, name)
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ContractViolation(f"{name} must be strictly positive definite") from None


@dataclass(frozen=True)
class QuadraticCostModel:
    """Quadratic running + terminal cost about a goal state.

    Q, R and Q_terminal are square matrices (a scalar is read as 1 x 1).
    R must be strictly positive definite so the backward pass can always
    regularize Q_uu into positive definiteness.
    """

    Q: np.ndarray
    R: np.ndarray
    Q_terminal: np.ndarray
    x_goal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", _as_matrix(self.Q))
        object.__setattr__(self, "R", _as_matrix(self.R))
        object.__setattr__(self, "Q_terminal", _as_matrix(self.Q_terminal))
        object.__setattr__(self, "x_goal", np.atleast_1d(np.asarray(self.x_goal, dtype=float)))
        _check_symmetric_psd(self.Q, "Q")
        _check_symmetric_pd(self.R, "R")
        _check_symmetric_psd(self.Q_terminal, "Q_terminal")
        if self.Q_terminal.shape[-1] != self.x_goal.shape[0]:
            raise ContractViolation("Q_terminal and x_goal dimensions disagree")

    @property
    def n_x(self) -> int:
        return self.x_goal.shape[0]

    @property
    def n_u(self) -> int:
        return self.R.shape[-1]


@dataclass(frozen=True)
class NominalTrajectory:
    """A deterministic state/control rollout with its finite scalar cost.

    states has shape (N+1, n_x), controls (N, n_u).
    """

    states: np.ndarray
    controls: np.ndarray
    cost: float

    def __post_init__(self):
        object.__setattr__(self, "states", np.atleast_2d(np.asarray(self.states, dtype=float)))
        object.__setattr__(self, "controls", np.atleast_2d(np.asarray(self.controls, dtype=float)))
        if self.states.shape[0] != self.controls.shape[0] + 1:
            raise ContractViolation("states must have exactly one more entry than controls")
        if not np.all(np.isfinite(self.states)) or not np.all(np.isfinite(self.controls)):
            raise ContractViolation("trajectory contains non-finite entries")
        if not np.isfinite(self.cost):
            raise ContractViolation(f"trajectory cost {self.cost!r} is not finite")

    @property
    def horizon(self) -> int:
        return self.controls.shape[0]


def _check_dims(x: np.ndarray, u: np.ndarray, cost: QuadraticCostModel) -> None:
    if x.shape[-1] != cost.n_x:
        raise ContractViolation(f"state dimension {x.shape[-1]} != cost n_x {cost.n_x}")
    if u.shape[-1] != cost.n_u:
        raise ContractViolation(f"control dimension {u.shape[-1]} != cost n_u {cost.n_u}")


def _quad(v: np.ndarray, M: np.ndarray) -> float | np.ndarray:
    """v' M v over the last axis; each row of a batch equals the 1-D v @ M @ v bit for bit."""
    return (v[..., None, :] @ M @ v[..., :, None])[..., 0, 0]


def stage_cost(x: np.ndarray, u: np.ndarray, cost: QuadraticCostModel) -> float | np.ndarray:
    """Stage cost at one point, or per row over leading batch axes."""
    dx = np.asarray(x, dtype=float) - cost.x_goal
    return 0.5 * _quad(dx, cost.Q) + 0.5 * _quad(np.asarray(u, dtype=float), cost.R)


def terminal_cost(x: np.ndarray, cost: QuadraticCostModel) -> float | np.ndarray:
    """Terminal cost at one point, or per row over leading batch axes."""
    return 0.5 * _quad(np.asarray(x, dtype=float) - cost.x_goal, cost.Q_terminal)


def total_cost(
    states: np.ndarray, controls: np.ndarray, cost: QuadraticCostModel
) -> float | np.ndarray:
    """Accumulate the quadratic cost of a trajectory, left to right over t.

    states (N+1, ..., n_x) and controls (N, ..., n_u) are time-major; any
    middle axes are a batch of trajectories, costed per row. A single
    trajectory must have a finite cost.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    if states.shape[0] != controls.shape[0] + 1:
        raise ContractViolation("states must have exactly one more entry than controls")
    _check_dims(states, controls, cost)
    # one batched stage_cost call; its rows equal the per-t calls bit for bit,
    # and they are added in the same order
    J = 0.0
    for c in stage_cost(states[:-1], controls, cost):
        J += c
    J += terminal_cost(states[-1], cost)
    if states.ndim == 2 and not np.isfinite(J):
        raise ContractViolation("total cost is not finite")
    return J


def cost_partials(
    x: np.ndarray, u: np.ndarray, cost: QuadraticCostModel
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (c_x, c_u) of the stage cost at one point, or per row over leading batch axes.

    The Hessians are the weights themselves, cost.Q and cost.R, and the cross
    term is zero. Each row of a batch equals the 1-D Q @ (x - x_goal) and
    R @ u bit for bit.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    _check_dims(x, u, cost)
    return (cost.Q @ (x - cost.x_goal)[..., None])[..., 0], (cost.R @ u[..., None])[..., 0]


def terminal_partials(x: np.ndarray, cost: QuadraticCostModel) -> np.ndarray:
    """Gradient of the terminal cost, the backward-pass boundary; its Hessian is Q_terminal."""
    dx = np.atleast_1d(np.asarray(x, dtype=float)) - cost.x_goal
    return cost.Q_terminal @ dx
