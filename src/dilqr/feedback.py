"""Time-varying LQR feedback about a converged nominal trajectory.

The perturbation system (A_t, B_t) is identified along the nominal with
the sampled estimator, then gains come from the finite-horizon Riccati
recursion. Gains are synthesized for every applied control, t = 0..N-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .costs import NominalTrajectory, QuadraticCostModel
from .envs import Environment
from .errors import ContractViolation, SynthesisFailure
from .sysid import EstimatorConfig, LinearizedModel, identify_ltv


@dataclass(frozen=True)
class DecoupledPolicy:
    """Converged nominal trajectory plus LQR feedback gains.

    Execution rule: u_t = ubar_t + K_t (x_t - xbar_t).
    """

    nominal: NominalTrajectory
    gains: np.ndarray  # (N, n_u, n_x)

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        object.__setattr__(self, "gains", gains)
        if gains.shape[0] != self.nominal.horizon:
            raise ContractViolation("gain sequence length must equal the horizon")
        if not np.all(np.isfinite(gains)):
            raise ContractViolation("gains contain non-finite entries")

    def with_zero_gains(self) -> "DecoupledPolicy":
        """Open-loop variant of this policy (K_t = 0), for paired comparisons."""
        return DecoupledPolicy(self.nominal, np.zeros_like(self.gains))


def riccati_gains(
    models: Sequence[LinearizedModel], weights: QuadraticCostModel
) -> np.ndarray:
    """Backward Riccati recursion for the time-varying perturbation system.

    P_N = Q_N; K_t = -(R_t + B'P B)^{-1} B'P A;
    P_t = Q_t + K'R K + (A + BK)' P (A + BK), symmetrized each step.
    """
    N = len(models)
    n_x = weights.n_x
    n_u = weights.n_u
    K = np.empty((N, n_u, n_x))
    P = weights.Q_terminal.copy()
    for t in range(N - 1, -1, -1):
        A, B = models[t].A, models[t].B
        Rt = weights.R_at(t)
        H = Rt + B.T @ P @ B
        H = 0.5 * (H + H.T)
        try:
            chol = scipy.linalg.cho_factor(H, lower=True)
        except scipy.linalg.LinAlgError:
            raise SynthesisFailure(t) from None
        K[t] = -scipy.linalg.cho_solve(chol, B.T @ P @ A)
        Acl = A + B @ K[t]
        P = weights.Q_at(t) + K[t].T @ Rt @ K[t] + Acl.T @ P @ Acl
        P = 0.5 * (P + P.T)
    return K


def build_policy(
    env: Environment,
    nominal: NominalTrajectory,
    est: EstimatorConfig,
    weights: QuadraticCostModel,
) -> DecoupledPolicy:
    """Identify the perturbation system along nominal and synthesize gains."""
    models = identify_ltv(env, nominal, est)
    gains = riccati_gains(models, weights)
    return DecoupledPolicy(nominal=nominal, gains=gains)
