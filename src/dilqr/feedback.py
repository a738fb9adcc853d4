"""Time-varying LQR feedback about a converged nominal trajectory.

The perturbation system (A_t, B_t) is identified along the nominal with
the sampled estimator, then gains come from the finite-horizon Riccati
recursion, which is the ILQR backward pass at mu = 0. Gains are
synthesized for every applied control, t = 0..N-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import NominalTrajectory, QuadraticCostModel
from .envs import Environment
from .errors import ContractViolation
from .ilqr import backward_pass
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
    nominal: NominalTrajectory, models: LinearizedModel, weights: QuadraticCostModel
) -> np.ndarray:
    """Riccati feedback gains K_t, computed as the ILQR backward pass at mu = 0.

    models is stacked over the horizon (A_t = models.A[t], B_t = models.B[t]).
    The cost Hessians are Q and R with no cross term, so that pass is the
    recursion K_t = -(R + B_t'P B_t)^{-1} B_t'P A_t from P_N = Q_N. Raises
    NotPositiveDefinite(t) where R + B_t'P B_t is not positive definite or
    not finite.
    """
    return backward_pass(nominal, weights, models, 0.0).K


def build_policy(
    env: Environment,
    nominal: NominalTrajectory,
    est: EstimatorConfig,
    weights: QuadraticCostModel,
) -> DecoupledPolicy:
    """Identify the perturbation system along nominal as one stacked model and synthesize gains."""
    models = identify_ltv(env, nominal, est)
    gains = riccati_gains(nominal, models, weights)
    return DecoupledPolicy(nominal=nominal, gains=gains)
