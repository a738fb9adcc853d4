"""Exception types shared across the toolkit.

The CLI exits 1 on a ContractViolation (bad input) and 2 on any
NumericalFailure (valid input the numerics could not carry through).
"""


class ContractViolation(ValueError):
    """An input failed a documented precondition (dimension, finiteness, ...)."""


class NumericalFailure(RuntimeError):
    """A numerical step failed on valid inputs; the CLI exits 2 on any subclass."""


class SingularSystem(NumericalFailure):
    """A least-squares system was numerically rank-deficient."""

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


class NonFiniteModel(NumericalFailure):
    """An identified Jacobian had non-finite entries: the black box overflowed."""


class NotPositiveDefinite(NumericalFailure):
    """Q_uu was not positive definite, or Q_uu or the gains were not finite."""

    def __init__(self, t):
        super().__init__(f"Q_uu not positive definite or not finite at t={t}")
        self.t = t


class RegularizationExhausted(NumericalFailure):
    """The regularizer hit its cap with the backward pass still failing."""


class Diverged(NumericalFailure):
    """A rollout's state went non-finite: the open-loop rollout, or all M of an evaluated noise level."""
