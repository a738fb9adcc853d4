"""Exception types shared across the toolkit."""


class ContractViolation(ValueError):
    """An input failed a documented precondition (dimension, finiteness, ...)."""


class SingularSystem(RuntimeError):
    """A least-squares system was numerically rank-deficient."""

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


class NonFiniteModel(RuntimeError):
    """An identified Jacobian had non-finite entries: the black box overflowed."""


class NotPositiveDefinite(RuntimeError):
    """Q_uu was not positive definite, or Q_uu or the gains were not finite."""

    def __init__(self, t):
        super().__init__(f"Q_uu not positive definite or not finite at t={t}")
        self.t = t


class RegularizationExhausted(RuntimeError):
    """The regularizer hit its cap with the backward pass still failing."""

