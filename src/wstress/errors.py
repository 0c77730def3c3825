"""Exception types shared across the package."""


class WstressError(Exception):
    """Base class for all package errors."""


class ValidationError(WstressError, ValueError):
    """Inputs violate a documented contract (shape, domain, finiteness)."""


class InputColumnError(ValidationError):
    """A check failed on one column of a multi-input call; ``column`` is its index."""

    def __init__(self, column: int, reason: str):
        super().__init__(f"input column {column}: {reason}")
        self.column = column
        self.reason = reason


class DegenerateGridError(WstressError):
    """A quantile grid is constant: the distribution is a single atom."""


class NoSolutionError(WstressError):
    """The requested stress admits no solution.

    Raised by the quantile-constraint solver when the target lies on the
    wrong side of the baseline quantile (stressing a left quantile upward,
    or a right quantile downward), in which case the infimum of the
    transport distance is not attained by any quantile function.
    """


class NotConvergedError(WstressError):
    """Multiplier search exhausted its iteration budget.

    Carries the best residuals seen so callers can distinguish infeasible
    stresses from slow convergence.
    """

    def __init__(self, message, residuals=None, multipliers=None):
        super().__init__(message)
        self.residuals = residuals
        self.multipliers = multipliers


class UtilityDomainError(ValidationError):
    """A utility function was evaluated outside its domain."""
