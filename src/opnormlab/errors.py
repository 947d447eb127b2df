"""Exception types shared across the package.

A power method that does not converge raises nothing: its estimate says so
with ``converged = False``, ``iterations`` and ``last_change``.
"""


class DomainError(ValueError):
    """An argument lies outside an operation's domain."""


class PlanError(ValueError):
    """A sweep plan is structurally invalid (schedule, node budget)."""


class NumericalError(ArithmeticError):
    """A computation produced or received non-finite values."""


class DivergenceError(NumericalError):
    """A requested closed-form integral does not converge."""


class IllConditionedError(NumericalError):
    """A linear system is too ill-conditioned to solve reliably."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate
