"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Bad configuration or input that violates a documented precondition."""


class NumericalError(RuntimeError):
    """A numerical invariant (unitarity, trace, norm) broke beyond tolerance."""


class ConvergenceError(RuntimeError):
    """A monotonic optimization whose objective decreased (or became NaN)."""
