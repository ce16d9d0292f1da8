"""Shared exception types."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class ContractViolation(ValueError):
    """Caller broke an interface contract (mismatched orders, bad variant, ...)."""


class ConvergenceError(RuntimeError):
    """An iterative numeric routine failed to converge."""


class OrderCapError(ValueError):
    """A matrix or graph order exceeds the cap of the computation asked for."""
