"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class OrderMismatchError(DomainError):
    """A binary operation received series of different truncation orders."""


class ConvergenceError(RuntimeError):
    """A certified stopping rule could not be satisfied within the iteration cap."""
