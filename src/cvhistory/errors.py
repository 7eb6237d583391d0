"""Exception hierarchy shared by all simulator modules."""


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SimulationError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ValidationError(SimulationError, ValueError):
    """Structured input (matrix, permutation, table, config) failed validation.
    ``field`` names the offending part, e.g. ``targets[1]``, relative to the
    value checked; a parser prefixes its own path to it."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class ContractError(SimulationError):
    """A state-dependent precondition or postcondition was violated."""


class ResourceLimitError(SimulationError):
    """A size or resolution limit would be exceeded."""
