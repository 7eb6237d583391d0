"""Exception hierarchy and the integer argument rules of all simulator modules."""
import numpy as np


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


def is_integer(v) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_integer(name: str, v) -> int:
    """v, the argument ``name``, as an int: a Python or numpy integer."""
    if not is_integer(v):
        raise DomainError(f"{name} must be an integer, got {v!r}")
    return int(v)


def check_count(name: str, n) -> int:
    """n, the count ``name`` (qubits, a level), as an int: an integer >= 0."""
    if not is_integer(n) or n < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {n!r}")
    return int(n)


def check_qubit(q, n_qubits: int) -> None:
    """q names one of n_qubits qubits: an integer in [0, n_qubits)."""
    check_integer("qubit index", q)
    if not 0 <= q < n_qubits:
        raise DomainError(f"qubit index {q} out of range for {n_qubits} qubits")


def check_basis_index(i, n_qubits: int) -> None:
    """i names a basis state of n_qubits qubits: an integer in [0, 2^n_qubits)."""
    check_integer("basis index", i)
    if not 0 <= i < 1 << n_qubits:
        raise DomainError(f"basis index {i} out of range [0, {1 << n_qubits})")
