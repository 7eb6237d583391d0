"""Exception hierarchy and the argument rules of all simulator modules."""
from typing import Callable

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
    return type(v) is int or (isinstance(v, (int, np.integer)) and not isinstance(v, bool))


def check_integer(name: str, v) -> int:
    """v, the argument ``name``, as an int: a Python or numpy integer."""
    if not is_integer(v):
        raise DomainError(f"{name} must be an integer, got {v!r}")
    return int(v)


def check_integers(name: str, values, error: Callable[[str], Exception] = DomainError):
    """values, the indices ``name``, as an array of integers; refuses,
    raising ``error``, a float or a bool rather than let numpy truncate
    it.  An integer array passes as it is, with no per-element loop."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values
    values = np.array(values, dtype=object)
    for v in values.flat:
        if not is_integer(v):
            raise error(f"{name}: an index must be an integer, got {v!r}")
    return values


def int64_vector(name: str, values) -> np.ndarray:
    """A fresh int64 array of values, the indices ``name``: integers by
    check_integers, and none past the int64 range, which numpy would
    let overflow."""
    values = check_integers(name, values)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise DomainError(f"{name}: an index leaves the int64 range") from None


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


def check_finite(name: str, values: np.ndarray) -> None:
    """Every entry of the array ``name`` is finite: no NaN and no infinity."""
    if not np.isfinite(values).all():
        raise ValidationError(f"{name} must be finite (no NaN/Inf)")
