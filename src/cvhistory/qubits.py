"""Dense state-vector simulation of small qubit registers.

Basis convention used across the whole package: qubit 0 is the least
significant bit of the basis index, so ``|q_{n-1} ... q_1 q_0>`` lives at
index ``sum(q_i << i)``.  States are immutable values; every operation
returns a new state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DomainError,
    ValidationError,
    check_basis_index,
    check_count,
    check_finite,
    check_qubit,
    int64_vector,
    is_integer,
)

NORM_TOL = 1e-12

# Common single-qubit gate matrices.
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)


def _as_complex_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValidationError(f"amplitude data must be one-dimensional, got shape {arr.shape}")
    check_finite("amplitudes", arr)
    return arr


@dataclass(frozen=True, eq=False)
class RegisterState:
    """Immutable amplitude vector over the 2^n computational basis states."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        check_count("n_qubits", self.n_qubits)
        arr = _as_complex_vector(self.amps)
        if arr.size != 1 << self.n_qubits:
            raise ValidationError(
                f"amplitude vector has length {arr.size}, expected {1 << self.n_qubits}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    def norm2(self) -> float:
        return float(np.real(np.vdot(self.amps, self.amps)))


@dataclass(frozen=True, eq=False, init=False)
class DensityMatrix:
    """Reduced density matrix over a subset of qubits, stored as its block
    on the occupied support.

    ``support`` holds, increasing, the basis indices whose rows and columns
    may be nonzero; ``block`` is the matrix on them, ``block[i, j]`` being
    the entry at (support[i], support[j]); every entry outside is zero.
    ``entries`` is the dense dim x dim view, built on demand and read-only.
    ``DensityMatrix(dim, entries)`` copies a dense matrix as full support.
    """

    dim: int
    support: np.ndarray
    block: np.ndarray

    def __init__(self, dim: int, entries):
        arr = np.array(entries, dtype=np.complex128)
        if arr.shape != (dim, dim):
            raise ValidationError(f"entries shape {arr.shape} does not match dim {dim}")
        support = np.arange(dim)
        support.setflags(write=False)
        arr.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "block", arr)

    @classmethod
    def _adopt(cls, dim: int, support: np.ndarray, block: np.ndarray) -> "DensityMatrix":
        """Wrap a freshly computed increasing int64 support and complex128
        block that no one else holds, without copying them; both become
        read-only."""
        support.setflags(write=False)
        block.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "dim", dim)
        object.__setattr__(rho, "support", support)
        object.__setattr__(rho, "block", block)
        return rho

    @property
    def entries(self) -> np.ndarray:
        """The dense dim x dim matrix, read-only: the block itself on full
        support, otherwise a fresh array with the block at its support."""
        if self.support.size == self.dim:
            return self.block
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        out[np.ix_(self.support, self.support)] = self.block
        out.setflags(write=False)
        return out

    def validate(self) -> None:
        """Raise unless Hermitian and of unit trace within NORM_TOL, and with
        no eigenvalue below -1e-10.  Read on the block: the entries outside
        it are zeros, Hermitian and traceless, and add only zero
        eigenvalues, which the -1e-10 floor passes."""
        rho = self.block
        if not np.all(np.isfinite(rho.view(np.float64))):
            raise ValidationError("density matrix has non-finite entries")
        herm_err = float(np.max(np.abs(rho - rho.conj().T), initial=0.0))
        if herm_err > NORM_TOL:
            raise ValidationError(f"density matrix not Hermitian (error {herm_err:.3e})")
        trace_err = abs(complex(np.trace(rho)) - 1.0)
        if trace_err > NORM_TOL:
            raise ValidationError(f"density matrix trace deviates from 1 by {trace_err:.3e}")
        eig_min = float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)))
        if eig_min < -1e-10:
            raise ValidationError(f"density matrix has negative eigenvalue {eig_min:.3e}")


def basis_state(n_qubits: int, index: int) -> RegisterState:
    """Computational basis state |index> on n qubits."""
    check_count("n_qubits", n_qubits)
    check_basis_index(index, n_qubits)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return RegisterState(n_qubits, amps)


def check_gate(u) -> np.ndarray:
    """u as a complex128 array: a 2x2 unitary, within NORM_TOL."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValidationError(f"single-qubit gate must be 2x2, got {u.shape}")
    if not np.max(np.abs(u.conj().T @ u - np.eye(2))) <= NORM_TOL:  # NaN fails too
        raise ValidationError("gate matrix is not unitary within 1e-12")
    return u


def _apply_single_qubit_kernel(amps: np.ndarray, n_qubits: int, q: int, u: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix on qubit ``q`` of an array whose leading axis is the basis index.

    Works for plain state vectors (shape (2^n,)) and for joint tables with
    trailing axes (shape (2^n, ...)); trailing axes are carried along.
    """
    shape = amps.shape
    view = amps.reshape(1 << (n_qubits - 1 - q), 2, -1)
    out = np.einsum("ab,hbt->hat", u, view)
    return out.reshape(shape)


def _apply_permutation_kernel(amps: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Relocate rows: out[perm[i]] = amps[i]."""
    out = np.empty_like(amps)
    out[perm] = amps
    return out


def _check_permutation(perm, size: int) -> np.ndarray:
    p = int64_vector("perm", perm)
    if p.shape != (size,):
        raise ValidationError(f"permutation has shape {p.shape}, expected ({size},)")
    if np.any(p < 0) or np.any(p >= size):
        raise ValidationError("permutation contains out-of-range entries")
    counts = np.bincount(p, minlength=size)
    if np.any(counts != 1):
        bad = int(np.argwhere(counts != 1)[0][0])
        raise ValidationError(f"map is not a bijection: image value {bad} hit {counts[bad]} times")
    return p


def apply_single_qubit(state: RegisterState, q: int, u: np.ndarray) -> RegisterState:
    """Apply a single-qubit unitary ``u`` on qubit ``q``."""
    check_qubit(q, state.n_qubits)
    u = check_gate(u)
    return RegisterState(state.n_qubits, _apply_single_qubit_kernel(state.amps, state.n_qubits, q, u))


def apply_permutation(state: RegisterState, perm: Sequence[int] | np.ndarray) -> RegisterState:
    """Relabel basis states: amplitude at i moves to perm[i]."""
    p = _check_permutation(perm, state.amps.size)
    return RegisterState(state.n_qubits, _apply_permutation_kernel(state.amps, p))


def trace_out(amps: np.ndarray, n_qubits: int, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density of a pure amplitude array on the qubits in ``keep``,
    held on its occupied support.

    The leading axis of ``amps`` is the 2^n basis index; the unkept qubits
    and every trailing axis are traced out.  The reduced basis index uses
    the kept qubits in ascending order, the smallest kept qubit being its
    least significant bit.  The support is the kept indices that carry
    weight: the matrix product runs over those rows and columns only.
    """
    kept = set(keep)
    if not kept:
        raise DomainError("keep set must not be empty")
    for q in kept:
        if not is_integer(q):
            raise DomainError(f"keep set: a qubit index must be an integer, got {q!r}")
    keep_sorted = sorted(kept)
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n_qubits:
        raise DomainError(f"keep set {keep_sorted} out of range for {n_qubits} qubits")
    # axis n-1-q holds qubit q; the last axis gathers the trailing axes
    psi = np.asarray(amps, dtype=np.complex128).reshape((2,) * n_qubits + (-1,))
    kept_axes = tuple(n_qubits - 1 - q for q in reversed(keep_sorted))
    traced = tuple(n_qubits - 1 - q for q in range(n_qubits) if q not in kept) + (n_qubits,)
    d = 1 << len(keep_sorted)
    # kept index by traced index; both factors C-contiguous, as
    # np.tensordot would pass them to np.dot
    a = psi.transpose(kept_axes + traced).reshape(d, -1)
    support = np.flatnonzero(a.any(axis=1))
    a = a[support]
    return DensityMatrix._adopt(d, support, np.dot(a, np.ascontiguousarray(a.conj().T)))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 1/dim for the maximally mixed state.
    Taken as sum_ij rho_ij rho_ji over the block, with no matrix product."""
    b = rho.block
    return float(np.real(np.sum(b * b.T)))
