"""Exact piecewise-constant wavefunctions on dyadic cells.

A wave of level ``l`` is constant on half-open cells of width ``2**-l``
whose boundaries sit on the dyadic grid.  Cell ``k`` of a wave with
integer offset ``o`` covers ``[(o+k)*w, (o+k+1)*w)`` with ``w = 2**-l``.
Everything outside the stored cells is zero.  Translation by integers,
projection onto integer intervals, and the squeeze ``psi(x) -> sqrt(2)
psi(2x)`` all map this class to itself with no approximation error,
which is what makes the representation useful as an exact backend.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, ResourceLimitError, ValidationError, check_count, check_integer

# The last level at which every cell edge k * 2^-level is exact in a float.
MAX_LEVEL_DEFAULT = 53

# Every complex128 array the size rules cover holds at most this many bytes:
# one 2^24-cell wave, the densest output erase-demo writes.  A program's
# tables and lifts, int64 values all, share one such budget.
MAX_BYTES = 1 << 28

SQRT2 = float(np.sqrt(2.0))


def check_bytes(what: str, row_bits: int, cols: int, itemsize: int = 16) -> None:
    """Refuse, as ``what``, an array of 2^row_bits x cols entries of
    ``itemsize`` bytes (complex128 by default) above MAX_BYTES, before it
    is allocated; never builds 2^row_bits."""
    if row_bits >= MAX_BYTES.bit_length() or (cols << row_bits) * itemsize > MAX_BYTES:
        raise ResourceLimitError(f"{what} exceeds the {MAX_BYTES}-byte budget")


def check_level(cv_level: int, erasures: int, what: str) -> int:
    """Refuse a run that starts at cv_level and gains one level per erasure
    (``what`` names them) past MAX_LEVEL_DEFAULT; return its final level."""
    final = cv_level + erasures
    if final > MAX_LEVEL_DEFAULT:
        raise ResourceLimitError(
            f"cv_level: {cv_level} plus {erasures} {what} reaches level {final}, "
            f"above max level {MAX_LEVEL_DEFAULT}"
        )
    return final


@dataclass(frozen=True, eq=False)
class DyadicWave:
    """Canonical piecewise-constant complex wave on dyadic cells."""

    level: int
    offset: int
    coeffs: np.ndarray

    def __post_init__(self):
        level = check_count("level", self.level)
        check_integer("offset", self.offset)
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError(f"coeffs must be a nonempty vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValidationError("coeffs must be finite (no NaN/Inf)")
        # Canonical form: exact-zero boundary cells trimmed so equal
        # functions at equal level compare equal.  The zero function is a
        # single zero cell pinned at offset 0.
        nz = np.flatnonzero(arr)
        if nz.size == 0:
            offset = 0
            arr = np.zeros(1, dtype=np.complex128)
        else:
            lo, hi = int(nz[0]), int(nz[-1]) + 1
            offset = int(self.offset) + lo
            if lo or hi < arr.size:
                arr = arr[lo:hi].copy()
        arr.setflags(write=False)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", arr)

    # Equality is representation equality: same level, offset and exact
    # cell values.  Canonicalization above makes this decide function
    # equality for waves expressed at the same level.
    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicWave):
            return NotImplemented
        return (
            self.level == other.level
            and self.offset == other.offset
            and self.coeffs.shape == other.coeffs.shape
            and bool(np.all(self.coeffs == other.coeffs))
        )

    __hash__ = None  # mutable-free but deliberately unhashable

    @property
    def n_cells(self) -> int:
        return self.coeffs.size

    @property
    def width(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def x_min(self) -> float:
        return self.offset * self.width

    @property
    def x_max(self) -> float:
        return (self.offset + self.n_cells) * self.width

    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0))

    def support_measure(self) -> float:
        """Total length of cells carrying a nonzero value."""
        return float(np.count_nonzero(self.coeffs)) * self.width


def indicator_unit(level: int) -> DyadicWave:
    """The normalized indicator of [0,1) expressed at the given level."""
    level = check_count("level", level)
    return DyadicWave(level, 0, np.ones(1 << level, dtype=np.complex128))


def refine(w: DyadicWave, target: int) -> DyadicWave:
    """Re-express at a finer level; pointwise identical, coarsening refused."""
    if target < w.level:
        raise DomainError(
            f"cannot coarsen from level {w.level} to {target}; coarsening is lossy"
        )
    check_bytes(f"refining {w.n_cells} cells to level {target}", target - w.level, w.n_cells)
    factor = 1 << (target - w.level)
    return DyadicWave(target, w.offset * factor, np.repeat(w.coeffs, factor))


def translate_int(w: DyadicWave, t: int) -> DyadicWave:
    """Shift by an integer number of x-units: psi(x) -> psi(x - t).  Exact."""
    t = check_integer("translation amount", t)
    return DyadicWave(w.level, w.offset + t * (1 << w.level), w.coeffs)


def project(w: DyadicWave, a: int, b: int) -> DyadicWave:
    """Zero every cell not fully inside [a, b).  Integer endpoints align with
    cell boundaries at every level, so this is exact and idempotent."""
    a, b = check_integer("projection start", a), check_integer("projection end", b)
    if a >= b:
        raise DomainError(f"projection interval [{a}, {b}) is empty")
    scale = 1 << w.level
    idx = w.offset + np.arange(w.n_cells)
    keep = (idx >= a * scale) & (idx < b * scale)
    return DyadicWave(w.level, w.offset, np.where(keep, w.coeffs, 0.0))


def squeeze(w: DyadicWave) -> DyadicWave:
    """The dilation psi(x) -> sqrt(2)*psi(2x): one level finer, same offset,
    coefficients scaled by sqrt(2).  Norm-preserving and exact."""
    level, coeffs = squeeze_step(w.level, w.coeffs)
    return DyadicWave(level, w.offset, coeffs)


def squeeze_step(level: int, values: np.ndarray) -> Tuple[int, np.ndarray]:
    """The squeeze of values at a level: level + 1, at most MAX_LEVEL_DEFAULT; values * sqrt(2)."""
    if level + 1 > MAX_LEVEL_DEFAULT:
        raise ResourceLimitError(f"squeeze would exceed max level {MAX_LEVEL_DEFAULT}")
    # scaling cannot zero a value; the caller's constructor refuses one
    # that overflowed, so the overflow is not also warned of
    with np.errstate(over="ignore"):
        return level + 1, values * SQRT2


def norm2(w: DyadicWave) -> float:
    """Squared L2 norm: 2^-level * sum |c|^2."""
    c = w.coeffs
    return float(np.sum(c.real**2 + c.imag**2)) * w.width


def aligned_pair(w1: DyadicWave, w2: DyadicWave) -> Tuple[int, int, np.ndarray, np.ndarray]:
    """Express both waves at a common level and offset (the joint hull).

    Returns (level, offset, c1, c2) with equal-length coefficient vectors.
    """
    level = max(w1.level, w2.level)
    a, b = refine(w1, level), refine(w2, level)
    lo = min(a.offset, b.offset)
    hi = max(a.offset + a.n_cells, b.offset + b.n_cells)
    check_bytes(f"aligning two waves over a hull of {hi - lo} cells", 1, hi - lo)
    c1 = np.zeros(hi - lo, dtype=np.complex128)
    c2 = np.zeros(hi - lo, dtype=np.complex128)
    c1[a.offset - lo : a.offset - lo + a.n_cells] = a.coeffs
    c2[b.offset - lo : b.offset - lo + b.n_cells] = b.coeffs
    return level, lo, c1, c2


def inner(w1: DyadicWave, w2: DyadicWave) -> complex:
    """L2 inner product, conjugate-linear in the first argument."""
    level, _, c1, c2 = aligned_pair(w1, w2)
    return complex(np.sum(np.conj(c1) * c2) * 2.0 ** (-level))


def max_abs_diff(w1: DyadicWave, w2: DyadicWave) -> float:
    """Largest pointwise difference between two waves viewed as functions."""
    _, _, c1, c2 = aligned_pair(w1, w2)
    return float(np.max(np.abs(c1 - c2))) if c1.size else 0.0


def value_at(w: DyadicWave, x: float | np.ndarray) -> complex | np.ndarray:
    """Value at position ``x``, or at every position of an array ``x``, with
    half-open cell ownership; zero outside support.  A scalar ``x`` gives a
    ``complex``, an array gives a complex128 array of its shape."""
    xs = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(xs)):
        raise DomainError("positions must be finite (no NaN/Inf)")
    # Clipped before the cast, so a cell index beyond int64 (a huge x, or
    # x * 2^level overflowing to inf) lands far outside the support.
    cell = np.clip(np.floor(xs * (1 << w.level)), -(2.0**62), 2.0**62).astype(np.int64)
    k = cell - w.offset
    inside = (k >= 0) & (k < w.n_cells)
    out = np.zeros(xs.shape, dtype=np.complex128)
    out[inside] = w.coeffs[k[inside]]
    return complex(out) if out.ndim == 0 else out
