"""Joint qubit (x) continuous-variable states and the erasure pipeline.

The continuous variable is one shared mode holding a piecewise-constant
wave on dyadic cells.  A HybridState stores only the nonzero joint
amplitudes, as sorted (row, cell, amp) entries: qubit basis index, absolute
dyadic cell index at one common level, and value.  The erasure of a qubit
is the four-gate sequence, applied in temporal order:

    conditional translate by +1  (shift the |1> branch to [1,2))
    conditional flip             (reset the qubit where the wave sits
                                  outside the unit interval)
    conditional translate by -1  (undo the shift; identity on the
                                  in-domain result, restores unitarity
                                  off-domain)
    squeeze                      (compress [0,2) back into [0,1))

Each gate is index arithmetic on the entries: a translate adds t * 2^level
to the cells of the moved rows, a flip toggles bit q of the rows on the
selected cells, and the squeeze raises the level by one and scales every
amplitude by sqrt(2).  For input waves supported in [0,1) this maps
(a|0> + b|1>) (x) psi to |0> (x) sqrt(2)(a psi(2x) + b psi(2x-1)) with no
approximation error: every step is a relocation or a scaling of stored
values.  The same pipeline is provided on the sampled-grid backend, where
translation runs through the momentum-space exponential, for
cross-validation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import dyadic
from .dyadic import SQRT2, DyadicWave, check_bytes
from .errors import ContractError, DomainError, ValidationError
from .errors import check_basis_index, check_count, check_finite, check_integer, check_qubit, int64_vector
from .grid import SUPPORT_EPS, GridWave, check_window, translate_spectral
from .qubits import (
    DensityMatrix,
    RegisterState,
    _apply_single_qubit_kernel,
    check_gate,
    trace_out,
)

# A row holding less than this share of the weight, or a singular value
# below this share of the largest, counts as zero when cv_factor splits a
# state into register and wave.
FACTOR_TOL = 1e-10

@dataclass(frozen=True, eq=False)
class HybridState:
    """Qubit register entangled with one dyadic CV mode, stored sparsely.

    Entry i puts amplitude amps[i] on qubit basis state rows[i] and on
    the absolute dyadic cell cells[i], which covers
    [cells[i] * 2^-level, (cells[i] + 1) * 2^-level); every other pair of
    row and cell holds zero.  The entries are canonical: no exact zeros,
    sorted by (row, cell), no pair twice; so equal states compare equal.
    ``offset`` and ``n_cells`` describe the hull of the occupied cells:
    its first cell and its width, 0 and 1 for the zero state.

    The constructor copies, checks and canonicalizes its arrays.  The gate
    operations below only relocate or scale canonical entries, so they
    wrap their outputs with ``_adopt``, run only the checks their own
    arithmetic can break, and share every array they leave unchanged.
    """

    n_qubits: int
    level: int
    rows: np.ndarray
    cells: np.ndarray
    amps: np.ndarray
    offset: int = field(init=False, repr=False)
    n_cells: int = field(init=False, repr=False)

    def __post_init__(self):
        check_count("n_qubits", self.n_qubits)
        level = check_count("level", self.level)
        rows, cells = int64_vector("rows", self.rows), int64_vector("cells", self.cells)
        amps = np.array(self.amps, dtype=np.complex128)
        if rows.ndim != 1 or rows.shape != cells.shape or rows.shape != amps.shape:
            raise ValidationError(
                f"rows, cells and amps must be vectors of one length, got shapes "
                f"{rows.shape}, {cells.shape}, {amps.shape}"
            )
        check_finite("amplitudes", amps)
        if np.count_nonzero(amps) != amps.size:
            nonzero = amps != 0
            rows, cells, amps = rows[nonzero], cells[nonzero], amps[nonzero]
        if not _in_order(rows, cells):
            order = np.lexsort((cells, rows))
            rows, cells, amps = rows[order], cells[order], amps[order]
            if ((rows[1:] == rows[:-1]) & (cells[1:] == cells[:-1])).any():
                raise ValidationError("two entries share one (row, cell) pair")
        # sorted: the first and last rows are the least and the greatest
        if rows.size and (rows[0] < 0 or rows[-1] >> self.n_qubits):
            raise ValidationError(f"row index out of range for {self.n_qubits} qubits")
        for arr in (rows, cells, amps):
            arr.setflags(write=False)
        offset, n_cells = _hull(cells)
        vars(self).update(level=level, rows=rows, cells=cells, amps=amps, offset=offset, n_cells=n_cells)

    @classmethod
    def _adopt(
        cls, n_qubits: int, level: int, rows: np.ndarray, cells: np.ndarray, amps: np.ndarray,
        hull: Tuple[int, int],
    ) -> "HybridState":
        """Wrap canonical int64 rows and cells and complex128 amps, whose
        hull is (offset, n_cells), without copying or checking them.  Each
        array is fresh or shared with a frozen input; it becomes read-only."""
        for arr in (rows, cells, amps):
            arr.setflags(write=False)
        h = object.__new__(cls)
        vars(h).update(
            n_qubits=n_qubits, level=level, rows=rows, cells=cells, amps=amps,
            offset=hull[0], n_cells=hull[1],
        )
        return h

    @classmethod
    def from_table(cls, n_qubits: int, level: int, offset: int, table) -> "HybridState":
        """The state with amplitude table[q][k] on qubit basis state q and
        cell offset + k; the zeros of the table are not stored."""
        check_count("n_qubits", n_qubits)
        level = check_count("level", level)
        offset = check_integer("offset", offset)
        arr = np.asarray(table, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != 1 << n_qubits or arr.shape[1] < 1:
            raise ValidationError(f"amps must have shape (2^{n_qubits}, K>=1), got {arr.shape}")
        # the cells are int64: refuse an offset that would wrap them around
        if not -(1 << 63) <= offset <= offset + arr.shape[1] <= 1 << 63:
            raise DomainError(f"offset {offset} with {arr.shape[1]} cells leaves the int64 cells")
        # row-major: the nonzeros come sorted by (row, cell), each once
        rows, cols = np.nonzero(arr)
        amps = arr[rows, cols]
        check_finite("amplitudes", amps)
        cells = cols + offset
        return cls._adopt(n_qubits, level, rows, cells, amps, _hull(cells))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HybridState):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and self.level == other.level
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cells, other.cells)
            and np.array_equal(self.amps, other.amps)
        )

    __hash__ = None

    @property
    def width(self) -> float:
        return 2.0 ** (-self.level)

    def norm2(self) -> float:
        a = self.amps
        return float(np.sum(a.real**2 + a.imag**2)) * self.width

    def row_wave(self, q: int) -> DyadicWave:
        """The CV wave co-occurring with qubit basis state q."""
        check_basis_index(q, self.n_qubits)
        lo, hi = self.rows.searchsorted((q, q + 1))
        if lo == hi:
            return DyadicWave(self.level, 0, [0.0])
        first, span = int(self.cells[lo]), int(self.cells[hi - 1] - self.cells[lo]) + 1
        coeffs = self.amps[lo:hi]
        if span > hi - lo:  # the row has gaps: spread its cells out
            check_bytes(f"row {q}: a wave of {span} cells", 0, span)
            coeffs = np.zeros(span, dtype=np.complex128)
            coeffs[self.cells[lo:hi] - first] = self.amps[lo:hi]
        return DyadicWave(self.level, first, coeffs)


def _hull(cells: np.ndarray) -> Tuple[int, int]:
    """(first cell, width in cells) of the occupied cells; (0, 1) for none."""
    if not cells.size:
        return 0, 1
    lo = int(cells.min())
    return lo, int(cells.max()) - lo + 1


def _sorted_entries(rows: np.ndarray, cells: np.ndarray, amps: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The entries in (row, cell) order: the arrays themselves when in order."""
    if _in_order(rows, cells):
        return rows, cells, amps
    order = np.lexsort((cells, rows))
    return rows[order], cells[order], amps[order]


def _in_order(rows: np.ndarray, cells: np.ndarray) -> bool:
    """Whether the entries are strictly increasing in (row, cell)."""
    r0, r1 = rows[:-1], rows[1:]
    later = (r1 > r0) | ((r1 == r0) & (cells[1:] > cells[:-1]))
    return np.count_nonzero(later) == later.size


def lift(reg: RegisterState, w: DyadicWave) -> HybridState:
    """Product state: amplitude reg.amps[q] * w.coeffs[k] on row q, cell k."""
    if abs(reg.norm2() - 1.0) > 1e-9:
        raise ContractError(f"register input not normalized (norm2 = {reg.norm2()!r})")
    if abs(dyadic.norm2(w) - 1.0) > 1e-9:
        raise ContractError(f"wave input not normalized (norm2 = {dyadic.norm2(w)!r})")
    # a zero row stores nothing, so only the nonzero rows enter the product
    nz = np.flatnonzero(reg.amps)
    cells = np.tile(np.arange(w.n_cells) + w.offset, nz.size)
    amps = np.outer(reg.amps[nz], w.coeffs).ravel()
    return HybridState(reg.n_qubits, w.level, np.repeat(nz, w.n_cells), cells, amps)


def _bit_set(rows: np.ndarray, q: int) -> np.ndarray:
    """Boolean mask of the entries whose row has qubit q in |1>; one byte
    per entry, with no full-width integer temporary."""
    bit = np.right_shift(rows, q, out=np.empty(rows.size, dtype=np.uint8), casting="unsafe")
    return np.bitwise_and(bit, 1, out=bit).view(bool)


def cond_translate(h: HybridState, q: int, t: int) -> HybridState:
    """Translate the CV by t x-units on rows whose qubit q is |1>; h itself
    when no stored row has qubit q set."""
    check_qubit(q, h.n_qubits)
    tc = check_integer("translation amount", t) << h.level
    if tc == 0:
        return h
    # the cells are int64: refuse a shift that would wrap them around
    if not -(1 << 63) <= h.offset + tc <= h.offset + h.n_cells + tc <= 1 << 63:
        raise DomainError(f"translating by {t} at level {h.level} leaves the int64 cells")
    moved = _bit_set(h.rows, q)
    if not moved.any():
        return h
    cells = np.where(moved, h.cells + tc, h.cells)
    # every cell of a row moves by the same amount: the order is kept
    return HybridState._adopt(h.n_qubits, h.level, h.rows, cells, h.amps, _hull(cells))


def _flip_mask(x: np.ndarray, unit) -> np.ndarray:
    """Where over x the reset flips: outside [0, unit), x being cells with
    unit = 2^level or positions with unit = 1.0."""
    return (x < 0) | (x >= unit)


def cond_flip(h: HybridState, q: int) -> HybridState:
    """Apply X on qubit q for every cell outside [0,1); identity inside.
    Cell boundaries always align with the integer interval endpoints, so
    the action is an exact per-cell row swap."""
    check_qubit(q, h.n_qubits)
    rows = np.where(_flip_mask(h.cells, 1 << h.level), h.rows ^ (1 << q), h.rows)
    # a bijection on the (row, cell) pairs: no pair twice, only the order breaks
    rows, cells, amps = _sorted_entries(rows, h.cells, h.amps)
    return HybridState._adopt(h.n_qubits, h.level, rows, cells, amps, (h.offset, h.n_cells))


def squeeze_all(h: HybridState) -> HybridState:
    """Apply the dilation on every row: level + 1, amplitudes * sqrt(2)."""
    level, amps = dyadic.squeeze_step(h.level, h.amps)
    check_finite("amplitudes", amps)
    return HybridState._adopt(h.n_qubits, level, h.rows, h.cells, amps, (h.offset, h.n_cells))


def unfold(h: HybridState, q: int) -> HybridState:
    """Translate-flip-untranslate: for rows supported in [0,1) this maps
    (a|0> + b|1>) (x) psi to |0> (x) (a psi(x) + b psi(x-1))."""
    out = cond_translate(h, q, 1)
    out = cond_flip(out, q)
    return cond_translate(out, q, -1)


def require_unit_support(h: HybridState, op_name: str) -> None:
    # the stored hull decides; the cells are scanned only to name the bad ones
    if h.offset >= 0 and h.offset + h.n_cells <= 1 << h.level:
        return
    bad = np.sort(h.cells[_flip_mask(h.cells, 1 << h.level)])
    bad = bad[np.concatenate(([True], bad[1:] != bad[:-1]))]
    w = h.width
    cells = ", ".join(f"[{i * w:g},{(i + 1) * w:g})" for i in bad[:8])
    more = "" if bad.size <= 8 else f" and {bad.size - 8} more"
    raise ContractError(
        f"{op_name} requires CV support inside [0,1); nonzero cells at {cells}{more}"
    )


def erase(h: HybridState, q: int) -> HybridState:
    """Reset qubit q to |0>, recording its amplitudes in the CV:
    (a|0> + b|1>) (x) psi  ->  |0> (x) sqrt(2)(a psi(2x) + b psi(2x-1)).

    Requires every row's CV support inside [0,1); raises otherwise."""
    require_unit_support(h, "erase")
    return squeeze_all(unfold(h, q))


def residual_weight(h: HybridState, q: int) -> float:
    """Probability weight on rows whose qubit q is |1>."""
    check_qubit(q, h.n_qubits)
    a = h.amps[_bit_set(h.rows, q)]
    return float(np.sum(a.real**2 + a.imag**2)) * h.width


@dataclass(frozen=True)
class EraseStep:
    """Trace entry for one erasure in a sequence."""

    step: int
    qubit: int
    level: int
    norm2: float
    ancilla_residual: float


def erase_sequence(h: HybridState, qubits: Sequence[int]) -> Tuple[HybridState, List[EraseStep]]:
    """Erase the listed qubits in order into the shared CV mode.

    The trace carries metrics only, and ``h`` is rebound to each erased
    state, so a sequence pins no earlier table, its input included when
    the caller keeps none.
    """
    trace: List[EraseStep] = []
    for i, q in enumerate(qubits, start=1):
        h = erase(h, q)
        trace.append(
            EraseStep(
                step=i,
                qubit=int(q),
                level=h.level,
                norm2=h.norm2(),
                ancilla_residual=residual_weight(h, q),
            )
        )
    return h, trace


def tensor_oracle(pairs: Sequence[Tuple[complex, complex]]) -> DyadicWave:
    """Closed-form CV wave after erasing qubits with amplitudes (a_i, b_i)
    into the unit indicator on [0,1).

    Cell k of the level-n result is 2^{n/2} * prod_i c_i(bit_{i-1} of k),
    with c_i(0) = a_i, c_i(1) = b_i: the bits of k spell the erased-bit
    history, most recent step in the most significant fractional digit.
    Independent of the gate pipeline; used as a test oracle.
    """
    n = len(pairs)
    check_bytes(f"oracle: the level-{n} wave of 2^{n} cells", n, 1)
    vals = np.empty(1 << n, dtype=np.complex128)
    vals[0] = 2.0 ** (n / 2.0)
    # after pair i the first 2m cells hold the wave of pairs 0..i, m = 2^i:
    # cell k + m is cell k times b_i, then cell k becomes itself times a_i
    for i, (a, b) in enumerate(pairs):
        m = 1 << i
        np.multiply(vals[:m], complex(b), out=vals[m : 2 * m])
        np.multiply(vals[:m], complex(a), out=vals[:m])
    check_finite("coeffs", vals)
    # a zero end cell needs the constructor's trim
    if vals[0] == 0 or vals[-1] == 0:
        return DyadicWave(n, 0, vals)
    return DyadicWave._adopt(n, 0, vals)


def hybrid_reduced_density(h: HybridState, keep: Iterable[int]) -> DensityMatrix:
    """Trace out the CV mode and the complement qubits.  Only the occupied
    cells enter the partial trace, and the result keeps trace_out's
    occupied support.  Each cell weighs width = 2^-level, a power of two,
    so scaling the block afterwards is exact."""
    cols, slot = np.unique(h.cells, return_inverse=True)
    what = f"reduced density: a block of 2^{h.n_qubits} rows by {cols.size} occupied cells"
    check_bytes(what, h.n_qubits, cols.size)
    block = np.zeros((1 << h.n_qubits, max(cols.size, 1)), dtype=np.complex128)
    block[h.rows, slot] = h.amps
    rho = trace_out(block, h.n_qubits, keep)
    return DensityMatrix._adopt(rho.dim, rho.support, rho.block * h.width)


def cv_factor(h: HybridState) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Split a product state into (rows, register, cells, values): the
    register is register[i] on basis state rows[i], the wave values[i] on
    cell cells[i] at h.level, both on the occupied rows and cells only,
    increasing, so nothing 2^n_qubits or hull wide is built; None if entangled.

    The register phase is fixed by making its first nonzero component
    real positive.  The wave carries the overall norm.
    """
    a = h.amps
    if not a.size:
        return None
    if h.rows[0] == h.rows[-1]:  # one occupied row
        nz_rows = h.rows[:1]
    else:
        # one weight per occupied row, summed between the breaks of the
        # sorted rows
        starts = np.flatnonzero(np.diff(h.rows, prepend=-1))
        row_weight = np.add.reduceat(a.real**2 + a.imag**2, starts)
        nz_rows = h.rows[starts[row_weight > FACTOR_TOL * np.sum(row_weight)]]
    if nz_rows.size == 1:
        q = int(nz_rows[0])
        lo, hi = h.rows.searchsorted((q, q + 1))
        return nz_rows, np.ones(1, dtype=np.complex128), h.cells[lo:hi], a[lo:hi]
    # Only the block of occupied rows x occupied cells has a singular value.
    rows, row_slot = np.unique(h.rows, return_inverse=True)
    cols, col_slot = np.unique(h.cells, return_inverse=True)
    what = f"cv_factor: a block of {rows.size} occupied rows by {cols.size} occupied cells"
    check_bytes(what, 0, rows.size * cols.size)
    block = np.zeros((rows.size, cols.size), dtype=np.complex128)
    block[row_slot, col_slot] = a
    u, s, vh = np.linalg.svd(block, full_matrices=False)
    if s.size > 1 and s[1] > FACTOR_TOL * s[0]:
        return None
    reg = u[:, 0]
    lead = reg[np.flatnonzero(np.abs(reg) > 1e-12)[0]]
    phase = lead / abs(lead)
    return rows, reg / phase, cols, s[0] * vh[0] * phase


def apply_qubit_gate(h: HybridState, q: int, u: np.ndarray) -> HybridState:
    """Single-qubit unitary on the register part, CV untouched.

    Entries pair up over (row without qubit q, cell); a missing partner
    counts as zero, so each pair goes through the same 2x2 product as a
    column of the full table would."""
    check_qubit(q, h.n_qubits)
    u = check_gate(u)
    if not h.amps.size:
        return h
    bit = 1 << q
    base = h.rows & ~bit
    order = np.lexsort((h.cells, base))
    base, cells = base[order], h.cells[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (base[1:] != base[:-1]) | (cells[1:] != cells[:-1])
    n_pairs = int(np.count_nonzero(first))
    check_bytes(f"single-qubit gate: {n_pairs} pairs of amplitudes", 1, n_pairs)
    pairs = np.zeros((2, n_pairs), dtype=np.complex128)
    pairs[_bit_set(h.rows, q)[order].view(np.uint8), np.cumsum(first) - 1] = h.amps[order]
    out = _apply_single_qubit_kernel(pairs, 1, 0, u)
    base, cells = base[first], cells[first]
    rows = np.concatenate([base, base | bit])
    return HybridState(h.n_qubits, h.level, rows, np.concatenate([cells, cells]), out.ravel())


def apply_basis_permutation(h: HybridState, new_rows: Sequence[int] | np.ndarray) -> HybridState:
    """Move every stored entry to the row new_rows[i], the image of its
    row h.rows[i] under a basis permutation; one value per entry.

    Only the occupied rows are checked, in memory of a few times the entry
    count: every entry of one row must get the same image, and no two
    occupied rows may share one.  The map on the other rows is not seen."""
    new = int64_vector("new_rows", new_rows)
    if new.shape != h.rows.shape:
        raise ValidationError(
            f"new rows have shape {new.shape}, expected one per stored entry, {h.rows.shape}"
        )
    # the entries are sorted by row: the entries of one row sit together
    same = h.rows[1:] == h.rows[:-1]
    split = np.flatnonzero(same & (new[1:] != new[:-1]))
    if split.size:
        raise ValidationError(f"map is not a function: row {int(h.rows[split[0]])} has two images")
    head = np.ones(new.size, dtype=bool)
    head[1:] = ~same
    images = np.sort(new[head])
    hit = np.flatnonzero(images[1:] == images[:-1])
    if hit.size:
        raise ValidationError(
            f"map is not a bijection: two occupied rows map to {int(images[hit[0]])}"
        )
    if images.size and (images[0] < 0 or images[-1] >> h.n_qubits):
        raise ValidationError(f"row index out of range for {h.n_qubits} qubits")
    rows, cells, amps = _sorted_entries(new, h.cells, h.amps)
    return HybridState._adopt(h.n_qubits, h.level, rows, cells, amps, (h.offset, h.n_cells))


def apply_row_phases(h: HybridState, phases: np.ndarray) -> HybridState:
    """Multiply every stored entry by phases[i], the unit-modulus factor
    of its row; one value per entry."""
    ph = np.asarray(phases, dtype=np.complex128)
    if ph.shape != h.amps.shape:
        raise ValidationError(
            f"phase vector has shape {ph.shape}, expected one per stored entry, {h.amps.shape}"
        )
    # every stored amplitude is nonzero, so a non-finite phase leaves a
    # non-finite product: one scan of the product serves both
    with np.errstate(over="ignore", invalid="ignore"):
        amps = h.amps * ph
    if not np.isfinite(amps).all():
        check_finite("phase factors", ph)
        check_finite("amplitudes", amps)
    if np.max(np.abs(np.abs(ph) - 1.0), initial=0.0) > 1e-12:
        raise ValidationError("phase factors must have unit modulus")
    # a canonical state holds no zeros: should rounding zero a product,
    # the constructor drops it
    if np.count_nonzero(amps) != amps.size:
        return HybridState(h.n_qubits, h.level, h.rows, h.cells, amps)
    return HybridState._adopt(h.n_qubits, h.level, h.rows, h.cells, amps, (h.offset, h.n_cells))


# ---------------------------------------------------------------------------
# Grid-backend pipeline: same gate sequence on sampled waves, translation in
# momentum-exponential form.  Used to cross-validate the exact backend.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GridHybrid:
    """Qubit register joined to one sampled CV mode on a periodic window."""

    n_qubits: int
    x_min: float
    h: float
    amps: np.ndarray

    def __post_init__(self):
        check_count("n_qubits", self.n_qubits)
        arr = np.array(self.amps, dtype=np.complex128)
        n = arr.shape[1] if arr.ndim == 2 else 0
        if arr.ndim != 2 or arr.shape[0] != 1 << self.n_qubits or n < 2 or n & (n - 1):
            raise ValidationError(
                f"amps must have shape (2^{self.n_qubits}, power-of-two N), got {arr.shape}"
            )
        check_window(self.x_min, self.h, n)
        check_finite("amplitudes", arr)
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    @property
    def n_samples(self) -> int:
        return self.amps.shape[1]

    def positions(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(self.n_samples)

    def norm2(self) -> float:
        a = self.amps
        return float(np.sum(a.real**2 + a.imag**2)) * self.h

    def row_wave(self, q: int) -> GridWave:
        check_basis_index(q, self.n_qubits)
        return GridWave(self.x_min, self.h, self.amps[q])


def grid_cond_translate(gh: GridHybrid, q: int, t: int) -> GridHybrid:
    """Translate rows with qubit q = |1> by t x-units, spectrally."""
    check_qubit(q, gh.n_qubits)
    out = np.array(gh.amps)
    for r in np.flatnonzero(_bit_set(np.arange(1 << gh.n_qubits), q)):
        out[r] = translate_spectral(GridWave(gh.x_min, gh.h, gh.amps[r]), float(t)).samples
    return GridHybrid(gh.n_qubits, gh.x_min, gh.h, out)


def grid_cond_flip(gh: GridHybrid, q: int) -> GridHybrid:
    """Apply X on qubit q for samples outside [0,1)."""
    check_qubit(q, gh.n_qubits)
    flip = _flip_mask(gh.positions(), 1.0)
    view = gh.amps.reshape(1 << (gh.n_qubits - 1 - q), 2, -1, gh.n_samples)
    out = np.where(flip, view[:, ::-1], view)
    return GridHybrid(gh.n_qubits, gh.x_min, gh.h, out.reshape(gh.amps.shape))


def _significant(gh: GridHybrid) -> np.ndarray:
    """Mask of the samples where some row exceeds SUPPORT_EPS of the peak magnitude."""
    mags = np.max(np.abs(gh.amps), axis=0)
    return mags > SUPPORT_EPS * mags.max()


def grid_squeeze_all(gh: GridHybrid) -> GridHybrid:
    """Even-index decimation sqrt(2)*psi(2x) on every row jointly."""
    raw = -gh.x_min / gh.h
    x0_idx = int(round(raw))
    if abs(raw - x0_idx) > 1e-9:
        raise DomainError("window origin is not grid-aligned; cannot decimate")
    nz = np.flatnonzero(_significant(gh))
    if nz.size:
        x_lo = (gh.x_min + float(nz[0]) * gh.h) / 2.0
        x_hi = (gh.x_min + float(nz[-1]) * gh.h) / 2.0
        if x_lo < gh.x_min or x_hi >= gh.x_min + gh.n_samples * gh.h:
            raise DomainError(
                f"halved support [{x_lo}, {x_hi}] escapes the window"
            )
    src = -x0_idx + 2 * np.arange(gh.n_samples)
    valid = (src >= 0) & (src < gh.n_samples)
    out = np.zeros_like(gh.amps)
    out[:, valid] = SQRT2 * gh.amps[:, src[valid]]
    return GridHybrid(gh.n_qubits, gh.x_min, gh.h, out)


def grid_unfold(gh: GridHybrid, q: int) -> GridHybrid:
    out = grid_cond_translate(gh, q, 1)
    out = grid_cond_flip(out, q)
    return grid_cond_translate(out, q, -1)


def check_erase_window(x_min: float, h: float, n: int) -> None:
    """The window x_min + j*h, j < n, holds [0,2), where a grid erase
    translates the |1> branch; a narrower periodic window wraps it."""
    if x_min > 0 or x_min + n * h < 2:
        raise DomainError(
            f"a grid erase needs a window holding [0, 2), got [{x_min}, {x_min + n * h})"
        )


def grid_erase(gh: GridHybrid, q: int) -> GridHybrid:
    """Grid-backend erasure; support detection uses a relative threshold
    because spectral translation leaves O(1e-16) residue everywhere."""
    check_erase_window(gh.x_min, gh.h, gh.n_samples)
    xs = gh.positions()
    bad = _significant(gh) & ~((xs >= 0.0) & (xs < 1.0))
    if np.any(bad):
        where = ", ".join(f"{x:g}" for x in xs[bad][:8])
        raise ContractError(
            f"grid erase requires CV support inside [0,1); significant samples at x = {where}"
        )
    return grid_squeeze_all(grid_unfold(gh, q))
