"""Joint qubit (x) continuous-variable states and the erasure pipeline.

The continuous variable is one shared mode holding a piecewise-constant
wave on dyadic cells; a HybridState stores the joint amplitude table
A[q][k] over qubit basis index q and cell k.  The erasure of a qubit is
the four-gate sequence, applied in temporal order:

    conditional translate by +1  (shift the |1> branch to [1,2))
    conditional flip             (reset the qubit where the wave sits
                                  outside the unit interval)
    conditional translate by -1  (undo the shift; identity on the
                                  in-domain result, restores unitarity
                                  off-domain)
    squeeze                      (compress [0,2) back into [0,1))

For input waves supported in [0,1) this maps (a|0> + b|1>) (x) psi to
|0> (x) sqrt(2)(a psi(2x) + b psi(2x-1)) with no approximation error:
every step is a relocation or a scaling of stored cell values.  The same
pipeline is provided on the sampled-grid backend, where translation runs
through the momentum-space exponential, for cross-validation.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import dyadic
from .dyadic import MAX_CELLS_DEFAULT, MAX_LEVEL_DEFAULT, SQRT2, DyadicWave, indicator_unit
from .errors import ContractError, DomainError, ResourceLimitError, ValidationError
from .grid import SUPPORT_EPS, GridWave, translate_shift, translate_spectral
from .qubits import (
    DensityMatrix,
    RegisterState,
    _apply_permutation_kernel,
    _apply_single_qubit_kernel,
    _check_permutation,
    is_unitary,
    trace_out,
)

# The two reset-flip conventions.  OUTSIDE_UNIT flips the qubit on every
# cell not inside [0,1); INSIDE_ONE_TWO flips only on cells inside [1,2).
# They agree on any state supported in [0,2).
class FlipVariant(enum.Enum):
    OUTSIDE_UNIT = "outside_unit"
    INSIDE_ONE_TWO = "inside_one_two"


@dataclass(frozen=True, eq=False)
class HybridState:
    """Qubit register entangled with one dyadic CV mode.

    amps[q][k] is the joint amplitude of qubit basis state q on cell k;
    all rows share the cell geometry (level, offset).  Boundary columns
    that are zero in every row are trimmed, mirroring DyadicWave's
    canonical form.
    """

    n_qubits: int
    level: int
    offset: int
    amps: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 0:
            raise DomainError(f"n_qubits must be nonnegative, got {self.n_qubits}")
        if self.level < 0:
            raise DomainError(f"level must be nonnegative, got {self.level}")
        arr = np.array(self.amps, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != 1 << self.n_qubits or arr.shape[1] < 1:
            raise ValidationError(
                f"amps must have shape (2^{self.n_qubits}, K>=1), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValidationError("amplitudes must be finite (no NaN/Inf)")
        nonzero_cols = np.flatnonzero(np.any(arr != 0, axis=0))
        if nonzero_cols.size == 0:
            offset = 0
            arr = np.zeros((arr.shape[0], 1), dtype=np.complex128)
        else:
            lo, hi = int(nonzero_cols[0]), int(nonzero_cols[-1]) + 1
            offset = int(self.offset) + lo
            if lo or hi < arr.shape[1]:
                arr = arr[:, lo:hi].copy()
        arr.setflags(write=False)
        object.__setattr__(self, "level", int(self.level))
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "amps", arr)

    @classmethod
    def _adopt(cls, n_qubits: int, level: int, offset: int, amps: np.ndarray) -> "HybridState":
        """Wrap a table without copying or scanning it.

        Only for a freshly allocated complex128 table of shape
        (2^n_qubits, K >= 1) that no one else holds and that is already
        canonical: finite, with nonzero first and last columns (or a single
        zero column at offset 0).  The gate ops below build such tables by
        relocating the values of a validated state.
        """
        amps.setflags(write=False)
        h = object.__new__(cls)
        object.__setattr__(h, "n_qubits", n_qubits)
        object.__setattr__(h, "level", level)
        object.__setattr__(h, "offset", offset)
        object.__setattr__(h, "amps", amps)
        return h

    def __eq__(self, other) -> bool:
        if not isinstance(other, HybridState):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and self.level == other.level
            and self.offset == other.offset
            and self.amps.shape == other.amps.shape
            and bool(np.all(self.amps == other.amps))
        )

    __hash__ = None

    @property
    def n_cells(self) -> int:
        return self.amps.shape[1]

    @property
    def width(self) -> float:
        return 2.0 ** (-self.level)

    def norm2(self) -> float:
        a = self.amps
        return float(np.sum(a.real**2 + a.imag**2)) * self.width

    def row_wave(self, q: int) -> DyadicWave:
        """The CV wave co-occurring with qubit basis state q."""
        if not 0 <= q < 1 << self.n_qubits:
            raise DomainError(f"basis index {q} out of range")
        return DyadicWave(self.level, self.offset, self.amps[q])

    def cell_index_range(self) -> np.ndarray:
        """Absolute dyadic cell indices (offset + column)."""
        return self.offset + np.arange(self.n_cells)


def lift(reg: RegisterState, w: DyadicWave) -> HybridState:
    """Product state: A[q][k] = reg.amps[q] * w.coeffs[k]."""
    if abs(reg.norm2() - 1.0) > 1e-9:
        raise ContractError(f"register input not normalized (norm2 = {reg.norm2()!r})")
    if abs(dyadic.norm2(w) - 1.0) > 1e-9:
        raise ContractError(f"wave input not normalized (norm2 = {dyadic.norm2(w)!r})")
    return HybridState(reg.n_qubits, w.level, w.offset, np.outer(reg.amps, w.coeffs))


def _bit1_rows(n_qubits: int, q: int) -> np.ndarray:
    return (np.arange(1 << n_qubits) >> q) & 1 == 1


def _qubit_view(h: HybridState, q: int) -> np.ndarray:
    """The table as (high rows, bit q, low rows, cells); [:, 1] selects the
    rows whose qubit q is |1>."""
    return h.amps.reshape(1 << (h.n_qubits - 1 - q), 2, 1 << q, h.n_cells)


def _occupied_span(block: np.ndarray) -> Optional[Tuple[int, int]]:
    """[first, last + 1) of the cells holding a nonzero value; None if none."""
    cols = np.flatnonzero(np.any(block != 0, axis=(0, 1)))
    if cols.size == 0:
        return None
    return int(cols[0]), int(cols[-1]) + 1


def _check_table(row_bits: int, cells: int, max_cells: int, what: str) -> None:
    """Refuse a table of 2^row_bits rows by ``cells`` columns that holds
    more than 64 * max_cells amplitudes.  This is the one size rule for
    every table the processor grows; it runs before the table is allocated
    and never builds 2^row_bits."""
    limit = max_cells * 64
    if row_bits >= limit.bit_length() or cells << row_bits > limit:
        raise ResourceLimitError(f"{what} exceeds {limit} cells")


def cond_translate(
    h: HybridState, q: int, t: int, max_cells: int = MAX_CELLS_DEFAULT
) -> HybridState:
    """Translate the CV by t x-units on rows whose qubit q is |1>."""
    if not 0 <= q < h.n_qubits:
        raise DomainError(f"qubit index {q} out of range for {h.n_qubits} qubits")
    if not isinstance(t, (int, np.integer)):
        raise DomainError(f"translation amount must be an integer, got {t!r}")
    tc = int(t) << h.level
    if tc == 0:
        return h
    k2 = h.n_cells + abs(tc)
    if k2 > max_cells:
        raise ResourceLimitError(
            f"conditional translation needs {k2} cells (limit {max_cells})"
        )
    # Place each row group's occupied cells (the moved rows shifted by tc)
    # and allocate only their hull, so the output is canonical as built.
    view = _qubit_view(h, q)
    placed = []  # (bit, first output cell, occupied input columns)
    for bit, shift in ((0, 0), (1, tc)):
        span = _occupied_span(view[:, bit])
        if span is not None:
            placed.append((bit, span[0] + shift, span))
    if not placed:
        zero = np.zeros((h.amps.shape[0], 1), dtype=np.complex128)
        return HybridState._adopt(h.n_qubits, h.level, 0, zero)
    lo = min(start for _, start, _ in placed)
    hi = max(start + b - a for _, start, (a, b) in placed)
    what = f"conditional translation: a table of 2^{h.n_qubits} rows by {hi - lo} cells"
    _check_table(h.n_qubits, hi - lo, max_cells, what)
    out = np.zeros(view.shape[:3] + (hi - lo,), dtype=np.complex128)
    for bit, start, (a, b) in placed:
        out[:, bit, :, start - lo : start - lo + b - a] = view[:, bit, :, a:b]
    return HybridState._adopt(
        h.n_qubits, h.level, h.offset + lo, out.reshape(h.amps.shape[0], hi - lo)
    )


def _flip_columns(h: HybridState, variant: FlipVariant) -> np.ndarray:
    """Boolean mask over columns on which the qubit is flipped."""
    idx = h.cell_index_range()
    unit = 1 << h.level
    if variant is FlipVariant.OUTSIDE_UNIT:
        return ~((idx >= 0) & (idx < unit))
    if variant is FlipVariant.INSIDE_ONE_TWO:
        return (idx >= unit) & (idx < 2 * unit)
    raise DomainError(f"unknown flip variant {variant!r}")


def cond_flip(h: HybridState, q: int, variant: FlipVariant = FlipVariant.OUTSIDE_UNIT) -> HybridState:
    """Apply X on qubit q for every cell selected by the variant; identity
    elsewhere.  Cell boundaries always align with the integer interval
    endpoints, so the action is an exact per-column row swap."""
    if not 0 <= q < h.n_qubits:
        raise DomainError(f"qubit index {q} out of range for {h.n_qubits} qubits")
    flip = _flip_columns(h, variant)
    view = _qubit_view(h, q)
    out = np.where(flip, view[:, ::-1], view)
    # a per-column row swap keeps every column's occupancy: still canonical
    return HybridState._adopt(h.n_qubits, h.level, h.offset, out.reshape(h.amps.shape))


def squeeze_all(h: HybridState, max_level: int = MAX_LEVEL_DEFAULT) -> HybridState:
    """Apply the dilation on every row: level + 1, amplitudes * sqrt(2)."""
    if h.level + 1 > max_level:
        raise ResourceLimitError(f"squeeze would exceed max level {max_level}")
    out = h.amps * SQRT2
    # scaling by sqrt(2) cannot zero a cell, but it can overflow one
    if not np.all(np.isfinite(out.view(np.float64))):
        raise ValidationError("squeeze overflowed: amplitudes must be finite (no NaN/Inf)")
    return HybridState._adopt(h.n_qubits, h.level + 1, h.offset, out)


def unfold(
    h: HybridState,
    q: int,
    variant: FlipVariant = FlipVariant.OUTSIDE_UNIT,
    max_cells: int = MAX_CELLS_DEFAULT,
) -> HybridState:
    """Translate-flip-untranslate: for rows supported in [0,1) this maps
    (a|0> + b|1>) (x) psi to |0> (x) (a psi(x) + b psi(x-1))."""
    out = cond_translate(h, q, 1, max_cells=max_cells)
    out = cond_flip(out, q, variant)
    return cond_translate(out, q, -1, max_cells=max_cells)


def _support_violations(h: HybridState) -> np.ndarray:
    """Absolute indices of nonzero cells outside [0,1)."""
    idx = h.cell_index_range()
    unit = 1 << h.level
    occupied = np.any(h.amps != 0, axis=0)
    return idx[occupied & ~((idx >= 0) & (idx < unit))]


def require_unit_support(h: HybridState, op_name: str) -> None:
    bad = _support_violations(h)
    if bad.size:
        w = h.width
        cells = ", ".join(f"[{i * w:g},{(i + 1) * w:g})" for i in bad[:8])
        more = "" if bad.size <= 8 else f" and {bad.size - 8} more"
        raise ContractError(
            f"{op_name} requires CV support inside [0,1); nonzero cells at {cells}{more}"
        )


def erase(
    h: HybridState,
    q: int,
    variant: FlipVariant = FlipVariant.OUTSIDE_UNIT,
    max_level: int = MAX_LEVEL_DEFAULT,
    max_cells: int = MAX_CELLS_DEFAULT,
) -> HybridState:
    """Reset qubit q to |0>, recording its amplitudes in the CV:
    (a|0> + b|1>) (x) psi  ->  |0> (x) sqrt(2)(a psi(2x) + b psi(2x-1)).

    Requires every row's CV support inside [0,1); raises otherwise."""
    require_unit_support(h, "erase")
    out = unfold(h, q, variant, max_cells=max_cells)
    return squeeze_all(out, max_level=max_level)


def residual_weight(h: HybridState, q: int) -> float:
    """Probability weight on rows whose qubit q is |1>."""
    if not 0 <= q < h.n_qubits:
        raise DomainError(f"qubit index {q} out of range for {h.n_qubits} qubits")
    rows = _qubit_view(h, q)[:, 1]
    return float(np.sum(rows.real**2 + rows.imag**2)) * h.width


@dataclass(frozen=True)
class EraseStep:
    """Trace entry for one erasure in a sequence."""

    step: int
    qubit: int
    level: int
    norm2: float
    ancilla_residual: float


def erase_sequence(
    h: HybridState,
    qubits: Sequence[int],
    variant: FlipVariant = FlipVariant.OUTSIDE_UNIT,
    max_level: int = MAX_LEVEL_DEFAULT,
    max_cells: int = MAX_CELLS_DEFAULT,
) -> Tuple[HybridState, List[EraseStep]]:
    """Erase the listed qubits in order into the shared CV mode.

    The trace carries metrics only, so a long sequence does not pin
    every intermediate table.
    """
    trace: List[EraseStep] = []
    state = h
    for i, q in enumerate(qubits, start=1):
        state = erase(state, q, variant, max_level=max_level, max_cells=max_cells)
        trace.append(
            EraseStep(
                step=i,
                qubit=int(q),
                level=state.level,
                norm2=state.norm2(),
                ancilla_residual=residual_weight(state, q),
            )
        )
    return state, trace


def tensor_oracle(
    pairs: Sequence[Tuple[complex, complex]], base: Optional[DyadicWave] = None
) -> DyadicWave:
    """Closed-form CV wave after erasing qubits with amplitudes (a_i, b_i)
    into a base wave supported in [0,1).

    Cell k of the level-(base.level + n) result factors as
    2^{n/2} * base(low bits of k) * prod_i c_i(bit_{i-1} of the high bits),
    with c_i(0) = a_i, c_i(1) = b_i: the high bits spell the erased-bit
    history, most recent step in the most significant fractional digit.
    Independent of the gate pipeline; used as a test oracle.
    """
    if base is None:
        base = indicator_unit(0)
    n = len(pairs)
    if base.level + n > MAX_LEVEL_DEFAULT:
        raise ResourceLimitError(f"oracle level {base.level + n} exceeds {MAX_LEVEL_DEFAULT}")
    unit = 1 << base.level
    if not (0 <= base.offset and base.offset + base.n_cells <= unit):
        raise DomainError("oracle base must be supported inside [0,1)")
    base_vals = np.zeros(unit, dtype=np.complex128)
    base_vals[base.offset : base.offset + base.n_cells] = base.coeffs
    k = np.arange(1 << (base.level + n))
    history = k >> base.level
    vals = base_vals[k & (unit - 1)] * 2.0 ** (n / 2.0)
    for i, (a, b) in enumerate(pairs):
        vals = vals * np.where((history >> i) & 1 == 1, complex(b), complex(a))
    return DyadicWave(base.level + n, 0, vals)


def hybrid_reduced_density(h: HybridState, keep: Iterable[int]) -> DensityMatrix:
    """Trace out the CV mode and the complement qubits.  Each cell weighs
    width = 2^-level, a power of two, so scaling afterwards is exact."""
    rho = trace_out(h.amps, h.n_qubits, keep)
    return DensityMatrix._adopt(rho.dim, rho.entries * h.width)


def cv_factor(h: HybridState, tol: float = 1e-10) -> Optional[Tuple[RegisterState, DyadicWave]]:
    """Split a product state into (register, wave); None if entangled.

    The register phase is fixed by making its first nonzero component
    real positive.  The wave carries the overall norm.
    """
    a = h.amps
    row_weight = np.sum(a.real**2 + a.imag**2, axis=1)
    total = float(np.sum(row_weight))
    if total == 0.0:
        return None
    nz_rows = np.flatnonzero(row_weight > tol * total)
    if nz_rows.size == 1:
        r = int(nz_rows[0])
        reg = np.zeros(1 << h.n_qubits, dtype=np.complex128)
        reg[r] = 1.0
        return RegisterState(h.n_qubits, reg), DyadicWave(h.level, h.offset, a[r])
    # Exact-zero rows and columns add no singular value, so decompose only
    # the block of rows and columns that hold a nonzero entry.
    nz = a != 0
    rows, cols = np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))
    whole = rows.size == a.shape[0] and cols.size == a.shape[1]
    u, s, vh = np.linalg.svd(a if whole else a[np.ix_(rows, cols)], full_matrices=False)
    if s.size > 1 and s[1] > tol * s[0]:
        return None
    reg = np.zeros(a.shape[0], dtype=np.complex128)
    wave = np.zeros(a.shape[1], dtype=np.complex128)
    reg[rows], wave[cols] = u[:, 0], vh[0]
    lead = reg[np.flatnonzero(np.abs(reg) > 1e-12)[0]]
    phase = lead / abs(lead)
    return (
        RegisterState(h.n_qubits, reg / phase),
        DyadicWave(h.level, h.offset, s[0] * wave * phase),
    )


def apply_qubit_gate(h: HybridState, q: int, u: np.ndarray) -> HybridState:
    """Single-qubit unitary on the register part, CV untouched."""
    if not 0 <= q < h.n_qubits:
        raise DomainError(f"qubit index {q} out of range for {h.n_qubits} qubits")
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValidationError(f"single-qubit gate must be 2x2, got {u.shape}")
    if not is_unitary(u):
        raise ValidationError("gate matrix is not unitary within 1e-12")
    out = _apply_single_qubit_kernel(h.amps, h.n_qubits, q, u)
    return HybridState(h.n_qubits, h.level, h.offset, out)


def apply_basis_permutation(h: HybridState, perm: Sequence[int] | np.ndarray) -> HybridState:
    """Permute qubit basis rows: row i moves to perm[i]."""
    p = _check_permutation(perm, 1 << h.n_qubits)
    # moving whole rows keeps every column's occupancy: still canonical
    return HybridState._adopt(h.n_qubits, h.level, h.offset, _apply_permutation_kernel(h.amps, p))


def apply_row_phases(h: HybridState, phases: np.ndarray) -> HybridState:
    """Multiply each qubit basis row by a unit-modulus factor."""
    ph = np.asarray(phases, dtype=np.complex128)
    if ph.shape != (1 << h.n_qubits,):
        raise ValidationError(f"phase vector must have length {1 << h.n_qubits}")
    if np.max(np.abs(np.abs(ph) - 1.0)) > 1e-12:
        raise ValidationError("phase factors must have unit modulus")
    return HybridState(h.n_qubits, h.level, h.offset, h.amps * ph[:, None])


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
        if self.n_qubits < 0:
            raise DomainError(f"n_qubits must be nonnegative, got {self.n_qubits}")
        if not (self.h > 0 and np.isfinite(self.h)):
            raise ValidationError(f"grid step must be positive and finite, got {self.h}")
        arr = np.array(self.amps, dtype=np.complex128)
        n = arr.shape[1] if arr.ndim == 2 else 0
        if arr.ndim != 2 or arr.shape[0] != 1 << self.n_qubits or n < 2 or n & (n - 1):
            raise ValidationError(
                f"amps must have shape (2^{self.n_qubits}, power-of-two N), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValidationError("amplitudes must be finite (no NaN/Inf)")
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
        if not 0 <= q < 1 << self.n_qubits:
            raise DomainError(f"basis index {q} out of range")
        return GridWave(self.x_min, self.h, self.amps[q])


def grid_lift(reg: RegisterState, g: GridWave) -> GridHybrid:
    """Product state on the grid backend."""
    if abs(reg.norm2() - 1.0) > 1e-9:
        raise ContractError(f"register input not normalized (norm2 = {reg.norm2()!r})")
    if abs(g.norm2() - 1.0) > 1e-6:
        raise ContractError(f"wave input not normalized (norm2 = {g.norm2()!r})")
    return GridHybrid(reg.n_qubits, g.x_min, g.h, np.outer(reg.amps, g.samples))


def grid_cond_translate(gh: GridHybrid, q: int, t: int, method: str = "spectral") -> GridHybrid:
    """Translate rows with qubit q = |1> by t x-units, spectrally or by
    index shift."""
    if not 0 <= q < gh.n_qubits:
        raise DomainError(f"qubit index {q} out of range for {gh.n_qubits} qubits")
    if method not in ("spectral", "shift"):
        raise DomainError(f"unknown translation method {method!r}")
    moved = _bit1_rows(gh.n_qubits, q)
    out = np.array(gh.amps)
    for r in np.flatnonzero(moved):
        wave = GridWave(gh.x_min, gh.h, gh.amps[r])
        if method == "spectral":
            out[r] = translate_spectral(wave, float(t)).samples
        else:
            out[r] = translate_shift(wave, int(t)).samples
    return GridHybrid(gh.n_qubits, gh.x_min, gh.h, out)


def grid_cond_flip(gh: GridHybrid, q: int, variant: FlipVariant = FlipVariant.OUTSIDE_UNIT) -> GridHybrid:
    """Apply X on qubit q for samples selected by the variant interval."""
    if not 0 <= q < gh.n_qubits:
        raise DomainError(f"qubit index {q} out of range for {gh.n_qubits} qubits")
    xs = gh.positions()
    if variant is FlipVariant.OUTSIDE_UNIT:
        flip = ~((xs >= 0.0) & (xs < 1.0))
    elif variant is FlipVariant.INSIDE_ONE_TWO:
        flip = (xs >= 1.0) & (xs < 2.0)
    else:
        raise DomainError(f"unknown flip variant {variant!r}")
    view = gh.amps.reshape(1 << (gh.n_qubits - 1 - q), 2, -1, gh.n_samples)
    out = np.where(flip, view[:, ::-1], view)
    return GridHybrid(gh.n_qubits, gh.x_min, gh.h, out.reshape(gh.amps.shape))


def grid_squeeze_all(gh: GridHybrid) -> GridHybrid:
    """Even-index decimation sqrt(2)*psi(2x) on every row jointly."""
    raw = -gh.x_min / gh.h
    x0_idx = int(round(raw))
    if abs(raw - x0_idx) > 1e-9:
        raise DomainError("window origin is not grid-aligned; cannot decimate")
    mags = np.max(np.abs(gh.amps), axis=0)
    peak = float(mags.max())
    if peak > 0.0:
        nz = np.flatnonzero(mags > SUPPORT_EPS * peak)
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


def grid_unfold(
    gh: GridHybrid,
    q: int,
    variant: FlipVariant = FlipVariant.OUTSIDE_UNIT,
    method: str = "spectral",
) -> GridHybrid:
    out = grid_cond_translate(gh, q, 1, method)
    out = grid_cond_flip(out, q, variant)
    return grid_cond_translate(out, q, -1, method)


def grid_erase(
    gh: GridHybrid,
    q: int,
    variant: FlipVariant = FlipVariant.OUTSIDE_UNIT,
    method: str = "spectral",
) -> GridHybrid:
    """Grid-backend erasure; support detection uses a relative threshold
    because spectral translation leaves O(1e-16) residue everywhere."""
    mags = np.max(np.abs(gh.amps), axis=0)
    peak = float(mags.max())
    if peak > 0.0:
        xs = gh.positions()
        bad = (mags > SUPPORT_EPS * peak) & ~((xs >= 0.0) & (xs < 1.0))
        if np.any(bad):
            where = ", ".join(f"{x:g}" for x in xs[bad][:8])
            raise ContractError(
                f"grid erase requires CV support inside [0,1); significant samples at x = {where}"
            )
    return grid_squeeze_all(grid_unfold(gh, q, variant, method))
