"""Dense reference for the sparse HybridState, used by the tests only.

``table(h)`` spells a state as the full 2^n x hull table: row q, column
k holds the amplitude on qubit basis state q and cell h.offset + k.  The
``ref_*`` functions are the state operations written on that table, each
the way the state computed them while it stored the table itself.  The
sparse operations must agree with them: bit for bit where an operation
only relocates or scales values, and within rounding where a sum over the
cells runs in another order.  ``ref_value_at`` is the one-position wave
lookup, in exact integer cell arithmetic, that ``value_at`` must match.
``ref_dilation_generator`` is the grid squeeze through the dense
eigendecomposition of the dilation generator, which the matrix-free
Chebyshev series of ``grid.dilation_generator`` must match to rounding.
``ref_gate_vector`` and ``ref_register_permutation`` are the two-qubit
gates and the table lift as whole vectors over all 2^n basis indices
(the lift also on given rows, for a register too wide to spell), which
the processor's register ops on the stored rows must match bit for bit;
the lift reads each new y from ``eval_forward`` on Python ints.
``ref_run_step`` is a whole program step on the table: its op, each
listed ancilla erased by the four reference gates, and the step's
metrics read off the table, which ``processor.run_step`` must match.
``ref_tensor_oracle`` is the history tensor built from the index of
every cell, which ``erasure.tensor_oracle``'s per-pair doubling must
match bit for bit.
"""
from typing import Optional, Tuple

import numpy as np

from cvhistory.dyadic import SQRT2, DyadicWave
from cvhistory.erasure import HybridState
from cvhistory.grid import GridWave
from cvhistory.processor import SINGLE_QUBIT_GATES, GateOp, ProgramStep, StepMetrics
from cvhistory.qubits import (
    RegisterState,
    _apply_permutation_kernel,
    _apply_single_qubit_kernel,
    _check_permutation,
)
from cvhistory.revcomp import ReversiblePermutation, build_reversible, eval_forward


def table(h: HybridState) -> np.ndarray:
    """The 2^n x n_cells amplitude table over the hull of h."""
    out = np.zeros((1 << h.n_qubits, h.n_cells), dtype=np.complex128)
    out[h.rows, h.cells - h.offset] = h.amps
    return out


def hull_wave(h: HybridState, cells: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A wave given on some cells of h, spread over the hull of h."""
    out = np.zeros(h.n_cells, dtype=np.complex128)
    out[cells - h.offset] = values
    return out


def full_register(h: HybridState, rows: np.ndarray, register: np.ndarray) -> np.ndarray:
    """A register given on some rows of h, spread over all 2^n rows."""
    out = np.zeros(1 << h.n_qubits, dtype=np.complex128)
    out[rows] = register
    return out


def ref_lift(reg: RegisterState, w: DyadicWave) -> HybridState:
    """The whole 2^n x n_cells outer product, zeros dropped by the
    constructor."""
    out = np.outer(reg.amps, w.coeffs)
    return HybridState.from_table(reg.n_qubits, w.level, w.offset, out)


def _moved_rows(h: HybridState, q: int) -> np.ndarray:
    return (np.arange(1 << h.n_qubits) >> q) & 1 == 1


def ref_cond_translate(h: HybridState, q: int, t: int) -> HybridState:
    """Full-width conditional translation, trimmed by the constructor."""
    tc = t << h.level
    new_offset = h.offset + min(tc, 0)
    a = table(h)
    out = np.zeros((a.shape[0], h.n_cells + abs(tc)), dtype=np.complex128)
    moved = _moved_rows(h, q)
    lo_fixed, lo_moved = h.offset - new_offset, h.offset + tc - new_offset
    out[~moved, lo_fixed : lo_fixed + h.n_cells] = a[~moved]
    out[moved, lo_moved : lo_moved + h.n_cells] = a[moved]
    return HybridState.from_table(h.n_qubits, h.level, new_offset, out)


def ref_cond_flip(h: HybridState, q: int, inside_one_two: bool = False) -> HybridState:
    """Swap the |0> and |1> rows of qubit q on every flipped column: every
    column outside [0,1), or with ``inside_one_two`` only those inside
    [1,2), the other convention, which validate keeps as a reference."""
    idx = h.offset + np.arange(h.n_cells)
    unit = 1 << h.level
    if inside_one_two:
        flip = (idx >= unit) & (idx < 2 * unit)
    else:
        flip = ~((idx >= 0) & (idx < unit))
    a = table(h)
    view = a.reshape(1 << (h.n_qubits - 1 - q), 2, 1 << q, h.n_cells)
    out = np.where(flip, view[:, ::-1], view).reshape(a.shape)
    return HybridState.from_table(h.n_qubits, h.level, h.offset, out)


def ref_squeeze_all(h: HybridState) -> HybridState:
    return HybridState.from_table(h.n_qubits, h.level + 1, h.offset, table(h) * SQRT2)


def ref_apply_qubit_gate(h: HybridState, q: int, u: np.ndarray) -> HybridState:
    out = _apply_single_qubit_kernel(table(h), h.n_qubits, q, np.asarray(u, dtype=np.complex128))
    return HybridState.from_table(h.n_qubits, h.level, h.offset, out)


def ref_apply_basis_permutation(h: HybridState, perm: np.ndarray) -> HybridState:
    """Relocate the rows of the whole table after checking that perm is a
    bijection on all 2^n basis indices."""
    out = _apply_permutation_kernel(table(h), _check_permutation(perm, 1 << h.n_qubits))
    return HybridState.from_table(h.n_qubits, h.level, h.offset, out)


def ref_apply_row_phases(h: HybridState, phases: np.ndarray) -> HybridState:
    out = table(h) * np.asarray(phases, dtype=np.complex128)[:, None]
    return HybridState.from_table(h.n_qubits, h.level, h.offset, out)


def ref_gate_vector(name: str, a: int, b: int, n_total: int) -> np.ndarray:
    """The 2^n_total basis permutation of CNOT (control a, target b) or
    SWAP, or the row phases of CZ."""
    idx = np.arange(1 << n_total)
    if name == "CNOT":
        return idx ^ (((idx >> a) & 1) << b)
    if name == "SWAP":
        bit_a, bit_b = (idx >> a) & 1, (idx >> b) & 1
        return idx & ~((1 << a) | (1 << b)) | (bit_b << a) | (bit_a << b)
    return 1.0 - 2.0 * (((idx >> a) & 1) & ((idx >> b) & 1))


def ref_apply_gate(h: HybridState, name: str, a: int, b: int) -> HybridState:
    """A two-qubit gate by its whole vector on the whole table."""
    vec = ref_gate_vector(name, a, b, h.n_qubits)
    if name == "CZ":
        return ref_apply_row_phases(h, vec)
    return ref_apply_basis_permutation(h, vec)


def ref_register_permutation(
    p: ReversiblePermutation, x_qubits, y_qubits, n_total: int, rows=None
) -> np.ndarray:
    """The images of ``rows`` (all 2^n_total basis indices by default)
    under the embedded pair map, one Python int and one qubit at a time."""
    out = []
    for i in range(1 << n_total) if rows is None else rows:
        i = int(i)
        x = sum(((i >> q) & 1) << j for j, q in enumerate(x_qubits))
        y = sum(((i >> q) & 1) << j for j, q in enumerate(y_qubits))
        _, y2 = eval_forward(p.table, p.mode, x, y)
        for j, q in enumerate(y_qubits):
            i = (i & ~(1 << q)) | (((y2 >> j) & 1) << q)
        out.append(i)
    return np.array(out, dtype=np.int64)


def ref_trace_out(amps: np.ndarray, n_qubits: int, keep) -> np.ndarray:
    """The whole 2^k x 2^k reduced density of trace_out, by one tensordot
    over the unkept qubits' axes and the trailing axes."""
    kept = set(keep)
    psi = np.asarray(amps, dtype=np.complex128).reshape((2,) * n_qubits + (-1,))
    traced = tuple(n_qubits - 1 - q for q in range(n_qubits) if q not in kept) + (n_qubits,)
    d = 1 << len(kept)
    return np.tensordot(psi, psi.conj(), axes=(traced, traced)).reshape(d, d)


def ref_hybrid_reduced_density(h: HybridState, keep) -> np.ndarray:
    """Partial trace over the whole hull, zero columns included."""
    return ref_trace_out(table(h), h.n_qubits, keep) * h.width


def ref_cv_factor(h: HybridState, tol: float = 1e-10) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(register, hull-wide wave) by the SVD of the table's block of nonzero
    rows x nonzero columns; None if entangled."""
    a = table(h)
    row_weight = np.sum(a.real**2 + a.imag**2, axis=1)
    total = float(np.sum(row_weight))
    if total == 0.0:
        return None
    nz_rows = np.flatnonzero(row_weight > tol * total)
    if nz_rows.size == 1:
        reg = np.zeros(a.shape[0], dtype=np.complex128)
        reg[nz_rows[0]] = 1.0
        return reg, a[nz_rows[0]]
    nz = a != 0
    rows, cols = np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))
    u, s, vh = np.linalg.svd(a[np.ix_(rows, cols)], full_matrices=False)
    if s.size > 1 and s[1] > tol * s[0]:
        return None
    reg = np.zeros(a.shape[0], dtype=np.complex128)
    wave = np.zeros(a.shape[1], dtype=np.complex128)
    reg[rows], wave[cols] = u[:, 0], vh[0]
    lead = reg[np.flatnonzero(np.abs(reg) > 1e-12)[0]]
    phase = lead / abs(lead)
    return reg / phase, s[0] * wave * phase


def ref_erase(h: HybridState, q: int) -> HybridState:
    """The paper's four gates on the table: translate the |1> rows of
    qubit q by +1, flip outside [0,1), translate back, squeeze."""
    out = ref_cond_translate(h, q, 1)
    out = ref_cond_flip(out, q)
    out = ref_cond_translate(out, q, -1)
    return ref_squeeze_all(out)


def _weight(a: np.ndarray, width: float) -> float:
    """Probability weight of the table part a, summed over its nonzero
    values in row-major order: the stored entries' order."""
    v = a[a != 0]
    return float(np.sum(v.real**2 + v.imag**2)) * width


def ref_metrics(h: HybridState, n_data: int) -> StepMetrics:
    """The step metrics of h read off its table, the data purity always
    recomputed as Tr(rho^2) of the whole reduced density."""
    a = table(h)
    rho = ref_hybrid_reduced_density(h, range(n_data))
    cols = np.flatnonzero((a != 0).any(axis=0))
    return StepMetrics(
        ancilla_residual=_weight(a[(np.arange(a.shape[0]) >> n_data) != 0], h.width),
        data_purity=float(np.real(np.sum(rho * rho.T))),
        cv_level=h.level,
        joint_cells=int(cols[-1] - cols[0]) + 1 if cols.size else 1,
        entries=int(np.count_nonzero(a)),
        norm2=_weight(a, h.width),
    )


def ref_run_step(h: HybridState, step: ProgramStep, n_data: int) -> Tuple[HybridState, StepMetrics]:
    """One program step on the table: the op by its gate kernel or whole
    2^n vector, then each listed ancilla, in increasing order, erased by
    the four reference gates; with the metrics of the result."""
    op = step.op
    if isinstance(op, GateOp) and op.name in SINGLE_QUBIT_GATES:
        h = ref_apply_qubit_gate(h, op.targets[0], SINGLE_QUBIT_GATES[op.name])
    elif isinstance(op, GateOp):
        h = ref_apply_gate(h, op.name, *op.targets)
    else:
        lift = build_reversible(op.table, op.mode)
        h = ref_apply_basis_permutation(
            h, ref_register_permutation(lift, op.x_qubits, op.y_qubits, h.n_qubits)
        )
    for q in sorted(step.clean):
        h = ref_erase(h, q)
    return h, ref_metrics(h, n_data)


def ref_tensor_oracle(pairs) -> DyadicWave:
    """Cell k is 2^{n/2} times c_i(bit i of k) for each pair in turn,
    c_i(0) = a_i and c_i(1) = b_i, each factor read off k itself."""
    n = len(pairs)
    k = np.arange(1 << n)
    vals = np.full(1 << n, 2.0 ** (n / 2.0), dtype=np.complex128)
    for i, (a, b) in enumerate(pairs):
        vals = vals * np.where((k >> i) & 1 == 1, complex(b), complex(a))
    return DyadicWave(n, 0, vals)


def ref_value_at(w: DyadicWave, x: float) -> complex:
    """The value of w at one position: half-open cells, zero outside."""
    k = int(np.floor(x * (1 << w.level))) - w.offset
    return complex(w.coeffs[k]) if 0 <= k < w.n_cells else 0j


def ref_dilation_generator(g: GridWave) -> GridWave:
    """sqrt(2)*psi(2x) via the exponential of i*ln2/2*(XP + PX).

    X is the diagonal of sample positions and P the spectral derivative
    matrix.  The generator G = XP + PX is Hermitian, so with G = V diag(w)
    V^H the propagator applies as V (exp(i*ln2/2*w) * (V^H psi)), which is
    unitary up to rounding.  Accurate for smooth waves supported well
    inside the window; accuracy degrades silently on discontinuous input.
    """
    n = g.n
    x = g.positions()
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=g.h)
    f = np.fft.fft(np.eye(n), axis=0)
    p = np.fft.ifft(k[:, None] * f, axis=0)
    xp = x[:, None] * p
    gen = xp + xp.conj().T  # PX = (XP)^dagger since X real diagonal, P Hermitian
    w, v = np.linalg.eigh(gen)
    coeffs = np.exp(1j * (np.log(2.0) / 2.0) * w) * (v.conj().T @ g.samples)
    return GridWave(g.x_min, g.h, v @ coeffs)
