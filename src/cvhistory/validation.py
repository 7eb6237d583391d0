"""Named property suites over every module, in a fixed registry order.

Each suite draws its own deterministic generator from (seed, registry
index), runs a bounded number of trials, and reports the worst observed
error against its tolerance.  Exact-identity suites report a mismatch
count with tolerance zero.  The CLI validate command and the acceptance
tests both run through this registry so they cannot drift apart.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from . import qubits
from .dyadic import (
    DyadicWave,
    indicator_unit,
    inner,
    max_abs_diff,
    norm2 as wave_norm2,
    project,
    refine,
    squeeze,
    translate_int,
    value_at,
)
from .erasure import (
    GridHybrid,
    HybridState,
    cond_flip,
    cond_translate,
    erase,
    erase_sequence,
    grid_erase,
    hybrid_reduced_density,
    lift,
    squeeze_all,
    tensor_oracle,
    unfold,
)
from .grid import (
    GridWave,
    dilation_generator,
    translate_shift,
    translate_spectral,
)
from .processor import (
    GateOp,
    ProgramStep,
    TableOp,
    init,
    resource_report,
    run_step,
)
from .qubits import RegisterState, apply_permutation, apply_single_qubit, basis_state, purity
from .revcomp import (
    SubtractMode,
    TruthTable,
    as_register_permutation,
    build_reversible,
    check_involution,
    eval_forward,
)
from .serialize import format_float


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    trials: int
    max_error: float
    tolerance: float
    passed: bool


# quoted: evaluating np.random.Generator here would import numpy.random
# into every command, not only validate
SuiteFn = Callable[["np.random.Generator"], Tuple[int, float]]


# ---------------------------------------------------------------------------
# Shared random builders
# ---------------------------------------------------------------------------


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_unit_wave(rng: np.random.Generator, max_level: int = 6) -> DyadicWave:
    level = int(rng.integers(1, max_level + 1))
    n = 1 << level
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    c = c / np.sqrt(wave_norm2(DyadicWave(level, 0, c)))
    return DyadicWave(level, 0, c)


def _random_wave(rng: np.random.Generator) -> DyadicWave:
    level = int(rng.integers(0, 5))
    n_cells = int(rng.integers(1, 9))
    offset = int(rng.integers(-8, 9))
    c = rng.normal(size=n_cells) + 1j * rng.normal(size=n_cells)
    return DyadicWave(level, offset, c)


def _random_hybrid(rng: np.random.Generator, unit: bool = False) -> HybridState:
    """1 to 4 qubits at level 1 to 6; with ``unit``, dense over [0,1)."""
    n = int(rng.integers(1, 5))
    level = int(rng.integers(1, 7))
    if unit:
        offset, n_cells = 0, 1 << level
    else:
        n_cells = int(rng.integers(1, 9))
        offset = int(rng.integers(-4, 5))
    a = rng.normal(size=(1 << n, n_cells)) + 1j * rng.normal(size=(1 << n, n_cells))
    # the norm2 of the state of a: its entries are a's values in a's order
    scale = 1.0 / np.sqrt(float(np.sum(a.real**2 + a.imag**2)) * 2.0 ** (-level))
    return HybridState.from_table(n, level, offset, a * scale)


def _random_pair(rng: np.random.Generator) -> Tuple[complex, complex]:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


def _random_table(rng: np.random.Generator, n_in: int, m_out: int) -> TruthTable:
    outputs = rng.integers(0, 1 << m_out, size=1 << n_in)
    return TruthTable(n_in, m_out, tuple(int(v) for v in outputs))


def _overlay(w1: DyadicWave, w2: DyadicWave) -> DyadicWave:
    from .dyadic import aligned_pair

    level, lo, c1, c2 = aligned_pair(w1, w2)
    return DyadicWave(level, lo, c1 + c2)


# ---------------------------------------------------------------------------
# qubit register suites
# ---------------------------------------------------------------------------


def suite_qubit_norm_preservation(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        state = RegisterState(n, _random_state(rng, n))
        if rng.integers(0, 2):
            out = apply_single_qubit(state, int(rng.integers(0, n)), _random_unitary(rng, 2))
        else:
            out = apply_permutation(state, rng.permutation(1 << n))
        worst = max(worst, abs(out.norm2() - 1.0))
    return 100, worst


def suite_qubit_permutation_inverse(rng):
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        state = RegisterState(n, _random_state(rng, n))
        perm = rng.permutation(1 << n)
        back = apply_permutation(apply_permutation(state, perm), np.argsort(perm))
        worst = max(worst, float(np.max(np.abs(back.amps - state.amps))))
    return 50, worst


def suite_qubit_full_density_projector(rng):
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        state = RegisterState(n, _random_state(rng, n))
        rho = qubits.trace_out(state.amps, n, set(range(n)))
        proj = np.outer(state.amps, state.amps.conj())
        worst = max(worst, float(np.max(np.abs(rho.entries - proj))))
        worst = max(worst, abs(purity(rho) - 1.0))
    return 50, worst


# ---------------------------------------------------------------------------
# dyadic wave suites
# ---------------------------------------------------------------------------


def suite_dyadic_norm_rules(rng):
    worst = 0.0
    for _ in range(100):
        w = _random_wave(rng)
        base = wave_norm2(w)
        if base == 0.0:
            continue
        t = int(rng.integers(-5, 6))
        worst = max(worst, abs(wave_norm2(translate_int(w, t)) - base) / base)
        worst = max(worst, abs(wave_norm2(squeeze(w)) - base) / base)
        a = int(np.floor(w.x_min)) - 1
        b = a + int(rng.integers(1, 4))
        worst = max(worst, max(0.0, wave_norm2(project(w, a, b)) - base) / base)
    return 100, worst


def suite_dyadic_translate_inverse(rng):
    bad = 0
    for _ in range(100):
        w = _random_wave(rng)
        t = int(rng.integers(-6, 7))
        if translate_int(translate_int(w, t), -t) != w:
            bad += 1
    return 100, float(bad)


def suite_dyadic_refine_commutes(rng):
    worst = 0.0
    for _ in range(100):
        w = _random_wave(rng)
        target = w.level + int(rng.integers(0, 4))
        t = int(rng.integers(-4, 5))
        worst = max(
            worst,
            max_abs_diff(refine(translate_int(w, t), target), translate_int(refine(w, target), t)),
        )
        a = int(np.floor(w.x_min)) - 1
        b = a + int(rng.integers(1, 5))
        worst = max(
            worst, max_abs_diff(refine(project(w, a, b), target), project(refine(w, target), a, b))
        )
        worst = max(
            worst,
            max_abs_diff(refine(squeeze(w), target + 1), squeeze(refine(w, target))),
        )
    return 100, worst


def suite_dyadic_project_idempotent(rng):
    bad = 0
    for _ in range(100):
        w = _random_wave(rng)
        a = int(np.floor(w.x_min)) - 1
        b = a + int(rng.integers(1, 5))
        once = project(w, a, b)
        if project(once, a, b) != once:
            bad += 1
    return 100, float(bad)


def suite_dyadic_squeeze_halves_support(rng):
    bad = 0
    for _ in range(100):
        w = _random_wave(rng)
        if squeeze(w).support_measure() != w.support_measure() / 2.0:
            bad += 1
    return 100, float(bad)


# ---------------------------------------------------------------------------
# grid backend suites
# ---------------------------------------------------------------------------


def _band_limited(rng, x_min, h, n) -> GridWave:
    spectrum = np.zeros(n, dtype=np.complex128)
    cut = n // 8
    idx = np.r_[0:cut, n - cut : n]
    spectrum[idx] = rng.normal(size=2 * cut) + 1j * rng.normal(size=2 * cut)
    samples = np.fft.ifft(spectrum)
    samples = samples / np.sqrt(GridWave(x_min, h, samples).norm2())
    return GridWave(x_min, h, samples)


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    ref = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / (ref if ref else 1.0))


def suite_grid_spectral_roundtrip(rng):
    worst = 0.0
    for _ in range(20):
        g = _band_limited(rng, -2.0, 4.0 / 1024, 1024)
        a = float(rng.uniform(-1.5, 1.5))
        back = translate_spectral(translate_spectral(g, a), -a)
        worst = max(worst, _rel_l2(back.samples, g.samples))
    return 20, worst


def suite_grid_spectral_matches_shift(rng):
    x_min, h = -2.0, 4.0 / 4096
    x = x_min + h * np.arange(4096)
    worst = 0.0
    for _ in range(5):
        center = float(rng.uniform(-0.9, -0.3))
        width = float(rng.uniform(0.05, 0.12))
        # float_power rounds as a Python float's ** does; ** 2 on an array
        # squares, which differs in the last bit at some positions
        g = GridWave(x_min, h, np.exp(-np.float_power(x - center, 2) / (2 * width**2)))
        via_spectral = translate_spectral(g, 1.0)
        hard = translate_shift(g, 1)
        worst = max(worst, _rel_l2(via_spectral.samples, hard.samples))
    return 5, worst


def _times(vals: np.ndarray, s: complex) -> np.ndarray:
    """``vals * s`` rounded as a Python complex product is: each part from
    two separate real products, never fused into one multiply-add."""
    out = np.empty(vals.shape, dtype=np.complex128)
    out.real = np.subtract(vals.real * s.real, vals.imag * s.imag)
    out.imag = np.add(vals.real * s.imag, vals.imag * s.real)
    return out


def suite_grid_pipeline_cross_check(rng):
    n, x_min, h = 4096, -2.0, 4.0 / 1024.0
    positions = x_min + h * np.arange(n)
    worst = 0.0
    for _ in range(3):
        alpha, beta = _random_pair(rng)
        w = _random_unit_wave(rng, max_level=5)
        hd = HybridState.from_table(1, w.level, 0, np.vstack([alpha * w.coeffs, beta * w.coeffs]))
        exact = erase(hd, 0)
        vals = value_at(w, positions)
        rows = np.vstack([_times(vals, alpha), _times(vals, beta)])
        gh = GridHybrid(1, x_min, h, rows)
        approx = grid_erase(gh, 0)
        expect = np.vstack([value_at(exact.row_wave(q), positions) for q in range(2)])
        num = np.sqrt(h * np.sum(np.abs(approx.amps - expect) ** 2))
        den = np.sqrt(h * np.sum(np.abs(expect) ** 2))
        worst = max(worst, float(num / den))
    return 3, worst


def suite_grid_dilation_generator(rng):
    n, x_min = 512, -12.0
    h = 24.0 / n
    x = x_min + h * np.arange(n)
    got = dilation_generator(GridWave(x_min, h, np.pi**-0.25 * np.exp(-(x**2) / 2.0)))
    want = np.sqrt(2.0) * np.pi**-0.25 * np.exp(-((2.0 * x) ** 2) / 2.0)
    return 1, _rel_l2(got.samples, want)


# ---------------------------------------------------------------------------
# erasure suites
# ---------------------------------------------------------------------------


def suite_hybrid_unitarity(rng):
    worst = 0.0
    for _ in range(100):
        h = _random_hybrid(rng)
        q = int(rng.integers(0, h.n_qubits))
        t = int(rng.integers(-2, 3))
        for out in (
            cond_translate(h, q, t),
            cond_flip(h, q),
            _flip_inside_one_two(h, q),
            squeeze_all(h),
            unfold(h, q),
        ):
            worst = max(worst, abs(out.norm2() - 1.0))
        hu = _random_hybrid(rng, unit=True)
        worst = max(worst, abs(erase(hu, int(rng.integers(0, hu.n_qubits))).norm2() - 1.0))
    return 100, worst


def suite_hybrid_flip_involution(rng):
    bad = 0
    for _ in range(100):
        h = _random_hybrid(rng)
        q = int(rng.integers(0, h.n_qubits))
        for flip in (cond_flip, _flip_inside_one_two):
            if flip(flip(h, q), q) != h:
                bad += 1
    return 100, float(bad)


def suite_hybrid_translate_inverse(rng):
    bad = 0
    for _ in range(100):
        h = _random_hybrid(rng)
        q = int(rng.integers(0, h.n_qubits))
        t = int(rng.integers(-3, 4))
        if cond_translate(cond_translate(h, q, t), q, -t) != h:
            bad += 1
    return 100, float(bad)


def suite_unfold_superposition_contract(rng):
    worst = 0.0
    for _ in range(100):
        alpha, beta = _random_pair(rng)
        w = _random_unit_wave(rng)
        h = HybridState.from_table(1, w.level, 0, np.vstack([alpha * w.coeffs, beta * w.coeffs]))
        out = unfold(h, 0)
        expect = _overlay(
            DyadicWave(w.level, 0, alpha * w.coeffs),
            translate_int(DyadicWave(w.level, 0, beta * w.coeffs), 1),
        )
        worst = max(worst, max_abs_diff(out.row_wave(0), expect))
        worst = max(worst, float(np.max(np.abs(out.amps[out.rows == 1]), initial=0.0)))
    return 100, worst


def suite_erase_contract(rng):
    worst = 0.0
    for _ in range(100):
        alpha, beta = _random_pair(rng)
        w = _random_unit_wave(rng)
        h = HybridState.from_table(1, w.level, 0, np.vstack([alpha * w.coeffs, beta * w.coeffs]))
        out = erase(h, 0)
        sq = squeeze(w)
        expect = _overlay(
            DyadicWave(sq.level, sq.offset, alpha * sq.coeffs),
            DyadicWave(sq.level, sq.offset + (1 << w.level), beta * sq.coeffs),
        )
        worst = max(worst, max_abs_diff(out.row_wave(0), expect))
        worst = max(worst, float(np.max(np.abs(out.amps[out.rows == 1]), initial=0.0)))
    return 100, worst


def _flip_inside_one_two(h: HybridState, q: int) -> HybridState:
    """The reset flip's other convention, a reference for cond_flip: X on
    qubit q only on the cells inside [1,2).  The two agree on support
    inside [0,2), which is all that erase flips."""
    unit = 1 << h.level
    inside = (h.cells >= unit) & (h.cells < 2 * unit)
    return HybridState(h.n_qubits, h.level, np.where(inside, h.rows ^ (1 << q), h.rows), h.cells, h.amps)


def suite_flip_variant_agreement(rng):
    bad = 0
    for _ in range(100):
        level = int(rng.integers(1, 6))
        n_cells = 1 << (level + 1)  # exactly covers [0, 2)
        a = rng.normal(size=(4, n_cells)) + 1j * rng.normal(size=(4, n_cells))
        h = HybridState.from_table(2, level, 0, a)
        q = int(rng.integers(0, 2))
        if cond_flip(h, q) != _flip_inside_one_two(h, q):
            bad += 1
        hu = _random_hybrid(rng, unit=True)
        qu = int(rng.integers(0, hu.n_qubits))
        reference = cond_translate(_flip_inside_one_two(cond_translate(hu, qu, 1), qu), qu, -1)
        if unfold(hu, qu) != reference:
            bad += 1
    return 100, float(bad)


def _product_register(pairs) -> RegisterState:
    amps = np.array([1.0], dtype=np.complex128)
    for a, b in pairs:  # factor i lands at bit i
        amps = np.kron(np.array([a, b], dtype=np.complex128), amps)
    return RegisterState(len(pairs), amps)


def suite_erase_oracle_equivalence(rng):
    worst = 0.0
    trials = 0
    for n in (3, 6, 9, 12):
        pairs = [_random_pair(rng) for _ in range(n)]
        h = lift(_product_register(pairs), indicator_unit(0))
        final, trace = erase_sequence(h, list(range(n)))
        for step in trace:
            worst = max(worst, step.ancilla_residual)
        expect = tensor_oracle(pairs)
        worst = max(worst, max_abs_diff(final.row_wave(0), expect))
        if final.level != n:
            worst = max(worst, 1.0)
        trials += 1
    return trials, worst


def suite_history_branch_orthogonality(rng):
    worst = 0.0
    n_bits = 4
    waves = []
    for b in range(1 << n_bits):
        pairs = [
            ((0.0, 1.0) if (b >> i) & 1 else (1.0, 0.0)) for i in range(n_bits)
        ]
        waves.append(tensor_oracle([(complex(p[0]), complex(p[1])) for p in pairs]))
    count = 0
    for i in range(len(waves)):
        for j in range(i + 1, len(waves)):
            worst = max(worst, abs(inner(waves[i], waves[j])))
            count += 1
    return count, worst


def suite_decoherence_branch_overlap(rng):
    worst = 0.0
    for _ in range(20):
        alpha, beta = _random_pair(rng)
        w = _random_unit_wave(rng, max_level=4)
        inv = 1.0 / np.sqrt(2.0)
        # data q0; ancilla q1 is |0> on the data-0 branch, |+> on the data-1 branch
        amps = np.vstack(
            [alpha * w.coeffs, beta * inv * w.coeffs, 0.0 * w.coeffs, beta * inv * w.coeffs]
        )
        h = HybridState.from_table(2, w.level, 0, amps)
        out = erase(h, 1)
        rho = hybrid_reduced_density(out, {0})
        w0 = erase(
            HybridState.from_table(1, w.level, 0, np.vstack([w.coeffs, 0.0 * w.coeffs])), 0
        ).row_wave(0)
        w1 = erase(
            HybridState.from_table(1, w.level, 0, np.vstack([inv * w.coeffs, inv * w.coeffs])), 0
        ).row_wave(0)
        predicted = alpha * np.conj(beta) * inner(w1, w0)
        worst = max(worst, abs(rho.entries[0, 1] - predicted))
        worst = max(worst, abs(out.norm2() - 1.0))
    return 20, worst


# ---------------------------------------------------------------------------
# reversible truth-table suites
# ---------------------------------------------------------------------------


def suite_revcomp_involution(rng):
    bad = 0
    trials = 0
    for _ in range(10):
        n_in = int(rng.integers(1, 7))
        m_out = int(rng.integers(1, min(7, 13 - n_in)))
        tt = _random_table(rng, n_in, m_out)
        for mode in SubtractMode:
            ok, witness = check_involution(build_reversible(tt, mode))
            trials += 1
            if not ok:
                bad += 1
    # beyond the exhaustive window: spot-check a 16-bit permutation
    tt = _random_table(rng, 8, 8)
    for mode in SubtractMode:
        p = build_reversible(tt, mode)
        xs = rng.integers(0, 1 << 8, size=1000)
        ys = rng.integers(0, 1 << 8, size=1000)
        for x, y in zip(xs, ys):
            x1, y1 = p.apply(int(x), int(y))
            if p.apply(x1, y1) != (int(x), int(y)):
                bad += 1
        trials += 1
    return trials, float(bad)


def suite_revcomp_forward_agreement(rng):
    bad = 0
    trials = 0
    for _ in range(10):
        n_in = int(rng.integers(1, 6))
        m_out = int(rng.integers(1, 6))
        tt = _random_table(rng, n_in, m_out)
        for mode in SubtractMode:
            p = build_reversible(tt, mode)
            for x in range(1 << n_in):
                for y in range(1 << m_out):
                    if p.apply(x, y) != eval_forward(tt, mode, x, y):
                        bad += 1
            trials += 1
    return trials, float(bad)


def suite_revcomp_uncompute_identity(rng):
    worst = 0.0
    for _ in range(20):
        n_in = int(rng.integers(1, 5))
        m_out = int(rng.integers(1, 5))
        tt = _random_table(rng, n_in, m_out)
        mode = SubtractMode.XOR if rng.integers(0, 2) else SubtractMode.MOD_SUB
        n = n_in + m_out
        perm = as_register_permutation(
            build_reversible(tt, mode), range(n_in), range(n_in, n), n, np.arange(1 << n)
        )
        state = RegisterState(n, _random_state(rng, n))
        back = apply_permutation(apply_permutation(state, perm), perm)
        worst = max(worst, float(np.max(np.abs(back.amps - state.amps))))
    return 20, worst


def suite_revcomp_clean_evaluation(rng):
    bad = 0
    trials = 0
    for _ in range(10):
        n_in = int(rng.integers(1, 5))
        m_out = int(rng.integers(1, 5))
        tt = _random_table(rng, n_in, m_out)
        for mode in SubtractMode:
            p = build_reversible(tt, mode)
            for x in range(1 << n_in):
                want_y = tt(x) if mode is SubtractMode.XOR else tt(x) % (1 << m_out)
                if p.apply(x, 0) != (x, want_y):
                    bad += 1
            trials += 1
    return trials, float(bad)


# ---------------------------------------------------------------------------
# processor suites
# ---------------------------------------------------------------------------


def _random_program_run(rng, n_steps=4):
    n_data = 2
    data_basis = int(rng.integers(0, 1 << n_data))
    ps = init(n_data, 1, basis_state(n_data, data_basis), cv_level=0)
    bits = []
    metrics = []
    x = data_basis
    for _ in range(n_steps):
        tt = _random_table(rng, n_data, 1)
        step = ProgramStep(
            op=TableOp(tt, SubtractMode.XOR, tuple(range(n_data)), (n_data,)),
            clean=(n_data,),
        )
        ps, m = run_step(ps, step)
        bits.append(tt(x))
        metrics.append(m)
    return ps, bits, metrics, data_basis


def suite_processor_ancilla_exactness(rng):
    worst = 0.0
    trials = 0
    for _ in range(10):
        _, _, metrics, _ = _random_program_run(rng)
        for m in metrics:
            worst = max(worst, m.ancilla_residual)
            trials += 1
    return trials, worst


def suite_processor_level_accounting(rng):
    bad = 0
    for _ in range(10):
        n_steps = int(rng.integers(1, 6))
        ps, _, metrics, _ = _random_program_run(rng, n_steps=n_steps)
        if metrics[-1].cv_level != n_steps:
            bad += 1
        rep = resource_report(
            [ProgramStep(op=GateOp("X", (2,)), clean=(2,))] * n_steps, cv_level=0
        )
        if rep.cv_final_level != n_steps:
            bad += 1
    return 10, float(bad)


def suite_processor_history_fidelity(rng):
    worst = 0.0
    for _ in range(10):
        ps, bits, _, data_basis = _random_program_run(rng, n_steps=5)
        pairs = [((1 + 0j), 0j) if not b else (0j, (1 + 0j)) for b in bits]
        expect = tensor_oracle(pairs)
        got = ps.hybrid.row_wave(data_basis)
        worst = max(worst, max_abs_diff(got, expect))
    return 10, worst


def suite_processor_purity_monotone(rng):
    """Checks a purity recomputed from the state at every step, so a step
    that reports a carried value is held to the state too."""
    worst = 0.0
    inv = 1.0 / np.sqrt(2.0)

    def step(ps, op):
        ps, m = run_step(ps, ProgramStep(op=op, clean=(1,)))
        fresh = purity(hybrid_reduced_density(ps.hybrid, {0}))
        return ps, fresh, abs(m.data_purity - fresh)

    for _ in range(10):
        # correlated cleanup: purity must never increase
        plus = RegisterState(1, np.array([inv, inv], dtype=complex))
        ps = init(1, 1, plus, cv_level=0)
        last = 1.0
        for _step in range(3):
            ps, fresh, err = step(ps, GateOp("CNOT", (0, 1)))
            worst = max(worst, err, max(0.0, fresh - last - 1e-15))
            last = fresh
        # product-state cleanup: purity constant
        ps = init(1, 1, plus, cv_level=0)
        for _step in range(3):
            ps, fresh, err = step(ps, GateOp("X", (1,)))
            worst = max(worst, err, abs(fresh - 1.0))
    return 10, worst


def suite_processor_norm_stability(rng):
    worst = 0.0
    for _ in range(10):
        _, _, metrics, _ = _random_program_run(rng)
        for m in metrics:
            worst = max(worst, abs(m.norm2 - 1.0))
    return 10, worst


# ---------------------------------------------------------------------------
# output formatting suite
# ---------------------------------------------------------------------------


def suite_float_roundtrip_17g(rng):
    bad = 0
    vals = np.concatenate(
        [
            rng.normal(size=400),
            rng.normal(size=300) * 1e-200,
            rng.normal(size=300) * 1e200,
        ]
    )
    for v in vals:
        if float(format_float(float(v))) != float(v):
            bad += 1
    return len(vals), float(bad)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXACT = 0.0

SUITES: List[Tuple[str, SuiteFn, float]] = [
    ("qubit_norm_preservation", suite_qubit_norm_preservation, 1e-12),
    ("qubit_permutation_inverse", suite_qubit_permutation_inverse, 1e-15),
    ("qubit_full_density_projector", suite_qubit_full_density_projector, 1e-12),
    ("dyadic_norm_rules", suite_dyadic_norm_rules, 1e-15),
    ("dyadic_translate_inverse", suite_dyadic_translate_inverse, EXACT),
    ("dyadic_refine_commutes", suite_dyadic_refine_commutes, 1e-15),
    ("dyadic_project_idempotent", suite_dyadic_project_idempotent, EXACT),
    ("dyadic_squeeze_halves_support", suite_dyadic_squeeze_halves_support, EXACT),
    ("grid_spectral_roundtrip", suite_grid_spectral_roundtrip, 1e-9),
    ("grid_spectral_matches_shift", suite_grid_spectral_matches_shift, 1e-9),
    ("grid_pipeline_cross_check", suite_grid_pipeline_cross_check, 1e-9),
    ("grid_dilation_generator", suite_grid_dilation_generator, 1e-4),
    ("hybrid_unitarity", suite_hybrid_unitarity, 1e-12),
    ("hybrid_flip_involution", suite_hybrid_flip_involution, EXACT),
    ("hybrid_translate_inverse", suite_hybrid_translate_inverse, EXACT),
    ("unfold_superposition_contract", suite_unfold_superposition_contract, 1e-15),
    ("erase_contract", suite_erase_contract, 1e-15),
    ("flip_variant_agreement", suite_flip_variant_agreement, EXACT),
    ("erase_oracle_equivalence", suite_erase_oracle_equivalence, 1e-12),
    ("history_branch_orthogonality", suite_history_branch_orthogonality, EXACT),
    ("decoherence_branch_overlap", suite_decoherence_branch_overlap, 1e-12),
    ("revcomp_involution", suite_revcomp_involution, EXACT),
    ("revcomp_forward_agreement", suite_revcomp_forward_agreement, EXACT),
    ("revcomp_uncompute_identity", suite_revcomp_uncompute_identity, 1e-15),
    ("revcomp_clean_evaluation", suite_revcomp_clean_evaluation, EXACT),
    ("processor_ancilla_exactness", suite_processor_ancilla_exactness, 1e-15),
    ("processor_level_accounting", suite_processor_level_accounting, EXACT),
    ("processor_history_fidelity", suite_processor_history_fidelity, 1e-12),
    ("processor_purity_monotone", suite_processor_purity_monotone, 1e-12),
    ("processor_norm_stability", suite_processor_norm_stability, 1e-12),
    ("float_roundtrip_17g", suite_float_roundtrip_17g, EXACT),
]

SUITE_NAMES = [name for name, _, _ in SUITES]


def run_suite(name: str, seed: int) -> SuiteResult:
    for idx, (n, fn, tol) in enumerate(SUITES):
        if n == name:
            rng = np.random.default_rng([seed, idx])
            trials, max_error = fn(rng)
            return SuiteResult(name, trials, float(max_error), tol, max_error <= tol)
    raise KeyError(f"unknown suite {name!r}")


def run_all(seed: int) -> List[SuiteResult]:
    return [run_suite(name, seed) for name, _, _ in SUITES]
