"""Hybrid states, conditional gates, the erasure pipeline, and its oracle."""
import copy
import warnings

import numpy as np
import pytest

from cvhistory.dyadic import DyadicWave, indicator_unit, inner, max_abs_diff, refine, translate_int, value_at
from cvhistory.dyadic import norm2 as wave_norm2
from cvhistory.dyadic import squeeze as wave_squeeze
from cvhistory.errors import ContractError, DomainError, ResourceLimitError, ValidationError
from cvhistory.erasure import (
    FACTOR_TOL,
    GridHybrid,
    HybridState,
    apply_basis_permutation,
    apply_qubit_gate,
    apply_row_phases,
    cond_flip,
    cond_translate,
    cv_factor,
    erase,
    erase_sequence,
    grid_cond_flip,
    grid_cond_translate,
    grid_erase,
    grid_squeeze_all,
    hybrid_reduced_density,
    lift,
    residual_weight,
    squeeze_all,
    tensor_oracle,
    unfold,
)
from cvhistory import dyadic, erasure, qubits, validation
from cvhistory.grid import GridWave, sample_function, translate_shift
from cvhistory.qubits import RegisterState, basis_state, purity, trace_out
from cvhistory.revcomp import SubtractMode, as_register_permutation, build_reversible, named_table
from dense_reference import (
    full_register,
    hull_wave,
    ref_apply_basis_permutation,
    ref_apply_qubit_gate,
    ref_apply_row_phases,
    ref_cond_flip,
    ref_cond_translate,
    ref_cv_factor,
    ref_erase,
    ref_hybrid_reduced_density,
    ref_lift,
    ref_squeeze_all,
    ref_tensor_oracle,
    ref_value_at,
    table,
)

SQRT1_2 = 1.0 / np.sqrt(2.0)
SQRT2 = np.sqrt(2.0)


def random_pair(rng: np.random.Generator) -> tuple:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


def random_unit_wave(rng: np.random.Generator, level: int) -> DyadicWave:
    """Normalized random wave supported inside [0,1) at the given level."""
    c = rng.normal(size=1 << level) + 1j * rng.normal(size=1 << level)
    w = DyadicWave(level, 0, c)
    return DyadicWave(level, 0, c / np.sqrt(wave_norm2(w)))


def random_hybrid(rng: np.random.Generator, n: int, level: int) -> HybridState:
    k = int(rng.integers(1, 5))
    offset = int(rng.integers(-4, 4))
    a = rng.normal(size=(1 << n, k)) + 1j * rng.normal(size=(1 << n, k))
    h = HybridState.from_table(n, level, offset, a)
    return HybridState.from_table(n, level, offset, a / np.sqrt(h.norm2()))


def product_register(pairs) -> RegisterState:
    amps = np.array([1.0 + 0j])
    for a, b in pairs:
        amps = np.kron(np.array([a, b]), amps)  # factor i sits at bit i
    return RegisterState(len(pairs), amps)


class TestHybridState:
    def test_column_trimming(self):
        h = HybridState.from_table(1, 0, 5, [[0, 1, 0], [0, 0, 0]])
        assert h.offset == 6 and h.n_cells == 1

    def test_zero_state_pinned(self):
        h = HybridState.from_table(1, 2, 9, np.zeros((2, 3)))
        assert h.offset == 0 and h.n_cells == 1

    def test_norm2(self):
        h = HybridState.from_table(1, 1, 0, [[1.0, 0.0], [0.0, 1.0]])
        assert h.norm2() == 1.0

    def test_row_wave(self):
        h = HybridState.from_table(1, 0, 2, [[3.0], [4.0]])
        assert h.row_wave(1) == DyadicWave(0, 2, [4.0])

    def test_entries_canonical(self):
        # unsorted, with an exact zero and a negative cell
        h = HybridState(2, 1, [3, 0, 1, 0], [5, 7, 2, -1], [1.0, 2.0, 0.0, 3j])
        assert h.rows.tolist() == [0, 0, 3] and h.cells.tolist() == [-1, 7, 5]
        assert h.amps.tolist() == [3j, 2.0, 1.0]
        assert h.offset == -1 and h.n_cells == 9
        assert h == HybridState(2, 1, h.rows, h.cells, h.amps)
        assert not h.amps.flags.writeable

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValidationError, match="share"):
            HybridState(1, 0, [1, 0, 1], [2, 0, 2], [1.0, 1.0, 2.0])

    @pytest.mark.parametrize("rows, cells, amps", [
        ([2], [0], [1.0]),  # row outside 2^1
        ([-1], [0], [1.0]),
        ([0, 1], [0], [1.0, 1.0]),  # lengths differ
        ([0], [0], [np.nan]),
    ])
    def test_bad_entries_rejected(self, rows, cells, amps):
        with pytest.raises(ValidationError):
            HybridState(1, 0, rows, cells, amps)

    def test_table_shape_checked(self):
        with pytest.raises(ValidationError, match="shape"):
            HybridState.from_table(2, 0, 0, np.ones((2, 3)))


class TestLift:
    def test_basis_zero(self):
        h = lift(basis_state(1, 0), indicator_unit(0))
        assert np.array_equal(table(h), [[1.0], [0.0]])

    def test_plus_state(self):
        h = lift(RegisterState(1, [SQRT1_2, SQRT1_2]), indicator_unit(0))
        assert np.allclose(table(h), [[SQRT1_2], [SQRT1_2]], atol=0)

    def test_one_with_level1_wave(self):
        h = lift(basis_state(1, 1), DyadicWave(1, 0, [SQRT2, 0.0]))
        assert h.level == 1 and h.offset == 0
        assert np.allclose(table(h), [[0.0], [SQRT2]], atol=0)

    def test_norm_one(self):
        rng = np.random.default_rng(1)
        reg = RegisterState(2, np.array([0.5, 0.5, 0.5, 0.5]))
        w = random_unit_wave(rng, 3)
        assert abs(lift(reg, w).norm2() - 1.0) <= 1e-12

    def test_matches_whole_outer_product(self):
        # registers with zero amplitudes, waves with zero cells and offsets
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps[rng.random(amps.size) < 0.5] = 0.0
            if not amps.any():
                amps[int(rng.integers(0, amps.size))] = 1.0
            reg = RegisterState(n, amps / np.linalg.norm(amps))
            level = int(rng.integers(0, 4))
            c = rng.normal(size=1 << level) + 1j * rng.normal(size=1 << level)
            c[rng.random(c.size) < 0.3] = 0.0
            c[0] = 1.0
            w = DyadicWave(level, int(rng.integers(-3, 4)), c)
            w = DyadicWave(level, w.offset, w.coeffs / np.sqrt(wave_norm2(w)))
            assert lift(reg, w) == ref_lift(reg, w)

    def test_cells_at_the_int64_edges(self):
        for offset in ((1 << 63) - 2, -(1 << 63)):
            h = lift(RegisterState(1, [0.6, 0.8]), DyadicWave(0, offset, [0.6, 0.8]))
            assert h.rows.tolist() == [0, 0, 1, 1]
            assert h.cells.tolist() == [offset, offset + 1] * 2

    def test_peak_per_entry(self, traced_peak):
        # two rows at level 16, 2^17 entries: the product's three arrays
        # and the constructor's copies of them take 64 B per entry, its
        # checks a few more
        reg, w = RegisterState(1, [0.6, 0.8]), indicator_unit(16)
        with traced_peak() as traced:
            h = lift(reg, w)
        assert h.amps.size == 1 << 17
        assert traced.peak <= 72 * h.amps.size

    def test_unnormalized_rejected(self):
        with pytest.raises(ContractError):
            lift(RegisterState(1, [1.0, 1.0]), indicator_unit(0))
        with pytest.raises(ContractError):
            lift(basis_state(1, 0), DyadicWave(0, 0, [2.0]))


class TestCondTranslate:
    def test_one_branch_moves(self):
        h = lift(basis_state(1, 1), indicator_unit(0))
        out = cond_translate(h, 0, 1)
        assert out.row_wave(1) == translate_int(indicator_unit(0), 1)
        assert out.row_wave(0).is_zero()

    def test_zero_branch_fixed(self):
        h = lift(basis_state(1, 0), indicator_unit(0))
        assert cond_translate(h, 0, 5) == h

    def test_empty_mask_returns_input(self):
        # no stored row has qubit 0 set: the input itself, after the same
        # int64 range check as any other translate
        h = HybridState(2, 0, [0, 2], [0, 1], [0.6, 0.8])
        for t in (1, -1, 1 << 40):
            assert cond_translate(h, 0, t) is h
        empty = HybridState(2, 0, [], [], [])
        assert cond_translate(empty, 1, 3) is empty
        far = HybridState(2, 0, [0], [1 << 62], [1.0])
        with pytest.raises(DomainError, match="int64"):
            cond_translate(far, 0, 1 << 62)

    def test_superposition_splits(self):
        h = lift(RegisterState(1, [SQRT1_2, SQRT1_2]), indicator_unit(0))
        out = cond_translate(h, 0, 1)
        assert out.level == 0 and out.offset == 0 and out.n_cells == 2
        assert np.allclose(table(out), [[SQRT1_2, 0], [0, SQRT1_2]], atol=0)

    def test_inverse_pair_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            h = random_hybrid(rng, 2, int(rng.integers(0, 3)))
            t = int(rng.integers(-3, 4))
            q = int(rng.integers(0, 2))
            assert cond_translate(cond_translate(h, q, t), q, -t) == h

    def test_norm_preserved(self):
        # Values are relocated bit-for-bit; only the float summation order
        # in norm2 differs.
        rng = np.random.default_rng(22)
        h = random_hybrid(rng, 2, 2)
        assert abs(cond_translate(h, 1, 3).norm2() - h.norm2()) <= 1e-15

    def test_cell_limit(self):
        # a translate has no cell limit: its cost is the entries, whatever
        # the hull; only the int64 cells bound the shift
        h = lift(basis_state(1, 1), indicator_unit(4))
        out = cond_translate(h, 0, 1 << 40)
        assert out.n_cells == 16 and out.offset == 1 << 44
        assert out.amps.size == 16
        # a shift that would wrap the cells around past 2^63 - 1
        with pytest.raises(DomainError, match="int64"):
            cond_translate(cond_translate(h, 0, 1 << 58), 0, 1 << 58)

    def test_refused_before_allocating(self, traced_peak):
        # both rows occupied, so the hull spans the whole shift: 2^44 + 16
        # cells, past the byte budget, yet the translate allocates nothing
        # hull-wide; a gate then puts both far-apart cell runs on each row,
        # and the dense view of that row is refused before it is allocated
        h = lift(RegisterState(1, [SQRT1_2, SQRT1_2]), indicator_unit(4))
        with traced_peak() as traced:
            out = apply_qubit_gate(cond_translate(h, 0, 1 << 40), 0, qubits.H)
            with pytest.raises(ResourceLimitError, match="row 0"):
                out.row_wave(0)
        assert out.n_cells == (1 << 44) + 16 and out.amps.size == 64
        assert traced.peak < 1 << 20  # the dense row would take 256 TiB

    def test_wide_hull_translates(self):
        # 256 rows by a hull of 2^20 + 2^10 cells would be a table above the
        # 2^28-byte budget, but the state stores only its 2^18 entries
        amps = np.full((1 << 8, 1 << 10), 1.0 / (1 << 4), dtype=np.complex128)
        h = HybridState.from_table(8, 10, 0, amps)
        out = cond_translate(h, 0, 1 << 10)
        assert out.n_cells == (1 << 20) + (1 << 10)
        assert out.amps.size == h.amps.size


class TestCondFlip:
    def test_flips_outside_unit(self):
        h = lift(basis_state(1, 1), translate_int(indicator_unit(0), 1))
        out = cond_flip(h, 0)
        assert out == lift(basis_state(1, 0), translate_int(indicator_unit(0), 1))

    def test_identity_inside_unit(self):
        h = lift(basis_state(1, 1), indicator_unit(0))
        assert cond_flip(h, 0) == h

    def test_cellwise_action_on_superposition(self):
        h = HybridState.from_table(1, 0, 0, [[SQRT1_2, SQRT1_2], [0, 0]])
        out = cond_flip(h, 0)
        assert np.allclose(table(out), [[SQRT1_2, 0], [0, SQRT1_2]], atol=0)

    def test_inside_variant_ignores_beyond_two(self):
        # the inside-[1,2) flip is validate's reference; cond_flip acts on
        # every cell outside [0,1)
        far = translate_int(indicator_unit(0), 2)  # support [2,3)
        h = lift(basis_state(1, 1), far)
        assert validation._flip_inside_one_two(h, 0) == h
        assert cond_flip(h, 0) == lift(basis_state(1, 0), far)

    @pytest.mark.parametrize(
        "flip",
        [
            pytest.param(cond_flip, id="outside_unit"),
            pytest.param(validation._flip_inside_one_two, id="inside_one_two"),
        ],
    )
    def test_involution_exact(self, flip):
        rng = np.random.default_rng(23)
        for _ in range(20):
            h = random_hybrid(rng, 2, int(rng.integers(0, 3)))
            q = int(rng.integers(0, 2))
            assert flip(flip(h, q), q) == h

    def test_variants_agree_on_zero_two_support(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            level = int(rng.integers(0, 4))
            k = 1 << (level + 1)  # cells covering [0,2)
            a = rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k))
            h = HybridState.from_table(2, level, 0, a)
            q = int(rng.integers(0, 2))
            assert cond_flip(h, q) == validation._flip_inside_one_two(h, q)


class TestSqueezeAll:
    def test_indicator(self):
        h = squeeze_all(lift(basis_state(1, 0), indicator_unit(0)))
        assert h.level == 1 and h.row_wave(0) == DyadicWave(1, 0, [SQRT2])

    def test_norm_invariance(self):
        rng = np.random.default_rng(25)
        h = random_hybrid(rng, 2, 1)
        assert abs(squeeze_all(h).norm2() - h.norm2()) <= 1e-15

    def test_rowwise_matches_wave_squeeze(self):
        rng = np.random.default_rng(26)
        h = random_hybrid(rng, 2, 2)
        out = squeeze_all(h)
        for q in range(4):
            assert out.row_wave(q) == wave_squeeze(h.row_wave(q))

    def test_level_limit(self):
        # 53 is the last level at which a cell edge is exact in a float
        assert squeeze_all(HybridState(1, 52, [0], [0], [1.0])).level == 53
        with pytest.raises(ResourceLimitError, match="max level 53"):
            squeeze_all(HybridState(1, 53, [0], [0], [1.0]))

    def test_overflow_rejected(self):
        # the constructor's refusal is the only signal: no RuntimeWarning
        h = HybridState.from_table(1, 0, 0, [[1.5e308], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                squeeze_all(h)


class TestUnfold:
    def test_known_pair_unfolds_to_halves(self):
        h = lift(RegisterState(1, [0.6, 0.8]), indicator_unit(0))
        out = unfold(h, 0)
        assert out == HybridState.from_table(1, 0, 0, [[0.6, 0.8], [0.0, 0.0]])

    def test_alpha_only_identity(self):
        h = lift(basis_state(1, 0), indicator_unit(0))
        assert unfold(h, 0) == h

    def test_half_cell_wave(self):
        reg = RegisterState(1, [SQRT1_2, SQRT1_2])
        h = lift(reg, DyadicWave(1, 0, [SQRT2, 0.0]))
        out = unfold(h, 0)
        expect = DyadicWave(1, 0, [1.0, 0.0, 1.0, 0.0])
        assert max_abs_diff(out.row_wave(0), expect) <= 1e-15
        assert out.row_wave(1).is_zero()

    def test_contract_random(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            a, b = random_pair(rng)
            w = random_unit_wave(rng, int(rng.integers(0, 7)))
            h = lift(RegisterState(1, [a, b]), w)
            out = unfold(h, 0)
            scale = 1 << w.level
            expect = _overlay(
                DyadicWave(w.level, w.offset, a * w.coeffs),
                DyadicWave(w.level, w.offset + scale, b * w.coeffs),
            )
            assert out.row_wave(1).is_zero()
            assert max_abs_diff(out.row_wave(0), expect) <= 1e-15

    def test_unitarity_general_inputs(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            h = random_hybrid(rng, 3, int(rng.integers(0, 3)))
            q = int(rng.integers(0, 3))
            assert abs(unfold(h, q).norm2() - h.norm2()) <= 1e-12

    def test_variants_agree_on_unit_support(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a, b = random_pair(rng)
            w = random_unit_wave(rng, int(rng.integers(0, 4)))
            h = lift(RegisterState(1, [a, b]), w)
            inside = validation._flip_inside_one_two(cond_translate(h, 0, 1), 0)
            assert unfold(h, 0) == cond_translate(inside, 0, -1)


def _overlay(w1: DyadicWave, w2: DyadicWave) -> DyadicWave:
    """Sum of two waves with disjoint supports, as one wave."""
    from cvhistory.dyadic import aligned_pair

    level, lo, c1, c2 = aligned_pair(w1, w2)
    return DyadicWave(level, lo, c1 + c2)


def _erased_wave(w: DyadicWave, a: complex, b: complex) -> DyadicWave:
    """The closed form of one erase of a|0> + b|1> into w on [0,1):
    sqrt(2) (a psi(2x) + b psi(2x - 1))."""
    sq = wave_squeeze(w)  # sqrt(2) psi(2x), level + 1
    half = 1 << w.level  # 1/2 x-unit in level+1 cells
    return _overlay(
        DyadicWave(sq.level, sq.offset, a * sq.coeffs),
        DyadicWave(sq.level, sq.offset + half, b * sq.coeffs),
    )


class TestErase:
    def test_balanced_pair_gives_indicator(self):
        reg = RegisterState(1, [SQRT1_2, SQRT1_2])
        out = erase(lift(reg, indicator_unit(0)), 0)
        assert out.level == 1 and out.offset == 0
        assert max_abs_diff(out.row_wave(0), indicator_unit(1)) <= 1e-15
        assert out.row_wave(1).is_zero()

    def test_alpha_branch(self):
        out = erase(lift(basis_state(1, 0), indicator_unit(0)), 0)
        assert out.row_wave(0) == DyadicWave(1, 0, [SQRT2])

    def test_beta_branch(self):
        out = erase(lift(basis_state(1, 1), indicator_unit(0)), 0)
        assert out.row_wave(0) == DyadicWave(1, 1, [SQRT2])

    def test_support_violation_reports_cells(self):
        reg = RegisterState(1, [SQRT1_2, SQRT1_2])
        h = lift(reg, translate_int(indicator_unit(0), 1))
        with pytest.raises(ContractError, match=r"\[1,2\)"):
            erase(h, 0)

    def test_hull_edges(self):
        # the stored hull decides: a hull on either edge of [0,1) erases as
        # the four reference gates do; one cell past an edge is refused,
        # naming the cells outside
        rng = np.random.default_rng(33)
        for level in range(4):
            unit = 1 << level
            for offset, k in ((0, unit), (0, 1), (unit - 1, 1)):
                a = rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k))
                h = HybridState.from_table(2, level, offset, a)
                for q in range(2):
                    assert erase(h, q) == ref_erase(h, q)
        refused = {
            (-1, 3): "[-0.5,0)",
            (0, 3): "[1,1.5)",
            (2, 1): "[1,1.5)",
            (-2, 6): "[-1,-0.5), [-0.5,0), [1,1.5), [1.5,2)",
        }
        for (offset, k), cells in refused.items():
            h = HybridState.from_table(1, 1, offset, np.ones((2, k)))
            with pytest.raises(ContractError) as exc:
                erase(h, 0)
            assert str(exc.value) == f"erase requires CV support inside [0,1); nonzero cells at {cells}"

    def test_erased_weight_exactly_zero(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            a, b = random_pair(rng)
            w = random_unit_wave(rng, int(rng.integers(0, 5)))
            out = erase(lift(RegisterState(1, [a, b]), w), 0)
            assert residual_weight(out, 0) == 0.0

    def test_eq5_contract_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a, b = random_pair(rng)
            w = random_unit_wave(rng, int(rng.integers(0, 6)))
            h = lift(RegisterState(1, [a, b]), w)
            out = erase(h, 0)
            assert max_abs_diff(out.row_wave(0), _erased_wave(w, a, b)) <= 1e-15
            assert abs(out.norm2() - 1.0) <= 1e-12

    def test_norm_drift(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            reg_amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            reg = RegisterState(n, reg_amps / np.linalg.norm(reg_amps))
            w = random_unit_wave(rng, 3)
            out = erase(lift(reg, w), int(rng.integers(0, n)))
            assert abs(out.norm2() - 1.0) <= 1e-12

    def test_peak_per_output_entry(self, traced_peak):
        # two rows at level 16, 2^17 output entries of 32 B each: each gate
        # shares the arrays it leaves unchanged, so the erase allocates
        # little beyond its output
        h = lift(RegisterState(1, [0.6, 0.8]), indicator_unit(16))
        with traced_peak() as traced:
            out = erase(h, 0)
        assert out.amps.size == 1 << 17
        assert traced.peak <= 40 * out.amps.size


class TestEraseSequence:
    def test_two_step_example(self):
        reg = product_register([(1.0, 0.0), (0.0, 1.0)])
        final, trace = erase_sequence(lift(reg, indicator_unit(0)), [0, 1])
        assert final.level == 2
        w = final.row_wave(0)
        assert w.offset == 2 and w.n_cells == 1
        assert abs(w.coeffs[0] - 2.0) <= 1e-12
        assert [t.level for t in trace] == [1, 2]
        assert all(t.ancilla_residual == 0.0 for t in trace)

    def test_repeated_alpha_branch(self):
        n = 5
        reg = product_register([(1.0, 0.0)] * n)
        final, _ = erase_sequence(lift(reg, indicator_unit(0)), list(range(n)))
        w = final.row_wave(0)
        assert w.offset == 0 and w.n_cells == 1 and w.level == n
        assert abs(w.coeffs[0] - 2.0 ** (n / 2)) <= 1e-12

    def test_empty_sequence(self):
        h = lift(basis_state(2, 0), indicator_unit(0))
        final, trace = erase_sequence(h, [])
        assert final == h and trace == []

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(33)
        n = 8
        pairs = [random_pair(rng) for _ in range(n)]
        reg = product_register(pairs)
        final, _ = erase_sequence(lift(reg, indicator_unit(0)), list(range(n)))
        assert final.level == n
        assert max_abs_diff(final.row_wave(0), tensor_oracle(pairs)) <= 1e-12
        assert sum(residual_weight(final, q) for q in range(n)) == 0.0


class TestTensorOracle:
    def test_single_alpha(self):
        assert tensor_oracle([(1.0, 0.0)]) == DyadicWave(1, 0, [SQRT2])

    def test_two_step_cell(self):
        w = tensor_oracle([(1.0, 0.0), (0.0, 1.0)])
        assert w == DyadicWave(2, 2, [2.0])

    def test_empty_pairs(self):
        assert tensor_oracle([]) == indicator_unit(0)

    def test_level_limit(self):
        with pytest.raises(ResourceLimitError):
            tensor_oracle([(1.0, 0.0)] * 30)

    def test_past_byte_budget_refused_before_allocation(self, traced_peak):
        # 2^24 cells fill the byte budget; one more pair is refused
        with traced_peak() as traced:
            with pytest.raises(ResourceLimitError, match="level-25 wave"):
                tensor_oracle([(1.0, 0.0)] * 25)
        assert traced.peak < 1 << 20

    def test_matches_the_per_cell_reference_exactly(self):
        # random pairs, and pairs with a zero amplitude, whose zero end
        # cells the constructor trims
        rng = np.random.default_rng(27)
        for n in range(13):
            for pairs in (
                [random_pair(rng) for _ in range(n)],
                [random_pair(rng) if i % 3 else (1.0, 0.0) for i in range(n)],
                [random_pair(rng) if i % 2 else (0.0, 0.6 + 0.8j) for i in range(n)],
            ):
                got, want = tensor_oracle(pairs), ref_tensor_oracle(pairs)
                assert (got.level, got.offset) == (want.level, want.offset)
                assert np.array_equal(got.coeffs, want.coeffs)
                assert not got.coeffs.flags.writeable

    def test_peak_per_output_cell(self, traced_peak):
        # the wave is doubled in place: 16 B per cell, plus the one-byte
        # mask of the finiteness scan
        pairs = [(0.6, 0.8j)] * 16
        with traced_peak() as traced:
            w = tensor_oracle(pairs)
        assert w.n_cells == 1 << 16
        assert traced.peak <= 26 * w.n_cells

    def test_nonfinite_pair_refused(self):
        with pytest.raises(ValidationError, match="coeffs must be finite"):
            tensor_oracle([(0.6, 0.8), (np.nan, 0.5)])

    @pytest.mark.parametrize(
        "pairs", [[(0.6, 0.8), (np.inf, 0.0)], [(1e308, 1e308)] * 3], ids=["inf-times-zero", "overflow"]
    )
    def test_refused_without_a_warning(self, pairs):
        # inf x 0 in a complex product warned "invalid value", and the
        # product of 1e308s "overflow", before the finiteness scan refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="coeffs must be finite"):
                tensor_oracle(pairs)

    def test_branch_orthogonality_exact(self):
        histories = [0b0101, 0b1010, 0b0000, 0b1111]
        waves = []
        for bits in histories:
            pairs = [(0.0, 1.0) if (bits >> i) & 1 else (1.0, 0.0) for i in range(4)]
            waves.append(tensor_oracle(pairs))
        for i in range(len(waves)):
            for j in range(i + 1, len(waves)):
                assert inner(waves[i], waves[j]) == 0

    def test_general_base_matches_pipeline(self):
        # three erases from a random base wave agree with the one-erase
        # closed form applied step by step
        rng = np.random.default_rng(34)
        base = random_unit_wave(rng, 2)
        pairs = [random_pair(rng) for _ in range(3)]
        reg = product_register(pairs)
        final, _ = erase_sequence(lift(reg, base), [0, 1, 2])
        expect = base
        for a, b in pairs:
            expect = _erased_wave(expect, a, b)
        assert max_abs_diff(final.row_wave(0), expect) <= 1e-12


class TestHybridReducedDensity:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(35)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        reg = RegisterState(2, amps / np.linalg.norm(amps))
        h = lift(reg, random_unit_wave(rng, 2))
        for keep in ({0}, {1}, {0, 1}):
            a = hybrid_reduced_density(h, keep).entries
            b = trace_out(reg.amps, 2, keep).entries
            assert np.allclose(a, b, atol=1e-13)

    def test_no_joint_density(self, traced_peak):
        # tracing an 11-qubit table onto 10 qubits holds the 16 MiB partial
        # trace and its width-scaled product, both wrapped without a copy,
        # never the 64 MiB 2^11 x 2^11 joint density
        rng = np.random.default_rng(37)
        amps = rng.normal(size=(1 << 11, 4)) + 1j * rng.normal(size=(1 << 11, 4))
        h = HybridState.from_table(11, 2, 0, amps * (2.0 / np.linalg.norm(amps)))
        with traced_peak() as traced:
            rho = hybrid_reduced_density(h, set(range(10)))
        assert rho.dim == 1 << 10
        assert abs(complex(np.trace(rho.entries)) - 1.0) <= 1e-12
        assert not rho.entries.flags.writeable
        assert traced.peak < 40 << 20

    def test_block_refused_before_allocating(self, traced_peak):
        # 2^20 rows by 512 occupied cells exceed the 2^28-byte budget,
        # although the state stores only 512 entries
        h = HybridState(20, 9, np.arange(512) << 11, np.arange(512), np.ones(512))
        with traced_peak() as traced:
            with pytest.raises(ResourceLimitError, match="reduced density"):
                hybrid_reduced_density(h, {0})
        assert traced.peak < 1 << 20  # the refused block would take 8 GiB

    def test_cnot_erase_decoheres_data(self):
        plus = np.kron([1.0, 0.0], [SQRT1_2, SQRT1_2])  # q0 = |+>, q1 = |0>
        reg = RegisterState(2, plus)
        h = lift(reg, indicator_unit(0))
        cnot = np.array([0, 3, 2, 1])  # control q0, target q1
        h = apply_basis_permutation(h, cnot[h.rows])
        before = hybrid_reduced_density(h, {0, 1})
        assert abs(purity(before) - 1.0) <= 1e-12
        out = erase(h, 1)
        rho = hybrid_reduced_density(out, {0})
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

    def test_offdiagonal_equals_branch_overlap(self):
        # Data branch |0> records ancilla (1,0); branch |1> records the
        # ancilla superposition (1/sqrt2, 1/sqrt2).  The surviving data
        # coherence equals the overlap of the recorded waves.
        alpha = beta = SQRT1_2
        rows = np.array(
            [[alpha], [beta * SQRT1_2], [0.0], [beta * SQRT1_2]], dtype=np.complex128
        )  # bit1 = ancilla, bit0 = data
        hyb = HybridState.from_table(2, 0, 0, rows)
        out = erase(hyb, 1)
        rho = hybrid_reduced_density(out, {0})
        w0 = tensor_oracle([(1.0, 0.0)])
        w1 = tensor_oracle([(SQRT1_2, SQRT1_2)])
        predicted = alpha * np.conj(beta) * complex(inner(w1, w0))
        assert abs(rho.entries[0, 1] - predicted) <= 1e-12
        assert abs(abs(rho.entries[0, 1]) - 0.5 / SQRT2) <= 1e-12


class TestCvFactor:
    def test_product_roundtrip(self):
        rng = np.random.default_rng(36)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        reg = RegisterState(2, amps / np.linalg.norm(amps))
        w = random_unit_wave(rng, 2)
        h = lift(reg, w)
        res = cv_factor(h)
        assert res is not None
        rows, got_reg, cells, values = res
        assert np.array_equal(rows, np.unique(h.rows))
        rebuilt = np.outer(full_register(h, rows, got_reg), hull_wave(h, cells, values))
        assert np.allclose(rebuilt, table(h), atol=1e-12)
        lead = got_reg[np.flatnonzero(np.abs(got_reg) > 1e-12)[0]]
        assert abs(lead.imag) <= 1e-12 and lead.real > 0

    def test_single_row_exact(self):
        h = HybridState.from_table(2, 1, 0, [[0, 0], [0, 0], [0.5, -0.5j], [0, 0]])
        res = cv_factor(h)
        assert res is not None
        rows, got_reg, cells, values = res
        assert np.array_equal(rows, [2]) and np.array_equal(got_reg, [1])
        assert np.array_equal(cells, [0, 1]) and np.array_equal(values, [0.5, -0.5j])

    def test_wave_on_occupied_cells_only(self, traced_peak):
        # one row with two cells 2^40 apart: two values, no hull-wide wave
        h = HybridState(1, 41, [1, 1], [3, 3 + (1 << 40)], [0.5, -0.5j])
        with traced_peak() as traced:
            rows, got_reg, cells, values = cv_factor(h)
        assert np.array_equal(rows, [1]) and np.array_equal(got_reg, [1])
        assert np.array_equal(cells, [3, 3 + (1 << 40)]) and np.array_equal(values, [0.5, -0.5j])
        assert traced.peak < 1 << 20

    def test_entangled_returns_none(self):
        h = HybridState.from_table(1, 1, 0, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert cv_factor(h) is None

    def test_entangled_builds_no_register(self, traced_peak):
        # two entangled entries on 20 qubits: no 2^20-amplitude register
        # (16 MiB) is built
        h = HybridState(20, 1, [0, (1 << 20) - 1], [0, 1], [1.0, 1.0])
        with traced_peak() as traced:
            assert cv_factor(h) is None
        assert traced.peak < 16 << 20

    @pytest.mark.parametrize("rows", [[5], [0, (1 << 24) - 1]], ids=["one-row", "two-rows"])
    def test_product_builds_no_register(self, rows, traced_peak):
        # a product on 24 qubits: the register comes back on its occupied
        # rows, where a 2^24-amplitude vector would take 256 MiB
        n = len(rows)
        h = HybridState(24, 1, np.repeat(rows, 2), np.tile([0, 1], n), np.full(2 * n, n**-0.5))
        with traced_peak() as traced:
            got_rows, reg, cells, values = cv_factor(h)
        assert traced.peak < 1 << 20
        assert np.array_equal(got_rows, rows) and np.allclose(reg, np.full(n, n**-0.5), atol=1e-15)
        assert np.array_equal(cells, [0, 1]) and np.allclose(values, [1, 1], atol=1e-15)

    def test_row_weights_hold_only_occupied_rows(self, traced_peak):
        # two entangled entries on 22 qubits: one weight per occupied row,
        # where a weight per basis row would take 32 MiB
        h = HybridState(22, 1, [0, (1 << 22) - 1], [0, 1], [1.0, 1.0])
        with traced_peak() as traced:
            assert cv_factor(h) is None
        assert traced.peak < 1 << 20

    @staticmethod
    def bincount_rows(h):
        """Reference: the rows above the threshold, weighed in one
        bincount over all 2^n_qubits rows."""
        weight = np.bincount(h.rows, weights=h.amps.real**2 + h.amps.imag**2)
        return np.flatnonzero(weight > FACTOR_TOL * np.sum(weight))

    @pytest.mark.parametrize("seed", range(24))
    def test_row_weights_match_bincount(self, seed):
        # a few occupied rows out of up to 2^12, some of them scaled to a
        # weight of 0.1-0.5 (below) or 2-10 (above) times the threshold, so
        # that the rows kept decide between the one-row and the block path:
        # seed % 4 == 0 scales every row but one below, 1 every row but one
        # either way, 2 and 3 some rows either way
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        occupied = np.sort(rng.choice(1 << n, size=min(1 << n, int(rng.integers(2, 7))), replace=False))
        cells = np.sort(rng.choice(8, size=int(rng.integers(1, 5)), replace=False)) - 3
        reg = rng.normal(size=occupied.size) + 1j * rng.normal(size=occupied.size)
        if seed // 4 % 2:  # product: every row a multiple of one wave
            vals = np.outer(reg, rng.normal(size=cells.size) + 1j * rng.normal(size=cells.size))
        else:
            vals = rng.normal(size=(occupied.size, cells.size)) + 1j * rng.normal(size=(occupied.size, cells.size))
        small = rng.random(occupied.size) < (1.0 if seed % 4 < 2 else 0.5)
        small[int(rng.integers(occupied.size))] = False
        big = np.sum(np.abs(vals[~small]) ** 2)
        below = rng.random(occupied.size) < (1.0 if seed % 4 == 0 else 0.5)
        factor = np.where(below, rng.uniform(0.1, 0.5, occupied.size), rng.uniform(2, 10, occupied.size))
        scale = np.sqrt(factor * FACTOR_TOL * big / np.sum(np.abs(vals) ** 2, axis=1))
        vals[small] *= scale[small, None]
        h = HybridState(n, 2, np.repeat(occupied, cells.size), np.tile(cells, occupied.size), vals.ravel())
        kept = self.bincount_rows(h)
        got = cv_factor(h)
        if kept.size == 1:
            q = int(kept[0])
            lo, hi = h.rows.searchsorted((q, q + 1))
            assert np.array_equal(got[0], [q]) and np.array_equal(got[1], [1])
            assert np.array_equal(got[2], h.cells[lo:hi]) and np.array_equal(got[3], h.amps[lo:hi])
        else:
            want = ref_cv_factor(h)
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(full_register(h, got[0], got[1]), want[0])
                assert np.array_equal(hull_wave(h, got[2], got[3]), want[1])

    def test_block_refused_before_allocating(self, traced_peak):
        # two proportional heavy rows sharing cells 0 and 1, and 2^15 light
        # rows of one entry each, 1e-11 of the heavy amplitudes, on cells of
        # their own: every minor through row 0 and cell 0 stays below the
        # proof's threshold, and 2^15 + 2 occupied rows by as many occupied
        # cells exceed the 2^28-byte budget, although the state stores only
        # 2^15 + 4 entries
        n = 1 << 15
        rows = np.concatenate([[0, 0, 1, 1], np.arange(2, n + 2)])
        cells = np.concatenate([[0, 1, 0, 1], np.arange(2, n + 2)])
        amps = np.concatenate([[1.0, 0.5, 0.5, 0.25], np.full(n, 1e-11)])
        h = HybridState(16, 16, rows, cells, amps)
        with traced_peak() as traced:
            with pytest.raises(ResourceLimitError, match="cv_factor"):
                cv_factor(h)
        assert traced.peak < 8 << 20  # the refused block would take 16 GiB

    def test_entangled_block_proved_without_allocating(self, traced_peak):
        # 2^15 occupied rows by 2^14 occupied cells, rows 2k and 2k + 1 on
        # cell k: a minor proves the entanglement, where the block would
        # take 8 GiB
        n = 1 << 15
        h = HybridState(15, 14, np.arange(n), np.arange(n) >> 1, np.full(n, 1 / 2**0.5))
        with traced_peak() as traced:
            assert cv_factor(h) is None
        assert traced.peak < 8 << 20

    def test_data_register_history_proved_without_svd(self, monkeypatch, traced_peak):
        # H on each of 10 data qubits, then 10 CNOT(q_i, q10) cleans of the
        # ancilla q10: each data row holds its own cell, so the block would
        # be 1024 x 1024 (16 MiB)
        d = 10
        reg = np.zeros(1 << (d + 1))
        reg[: 1 << d] = 2 ** (-d / 2)
        h = lift(RegisterState(d + 1, reg), indicator_unit(0))
        for i in range(d):
            h = erase(apply_basis_permutation(h, h.rows ^ (((h.rows >> i) & 1) << d)), d)
        assert h.amps.size == np.unique(h.cells).size == 1 << d

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        with traced_peak() as traced:
            assert cv_factor(h) is None
        assert traced.peak < 1 << 20

    @staticmethod
    def certificate_tables(rng, kind):
        """A random table of 2-16 rows and 1-12 cells: an exact product
        with zero rows and columns, one perturbed by 1e-13 to 1e-7, a
        rank-2 one, or a dense random one."""
        rows, cols = 1 << int(rng.integers(1, 5)), int(rng.integers(1, 13))

        def gauss(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        if kind == "rank-2":
            return gauss(rows, 2) @ gauss(2, cols)
        if kind == "dense":
            return gauss(rows, cols)
        a = np.outer(gauss(rows) * (rng.random(rows) < 0.7), gauss(cols) * (rng.random(cols) < 0.7))
        if kind == "perturbed":
            a += 10.0 ** rng.uniform(-13, -7) * gauss(rows, cols) * (rng.random((rows, cols)) < 0.5)
        return a

    @pytest.mark.parametrize("kind", ["product", "perturbed", "rank-2", "dense"])
    def test_minor_proof_agrees_with_the_svd(self, kind, monkeypatch):
        # cv_factor is None exactly when the block SVD of the reference says
        # so, and the minors prove entanglement only where the SVD finds it
        proved = []
        minors = erasure._minor_proves_entangled

        def recorded(*args):
            proved.append(minors(*args))
            return proved[-1]

        monkeypatch.setattr(erasure, "_minor_proves_entangled", recorded)
        rng = np.random.default_rng(["product", "perturbed", "rank-2", "dense"].index(kind))
        outcomes = {"product": 0, "entangled": 0, "proved": 0}
        for _ in range(300):
            a = self.certificate_tables(rng, kind)
            if not a.any():
                continue
            n = int(a.shape[0]).bit_length() - 1
            h = HybridState.from_table(n, 2, int(rng.integers(-4, 4)), a)
            proved.clear()
            got, want = cv_factor(h), ref_cv_factor(h)
            assert (got is None) == (want is None)
            outcomes["product" if want is not None else "entangled"] += 1
            if proved and proved[0]:
                assert want is None
                outcomes["proved"] += 1
            if got is not None:
                assert np.array_equal(full_register(h, got[0], got[1]), want[0])
                assert np.array_equal(hull_wave(h, got[2], got[3]), want[1])
        if kind == "product":
            assert outcomes["entangled"] == 0 and outcomes["product"] > 200
        elif kind == "perturbed":
            # near the threshold the minors decide nothing and the SVD does
            assert outcomes["product"] > 30 and outcomes["entangled"] > outcomes["proved"] > 30
        else:
            # these tables store every entry, so every minor through the
            # pivot is checked and every entangled table is proved
            assert outcomes["proved"] == outcomes["entangled"] > 200

    @staticmethod
    def full_table_factor(h, tol=1e-10):
        """Reference: the SVD of the whole table, zero rows and columns included."""
        u, s, vh = np.linalg.svd(table(h), full_matrices=False)
        if s.size > 1 and s[1] > tol * s[0]:
            return None
        reg = u[:, 0]
        lead = reg[np.flatnonzero(np.abs(reg) > 1e-12)[0]]
        phase = lead / abs(lead)
        return reg / phase, s[0] * vh[0] * phase

    @staticmethod
    def sparse_table(rng, n, cells, rank, tiny_row):
        """A rank-`rank` table with every other row and every third column
        zero, plus row 1 scaled by `tiny_row` (0 leaves it zero)."""
        rows = np.arange(0, 1 << n, 2)
        cols = np.flatnonzero(np.arange(cells) % 3 != 1)
        a = np.zeros((1 << n, cells), dtype=np.complex128)
        left = rng.normal(size=(rows.size, rank)) + 1j * rng.normal(size=(rows.size, rank))
        right = rng.normal(size=(rank, cols.size)) + 1j * rng.normal(size=(rank, cols.size))
        a[np.ix_(rows, cols)] = left @ right
        a[1, cols] = tiny_row * (rng.normal(size=cols.size) + 1j * rng.normal(size=cols.size))
        return HybridState.from_table(n, 4, 3, a / np.linalg.norm(a))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("tiny_row", [0.0, 1e-13, 1e-7])
    def test_block_svd_matches_full_table_svd(self, seed, rank, tiny_row):
        rng = np.random.default_rng(seed)
        h = self.sparse_table(rng, int(rng.integers(2, 5)), int(rng.integers(4, 40)), rank, tiny_row)
        if tiny_row:
            weight = np.sum(np.abs(table(h)) ** 2, axis=1)
            assert 0 < weight[1] < 1e-10 * weight.sum()
        ref = self.full_table_factor(h)
        got = cv_factor(h)
        assert (got is None) == (ref is None) == (rank == 2 or tiny_row == 1e-7)
        if got is not None:
            rows, reg, cells, values = got
            # the block's register and wave are given on every occupied
            # row and cell
            assert np.array_equal(rows, np.unique(h.rows))
            assert np.array_equal(cells, np.unique(h.cells))
            reg, full_wave = full_register(h, rows, reg), hull_wave(h, cells, values)
            assert np.max(np.abs(np.outer(reg, full_wave) - table(h))) <= 1e-12
            # exact-zero rows and columns of the table factor to exact zeros
            assert np.all(reg[~table(h).any(axis=1)] == 0)
            assert np.all(full_wave[~table(h).any(axis=0)] == 0)
            ref_reg, ref_wave = ref
            assert np.max(np.abs(reg - ref_reg)) <= 1e-12
            assert np.max(np.abs(full_wave - ref_wave)) <= 1e-12


class TestRegisterOpsOnHybrid:
    def test_gate_acts_on_rows(self):
        h = lift(basis_state(1, 0), indicator_unit(0))
        out = apply_qubit_gate(h, 0, np.array([[0, 1], [1, 0]], dtype=complex))
        assert out == lift(basis_state(1, 1), indicator_unit(0))

    def test_gate_refused_past_the_budget(self, monkeypatch):
        # four (row without q, cell) pairs become eight amplitudes, 128 bytes
        h = lift(basis_state(1, 0), indicator_unit(2))
        monkeypatch.setattr(dyadic, "MAX_BYTES", 128)
        assert apply_qubit_gate(h, 0, qubits.H).amps.size == 8
        monkeypatch.setattr(dyadic, "MAX_BYTES", 127)
        with pytest.raises(ResourceLimitError, match="single-qubit gate"):
            apply_qubit_gate(h, 0, qubits.H)

    def test_permutation_moves_rows(self):
        h = lift(basis_state(2, 1), indicator_unit(0))
        out = apply_basis_permutation(h, np.array([1, 2, 3, 0])[h.rows])
        assert out == lift(basis_state(2, 2), indicator_unit(0))

    def test_row_phases(self):
        h = lift(RegisterState(1, [SQRT1_2, SQRT1_2]), indicator_unit(0))
        out = apply_row_phases(h, np.array([1.0, -1.0])[h.rows])
        assert np.allclose(table(out), [[SQRT1_2], [-SQRT1_2]], atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_row_phases_reject_non_finite(self, bad):
        # both rows hold an entry, so each vector puts the value on one
        h = lift(RegisterState(1, [SQRT1_2, SQRT1_2]), indicator_unit(0))
        with pytest.raises(ValidationError, match="finite"):
            apply_row_phases(h, np.array([1.0, bad])[h.rows])
        with pytest.raises(ValidationError, match="finite"):
            apply_row_phases(h, np.array([bad, 1.0])[h.rows])

    def test_row_phases_overflow_rejected(self):
        # finite phases, but the product of a near-limit amplitude overflows
        h = HybridState(1, 0, [0], [0], [complex(1.5e308, 1.5e308)])
        with pytest.raises(ValidationError, match="amplitudes must be finite"):
            apply_row_phases(h, np.array([np.exp(0.25j * np.pi)]))

    def test_map_merging_two_occupied_rows_refused(self):
        # rows 1 and 2 occupied; rows 0 and 3 are free, so the map is one
        # on the whole register only if the stored rows keep apart
        h = lift(RegisterState(2, [0, SQRT1_2, SQRT1_2, 0]), indicator_unit(1))
        assert h.rows.tolist() == [1, 1, 2, 2]
        with pytest.raises(ValidationError, match="two occupied rows map to 3"):
            apply_basis_permutation(h, [3, 3, 3, 3])
        assert apply_basis_permutation(h, [3, 3, 0, 0]).rows.tolist() == [0, 0, 3, 3]

    def test_image_outside_the_register_refused(self):
        h = lift(RegisterState(1, [SQRT1_2, SQRT1_2]), indicator_unit(0))
        for images in ([0, 2], [-1, 0]):
            with pytest.raises(ValidationError, match="row index out of range for 1 qubits"):
                apply_basis_permutation(h, images)

    def test_map_splitting_one_row_refused(self):
        h = lift(basis_state(2, 1), indicator_unit(1))
        assert h.rows.tolist() == [1, 1]
        with pytest.raises(ValidationError, match="row 1 has two images"):
            apply_basis_permutation(h, [2, 3])

    @pytest.mark.parametrize("size", [0, 1, 3, 4])
    def test_wrong_length_refused(self, size):
        h = lift(RegisterState(1, [SQRT1_2, SQRT1_2]), indicator_unit(0))
        with pytest.raises(ValidationError, match="one per stored entry"):
            apply_basis_permutation(h, np.arange(size))
        with pytest.raises(ValidationError, match="one per stored entry"):
            apply_row_phases(h, np.ones(size))

    @pytest.mark.parametrize("bad", [0.5, 1.5j, 0.0, -1.0 + 1e-9])
    def test_row_phases_reject_non_unit(self, bad):
        h = lift(RegisterState(1, [SQRT1_2, SQRT1_2]), indicator_unit(0))
        with pytest.raises(ValidationError, match="unit modulus"):
            apply_row_phases(h, np.array([1.0, bad]))

    def test_empty_state(self):
        h = HybridState(3, 2, [], [], [])
        assert apply_basis_permutation(h, []) == h
        assert apply_row_phases(h, []) == h

    def test_row_phases_peak_per_entry(self, traced_peak):
        # the CZ path: float phases, one per entry, on 2^17 entries; the
        # output shares rows and cells, so it allocates its amplitudes, the
        # complex phases and the checks' temporaries: 48 B per entry, where
        # the validating constructor's copies and checks took 67
        h = HybridState.from_table(1, 16, 0, np.full((2, 1 << 16), 2.0**-8.5))
        phases = 1.0 - 2.0 * (h.rows & 1)
        with traced_peak() as traced:
            out = apply_row_phases(h, phases)
        assert out.rows is h.rows and out.cells is h.cells
        assert out == ref_apply_row_phases(h, np.array([1.0, -1.0]))
        assert traced.peak <= 56 * h.amps.size

    def test_norm_preserved(self):
        rng = np.random.default_rng(37)
        h = random_hybrid(rng, 2, 2)
        u = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2
        assert abs(apply_qubit_gate(h, 1, u).norm2() - h.norm2()) <= 1e-12


class TestGridPipeline:
    def wave_indicator(self, x):
        return 1.0 if 0.0 <= x < 1.0 else 0.0

    def test_erase_matches_dyadic(self):
        n_samples, x_min, h_step = 4096, -2.0, 1 / 1024
        rng = np.random.default_rng(38)
        a, b = random_pair(rng)
        reg = RegisterState(1, [a, b])
        w = random_unit_wave(rng, 2)

        gw = sample_function(lambda x: value_at(w, x), x_min, h_step, n_samples)
        gh = GridHybrid(1, gw.x_min, gw.h, np.outer(reg.amps, gw.samples))
        g_out = grid_erase(gh, 0)
        d_out = erase(lift(reg, w), 0)
        err2 = 0.0
        xs = g_out.positions()
        for q in range(2):
            ref = value_at(d_out.row_wave(q), xs)
            err2 += float(np.sum(np.abs(g_out.amps[q] - ref) ** 2)) * h_step
        assert np.sqrt(err2) <= 1e-9

    @pytest.mark.parametrize("seed", [0, 7, 1234, 2718, 9001])
    def test_cross_check_suite_matches_per_point(self, seed):
        """The validate suite evaluates its waves on the whole grid at once;
        its error must equal, to the bit, the per-point form below: each
        value looked up alone, scaled by a Python complex product."""
        n, x_min, h = 4096, -2.0, 4.0 / 1024.0
        positions = x_min + h * np.arange(n)
        idx = validation.SUITE_NAMES.index("grid_pipeline_cross_check")
        rng = np.random.default_rng([seed, idx])
        worst = 0.0
        for _ in range(3):
            alpha, beta = validation._random_pair(rng)
            w = validation._random_unit_wave(rng, max_level=5)
            hd = HybridState.from_table(1, w.level, 0, np.vstack([alpha * w.coeffs, beta * w.coeffs]))
            exact = erase(hd, 0)
            rows = np.array([[ref_value_at(w, x) * s for x in positions] for s in (alpha, beta)])
            approx = grid_erase(GridHybrid(1, x_min, h, rows), 0)
            row_waves = [exact.row_wave(q) for q in range(2)]
            expect = np.array([[ref_value_at(rw, x) for x in positions] for rw in row_waves])
            num = np.sqrt(h * np.sum(np.abs(approx.amps - expect) ** 2))
            den = np.sqrt(h * np.sum(np.abs(expect) ** 2))
            worst = max(worst, float(num / den))
        assert validation.run_suite("grid_pipeline_cross_check", seed).max_error == worst

    def test_spectral_and_shift_agree(self):
        reg = RegisterState(1, [0.0, 1.0])
        gw = sample_function(self.wave_indicator, -2.0, 1 / 1024, 4096)
        gh = GridHybrid(1, gw.x_min, gw.h, np.outer(reg.amps, gw.samples))
        a = grid_cond_translate(gh, 0, 1)
        assert np.array_equal(a.amps[0], gh.amps[0])
        b = translate_shift(GridWave(gh.x_min, gh.h, gh.amps[1]), 1).samples
        assert np.max(np.abs(a.amps[1] - b)) <= 1e-9

    def test_support_violation(self):
        reg = RegisterState(1, [0.0, 1.0])
        gw = sample_function(lambda x: 1.0 if 1.0 <= x < 2.0 else 0.0, -2.0, 1 / 1024, 4096)
        gh = GridHybrid(1, gw.x_min, gw.h, np.outer(reg.amps, gw.samples))
        with pytest.raises(ContractError):
            grid_erase(gh, 0)

    @pytest.mark.parametrize("x_min, n", [(-1.0, 16), (0.125, 32)])
    def test_window_must_hold_zero_two(self, x_min, n):
        # on [-1,1) the +1 translate of the |1> branch would wrap around
        # the periodic window onto [-1,0)
        gw = sample_function(self.wave_indicator, x_min, 1 / 8, n)
        gh = GridHybrid(1, x_min, 1 / 8, np.outer([0.0, 1.0], gw.samples))
        with pytest.raises(DomainError, match=r"window holding \[0, 2\)"):
            grid_erase(gh, 0)

    def test_window_of_exactly_zero_two_runs(self):
        gw = sample_function(self.wave_indicator, 0.0, 1 / 8, 16)
        out = grid_erase(GridHybrid(1, 0.0, 1 / 8, np.outer([0.0, 1.0], gw.samples)), 0)
        assert np.max(np.abs(out.amps[1])) <= 1e-12

    def test_squeeze_escape(self):
        gw = sample_function(lambda x: 1.0 if 3.0 <= x < 3.5 else 0.0, 2.0, 1 / 8, 16)
        gh = GridHybrid(1, 2.0, 1 / 8, np.outer([1.0, 0.0], gw.samples))
        with pytest.raises(DomainError):
            grid_squeeze_all(gh)


def sparse_hybrid(rng: np.random.Generator, unit: bool, zero_bit=None, full=False) -> tuple:
    """Random hybrid with scattered zero cells, and a qubit q of it; with
    unit=True its support lies inside [0,1).  zero_bit clears every row
    whose qubit q has that value, so a whole fixed or moved group can be
    empty.  full=True fills K = 2^level cells over [0,1) with both end
    cells occupied, so a group translated by one abuts the other."""
    n = int(rng.integers(1, 4))
    q = int(rng.integers(0, n))
    level = int(rng.integers(1, 4))
    if full:
        offset, k = 0, 1 << level
    elif unit:
        offset = int(rng.integers(0, 1 << level))
        k = int(rng.integers(1, (1 << level) - offset + 1))
    else:
        offset, k = int(rng.integers(-6, 7)), int(rng.integers(1, 9))
    a = rng.normal(size=(1 << n, k)) + 1j * rng.normal(size=(1 << n, k))
    scatter = rng.random(a.shape) < 0.3
    if full:
        scatter[:, [0, -1]] = False
    a[scatter] = 0.0
    if zero_bit is not None:
        a[((np.arange(1 << n) >> q) & 1) == zero_bit] = 0.0
    return HybridState.from_table(n, level, offset, a), q


def assert_canonical(h: HybridState) -> None:
    """Nonzero entries, strictly increasing in (row, cell), frozen."""
    assert np.all(h.amps != 0)
    step = np.diff(h.rows)
    assert np.all((step > 0) | ((step == 0) & (np.diff(h.cells) > 0)))
    assert not any(arr.flags.writeable for arr in (h.rows, h.cells, h.amps))


def random_wave(rng: np.random.Generator) -> DyadicWave:
    """Random wave with scattered zero cells, trimmed by the constructor;
    now and then the zero wave."""
    n = int(rng.integers(1, 9))
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    c[rng.random(c.size) < 0.3] = 0.0
    return DyadicWave(int(rng.integers(0, 5)), int(rng.integers(-8, 9)), c)


def assert_read_only(*arrays) -> None:
    """Writing into any of the arrays raises."""
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[:1] = 0


class TestAdoptedOutputs:
    """Gate ops, from_table and the exact wave ops wrap their outputs
    without the validating constructor; each output must be canonical,
    frozen, and what that constructor makes of copies of its arrays.  An
    output may share the arrays it leaves unchanged with its input, so both
    must stay read-only and the input must come out of the call unchanged."""

    @staticmethod
    def assert_adopted(out: HybridState, src, before) -> None:
        """out is adopted as above; src, which out may share arrays with,
        still equals ``before``, its deep copy from before the call."""
        copies = (np.array(out.rows), np.array(out.cells), np.array(out.amps))
        again = HybridState(out.n_qubits, out.level, *copies)
        assert again == out  # same entries
        assert (out.offset, out.n_cells) == (again.offset, again.n_cells)
        assert_canonical(out)
        for arr in (out.rows, out.cells, out.amps):
            assert arr.dtype == (np.complex128 if arr is out.amps else np.int64)
        if isinstance(src, np.ndarray):  # a caller's table: read, never frozen
            assert np.array_equal(src, before) and src.flags.writeable
            return
        assert src == before and (src.offset, src.n_cells) == (before.offset, before.n_cells)
        assert_read_only(src.rows, src.cells, src.amps, out.rows, out.cells, out.amps)

    def adopted(self, op, src: HybridState, *args) -> HybridState:
        """op(src, *args), checked by assert_adopted."""
        before = copy.deepcopy(src)
        out = op(src, *args)
        self.assert_adopted(out, src, before)
        return out

    @staticmethod
    def assert_wave_adopted(out: DyadicWave, src: DyadicWave, before: DyadicWave, expect: DyadicWave) -> None:
        again = DyadicWave(out.level, out.offset, np.array(out.coeffs))
        assert again == out and again.offset == out.offset
        assert out == expect and out.offset == expect.offset
        c = out.coeffs
        assert (c[0] != 0 and c[-1] != 0) or (c.size == 1 and out.offset == 0)
        assert c.dtype == np.complex128
        assert src == before and src.offset == before.offset
        assert_read_only(c, src.coeffs)

    @pytest.mark.parametrize("zero_bit, seed", [(None, 70), (0, 71), (1, 72)])
    def test_gate_outputs(self, zero_bit, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            h, q = sparse_hybrid(rng, unit=False, zero_bit=zero_bit)
            for t in (-2, -1, 1, 3):
                assert self.adopted(cond_translate, h, q, t) == ref_cond_translate(h, q, t)
            self.adopted(cond_flip, h, q)
            self.adopted(squeeze_all, h)
            perm = rng.permutation(1 << h.n_qubits)
            self.adopted(apply_basis_permutation, h, perm[h.rows])
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=1 << h.n_qubits))
            self.adopted(apply_row_phases, h, phases[h.rows])

    @pytest.mark.parametrize("zero_bit, seed", [(None, 80), (0, 81), (1, 82)])
    def test_erase_outputs(self, zero_bit, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            h, q = sparse_hybrid(rng, unit=True, zero_bit=zero_bit)
            out = self.adopted(erase, h, q)
            assert residual_weight(out, q) == 0.0

    def test_zero_state(self):
        h = HybridState.from_table(2, 1, 0, np.zeros((4, 1)))
        for op, *args in ((cond_translate, 1, -1), (cond_flip, 0), (squeeze_all,), (erase, 1)):
            out = self.adopted(op, h, *args)
            assert out.offset == 0 and out.n_cells == 1

    def test_unchanged_arrays_shared(self):
        # each producer keeps the frozen arrays its arithmetic leaves alone
        h = HybridState(2, 0, [0, 0, 2], [0, 1, 0], [0.6, 0.0 + 0.6j, 0.8])
        moved = cond_translate(h, 1, 1)
        assert moved.rows is h.rows and moved.amps is h.amps
        squeezed = squeeze_all(h)
        assert squeezed.rows is h.rows and squeezed.cells is h.cells
        # the flip moves (0, 1) to (1, 1), which keeps the (row, cell) order
        flipped = cond_flip(h, 0)
        assert flipped.rows.tolist() == [0, 1, 2]
        assert flipped.cells is h.cells and flipped.amps is h.amps
        # rows 0 and 2 swap images, so the order breaks and the entries are sorted anew
        swapped = apply_basis_permutation(h, np.array([3, 3, 1]))
        assert swapped.rows.tolist() == [1, 3, 3] and swapped.cells.tolist() == [0, 0, 1]
        assert not np.shares_memory(swapped.amps, h.amps)
        # the caller's image array is copied, never frozen nor kept
        images = np.array([1, 1, 3])
        relabelled = apply_basis_permutation(h, images)
        assert relabelled.cells is h.cells and relabelled.amps is h.amps
        assert images.flags.writeable and not np.shares_memory(relabelled.rows, images)
        w = DyadicWave(1, 0, [1.0, 2.0])
        assert translate_int(w, 3).coeffs is w.coeffs

    @pytest.mark.parametrize("seed", [73, 74])
    def test_from_table(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            n, level, k = int(rng.integers(0, 4)), int(rng.integers(0, 4)), int(rng.integers(1, 9))
            offset = int(rng.integers(-6, 7))
            a = rng.normal(size=(1 << n, k)) + 1j * rng.normal(size=(1 << n, k))
            a[rng.random(a.shape) < rng.choice([0.0, 0.3, 1.0])] = 0.0
            before = a.copy()
            out = HybridState.from_table(n, level, offset, a)
            self.assert_adopted(out, a, before)
            # every cell of the table, zeros included, in shuffled order
            shuffle = rng.permutation(a.size)
            rows, cols = np.divmod(np.arange(a.size), k)
            expect = HybridState(n, level, rows[shuffle], cols[shuffle] + offset, a.ravel()[shuffle])
            assert out == expect
            assert (out.offset, out.n_cells) == (expect.offset, expect.n_cells)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_from_table_refuses_non_finite(self, bad):
        with pytest.raises(ValidationError, match="amplitudes must be finite"):
            HybridState.from_table(1, 0, 0, [[1.0, 0.0], [0.0, bad]])

    def test_wave_ops(self):
        rng = np.random.default_rng(75)
        zeros = 0
        for _ in range(200):
            w = random_wave(rng)
            zeros += w.is_zero()
            c = np.array(w.coeffs)
            d, t = int(rng.integers(1, 4)), int(rng.integers(-3, 4))
            before = copy.deepcopy(w)
            self.assert_wave_adopted(
                refine(w, w.level + d), w, before, DyadicWave(w.level + d, w.offset << d, np.repeat(c, 1 << d))
            )
            self.assert_wave_adopted(
                translate_int(w, t), w, before, DyadicWave(w.level, w.offset + t * (1 << w.level), c)
            )
            self.assert_wave_adopted(wave_squeeze(w), w, before, DyadicWave(w.level + 1, w.offset, c * SQRT2))
            assert refine(w, w.level) is w
        assert zeros >= 5

    def test_wave_squeeze_refuses_overflow(self):
        # the constructor's refusal, with its message, and no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="coeffs must be finite"):
                wave_squeeze(DyadicWave(0, 0, [1.0, 1.5e308]))

    def test_residual_weight_matches_row_mask(self):
        rng = np.random.default_rng(90)
        for _ in range(30):
            h, _ = sparse_hybrid(rng, unit=False)
            for q in range(h.n_qubits):
                rows = table(h)[(np.arange(1 << h.n_qubits) >> q) & 1 == 1]
                rows = rows[rows != 0]  # the stored entries, in (row, cell) order
                expect = float(np.sum(rows.real**2 + rows.imag**2)) * h.width
                assert residual_weight(h, q) == expect


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# (unit, full, zero_bit): cells < 0 and offsets of either sign, support in
# [0,1) at offset >= 0, K = 2^L cells where the two groups abut, and an
# empty bit-0 or bit-1 group
DENSE_CASES = [
    (False, False, None),
    (False, False, 0),
    (False, False, 1),
    (True, False, None),
    (True, True, None),
    (True, True, 0),
    (True, True, 1),
]


class TestDenseReference:
    """Every sparse state op against the dense-table reference of
    tests/dense_reference.py on seeded states: bit for bit where the op
    relocates or scales values, within rounding where the partial trace
    sums over fewer cells."""

    @staticmethod
    def states(seed, unit, full, zero_bit, count=40):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            h, q = sparse_hybrid(rng, unit=unit, zero_bit=zero_bit, full=full)
            yield rng, h, q

    @pytest.mark.parametrize("unit, full, zero_bit", DENSE_CASES)
    def test_gates_match_bit_for_bit(self, unit, full, zero_bit):
        gates = [qubits.H, qubits.S, qubits.T, qubits.X, qubits.Y, qubits.Z]
        for rng, h, q in self.states(100, unit, full, zero_bit):
            for t in (-2, -1, 1, 3):
                assert cond_translate(h, q, t) == ref_cond_translate(h, q, t)
            assert cond_flip(h, q) == ref_cond_flip(h, q)
            assert validation._flip_inside_one_two(h, q) == ref_cond_flip(h, q, inside_one_two=True)
            assert squeeze_all(h) == ref_squeeze_all(h)
            for u in gates + [random_unitary(rng)]:
                assert apply_qubit_gate(h, q, u) == ref_apply_qubit_gate(h, q, u)
            perm = rng.permutation(1 << h.n_qubits)
            assert apply_basis_permutation(h, perm[h.rows]) == ref_apply_basis_permutation(h, perm)
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=1 << h.n_qubits))
            phases[rng.random(phases.size) < 0.5] = -1.0
            assert apply_row_phases(h, phases[h.rows]) == ref_apply_row_phases(h, phases)

    @pytest.mark.parametrize("full, zero_bit", [(f, z) for u, f, z in DENSE_CASES if u])
    def test_erase_matches_dense_pipeline(self, full, zero_bit):
        # on [0,1) support one erase matches the pipeline under either flip
        for _, h, q in self.states(101, True, full, zero_bit):
            got = erase(h, q)
            for inside_one_two in (False, True):
                out = ref_cond_translate(h, q, 1)
                out = ref_cond_flip(out, q, inside_one_two)
                out = ref_squeeze_all(ref_cond_translate(out, q, -1))
                assert got == out

    @pytest.mark.parametrize("unit, full, zero_bit", DENSE_CASES)
    def test_reduced_density_and_factor(self, unit, full, zero_bit):
        for rng, h, q in self.states(102, unit, full, zero_bit):
            h = cond_translate(h, q, 2)  # spread the occupied cells apart
            for keep in ({q}, set(range(h.n_qubits))):
                got = hybrid_reduced_density(h, keep).entries
                want = ref_hybrid_reduced_density(h, keep)
                assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))
            # a product of a random register and the wave of h's first
            # occupied row, then h itself: single-row, block or entangled
            reg = rng.normal(size=1 << h.n_qubits) + 1j * rng.normal(size=1 << h.n_qubits)
            reg[rng.random(reg.size) < 0.5] = 0.0
            row = int(h.rows[0]) if h.amps.size else 0
            wave = h.row_wave(row)
            for offset, t in ((wave.offset, np.outer(reg, wave.coeffs)), (h.offset, table(h))):
                k = HybridState.from_table(h.n_qubits, h.level, offset, t)
                got, want = cv_factor(k), ref_cv_factor(k)
                assert (got is None) == (want is None)
                if got is not None:
                    assert np.array_equal(full_register(k, got[0], got[1]), want[0])
                    assert np.array_equal(hull_wave(k, got[2], got[3]), want[1])


def _two_qubit_state() -> HybridState:
    return HybridState.from_table(2, 1, 0, np.full((4, 2), 0.5 / np.sqrt(2.0)))


def _two_qubit_grid() -> GridHybrid:
    return GridHybrid(2, -2.0, 0.5, np.full((4, 8), 0.25))


QUBIT_OPS = {
    "cond_translate": lambda q: cond_translate(_two_qubit_state(), q, 1),
    "cond_flip": lambda q: cond_flip(_two_qubit_state(), q),
    "residual_weight": lambda q: residual_weight(_two_qubit_state(), q),
    "erase": lambda q: erase(_two_qubit_state(), q),
    "apply_qubit_gate": lambda q: apply_qubit_gate(_two_qubit_state(), q, qubits.X),
    "grid_cond_translate": lambda q: grid_cond_translate(_two_qubit_grid(), q, 1),
    "grid_cond_flip": lambda q: grid_cond_flip(_two_qubit_grid(), q),
}


NON_INTEGER_INDICES = [
    [0, 1.7], [0, 1.0], [0, True], [np.float64(1.0), 0], [np.bool_(True), 0],
    np.array([0.0, 1.0]), np.array([False, True]), [0, None], [0, "1"],
]
NON_INTEGER_IDS = ["1.7", "1.0", "True", "float64", "bool_", "float-array", "bool-array", "None", "str"]

# Each takes a two-entry index vector, named after the colon in its key.
INDEX_ARRAY_OPS = {
    "apply_basis_permutation:new_rows": lambda v: apply_basis_permutation(
        HybridState(1, 0, [0, 1], [0, 0], [0.6, 0.8]), v
    ),
    "apply_permutation:perm": lambda v: qubits.apply_permutation(RegisterState(1, [0.6, 0.8]), v),
    "as_register_permutation:rows": lambda v: as_register_permutation(
        build_reversible(named_table("AND"), SubtractMode.XOR), [0, 1], [2], 3, v
    ),
}


class TestArgumentRules:
    """Indices and counts are Python or numpy integers, never bools or
    floats, and a grid window's positions are finite."""

    @pytest.mark.parametrize("op", sorted(QUBIT_OPS))
    @pytest.mark.parametrize(
        "q", [1.5, 1.0, True, np.float64(1.0)], ids=["1.5", "1.0", "True", "float64"]
    )
    def test_qubit_index_must_be_an_integer(self, op, q):
        with pytest.raises(DomainError, match="qubit index must be an integer"):
            QUBIT_OPS[op](q)

    @pytest.mark.parametrize("op", sorted(QUBIT_OPS))
    def test_numpy_qubit_index_accepted(self, op):
        QUBIT_OPS[op](np.int64(1))

    @pytest.mark.parametrize("op", sorted(QUBIT_OPS))
    def test_qubit_out_of_range_message_kept(self, op):
        with pytest.raises(DomainError, match=r"^qubit index 2 out of range for 2 qubits$"):
            QUBIT_OPS[op](2)

    @pytest.mark.parametrize("state", [_two_qubit_state, _two_qubit_grid])
    @pytest.mark.parametrize("i", [1.5, True, np.float64(2.0)], ids=["1.5", "True", "float64"])
    def test_row_wave_index_must_be_an_integer(self, state, i):
        with pytest.raises(DomainError, match="basis index must be an integer"):
            state().row_wave(i)

    @pytest.mark.parametrize("state", [_two_qubit_state, _two_qubit_grid])
    def test_row_wave_index_range(self, state):
        with pytest.raises(DomainError, match=r"basis index 4 out of range \[0, 4\)"):
            state().row_wave(4)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: HybridState(1, 1.5, [0], [0], [1.0]),
            lambda: HybridState(1, True, [0], [0], [1.0]),
            lambda: HybridState(1.5, 0, [0], [0], [1.0]),
            lambda: HybridState(True, 0, [0], [0], [1.0]),
            lambda: HybridState.from_table(1.5, 0, 0, np.ones((2, 1))),
            lambda: GridHybrid(1.5, -2.0, 0.5, np.ones((2, 8))),
            lambda: GridHybrid(True, -2.0, 0.5, np.ones((2, 8))),
        ],
        ids=["level-float", "level-bool", "n_qubits-float", "n_qubits-bool",
             "from_table-float", "grid-float", "grid-bool"],
    )
    def test_count_must_be_an_integer(self, build):
        with pytest.raises(DomainError, match="must be a nonnegative integer"):
            build()

    @pytest.mark.parametrize("offset", [1.5, True, np.float64(1.0)], ids=["1.5", "True", "float64"])
    def test_from_table_offset_must_be_an_integer(self, offset):
        with pytest.raises(DomainError, match="offset must be an integer"):
            HybridState.from_table(1, 0, offset, [[1.0], [0.0]])

    def test_from_table_numpy_offset_accepted(self):
        h = HybridState.from_table(1, 0, np.int64(1), [[1.0], [0.0]])
        assert h == HybridState(1, 0, [0], [1], [1.0])

    @pytest.mark.parametrize("offset", [(1 << 63) - 1, 1 << 70, -(1 << 63) - 1])
    def test_from_table_cells_stay_int64(self, offset):
        with pytest.raises(DomainError, match="leaves the int64 cells"):
            HybridState.from_table(1, 0, offset, [[1.0, 1.0], [0.0, 0.0]])

    def test_from_table_last_int64_cells_accepted(self):
        h = HybridState.from_table(1, 0, (1 << 63) - 2, [[1.0, 1.0], [0.0, 0.0]])
        assert h.cells.tolist() == [(1 << 63) - 2, (1 << 63) - 1]
        h = HybridState.from_table(1, 0, -(1 << 63), [[1.0], [0.0]])
        assert h.cells.tolist() == [-(1 << 63)]

    @pytest.mark.parametrize("field", ["rows", "cells"])
    @pytest.mark.parametrize(
        "indices",
        [[1 << 70], [1 << 63], [-(1 << 63) - 1], np.array([1 << 63], dtype=np.uint64)],
        ids=["2^70", "2^63", "-2^63-1", "uint64-2^63"],
    )
    def test_constructor_indices_stay_int64(self, field, indices):
        entry = {"rows": [0], "cells": [0], "amps": [1.0], field: indices}
        with pytest.raises(DomainError, match=f"^{field}: an index leaves the int64 range"):
            HybridState(1, 0, **entry)

    @pytest.mark.parametrize("field", ["rows", "cells"])
    @pytest.mark.parametrize("indices", NON_INTEGER_INDICES, ids=NON_INTEGER_IDS)
    def test_constructor_indices_must_be_integers(self, field, indices):
        # a float or bool index was truncated or read as 0 or 1
        entries = {"rows": [0, 1], "cells": [0, 1], "amps": [0.6, 0.8], field: indices}
        with pytest.raises(DomainError, match=f"^{field}: an index must be an integer, got "):
            HybridState(1, 0, **entries)

    @pytest.mark.parametrize("op", sorted(INDEX_ARRAY_OPS))
    @pytest.mark.parametrize("indices", NON_INTEGER_INDICES, ids=NON_INTEGER_IDS)
    def test_index_arrays_must_be_integers(self, op, indices):
        # each moved an entry to the truncated index, or read a bool as 0 or 1
        name = op.split(":")[-1]
        with pytest.raises(DomainError, match=f"^{name}: an index must be an integer, got "):
            INDEX_ARRAY_OPS[op](indices)

    @pytest.mark.parametrize("op", sorted(INDEX_ARRAY_OPS))
    def test_integer_index_arrays_accepted(self, op):
        INDEX_ARRAY_OPS[op](np.array([1, 0], dtype=np.int32))

    @pytest.mark.parametrize("keep", [{1.0}, {True}, {0, 1.5}, {np.float64(0.0)}], ids=["1.0", "True", "1.5", "float64"])
    def test_reduced_density_keep_must_hold_integers(self, keep):
        # ended in a TypeError from the axis arithmetic
        with pytest.raises(DomainError, match="^keep set: a qubit index must be an integer, got "):
            hybrid_reduced_density(_two_qubit_state(), keep)

    @pytest.mark.parametrize(
        "rows, cells",
        [([], []), (np.array([0, 1], dtype=np.int32), np.array([2, 3], dtype=np.uint8)),
         ([np.int64(0), np.uint64(1)], (np.int16(2), 3)), (np.array([], dtype=float), np.array([], dtype=bool))],
        ids=["empty-lists", "int-arrays", "numpy-scalars", "empty-arrays"],
    )
    def test_constructor_integer_indices_accepted(self, rows, cells):
        h = HybridState(1, 0, rows, cells, [0.6, 0.8][: len(rows)])
        assert h.rows.dtype == h.cells.dtype == np.int64
        assert h.rows.tolist() == [int(r) for r in rows] and h.cells.tolist() == [int(c) for c in cells]

    def test_numpy_counts_accepted(self):
        h = HybridState(np.int64(1), np.int64(2), [0], [0], [1.0])
        assert h.level == 2 and type(h.level) is int

    @pytest.mark.parametrize(
        "x_min, h", [(np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.1), (0.0, 1e308)],
        ids=["x_min-nan", "x_min-inf", "x_min-minus-inf", "last-position-overflows"],
    )
    def test_grid_hybrid_window_positions_finite(self, x_min, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="grid positions must be finite"):
                GridHybrid(1, x_min, h, np.ones((2, 4)))

    def test_bool_translation_amount_refused(self):
        with pytest.raises(DomainError, match="translation amount"):
            cond_translate(_two_qubit_state(), 0, True)
