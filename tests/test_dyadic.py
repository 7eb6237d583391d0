"""Exact dyadic wave representation: canonical form and operator algebra."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvhistory.dyadic import (
    DyadicWave,
    aligned_pair,
    indicator_unit,
    inner,
    max_abs_diff,
    norm2,
    project,
    refine,
    squeeze,
    translate_int,
    value_at,
)
from cvhistory.errors import DomainError, ResourceLimitError, ValidationError
from dense_reference import ref_value_at

SQRT2 = np.sqrt(2.0)

# Exact dyadic-rational coefficients so algebraic identities hold bit-for-bit.
coeff_values = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
coeffs_strategy = st.lists(
    st.builds(complex, coeff_values, coeff_values), min_size=1, max_size=12
)
waves_strategy = st.builds(
    DyadicWave,
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-8, max_value=8),
    coeffs_strategy.map(np.array),
)


class TestCanonicalForm:
    def test_boundary_zeros_trimmed(self):
        a = DyadicWave(0, 5, [0, 2.0, 0])
        b = DyadicWave(0, 6, [2.0])
        assert a == b
        assert a.offset == 6 and a.n_cells == 1

    def test_zero_wave_pinned_at_origin(self):
        assert DyadicWave(2, 7, [0, 0]) == DyadicWave(2, 0, [0.0])

    def test_interior_zeros_kept(self):
        w = DyadicWave(1, 0, [1.0, 0.0, 1.0])
        assert w.n_cells == 3

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            DyadicWave(-1, 0, [1.0])
        with pytest.raises(ValidationError):
            DyadicWave(0, 0, [])
        with pytest.raises(ValidationError):
            DyadicWave(0, 0, [np.inf])

    @pytest.mark.parametrize("level", [True, False, 1.0])
    def test_level_must_be_an_integer(self, level):
        with pytest.raises(DomainError, match="level must be a nonnegative integer"):
            DyadicWave(level, 0, [1.0])

    @pytest.mark.parametrize("offset", [True, 0.0])
    def test_offset_must_be_an_integer(self, offset):
        with pytest.raises(DomainError, match="offset must be an integer"):
            DyadicWave(0, offset, [1.0])


class TestIndicatorUnit:
    def test_level0(self):
        assert indicator_unit(0) == DyadicWave(0, 0, [1.0])

    def test_level1(self):
        w = indicator_unit(1)
        assert w == DyadicWave(1, 0, [1.0, 1.0])
        assert norm2(w) == pytest.approx(1.0, abs=0)

    def test_level2_four_cells(self):
        w = indicator_unit(2)
        assert w.n_cells == 4 and w.offset == 0 and np.all(w.coeffs == 1)

    @pytest.mark.parametrize("level", [0, 1, 3, 6])
    def test_norm_one_all_levels(self, level):
        assert norm2(indicator_unit(level)) == 1.0

    @pytest.mark.parametrize("level", [1.5, True, -1])
    def test_level_must_be_a_count(self, level):
        with pytest.raises(DomainError, match="level must be a nonnegative integer"):
            indicator_unit(level)


class TestRefine:
    def test_level0_to_1(self):
        assert refine(indicator_unit(0), 1) == DyadicWave(1, 0, [1.0, 1.0])

    def test_same_level_identity(self):
        w = DyadicWave(2, 3, [1.0, 2.0])
        assert refine(w, 2) == w

    def test_offset_scaling(self):
        w = DyadicWave(1, 1, [0.25 + 0.5j])
        assert refine(w, 2) == DyadicWave(2, 2, [0.25 + 0.5j, 0.25 + 0.5j])

    def test_coarsening_refused(self):
        with pytest.raises(DomainError):
            refine(indicator_unit(2), 1)

    def test_cell_limit(self):
        # 2^25 cells take 2^29 bytes, past the budget; a far level is
        # refused without building its power of two
        for target in (25, 10**9):
            with pytest.raises(ResourceLimitError, match="byte budget"):
                refine(indicator_unit(0), target)

    @given(waves_strategy, st.integers(min_value=0, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_pointwise_identical_and_norm_exact(self, w, dl):
        r = refine(w, w.level + dl)
        assert norm2(r) == norm2(w)
        assert max_abs_diff(r, w) == 0.0


class TestTranslateInt:
    def test_identity(self):
        w = DyadicWave(1, 3, [1.0, 2.0])
        assert translate_int(w, 0) == w

    def test_indicator_shift_right(self):
        assert translate_int(indicator_unit(0), 1) == DyadicWave(0, 1, [1.0])

    def test_shift_left_level1(self):
        w = DyadicWave(1, 0, [1.0, 2.0])
        assert translate_int(w, -1) == DyadicWave(1, -2, [1.0, 2.0])

    def test_non_integer_refused(self):
        with pytest.raises(DomainError):
            translate_int(indicator_unit(0), 0.5)

    def test_bool_refused(self):
        with pytest.raises(DomainError, match="translation amount must be an integer"):
            translate_int(indicator_unit(0), True)

    @given(waves_strategy, st.integers(min_value=-5, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_inverse_pair_exact(self, w, t):
        assert translate_int(translate_int(w, t), -t) == w
        assert norm2(translate_int(w, t)) == norm2(w)


class TestProject:
    def test_fixes_own_range(self):
        w = indicator_unit(1)
        assert project(w, 0, 1) == w

    def test_drops_outside_cell(self):
        w = DyadicWave(0, 0, [3.0, 4.0])
        assert project(w, 0, 1) == DyadicWave(0, 0, [3.0])

    def test_bool_endpoints_refused(self):
        with pytest.raises(DomainError, match="projection start must be an integer"):
            project(indicator_unit(0), False, True)

    def test_empty_interval_refused(self):
        with pytest.raises(DomainError):
            project(indicator_unit(0), 1, 1)

    @given(waves_strategy, st.integers(-3, 2), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_and_contractive(self, w, a, blen):
        b = a + blen
        once = project(w, a, b)
        assert project(once, a, b) == once
        assert norm2(once) <= norm2(w) + 1e-15


class TestSqueeze:
    def test_indicator(self):
        out = squeeze(indicator_unit(0))
        assert out.level == 1 and out.offset == 0
        assert np.allclose(out.coeffs, [SQRT2], atol=0)

    def test_two_cell_example(self):
        out = squeeze(DyadicWave(0, 0, [0.6, 0.8]))
        assert out == DyadicWave(1, 0, np.array([0.6, 0.8]) * SQRT2)

    def test_level_limit(self):
        # 53 is the last level at which a cell edge is exact in a float
        assert squeeze(DyadicWave(52, 0, [1.0])).level == 53
        with pytest.raises(ResourceLimitError, match="max level 53"):
            squeeze(DyadicWave(53, 0, [1.0]))

    def test_overflow_rejected(self):
        # the constructor's refusal is the only signal: no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                squeeze(DyadicWave(0, 0, [1.5e308]))

    @given(waves_strategy)
    @settings(max_examples=50, deadline=None)
    def test_norm_preserved_and_support_halved(self, w):
        out = squeeze(w)
        assert norm2(out) == pytest.approx(norm2(w), rel=1e-15, abs=1e-18)
        assert out.support_measure() == 0.5 * w.support_measure()


class TestInnerAndNorm:
    def test_disjoint_supports(self):
        assert inner(indicator_unit(0), translate_int(indicator_unit(0), 1)) == 0

    def test_mixed_level_value(self):
        w = DyadicWave(1, 0, [SQRT2, 0.0])
        assert inner(w, indicator_unit(1)) == pytest.approx(1 / SQRT2, abs=1e-15)

    def test_conjugate_linear_first_argument(self):
        w1 = DyadicWave(0, 0, [1j])
        w2 = DyadicWave(0, 0, [1.0])
        assert inner(w1, w2) == pytest.approx(-1j)
        assert inner(w2, w1) == pytest.approx(1j)

    def test_norm2_formula(self):
        assert norm2(DyadicWave(2, 5, [3.0, 4.0])) == pytest.approx(25 / 4, abs=0)

    @given(waves_strategy)
    @settings(max_examples=50, deadline=None)
    def test_inner_self_is_norm2(self, w):
        assert inner(w, w) == pytest.approx(norm2(w), rel=1e-14, abs=1e-18)


class TestRefineCommutation:
    @given(waves_strategy, st.integers(min_value=1, max_value=3), st.integers(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_with_translate(self, w, dl, t):
        target = w.level + dl
        assert refine(translate_int(w, t), target) == translate_int(refine(w, target), t)

    @given(waves_strategy, st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_with_project(self, w, dl):
        target = w.level + dl
        assert refine(project(w, 0, 1), target) == project(refine(w, target), 0, 1)

    @given(waves_strategy, st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_with_squeeze(self, w, dl):
        target = w.level + dl
        assert refine(squeeze(w), target + 1) == squeeze(refine(w, target))


class TestSamplesAndValueAt:
    def test_value_at_half_open(self):
        w = DyadicWave(1, 0, [1.0, 2.0])
        assert value_at(w, 0.0) == 1.0
        assert value_at(w, 0.5) == 2.0
        assert value_at(w, 1.0) == 0.0
        assert value_at(w, -0.001) == 0.0

    @staticmethod
    def probe_positions(w, rng):
        """Every cell edge including the last, the floats on either side of
        each edge, and uniform points reaching a few cells past the support."""
        edges = (w.offset + np.arange(w.n_cells + 1)) / float(1 << w.level)
        near = np.concatenate([np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        pad = 3 * w.width
        spread = rng.uniform(w.x_min - pad, w.x_max + pad, size=64)
        return np.concatenate([edges, near, spread, [-1e300, 1e300, -0.0]])

    @pytest.mark.parametrize("level", [0, 5, 24])
    @pytest.mark.parametrize("offset", [-37, 0, 21])
    def test_array_matches_scalar_loop(self, level, offset):
        rng = np.random.default_rng([level, offset + 100])
        n = int(rng.integers(1, 9))
        w = DyadicWave(level, offset, rng.normal(size=n) + 1j * rng.normal(size=n))
        xs = self.probe_positions(w, rng)
        got = value_at(w, xs)
        assert got.dtype == np.complex128 and got.shape == xs.shape
        want = np.array([ref_value_at(w, float(x)) for x in xs], dtype=np.complex128)
        loop = np.array([value_at(w, float(x)) for x in xs], dtype=np.complex128)
        assert got.tobytes() == want.tobytes() == loop.tobytes()

    def test_zero_wave_and_empty_positions(self):
        zero = DyadicWave(3, 5, np.zeros(4))
        xs = np.linspace(-2.0, 2.0, 33)
        assert value_at(zero, xs).tobytes() == np.zeros(33, dtype=np.complex128).tobytes()
        empty = value_at(DyadicWave(2, 1, [1.0, 1j]), np.array([]))
        assert empty.shape == (0,) and empty.dtype == np.complex128

    def test_scalar_gives_complex(self):
        w = DyadicWave(1, 0, [1.0, 2.0j])
        for x in (0.5, np.float64(0.5), 0, 7.0):
            assert type(value_at(w, x)) is complex
        assert value_at(w, 0.5) == 2.0j

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_refused(self, bad):
        w = DyadicWave(1, 0, [1.0, 2.0])
        with pytest.raises(DomainError):
            value_at(w, bad)
        with pytest.raises(DomainError):
            value_at(w, np.array([0.0, bad, 0.5]))


class TestAlignedPair:
    def test_hull_and_padding(self):
        level, lo, c1, c2 = aligned_pair(indicator_unit(0), translate_int(indicator_unit(1), 1))
        assert level == 1 and lo == 0
        assert np.array_equal(c1, [1, 1, 0, 0])
        assert np.array_equal(c2, [0, 0, 1, 1])

    def test_hull_past_the_budget_refused(self):
        # two one-cell waves 2^40 cells apart: the hull is refused before
        # the two 16 TiB arrays are allocated
        far = DyadicWave(40, 1 << 40, [1.0])
        with pytest.raises(ResourceLimitError, match="byte budget"):
            aligned_pair(DyadicWave(40, 0, [1.0]), far)
