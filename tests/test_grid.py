"""Sampled-grid backend: spectral translation, decimation, dilation generator."""
import time
import tracemalloc

import numpy as np
import pytest

from cvhistory.dyadic import DyadicWave, squeeze, value_at
from cvhistory.erasure import GridHybrid, grid_squeeze_all
from cvhistory.errors import DomainError, ValidationError
from cvhistory.grid import (
    GridWave,
    dilation_generator,
    sample_function,
    translate_shift,
    translate_spectral,
)
from dense_reference import ref_dilation_generator

SQRT2 = np.sqrt(2.0)


def indicator01(x: float) -> float:
    return 1.0 if 0.0 <= x < 1.0 else 0.0


def band_limited_random(rng: np.random.Generator, n: int, x_min: float, h: float) -> GridWave:
    spectrum = np.zeros(n, dtype=np.complex128)
    low = max(1, n // 8)
    spectrum[:low] = rng.normal(size=low) + 1j * rng.normal(size=low)
    spectrum[-low:] = rng.normal(size=low) + 1j * rng.normal(size=low)
    s = np.fft.ifft(spectrum)
    return GridWave(x_min, h, s / np.sqrt(h * np.sum(np.abs(s) ** 2)))


class TestConstruction:
    def test_power_of_two_required(self):
        with pytest.raises(ValidationError):
            GridWave(0.0, 0.5, np.ones(12))

    def test_positive_step_required(self):
        with pytest.raises(ValidationError):
            GridWave(0.0, -0.5, np.ones(4))

    @pytest.mark.parametrize(
        "x_min, h", [(np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.1), (0.0, 1e308)],
        ids=["x_min-nan", "x_min-inf", "x_min-minus-inf", "last-position-overflows"],
    )
    def test_positions_must_be_finite(self, x_min, h):
        with pytest.raises(ValidationError, match="grid positions must be finite"):
            GridWave(x_min, h, np.ones(4))
        with pytest.raises(ValidationError, match="grid positions must be finite"):
            sample_function(indicator01, x_min, h, 4)

    @pytest.mark.parametrize("h", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_step_must_be_positive_and_finite(self, h):
        with pytest.raises(ValidationError, match="grid step must be positive and finite"):
            GridWave(0.0, h, np.ones(4))

    def test_largest_finite_window_accepted(self):
        g = GridWave(-1e308, 5e307, np.ones(4))
        assert np.all(np.isfinite(g.positions()))

    def test_finite_samples_required(self):
        with pytest.raises(ValidationError):
            GridWave(0.0, 0.5, [np.nan, 0, 0, 0])


class TestSampleFunction:
    def test_indicator_on_small_window(self):
        g = sample_function(indicator01, -2.0, 0.25, 16)
        assert np.count_nonzero(g.samples) == 4
        xs = g.positions()[np.abs(g.samples) > 0]
        assert np.allclose(xs, [0.0, 0.25, 0.5, 0.75])

    def test_zero_function(self):
        g = sample_function(lambda x: 0.0, -1.0, 0.25, 8)
        assert np.all(g.samples == 0)

    def test_half_sine_norm(self):
        g = sample_function(
            lambda x: SQRT2 * np.sin(np.pi * x) if 0 <= x <= 1 else 0.0, -2.0, 4 / 4096, 4096
        )
        assert abs(g.norm2() - 1.0) <= 1e-3

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            sample_function(indicator01, 0.0, 0.25, 12)
        with pytest.raises(ValidationError):
            sample_function(indicator01, 0.0, 0.0, 16)


class TestTranslateShift:
    def test_zero_shift_identity(self):
        g = sample_function(indicator01, -2.0, 0.25, 16)
        assert np.array_equal(translate_shift(g, 0).samples, g.samples)

    def test_indicator_moves_one_unit(self):
        g = sample_function(indicator01, -2.0, 0.25, 16)
        ref = sample_function(lambda x: indicator01(x - 1.0), -2.0, 0.25, 16)
        assert np.array_equal(translate_shift(g, 1).samples, ref.samples)

    def test_roundtrip_bit_identical(self):
        rng = np.random.default_rng(2)
        g = GridWave(-2.0, 0.25, rng.normal(size=16) + 1j * rng.normal(size=16))
        back = translate_shift(translate_shift(g, 1), -1)
        assert np.array_equal(back.samples, g.samples)

    def test_misaligned_step_rejected(self):
        g = GridWave(-12.0, 3 / 64, np.ones(512))
        with pytest.raises(DomainError):
            translate_shift(g, 1)

    def test_non_integer_rejected(self):
        g = sample_function(indicator01, -2.0, 0.25, 16)
        with pytest.raises(DomainError):
            translate_shift(g, 0.5)

    def test_bool_rejected(self):
        g = sample_function(indicator01, -2.0, 0.25, 16)
        with pytest.raises(DomainError, match="translation amount must be an integer"):
            translate_shift(g, True)


class TestTranslateSpectral:
    def test_zero_shift(self):
        rng = np.random.default_rng(3)
        g = band_limited_random(rng, 256, -8.0, 1 / 16)
        out = translate_spectral(g, 0.0)
        assert np.max(np.abs(out.samples - g.samples)) <= 1e-12

    def test_gaussian_unit_shift(self):
        g = sample_function(lambda x: np.exp(-(x**2) / 2), -8.0, 1 / 64, 1024)
        out = translate_spectral(g, 1.0)
        ref = np.exp(-((g.positions() - 1.0) ** 2) / 2)
        assert np.max(np.abs(out.samples - ref)) <= 1e-9

    def test_matches_index_shift_on_indicator(self):
        g = sample_function(indicator01, -8.0, 1 / 64, 1024)
        d = translate_spectral(g, 1.0).samples - translate_shift(g, 1).samples
        assert np.max(np.abs(d)) <= 1e-9

    def test_inverse_pair(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = band_limited_random(rng, 256, -8.0, 1 / 16)
            a = float(rng.uniform(-2, 2))
            back = translate_spectral(translate_spectral(g, a), -a)
            assert np.max(np.abs(back.samples - g.samples)) <= 1e-9


def squeeze_resample(g: GridWave) -> GridWave:
    """Even-index decimation of one wave: grid_squeeze_all on a one-row hybrid."""
    return grid_squeeze_all(GridHybrid(0, g.x_min, g.h, [g.samples])).row_wave(0)


class TestSqueezeResample:
    def test_indicator(self):
        g = sample_function(indicator01, -2.0, 0.25, 16)
        out = squeeze_resample(g)
        ref = sample_function(lambda x: SQRT2 * indicator01(2 * x), -2.0, 0.25, 16)
        assert np.allclose(out.samples, ref.samples, atol=0)

    def test_zero_wave(self):
        g = sample_function(lambda x: 0.0, -2.0, 0.25, 16)
        assert np.all(squeeze_resample(g).samples == 0)

    def test_matches_dyadic_squeeze(self):
        w = DyadicWave(2, 0, [0.5, -1.0, 0.25j, 1.0, 0.5, 0.0, 1.0, -0.5j])
        g = sample_function(lambda x: complex(w.coeffs[int(x * 4) - w.offset]) if w.x_min <= x < w.x_max else 0.0, -4.0, 1 / 16, 128)
        out = squeeze_resample(g)
        ref = value_at(squeeze(w), out.positions())
        assert np.max(np.abs(out.samples - ref)) <= 1e-12

    def test_support_escape_rejected(self):
        g = sample_function(lambda x: 1.0 if 3.0 <= x < 3.5 else 0.0, 2.0, 1 / 8, 16)
        with pytest.raises(DomainError):
            squeeze_resample(g)


class TestDilationGenerator:
    def test_gaussian_squeeze(self):
        n, half = 512, 12.0
        h = 2 * half / n
        g = sample_function(lambda x: np.exp(-(x**2) / 2) / np.pi**0.25, -half, h, n)
        out = dilation_generator(g)
        ref = SQRT2 * np.exp(-2 * g.positions() ** 2) / np.pi**0.25
        num = np.sqrt(h * np.sum(np.abs(out.samples - ref) ** 2))
        den = np.sqrt(h * np.sum(np.abs(ref) ** 2))
        assert num / den <= 1e-4

    def test_gaussian_norm_preserved(self):
        n, half = 512, 12.0
        h = 2 * half / n
        g = sample_function(lambda x: np.exp(-(x**2) / 2) / np.pi**0.25, -half, h, n)
        assert abs(dilation_generator(g).norm2() - g.norm2()) <= 1e-6

    def test_zero_wave(self):
        g = sample_function(lambda x: 0.0, -4.0, 1 / 8, 64)
        assert np.max(np.abs(dilation_generator(g).samples)) <= 1e-12

    @pytest.mark.parametrize("wave", ["gaussian", "random"])
    def test_matches_matrix_exponential(self, wave):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        n, half = 512, 12.0
        h = 2 * half / n
        if wave == "gaussian":
            g = sample_function(lambda x: np.exp(-(x**2) / 2) / np.pi**0.25, -half, h, n)
        else:
            g = band_limited_random(np.random.default_rng(5), n, -half, h)
        # the same generator, exponentiated as a dense matrix
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        p = np.fft.ifft(k[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
        xp = g.positions()[:, None] * p
        u = scipy_linalg.expm(1j * (np.log(2.0) / 2.0) * (xp + xp.conj().T))
        want = u @ g.samples
        got = dilation_generator(g).samples
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_norm_preserved_on_random_input(self):
        rng = np.random.default_rng(17)
        for n in (16, 64, 256, 512):
            s = rng.normal(size=n) + 1j * rng.normal(size=n)
            g = GridWave(-1.0, 4.0 / n, s)
            g = GridWave(g.x_min, g.h, s / np.sqrt(g.norm2()))
            assert abs(dilation_generator(g).norm2() - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [2, 16, 64, 256, 512])
    @pytest.mark.parametrize("wave", ["gaussian", "band_limited", "white_noise"])
    def test_matches_dense_reference(self, wave, n):
        rng = np.random.default_rng(23 + n)
        h = 24.0 / n
        if wave == "gaussian":
            g = sample_function(lambda x: np.exp(-(x**2) / 2) / np.pi**0.25, -12.0, h, n)
        elif wave == "band_limited":
            g = band_limited_random(rng, n, -12.0, h)
        else:
            g = GridWave(-1.0, 4.0 / n, rng.normal(size=n) + 1j * rng.normal(size=n))
        want = ref_dilation_generator(g).samples
        got = dilation_generator(g).samples
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_peak_memory_stays_below_one_mib(self):
        # the suite's Gaussian; the dense generator and its eigenvectors
        # took 24 MiB here
        n = 512
        g = sample_function(lambda x: np.pi**-0.25 * np.exp(-(x**2) / 2.0), -12.0, 24.0 / n, n)
        tracemalloc.start()
        try:
            dilation_generator(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "x_min, h, n",
        [(-12.0, 24.0 / 512, 512), (-4.0, 1 / 8, 64)]
        + [(-1.0, 4.0 / n, n) for n in (2, 16, 64, 256, 512)]
        + [(-2.0, 1 / 16, 16), (0.0, 1 / 16, 16)],
    )
    def test_windows_within_twice_their_length_run(self, x_min, h, n):
        # every window the tests and suites use, and the edge |x| = 2 n h
        g = GridWave(x_min, h, np.ones(n))
        g = GridWave(x_min, h, g.samples / np.sqrt(g.norm2()))
        assert abs(dilation_generator(g).norm2() - 1.0) <= 1e-12

    @pytest.mark.parametrize("x_min, h", [(-2.0625, 1 / 16), (1e4, 1 / 64)])
    def test_far_window_refused_before_the_series(self, x_min, h):
        # 1e4 would need about 1.4 million terms
        g = GridWave(x_min, h, np.ones(16))
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"x_min=.*h=.*n=16"):
            dilation_generator(g)
        assert time.perf_counter() - start < 1.0
