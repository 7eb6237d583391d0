"""Uniformly sampled wavefunctions on a periodic window.

Approximate backend for the continuous variable.  Translation is realized
both as an index shift and in its momentum-exponential form through the
discrete Fourier transform.  The squeeze is realized here through the
exponential of the Hermitian dilation generator (x p + p x)/2, applied
to the wave as a Chebyshev series of FFT products without building any
matrix (accurate on smooth input); its even-index decimation form (exact
on piecewise-constant input) is ``erasure.grid_squeeze_all``.  Used to
cross-validate the exact dyadic backend.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError, check_finite, check_integer

# Relative magnitude below which a sample is treated as numerically zero
# when locating support (spectral ops leave ~1e-16 residue everywhere).
SUPPORT_EPS = 1e-13


def _as_float(v: float) -> float:
    """v as a float; an integer past the float range as an infinity."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def check_window(x_min: float, h: float, n: int) -> None:
    """The window x_min + j*h, j < n: a positive finite step, and finite
    first and last positions, so that every position is finite."""
    x0, step = _as_float(x_min), _as_float(h)
    if not (step > 0 and math.isfinite(step)):
        raise ValidationError(f"grid step must be positive and finite, got {step}")
    last = x0 + (n - 1) * step
    if not (math.isfinite(x0) and math.isfinite(last)):
        raise ValidationError(f"grid positions must be finite, got x_min {x0} and last {last}")


@dataclass(frozen=True, eq=False)
class GridWave:
    """Complex samples on the periodic window [x_min, x_min + N*h)."""

    x_min: float
    h: float
    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValidationError(f"samples must be one-dimensional, got shape {arr.shape}")
        n = arr.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ValidationError(f"sample count must be a power of two >= 2, got {n}")
        check_window(self.x_min, self.h, n)
        check_finite("samples", arr)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def x_max(self) -> float:
        return self.x_min + self.n * self.h

    def positions(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(self.n)

    def norm2(self) -> float:
        s = self.samples
        return float(np.sum(s.real**2 + s.imag**2)) * self.h


def sample_function(f: Callable[[float], complex], x_min: float, h: float, N: int) -> GridWave:
    """Tabulate f on the grid: samples[j] = f(x_min + j*h)."""
    if N < 2 or (N & (N - 1)) != 0:
        raise ValidationError(f"N must be a power of two >= 2, got {N}")
    check_window(x_min, h, N)
    xs = x_min + h * np.arange(N)
    return GridWave(x_min, h, np.array([f(float(x)) for x in xs], dtype=np.complex128))


def _samples_per_unit(g: GridWave, t: float, what: str) -> int:
    """Number of grid samples corresponding to a shift of t x-units."""
    raw = t / g.h
    n = int(round(raw))
    if abs(raw - n) > 1e-9:
        raise DomainError(
            f"{what} of {t} x-units is {raw} samples, not an integer multiple of the grid step"
        )
    return n


def translate_shift(g: GridWave, t: int) -> GridWave:
    """psi(x) -> psi(x - t) as an exact circular index shift."""
    t = check_integer("translation amount", t)
    n = _samples_per_unit(g, float(t), "shift")
    return GridWave(g.x_min, g.h, np.roll(g.samples, n))


def translate_spectral(g: GridWave, a: float) -> GridWave:
    """psi(x) -> psi(x - a) via phase multiplication in the Fourier domain."""
    k = 2.0 * np.pi * np.fft.fftfreq(g.n, d=g.h)
    shifted = np.fft.ifft(np.fft.fft(g.samples) * np.exp(-1j * k * a))
    return GridWave(g.x_min, g.h, shifted)


def _chebyshev_coefficients(z: float) -> np.ndarray:
    """c_0 = J_0(z) and c_j = 2 i^j J_j(z), so that exp(i z y) =
    sum_j c_j T_j(y) on [-1, 1], cut past order z where the coefficients
    fall below 1e-15, so the series is exact to rounding.

    J_j(z) comes from Miller's backward recurrence J_{j-1} = (2j/z) J_j -
    J_{j+1}, started well past the cut, rescaled before it overflows and
    normalised by J_0 + 2 sum_k J_2k = 1.
    """
    top = int(z + 20.0 * np.cbrt(z)) + 64
    bessel = np.zeros(top + 2)
    bessel[top] = 1.0
    for j in range(top, 0, -1):
        bessel[j - 1] = (2.0 * j / z) * bessel[j] - bessel[j + 1]
        if abs(bessel[j - 1]) > 1e250:
            bessel[j - 1 :] *= 1e-250
    bessel /= bessel[0] + 2.0 * np.sum(bessel[2::2])
    order = np.arange(top + 2)
    coeffs = 2.0 * np.array([1.0, 1j, -1.0, -1j])[order % 4] * bessel
    coeffs[0] = bessel[0]
    return coeffs[: np.flatnonzero((order > z) & (np.abs(coeffs) < 1e-15))[0]]


def dilation_generator(g: GridWave) -> GridWave:
    """sqrt(2)*psi(2x) via the exponential of i*ln2/2*(XP + PX).

    X multiplies by the sample positions x and P is the spectral
    derivative, P v = ifft(k * fft(v)), so G v = x*(P v) + P(x*v) costs
    one batched pair of FFTs and no matrix is built.  G is Hermitian with
    ||G|| <= rho = 2 max|x| max|k|, and exp(i*theta*G) psi, theta = ln2/2,
    is summed as the Chebyshev series sum_j c_j T_j(G/rho) psi with the
    Bessel coefficients of ``_chebyshev_coefficients(theta*rho)``
    (Tal-Ezer and Kosloff), which is unitary up to rounding.  The series
    has about theta*rho = ln2*pi*max|x|/h terms, so a window reaching |x|
    beyond twice its length n*h is refused with DomainError.  Accurate for smooth waves supported well inside the
    window; accuracy degrades silently on discontinuous input.
    """
    n = g.n
    x = g.positions()
    reach = float(np.max(np.abs(x)))
    if reach > 2.0 * n * g.h:
        raise DomainError(
            f"dilation_generator: the window x_min={g.x_min}, h={g.h}, n={n} reaches |x| = {reach}, "
            f"beyond twice its length {n * g.h}; the Chebyshev series would need about "
            f"{int(np.log(2.0) * np.pi * reach / g.h)} terms"
        )
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=g.h)
    rho = 2.0 * reach * float(np.max(np.abs(k)))
    coeffs = _chebyshev_coefficients(np.log(2.0) / 2.0 * rho)
    k_scaled = k / rho
    pair = np.empty((2, n), dtype=np.complex128)

    def scaled_generator(v: np.ndarray) -> np.ndarray:
        pair[0] = v
        np.multiply(x, v, out=pair[1])
        deriv = np.fft.ifft(k_scaled * np.fft.fft(pair, axis=1), axis=1)
        return x * deriv[0] + deriv[1]

    prev = g.samples
    cur = scaled_generator(prev)
    out = coeffs[0] * prev + coeffs[1] * cur
    for c in coeffs[2:]:
        prev, cur = cur, 2.0 * scaled_generator(cur) - prev
        out += c * cur
    return GridWave(g.x_min, g.h, out)
