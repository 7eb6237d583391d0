"""Uniformly sampled wavefunctions on a periodic window.

Approximate backend for the continuous variable.  Translation is realized
both as an index shift and in its momentum-exponential form through the
discrete Fourier transform.  The squeeze is realized here through the
spectral exponential of the Hermitian dilation generator (x p + p x)/2,
taken from its eigendecomposition (accurate on smooth input); its
even-index decimation form (exact on piecewise-constant input) is
``erasure.grid_squeeze_all``.  Used to cross-validate the exact
dyadic backend.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError

# Relative magnitude below which a sample is treated as numerically zero
# when locating support (spectral ops leave ~1e-16 residue everywhere).
SUPPORT_EPS = 1e-13


@dataclass(frozen=True, eq=False)
class GridWave:
    """Complex samples on the periodic window [x_min, x_min + N*h)."""

    x_min: float
    h: float
    samples: np.ndarray

    def __post_init__(self):
        if not (self.h > 0 and np.isfinite(self.h)):
            raise ValidationError(f"grid step must be positive and finite, got {self.h}")
        arr = np.array(self.samples, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValidationError(f"samples must be one-dimensional, got shape {arr.shape}")
        n = arr.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ValidationError(f"sample count must be a power of two >= 2, got {n}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValidationError("samples must be finite (no NaN/Inf)")
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
    if not (h > 0 and np.isfinite(h)):
        raise ValidationError(f"grid step must be positive and finite, got {h}")
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
    if not isinstance(t, (int, np.integer)):
        raise DomainError(f"translate_shift takes an integer number of x-units, got {t!r}")
    n = _samples_per_unit(g, float(t), "shift")
    return GridWave(g.x_min, g.h, np.roll(g.samples, n))


def translate_spectral(g: GridWave, a: float) -> GridWave:
    """psi(x) -> psi(x - a) via phase multiplication in the Fourier domain."""
    k = 2.0 * np.pi * np.fft.fftfreq(g.n, d=g.h)
    shifted = np.fft.ifft(np.fft.fft(g.samples) * np.exp(-1j * k * a))
    return GridWave(g.x_min, g.h, shifted)


def dilation_generator(g: GridWave) -> GridWave:
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
