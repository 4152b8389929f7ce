"""Real-input DFT helpers with pinned conventions.

These are the fixed conventions around the trainable layer: the
forward/inverse real FFT, the low-pass cutoff rule, and phase-shift
utilities. The model itself slices the kept bins and lets the inverse FFT
zero-pad the rest.

Conventions (pinned, validated by the roundtrip and Parseval tests):

    forward:  X[k] = sum_t x[t] * exp(-2j*pi*k*t/N)     (unnormalized)
    inverse:  x[t] = (1/N) * Re[ X[0] + 2*sum_{0<k<N/2} X[k]*exp(+2j*pi*k*t/N)
                                + X[N/2]*(-1)^t ]

A length-N real signal maps to N/2+1 complex bins; bin k completes k cycles
per window. Only even N is supported, which keeps the Nyquist bin unambiguous
and covers every configuration this package trains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidLengthError,
    InvalidValueError,
    ShapeError,
)


@dataclass(frozen=True)
class Spectrum:
    """Full half-spectrum of a real signal: N/2+1 complex bins plus N."""

    bins: np.ndarray
    source_len: int

    def __post_init__(self):
        # a private copy, so freezing it leaves the caller's array writable
        bins = np.array(self.bins, dtype=np.complex128)
        bins.setflags(write=False)
        object.__setattr__(self, "bins", bins)
        n = self.source_len
        if n < 2 or n % 2 != 0:
            raise InvalidLengthError(f"source_len must be even and >= 2, got {n}")
        if bins.ndim != 1 or bins.shape[0] != n // 2 + 1:
            raise ShapeError(
                f"spectrum of a length-{n} signal needs {n // 2 + 1} bins, "
                f"got shape {bins.shape}"
            )


@dataclass(frozen=True)
class PolarComponent:
    """Amplitude/phase form of one complex frequency component."""

    amplitude: float
    phase: float  # radians in (-pi, pi]


def rfft(x) -> Spectrum:
    """Forward real DFT of an even-length vector (unnormalized)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got shape {x.shape}")
    n = x.shape[0]
    if n < 2 or n % 2 != 0:
        raise InvalidLengthError(f"length must be even and >= 2, got {n}")
    if not np.all(np.isfinite(x)):
        raise InvalidValueError("input contains non-finite values")
    return Spectrum(np.fft.rfft(x), n)


def irfft(s: Spectrum) -> np.ndarray:
    """Inverse of :func:`rfft` (1/N normalization on the inverse)."""
    if not isinstance(s, Spectrum):
        raise ShapeError("irfft expects a Spectrum")
    return np.fft.irfft(s.bins, n=s.source_len)


def base_frequency(window_len: int, period: int) -> int:
    """Bin index of the dominant period inside a length-L window: floor(L/P)."""
    if window_len < 1:
        raise InvalidArgumentError(f"window_len must be >= 1, got {window_len}")
    if period < 1:
        raise InvalidArgumentError(f"period must be >= 1, got {period}")
    return window_len // period


def cutoff_bins(window_len: int, period: int, harmonic: int) -> int:
    """Low-pass cutoff bin for keeping the first `harmonic` harmonics.

    k_cut = harmonic * (floor(L/P) + 1) + 10, clamped to the floor(L/2)
    non-DC bins actually available, so extreme orders degrade to "no filter".
    """
    if harmonic < 1:
        raise InvalidArgumentError(f"harmonic must be >= 1, got {harmonic}")
    k = harmonic * (base_frequency(window_len, period) + 1) + 10
    return min(k, window_len // 2)


def time_shift_spectrum(s: Spectrum, shift: int) -> Spectrum:
    """Spectrum of the circularly time-shifted signal: bins[k] *= e^{-2j pi k tau/N}."""
    k = np.arange(s.bins.shape[0])
    rot = np.exp(-2j * np.pi * k * shift / s.source_len)
    return Spectrum(s.bins * rot, s.source_len)


def polar(z: complex) -> PolarComponent:
    """Amplitude/phase of a complex value; zero maps to phase 0 by convention."""
    z = complex(z)
    if z == 0:
        return PolarComponent(0.0, 0.0)
    return PolarComponent(abs(z), math.atan2(z.imag, z.real))
