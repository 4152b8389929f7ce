"""Transform-level checks: hand-computable fixtures, the brute-force DFT
oracle, and the conservation/shift laws the conventions must satisfy."""

import math

import numpy as np
import pytest

from freqcast.errors import (
    InvalidArgumentError,
    InvalidLengthError,
    InvalidValueError,
    ShapeError,
)
from freqcast.spectral import (
    PolarComponent,
    Spectrum,
    base_frequency,
    cutoff_bins,
    irfft,
    polar,
    rfft,
    time_shift_spectrum,
)


def naive_dft(x):
    """O(N^2) reference: bins[k] = sum_t x[t] exp(-2j pi k t / N)."""
    n = len(x)
    out = np.zeros(n // 2 + 1, dtype=complex)
    for k in range(n // 2 + 1):
        for t in range(n):
            out[k] += x[t] * np.exp(-2j * np.pi * k * t / n)
    return out


def test_rfft_constant_signal():
    s = rfft([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(s.bins, [4.0, 0.0, 0.0], atol=1e-12)
    assert s.source_len == 4


def test_rfft_pure_cosine():
    s = rfft([1.0, 0.0, -1.0, 0.0])
    assert np.allclose(s.bins, [0.0, 2.0, 0.0], atol=1e-12)


def test_rfft_matches_naive_dft():
    rng = np.random.default_rng(42)
    for n in (2, 4, 8, 16, 50, 200):
        x = rng.normal(size=n)
        assert np.allclose(rfft(x).bins, naive_dft(x), atol=1e-9)


def test_rfft_rejects_bad_input():
    with pytest.raises(InvalidLengthError):
        rfft([1.0, 2.0, 3.0])
    with pytest.raises(InvalidLengthError):
        rfft([])
    with pytest.raises(InvalidValueError):
        rfft([1.0, np.nan, 0.0, 0.0])


def test_irfft_fixtures():
    assert np.allclose(irfft(Spectrum([4, 0, 0], 4)), [1, 1, 1, 1], atol=1e-12)
    assert np.allclose(irfft(Spectrum([0, 2, 0], 4)), [1, 0, -1, 0], atol=1e-12)


def test_irfft_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=16)
        assert np.allclose(irfft(rfft(x)), x, atol=1e-9)


def test_roundtrip_across_lengths():
    rng = np.random.default_rng(3)
    for n in (2, 6, 10, 64, 90, 128, 360, 1024):
        x = rng.normal(size=n)
        assert np.allclose(irfft(rfft(x)), x, atol=1e-9)


def test_spectrum_validates_bin_count():
    with pytest.raises(ShapeError):
        Spectrum([1, 2], 4)
    with pytest.raises(InvalidLengthError):
        Spectrum([1, 2, 3], 5)


def test_spectrum_freezes_its_own_copy_of_the_bins():
    bins = np.array([4, 0, 0], dtype=np.complex128)
    s = Spectrum(bins, 4)
    assert bins.flags.writeable and not s.bins.flags.writeable
    bins[0] = 8
    assert s.bins[0] == 4


def test_real_signal_dc_and_nyquist_are_real():
    rng = np.random.default_rng(11)
    s = rfft(rng.normal(size=32))
    assert abs(s.bins[0].imag) < 1e-9
    assert abs(s.bins[-1].imag) < 1e-9


def test_rfft_linearity():
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=24), rng.normal(size=24)
    a, b = 2.5, -1.25
    lhs = rfft(a * x + b * y).bins
    rhs = a * rfft(x).bins + b * rfft(y).bins
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_parseval():
    rng = np.random.default_rng(13)
    for n in (8, 50, 200):
        x = rng.normal(size=n)
        bins = rfft(x).bins
        spectral = (abs(bins[0]) ** 2 + 2 * np.sum(np.abs(bins[1:-1]) ** 2)
                    + abs(bins[-1]) ** 2) / n
        assert math.isclose(float(np.sum(x**2)), spectral, rel_tol=1e-6)


def test_base_frequency():
    assert base_frequency(480, 24) == 20
    assert base_frequency(720, 24) == 30
    assert base_frequency(90, 96) == 0
    with pytest.raises(InvalidArgumentError):
        base_frequency(480, 0)


def test_cutoff_bins_values():
    assert cutoff_bins(720, 24, 2) == 72
    assert cutoff_bins(90, 96, 4) == 14
    assert cutoff_bins(90, 144, 5) == 15


def test_cutoff_bins_clamps_to_available_bins():
    # 10*(90//24+1)+10 = 50 > 45 available non-DC bins
    assert cutoff_bins(90, 24, 10) == 45


def test_cutoff_bins_monotone():
    for period in (24, 96, 144):
        for window in (90, 180, 360, 720):
            ks = [cutoff_bins(window, period, n) for n in range(1, 12)]
            assert all(a <= b for a, b in zip(ks, ks[1:]))
        for n in (1, 3, 6):
            ks = [cutoff_bins(window, period, n) for window in (90, 180, 360, 720)]
            assert all(a <= b for a, b in zip(ks, ks[1:]))


def test_time_shift_identity_and_amplitude():
    rng = np.random.default_rng(23)
    s = rfft(rng.normal(size=16))
    same = time_shift_spectrum(s, 0)
    assert np.allclose(same.bins, s.bins)
    shifted = time_shift_spectrum(s, 5)
    assert np.allclose(np.abs(shifted.bins), np.abs(s.bins), atol=1e-12)


def test_time_shift_matches_circular_shift():
    rng = np.random.default_rng(29)
    for n in (8, 16, 50):
        x = rng.normal(size=n)
        for tau in range(n):
            via_spec = time_shift_spectrum(rfft(x), tau).bins
            via_roll = rfft(np.roll(x, tau)).bins
            assert np.allclose(via_spec, via_roll, atol=1e-9)


def test_polar_fixtures():
    assert polar(1 + 0j) == PolarComponent(1.0, 0.0)
    p = polar(1j)
    assert math.isclose(p.amplitude, 1.0) and math.isclose(p.phase, math.pi / 2)
    assert polar(0j) == PolarComponent(0.0, 0.0)


def test_polar_reconstruction():
    rng = np.random.default_rng(31)
    for _ in range(50):
        z = complex(rng.normal(), rng.normal())
        p = polar(z)
        back = p.amplitude * (math.cos(p.phase) + 1j * math.sin(p.phase))
        assert abs(back - z) < 1e-12


def test_polar_multiplication_law():
    rng = np.random.default_rng(37)
    for _ in range(200):
        z1 = complex(rng.normal(), rng.normal())
        z2 = complex(rng.normal(), rng.normal())
        p1, p2, prod = polar(z1), polar(z2), polar(z1 * z2)
        assert math.isclose(prod.amplitude, p1.amplitude * p2.amplitude,
                            rel_tol=1e-12, abs_tol=1e-12)
        want = p1.phase + p2.phase
        while want > math.pi:
            want -= 2 * math.pi
        while want <= -math.pi:
            want += 2 * math.pi
        assert math.isclose(prod.phase, want, rel_tol=1e-9, abs_tol=1e-12)
