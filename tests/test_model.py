"""Model-level checks: normalizer inverse, the kept input bins against
normalize-then-rfft, the forward pipeline, analytic gradients vs central
finite differences, seeded init, and parameter accounting against the
published benchmark settings."""

import math
import os
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcast import model, training
from freqcast.data import ArrayWindows
from freqcast.errors import (
    FreqcastError,
    InvalidArgumentError,
    InvalidLengthError,
    InvalidValueError,
    ShapeError,
)
from freqcast.model import (
    RIN_EPS,
    ComplexLinear,
    ModelConfig,
    RinState,
    Supervision,
    init_params,
    load_checkpoint,
    model_backward,
    model_forward,
    pack_params,
    param_count,
    rin_denormalize,
    rin_normalize,
    _scaled_bins,
    _tail_synthesis,
    save_checkpoint,
    unpack_params,
)


# --- instance normalization --------------------------------------------------

def test_rin_constant_channel():
    x = np.array([[5.0], [5.0], [5.0], [5.0]])
    xn, state = rin_normalize(x)
    assert np.allclose(xn, 0.0)
    assert np.allclose(state.mean, 5.0)
    assert np.allclose(state.std, 1e-5)


def test_rin_two_points():
    xn, state = rin_normalize(np.array([[0.0], [2.0]]))
    assert np.allclose(xn, [[-1.0], [1.0]])
    assert np.allclose(state.mean, 1.0)
    assert np.allclose(state.std, 1.0)  # population std


def test_rin_statistics():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.0, size=(64, 3))
    xn, _ = rin_normalize(x)
    assert np.all(np.abs(xn.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(xn.std(axis=0) - 1.0) < 1e-6)


def test_rin_roundtrip():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(32, 4))
    xn, state = rin_normalize(x)
    assert np.allclose(rin_denormalize(xn, state), x, atol=1e-9)


def test_rin_denormalize_affine():
    state = RinState(np.array([[3.0]]), np.array([[2.0]]))
    assert np.allclose(rin_denormalize(np.zeros((5, 1)), state), 3.0)
    rng = np.random.default_rng(2)
    y = rng.normal(size=(6, 1))
    out = rin_denormalize(y, state)
    for i in range(6):
        assert math.isclose(out[i, 0], y[i, 0] * 2.0 + 3.0)


def test_rin_rejects_nonfinite_and_mismatched_channels():
    with pytest.raises(InvalidValueError):
        rin_normalize(np.array([[1.0], [np.inf]]))
    _, state = rin_normalize(np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        rin_denormalize(np.zeros((4, 3)), state)


def test_rin_rejects_wrong_rank_and_one_row():
    with pytest.raises(ShapeError, match=r"expected \(L, C\) or \(B, L, C\)"):
        rin_normalize(np.zeros(4))
    with pytest.raises(ShapeError, match=r"expected \(L, C\) or \(B, L, C\)"):
        rin_normalize(np.zeros((1, 2, 4, 1)))
    with pytest.raises(InvalidLengthError, match="at least 2 timesteps"):
        rin_normalize(np.zeros((1, 3)))
    with pytest.raises(InvalidLengthError, match="at least 2 timesteps"):
        rin_normalize(np.zeros((5, 1, 3)))


# --- forward pipeline -----------------------------------------------------------

@pytest.mark.parametrize("channels", [1, 3])
def test_normalized_bins_match_rin_normalize_then_rfft(channels):
    # with one channel the (B, L, C) -> (B, C, L) transpose can alias the input
    cfg = ModelConfig.for_forecast(24, 8, 6, 1, channels)
    rng = np.random.default_rng(40 + channels)
    x = rng.normal(3.0, 2.0, size=(5, 24, channels))
    before = x.copy()
    z, mean = _scaled_bins(x, cfg)
    assert np.array_equal(x, before)

    # z~ = [std, kept bins of rfft(x - mean)] = std * [1, kept bins of the normalized rfft]
    xn, state = rin_normalize(x)
    want = state.std * np.fft.rfft(xn, axis=1)[:, 1 : 1 + cfg.n_in, :]

    def rows(a):  # (B, k, C) -> channel-major (B*C, k)
        return a.transpose(0, 2, 1).reshape(5 * channels, -1)

    assert z.shape == (5 * channels, 1 + cfg.n_in)
    assert np.abs(z[:, 1:] - rows(want)).max() <= 1e-12
    assert np.abs(z[:, :1] - rows(state.std)).max() <= 1e-12
    assert np.abs(mean - rows(state.mean)).max() <= 1e-12

    # the statistics are np.mean's and np.std's bit for bit, on a constant
    # channel and on one offset by 1e6 too
    x[0, :, 0] = 7.25
    x[1, :, -1] += 1e6
    z, mean = _scaled_bins(x, cfg)
    assert np.array_equal(mean, np.mean(rows(x), axis=-1, keepdims=True))
    assert np.array_equal(z[:, :1], np.maximum(np.std(rows(x), axis=-1, keepdims=True), RIN_EPS))
    assert z[0, 0] == RIN_EPS and not z[0, 1:].any()


def test_forward_zero_weights_returns_instance_mean():
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 2)
    layer = ComplexLinear(np.zeros((cfg.n_in, cfg.n_out), dtype=complex),
                          np.zeros(cfg.n_out, dtype=complex))
    rng = np.random.default_rng(5)
    x = rng.normal(size=(16, 2)) + np.array([3.0, -1.0])
    y = model_forward(x, cfg, layer)
    assert y.shape == (24, 2)
    assert np.allclose(y, x.mean(axis=0), atol=1e-9)


def test_forward_identity_configuration():
    cfg = ModelConfig(32, 32, 8, 0, 3)
    layer = ComplexLinear(np.eye(cfg.n_in, dtype=complex),
                          np.zeros(cfg.n_out, dtype=complex))
    rng = np.random.default_rng(6)
    x = rng.normal(size=(32, 3))
    assert np.allclose(model_forward(x, cfg, layer), x, atol=1e-6)


def test_forward_shapes_from_derived_dims():
    cfg = ModelConfig.for_forecast(90, 96, 96, 4, 7)
    assert (cfg.n_in, cfg.n_out, cfg.output_len) == (14, 28, 186)
    layer = init_params(cfg, 0)
    y = model_forward(np.zeros((90, 7)) + 1.0, cfg, layer)
    assert y.shape == (186, 7)


def test_forward_deterministic():
    cfg = ModelConfig.for_forecast(16, 8, 4, 1, 2)
    layer = init_params(cfg, 9)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 16, 2))
    a = model_forward(x, cfg, layer)
    b = model_forward(x, cfg, layer)
    assert np.array_equal(a, b)


def test_forward_zero_mean_before_denormalize():
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 1)
    layer = init_params(cfg, 11)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(16, 1)) + 10.0
    y = model_forward(x, cfg, layer)
    xn, state = rin_normalize(x)
    yn = (y - state.mean) / state.std
    assert abs(yn.mean()) < 1e-9


def test_forward_no_cross_channel_mixing():
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 3)
    layer = init_params(cfg, 13)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(16, 3))
    perm = [2, 0, 1]
    assert np.allclose(model_forward(x[:, perm], cfg, layer),
                       model_forward(x, cfg, layer)[:, perm])


def test_forward_affine_in_normalized_input():
    # with RIN bypassed, stages 2-6 are linear in the input
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 1)
    layer = init_params(cfg, 15)
    rng = np.random.default_rng(10)

    def core(xn):
        spec = np.fft.rfft(xn, axis=0)
        kept = spec[1 : 1 + cfg.n_in]
        out = kept.T @ layer.weight + layer.bias
        padded = np.zeros(cfg.output_len // 2 + 1, dtype=complex)
        padded[1 : 1 + cfg.n_out] = out[0]
        return np.fft.irfft(padded, n=cfg.output_len)

    x = rng.normal(size=(16, 1))
    z = rng.normal(size=(16, 1))
    a, b = 1.7, -0.4
    lhs = core(a * x + b * z)
    bias_part = core(np.zeros((16, 1)))
    rhs = a * core(x) + b * core(z) - (a + b - 1) * bias_part
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_forward_matches_explicitly_padded_irfft_bit_for_bit():
    # irfft zero-pads the bins above n_out itself; an explicit buffer is the same
    for cfg in (ModelConfig.for_forecast(720, 96, 24, 6, 2),   # 196 -> 222 of 408
                ModelConfig(100, 200, 1, 0, 1),                 # Nyquist bin used
                ModelConfig.for_forecast(96, 24, 24, 0, 1)):
        layer = init_params(cfg, 3)
        x = np.random.default_rng(4).normal(size=(3, cfg.input_len, cfg.channels))
        # the model's channel-major rows and z~ = [std, rfft(x - mean)], with the same operations
        rows = x.transpose(0, 2, 1).reshape(-1, cfg.input_len)
        mean = rows.mean(axis=-1, keepdims=True)
        z = np.fft.rfft(rows - mean, axis=-1)[:, : 1 + cfg.n_in]
        z[:, 0] = np.maximum(rows.std(axis=-1), 1e-5)
        padded = np.zeros((rows.shape[0], cfg.output_len // 2 + 1), dtype=complex)
        padded[:, 1 : 1 + cfg.n_out] = z @ np.vstack((layer.bias, layer.weight))
        y = np.fft.irfft(padded, n=cfg.output_len, axis=-1) + mean
        y = y.reshape(3, cfg.channels, cfg.output_len).transpose(0, 2, 1)
        assert np.array_equal(model_forward(x, cfg, layer), y)


@st.composite
def tail_cases(draw):
    input_len = 2 * draw(st.integers(1, 40))
    output_len = input_len + 2 * draw(st.integers(0, 40))
    harmonic = draw(st.integers(0, 3))  # 0 keeps every bin, so reaches Nyquist
    cfg = ModelConfig(input_len, output_len, draw(st.integers(1, 30)), harmonic,
                      draw(st.integers(1, 3)))
    return cfg, draw(st.integers(1, output_len)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(tail_cases())
def test_forward_last_rows_match_full_output(case):
    # evaluate scores the last rows through the tail synthesis; plain NumPy
    # scores the same rows of the full irfft output
    cfg, last, seed = case
    rng = np.random.default_rng(seed)
    layer = init_params(cfg, seed)
    layer.bias[:] = rng.normal(size=cfg.n_out) + 1j * rng.normal(size=cfg.n_out)
    x = rng.normal(size=(4, cfg.input_len, cfg.channels)) * 3.0 + 2.0
    t = rng.normal(size=(4, cfg.output_len, cfg.channels)) * 3.0 - 1.0
    diff = model_forward(x, cfg, layer)[:, -last:] - t[:, -last:]
    got = training.evaluate(cfg, layer, ArrayWindows(x, t), last)
    for value, want in zip(got, (np.mean(diff**2), np.mean(np.abs(diff)))):
        assert abs(value - want) <= 1e-12 * want


@pytest.mark.parametrize("cfg", [
    ModelConfig.for_forecast(48, 24, 24, 0, 1),  # the layer reaches Nyquist
    ModelConfig.for_forecast(48, 24, 24, 2, 1),
])
def test_tail_synthesis_is_cached_read_only(cfg):
    synth = _tail_synthesis(cfg, 24)
    assert _tail_synthesis(cfg, 24) is synth
    assert not synth.flags.writeable
    with pytest.raises(ValueError):
        synth[0, 0] = 0.0
    assert np.array_equal(synth, _tail_synthesis.__wrapped__(cfg, 24))


# --- gradients -------------------------------------------------------------------

def finite_diff_grads(x, target, cfg, layer, h=1e-5, loss_of=None):
    """Central differences of loss_of(W, b), by default `model_backward`'s loss."""
    if loss_of is None:
        def loss_of(w, b):
            return model_backward(x, target, cfg, ComplexLinear(w, b))[0]

    dw = np.zeros_like(layer.weight)
    db = np.zeros_like(layer.bias)
    for i in range(layer.weight.shape[0]):
        for o in range(layer.weight.shape[1]):
            for im, delta in ((0, h), (1, 1j * h)):
                wp = layer.weight.copy()
                wp[i, o] += delta
                wm = layer.weight.copy()
                wm[i, o] -= delta
                g = (loss_of(wp, layer.bias) - loss_of(wm, layer.bias)) / (2 * h)
                dw[i, o] += g * (1j if im else 1)
    for o in range(layer.bias.shape[0]):
        for im, delta in ((0, h), (1, 1j * h)):
            bp = layer.bias.copy()
            bp[o] += delta
            bm = layer.bias.copy()
            bm[o] -= delta
            g = (loss_of(layer.weight, bp) - loss_of(layer.weight, bm)) / (2 * h)
            db[o] += g * (1j if im else 1)
    return dw, db


def max_rel_err(analytic, numeric):
    scale = np.max(np.abs(numeric))
    denom = np.maximum(np.abs(numeric), 1e-3 * scale)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_gradient_zero_at_perfect_fit():
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 2)
    layer = init_params(cfg, 17)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 16, 2))
    target = model_forward(x, cfg, layer)
    loss, dw, db = model_backward(x, target, cfg, layer)
    # the full-window loss is a sum over spectra, so it is zero only to rounding
    assert loss <= 64 * np.finfo(float).eps ** 2 * np.mean(target**2)
    assert np.allclose(dw, 0.0) and np.allclose(db, 0.0)


def test_gradient_matches_finite_differences():
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 2)
    rng = np.random.default_rng(12)
    layer = init_params(cfg, 19)
    x = rng.normal(size=(2, 16, 2))
    target = rng.normal(size=(2, 24, 2))
    _, dw, db = model_backward(x, target, cfg, layer)
    fdw, fdb = finite_diff_grads(x, target, cfg, layer)
    assert max_rel_err(dw, fdw) < 1e-4
    assert max_rel_err(db, fdb) < 1e-4


def test_gradient_forecast_only_supervision():
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 2, Supervision.FORECAST_ONLY)
    rng = np.random.default_rng(13)
    layer = init_params(cfg, 23)
    x = rng.normal(size=(2, 16, 2))
    target = rng.normal(size=(2, 8, 2))
    _, dw, db = model_backward(x, target, cfg, layer)
    fdw, fdb = finite_diff_grads(x, target, cfg, layer)
    assert max_rel_err(dw, fdw) < 1e-4
    assert max_rel_err(db, fdb) < 1e-4


@pytest.mark.parametrize("cfg", [
    ModelConfig.for_forecast(16, 8, 4, 0, 2),  # harmonic 0: the layer reaches Nyquist
    ModelConfig.for_forecast(32, 8, 8, 1, 2),  # 15 -> 18 of 20 bins: no Nyquist
    ModelConfig.for_reconstruction(24, 2, 2),
    ModelConfig.for_forecast(16, 8, 4, 0, 2, Supervision.FORECAST_ONLY),  # reaches Nyquist
    ModelConfig.for_forecast(32, 8, 8, 1, 2, Supervision.FORECAST_ONLY),  # 15 -> 18 of 20
], ids=["bf-nyquist", "bf-below-nyquist", "reconstruction", "forecast-only",
        "forecast-only-below-nyquist"])
def test_backward_matches_time_domain_oracle(monkeypatch, cfg):
    # the full-window loss is computed from spectra and the forecast-only loss
    # through the tail synthesis; the oracle is the time-domain MSE of the
    # full forward pass, and finite differences of the loss, with the batch
    # computed whole and as two half batches
    rows = cfg.target_rows
    rng = np.random.default_rng(cfg.output_len + rows)
    layer = init_params(cfg, 37)
    layer.bias[:] = rng.normal(size=cfg.n_out) + 1j * rng.normal(size=cfg.n_out)
    x = rng.normal(size=(3, cfg.input_len, cfg.channels)) * 2.0 + 5.0
    t = rng.normal(size=(3, rows, cfg.channels)) * 2.0 + 4.0
    for halves in (False, True):
        monkeypatch.setattr(model, "_splits", lambda cfg, windows: halves)
        loss, dw, db = model_backward(x, t, cfg, layer)
        want = np.mean((model_forward(x, cfg, layer)[:, -rows:] - t) ** 2)
        assert abs(loss - want) <= 1e-12 * want
        fdw, fdb = finite_diff_grads(x, t, cfg, layer)
        assert max_rel_err(dw, fdw) < 1e-4
        assert max_rel_err(db, fdb) < 1e-4


@settings(max_examples=40, deadline=None)
@given(input_len=st.integers(1, 8).map(lambda n: 2 * n),
       horizon=st.integers(1, 8).map(lambda n: 2 * n), period=st.integers(1, 8),
       harmonic=st.integers(0, 2),  # 0 keeps every bin, so the layer reaches Nyquist
       channels=st.integers(1, 3), batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_forecast_only_backward_matches_oracles(input_len, horizon, period, harmonic,
                                                channels, batch, seed):
    # the loss against the time-domain MSE of the full forward pass, and the
    # gradient against central differences of that MSE, with the batch
    # computed whole and as two half batches
    cfg = ModelConfig.for_forecast(input_len, horizon, period, harmonic, channels,
                                   Supervision.FORECAST_ONLY)
    rng = np.random.default_rng(seed)
    layer = init_params(cfg, seed)
    layer.bias[:] = rng.normal(size=cfg.n_out) + 1j * rng.normal(size=cfg.n_out)
    x = rng.normal(size=(batch, input_len, channels)) * 2.0 + 5.0
    t = rng.normal(size=(batch, horizon, channels)) * 2.0 + 4.0

    def time_domain_loss(w, b):
        return np.mean((model_forward(x, cfg, ComplexLinear(w, b))[:, -horizon:] - t) ** 2)

    want = time_domain_loss(layer.weight, layer.bias)
    fd = finite_diff_grads(x, t, cfg, layer, loss_of=time_domain_loss)
    with pytest.MonkeyPatch.context() as patch:
        for halves in (False, True):
            patch.setattr(model, "_splits", lambda cfg, windows: halves and windows >= 2)
            loss, *grads = model_backward(x, t, cfg, layer)
            assert abs(loss - want) <= 1e-12 * want
            for analytic, numeric in zip(grads, fd):
                assert max_rel_err(analytic, numeric) < 1e-4


@settings(max_examples=40, deadline=None)
@given(input_len=st.integers(1, 8).map(lambda n: 2 * n),
       horizon=st.integers(1, 8).map(lambda n: 2 * n), period=st.integers(1, 8),
       harmonic=st.integers(0, 2),  # 0 keeps every bin, so the layer reaches Nyquist
       reconstruct=st.booleans(), channels=st.integers(1, 3), batch=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_whole_window_backward_matches_oracles(input_len, horizon, period, harmonic,
                                               reconstruct, channels, batch, seed):
    # the spectral loss R = z~ W~ - B against the time-domain MSE of the full
    # forward pass, and the gradient against central differences of that
    # MSE, with the batch computed whole and as two half batches; a
    # reconstruction model upsamples input_len rows by a factor of 1 to 5
    if reconstruct:
        factor = horizon // 4 + 1
        cfg = ModelConfig.for_reconstruction(input_len * factor, factor, channels)
    else:
        cfg = ModelConfig.for_forecast(input_len, horizon, period, harmonic, channels)
    rng = np.random.default_rng(seed)
    layer = init_params(cfg, seed)
    layer.bias[:] = rng.normal(size=cfg.n_out) + 1j * rng.normal(size=cfg.n_out)
    x = rng.normal(size=(batch, cfg.input_len, channels)) * 2.0 + 5.0
    t = rng.normal(size=(batch, cfg.output_len, channels)) * 2.0 + 4.0

    def time_domain_loss(w, b):
        return np.mean((model_forward(x, cfg, ComplexLinear(w, b)) - t) ** 2)

    want = time_domain_loss(layer.weight, layer.bias)
    fd = finite_diff_grads(x, t, cfg, layer, loss_of=time_domain_loss)
    with pytest.MonkeyPatch.context() as patch:
        for halves in (False, True):
            patch.setattr(model, "_splits", lambda cfg, windows: halves and windows >= 2)
            loss, *grads = model_backward(x, t, cfg, layer)
            assert abs(loss - want) <= 1e-12 * want
            for analytic, numeric in zip(grads, fd):
                assert max_rel_err(analytic, numeric) < 1e-4


def test_gradient_linear_in_residual():
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 1)
    layer = init_params(cfg, 29)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 16, 1))
    base = model_forward(x, cfg, layer)
    delta = rng.normal(size=base.shape)
    _, dw1, db1 = model_backward(x, base - delta, cfg, layer)
    _, dw2, db2 = model_backward(x, base - 2 * delta, cfg, layer)
    assert np.allclose(dw2, 2 * dw1, atol=1e-12)
    assert np.allclose(db2, 2 * db1, atol=1e-12)


def test_gradient_target_shape_errors():
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 1)
    layer = init_params(cfg, 31)
    x = np.zeros((2, 16, 1)) + 1.0
    with pytest.raises(ShapeError):
        model_backward(x, np.zeros((2, 8, 1)), cfg, layer)  # B+F wants 24 rows
    with pytest.raises(ShapeError):
        model_backward(x, np.zeros((3, 24, 1)), cfg, layer)  # 3 targets for 2 inputs


def _all_passes(cfg, batch, seed):
    """Backward, forward and `evaluate` (last row, horizon, every target row)
    results on seeded data."""
    rng = np.random.default_rng(seed)
    layer = init_params(cfg, seed)
    layer.bias[:] = rng.normal(size=cfg.n_out) + 1j * rng.normal(size=cfg.n_out)
    x = rng.normal(size=(batch, cfg.input_len, cfg.channels)).cumsum(axis=1)
    target = rng.normal(size=(batch, cfg.target_rows, cfg.channels))
    windows = ArrayWindows(x, target)
    return [model_backward(x, target, cfg, layer), model_forward(x, cfg, layer),
            *(training.evaluate(cfg, layer, windows, k)
              for k in (1, max(1, cfg.horizon), None))]


def _model_calls(seed):
    """`_all_passes` of both supervisions at one small shape."""
    return [*_all_passes(ModelConfig.for_forecast(24, 8, 6, 2, 3), 6, seed),
            *_all_passes(ModelConfig.for_forecast(24, 8, 6, 2, 3, Supervision.FORECAST_ONLY),
                         6, seed)]


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        # (loss, dW, db) and (MSE, MAE) tuples, and output arrays
        for a, b in zip(g, w) if isinstance(w, tuple) else [(g, w)]:
            assert np.array_equal(a, b)


def test_results_outlive_later_calls():
    # the model's scratch buffers are reused; nothing it returns may alias one
    results = _model_calls(70)
    saved = [tuple(np.copy(v) for v in r) if isinstance(r, tuple) else r.copy()
             for r in results]
    _model_calls(71)  # the same shapes, other data
    rng = np.random.default_rng(72)
    for cfg in (ModelConfig.for_forecast(48, 16, 12, 0, 2),
                ModelConfig.for_forecast(8, 4, 4, 0, 1, Supervision.FORECAST_ONLY)):
        layer = init_params(cfg, 73)
        for batch in (1, 20):  # smaller and larger than the first batch
            x = rng.normal(size=(batch, cfg.input_len, cfg.channels))
            t = rng.normal(size=(batch, cfg.target_rows, cfg.channels))
            model_backward(x, t, cfg, layer)
            model_forward(x, cfg, layer)
            training.evaluate(cfg, layer, ArrayWindows(x, t), 3)
    _model_calls(74)
    _assert_same_bits(results, saved)


def test_threads_compute_the_main_threads_bits():
    # each thread has its own buffers: fresh threads running at once, with
    # frequent switches, repeat the main thread's results bit for bit
    want = {seed: _model_calls(seed) for seed in range(75, 79)}
    got = {}

    def work(seed):
        got[seed] = [_model_calls(seed) for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(seed,)) for seed in want]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert sorted(got) == sorted(want)
    for seed, runs in got.items():
        for run in runs:
            _assert_same_bits(run, want[seed])


# --- half batches --------------------------------------------------------------------

FORECAST = Supervision.FORECAST_ONLY


def _halve_every_batch(monkeypatch):
    # a batch of two or more windows is computed as two half batches
    monkeypatch.setattr(model, "_splits", lambda cfg, windows: windows >= 2)


@pytest.fixture()
def split_log(monkeypatch):
    """Halve every batch, on the worker; the list records the thread of every pass."""
    threads = []
    scaled_bins = model._scaled_bins

    def logged(x3, cfg):
        threads.append(threading.current_thread())
        return scaled_bins(x3, cfg)

    _halve_every_batch(monkeypatch)
    monkeypatch.setattr(model, "_cpu_idle", lambda: True)
    monkeypatch.setattr(model, "_scaled_bins", logged)
    return threads


@pytest.mark.parametrize("cfg, batch", [
    (ModelConfig.for_forecast(48, 16, 12, 2, 3), 8),  # backcast+forecast below Nyquist
    (ModelConfig.for_forecast(32, 8, 8, 0, 2), 7),  # at the Nyquist bin, odd window count
    (ModelConfig.for_forecast(48, 16, 12, 2, 3, FORECAST), 9),
    (ModelConfig.for_forecast(32, 8, 8, 0, 1, FORECAST), 5),  # forecast-only at Nyquist
    (ModelConfig.for_reconstruction(200, 4, 1), 64),  # the detect-stream model
    (ModelConfig.for_reconstruction(40, 4, 2), 1),  # one window: never halved
    (ModelConfig.for_forecast(96, 96, 24, 2, 7), 11),
    (ModelConfig.for_forecast(96, 96, 24, 2, 7, FORECAST), 6),
    (ModelConfig.for_forecast(6, 2, 1, 0, 2), 4),  # a 3-row layer
    (ModelConfig.for_reconstruction(2, 1, 3), 5),  # a 1x1 layer
], ids=lambda v: str(v) if isinstance(v, int) else
       f"L{v.input_len}-O{v.output_len}-h{v.harmonic}-C{v.channels}-{v.supervision.value}")
def test_split_passes_repeat_the_serial_bits(monkeypatch, split_log, cfg, batch):
    # the worker takes the first half or leaves it to the caller: the same bits
    monkeypatch.setattr(model, "_cpu_idle", lambda: False)
    serial = _all_passes(cfg, batch, 90)
    assert split_log and all(t is threading.main_thread() for t in split_log)
    split_log.clear()
    monkeypatch.setattr(model, "_cpu_idle", lambda: True)
    split = _all_passes(cfg, batch, 90)
    assert (set(split_log) != {threading.main_thread()}) is (batch >= 2)
    _assert_same_bits(split, serial)


@pytest.mark.parametrize("cfg, batch", [
    (ModelConfig.for_forecast(48, 16, 12, 2, 3), 8),
    (ModelConfig.for_forecast(32, 8, 8, 0, 2), 7),
    (ModelConfig.for_forecast(48, 16, 12, 2, 3, FORECAST), 9),
    (ModelConfig.for_forecast(32, 8, 8, 0, 1, FORECAST), 5),
    (ModelConfig.for_reconstruction(200, 4, 1), 64),
])
def test_halves_match_the_whole_batch(monkeypatch, cfg, batch):
    # the sums of the halves' loss, dW and db, and their joined forward rows,
    # agree with the whole batch's to rounding
    monkeypatch.setattr(model, "_splits", lambda cfg, windows: False)
    whole = _all_passes(cfg, batch, 93)
    _halve_every_batch(monkeypatch)
    halves = _all_passes(cfg, batch, 93)
    for got, want in zip(halves, whole):
        for g, w in zip(got, want) if isinstance(want, tuple) else [(got, want)]:
            assert np.max(np.abs(np.subtract(g, w))) <= 1e-12 * np.max(np.abs(w))


def test_callers_share_the_worker(split_log):
    # several calling threads queue their halves on the one worker
    want = {seed: _model_calls(seed) for seed in range(80, 83)}
    got = {}

    def work(seed):
        got[seed] = [_model_calls(seed) for _ in range(3)]

    callers = [threading.Thread(target=work, args=(seed,)) for seed in want]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    workers = set(split_log) - {threading.main_thread(), *callers}
    assert len(workers) == 1
    for seed, runs in got.items():
        for run in runs:
            _assert_same_bits(run, want[seed])


def test_split_checks_inputs_before_the_worker_runs(monkeypatch, split_log):
    monkeypatch.setattr(model, "_pool", None)
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 2)
    layer = init_params(cfg, 0)
    x = np.ones((8, 16, 2))
    x[1, 3, 1] = np.nan  # in the first half, the worker's
    with pytest.raises(InvalidValueError, match="non-finite"):
        model_backward(x, np.zeros((8, 24, 2)), cfg, layer)
    with pytest.raises(InvalidValueError, match="non-finite"):
        model_forward(x, cfg, layer)
    with pytest.raises(InvalidValueError, match="non-finite"):
        training.evaluate(cfg, layer, ArrayWindows(x, np.zeros((8, 24, 2))), 4)
    with pytest.raises(ShapeError):
        model_backward(np.ones((8, 16, 2)), np.zeros((7, 24, 2)), cfg, layer)
    other = init_params(ModelConfig.for_forecast(16, 4, 4, 0, 2), 0)
    with pytest.raises(ShapeError):
        model_forward(np.ones((8, 16, 2)), cfg, other)
    assert not split_log and model._pool is None


@pytest.mark.parametrize("fail_in", ["worker", "caller"])
def test_split_raises_only_after_both_halves_finish(monkeypatch, fail_in):
    monkeypatch.setattr(model, "_cpu_idle", lambda: True)
    finished = []

    def work(windows):
        half = "first" if windows.start == 0 else "second"
        if (fail_in == "worker") == (half == "first"):
            raise RuntimeError(f"{half} half failed")
        time.sleep(0.2)
        finished.append(half)

    failed = "first" if fail_in == "worker" else "second"
    with pytest.raises(RuntimeError, match=failed):
        model._halves(work, ModelConfig.for_forecast(2**13, 2, 1, 0, 1), 8)  # 2^16 input values
    assert finished == ["second" if fail_in == "worker" else "first"]


@pytest.fixture()
def blas_environment(monkeypatch):
    """read(env, cpus): the worker's gate, read afresh under that environment and affinity."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)

    def read(env, cpus):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        model._cpu_idle.cache_clear()
        return model._cpu_idle()

    yield read
    model._cpu_idle.cache_clear()


@pytest.mark.parametrize("env, cpus, idle", [
    ({}, 2, False),  # OpenBLAS then runs one thread per CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, False),
    ({"OMP_NUM_THREADS": "1"}, 2, True),
    ({"OMP_NUM_THREADS": "2"}, 2, False),
    ({"GOTO_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, True),  # 0 counts as unset
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),  # an affinity of one CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, True),
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, False),  # a threaded BLAS would compete for the CPUs
])
def test_split_gate_rules(blas_environment, env, cpus, idle):
    assert blas_environment(env, cpus) is idle


def test_split_needs_a_large_batch():
    # the batch's size alone decides, whatever the worker's gate reads
    def cfg(input_len, channels):
        return ModelConfig.for_forecast(input_len, 2, 1, 0, channels)

    assert not model._splits(cfg(302, 7), 31)  # 2^16 - 2 input values
    assert model._splits(cfg(256, 8), 32)  # 2^16
    assert model._splits(cfg(2**15, 1), 2)
    assert not model._splits(cfg(720, 100), 1)  # one window is never halved
    assert model._splits(cfg(720, 100), 2)


def test_whole_batch_runs_once_on_the_calling_thread(monkeypatch):
    # a batch _splits rejects is one call of work, given every window, here
    monkeypatch.setattr(model, "_cpu_idle", lambda: True)
    cfg = ModelConfig.for_reconstruction(200, 4, 1)
    assert not model._splits(cfg, 64)
    calls = []
    got = model._halves(lambda w: calls.append((w, threading.current_thread())) or "all",
                        cfg, 64)
    assert got == ("all",)
    assert calls == [(slice(0, 64), threading.main_thread())]


@pytest.mark.parametrize("cfg, batch, starts", [
    (ModelConfig.for_reconstruction(200, 4, 1), 64, False),  # detect-stream's batches
    (ModelConfig.for_forecast(96, 96, 24, 2, 7), 64, False),
    (ModelConfig.for_forecast(96, 96, 24, 2, 7, FORECAST), 64, False),
    (ModelConfig.for_forecast(180, 96, 24, 4, 7), 64, True),
])
def test_only_large_batches_start_the_worker(monkeypatch, cfg, batch, starts):
    monkeypatch.setattr(model, "_cpu_idle", lambda: True)
    monkeypatch.setattr(model, "_pool", None)
    _all_passes(cfg, batch, 91)
    assert (model._pool is not None) is starts
    if model._pool is not None:
        model._pool.shutdown()


def test_import_and_help_start_no_thread():
    code = ("import threading, freqcast.cli\n"
            "try:\n    freqcast.cli.main(['--help'])\nexcept SystemExit:\n    pass\n"
            "print(threading.active_count())")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "1"


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs fork")
def test_forked_child_computes_with_a_fresh_worker(split_log):
    # model_backward's loss and gradient are among the passes compared
    cfg = ModelConfig.for_forecast(48, 16, 12, 2, 3)
    want = _all_passes(cfg, 8, 92)  # starts the worker in this process
    assert set(split_log) != {threading.main_thread()} and model._pool is not None
    lock = model._pool_lock
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if it repeats the parent's bits
        status = 1
        try:
            # the fork handler dropped the executor, whose thread the child lacks
            assert model._pool is None and model._pool_lock is not lock
            _assert_same_bits(_all_passes(cfg, 8, 92), want)
            assert model._pool is not None  # the child's own worker took the first halves
            status = 0
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG)) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in a half batch")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_forecast_only_supervision_needs_a_horizon():
    with pytest.raises(InvalidArgumentError, match="positive horizon"):
        ModelConfig(16, 16, 4, 0, 1, Supervision.FORECAST_ONLY)


def test_config_refuses_a_negative_harmonic():
    with pytest.raises(InvalidArgumentError, match="harmonic must be >= 0, got -1"):
        ModelConfig(16, 24, 4, -1, 1)


# --- init and parameter accounting -------------------------------------------------

def test_init_deterministic():
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 1)
    a = init_params(cfg, 7)
    b = init_params(cfg, 7)
    assert np.array_equal(a.weight, b.weight)
    assert np.array_equal(a.bias, b.bias)
    assert np.all(a.bias == 0)


def test_init_uniform_moment():
    cfg = ModelConfig.for_forecast(720, 96, 24, 6, 1)  # 196 x 222 entries
    draws = np.concatenate([np.abs(init_params(cfg, s).weight.real).ravel()
                            for s in range(3)])
    want = 1.0 / (2.0 * math.sqrt(cfg.n_in))
    assert abs(draws.mean() - want) / want < 0.05


def test_param_count_acceptance_cells():
    cases = [
        ((720, 96, 24, 2), 5913),
        ((360, 96, 24, 2), 2279),
        ((90, 96, 24, 2), 703),
        ((90, 96, 96, 4), 420),
        ((90, 96, 144, 5), 496),
        ((90, 96, 24, 4), 1431),
    ]
    for (lookback, horizon, period, harmonic), want in cases:
        cfg = ModelConfig.for_forecast(lookback, horizon, period, harmonic, 7)
        complex_entries, real_scalars = param_count(cfg)
        assert complex_entries == want
        assert real_scalars == 2 * want
    assert param_count(ModelConfig.for_reconstruction(200, 4, 55))[0] == 2600
    assert param_count(ModelConfig.for_reconstruction(400, 4, 55))[0] == 10200


# Published per-dataset parameter tables; rows are (horizon, harmonic) and
# columns the look-back windows 90/180/360/720. The minute-level tables were
# generated with a 144-step base period except the harmonic-14 rows (96);
# None marks settings the source never ran. Two starred cells reflect a
# float-floor artifact upstream (exact integer floor gives one more output
# bin) and carry the exact-arithmetic value here.
LOOKBACKS = (90, 180, 360, 720)

HOURLY_TABLE = {  # period 24
    (96, 2): (703, 1053, 2279, 5913),
    (96, 3): (1035, 1820, 4307, 12064),
    (96, 4): (1431, 2752, 6975, 20385),
    (96, 5): (1922, 3876, 10374, 31042),
    (96, 6): (2450, 5192, 14338, 43734),
    (96, 8): (3698, 8475, 24186, 75628),
    (96, 10): (None, 12558, 36765, 116202),
    (192, 2): (1064, 1431, 2752, 6643),
    (192, 3): (1564, 2450, 5192, 13520),
    (192, 4): (2187, 3698, 8475, 22815),
    (192, 5): (2914, 5253, 12558, 34694),
    (192, 6): (3710, 7021, 17334, 48856),
    (192, 8): (5633, 11400, 29329, 84434),
    (192, 10): (None, 16926, 44460, 130005),
    (336, 2): (1615, 1998, 3483, 7665),
    (336, 3): (2392, 3395, 6608, 15704),
    (336, 4): (3321, 5160, 10725, 26460),
    (336, 5): (4402, 7293, 15834, 40172),  # * exact floor: 166 x 242
    (336, 6): (5600, 9794, 21828, 56539),
    (336, 8): (8514, 15900, 36974, 97902),
    (336, 10): (None, 23478, 56088, 150549),
    (720, 2): (3078, 3510, 5418, 10512),
    (720, 3): (4554, 5950, 10266, 21424),
    (720, 4): (6318, 9030, 16650, 36180),
    (720, 5): (8370, 12750, 24570, 54780),
    (720, 6): (10710, 17110, 34026, 77224),
    (720, 8): (16254, 27750, 57546, 133644),
    (720, 10): (None, 40950, 87210, 205440),
}

MINUTE_TABLE_P144 = {
    (96, 4): (420, 513, 621, 1330),
    (96, 6): (561, 759, 1015, 2444),
    (96, 8): (703, 1053, 1505, 3835),
    (96, 10): (861, 1426, 2050, 5609),
    (96, 12): (1035, 1820, 2726, 7636),
    (96, 5): (496, 630, 806, 1845),
    (192, 4): (645, 703, 759, 1505),
    (192, 5): (752, 861, 988, 2050),
    (192, 6): (850, 1035, 1218, 2726),
    (192, 8): (1064, 1431, 1820, 4307),
    (192, 10): (1302, 1922, 2501, 6248),
    (192, 12): (1564, 2450, 3290, 8549),
    (336, 4): (990, 969, 966, 1715),
    (336, 5): (1136, 1197, 1248, 2378),
    (336, 6): (1275, 1449, 1566, 3149),
    (336, 8): (1615, 1998, 2275, 5015),
    (336, 10): (1974, 2666, 3157, 7242),
    (336, 12): (2392, 3395, 4136, 9960),
    (720, 4): (1890, 1710, 1518, 2380),
    (720, 5): (2160, 2100, 1950, 3280),
    (720, 6): (2448, 2530, 2436, 4324),
    (720, 8): (3078, 3510, 3570, 6844),
    (720, 10): (3780, 4650, 4920, 9940),
    (720, 12): (4554, 5950, 6486, 13612),
}

MINUTE_TABLE_P96 = {
    (96, 14): (1225, 2262, 5561, 16974),
    (192, 14): (1875, 3042, 6767, 18942),
    (336, 14): (2825, 4212, 8509, 21894),
    (720, 14): (5400, 7410, 13266, 30012),
}


def check_table(table, period):
    for (horizon, harmonic), cells in table.items():
        for lookback, want in zip(LOOKBACKS, cells):
            if want is None:
                continue
            cfg = ModelConfig.for_forecast(lookback, horizon, period, harmonic, 1)
            assert param_count(cfg)[0] == want, (lookback, horizon, period, harmonic)


@pytest.mark.parametrize("window, factor, error", [
    (8, 0, InvalidArgumentError),   # was a ZeroDivisionError
    (8, -2, InvalidArgumentError),
    (8, 3, InvalidArgumentError),   # 3 does not divide 8
    (6, 2, InvalidLengthError),     # downsampled length 3 is odd
])
def test_for_reconstruction_rejects_impossible_geometry(window, factor, error):
    with pytest.raises(error):
        ModelConfig.for_reconstruction(window, factor, 1)


def test_param_count_hourly_table():
    check_table(HOURLY_TABLE, 24)


def test_param_count_minute_tables():
    check_table(MINUTE_TABLE_P144, 144)
    check_table(MINUTE_TABLE_P96, 96)


def test_eta_and_horizon():
    cfg = ModelConfig.for_forecast(90, 96, 24, 2, 7)
    assert cfg.horizon == 96
    # the interpolation rate eta = 186/90 carries over to the bin counts
    assert (cfg.n_in, cfg.n_out) == (18, 186 * 18 // 90)


# --- parameter packing and checkpoints ------------------------------------------

def test_pack_unpack_roundtrip():
    cfg = ModelConfig.for_forecast(16, 8, 4, 1, 2)
    layer = init_params(cfg, 37)
    theta = pack_params(layer)
    assert theta.dtype == np.float64
    assert theta.size == 2 * (cfg.n_in * cfg.n_out + cfg.n_out)
    back = unpack_params(theta, cfg)
    assert np.array_equal(back.weight, layer.weight)
    assert np.array_equal(back.bias, layer.bias)


def test_unpack_refuses_a_vector_of_the_wrong_length():
    cfg = ModelConfig.for_forecast(16, 8, 4, 1, 2)
    theta = pack_params(init_params(cfg, 0))
    for wrong in (theta[:-1], np.append(theta, 0.0), theta.reshape(-1, 2)):
        with pytest.raises(ShapeError, match=f"config needs {param_count(cfg)[1]}"):
            unpack_params(wrong, cfg)


def _layer_as(layer, kind):
    """The layer in complex128, in complex64, or as its real part."""
    if kind == "real":
        return ComplexLinear(layer.weight.real.copy(), layer.bias.real.copy())
    dtype = np.complex64 if kind == "complex64" else np.complex128
    return ComplexLinear(layer.weight.astype(dtype), layer.bias.astype(dtype))


@pytest.mark.parametrize("kind", ["complex128", "complex64", "real"])
def test_checkpoint_bytes_match_a_hand_built_encoding(tmp_path, kind):
    # FQCKPT01 spelled out here, so the writer and reader cannot drift together
    cfg = ModelConfig.for_forecast(24, 8, 6, 1, 3, Supervision.FORECAST_ONLY)
    layer = init_params(cfg, 43)
    layer.bias[:] = np.arange(cfg.n_out) * (0.5 - 0.25j)
    layer = _layer_as(layer, kind)
    theta = pack_params(layer)
    assert theta.dtype == np.float64 and theta.shape == (param_count(cfg)[1],)
    assert np.array_equal(theta, pack_params(_layer_as(layer, "complex128")))
    header = struct.pack("<8q", 24, 32, 6, 1, 3, 0, cfg.n_in, cfg.n_out)
    want = (b"FQCKPT01" + header + layer.weight.astype("<c16").tobytes()
            + layer.bias.astype("<c16").tobytes())
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, layer)
    assert path.read_bytes() == want
    cfg2, layer2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert layer2.weight.dtype == layer2.bias.dtype == np.complex128
    assert np.array_equal(layer2.weight, layer.weight)
    assert np.array_equal(layer2.bias, layer.bias)


def test_checkpoint_roundtrip(tmp_path):
    cfg = ModelConfig.for_forecast(90, 96, 96, 4, 7, Supervision.FORECAST_ONLY)
    layer = init_params(cfg, 41)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, layer)
    cfg2, layer2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert np.array_equal(layer2.weight, layer.weight)
    assert np.array_equal(layer2.bias, layer.bias)


@settings(max_examples=100, deadline=None)
@given(input_len=st.integers(1, 8).map(lambda n: 2 * n),
       horizon=st.integers(0, 8).map(lambda n: 2 * n),
       period=st.integers(0, 2**70), harmonic=st.integers(0, 2**70),
       channels=st.integers(1, 3), supervision=st.sampled_from(Supervision),
       seed=st.integers(0, 2**32 - 1))
def test_a_config_is_refused_or_survives_its_checkpoint(tmp_path_factory, input_len, horizon,
                                                        period, harmonic, channels,
                                                        supervision, seed):
    try:
        cfg = ModelConfig(input_len, input_len + horizon, period, harmonic, channels,
                          supervision)
    except FreqcastError:
        assert (period < 1 or max(period, harmonic) >= 2**63
                or (horizon == 0 and supervision is Supervision.FORECAST_ONLY))
        return
    layer = init_params(cfg, seed)
    path = tmp_path_factory.getbasetemp() / "property.ckpt"
    save_checkpoint(path, cfg, layer)
    cfg2, layer2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert np.array_equal(layer2.weight, layer.weight)
    assert np.array_equal(layer2.bias, layer.bias)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(InvalidValueError):
        load_checkpoint(path)


@pytest.mark.parametrize("part", ["weight", "bias"])
def test_checkpoint_rejects_non_finite_params(tmp_path, part):
    cfg = ModelConfig.for_reconstruction(16, 4, 1)
    layer = init_params(cfg, 0)
    getattr(layer, part)[-1] = complex(0.0, np.inf)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, layer)
    with pytest.raises(InvalidValueError, match="not all finite"):
        load_checkpoint(path)
