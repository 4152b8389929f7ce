"""Optimizer and training-loop checks, including the closed-form
least-squares oracle for the (linear) optimization problem."""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqcast import model, training
from freqcast.anomaly import reconstruction_windows
from freqcast.data import (
    ArrayWindows,
    DatasetProfile,
    SeriesFrame,
    SplitRule,
    chrono_split,
    split_windows,
    standardize,
    synth_anomaly,
)
from freqcast.errors import (
    InvalidArgumentError,
    InvalidValueError,
    ShapeError,
    TrainingDivergedError,
)
from freqcast.model import (
    ComplexLinear,
    ModelConfig,
    Supervision,
    init_params,
    model_forward,
    pack_params,
    rin_normalize,
    unpack_params,
)
from freqcast.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    GridRow,
    TrainSpec,
    adam_step,
    evaluate,
    grid_search,
    read_grid_csv,
    restored_epoch,
    select_best,
    train,
    write_grid_csv,
)


def scalar_adam_trace(grads, lr, b1, b2, eps):
    """Reference single-parameter Adam, written out step by step."""
    theta, m, v = 0.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


def test_adam_zero_gradient_keeps_params():
    spec = TrainSpec()
    params = np.array([1.0, -2.0, 3.0])
    state = AdamState.zeros(3)
    adam_step(params, np.zeros(3), state, spec)
    assert np.array_equal(params, [1.0, -2.0, 3.0])
    assert state.t == 1


def test_adam_matches_scalar_trace():
    spec = TrainSpec(learning_rate=0.1)
    grads = [0.5, -0.2, 0.9, 0.05, -1.3]
    params = np.array([0.0])
    state = AdamState.zeros(1)
    for g in grads:
        adam_step(params, np.array([g]), state, spec)
    want = scalar_adam_trace(grads, 0.1, 0.9, 0.999, 1e-8)
    assert math.isclose(params[0], want, rel_tol=1e-12)


def test_adam_first_step_is_lr_sized():
    spec = TrainSpec(learning_rate=0.01)
    params = np.array([0.0, 0.0])
    adam_step(params, np.array([0.7, -0.3]), AdamState.zeros(2), spec)
    # bias correction makes the first step -lr * g/|g| up to eps
    assert np.allclose(params, [-0.01, 0.01], atol=1e-8)


def test_adam_deterministic():
    spec = TrainSpec()
    g = np.array([0.3, -0.8])
    p1, s1 = np.array([1.0, 1.0]), AdamState.zeros(2)
    p2, s2 = np.array([1.0, 1.0]), AdamState.zeros(2)
    adam_step(p1, g, s1, spec)
    adam_step(p2, g, s2, spec)
    assert np.array_equal(p1, p2)


def test_adam_step_equals_the_allocating_formula_bit_for_bit():
    rng = np.random.default_rng(8)
    spec = TrainSpec(learning_rate=3e-3)
    params = rng.normal(size=400)
    want, m, v = params.copy(), np.zeros(400), np.zeros(400)
    state = AdamState.zeros(400)
    for t in range(1, 7):
        g = rng.normal(size=400) * 10.0 ** rng.integers(-8, 4, size=400)
        given = g.copy()
        adam_step(params, g, state, spec)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g**2
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        want -= spec.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        assert np.array_equal(params, want)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v) and state.t == t
        assert np.array_equal(g, given)  # the gradient is read, not used as scratch


def test_adam_shape_mismatch():
    with pytest.raises(ShapeError):
        adam_step(np.zeros(3), np.zeros(2), AdamState.zeros(3), TrainSpec())


def test_trainspec_validation():
    with pytest.raises(InvalidArgumentError):
        TrainSpec(learning_rate=0.0)
    with pytest.raises(InvalidArgumentError):
        TrainSpec(patience=0)
    with pytest.raises(InvalidArgumentError):
        TrainSpec(batch_size=0)


# --- train loop ----------------------------------------------------------------

def _window_pair(rows, input_len, horizon, count):
    x = np.stack([rows[s : s + input_len] for s in range(count)])
    t = np.stack([rows[s : s + input_len + horizon] for s in range(count)])
    return ArrayWindows(x, t)


def test_train_zero_problem_stops_after_patience():
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 1)
    layer = ComplexLinear(np.zeros((cfg.n_in, cfg.n_out), complex),
                          np.zeros(cfg.n_out, complex))
    windows = ArrayWindows(np.zeros((8, 16, 1)), np.zeros((8, 24, 1)))
    spec = TrainSpec(max_epochs=50, patience=5)
    best, history = train(cfg, layer, windows, windows, spec)
    assert all(h.train_mse == 0.0 and h.val_mse == 0.0 for h in history)
    # epoch 1 sets the best; the next `patience` epochs cannot improve on 0
    assert len(history) == 1 + spec.patience
    assert np.all(best.weight == 0) and np.all(best.bias == 0)


def test_train_pure_tone_is_learned():
    t = np.arange(400)
    rows = np.sin(2 * np.pi * t / 24)[:, None]
    windows = _window_pair(rows, 96, 24, 200)
    tr = ArrayWindows(windows.inputs[:150], windows.targets[:150])
    va = ArrayWindows(windows.inputs[150:], windows.targets[150:])
    cfg = ModelConfig.for_forecast(96, 24, 24, 1, 1)
    spec = TrainSpec(learning_rate=1e-2, batch_size=32, max_epochs=200,
                     patience=200, seed=0)
    _, history = train(cfg, init_params(cfg, 0), tr, va, spec, eval_steps=24)
    assert min(h.val_mse for h in history) < 1e-3


def test_train_history_contract():
    rng = np.random.default_rng(0)
    rows = np.cumsum(rng.normal(size=(60, 1)) * 0.3, axis=0)
    windows = _window_pair(rows, 16, 8, 30)
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 1)
    spec = TrainSpec(max_epochs=20, patience=3, seed=2)
    best, history = train(cfg, init_params(cfg, 2), windows, windows, spec)
    assert len(history) <= spec.max_epochs
    assert [h.epoch for h in history] == list(range(1, len(history) + 1))
    best_val = min(h.val_mse for h in history)
    # returned parameters reproduce the best observed validation loss
    got, _ = evaluate(cfg, best, windows)
    assert abs(got - best_val) < 1e-12


def test_train_restored_epoch_reproduces_val_exactly():
    rng = np.random.default_rng(0)
    rows = np.cumsum(rng.normal(size=(60, 2)) * 0.3, axis=0)
    windows = _window_pair(rows, 16, 8, 30)
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 2)
    spec = TrainSpec(max_epochs=20, patience=3, seed=2)
    best, history = train(cfg, init_params(cfg, 2), windows, windows, spec, eval_steps=8)
    restored = restored_epoch(history)
    assert restored.improved
    assert not any(h.improved for h in history[restored.epoch :])
    assert evaluate(cfg, best, windows, eval_steps=8) == (restored.val_mse,
                                                          restored.val_mae)


def test_train_rejects_non_finite_val(monkeypatch):
    monkeypatch.setattr(training.ValStatistics, "mse", lambda self, layer: math.nan)
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 1)
    windows = _window_pair(np.arange(60.0)[:, None], 16, 8, 30)
    with pytest.raises(TrainingDivergedError, match="validation"):
        train(cfg, init_params(cfg, 0), windows, windows, TrainSpec())


def test_one_epoch_train_rejects_non_finite_val(monkeypatch):
    monkeypatch.setattr(training, "evaluate", lambda *args, **kwargs: (math.nan, math.nan))
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 1)
    windows = _window_pair(np.arange(60.0)[:, None], 16, 8, 30)
    with pytest.raises(TrainingDivergedError, match="validation"):
        train(cfg, init_params(cfg, 0), windows, windows, TrainSpec(max_epochs=1))


@pytest.mark.parametrize("eval_steps", [8, 3, None])
def test_evaluate_independent_of_batch_size(monkeypatch, eval_steps):
    rng = np.random.default_rng(12)
    rows = np.cumsum(rng.normal(size=(400, 3)), axis=0)
    windows = _window_pair(rows, 48, 8, 300)
    cfg = ModelConfig.for_forecast(48, 8, 12, 2, 3)
    layer = init_params(cfg, 4)
    monkeypatch.setattr(training, "EVAL_BATCH", 64)
    small = evaluate(cfg, layer, windows, eval_steps)
    monkeypatch.setattr(training, "EVAL_BATCH", 256)
    large = evaluate(cfg, layer, windows, eval_steps)
    for a, b in zip(small, large):
        assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("eval_steps", [0, 25])
def test_evaluate_rejects_eval_steps_outside_the_target(eval_steps):
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 1)
    windows = _window_pair(np.arange(60.0)[:, None], 16, 8, 30)
    with pytest.raises(InvalidArgumentError, match="outside the 24-row target"):
        evaluate(cfg, init_params(cfg, 0), windows, eval_steps)


def test_train_loss_nonincreasing_at_tiny_lr():
    rng = np.random.default_rng(5)
    rows = np.cumsum(rng.normal(size=(60, 1)) * 0.3, axis=0)
    windows = _window_pair(rows, 16, 8, 30)
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 1)
    spec = TrainSpec(learning_rate=1e-5, batch_size=8, max_epochs=30,
                     patience=30, seed=1)
    _, history = train(cfg, init_params(cfg, 1), windows, windows, spec)
    losses = [h.train_mse for h in history]
    assert all(b <= a for a, b in zip(losses, losses[1:]))


def test_train_seeded_determinism():
    rng = np.random.default_rng(9)
    rows = np.cumsum(rng.normal(size=(60, 2)) * 0.3, axis=0)
    windows = _window_pair(rows, 16, 8, 30)
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 2)
    spec = TrainSpec(max_epochs=5, patience=5, seed=11)
    a, _ = train(cfg, init_params(cfg, 11), windows, windows, spec)
    b, _ = train(cfg, init_params(cfg, 11), windows, windows, spec)
    assert np.array_equal(a.weight, b.weight)
    assert np.array_equal(a.bias, b.bias)


def test_train_rejects_empty_split():
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 1)
    windows = ArrayWindows(np.zeros((0, 16, 1)), np.zeros((0, 24, 1)))
    with pytest.raises(InvalidArgumentError):
        train(cfg, init_params(cfg, 0), windows, windows, TrainSpec())


def test_train_aborts_on_divergence():
    rng = np.random.default_rng(3)
    rows = np.cumsum(rng.normal(size=(60, 1)), axis=0) * 1e160
    windows = _window_pair(rows, 16, 8, 30)
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 1)
    # squared residuals of 1e160-scale values overflow to inf on batch one
    with pytest.raises(TrainingDivergedError):
        with np.errstate(over="ignore", invalid="ignore"):
            train(cfg, init_params(cfg, 0), windows, windows,
                  TrainSpec(learning_rate=1.0))


def test_trained_mse_near_normal_equations_optimum():
    rng = np.random.default_rng(100)
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 1)
    rows = np.cumsum(rng.normal(size=(80, 1)) * 0.3, axis=0) \
        + np.sin(np.arange(80))[:, None]
    windows = _window_pair(rows, 16, 8, 32)

    # the full pipeline is affine in the packed parameters: build the design
    # matrix column by column and solve the normal equations directly
    zero = ComplexLinear(np.zeros((cfg.n_in, cfg.n_out), complex),
                         np.zeros(cfg.n_out, complex))
    theta0 = pack_params(zero)
    y0 = model_forward(windows.inputs, cfg, zero).ravel()
    design = np.zeros((y0.size, theta0.size))
    for i in range(theta0.size):
        theta = theta0.copy()
        theta[i] = 1.0
        design[:, i] = model_forward(windows.inputs, cfg,
                                     unpack_params(theta, cfg)).ravel() - y0
    target = windows.targets.ravel() - y0
    sol, *_ = np.linalg.lstsq(design, target, rcond=None)
    optimal_mse = float(np.mean((design @ sol - target) ** 2))

    spec = TrainSpec(learning_rate=1e-2, batch_size=32, max_epochs=500,
                     patience=500, seed=0)
    best, _ = train(cfg, init_params(cfg, 0), windows, windows, spec)
    trained_mse, _ = evaluate(cfg, best, windows)
    assert trained_mse <= optimal_mse * 1.05


# --- validation statistics ------------------------------------------------------

def _forecast_windows(rows, cfg):
    target = slice(cfg.input_len, None) if cfg.target_rows == cfg.horizon else slice(None)
    return ArrayWindows.cut(rows, cfg.output_len, slice(0, cfg.input_len), target)


def _geometry(name):
    """(cfg, val windows, eval_steps) of one scoring geometry."""
    rng = np.random.default_rng(40)
    if name == "detect":  # window 200, factor 4: the layer reaches the Nyquist bin
        series, _ = synth_anomaly(560, 1, 0.05, 3)
        cfg = ModelConfig.for_reconstruction(200, 4, 1)
        return cfg, reconstruction_windows(series.values, 200, 4), None
    if name == "tail-forecast-only":
        cfg = ModelConfig.for_forecast(48, 16, 12, 2, 1, Supervision.FORECAST_ONLY)
        steps = 16
    elif name == "tail-backcast+forecast":
        cfg = ModelConfig.for_forecast(48, 16, 12, 2, 1)
        steps = 16
    elif name == "channels-whole-window":
        cfg = ModelConfig.for_forecast(32, 8, 8, 1, 3)
        steps = None
    elif name == "channels-tail":
        cfg = ModelConfig.for_forecast(32, 8, 8, 1, 3)
        steps = 5
    else:  # "split": 64 windows x 256 rows x 4 channels is 2^16 values
        cfg = ModelConfig.for_forecast(256, 32, 24, 1, 4, Supervision.FORECAST_ONLY)
        steps = 32
    rows = 0.1 * np.cumsum(rng.normal(size=(cfg.output_len + 89, cfg.channels)), axis=0)
    rows += np.sin(2 * np.pi * np.arange(len(rows)) / cfg.period)[:, None]
    return cfg, _forecast_windows(rows, cfg), steps


GEOMETRIES = ["detect", "tail-forecast-only", "tail-backcast+forecast",
              "channels-whole-window", "channels-tail", "split"]


def _least_squares_layer(cfg, stats):
    """The layer minimizing the statistics' quadratic form.

    The fold is linear in the layer's real parameters, so the optimum solves
    their normal equations, built from the gram and cross terms. Over the
    whole output window the synthesis rows are orthogonal, so each output bin
    is solved alone.
    """
    steps = stats.synth.shape[1]
    groups = ([[j] for j in range(cfg.n_out)] if steps == cfg.output_len
              else [range(cfg.n_out)])
    weight = np.zeros((cfg.n_in, cfg.n_out), complex)
    bias = np.zeros(cfg.n_out, complex)
    for group in groups:
        units, folds = [], []
        for j in group:
            for i in range(cfg.n_in + 1):  # row n_in stands for the bias
                for unit in (1.0, 1j):
                    column, b = np.zeros((cfg.n_in, 1), complex), np.zeros(1, complex)
                    if i < cfg.n_in:
                        column[i] = unit
                    else:
                        b[0] = unit
                    folds.append(model._real_fold(ComplexLinear(column, b),
                                                  stats.synth[j : j + 1]))
                    units.append((i, j, unit))
        v = np.array(folds)
        flat = v.reshape(len(v), -1)
        normal = flat @ np.matmul(stats.gram, v).reshape(len(v), -1).T
        rhs = flat @ stats.cross.ravel()
        theta = np.linalg.lstsq(normal, rhs, rcond=None)[0]
        for (i, j, unit), value in zip(units, theta):
            if i < cfg.n_in:
                weight[i, j] += value * unit
            else:
                bias[j] += value * unit
    return ComplexLinear(weight, bias)


def _layers(kind, cfg, windows, steps, stats):
    if kind == "random":
        rng = np.random.default_rng(7)
        return [ComplexLinear(rng.normal(size=(cfg.n_in, cfg.n_out))
                              + 1j * rng.normal(size=(cfg.n_in, cfg.n_out)),
                              rng.normal(size=cfg.n_out) + 1j * rng.normal(size=cfg.n_out))
                for _ in range(3)] + [init_params(cfg, 1)]
    if kind == "adam":
        spec = TrainSpec(learning_rate=1e-2, batch_size=16, max_epochs=1)
        return [train(cfg, init_params(cfg, 0), windows, windows, spec, steps)[0]]
    return [_least_squares_layer(cfg, stats)]


@pytest.mark.parametrize("kind", ["random", "adam", "least-squares"])
@pytest.mark.parametrize("name", GEOMETRIES)
def test_val_statistics_mse_matches_evaluate(name, kind):
    cfg, windows, steps = _geometry(name)
    stats = training.validation_statistics(cfg, windows, steps)
    for layer in _layers(kind, cfg, windows, steps, stats):
        want, _ = evaluate(cfg, layer, windows, steps)
        assert abs(stats.mse(layer) - want) <= 1e-12 * want
        if kind == "least-squares":  # a close fit, so e - 2<V, C> cancels most of <V, H V>
            assert want < 0.2 * stats.energy / stats.count


def test_val_statistics_do_not_depend_on_the_worker(monkeypatch):
    cfg, windows, steps = _geometry("split")  # its first slice splits, on the worker if idle
    threads = set()
    bins = model._scaled_bins

    def logged(x3, cfg):
        threads.add(threading.current_thread())
        return bins(x3, cfg)

    monkeypatch.setattr(model, "_scaled_bins", logged)
    layer = init_params(cfg, 3)
    results = []
    for idle in (False, True):
        monkeypatch.setattr(model, "_cpu_idle", lambda: idle)
        threads.clear()
        results.append((training.validation_statistics(cfg, windows, steps),
                         evaluate(cfg, layer, windows, steps)))
        assert (threads != {threading.main_thread()}) is idle
    (serial, serial_scores), (split, split_scores) = results
    assert np.array_equal(serial.gram, split.gram)
    assert np.array_equal(serial.cross, split.cross)
    assert serial.energy == split.energy and serial.count == split.count
    assert serial_scores == split_scores  # evaluate walks the same halves


def test_val_statistics_check_the_windows():
    cfg, windows, steps = _geometry("tail-forecast-only")
    inputs = windows.inputs.copy()
    inputs[-1, 3, 0] = np.nan
    with pytest.raises(InvalidValueError, match="non-finite"):
        training.validation_statistics(cfg, ArrayWindows(inputs, windows.targets), steps)
    with pytest.raises(InvalidArgumentError, match="outside the 16-row target"):
        training.validation_statistics(cfg, windows, 17)


def test_train_rejects_a_non_finite_val_target():
    cfg, windows, steps = _geometry("tail-forecast-only")
    targets = windows.targets.copy()
    targets[5, -1, 0] = np.nan
    val = ArrayWindows(windows.inputs, targets)
    for epochs in (1, 3):  # scored by evaluate, then by the statistics
        with pytest.raises(TrainingDivergedError, match="validation MSE at epoch 1"):
            train(cfg, init_params(cfg, 0), windows, val, TrainSpec(max_epochs=epochs), steps)


@settings(max_examples=40, deadline=None)
# (input_len, extra, harmonic, channels, forecast_only, count, steps, seed) cases that a
# bound relative to the MSE refused: one window, one channel, a single scored row
@example(12, 16, 0, 1, False, 1, 1, 1)
@example(38, 0, 0, 1, False, 1, 1, 116)
@example(20, 14, 0, 1, False, 1, 1, 0)
@example(48, 0, 0, 1, False, 1, 1, 0)
@given(input_len=st.integers(2, 24).map(lambda n: 2 * n), extra=st.integers(0, 24),
       harmonic=st.integers(0, 3), channels=st.integers(1, 3),
       forecast_only=st.booleans(), count=st.integers(1, 150),
       steps=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
def test_val_statistics_mse_matches_evaluate_everywhere(input_len, extra, harmonic, channels,
                                                        forecast_only, count, steps, seed):
    horizon = 2 * extra + 2
    supervision = Supervision.FORECAST_ONLY if forecast_only else Supervision.BACKCAST_AND_FORECAST
    cfg = ModelConfig.for_forecast(input_len, horizon, 4, harmonic, channels, supervision)
    rng = np.random.default_rng(seed)
    windows = _forecast_windows(rng.normal(size=(cfg.output_len + count - 1, channels)), cfg)
    steps = min(steps, cfg.target_rows)
    layer = ComplexLinear(rng.normal(size=(cfg.n_in, cfg.n_out))
                          + 1j * rng.normal(size=(cfg.n_in, cfg.n_out)),
                          rng.normal(size=cfg.n_out) + 1j * rng.normal(size=cfg.n_out))
    want, _ = evaluate(cfg, layer, windows, steps)
    stats = training.validation_statistics(cfg, windows, steps)
    # e - 2<V, C> + <V, H V> rounds at the scale of its terms, not of the error
    fold = model._real_fold(layer, stats.synth)
    scale = (stats.energy + float(np.vdot(fold, stats.gram @ fold))) / stats.count
    assert abs(stats.mse(layer) - want) <= 1e-12 * scale


def test_noise_free_fit_records_no_negative_val_mse():
    # every window of a pure tone is fit exactly by some layer, so the
    # quadratic form's rounding there can fall on either side of zero
    tone = np.sin(2 * np.pi * np.arange(300) / 24)[:, None]
    cfg = ModelConfig.for_forecast(48, 24, 24, 1, 1)
    windows = _forecast_windows(tone, cfg)
    stats = training.validation_statistics(cfg, windows, None)
    assert stats.mse(_least_squares_layer(cfg, stats)) >= 0.0
    spec = TrainSpec(learning_rate=1e-2, batch_size=32, max_epochs=60, patience=60)
    _, history = train(cfg, init_params(cfg, 0), windows, windows, spec)
    assert all(h.val_mse >= 0.0 for h in history)
    assert min(h.val_mse for h in history) < 1e-4


def test_multi_epoch_fit_evaluates_once(monkeypatch):
    rng = np.random.default_rng(0)
    windows = _window_pair(np.cumsum(rng.normal(size=(60, 2)), axis=0), 16, 8, 30)
    cfg = ModelConfig.for_forecast(16, 8, 4, 0, 2)
    calls = []
    real_evaluate = training.evaluate
    monkeypatch.setattr(training, "evaluate",
                        lambda *args: calls.append(args) or real_evaluate(*args))
    _, history = train(cfg, init_params(cfg, 0), windows, windows,
                       TrainSpec(max_epochs=6, patience=6), eval_steps=8)
    restored = restored_epoch(history)
    assert len(calls) == 1 and len(history) == 6
    assert (restored.val_mse, restored.val_mae) == real_evaluate(cfg, calls[0][1], windows, 8)
    assert all(math.isnan(h.val_mae) for h in history if h is not restored)


# --- the Adam loop -----------------------------------------------------------------

def _reference_fit(cfg, layer, windows, spec):
    """Per-epoch (train MSE, layer) of Adam with one `model_backward` call per batch."""
    rng = np.random.default_rng(spec.seed)
    theta = pack_params(layer)
    view = unpack_params(theta, cfg)
    adam = AdamState.zeros(theta.size)
    epochs = []
    for _ in range(spec.max_epochs):
        order = rng.permutation(len(windows))
        loss_sum = 0.0
        for lo in range(0, len(windows), spec.batch_size):
            idx = order[lo : lo + spec.batch_size]
            loss, dw, db = model.model_backward(*windows.batch(idx), cfg, view)
            adam_step(theta, pack_params(ComplexLinear(dw, db)), adam, spec)
            loss_sum += loss * idx.size
        epochs.append((loss_sum / len(windows), unpack_params(theta, cfg).copy()))
    return epochs


def _fit_case(name):
    """(cfg, train windows, spec) of one fit case; every spec runs to its cap."""
    rng = np.random.default_rng(60)
    if name == "detect":
        # detect's model and batch size: 734 windows, whose last batch holds 30
        cfg = ModelConfig.for_reconstruction(200, 4, 1)
        windows = reconstruction_windows(rng.normal(size=(933, 1)).cumsum(axis=0), 200, 4)
        return cfg, windows, TrainSpec(learning_rate=1e-2, max_epochs=3, patience=3)
    if name == "split":
        # batches of 100 x 96 x 7 values run as two halves; the last, of 50, does not
        cfg = ModelConfig.for_forecast(96, 32, 24, 2, 7)
        windows = _forecast_windows(rng.normal(size=(377, 7)), cfg)
        return cfg, windows, TrainSpec(batch_size=100, max_epochs=2, patience=2)
    supervision = Supervision.FORECAST_ONLY if name == "forecast-only" else \
        Supervision.BACKCAST_AND_FORECAST
    cfg = ModelConfig.for_forecast(24, 8, 6, 2, 3, supervision)
    windows = _forecast_windows(rng.normal(size=(331, 3)).cumsum(axis=0), cfg)
    return cfg, windows, TrainSpec(learning_rate=1e-2, batch_size=16, max_epochs=3, patience=3)


@pytest.mark.parametrize("name, idle", [
    ("detect", False), ("backcast+forecast", False), ("forecast-only", False),
    ("split", False), ("split", True),
])
def test_train_repeats_the_reference_adam_loop_bit_for_bit(monkeypatch, name, idle):
    # one model_backward call per batch per epoch, wherever a half batch runs
    monkeypatch.setattr(model, "_cpu_idle", lambda: idle)
    calls = _counted(monkeypatch, "model_backward")
    cfg, windows, spec = _fit_case(name)
    layer = init_params(cfg, 5)
    best, history = train(cfg, layer, windows, windows, spec)
    assert len(calls) == spec.max_epochs * -(-len(windows) // spec.batch_size)
    reference = _reference_fit(cfg, layer, windows, spec)
    assert len(history) == spec.max_epochs
    assert [h.train_mse for h in history] == [mse for mse, _ in reference]
    kept = reference[restored_epoch(history).epoch - 1][1]
    assert np.array_equal(best.weight, kept.weight) and np.array_equal(best.bias, kept.bias)


def test_train_refuses_a_non_finite_training_window():
    cfg, windows, spec = _fit_case("detect")
    inputs = windows.inputs.copy()
    inputs[500, 7, 0] = np.nan
    with pytest.raises(InvalidValueError, match="non-finite"):
        train(cfg, init_params(cfg, 5), ArrayWindows(inputs, windows.targets), windows, spec)


# --- the exact fit -------------------------------------------------------------------

WHOLE_WINDOW = ["detect", "tail-backcast+forecast", "channels-whole-window"]


def _whole_set_gradient(cfg, windows, layer):
    _, dw, db = model.model_backward(*windows.batch(slice(None)), cfg, layer)
    return math.sqrt(np.vdot(dw, dw).real + np.vdot(db, db).real)


@pytest.mark.parametrize("name", WHOLE_WINDOW)
def test_exact_fit_solves_the_normal_equations(name):
    cfg, windows, _ = _geometry(name)
    stats = training.validation_statistics(cfg, windows, None)
    want = _least_squares_layer(cfg, stats)
    layer = training.exact_fit(cfg, windows)
    scale = max(np.abs(want.weight).max(), np.abs(want.bias).max())
    assert np.abs(layer.weight - want.weight).max() <= 1e-9 * scale
    assert np.abs(layer.bias - want.bias).max() <= 1e-9 * scale
    # the statistics' quadratic form scores the solution as a direct loss pass does
    whole, _, _ = model.model_backward(*windows.batch(slice(None)), cfg, layer)
    assert abs(stats.mse(layer) - whole) <= 1e-12 * whole


@pytest.mark.parametrize("name", WHOLE_WINDOW)
def test_exact_fit_zeroes_the_whole_set_gradient(name):
    cfg, windows, _ = _geometry(name)
    layer = training.exact_fit(cfg, windows)
    zero = ComplexLinear(np.zeros_like(layer.weight), np.zeros_like(layer.bias))
    assert _whole_set_gradient(cfg, windows, layer) <= 1e-10 * _whole_set_gradient(
        cfg, windows, zero)


@pytest.mark.parametrize("name", ["detect", "backcast+forecast", "split"])
def test_exact_train_mse_is_at_most_adams(name):
    cfg, windows, spec = _fit_case(name)
    exact = training.exact_fit(cfg, windows)
    adam, history = train(cfg, init_params(cfg, spec.seed), windows, windows, spec)
    exact_mse, _, _ = model.model_backward(*windows.batch(slice(None)), cfg, exact)
    adam_mse, _, _ = model.model_backward(*windows.batch(slice(None)), cfg, adam)
    assert exact_mse <= adam_mse
    assert exact_mse <= min(h.train_mse for h in history)


def _min_norm_layer(cfg, windows):
    """The min-norm least-squares layer, by pseudo-inverse of the stacked rows z~ against B."""
    x, t = windows.batch(slice(None))
    xn, state = rin_normalize(x)
    kept = np.fft.rfft(xn, axis=1)[:, 1 : 1 + cfg.n_in]
    z = np.concatenate((np.ones_like(kept[:, :1]), kept), axis=1) * state.std
    z = z.transpose(0, 2, 1).reshape(-1, 1 + cfg.n_in)  # z~ = std * [1, kept bins]
    b = np.fft.rfft(t, axis=1)[:, 1 : 1 + cfg.n_out].transpose(0, 2, 1).reshape(-1, cfg.n_out)
    stacked = np.linalg.pinv(z) @ b
    if cfg.n_out == cfg.output_len // 2:  # real problem [Re z, -Im z] against Re B
        folded = np.linalg.pinv(np.hstack((z.real, -z.imag))) @ b[:, -1].real
        stacked[:, -1] = folded[: len(z.T)] + 1j * folded[len(z.T) :]  # [Re w, Im w]
    return stacked


@pytest.mark.parametrize("case", ["constant-channel", "few-windows"])
def test_exact_fit_of_a_singular_problem_is_finite_and_min_norm(case):
    rng = np.random.default_rng(70)
    if case == "constant-channel":  # the normalizer floors its std at RIN_EPS
        cfg = ModelConfig.for_reconstruction(40, 4, 2)
        rows = np.column_stack((rng.normal(size=300).cumsum(), np.full(300, 3.0)))
        windows = reconstruction_windows(rows, 40, 4)
    else:  # 3 rows of z~ against 6 complex unknowns per output bin
        cfg = ModelConfig.for_reconstruction(40, 4, 1)
        windows = reconstruction_windows(rng.normal(size=(42, 1)), 40, 4)
    layer = training.exact_fit(cfg, windows)
    assert np.isfinite(layer.weight).all() and np.isfinite(layer.bias).all()
    assert all(map(math.isfinite, evaluate(cfg, layer, windows)))
    want = _min_norm_layer(cfg, windows)
    got = np.concatenate((layer.bias[None], layer.weight))
    assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


def test_exact_fit_refuses_forecast_only_supervision():
    cfg, windows, _ = _geometry("tail-forecast-only")
    with pytest.raises(InvalidArgumentError, match="forecast-only supervision needs"):
        training.exact_fit(cfg, windows)


def test_an_empty_window_set_is_refused_before_any_pass():
    cfg = ModelConfig.for_forecast(32, 8, 8, 1, 3)
    empty = ArrayWindows(np.zeros((0, 32, 3)), np.zeros((0, 40, 3)))
    with pytest.raises(InvalidArgumentError, match="the exact fit needs at least one"):
        training.exact_fit(cfg, empty)
    with pytest.raises(InvalidArgumentError, match="cannot evaluate on an empty window set"):
        evaluate(cfg, init_params(cfg, 0), empty)
    with pytest.raises(InvalidArgumentError, match="cannot evaluate on an empty window set"):
        training.validation_statistics(cfg, empty)


def test_exact_fit_refuses_non_finite_normal_equations():
    cfg, windows, _ = _geometry("channels-whole-window")
    targets = windows.targets.copy()
    targets[4, 2, 1] = np.inf
    with pytest.raises(TrainingDivergedError, match="not finite"):
        with np.errstate(invalid="ignore"):  # the inf target's spectrum holds inf - inf
            training.exact_fit(cfg, ArrayWindows(windows.inputs, targets))


def test_exact_fit_does_not_depend_on_the_worker(monkeypatch):
    # 90 windows: a 64-window part of 256 x 4 inputs splits, on the worker if
    # idle, and the last part, of 26, does not
    cfg = ModelConfig.for_forecast(256, 32, 24, 1, 4)
    windows = _forecast_windows(np.random.default_rng(80).normal(size=(cfg.output_len + 89, 4)),
                                cfg)
    assert model._splits(cfg, training.EVAL_BATCH) and not model._splits(cfg, 26)
    threads, spectral = [], []
    bins, spectral_pass = model._scaled_bins, model._spectral_pass
    monkeypatch.setattr(model, "_scaled_bins", lambda x3, cfg: threads.append(
        threading.current_thread()) or bins(x3, cfg))
    monkeypatch.setattr(model, "_spectral_pass", lambda *args: spectral.append(1) or
                        spectral_pass(*args))
    scored = _counted(monkeypatch, "evaluate")
    results = []
    for idle in (False, True):
        monkeypatch.setattr(model, "_cpu_idle", lambda: idle)
        threads.clear()
        results.append(training.exact_fit(cfg, windows))
        # one statistics pass over the windows, in 2 + 1 parts, and no scoring
        assert len(threads) == 3 and not spectral and not scored
        assert (set(threads) != {threading.main_thread()}) is idle
    serial, split = results
    assert np.array_equal(serial.weight, split.weight)
    assert np.array_equal(serial.bias, split.bias)


# --- forecasting quality ------------------------------------------------------------

def _periodic_split(noise):
    """(train, val, test) windows of a standardized 600 x 2 series of sinusoids of
    periods 24, 12 and 8, plus N(0, noise^2) noise, and the standardized noise
    variance averaged over the channels."""
    t = np.arange(600)
    rows = np.column_stack([np.sin(2 * np.pi * t / 24) + 0.5 * np.cos(2 * np.pi * t / 8 + 0.3),
                            0.8 * np.cos(2 * np.pi * t / 12 - 1.0)
                            + 0.3 * np.sin(2 * np.pi * t / 24 + 2.0)])
    rows += np.random.default_rng(0).normal(0.0, noise, rows.shape)
    frame = SeriesFrame(rows, ["a", "b"])
    profile = DatasetProfile("periodic", 24, SplitRule.RATIO_70_10_20)
    (_, train_rows), _, _ = chrono_split(frame, profile)
    frame, stats = standardize(frame, (0, train_rows))
    windows = split_windows(frame, profile, 48, 24, Supervision.BACKCAST_AND_FORECAST)
    return windows, float(np.mean(frame.values ** 2)), float(np.mean(noise ** 2 / stats.std ** 2))


# periods 24, 12 and 8 lie on the 48-point input and the 72-point output DFT grids
PERIODIC = ModelConfig.for_forecast(48, 24, 24, 1, 2)


def test_exact_fit_forecasts_a_noise_free_periodic_series():
    (train_w, val_w, test_w), mean_square, _ = _periodic_split(0.0)
    layer = training.exact_fit(PERIODIC, train_w)
    for windows in (val_w, test_w):
        # measured: 1.4e-28 (val) and 2.7e-28 (test) of the mean square
        assert evaluate(PERIODIC, layer, windows, 24)[0] <= 1e-20 * mean_square


def test_exact_fit_of_a_noisy_periodic_series():
    (train_w, val_w, _), _, noise_var = _periodic_split(0.1)
    exact = training.exact_fit(PERIODIC, train_w)
    adam, _ = train(PERIODIC, init_params(PERIODIC, 0), train_w, val_w, TrainSpec())
    stats = training.validation_statistics(PERIODIC, train_w)
    # no layer has a lower whole-window train MSE, the default Adam fit's included
    # (measured: 0.0144 against Adam's 1.11)
    assert stats.mse(exact) <= stats.mse(adam) + 1e-12 * stats.energy / stats.count
    # the forecast error is mostly the target's own noise; measured at noise seed 0,
    # val MSE 0.0171 = 0.81 of the standardized noise variance (seeds 0-4: 0.81-1.40)
    val_mse = evaluate(PERIODIC, exact, val_w, 24)[0]
    assert 0.5 * noise_var <= val_mse <= 2.0 * noise_var


# --- what a cell's seeds share ----------------------------------------------------

def _counted(monkeypatch, name):
    calls = []
    real = getattr(training, name)
    monkeypatch.setattr(training, name,
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


def test_train_seeds_builds_the_shared_state_once_per_cell(monkeypatch):
    frame = _tiny_frame(channels=3)
    spec = TrainSpec(max_epochs=3, patience=3, seeds_for_reporting=(0, 1, 2))
    stats = _counted(monkeypatch, "validation_statistics")
    cfg, runs = training.train_seeds(frame, TINY_PROFILE, 8, 32, 1,
                                     Supervision.BACKCAST_AND_FORECAST, spec)
    assert len(stats) == 1 and len(runs) == 3
    # each seed's fit is the one `train` makes from that seed alone
    train_w, val_w, _ = training.dat.split_windows(frame, TINY_PROFILE, 32, 8,
                                                   Supervision.BACKCAST_AND_FORECAST)
    for seed, (record, best, history) in zip(spec.seeds_for_reporting, runs):
        alone, alone_history = train(cfg, init_params(cfg, seed), train_w, val_w,
                                     replace(spec, seed=seed), eval_steps=8)
        assert record["seed"] == seed and history == alone_history
        assert np.array_equal(best.weight, alone.weight)
        assert np.array_equal(best.bias, alone.bias)


# --- grid search ------------------------------------------------------------------

def _tiny_frame(length=260, channels=2, seed=4):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.stack([np.sin(2 * np.pi * t / 24 + p) for p in rng.uniform(0, 6, channels)],
                    axis=1)
    return SeriesFrame(base + rng.normal(0, 0.1, (length, channels)),
                       [f"c{i}" for i in range(channels)])


TINY_PROFILE = DatasetProfile("tiny", 24, SplitRule.RATIO_70_10_20)


def test_grid_single_combination():
    frame = _tiny_frame()
    spec = TrainSpec(max_epochs=3, patience=3, seeds_for_reporting=(0,))
    result = grid_search(frame, TINY_PROFILE, 8, [32], [1],
                         [Supervision.BACKCAST_AND_FORECAST], spec)
    assert len(result.rows) == 1
    assert result.selected == result.rows[0]
    row = result.rows[0]
    assert row.look_back == 32 and row.harmonic == 1
    assert row.complex_entries > 0 and math.isfinite(row.val_mse)


def test_grid_selection_matches_external_argmin():
    frame = _tiny_frame()
    spec = TrainSpec(max_epochs=3, patience=3, seeds_for_reporting=(0,))
    result = grid_search(frame, TINY_PROFILE, 8, [16, 32], [1, 2],
                         [Supervision.BACKCAST_AND_FORECAST], spec)
    assert len(result.rows) == 4
    brute = min(result.rows,
                key=lambda r: (r.val_mse, r.complex_entries, r.look_back))
    assert result.selected == brute


def test_grid_skip_resumes():
    frame = _tiny_frame()
    spec = TrainSpec(max_epochs=2, patience=2, seeds_for_reporting=(0,))
    full = grid_search(frame, TINY_PROFILE, 8, [16, 32], [1],
                       [Supervision.BACKCAST_AND_FORECAST], spec)
    partial = grid_search(frame, TINY_PROFILE, 8, [16, 32], [1],
                          [Supervision.BACKCAST_AND_FORECAST], spec,
                          done=full.rows[:1])
    assert partial.rows == full.rows


def test_grid_selects_over_done_rows_too():
    frame = _tiny_frame()
    spec = TrainSpec(max_epochs=1, patience=1, seeds_for_reporting=(0,))
    # a finished cell outside this sweep that no trained cell can beat
    done = GridRow(720, 2, "forecast", 0.0, 0.0, 1, 1.0)
    seen = []
    result = grid_search(frame, TINY_PROFILE, 8, [16, 32], [1],
                         [Supervision.BACKCAST_AND_FORECAST], spec, done=[done],
                         on_row=lambda rows: seen.append(list(rows)))
    assert result.selected == done
    assert result.rows[0] == done and len(result.rows) == 3
    assert seen == [result.rows[:2], result.rows]  # every row, after each new cell


def test_grid_with_every_cell_done_trains_nothing(monkeypatch):
    def no_training(*args):
        raise AssertionError("a finished cell was trained again")

    monkeypatch.setattr(training, "run_combination", no_training)
    done = [GridRow(16, 1, "backcast+forecast", 0.3, 0.4, 12, 2.0),
            GridRow(32, 1, "backcast+forecast", 0.2, 0.5, 20, 2.0)]
    result = grid_search(_tiny_frame(), TINY_PROFILE, 8, [16, 32], [1],
                         [Supervision.BACKCAST_AND_FORECAST], TrainSpec(), done=done,
                         on_row=no_training)
    assert result.rows == done and result.selected == done[1]


def test_train_spec_rejects_negative_seeds():
    with pytest.raises(InvalidArgumentError, match="seed must be >= 0, got -1"):
        TrainSpec(seed=-1)
    with pytest.raises(InvalidArgumentError, match="seed must be >= 0, got -3"):
        TrainSpec(seeds_for_reporting=(0, -3))


def test_grid_row_reports_restored_epoch_val(monkeypatch):
    # epoch 3 beats epoch 2 by less than the 1e-6 relative minimum, so train
    # keeps epoch 2's parameters, and the row's val MSE must be evaluate's of
    # epoch 2's layer, scored once after training
    results = iter([1.0, 0.5, 0.5 * (1 - 1e-7)])  # the statistics of three epochs
    scored = []

    def mse(self, layer):
        scored.append(layer.copy())
        return next(results)

    evaluated = []
    outcomes = iter([(0.4, 0.0), (0.7, 0.0)])  # the restored epoch's val, then test

    def fake_evaluate(cfg, layer, windows, eval_steps=None):
        evaluated.append(layer.copy())
        return next(outcomes)

    monkeypatch.setattr(training.ValStatistics, "mse", mse)
    monkeypatch.setattr(training, "evaluate", fake_evaluate)
    spec = TrainSpec(max_epochs=3, patience=3, seeds_for_reporting=(0,))
    result = grid_search(_tiny_frame(), TINY_PROFILE, 8, [16], [1],
                         [Supervision.BACKCAST_AND_FORECAST], spec)
    (row,) = result.rows
    assert (row.val_mse, row.test_mse, row.epochs_ran) == (0.4, 0.7, 3.0)
    assert len(scored) == 3 and len(evaluated) == 2
    for layer in evaluated:  # both scored the kept layer: epoch 2's
        assert np.array_equal(layer.weight, scored[1].weight)
        assert np.array_equal(layer.bias, scored[1].bias)
    assert not np.array_equal(scored[1].weight, scored[2].weight)


def test_one_epoch_grid_row_reports_its_val(monkeypatch):
    def no_statistics(*args):
        raise AssertionError("a one-epoch fit took validation statistics")

    results = iter([0.5, 0.7])  # the one val epoch, then test
    monkeypatch.setattr(training, "validation_statistics", no_statistics)
    monkeypatch.setattr(training, "evaluate",
                        lambda *args, **kwargs: (next(results), 0.0))
    spec = TrainSpec(max_epochs=1, patience=3, seeds_for_reporting=(0,))
    result = grid_search(_tiny_frame(), TINY_PROFILE, 8, [16], [1],
                         [Supervision.BACKCAST_AND_FORECAST], spec)
    (row,) = result.rows
    assert (row.val_mse, row.test_mse, row.epochs_ran) == (0.5, 0.7, 1.0)


def test_select_best_tie_breaks():
    rows = [
        GridRow(720, 2, "forecast", 0.5, 0.5, 100, 3.0),
        GridRow(360, 2, "forecast", 0.5, 0.5, 50, 3.0),
        GridRow(90, 2, "forecast", 0.5, 0.5, 50, 2.0),
    ]
    assert select_best(rows).look_back == 90  # fewest params, then shortest window
    with pytest.raises(InvalidArgumentError, match="no grid rows to select from"):
        select_best([])


def test_grid_csv_roundtrip(tmp_path):
    rows = [GridRow(90, 2, "forecast", 0.51, 0.62, 703, 7.0),
            GridRow(720, 6, "backcast+forecast", 0.41, 0.45, 43734, 11.0)]
    path = tmp_path / "grid.csv"
    write_grid_csv(path, rows)
    assert read_grid_csv(path) == rows


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.builds(
    GridRow, st.integers(1, 10**6), st.integers(0, 10**3),
    st.sampled_from([s.value for s in Supervision]), FINITE, FINITE,
    st.integers(1, 10**9), FINITE,
), max_size=4))
def test_grid_csv_roundtrip_keeps_every_float(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    write_grid_csv(path, rows)
    assert read_grid_csv(path) == rows
