"""Detection-path checks: downsampling, scoring coverage, point adjustment
against a brute-force segment scan, and the threshold sweep against an
exhaustive oracle."""

import numpy as np
import pytest

from freqcast.anomaly import (
    downsample,
    point_adjust,
    prf1,
    reconstruction_windows,
    score_series,
    select_threshold,
)
from freqcast.errors import InvalidArgumentError, InvalidLengthError, ShapeError
from freqcast.model import ComplexLinear, ModelConfig, init_params


def test_downsample_basic():
    rows = np.arange(8.0)[:, None]
    assert np.array_equal(downsample(rows, 2)[:, 0], [0, 2, 4, 6])
    assert np.array_equal(downsample(rows, 1), rows)
    with pytest.raises(InvalidArgumentError):
        downsample(np.zeros((10, 1)), 3)


def test_downsample_composes():
    rows = np.arange(16.0)[:, None]
    assert np.array_equal(downsample(downsample(rows, 2), 2), downsample(rows, 4))


def test_reconstruction_windows():
    rows = np.arange(24.0).reshape(12, 2)
    ws = reconstruction_windows(rows, 8, 4)
    assert len(ws) == 5
    # both sides are read-only views of the rows, not a T x window copy
    assert np.shares_memory(ws.inputs, rows) and np.shares_memory(ws.targets, rows)
    assert not ws.targets.flags.writeable
    x0, t0 = ws[0]
    assert np.array_equal(t0, rows[:8])
    assert np.array_equal(x0, rows[:8:4])
    with pytest.raises(InvalidLengthError):
        reconstruction_windows(rows, 16, 4)


def _identity_recon_model(window, factor, channels):
    """factor=1 reconstruction config whose layer is the identity."""
    cfg = ModelConfig.for_reconstruction(window, factor, channels)
    layer = ComplexLinear(np.eye(cfg.n_in, cfg.n_out, dtype=complex),
                          np.zeros(cfg.n_out, dtype=complex))
    return cfg, layer


def test_score_series_full_coverage_and_tail():
    cfg = ModelConfig.for_reconstruction(200, 4, 1)
    layer = init_params(cfg, 0)
    rng = np.random.default_rng(0)

    scores = score_series(cfg, layer, rng.normal(size=(400, 1)))
    assert scores.coverage.all()

    scores = score_series(cfg, layer, rng.normal(size=(500, 1)))
    assert scores.coverage.all()
    assert scores.scores.shape == (500,)

    with pytest.raises(InvalidLengthError):
        score_series(cfg, layer, rng.normal(size=(150, 1)))


def test_score_series_tail_window_averages():
    # capture which windows score each row via a stub model
    cfg = ModelConfig.for_reconstruction(200, 4, 1)
    layer = init_params(cfg, 1)
    series = np.zeros((500, 1))
    scores = score_series(cfg, layer, series)
    # zero series reconstructs to its (zero) instance mean: all scores zero
    assert np.allclose(scores.scores, 0.0)
    assert scores.coverage.all()


def test_score_series_identity_model_near_zero():
    cfg, layer = _identity_recon_model(64, 1, 2)
    rng = np.random.default_rng(2)
    series = rng.normal(size=(256, 2))
    scores = score_series(cfg, layer, series, window=64, factor=1)
    assert scores.scores.max() < 1e-10


def test_score_series_channel_permutation_equivariant():
    cfg = ModelConfig.for_reconstruction(64, 4, 3)
    layer = init_params(cfg, 3)
    rng = np.random.default_rng(3)
    series = rng.normal(size=(192, 3))
    a = score_series(cfg, layer, series, window=64, factor=4)
    b = score_series(cfg, layer, series[:, [2, 0, 1]], window=64, factor=4)
    assert np.allclose(a.scores, b.scores)


def test_score_series_config_mismatch():
    cfg = ModelConfig.for_reconstruction(200, 4, 1)
    layer = init_params(cfg, 4)
    with pytest.raises(InvalidArgumentError):
        score_series(cfg, layer, np.zeros((400, 1)), window=400, factor=4)


def brute_force_point_adjust(pred, labels):
    adjusted = pred.copy()
    t = len(labels)
    i = 0
    while i < t:
        if labels[i]:
            j = i
            while j < t and labels[j]:
                j += 1
            if any(pred[i:j]):
                adjusted[i:j] = True
            i = j
        else:
            i += 1
    return adjusted


def test_point_adjust_fixture():
    labels = np.array([0, 1, 1, 1, 1, 0, 0], dtype=bool)
    pred = np.array([0, 0, 1, 0, 0, 0, 0], dtype=bool)
    assert np.array_equal(point_adjust(pred, labels), labels)


def test_point_adjust_no_predictions():
    labels = np.array([0, 1, 1, 0], dtype=bool)
    pred = np.zeros(4, dtype=bool)
    assert np.array_equal(point_adjust(pred, labels), pred)


def test_point_adjust_outside_runs_untouched():
    labels = np.array([0, 0, 1, 1, 0, 0], dtype=bool)
    pred = np.array([1, 0, 0, 1, 0, 1], dtype=bool)
    out = point_adjust(pred, labels)
    assert np.array_equal(out, [1, 0, 1, 1, 0, 1])


def test_point_adjust_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(200):
        pred = rng.random(50) < 0.3
        labels = rng.random(50) < 0.3
        assert np.array_equal(point_adjust(pred, labels),
                              brute_force_point_adjust(pred, labels))


def test_point_adjust_never_hurts_f1():
    rng = np.random.default_rng(6)
    for _ in range(100):
        pred = rng.random(60) < 0.25
        labels = rng.random(60) < 0.25
        if not labels.any():
            continue
        raw_f1 = prf1(pred, labels)[2]
        adj_f1 = prf1(point_adjust(pred, labels), labels)[2]
        assert adj_f1 >= raw_f1 - 1e-12


def test_point_adjust_length_mismatch():
    with pytest.raises(ShapeError):
        point_adjust(np.zeros(3, bool), np.zeros(4, bool))


def test_prf1_cases():
    labels = np.array([1, 0, 1, 0], dtype=bool)
    assert prf1(labels, labels) == (1.0, 1.0, 1.0, 1.0)
    p, r, f1, acc = prf1(np.zeros(4, bool), labels)
    assert (p, r, f1) == (0.0, 0.0, 0.0)
    assert acc == 0.5
    p, r, f1, acc = prf1(np.array([1, 1, 0, 0], bool), np.array([1, 0, 1, 0], bool))
    assert (p, r, f1, acc) == (0.5, 0.5, 0.5, 0.5)


def test_select_threshold_simple():
    scores = np.array([0.1, 0.9, 0.1])
    labels = np.array([0, 1, 0], dtype=bool)
    threshold, report = select_threshold(scores, labels)
    assert report.f1 == 1.0
    assert 0.1 <= threshold <= 0.9
    assert report.adjusted


def test_select_threshold_requires_positives():
    with pytest.raises(InvalidArgumentError):
        select_threshold(np.array([0.1, 0.2]), np.zeros(2, bool))


def test_select_threshold_isolates_top_k():
    # top-7 scores sit at isolated positions, so each labeled run is a single
    # point and F1=1 forces the threshold to isolate exactly the top-7
    top_positions = np.arange(0, 28, 4)
    scores = np.zeros(30)
    scores[top_positions] = 23.0 + np.arange(7.0)
    rest = np.setdiff1d(np.arange(30), top_positions)
    scores[rest] = np.arange(rest.size, dtype=float)
    labels = np.zeros(30, dtype=bool)
    labels[top_positions] = True
    threshold, report = select_threshold(scores, labels)
    assert report.f1 == 1.0
    assert 22.0 <= threshold < 23.0
    assert np.array_equal(scores > threshold, labels)


def test_select_threshold_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    scores = rng.random(30)
    labels = rng.random(30) < 0.3
    labels[4] = True  # guarantee a positive
    best_f1 = 0.0
    for th in np.concatenate([[-1.0], np.unique(scores)]):
        pred = point_adjust(scores > th, labels)
        best_f1 = max(best_f1, prf1(pred, labels)[2])
    _, report = select_threshold(scores, labels)
    assert abs(report.f1 - best_f1) < 1e-12


def test_select_threshold_report_is_recomputable():
    rng = np.random.default_rng(8)
    scores = rng.random(200)
    labels = rng.random(200) < 0.1
    labels[13] = True
    threshold, report = select_threshold(scores, labels)
    pred = point_adjust(scores > threshold, labels)
    p, r, f1, acc = prf1(pred, labels)
    assert (p, r, f1, acc) == (report.precision, report.recall,
                               report.f1, report.accuracy)


def test_select_threshold_prefers_higher_on_ties():
    scores = np.array([0.0, 1.0, 2.0, 3.0])
    labels = np.array([0, 0, 0, 1], dtype=bool)
    threshold, report = select_threshold(scores, labels)
    assert report.f1 == 1.0
    # every candidate in [2, 3) achieves F1=1; the sweep must keep the highest
    candidates = np.unique(np.quantile(scores, np.linspace(0, 1, 4)))
    winners = [c for c in candidates
               if prf1(point_adjust(scores > c, labels), labels)[2] == 1.0]
    assert threshold == max(winners)
