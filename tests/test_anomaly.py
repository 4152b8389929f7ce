"""Detection-path checks: reconstruction windows, scores against a
brute-force per-window oracle, point adjustment against a brute-force segment
scan, and the threshold sweep against an exhaustive oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcast.anomaly import (
    _distinct,
    point_adjust,
    prf1,
    reconstruction_windows,
    score_series,
    select_threshold,
)
from freqcast.errors import (
    InvalidArgumentError,
    InvalidLengthError,
    InvalidValueError,
    ShapeError,
)
from freqcast.model import ComplexLinear, ModelConfig, init_params, model_forward


def test_reconstruction_windows():
    rows = np.arange(24.0).reshape(12, 2)
    ws = reconstruction_windows(rows, 8, 4)
    assert len(ws) == 5
    # both sides are read-only views of one channel-major copy of the rows,
    # not a T x window copy
    assert np.shares_memory(ws.inputs, ws.targets)
    low, high = np.lib.array_utils.byte_bounds(ws.targets)
    assert high - low == rows.nbytes
    assert not ws.targets.flags.writeable
    x0, t0 = ws.batch(0)
    assert np.array_equal(t0, rows[:8])
    assert np.array_equal(x0, rows[:8:4])
    with pytest.raises(InvalidLengthError):
        reconstruction_windows(rows, 16, 4)


@pytest.mark.parametrize("window, factor, error", [
    (8, 0, InvalidArgumentError),   # was a bare "slice step cannot be zero"
    (8, 3, InvalidArgumentError),   # was 3-row inputs no model takes
    (6, 2, InvalidLengthError),
])
def test_reconstruction_windows_rejects_impossible_geometry(window, factor, error):
    with pytest.raises(error):
        reconstruction_windows(np.zeros((24, 1)), window, factor)


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

    scores = score_series(cfg, layer, rng.normal(size=(400, 1)), window=200, factor=4)
    assert scores.scores.shape == (400,)

    scores = score_series(cfg, layer, rng.normal(size=(500, 1)), window=200, factor=4)
    assert scores.scores.shape == (500,)

    with pytest.raises(InvalidLengthError):
        score_series(cfg, layer, rng.normal(size=(150, 1)), window=200, factor=4)


@pytest.mark.parametrize("length", [200, 400, 500])
def test_score_series_matches_brute_force_window_mean(length):
    # at 500 rows the end-aligned window [300, 500) overlaps the one at 200
    window, factor = 200, 4
    cfg = ModelConfig.for_reconstruction(window, factor, 2)
    layer = init_params(cfg, 5)
    series = np.random.default_rng(length).normal(size=(length, 2))
    starts = set(range(0, length - window + 1, window)) | {length - window}
    per_row = [[] for _ in range(length)]
    for s in sorted(starts):
        seg = series[s : s + window]
        err = np.mean((model_forward(seg[::factor], cfg, layer) - seg) ** 2, axis=1)
        for i in range(window):
            per_row[s + i].append(err[i])
    want = np.array([np.mean(errs) for errs in per_row])

    got = score_series(cfg, layer, series, window=window, factor=factor).scores
    assert (want > 0).all()
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_score_series_tail_window_averages():
    # capture which windows score each row via a stub model
    cfg = ModelConfig.for_reconstruction(200, 4, 1)
    layer = init_params(cfg, 1)
    series = np.zeros((500, 1))
    scores = score_series(cfg, layer, series, window=200, factor=4)
    # zero series reconstructs to its (zero) instance mean: all scores zero
    assert np.allclose(scores.scores, 0.0)


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
    # a forecast model with a reconstruction model's geometry
    cfg = ModelConfig.for_forecast(32, 32, 24, 1, 1)
    with pytest.raises(InvalidArgumentError, match="not the reconstruction model"):
        score_series(cfg, init_params(cfg, 4), np.zeros((400, 1)), window=64, factor=2)


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


def test_point_adjust_empty():
    out = point_adjust(np.zeros(0, bool), np.zeros(0, bool))
    assert out.shape == (0,) and out.dtype == bool


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
    with pytest.raises(ShapeError, match=r"pred \(3,\) and labels \(4,\) differ"):
        prf1(np.zeros(3, bool), labels)


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


def test_select_threshold_refuses_mismatched_shapes():
    with pytest.raises(ShapeError, match=r"scores \(3,\) and labels \(2,\) differ"):
        select_threshold(np.array([0.1, 0.2, 0.3]), np.ones(2, bool))


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


def best_over_every_cut(scores, labels):
    """Exhaustive oracle: (best point-adjusted F1, highest threshold reaching it)
    over every distinct score plus -inf, which flags every row."""
    f1s = {th: prf1(point_adjust(scores > th, labels), labels)[2]
           for th in [-np.inf, *np.unique(scores)]}
    best = max(f1s.values())
    return best, max(th for th, f1 in f1s.items() if f1 == best)


def assert_flags_every_row(threshold, scores):
    # finite, and below every score even after 1e-9 relative print rounding
    assert np.isfinite(threshold)
    assert threshold + 1e-9 * abs(threshold) < scores.min()


def assert_exact_sweep(scores, labels):
    threshold, report = select_threshold(scores, labels)
    best_f1, best_threshold = best_over_every_cut(scores, labels)
    assert report.f1 == best_f1
    if best_threshold == -np.inf:
        assert_flags_every_row(threshold, scores)
    else:
        assert threshold == best_threshold
    pred = point_adjust(scores > threshold, labels)
    assert prf1(pred, labels) == (report.precision, report.recall,
                                  report.f1, report.accuracy)


def test_select_threshold_tries_every_score():
    # a quantile sweep interpolates to just below 0.6 and misses this optimum
    scores = np.array([0.3, 0.7, 0.6, 0.4, 0.5, 0.0, 0.2, 1.0])
    labels = np.array([1, 1, 0, 0, 0, 1, 0, 1], dtype=bool)
    threshold, report = select_threshold(scores, labels)
    assert threshold == 0.6
    assert report.f1 == 6 / 7


@pytest.mark.parametrize("scores, labels, f1", [
    ([0.5, 0.5], [1, 0], 2 / 3),  # no score-valued threshold flags the positive
    ([0.5], [1], 1.0),
    ([-3e20, 2.0, -3e20], [1, 0, 1], 0.8),
])
def test_select_threshold_can_flag_every_row(scores, labels, f1):
    scores = np.array(scores)
    threshold, report = select_threshold(scores, np.array(labels, dtype=bool))
    assert report.f1 == f1
    assert_flags_every_row(threshold, scores)


def test_select_threshold_flags_every_row_only_when_strictly_better():
    # the lowest score already detects the one run, as flagging every row would
    scores = np.array([0.5, 0.9, 0.7])
    labels = np.array([1, 1, 0], dtype=bool)
    threshold, report = select_threshold(scores, labels)
    assert (threshold, report.f1) == (0.7, 1.0)


@st.composite
def tied_scores_and_labels(draw):
    t = draw(st.integers(1, 300))
    decimals = draw(st.integers(1, 4))
    scores = np.round(draw(st.lists(st.floats(0, 1), min_size=t, max_size=t)), decimals)
    labels = np.array(draw(st.lists(st.booleans(), min_size=t, max_size=t)))
    labels[draw(st.integers(0, t - 1))] = True
    return scores, labels


@settings(max_examples=150, deadline=None)
@given(tied_scores_and_labels())
def test_select_threshold_exact_on_tied_scores(case):
    assert_exact_sweep(*case)


def test_select_threshold_exact_past_ten_thousand_rows():
    rng = np.random.default_rng(9)
    scores = rng.integers(0, 40, 12_000) / 8.0
    labels = np.zeros(12_000, dtype=bool)
    for start in rng.integers(0, 11_950, 60):
        labels[start : start + rng.integers(1, 50)] = True
    scores[labels] += 1.0
    assert_exact_sweep(scores, labels)


@settings(max_examples=150, deadline=None)
@given(tied_scores_and_labels())
def test_threshold_candidates_are_unique_scores(case):
    scores, _ = case
    assert np.array_equal(_distinct(scores), np.unique(scores))


@pytest.mark.parametrize("seed", range(4))
def test_threshold_candidates_are_unique_scores_on_heavy_ties(seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 1 + 10**seed, 5000) / 3.0  # 1 to 1001 distinct values
    scores[rng.integers(0, 5000, 50)] = 0.0
    got = _distinct(scores)
    assert got.dtype == np.float64 and np.array_equal(got, np.unique(scores))


def test_select_threshold_loads_no_masked_arrays():
    # np.unique imports numpy.ma on first use, about 24 ms of a detect process
    code = ("import sys; import numpy as np; from freqcast.anomaly import select_threshold; "
            "before = 'numpy.ma' in sys.modules; "
            "select_threshold(np.array([0.1, 0.5, 0.5, 0.2]), np.array([0, 1, 0, 1], bool)); "
            "assert before or 'numpy.ma' not in sys.modules")
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_select_threshold_rejects_non_finite_scores(bad):
    scores = np.array([0.1, bad, 0.3])
    with pytest.raises(InvalidValueError, match="not finite"):
        select_threshold(scores, np.array([0, 1, 0], dtype=bool))
