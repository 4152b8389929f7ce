"""Ingestion, split, standardization, windowing, and synthetic-generator
checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcast.anomaly import reconstruction_windows
from freqcast.data import (
    ArrayWindows,
    DatasetProfile,
    PROFILES,
    SeriesFrame,
    SplitRule,
    WindowSet,
    chrono_split,
    destandardize,
    load_csv,
    load_labels,
    lookback_extended,
    split_label_column,
    split_windows,
    standardize,
    synth_anomaly,
    write_labels_csv,
    write_series_csv,
)
from freqcast.errors import (
    InvalidArgumentError,
    InvalidLengthError,
    ParseError,
    ShapeError,
)
from freqcast.model import Supervision
from freqcast.spectral import rfft


def test_load_csv_basic(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("a,b\n1,2\n3,4\n5,6\n")
    frame = load_csv(path)
    assert frame.channel_names == ["a", "b"]
    assert np.array_equal(frame.values, [[1, 2], [3, 4], [5, 6]])
    assert frame.timestamps is None


def test_load_csv_with_timestamp_column(tmp_path):
    path = tmp_path / "ts.csv"
    path.write_text("date,x,y\n2020-01-01,1,2\n2020-01-02,3,4\n")
    frame = load_csv(path, has_timestamp_column=True)
    assert frame.channel_names == ["x", "y"]
    assert frame.timestamps == ["2020-01-01", "2020-01-02"]
    assert np.array_equal(frame.values, [[1, 2], [3, 4]])


def test_load_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        load_csv(empty)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(ragged)

    alpha = tmp_path / "alpha.csv"
    alpha.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(ParseError, match="row 3, column 2"):
        load_csv(alpha)

    hole = tmp_path / "nan.csv"
    hole.write_text("a\n1\nnan\n")
    with pytest.raises(ParseError, match="non-finite"):
        load_csv(hole)


def test_load_csv_etth1_dimensions():
    import os
    from pathlib import Path

    for root in (Path(os.environ.get("FREQCAST_DATA", "data")), Path("data")):
        if (root / "ETTh1.csv").exists():
            frame = load_csv(root / "ETTh1.csv", has_timestamp_column=True)
            assert frame.length == 17420 and frame.channels == 7
            return
    pytest.skip("ETTh1.csv not available")


def test_load_labels(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("0\n1\n0\n1\n")
    labels = load_labels(path, expected_len=4)
    assert np.array_equal(labels, [False, True, False, True])
    with pytest.raises(ShapeError):
        load_labels(path, expected_len=5)
    bad = tmp_path / "bad.csv"
    bad.write_text("0\n2\n")
    with pytest.raises(ParseError, match="line 2"):
        load_labels(bad)


def test_split_label_column():
    frame = SeriesFrame(np.array([[1.0, 0.0], [2.0, 1.0]]), ["x", "label"])
    out, labels = split_label_column(frame)
    assert out.channel_names == ["x"]
    assert np.array_equal(labels, [False, True])
    with pytest.raises(InvalidArgumentError):
        split_label_column(out)


def test_chrono_split_ratio():
    frame = SeriesFrame(np.zeros((100, 1)), ["x"])
    profile = DatasetProfile("toy", 24, SplitRule.RATIO_70_10_20)
    train, val, test = chrono_split(frame, profile)
    assert (train, val, test) == ((0, 70), (70, 80), (80, 100))


def test_chrono_split_ett_rules():
    hourly = SeriesFrame(np.zeros((17420, 1)), ["x"])
    train, val, test = chrono_split(hourly, PROFILES["etth1"])
    assert train == (0, 8640)          # 12 months x 30 days x 24 hours
    assert val == (8640, 11520)
    assert test == (11520, 14400)

    with pytest.raises(InvalidLengthError):
        chrono_split(SeriesFrame(np.zeros((14399, 1)), ["x"]), PROFILES["etth1"])

    minute = SeriesFrame(np.zeros((69680, 1)), ["x"])
    train, val, test = chrono_split(minute, PROFILES["ettm2"])
    assert (train, val, test) == ((0, 34560), (34560, 46080), (46080, 57600))


def test_lookback_extension():
    assert lookback_extended((80, 100), 96) == (0, 100)  # clamped at the start
    assert lookback_extended((70, 80), 16) == (55, 80)


def test_standardize_uses_train_rows_only():
    rng = np.random.default_rng(0)
    values = rng.normal(3.0, 2.0, (100, 2))
    values[80:] += 50.0  # leaking these rows would shift the statistics
    frame = SeriesFrame(values, ["a", "b"])
    out, stats = standardize(frame, (0, 70))
    assert np.allclose(out.values[:70].mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(stats.mean, values[:70].mean(axis=0))
    out2, stats2 = standardize(frame, (0, 90))
    assert not np.allclose(stats.mean, stats2.mean)


def test_standardize_roundtrip():
    rng = np.random.default_rng(1)
    frame = SeriesFrame(rng.normal(5, 3, (50, 3)), ["a", "b", "c"])
    out, stats = standardize(frame, (0, 35))
    assert np.allclose(destandardize(out.values, stats), frame.values, atol=1e-9)


def test_make_windows_counts_and_contents():
    rows = np.arange(20).reshape(10, 2).astype(float)
    ws = WindowSet(rows, 4, 2, Supervision.FORECAST_ONLY)
    assert len(ws) == 5  # 10 - 4 - 2 + 1
    # inputs and targets are read-only views of the rows, not copies
    assert np.shares_memory(ws.inputs, rows) and np.shares_memory(ws.targets, rows)
    assert not ws.inputs.flags.writeable
    x0, t0 = ws[0]
    assert np.array_equal(x0, rows[0:4])
    assert np.array_equal(t0, rows[4:6])

    both = WindowSet(rows, 4, 2, Supervision.BACKCAST_AND_FORECAST)
    assert np.shares_memory(both.targets, rows)
    x1, t1 = both[3]
    assert np.array_equal(np.vstack([x1, t1[4:]]), rows[3:9])
    assert np.array_equal(t1, rows[3:9])


def test_make_windows_insufficient_rows():
    with pytest.raises(InvalidLengthError):
        WindowSet(np.zeros((5, 1)), 4, 2, Supervision.FORECAST_ONLY)


def test_windows_are_exhaustive_stride_one():
    rows = np.arange(30).reshape(15, 2).astype(float)
    ws = WindowSet(rows, 4, 3, Supervision.FORECAST_ONLY)
    rebuilt = np.full_like(rows, np.nan)
    for i in range(len(ws)):
        x, t = ws[i]
        rebuilt[i : i + 4] = x
        rebuilt[i + 4 : i + 7] = t
    assert np.array_equal(rebuilt, rows)


def test_window_batch_gather():
    rows = np.arange(40).reshape(20, 2).astype(float)
    ws = WindowSet(rows, 6, 2, Supervision.BACKCAST_AND_FORECAST)
    x, t = ws.batch([0, 5, 9])
    assert x.shape == (3, 6, 2) and t.shape == (3, 8, 2)
    # a batch is a private copy of only the rows it returns
    assert np.shares_memory(ws.inputs, rows) and not np.shares_memory(x, rows)
    assert np.array_equal(x[1], rows[5:11])


def test_split_windows_supervision_regions_disjoint():
    frame = SeriesFrame(np.arange(200.0).reshape(100, 2), ["a", "b"])
    profile = DatasetProfile("toy", 24, SplitRule.RATIO_70_10_20)
    train_w, val_w, test_w = split_windows(frame, profile, 8, 4, Supervision.FORECAST_ONLY)
    # no train target row reaches past the train/val boundary at row 70
    _, last_target = train_w[len(train_w) - 1]
    assert last_target[-1, 0] == frame.values[69, 0]
    # the first val window reaches back into train rows by input_len-1
    x0, _ = val_w.batch([0])
    assert x0[0, 0, 0] == frame.values[70 - 7, 0]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 40),
    channels=st.integers(1, 3),
    input_len=st.integers(1, 12),
    horizon=st.integers(0, 6),
    supervision=st.sampled_from(list(Supervision)),
    factor=st.integers(1, 4),
    data=st.data(),
)
def test_windows_match_brute_force_slicing(rows, channels, input_len, horizon,
                                           supervision, factor, data):
    series = np.arange(rows * channels, dtype=float).reshape(rows, channels)
    span = input_len + horizon
    forecast_only = supervision is Supervision.FORECAST_ONLY
    cases = [(
        lambda: WindowSet(series, input_len, horizon, supervision), span,
        lambda s: (series[s : s + input_len],
                   series[s + input_len * forecast_only : s + span]),
    ), (
        lambda: reconstruction_windows(series, span, factor), span,
        lambda s: (series[s : s + span : factor], series[s : s + span]),
    )]
    for build, length, brute in cases:
        if rows < length:
            with pytest.raises(InvalidLengthError):
                build()
            continue
        ws = build()
        count = rows - length + 1
        assert len(ws) == count
        for i in range(count):
            x, t = ws[i]
            bx, bt = brute(i)
            assert np.array_equal(x, bx) and np.array_equal(t, bt)
        idx = data.draw(st.lists(st.integers(0, count - 1), max_size=6))
        x, t = ws.batch(idx)
        assert x.shape[0] == t.shape[0] == len(idx)
        for k, i in enumerate(idx):
            bx, bt = brute(i)
            assert np.array_equal(x[k], bx) and np.array_equal(t[k], bt)
        for bad in (-1, -count, count, count + 3):
            with pytest.raises(IndexError):
                ws[bad]


def test_array_windows_interface():
    inputs = np.zeros((4, 8, 1))
    targets = np.ones((4, 12, 1))
    ws = ArrayWindows(inputs, targets)
    assert len(ws) == 4
    x, t = ws.batch([1, 2])
    assert x.shape == (2, 8, 1) and t.shape == (2, 12, 1)
    with pytest.raises(ShapeError):
        ArrayWindows(inputs, np.ones((3, 12, 1)))


# --- synthetic anomaly benchmark ------------------------------------------------

def test_synth_deterministic():
    a, split_a = synth_anomaly(seed=5, channels=2)
    b, split_b = synth_anomaly(seed=5, channels=2)
    assert split_a == split_b == 2500
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.labels, b.labels)


def test_synth_rate_zero_is_clean():
    series, split = synth_anomaly(rate=0.0, seed=1)
    assert not series.labels.any()
    assert series.values.shape == (4000, 1)
    # pure tone + noise: spectral mass concentrates at bin T/50
    bins = np.abs(rfft(series.values[:, 0]).bins)
    peak = int(np.argmax(bins[1:])) + 1
    assert abs(peak - 4000 // 50) <= 1
    assert bins[peak] > 10 * np.median(bins[1:])


def test_synth_labels_only_in_test_range():
    series, split = synth_anomaly(seed=7)
    assert not series.labels[:split].any()
    assert series.labels[split:].any()


def test_synth_label_fraction_near_rate():
    series, split = synth_anomaly(seed=3, rate=0.05)
    frac = series.labels[split:].mean()
    test_len = 4000 - split
    # rotation injects whole segments, so the target can overshoot by one
    # 30-step segment
    assert 0.05 <= frac <= 0.05 + 30 / test_len + 1e-9


def test_synth_anomalies_disturb_the_tone():
    clean, _ = synth_anomaly(seed=9, rate=0.0)
    dirty, split = synth_anomaly(seed=9, rate=0.05)
    assert np.array_equal(clean.values[:split], dirty.values[:split])
    changed = np.flatnonzero(
        np.any(clean.values != dirty.values, axis=1)
    )
    assert changed.size > 0
    assert dirty.labels[changed].all()


def test_synth_csv_roundtrip(tmp_path):
    series, _ = synth_anomaly(seed=11, channels=2, length=400)
    vpath = tmp_path / "synth_values.csv"
    lpath = tmp_path / "synth_labels.csv"
    write_series_csv(vpath, series.values)
    write_labels_csv(lpath, series.labels)
    frame = load_csv(vpath)
    labels = load_labels(lpath, expected_len=400)
    assert np.allclose(frame.values, series.values, atol=1e-9)
    assert np.array_equal(labels, series.labels)
