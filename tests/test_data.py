"""Ingestion, split, standardization, windowing, and synthetic-generator
checks."""

import csv
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcast import data as data_module
from freqcast.anomaly import reconstruction_windows
from freqcast.data import (
    ArrayWindows,
    DatasetProfile,
    LabeledSeries,
    PROFILES,
    SeriesFrame,
    SplitRule,
    WindowSet,
    chrono_split,
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
    InvalidValueError,
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


def test_load_csv_with_timestamp_column(tmp_path):
    path = tmp_path / "ts.csv"
    path.write_text("date,x,y\n2020-01-01,1,2\n2020-01-02,3,4\n")
    frame = load_csv(path, has_timestamp_column=True)
    assert frame.channel_names == ["x", "y"]
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

    stamps_only = tmp_path / "stamps.csv"
    stamps_only.write_text("date\n2020-01-01\n")
    with pytest.raises(ParseError, match="need at least one value column beside the timestamp"):
        load_csv(stamps_only, has_timestamp_column=True)


@pytest.mark.parametrize("row, column, message", [
    ("inf,oops", 1, "non-finite value 'inf'"),
    ("oops,inf", 1, "could not parse 'oops' as a number"),
    ("1,oops", 2, "could not parse 'oops' as a number"),
    ("1,-inf", 2, "non-finite value '-inf'"),
])
def test_load_csv_names_the_leftmost_bad_cell(tmp_path, row, column, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"a,b\n1,2\n{row}\n")
    with pytest.raises(ParseError, match=f"row 3, column {column}: {message}"):
        load_csv(path)
    stamped = tmp_path / "stamped.csv"
    stamped.write_text(f"t,a,b\n0,1,2\n1,{row}\n")
    with pytest.raises(ParseError, match=f"row 3, column {column + 1}: {message}"):
        load_csv(stamped, has_timestamp_column=True)


def _load_outcome(path, stamped):
    """load_csv's values as nested lists, or its ParseError's text."""
    try:
        return load_csv(path, has_timestamp_column=stamped).values.tolist()
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("text, stamped, outcome", [
    ("a,b\n1,2\n\n3,4\n", False, "row 3 has 0 cells, expected 2"),  # NumPy skips it
    ("a\n1\n\n2\n", False, "row 3 has 0 cells, expected 1"),
    ("t,a\n0,1\n1,2,3\n", True, "row 3 has 3 cells, expected 2"),  # NumPy ignores it
    ("a,b\n1,2\n3\n", False, "row 3 has 1 cells, expected 2"),
    ("a\n1_0\n", False, [[10.0]]),  # float reads it, NumPy does not
    ("a\n#1\n", False, "row 2, column 1: could not parse '#1' as a number"),
    ('a,b\n1,"2"\n', False, [[1.0, 2.0]]),
    ('t,a\n"2020-01-01, 00:00",5\n', True, [[5.0]]),
    ("a,b\n1,\n", False, "row 2, column 2: could not parse '' as a number"),
    ("a\n1\nnan\n", False, "row 3, column 1: non-finite value 'nan'"),
    ("a,b\n1,inf\n", False, "row 2, column 2: non-finite value 'inf'"),
    ("a,b\r\n1,2\r\n3,4", False, [[1.0, 2.0], [3.0, 4.0]]),  # CRLF, no final line end
    ("t,a\n0,1\n1,2\n", True, [[1.0], [2.0]]),
    ("a,b\n", False, "no data rows"),
])
def test_load_csv_parses_as_its_cell_loop(tmp_path, monkeypatch, text, stamped, outcome):
    # NumPy's one-pass parse is kept only where it is exactly the cell loop's result
    path = tmp_path / "cells.csv"
    path.write_bytes(text.encode())
    got = _load_outcome(path, stamped)
    monkeypatch.setattr(data_module, "_plain_values", lambda *args: None)
    assert _load_outcome(path, stamped) == got
    if isinstance(outcome, str):
        assert isinstance(got, str) and outcome in got, got
    else:
        assert got == outcome


@pytest.mark.parametrize("text", [b"a\r\n\r\n\r\n", b"a,b\n\n"])
def test_load_csv_of_blank_rows_refuses_without_a_warning(tmp_path, text):
    path = tmp_path / "blank.csv"
    path.write_bytes(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="row 2 has 0 cells"):
            load_csv(path)


def test_load_csv_refuses_non_utf8_text(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"a,b\n1,2\n3,\xe9\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_csv(path)


def test_plain_csv_takes_the_one_pass_parse(tmp_path):
    values = np.random.default_rng(2).normal(size=(50, 3))
    path = tmp_path / "plain.csv"
    write_series_csv(path, values)
    plain = data_module._plain_values(path, 3, 0)
    assert plain is not None and np.array_equal(plain, load_csv(path).values)
    assert np.array_equal(plain, np.array([[float(f"{v:.10g}") for v in row] for row in values]))


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


def _labels_outcome(path, expected_len=None):
    """load_labels' labels as a list, or its error's type and text."""
    try:
        return load_labels(path, expected_len).tolist()
    except (ParseError, ShapeError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("data, expected_len, plain", [
    (b"0\n1\n0\n1\n", 4, True),
    (b"1\n0\n1", None, True),  # no final newline
    (b"1", 1, True),
    (b"0\n1\n", 3, True),  # ShapeError
    (b"", None, False),
    (b"", 2, False),
    (b"\n", None, False),
    (b"0\n\n1\n", None, False),  # a blank line
    (b"0\n1\n\n", None, False),
    (b"0\r\n1\r\n", 2, False),  # CRLF
    (b"0\r\n1", None, False),
    (b"0\r1\r", None, False),  # lone CR ends a line in text mode
    (b" 0\n1 \n", None, False),  # spaces
    (b"0\n\t1\n", None, False),
    (b"0\n2\n", None, False),
    (b"01\n", None, False),
    (b"0\n1\n10", None, False),
    (b"\xef\xbb\xbf0\n1\n", None, False),  # UTF-8 BOM
    (b"0\n\xff\n", None, False),  # not UTF-8
    (b"0\n\xff", None, False),
    (b"0\n1\n1\n", 2, True),
])
def test_load_labels_parses_as_its_line_loop(tmp_path, monkeypatch, data, expected_len, plain):
    # the one-pass parse takes only "0\n"/"1\n" lines, and gives the line loop's result
    assert (data_module._plain_labels(data) is not None) == plain
    path = tmp_path / "labels.csv"
    path.write_bytes(data)
    got = _labels_outcome(path, expected_len)
    monkeypatch.setattr(data_module, "_plain_labels", lambda data: None)
    assert _labels_outcome(path, expected_len) == got


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([b"0\n", b"1\n", b"0", b"1", b"\n", b"\r\n", b"\r", b" ",
                                 b"2\n", b"\xef\xbb\xbf", b"\xff"]), max_size=12))
def test_load_labels_one_pass_agrees_with_line_loop(pieces):
    data = b"".join(pieces)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.csv"
        path.write_bytes(data)
        got = _labels_outcome(path)
        try:
            want = data_module._parsed_labels(path)
        except ParseError as exc:
            want = f"ParseError: {exc}"
    assert got == want


def _series_csv_by_rows(path, values, channel_names=None):
    """write_series_csv's former row loop, the byte oracle."""
    values = np.asarray(values)
    if channel_names is None:
        channel_names = [f"c{i}" for i in range(values.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(channel_names)
        for row in values:
            writer.writerow([f"{v:.10g}" for v in row])


def _labels_csv_by_rows(path, labels):
    """write_labels_csv's former row loop, the byte oracle."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in np.asarray(labels, dtype=int):
            fh.write(f"{v}\n")


def _series_values(rows, channels, seed):
    """Normal draws at magnitudes 1e-300..1e300, led by signed zeros and extremes."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, channels)) * 10.0 ** rng.integers(-300, 301, (rows, channels))
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e-300, 1.7976931348623157e308, 1.0, 0.1]
    values.flat[:len(special)] = special[:values.size]
    return values


@pytest.mark.parametrize("channels", [1, 7])
@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_write_series_csv_matches_its_row_loop(tmp_path, channels, offset):
    # rows at one block, one more and one fewer, and a single row
    rows = 1 if offset is None else data_module._BLOCK_CELLS // channels + offset
    values = _series_values(rows, channels, seed=rows + channels)
    write_series_csv(tmp_path / "got.csv", values)
    _series_csv_by_rows(tmp_path / "want.csv", values)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("values, names", [
    (np.arange(-3000, 3000, 7).reshape(-1, 2) ** 5, None),  # integers, some above 1e10
    (np.random.default_rng(4).normal(size=(300, 3)).astype(np.float32), None),
    (np.random.default_rng(5).normal(size=(3, 3)), ["a,b", 'c"d', ""]),  # quoted names
    (np.random.default_rng(6).normal(size=(2, 1)), [""]),
    (np.array([[-0.0, 5e-324, 1e300], [True, False, -1e-5]]), None),
    (np.array([[True, False]]), None),
    (np.random.default_rng(8).normal(size=(1, 2 * data_module._BLOCK_CELLS + 1)), None),
    (np.random.default_rng(7).normal(size=(2 * data_module._BLOCK_CELLS + 1, 1)), None),
])
def test_write_series_csv_matches_its_row_loop_on_any_input(tmp_path, values, names):
    write_series_csv(tmp_path / "got.csv", values, names)
    _series_csv_by_rows(tmp_path / "want.csv", values, names)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("channels", [1, 7, 2 * data_module._BLOCK_CELLS])
def test_write_rows_formats_at_most_one_block_per_write(channels):
    # the writers' temporary memory is one block's, whatever the file's size
    class Writes(list):
        write = list.append

    block = max(1, data_module._BLOCK_CELLS // channels)
    rows = np.arange((3 * block + 1) * channels, dtype=float).reshape(-1, channels)
    writes = Writes()
    data_module._write_rows(writes, ",".join(["%g"] * channels) + "\n", rows)
    assert [text.count("\n") for text in writes] == [block] * 3 + [1]
    assert "".join(writes).splitlines()[-1] == ",".join(f"{v:g}" for v in rows[-1])


@pytest.mark.parametrize("values, error", [
    (np.array([[1.0, np.nan]]), InvalidValueError),
    (np.array([[np.inf], [1.0]]), InvalidValueError),
    (np.array([[0.5, 2.0], [3.0, -np.inf]]), InvalidValueError),
    (np.zeros((0, 1)), ShapeError),
    (np.zeros((0, 3)), ShapeError),
    (np.zeros((3, 0)), ShapeError),
], ids=["nan", "inf", "-inf", "no-rows", "no-rows-3-channels", "no-channels"])
def test_write_series_csv_refuses_what_load_csv_refuses(tmp_path, values, error):
    # the row loop writes these files, and load_csv refuses each of them
    _series_csv_by_rows(tmp_path / "loop.csv", values)
    with pytest.raises((ParseError, ShapeError)):
        load_csv(tmp_path / "loop.csv", has_timestamp_column=False)
    with pytest.raises(error):
        write_series_csv(tmp_path / "s.csv", values)
    assert not (tmp_path / "s.csv").exists()


def test_write_series_csv_refuses_a_wrong_shape(tmp_path):
    path = tmp_path / "s.csv"
    for values in (np.zeros(3), np.zeros((2, 2, 2)), np.float64(1.0)):
        with pytest.raises(ShapeError, match="T x C matrix"):
            write_series_csv(path, values)
    with pytest.raises(ShapeError, match="2 channel names for 1 channels"):
        write_series_csv(path, np.zeros((4, 1)), ["a", "b"])
    assert not path.exists()


@pytest.mark.parametrize("rows", [0, 1, data_module._BLOCK_CELLS - 1, data_module._BLOCK_CELLS,
                                  data_module._BLOCK_CELLS + 1, 24000])
def test_write_labels_csv_matches_its_row_loop(tmp_path, rows):
    flags = np.random.default_rng(rows).random(rows) < 0.3
    for labels in (flags, flags.astype(int), flags.astype(float), flags.tolist()):
        write_labels_csv(tmp_path / "got.csv", labels)
        _labels_csv_by_rows(tmp_path / "want.csv", labels)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert np.array_equal(load_labels(tmp_path / "got.csv", rows), flags)


def test_write_labels_csv_refuses_other_values(tmp_path):
    path = tmp_path / "labels.csv"
    for labels in ([True, False, 2], [0, -1], [0.5], [1.0, np.nan]):
        with pytest.raises(InvalidValueError, match="other than 0/1"):
            write_labels_csv(path, labels)
    for labels in ([[0, 1]], np.int64(1)):
        with pytest.raises(ShapeError):
            write_labels_csv(path, labels)
    assert not path.exists()


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
    assert np.allclose(out.values * stats.std + stats.mean, values, atol=1e-9)
    out2, stats2 = standardize(frame, (0, 90))
    assert not np.allclose(stats.mean, stats2.mean)


@pytest.mark.parametrize("train_range", [(5, 5), (7, 3)])
def test_standardize_refuses_an_empty_train_range(train_range):
    frame = SeriesFrame(np.arange(20.0).reshape(10, 2), ["a", "b"])
    with pytest.raises(InvalidArgumentError, match="empty train range"):
        standardize(frame, train_range)


def test_standardize_gives_a_tiny_scale_series_unit_std():
    # about 1e-300 per value: an absolute std floor would take it as constant
    values = np.ldexp(np.random.default_rng(1).normal(size=(400, 1)), -997)
    out, _ = standardize(SeriesFrame(values, ["a"]), (0, 300))
    assert abs(out.values[:300].std() - 1.0) <= 1e-12


@pytest.mark.parametrize("level", [3.0, 0.1, 1e6])
def test_standardize_maps_a_constant_channel_to_zeros(level):
    values = np.column_stack((np.full(200, level), np.arange(200.0)))
    out, _ = standardize(SeriesFrame(values, ["flat", "ramp"]), (0, 150))
    # zeros up to the rounding of the mean: 150 copies of 0.1 do not average to 0.1
    assert np.abs(out.values[:, 0]).max() <= 1e-13


def test_standardize_keeps_a_small_spread_on_a_large_offset():
    values = 1e6 + 1e-3 * np.random.default_rng(2).normal(size=(400, 1))
    out, stats = standardize(SeriesFrame(values, ["a"]), (0, 300))
    assert abs(out.values[:300].std() - 1.0) <= 1e-6
    assert np.isclose(stats.std[0], values[:300].std(), rtol=1e-12)


# magnitudes 1e-3..1e3 stay normal, with their differences, at any scale 2^s below
_NORMAL_CELLS = st.floats(-1e3, 1e3).filter(lambda x: x == 0 or abs(x) >= 1e-3)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_NORMAL_CELLS, min_size=2, max_size=2), min_size=3, max_size=12),
       scale=st.integers(-900, 900))
def test_standardize_ignores_a_power_of_two_scale(rows, scale):
    values = np.array(rows)
    train = (0, len(values) - 1)
    head = values[: train[1]]
    out, stats = standardize(SeriesFrame(values, ["a", "b"]), train)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or underflow warning either
        scaled_out, scaled = standardize(SeriesFrame(np.ldexp(values, scale), ["a", "b"]), train)
        mean, std = data_module._channel_moments(np.ldexp(head, scale))
    assert np.array_equal(stats.mean, head.mean(axis=0))
    assert np.array_equal(scaled.mean, np.ldexp(stats.mean, scale))
    assert np.array_equal(mean, scaled.mean)
    assert np.array_equal(std, np.ldexp(head.std(axis=0), scale))
    varying = head.std(axis=0) > data_module.CONSTANT_STD * np.abs(head).max(axis=0)
    assert np.array_equal(stats.std[varying], head.std(axis=0)[varying])
    # the constant-channel rule scales with the data too, except for an all-zero
    # train block, which has no scale and is divided by 1
    scaled_channels = np.abs(head).max(axis=0) > 0
    assert np.array_equal(scaled.std[scaled_channels], np.ldexp(stats.std, scale)[scaled_channels])
    assert np.array_equal(scaled_out.values[:, scaled_channels], out.values[:, scaled_channels])


def _span(a) -> int:
    """Bytes between the first and last byte an array reaches."""
    low, high = np.lib.array_utils.byte_bounds(a)
    return high - low


def test_make_windows_counts_and_contents():
    rows = np.arange(20).reshape(10, 2).astype(float)
    ws = WindowSet(rows, 4, 2, Supervision.FORECAST_ONLY)
    assert len(ws) == 5  # 10 - 4 - 2 + 1
    # inputs and targets are read-only views of one channel-major copy of the
    # rows, not T x window copies
    assert max(_span(ws.inputs), _span(ws.targets)) <= rows.nbytes
    assert not ws.inputs.flags.writeable
    x0, t0 = ws.batch(0)
    assert np.array_equal(x0, rows[0:4])
    assert np.array_equal(t0, rows[4:6])

    both = WindowSet(rows, 4, 2, Supervision.BACKCAST_AND_FORECAST)
    assert np.shares_memory(both.inputs, both.targets)
    x1, t1 = both.batch(3)
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
        x, t = ws.batch(i)
        rebuilt[i : i + 4] = x
        rebuilt[i + 4 : i + 7] = t
    assert np.array_equal(rebuilt, rows)


def test_window_batch_gather():
    rows = np.arange(40).reshape(20, 2).astype(float)
    ws = WindowSet(rows, 6, 2, Supervision.BACKCAST_AND_FORECAST)
    x, t = ws.batch([0, 5, 9])
    assert x.shape == (3, 6, 2) and t.shape == (3, 8, 2)
    # an index array gives one private copy of the windows it returns: the
    # inputs are the first rows of the targets, and each is channel-major
    assert not np.shares_memory(x, ws.targets) and np.shares_memory(x, t)
    assert _span(t) == t.nbytes and t.transpose(0, 2, 1).flags.c_contiguous
    assert x.transpose(0, 2, 1).strides[-1] == x.itemsize
    assert np.array_equal(x[1], rows[5:11]) and np.array_equal(t[1], rows[5:13])
    # a slice gives views of the stored windows
    x, t = ws.batch(slice(2, 5))
    assert np.shares_memory(x, ws.targets) and np.shares_memory(t, ws.targets)
    assert np.array_equal(t[1], rows[3:11])


def test_split_windows_supervision_regions_disjoint():
    frame = SeriesFrame(np.arange(200.0).reshape(100, 2), ["a", "b"])
    profile = DatasetProfile("toy", 24, SplitRule.RATIO_70_10_20)
    train_w, val_w, test_w = split_windows(frame, profile, 8, 4, Supervision.FORECAST_ONLY)
    # no train target row reaches past the train/val boundary at row 70
    _, last_target = train_w.batch(len(train_w) - 1)
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
    recon = 2 * factor * max(1, input_len // 2)  # a window the factor downsamples to even
    forecast_only = supervision is Supervision.FORECAST_ONLY
    # (build, window length, brute-force pair of window s, input row step)
    cases = [(
        lambda: WindowSet(series, input_len, horizon, supervision), span,
        lambda s: (series[s : s + input_len],
                   series[s + input_len * forecast_only : s + span]), 1,
    ), (
        lambda: reconstruction_windows(series, recon, factor), recon,
        lambda s: (series[s : s + recon : factor], series[s : s + recon]), factor,
    )]
    for build, length, brute, step in cases:
        if rows < length:
            with pytest.raises(InvalidLengthError):
                build()
            continue
        ws = build()
        count = rows - length + 1
        assert len(ws) == count
        for i in range(count):
            x, t = ws.batch(i)
            bx, bt = brute(i)
            assert np.array_equal(x, bx) and np.array_equal(t, bt)
        idx = data.draw(st.lists(st.integers(0, count - 1), max_size=6))
        x, t = ws.batch(idx)
        assert x.shape[0] == t.shape[0] == len(idx)
        for k, i in enumerate(idx):
            bx, bt = brute(i)
            assert np.array_equal(x[k], bx) and np.array_equal(t[k], bt)
        if idx:
            # one private channel-major (len(idx), C, length) block holds both
            parts = [a for a in (x, t) if a.size]
            bounds = [np.lib.array_utils.byte_bounds(a) for a in parts]
            block = max(hi for _, hi in bounds) - min(lo for lo, _ in bounds)
            assert block <= len(idx) * channels * length * x.itemsize
            assert not any(np.shares_memory(a, ws.targets) for a in parts)
            xt, tt = x.transpose(0, 2, 1), t.transpose(0, 2, 1)
            if x.shape[1] > 1:  # NumPy may give a length-1 axis any stride
                assert xt.strides[-1] == step * x.itemsize
            if t.shape[1] == length:  # whole-window targets: the inputs are their rows
                assert np.shares_memory(x, t) and tt.flags.c_contiguous
        # NumPy indexing: -1 is the last window, and past either end raises
        x, t = ws.batch(-1)
        bx, bt = brute(count - 1)
        assert np.array_equal(x, bx) and np.array_equal(t, bt)
        for bad in (-count - 1, count, count + 3):
            with pytest.raises(IndexError):
                ws.batch(bad)


def test_array_windows_interface():
    inputs = np.zeros((4, 8, 1))
    targets = np.ones((4, 12, 1))
    ws = ArrayWindows(inputs, targets)
    assert len(ws) == 4
    x, t = ws.batch([1, 2])
    assert x.shape == (2, 8, 1) and t.shape == (2, 12, 1)
    with pytest.raises(ShapeError):
        ArrayWindows(inputs, np.ones((3, 12, 1)))


@pytest.mark.parametrize("shape", [(12,), (2, 6, 1)])
def test_array_windows_cut_refuses_rows_that_are_not_2d(shape):
    with pytest.raises(ShapeError, match="rows must be 2-D"):
        ArrayWindows.cut(np.zeros(shape), 4, slice(0, 2), slice(None))


def test_labeled_series_needs_one_label_per_row():
    with pytest.raises(ShapeError, match="3 labels for 4 timesteps"):
        LabeledSeries(np.zeros((4, 1)), np.zeros(3, bool))


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


def test_synth_rejects_values_it_cannot_generate():
    with pytest.raises(InvalidLengthError, match="at least 100 timesteps"):
        synth_anomaly(length=99)
    for kwargs, message in [
        ({"channels": 0}, "channels must be >= 1"),
        ({"rate": -0.01}, "rate must lie in"),
        ({"rate": 1.5}, "rate must lie in"),
        ({"rate": float("nan")}, "rate must lie in"),
        ({"seed": -1}, "seed must be >= 0"),
    ]:
        with pytest.raises(InvalidArgumentError, match=message):
            synth_anomaly(length=200, **kwargs)
    series, split = synth_anomaly(length=200, rate=1.0)  # both ends of rate are valid
    assert series.labels[split:].any() and not series.labels[:split].any()


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
