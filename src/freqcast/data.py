"""Dataset ingestion, chronological splits, windowing, and the synthetic
anomaly generator.

Windows are strided views of one channel-major copy of the series rows
(`ArrayWindows.cut`); a `batch` slice is a view too, and an index array
copies the windows it returns once, inputs and targets alike.

Splits follow the long-horizon benchmark protocol: the hourly ETT files use
fixed 8640/2880/2880 row splits, the 15-minute ETT files 34560/11520/11520,
and everything else 70/10/20. Validation/test ranges are extended backward
by input_len - 1 rows so their first look-back windows exist; statistics for
standardization always come from the train rows only.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidLengthError,
    InvalidValueError,
    ParseError,
    ShapeError,
)
from .model import Supervision


@dataclass
class SeriesFrame:
    """T x C multivariate series with channel names."""

    values: np.ndarray
    channel_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise ShapeError(f"values must be a nonempty T x C matrix, got {self.values.shape}")
        if len(self.channel_names) != self.values.shape[1]:
            raise ShapeError(
                f"{len(self.channel_names)} channel names for {self.values.shape[1]} channels"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidValueError("series contains non-finite values")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


class SplitRule(Enum):
    ETT_HOURLY = "ett_hourly"    # 8640 / 2880 / 2880 rows
    ETT_MINUTE = "ett_minute"    # 34560 / 11520 / 11520 rows
    RATIO_70_10_20 = "ratio"


@dataclass(frozen=True)
class DatasetProfile:
    """Base periodicity (timesteps per dominant cycle) and split convention."""

    name: str
    period: int
    split_rule: SplitRule

    def __post_init__(self):
        if self.period < 1:
            raise InvalidArgumentError(f"period must be >= 1, got {self.period}")


PROFILES = {
    "etth1": DatasetProfile("etth1", 24, SplitRule.ETT_HOURLY),
    "etth2": DatasetProfile("etth2", 24, SplitRule.ETT_HOURLY),
    "ettm1": DatasetProfile("ettm1", 96, SplitRule.ETT_MINUTE),
    "ettm2": DatasetProfile("ettm2", 96, SplitRule.ETT_MINUTE),
    "electricity": DatasetProfile("electricity", 24, SplitRule.RATIO_70_10_20),
    "traffic": DatasetProfile("traffic", 24, SplitRule.RATIO_70_10_20),
    "weather": DatasetProfile("weather", 144, SplitRule.RATIO_70_10_20),
}


@dataclass
class LabeledSeries:
    """Series plus one boolean anomaly label per timestep."""

    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=bool)
        if self.labels.shape != (self.values.shape[0],):
            raise ShapeError(
                f"{self.labels.shape[0]} labels for {self.values.shape[0]} timesteps"
            )


def _plain_values(path, width: int, skip: int):
    """The data rows of a `width`-cell CSV parsed by NumPy, without the first `skip`
    columns; None unless they are exactly the values of `load_csv`'s cell loop.

    NumPy takes quotes as text, skips blank lines, ignores cells past the
    used columns and rejects some text `float` accepts, such as "1_0". So the
    result is kept only for a file with no quote whose every line, counted
    by its line feeds, gave one row of `width` cells, all finite; NumPy
    raises for a row with fewer.
    """
    lines = commas = quotes = 0
    last = b"\n"
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            lines += chunk.count(b"\n")
            commas += chunk.count(b",")
            quotes += chunk.count(b'"')
            last = chunk[-1:]
    lines += last != b"\n"  # an unterminated last line
    if quotes or lines < 2:
        return None
    try:
        with warnings.catch_warnings():
            # data rows all blank: NumPy warns "input contained no data", the row count refuses
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(skip, width),
                                comments=None, ndmin=2, encoding="utf-8")
    except (ValueError, UnicodeDecodeError):
        return None
    if len(values) != lines - 1 or commas != lines * (width - 1) or not np.isfinite(values).all():
        return None
    return values


def load_csv(path, has_timestamp_column: bool = False) -> SeriesFrame:
    """Load a comma-separated numeric series with a header row.

    A flagged first column (the timestamps) is skipped. Every other cell must
    parse with `float` and be finite: the first cell that fails, row by row
    and left to right, raises ParseError naming its row and column (1-based,
    counting the header as row 1). A file that is not UTF-8, or that the CSV
    reader refuses (a cell longer than its field limit), raises ParseError;
    a leading UTF-8 BOM is dropped, and one anywhere else is a cell's text.
    A plain file is parsed by NumPy in one pass (`_plain_values`); any other
    goes through the cell loop, which names the failing cell.
    """
    skip = int(has_timestamp_column)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: file is empty")
            if has_timestamp_column and len(header) < 2:
                raise ParseError(f"{path}: need at least one value column beside the timestamp")
            values = _plain_values(path, len(header), skip)
            if values is None:
                values = np.array(_parsed_cells(path, reader, header, skip), dtype=np.float64)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # such as a cell longer than the reader's field limit
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not len(values):
        raise ParseError(f"{path}: no data rows")
    return SeriesFrame(values, header[skip:])


def _parsed_cells(path, reader, header, skip: int) -> list[list[float]]:
    """The rows after the header, each cell checked by `float` and `math.isfinite`."""
    data: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
            )
        parsed = []
        for column, cell in enumerate(row[skip:], start=1 + skip):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"{path}: row {lineno}, column {column}: "
                                 f"could not parse {cell!r} as a number") from None
            if not math.isfinite(value):
                raise ParseError(f"{path}: row {lineno}, column {column}: "
                                 f"non-finite value {cell!r}")
            parsed.append(value)
        data.append(parsed)
    return data


def load_labels(path, expected_len: int | None = None) -> np.ndarray:
    """One 0/1 integer per line -> boolean vector.

    Blank lines are skipped and each line is stripped; the first line that is
    then neither 0 nor 1 raises ParseError naming it (1-based), and so does a
    file that is not UTF-8. A leading UTF-8 BOM is dropped. A file of nothing
    but "0\\n"/"1\\n" lines is parsed in one pass (`_plain_labels`); any other,
    a BOM file included, goes through the line loop.
    """
    with open(path, "rb") as fh:
        labels = _plain_labels(fh.read())
    if labels is None:
        labels = np.array(_parsed_labels(path), dtype=bool)
    if expected_len is not None and labels.shape[0] != expected_len:
        raise ShapeError(f"{path}: {labels.shape[0]} labels for {expected_len} timesteps")
    return labels


def _plain_labels(data: bytes):
    """The labels of bytes that are only "0\\n"/"1\\n" lines, the last newline
    optional; None for any other bytes, the empty file included."""
    if not data.endswith(b"\n"):
        data += b"\n"
    if len(data) % 2:
        return None
    digits, ends = np.frombuffer(data, dtype=np.uint8).reshape(-1, 2).T
    if not ((ends == ord("\n")).all() and ((digits == ord("0")) | (digits == ord("1"))).all()):
        return None
    return digits == ord("1")


def _parsed_labels(path) -> list[bool]:
    """The labels of the non-blank lines, each stripped line checked to be 0 or 1."""
    labels = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                if text not in ("0", "1"):
                    raise ParseError(f"{path}: line {lineno}: expected 0 or 1, got {text!r}")
                labels.append(text == "1")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return labels


def split_label_column(frame: SeriesFrame, column: str = "label") -> tuple[SeriesFrame, np.ndarray]:
    """Peel a 0/1 label column off a loaded frame."""
    if column not in frame.channel_names:
        raise InvalidArgumentError(f"frame has no {column!r} column")
    idx = frame.channel_names.index(column)
    labels = frame.values[:, idx]
    if not np.all((labels == 0) | (labels == 1)):
        raise InvalidValueError(f"column {column!r} contains values other than 0/1")
    names = frame.channel_names[:idx] + frame.channel_names[idx + 1 :]
    # a C-ordered copy, laid out like load_csv's, so the scores match a labels file's
    return SeriesFrame(np.delete(frame.values, idx, axis=1), names), labels.astype(bool)


def chrono_split(frame: SeriesFrame, profile: DatasetProfile):
    """Contiguous, disjoint (train, val, test) index ranges (half-open)."""
    t = frame.length
    if profile.split_rule is SplitRule.ETT_HOURLY:
        edges = (8640, 8640 + 2880, 8640 + 2 * 2880)
    elif profile.split_rule is SplitRule.ETT_MINUTE:
        edges = (34560, 34560 + 11520, 34560 + 2 * 11520)
    else:
        n_train = int(0.7 * t)
        n_val = int(0.1 * t)
        edges = (n_train, n_train + n_val, t)
    if t < edges[2]:
        raise InvalidLengthError(
            f"{profile.name} split needs {edges[2]} rows, series has {t}"
        )
    return (0, edges[0]), (edges[0], edges[1]), (edges[1], edges[2])


@dataclass(frozen=True)
class ChannelStats:
    mean: np.ndarray
    std: np.ndarray


def _channel_moments(rows: np.ndarray):
    """(mean, std) of each column of a block of finite rows, with NumPy's arithmetic.

    The moments are taken on each column times 2^-e, where 2^e bounds its
    largest magnitude (`np.frexp`), so values near either end of the float
    range neither overflow nor underflow when squared. Scaling by a power of
    two is exact: where the scaled values and squares stay normal, the
    results are bit for bit `rows.mean(axis=0)` and `rows.std(axis=0)`.
    The scaled copy is centred and squared in place, and freed on return.
    """
    exponent = np.frexp(np.maximum(rows.max(axis=0), -rows.min(axis=0)))[1]
    scaled = np.ldexp(rows, -exponent)
    # np.mean, then np.std's centre, square, sum and divide by the count
    mean = scaled.sum(axis=0) / len(rows)
    scaled -= mean
    np.multiply(scaled, scaled, out=scaled)
    var = scaled.sum(axis=0) / len(rows)
    return np.ldexp(mean, exponent), np.ldexp(np.sqrt(var), exponent)


# a train std at most this share of the largest magnitude is the mean's rounding,
# about 100 times the most a constant channel's mean rounds
CONSTANT_STD = 2.0**-40


def standardize(frame: SeriesFrame, train_range: tuple[int, int]):
    """Standardize every row with per-channel statistics of the train rows only.

    The statistics are `_channel_moments` of the train rows, so a series of
    values near 1e300 or 1e-300 gets its true mean and std. A constant
    channel, whose std is at most CONSTANT_STD of its largest train magnitude,
    is divided by that magnitude (by 1 if it is 0), so its train rows map to
    zeros up to its mean's rounding.
    """
    start, end = train_range
    if end <= start:
        raise InvalidArgumentError(f"empty train range {train_range}")
    train = frame.values[start:end]
    mean, std = _channel_moments(train)
    peak = np.abs(train).max(axis=0)
    std = np.where(std > CONSTANT_STD * peak, std, np.where(peak > 0, peak, 1.0))
    out = SeriesFrame((frame.values - mean) / std, list(frame.channel_names))
    return out, ChannelStats(mean, std)


class ArrayWindows:
    """(input, target) window pairs, shaped (n, rows, C) each.

    Windows are held channel-major, (n, C, rows), so a batch's per-channel
    rows are contiguous, as the model reads them. Pairs cut from a series
    (`cut`) are strided views of one channel-major copy of its rows, so memory
    grows with series length, not with series length times window, and each
    window's inputs and targets are row slices of that one window.
    """

    def __init__(self, inputs: np.ndarray, targets: np.ndarray):
        inputs = np.asarray(inputs, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if inputs.ndim != 3 or targets.ndim != 3 or inputs.shape[0] != targets.shape[0]:
            raise ShapeError("inputs and targets must be (n, rows, C) with matching n")
        self._input_windows = inputs.transpose(0, 2, 1)
        self._windows = targets.transpose(0, 2, 1)
        self._input_rows = self._target_rows = slice(None)

    @classmethod
    def cut(cls, rows: np.ndarray, length: int, input_rows: slice,
            target_rows: slice) -> "ArrayWindows":
        """Every stride-1 `length`-row window of a T x C block, paired as the
        `input_rows` and `target_rows` slices of each window."""
        return cls.__new__(cls)._cut(rows, length, input_rows, target_rows)

    def _cut(self, rows, length: int, input_rows: slice, target_rows: slice):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ShapeError(f"rows must be 2-D, got shape {rows.shape}")
        if not 1 <= length <= rows.shape[0]:
            raise InvalidLengthError(f"cannot cut {length}-row windows from {rows.shape[0]} rows")
        # read-only (n, C, length) windows of one channel-major (C, T) copy of
        # the rows (no copy when they already are one)
        self._windows = self._input_windows = np.lib.stride_tricks.sliding_window_view(
            np.ascontiguousarray(rows.T), length, axis=1).transpose(1, 0, 2)
        self._input_rows, self._target_rows = input_rows, target_rows
        return self

    @property
    def inputs(self) -> np.ndarray:
        return self._input_windows[:, :, self._input_rows].transpose(0, 2, 1)

    @property
    def targets(self) -> np.ndarray:
        return self._windows[:, :, self._target_rows].transpose(0, 2, 1)

    def __len__(self) -> int:
        return self._windows.shape[0]

    def batch(self, index):
        """(inputs, targets) at `index` under NumPy indexing, each (..., rows, C).

        The windows are indexed once, and inputs and targets are views of
        that one result when both come from the same window. A slice returns
        views of the stored windows, an index array one channel-major copy of
        just those windows.
        """
        windows = self._windows[index]
        inputs = windows if self._input_windows is self._windows else self._input_windows[index]
        return (np.swapaxes(inputs[..., self._input_rows], -1, -2),
                np.swapaxes(windows[..., self._target_rows], -1, -2))


class WindowSet(ArrayWindows):
    """Stride-1 sliding forecast windows over a block of rows.

    Each window covers input_len + horizon rows; its inputs are the first
    input_len, its targets the rows from `supervision.target_start(input_len)`
    on: the horizon rows for forecast-only supervision, the whole window
    otherwise. Both are read-only views of one channel-major copy of the rows.
    """

    def __init__(self, rows: np.ndarray, input_len: int, horizon: int,
                 supervision: Supervision):
        self._cut(rows, input_len + horizon, slice(input_len),
                  slice(supervision.target_start(input_len), None))


def window_ranges(frame: SeriesFrame, profile: DatasetProfile, input_len: int,
                  horizon: int) -> tuple[tuple[int, int], ...]:
    """The `chrono_split` ranges, val and test reaching back input_len - 1 rows; the
    first too short for one input_len + horizon row window raises InvalidLengthError."""
    span = input_len + horizon
    ranges = tuple((max(start - (input_len - 1), 0), end)
                   for start, end in chrono_split(frame, profile))
    for name, (start, end) in zip(("train", "val", "test"), ranges):
        if end - start < span:
            raise InvalidLengthError(f"look-back {input_len}: the {name} split has "
                                     f"{end - start} rows, fewer than one {span}-row window")
    return ranges


def split_windows(frame: SeriesFrame, profile: DatasetProfile, input_len: int,
                  horizon: int, supervision: Supervision):
    """(train, val, test) WindowSets over the `window_ranges` rows."""
    return tuple(WindowSet(frame.values[start:end], input_len, horizon, supervision)
                 for start, end in window_ranges(frame, profile, input_len, horizon))


# --- synthetic anomaly benchmark -------------------------------------------

SYNTH_PERIOD = 50
SYNTH_NOISE = 0.05
_SEGMENT_LEN = 30
_SIGNAL_STD = 1.0 / math.sqrt(2.0)  # std of a unit-amplitude sinusoid


def synth_anomaly(length: int = 4000, channels: int = 1, rate: float = 0.05,
                  seed: int = 0) -> tuple[LabeledSeries, int]:
    """Sinusoid-plus-noise series with five outlier types injected in rotation.

    Returns the labeled series and the train/test boundary (2500 for the
    default 4000 steps). The train rows are kept injection-free; per channel,
    roughly `rate` of the test timesteps receive anomalies, rotating through
    global point spikes, contextual points, doubled-frequency segments,
    linear-trend segments, and square-wave shapelet segments. Labels mark
    every injected timestep on any channel.
    """
    if length < 100:
        raise InvalidLengthError(f"need at least 100 timesteps, got {length}")
    if channels < 1:
        raise InvalidArgumentError(f"channels must be >= 1, got {channels}")
    if length * channels > np.iinfo(np.intp).max // 8:  # NumPy refuses such a shape
        raise InvalidArgumentError(f"{length} x {channels} values exceed the largest array")
    if not 0.0 <= rate <= 1.0:  # false for nan too
        raise InvalidArgumentError(f"rate must lie in [0, 1], got {rate}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    split = int(length * 2500 / 4000)
    t = np.arange(length)
    phases = rng.uniform(0.0, 2.0 * np.pi, channels)
    base = np.sin(2.0 * np.pi * t[:, None] / SYNTH_PERIOD + phases[None, :])
    values = base + rng.normal(0.0, SYNTH_NOISE, (length, channels))
    labels = np.zeros(length, dtype=bool)

    if rate > 0:
        test_len = length - split
        target_steps = int(rate * test_len)
        for c in range(channels):
            taken = np.zeros(length, dtype=bool)
            injected = 0
            kind = 0
            while injected < target_steps:
                name = ("spike", "contextual", "seasonal", "trend", "shapelet")[kind % 5]
                kind += 1
                seg = 1 if name in ("spike", "contextual") else _SEGMENT_LEN
                start = _free_slot(rng, taken, split, length, seg)
                if start is None:
                    break
                stop = start + seg
                window_t = t[start:stop]
                if name == "spike":
                    values[start, c] += rng.choice((-1.0, 1.0)) * 5.0 * _SIGNAL_STD
                elif name == "contextual":
                    local = base[start, c]
                    push = -np.sign(local) if local != 0 else rng.choice((-1.0, 1.0))
                    values[start, c] = float(np.clip(local + push * 3.0 * _SIGNAL_STD, -1.0, 1.0))
                elif name == "seasonal":
                    values[start:stop, c] = np.sin(
                        2.0 * np.pi * 2.0 * window_t / SYNTH_PERIOD + phases[c]
                    ) + rng.normal(0.0, SYNTH_NOISE, seg)
                elif name == "trend":
                    values[start:stop, c] += np.linspace(0.0, 2.0, seg)
                else:  # shapelet
                    values[start:stop, c] = np.sign(
                        np.sin(2.0 * np.pi * window_t / SYNTH_PERIOD + phases[c])
                    ) + rng.normal(0.0, SYNTH_NOISE, seg)
                taken[start:stop] = True
                labels[start:stop] = True
                injected += seg
    return LabeledSeries(values, labels), split


def _free_slot(rng, taken: np.ndarray, lo: int, hi: int, seg: int):
    for _ in range(1000):
        start = int(rng.integers(lo, hi - seg + 1))
        if not taken[start : start + seg].any():
            return start
    return None


# rows formatted by one `%` are capped at this many cells, so a writer's
# temporary memory is one block's, whatever the file's size
_BLOCK_CELLS = 1 << 10


def _write_rows(fh, row_fmt: str, rows: np.ndarray) -> None:
    """Write `row_fmt % tuple(row)` for each row of a 2-D array, one `%` per
    block of rows."""
    step = max(1, _BLOCK_CELLS // max(rows.shape[1], 1))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_series_csv(path, values: np.ndarray, channel_names=None) -> None:
    """A T x C series as CSV: a header of the channel names (c0, c1, ... by
    default), then one row of `%.10g` cells per timestep, with "\\r\\n" line
    ends, the bytes `csv.writer` writes for them. A series `load_csv` would
    refuse (`SeriesFrame`'s rules) raises before the file is opened."""
    if channel_names is None:
        channel_names = [f"c{i}" for i in range(np.shape(values)[-1] if np.ndim(values) else 0)]
    frame = SeriesFrame(values, channel_names)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(frame.channel_names)
        _write_rows(fh, ",".join(["%.10g"] * frame.channels) + "\r\n", frame.values)


def write_labels_csv(path, labels: np.ndarray) -> None:
    """One 0 or 1 per line, each ended by "\\n"."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be a vector, got shape {labels.shape}")
    if not ((labels == 0) | (labels == 1)).all():
        raise InvalidValueError("labels contain values other than 0/1")
    with open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, "%d\n", labels.astype(np.uint8)[:, None])
