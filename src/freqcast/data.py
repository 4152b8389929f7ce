"""Dataset ingestion, chronological splits, windowing, and the synthetic
anomaly generator.

Windows are strided views of the series rows (`sliding_windows`); `batch`
copies only the rows it returns.

Splits follow the long-horizon benchmark protocol: the hourly ETT files use
fixed 8640/2880/2880 row splits, the 15-minute ETT files 34560/11520/11520,
and everything else 70/10/20. Validation/test ranges are extended backward
by input_len - 1 rows so their first look-back windows exist; statistics for
standardization always come from the train rows only.
"""

from __future__ import annotations

import csv
import math
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
    """T x C multivariate series with channel names and optional timestamps."""

    values: np.ndarray
    channel_names: list[str]
    timestamps: list[str] | None = None

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


def load_csv(path, has_timestamp_column: bool = False) -> SeriesFrame:
    """Load a comma-separated numeric series with a header row.

    The first column is captured as timestamps when flagged. Parse failures
    raise ParseError naming the offending row and column (1-based, counting
    the header as row 1).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        if has_timestamp_column and len(header) < 2:
            raise ParseError(f"{path}: need at least one value column beside the timestamp")
        names = header[1:] if has_timestamp_column else header
        width = len(header)
        timestamps: list[str] | None = [] if has_timestamp_column else None
        data: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ParseError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {width}"
                )
            if has_timestamp_column:
                timestamps.append(row[0])
                row = row[1:]
            try:
                parsed = [float(cell) for cell in row]
            except ValueError:
                bad = next(i for i, cell in enumerate(row) if not _is_number(cell))
                raise ParseError(
                    f"{path}: row {lineno}, column {bad + 1 + has_timestamp_column}: "
                    f"could not parse {row[bad]!r} as a number"
                ) from None
            for i, v in enumerate(parsed):
                if not math.isfinite(v):
                    raise ParseError(
                        f"{path}: row {lineno}, column {i + 1 + has_timestamp_column}: "
                        f"non-finite value {row[i]!r}"
                    )
            data.append(parsed)
    if not data:
        raise ParseError(f"{path}: no data rows")
    return SeriesFrame(np.array(data, dtype=np.float64), list(names), timestamps)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_labels(path, expected_len: int | None = None) -> np.ndarray:
    """One 0/1 integer per line -> boolean vector."""
    labels = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text not in ("0", "1"):
                raise ParseError(f"{path}: line {lineno}: expected 0 or 1, got {text!r}")
            labels.append(text == "1")
    arr = np.array(labels, dtype=bool)
    if expected_len is not None and arr.shape[0] != expected_len:
        raise ShapeError(f"{path}: {arr.shape[0]} labels for {expected_len} timesteps")
    return arr


def split_label_column(frame: SeriesFrame, column: str = "label") -> tuple[SeriesFrame, np.ndarray]:
    """Peel a 0/1 label column off a loaded frame."""
    if column not in frame.channel_names:
        raise InvalidArgumentError(f"frame has no {column!r} column")
    idx = frame.channel_names.index(column)
    labels = frame.values[:, idx]
    if not np.all((labels == 0) | (labels == 1)):
        raise InvalidValueError(f"column {column!r} contains values other than 0/1")
    keep = [i for i in range(frame.channels) if i != idx]
    names = [frame.channel_names[i] for i in keep]
    return SeriesFrame(frame.values[:, keep], names, frame.timestamps), labels.astype(bool)


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


def lookback_extended(split_range: tuple[int, int], input_len: int) -> tuple[int, int]:
    """Extend a val/test range backward by input_len - 1 rows (border convention)."""
    start, end = split_range
    return max(start - (input_len - 1), 0), end


@dataclass(frozen=True)
class ChannelStats:
    mean: np.ndarray
    std: np.ndarray


def standardize(frame: SeriesFrame, train_range: tuple[int, int]):
    """Standardize every row with per-channel statistics of the train rows only."""
    start, end = train_range
    if end <= start:
        raise InvalidArgumentError(f"empty train range {train_range}")
    train = frame.values[start:end]
    mean = train.mean(axis=0)
    std = np.maximum(train.std(axis=0), 1e-8)
    out = SeriesFrame((frame.values - mean) / std, list(frame.channel_names), frame.timestamps)
    return out, ChannelStats(mean, std)


def destandardize(values: np.ndarray, stats: ChannelStats) -> np.ndarray:
    return values * stats.std + stats.mean


def sliding_windows(rows: np.ndarray, length: int) -> np.ndarray:
    """Every stride-1 `length`-row window of a T x C block as a read-only
    (T - length + 1, length, C) view; no value is copied."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeError(f"rows must be 2-D, got shape {rows.shape}")
    if not 1 <= length <= rows.shape[0]:
        raise InvalidLengthError(f"cannot cut {length}-row windows from {rows.shape[0]} rows")
    return np.lib.stride_tricks.sliding_window_view(rows, length, axis=0).transpose(0, 2, 1)


class ArrayWindows:
    """(input, target) window pairs, shaped (n, rows, C) each.

    Windows cut from a series are strided views of it (see `sliding_windows`);
    `batch` copies only the rows it returns, so memory grows with series
    length, not with series length times window.
    """

    def __init__(self, inputs: np.ndarray, targets: np.ndarray):
        self.inputs = np.asarray(inputs, dtype=np.float64)
        self.targets = np.asarray(targets, dtype=np.float64)
        if self.inputs.ndim != 3 or self.targets.ndim != 3 \
                or self.inputs.shape[0] != self.targets.shape[0]:
            raise ShapeError("inputs and targets must be (n, rows, C) with matching n")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def batch(self, indices):
        idx = np.asarray(indices, dtype=np.intp)
        return self.inputs[idx], self.targets[idx]

    def __getitem__(self, i: int):
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self.inputs[i], self.targets[i]


class WindowSet(ArrayWindows):
    """Stride-1 sliding forecast windows over a block of rows.

    Targets cover the horizon rows for forecast-only supervision and the full
    input+horizon segment otherwise. Inputs and targets are read-only views
    of the rows.
    """

    def __init__(self, rows: np.ndarray, input_len: int, horizon: int,
                 supervision: Supervision):
        view = sliding_windows(rows, input_len + horizon)
        targets = view[:, input_len:] if supervision is Supervision.FORECAST_ONLY else view
        super().__init__(view[:, :input_len], targets)


def split_windows(frame: SeriesFrame, profile: DatasetProfile, input_len: int,
                  horizon: int, supervision: Supervision):
    """(train, val, test) WindowSets with the border extension applied."""
    train_r, val_r, test_r = chrono_split(frame, profile)
    train = WindowSet(frame.values[train_r[0]:train_r[1]], input_len, horizon, supervision)
    val_e = lookback_extended(val_r, input_len)
    test_e = lookback_extended(test_r, input_len)
    val = WindowSet(frame.values[val_e[0]:val_e[1]], input_len, horizon, supervision)
    test = WindowSet(frame.values[test_e[0]:test_e[1]], input_len, horizon, supervision)
    return train, val, test


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


def write_series_csv(path, values: np.ndarray, channel_names=None) -> None:
    values = np.asarray(values)
    if channel_names is None:
        channel_names = [f"c{i}" for i in range(values.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(channel_names)
        for row in values:
            writer.writerow([f"{v:.10g}" for v in row])


def write_labels_csv(path, labels: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in np.asarray(labels, dtype=int):
            fh.write(f"{v}\n")
