"""Independent oracles for the outputs the benchmark checks.

Nothing here calls freqcast: the checkpoint is parsed from its documented
byte layout, forecasts are recomputed with plain NumPy in a channel-last
layout, and point-adjusted F1 uses a loop over labeled runs. An optimization
that changes what the program computes therefore fails the benchmark instead
of agreeing with itself.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

RIN_EPS = 1e-5
CHECK_BATCH = 64


class CheckFailed(Exception):
    """An output of the program disagrees with the oracle."""


def read_checkpoint(path):
    """(header dict, W, b) from an FQCKPT01 file."""
    raw = Path(path).read_bytes()
    if raw[:8] != b"FQCKPT01":
        raise CheckFailed(f"{path}: bad checkpoint magic")
    keys = ("input_len", "output_len", "period", "harmonic", "channels",
            "supervision", "n_in", "n_out")
    head = dict(zip(keys, struct.unpack("<8q", raw[8:72])))
    n_in, n_out = head["n_in"], head["n_out"]
    flat = np.frombuffer(raw, dtype="<c16", offset=72)
    if flat.size != n_in * n_out + n_out:
        raise CheckFailed(f"{path}: {flat.size} complex entries for a {n_in}x{n_out} layer")
    return head, flat[: n_in * n_out].reshape(n_in, n_out), flat[n_in * n_out:]


def layer_dims(input_len: int, output_len: int, period: int, harmonic: int):
    """(n_in, n_out) from the published cutoff rule, clamped to the available bins."""
    n_in = input_len // 2 if harmonic == 0 else min(
        harmonic * (input_len // period + 1) + 10, input_len // 2)
    return n_in, min(n_in * output_len // input_len, output_len // 2)


def split_edges(rows: int, fixed):
    """(train_end, val_end, test_end) for fixed ETT edges or the 70/10/20 rule."""
    if fixed is not None:
        return fixed
    n_train, n_val = int(0.7 * rows), int(0.1 * rows)
    return n_train, n_train + n_val, rows


def forecast_test_mse(values: np.ndarray, edges, ckpt_path) -> float:
    """Test MSE over the horizon, on train-standardized values, from a checkpoint."""
    head, weight, bias = read_checkpoint(ckpt_path)
    length, out_len = head["input_len"], head["output_len"]
    horizon = out_len - length
    train_end, val_end, test_end = edges
    train = values[:train_end]
    z = (values - train.mean(axis=0)) / np.maximum(train.std(axis=0), 1e-8)
    segment = z[max(val_end - (length - 1), 0):test_end]
    windows = sliding_window_view(segment, out_len, axis=0)  # (n, C, out_len)
    sq, count = 0.0, 0
    for lo in range(0, windows.shape[0], CHECK_BATCH):
        w = windows[lo:lo + CHECK_BATCH]
        x, target = w[..., :length], w[..., length:]
        mean = x.mean(axis=-1, keepdims=True)
        std = np.maximum(x.std(axis=-1, keepdims=True), RIN_EPS)
        bins = np.fft.rfft((x - mean) / std, axis=-1)[..., 1:1 + head["n_in"]]
        padded = np.zeros(w.shape[:2] + (out_len // 2 + 1,), dtype=np.complex128)
        padded[..., 1:1 + head["n_out"]] = bins @ weight + bias
        pred = np.fft.irfft(padded, n=out_len, axis=-1) * std + mean
        diff = pred[..., -horizon:] - target
        sq += float(np.sum(diff**2))
        count += diff.size
    return sq / count


# scores.csv prints 10 significant digits, so a printed score may sit up to
# 5e-10 (relative) above the exact score it stands for
PRINT_REL = 1e-9


def point_adjusted_f1(scores, labels, threshold: float) -> float:
    """F1 after marking every labeled run that holds one alarm as detected.

    An alarm is a score above the threshold. Thresholds are often a score
    itself, so a printed score within print rounding of the threshold counts
    as equal to it, i.e. as no alarm.
    """
    cut = threshold + PRINT_REL * abs(threshold)
    pred = [s > cut for s in scores]
    labels = [bool(v) for v in labels]
    i, n = 0, len(labels)
    while i < n:
        if not labels[i]:
            i += 1
            continue
        j = i
        while j < n and labels[j]:
            j += 1
        if any(pred[i:j]):
            pred[i:j] = [True] * (j - i)
        i = j
    tp = sum(p and l for p, l in zip(pred, labels))
    fp = sum(p and not l for p, l in zip(pred, labels))
    fn = sum(l and not p for p, l in zip(pred, labels))
    if tp == 0:
        return 0.0
    precision, recall = tp / (tp + fp), tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def close(got: float, want: float, rel: float = 1e-9) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)
