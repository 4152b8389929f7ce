"""Reconstruction-based anomaly detection.

A window of the series is downsampled by an equidistant factor, reconstructed
back to full length through the frequency-interpolation model, and every
timestep is scored by its squared reconstruction error (averaged over
channels). Timesteps whose score exceeds a threshold are flagged; the
threshold maximizes the point-adjusted F1 on a labeled validation series,
found by one exact sweep over every distinct score plus one value below them
all (flag every row).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidValueError, ShapeError
from .data import ArrayWindows
from .model import ComplexLinear, ModelConfig, model_forward


@dataclass
class AnomalyScores:
    """Per-timestep reconstruction error."""

    scores: np.ndarray


@dataclass(frozen=True)
class DetectionReport:
    threshold: float
    precision: float
    recall: float
    f1: float
    accuracy: float
    adjusted: bool


def reconstruction_windows(rows: np.ndarray, window: int, factor: int) -> ArrayWindows:
    """Stride-1 training pairs: downsampled window in, original window out.

    The input is every `factor`-th row of the target window; both are
    read-only views of one channel-major copy of `rows`.
    """
    ModelConfig.for_reconstruction(window, factor, 1)  # refuses a geometry no model takes
    return ArrayWindows.cut(rows, window, slice(None, None, factor), slice(None))


def score_series(cfg: ModelConfig, layer: ComplexLinear, series: np.ndarray,
                 window: int, factor: int) -> AnomalyScores:
    """Score every timestep of a series by squared reconstruction error.

    Windows are taken at stride = window, plus one final window aligned to
    the series end so the tail is covered; every row is scored, and rows
    scored by two windows get their mean. cfg must equal
    `ModelConfig.for_reconstruction(window, factor, cfg.channels)`.
    """
    if cfg != ModelConfig.for_reconstruction(window, factor, cfg.channels):
        raise InvalidArgumentError(
            f"model {cfg} is not the reconstruction model of window {window} "
            f"at factor {factor}"
        )
    windows = reconstruction_windows(series, window, factor)
    t = len(series)
    starts = np.arange(0, t - window + 1, window)
    if starts[-1] != t - window:
        starts = np.append(starts, t - window)

    inputs, full = windows.batch(starts)
    # row-major, so each row's mean over channels adds in one order, as in `evaluate`
    error = np.subtract(model_forward(inputs, cfg, layer), full, order="C")
    row_error = np.mean(error**2, axis=2)
    total = np.zeros(t)
    hits = np.zeros(t)
    for s, e in zip(starts, row_error):
        total[s : s + window] += e
        hits[s : s + window] += 1.0
    return AnomalyScores(total / hits)


def _label_runs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) of every maximal run of True labels."""
    edges = np.flatnonzero(np.diff(labels.astype(np.int8), prepend=0, append=0))
    return edges[0::2], edges[1::2]


def point_adjust(pred: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mark a whole labeled run as detected once any point inside it is.

    Predictions outside labeled runs are unchanged.
    """
    pred = np.asarray(pred, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if pred.shape != labels.shape:
        raise ShapeError(f"pred {pred.shape} and labels {labels.shape} differ")
    starts, ends = _label_runs(labels)
    # each reduceat segment is one run plus the unlabeled gap after it
    detected = np.logical_or.reduceat(pred & labels, starts)
    adjusted = pred.copy()
    adjusted[labels] = np.repeat(detected, ends - starts)
    return adjusted


def _rates(tp, fp, positives):
    """(precision, recall, f1) of tp true and fp false alarms over `positives`
    labeled rows, elementwise over arrays; an empty denominator gives 0."""
    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape), where=den > 0)

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, positives)
    return precision, recall, ratio(2 * precision * recall, precision + recall)


def prf1(pred: np.ndarray, labels: np.ndarray) -> tuple[float, float, float, float]:
    """Pointwise (precision, recall, f1, accuracy); empty denominators give 0."""
    pred = np.asarray(pred, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if pred.shape != labels.shape:
        raise ShapeError(f"pred {pred.shape} and labels {labels.shape} differ")
    tp = int(np.sum(pred & labels))
    fp = int(np.sum(pred & ~labels))
    precision, recall, f1 = map(float, _rates(tp, fp, int(np.sum(labels))))
    accuracy = float(np.mean(pred == labels))
    return precision, recall, f1, accuracy


def select_threshold(scores: np.ndarray, labels: np.ndarray) -> tuple[float, DetectionReport]:
    """Exact sweep over every distinct score for the best point-adjusted F1.

    A labeled run is detected at threshold th exactly when its maximum score
    is above th, so point-adjusted TP and FP for every candidate come from
    sorted run maxima and sorted unlabeled scores. The candidates are the
    distinct scores plus min(scores) - max(1, |min(scores)|), which flags
    every row and stays below the minimum after print rounding. Ties go to
    the higher threshold, i.e. fewer alarms, so flagging every row wins only
    when it is strictly better. The report is recomputed from the chosen
    threshold, so `prf1(point_adjust(scores > threshold, labels), labels)`
    reproduces it exactly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise ShapeError(f"scores {scores.shape} and labels {labels.shape} differ")
    if not labels.any():
        raise InvalidArgumentError("threshold selection needs at least one positive label")
    if not np.isfinite(scores).all():
        raise InvalidValueError(
            f"{int(np.sum(~np.isfinite(scores)))} of {scores.size} anomaly scores "
            f"are not finite"
        )
    distinct = np.unique(scores)
    lowest = distinct[0]
    candidates = np.concatenate([[lowest - max(1.0, abs(lowest))], distinct])

    starts, ends = _label_runs(labels)
    run_max = np.maximum.reduceat(np.where(labels, scores, -np.inf), starts)
    order = np.argsort(run_max)
    missed = np.concatenate([[0], np.cumsum((ends - starts)[order])])
    n_pos = int(missed[-1])
    tp = n_pos - missed[np.searchsorted(run_max[order], candidates, side="right")]
    negatives = np.sort(scores[~labels])
    fp = negatives.size - np.searchsorted(negatives, candidates, side="right")

    f1 = _rates(tp, fp, n_pos)[2]  # prf1's expressions, one candidate per element
    best = candidates.size - 1 - int(np.argmax(f1[::-1]))
    threshold = float(candidates[best])
    precision, recall, f1, accuracy = prf1(point_adjust(scores > threshold, labels), labels)
    return threshold, DetectionReport(threshold, precision, recall, f1, accuracy, True)
