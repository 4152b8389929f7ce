"""Reconstruction-based anomaly detection.

A window of the series is downsampled by an equidistant factor, reconstructed
back to full length through the frequency-interpolation model, and every
timestep is scored by its squared reconstruction error (averaged over
channels). Timesteps whose score exceeds a threshold are flagged; the
threshold is the quantile candidate that maximizes the point-adjusted F1 on
a labeled validation series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ShapeError
from .data import ArrayWindows, sliding_windows
from .model import ComplexLinear, ModelConfig, model_forward

MAX_THRESHOLD_CANDIDATES = 10_000


@dataclass
class AnomalyScores:
    """Per-timestep reconstruction error plus a scored-at-least-once mask."""

    scores: np.ndarray
    coverage: np.ndarray


@dataclass(frozen=True)
class DetectionReport:
    threshold: float
    precision: float
    recall: float
    f1: float
    accuracy: float
    adjusted: bool


def downsample(window: np.ndarray, factor: int) -> np.ndarray:
    """Equidistant sampling at offset 0: row i of the output is row i*factor."""
    window = np.asarray(window)
    if factor < 1:
        raise InvalidArgumentError(f"factor must be >= 1, got {factor}")
    if window.shape[0] % factor != 0:
        raise InvalidArgumentError(
            f"factor {factor} does not divide the {window.shape[0]}-row window"
        )
    return window[::factor]


def reconstruction_windows(rows: np.ndarray, window: int, factor: int) -> ArrayWindows:
    """Stride-1 training pairs: downsampled window in, original window out.

    Both are read-only views of `rows`.
    """
    view = sliding_windows(rows, window)
    return ArrayWindows(view[:, ::factor], view)


def score_series(cfg: ModelConfig, layer: ComplexLinear, series: np.ndarray,
                 window: int = 200, factor: int = 4) -> AnomalyScores:
    """Score every timestep of a series by squared reconstruction error.

    Windows are taken at stride = window, plus one final window aligned to
    the series end so the tail is covered; rows scored by both are averaged.
    """
    series = np.asarray(series, dtype=np.float64)
    view = sliding_windows(series, window)
    if factor < 1 or window % factor or cfg.input_len != window // factor \
            or cfg.output_len != window:
        raise InvalidArgumentError(
            f"model maps {cfg.input_len} -> {cfg.output_len}, but scoring asks "
            f"window {window} at factor {factor}"
        )
    t = series.shape[0]
    starts = np.arange(0, t - window + 1, window)
    if starts[-1] != t - window:
        starts = np.append(starts, t - window)

    full = view[starts]
    recon = model_forward(full[:, ::factor], cfg, layer)
    total = np.zeros(t)
    hits = np.zeros(t)
    for s, r, f in zip(starts, recon, full):
        total[s : s + window] += np.mean((r - f) ** 2, axis=1)
        hits[s : s + window] += 1.0
    coverage = hits > 0
    scores = np.where(coverage, total / np.maximum(hits, 1.0), 0.0)
    return AnomalyScores(scores, coverage)


def point_adjust(pred: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mark a whole labeled run as detected once any point inside it is.

    Predictions outside labeled runs are unchanged.
    """
    pred = np.asarray(pred, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if pred.shape != labels.shape:
        raise ShapeError(f"pred {pred.shape} and labels {labels.shape} differ")
    adjusted = pred.copy()
    edges = np.flatnonzero(np.diff(labels.astype(np.int8)))
    starts = [0] if labels[0] else []
    starts += [int(e) + 1 for e in edges if not labels[e]]
    ends = [int(e) + 1 for e in edges if labels[e]]
    if labels[-1]:
        ends.append(labels.shape[0])
    for s, e in zip(starts, ends):
        if pred[s:e].any():
            adjusted[s:e] = True
    return adjusted


def prf1(pred: np.ndarray, labels: np.ndarray) -> tuple[float, float, float, float]:
    """Pointwise (precision, recall, f1, accuracy); empty denominators give 0."""
    pred = np.asarray(pred, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if pred.shape != labels.shape:
        raise ShapeError(f"pred {pred.shape} and labels {labels.shape} differ")
    tp = int(np.sum(pred & labels))
    fp = int(np.sum(pred & ~labels))
    fn = int(np.sum(~pred & labels))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = float(np.mean(pred == labels))
    return precision, recall, f1, accuracy


def select_threshold(scores: np.ndarray, labels: np.ndarray) -> tuple[float, DetectionReport]:
    """Quantile sweep (at most 10k candidates) maximizing point-adjusted F1.

    Ties go to the higher threshold, i.e. fewer alarms.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise ShapeError(f"scores {scores.shape} and labels {labels.shape} differ")
    if not labels.any():
        raise InvalidArgumentError("threshold selection needs at least one positive label")
    qs = np.linspace(0.0, 1.0, min(MAX_THRESHOLD_CANDIDATES, scores.size))
    candidates = np.unique(np.quantile(scores, qs))

    best = None
    for th in candidates:
        pred = point_adjust(scores > th, labels)
        precision, recall, f1, accuracy = prf1(pred, labels)
        if best is None or f1 >= best.f1:
            best = DetectionReport(float(th), precision, recall, f1, accuracy, True)
    return best.threshold, best
