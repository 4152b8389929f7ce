"""The benchmark workloads: inputs, CLI arguments and output checks.

Each workload writes its inputs (data files and a `run.cfg`) into a
directory, names the freqcast command that runs on them, lists the output
files that must be byte-identical on every invocation, and checks one
invocation's outputs against the oracles in `reference.py`. The check
returns the workload's quality loss: the test MSE for forecasting, 1/F1 for
detection. `smoke=True` gives tiny shapes that run in about a second.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
from freqcast.data import synth_anomaly, write_labels_csv, write_series_csv

import gen
from reference import (
    CheckFailed,
    close,
    forecast_test_mse,
    layer_dims,
    point_adjusted_f1,
    split_edges,
)

ETTH2_ROWS = 17420
ETTH2_EDGES = (8640, 8640 + 2880, 8640 + 2 * 2880)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: tuple[str, ...]
    outputs: tuple[str, ...]
    setup: Callable  # (directory, seed, smoke) -> None
    check: Callable  # (inputs directory, run directory, smoke) -> quality loss


def _write_cfg(directory, **keys) -> None:
    lines = [f"{key} = {value}" for key, value in keys.items()]
    (directory / "run.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ett_dataset(smoke: bool):
    """(rows, profile config keys, fixed split edges or None for 70/10/20)."""
    if smoke:
        return 400, {"period": 24}, None
    return ETTH2_ROWS, {"profile": "etth2"}, ETTH2_EDGES


def _read_values(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        width = len(fh.readline().split(","))
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, width), ndmin=2)


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _check_mse(reported: float, recomputed: float, what: str) -> float:
    if not (reported > 0 and close(reported, recomputed)):
        raise CheckFailed(f"{what}: reported test MSE {reported!r}, recomputed {recomputed!r}")
    return reported


# --- train-L720 ---------------------------------------------------------------

def _train_shape(smoke: bool):
    return {"input_len": 48, "horizon": 24, "harmonic": 1} if smoke else \
        {"input_len": 720, "horizon": 96, "harmonic": 6}


def setup_train(directory, seed: int, smoke: bool) -> None:
    rows, profile, _ = _ett_dataset(smoke)
    gen.write_timestamped_csv(directory / "ett.csv", gen.ett_like(rows, seed),
                              gen.ETT_COLUMNS, 3)
    _write_cfg(directory, data="ett.csv", **profile, **_train_shape(smoke),
               supervision="backcast+forecast", seeds=0, max_epochs=1)


def check_train(inputs, run_dir, smoke: bool) -> float:
    rows, _, edges = _ett_dataset(smoke)
    shape = _train_shape(smoke)
    metrics = _read_json(run_dir / "metrics.json")
    n_in, n_out = layer_dims(shape["input_len"], shape["input_len"] + shape["horizon"],
                             24, shape["harmonic"])
    if (metrics["config"]["n_in"], metrics["config"]["n_out"]) != (n_in, n_out):
        raise CheckFailed(f"layer {metrics['config']} is not {n_in}x{n_out}")
    values = _read_values(inputs / "ett.csv")
    recomputed = forecast_test_mse(values, split_edges(rows, edges), run_dir / "model.ckpt")
    return _check_mse(metrics["per_seed"][0]["test_mse"], recomputed, "train")


# --- detect-stream ------------------------------------------------------------

def _detect_shape(smoke: bool):
    return {"length": 1200, "train_rows": 400, "window": 40, "max_epochs": 3} if smoke else \
        {"length": 24000, "train_rows": 4000, "window": 200, "max_epochs": 60}


def setup_detect(directory, seed: int, smoke: bool) -> None:
    shape = _detect_shape(smoke)
    series, _ = synth_anomaly(shape["length"], 1, 0.05, seed)
    write_series_csv(directory / "stream.csv", series.values)
    write_labels_csv(directory / "labels.csv", series.labels)
    _write_cfg(directory, data="stream.csv", labels="labels.csv",
               train_rows=shape["train_rows"], window=shape["window"], factor=4,
               learning_rate=0.002, max_epochs=shape["max_epochs"], patience=8, seed=0)


def check_detect(inputs, run_dir, smoke: bool) -> float:
    split = _detect_shape(smoke)["train_rows"]
    labels = [line.strip() == "1" for line in
              (inputs / "labels.csv").read_text(encoding="utf-8").splitlines()]
    report = _read_json(run_dir / "report.json")
    with open(run_dir / "scores.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["timestep"]) for r in rows] != list(range(split, len(labels))) \
            or [r["label"] == "1" for r in rows] != labels[split:]:
        raise CheckFailed("scores.csv does not cover the labeled range with its labels")
    f1 = point_adjusted_f1([float(r["score"]) for r in rows], labels[split:],
                           report["threshold"])
    if not (f1 > 0 and close(report["f1"], f1)):
        raise CheckFailed(f"report F1 {report['f1']!r}, brute force {f1!r}")
    return 1.0 / f1


WORKLOADS = {w.name: w for w in (
    Workload("train-L720", "train", (), ("metrics.json", "model.ckpt"),
             setup_train, check_train),
    Workload("detect-stream", "detect", ("--train-first", "--dump-scores"),
             ("report.json", "scores.csv", "model.ckpt"), setup_detect, check_detect),
)}
