"""Mini-batch Adam training with early stopping, plus the look-back/harmonic
grid search.

The optimization problem is linear least squares in the layer parameters
(every stage around the layer is fixed or instance-affine), so plain Adam on
the 2N real scalars behind the complex parameters converges reliably; the
test suite checks the trained loss against the closed-form normal-equations
optimum on a small instance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError, ParseError, ShapeError, TrainingDivergedError
from .model import (
    ComplexLinear,
    ModelConfig,
    Supervision,
    init_params,
    model_backward,
    model_forward,
    pack_params,
    param_count,
    unpack_params,
)

# relative val-MSE improvement below this counts as no improvement
MIN_RELATIVE_IMPROVEMENT = 1e-6


@dataclass(frozen=True)
class TrainSpec:
    learning_rate: float = 5e-4
    batch_size: int = 64
    max_epochs: int = 50
    patience: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    seed: int = 0
    seeds_for_reporting: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidArgumentError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.patience < 1:
            raise InvalidArgumentError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 1:
            raise InvalidArgumentError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise InvalidArgumentError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              spec: TrainSpec) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update, in place on the flat real vector."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(
            f"params {params.shape}, grads {grads.shape}, state {state.m.shape} disagree"
        )
    state.t += 1
    state.m *= spec.beta1
    state.m += (1.0 - spec.beta1) * grads
    state.v *= spec.beta2
    state.v += (1.0 - spec.beta2) * grads**2
    m_hat = state.m / (1.0 - spec.beta1**state.t)
    v_hat = state.v / (1.0 - spec.beta2**state.t)
    params -= spec.learning_rate * m_hat / (np.sqrt(v_hat) + spec.eps_adam)
    return params, state


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_mse: float
    val_mse: float


def evaluate(cfg: ModelConfig, layer: ComplexLinear, windows,
             eval_steps: int | None = None, batch_size: int = 256):
    """(MSE, MAE) over the trailing eval_steps rows of prediction and target.

    eval_steps=None compares against the full target region, which is the
    forecast horizon for forecast-only windows and the whole output window
    otherwise (the reconstruction case).
    """
    if len(windows) == 0:
        raise InvalidArgumentError("cannot evaluate on an empty window set")
    sq = 0.0
    ab = 0.0
    count = 0
    for lo in range(0, len(windows), batch_size):
        idx = range(lo, min(lo + batch_size, len(windows)))
        x, t = windows.batch(idx)
        k = t.shape[1] if eval_steps is None else eval_steps
        if k < 1 or k > t.shape[1]:
            raise InvalidArgumentError(
                f"eval_steps={eval_steps} outside the {t.shape[1]}-row target"
            )
        pred = model_forward(x, cfg, layer)
        diff = pred[:, -k:, :] - t[:, -k:, :]
        sq += float(np.sum(diff**2))
        ab += float(np.sum(np.abs(diff)))
        count += diff.size
    return sq / count, ab / count


def _grad_vector(d_weight: np.ndarray, d_bias: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [np.ascontiguousarray(d_weight).ravel().view(np.float64),
         np.ascontiguousarray(d_bias).view(np.float64)]
    )


def train(cfg: ModelConfig, layer: ComplexLinear, train_windows, val_windows,
          spec: TrainSpec, eval_steps: int | None = None):
    """Train with seeded shuffling and early stopping on the validation MSE.

    Returns (best layer, history). The parameters of the epoch with the best
    validation MSE are restored; training stops once `patience` epochs pass
    without a relative improvement of at least 1e-6.
    """
    if len(train_windows) == 0 or len(val_windows) == 0:
        raise InvalidArgumentError("train and validation window sets must be nonempty")
    rng = np.random.default_rng(spec.seed)
    theta = pack_params(layer)
    adam = AdamState.zeros(theta.size)
    n = len(train_windows)

    best_val = math.inf
    best_theta = theta.copy()
    stale = 0
    history: list[EpochStats] = []
    for epoch in range(1, spec.max_epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for lo in range(0, n, spec.batch_size):
            idx = order[lo : lo + spec.batch_size]
            x, t = train_windows.batch(idx)
            view = unpack_params(theta, cfg)
            loss, dw, db = model_backward(x, t, cfg, view)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch offset {lo}: {loss}"
                )
            adam_step(theta, _grad_vector(dw, db), adam, spec)
            loss_sum += loss * idx.size
        train_mse = loss_sum / n
        val_mse, _ = evaluate(cfg, unpack_params(theta, cfg), val_windows, eval_steps)
        history.append(EpochStats(epoch, train_mse, val_mse))
        if val_mse < best_val * (1.0 - MIN_RELATIVE_IMPROVEMENT):
            best_val = val_mse
            best_theta = theta.copy()
            stale = 0
        else:
            stale += 1
            if stale >= spec.patience:
                break
    return unpack_params(best_theta, cfg).copy(), history


@dataclass(frozen=True)
class GridRow:
    look_back: int
    harmonic: int
    supervision: str
    val_mse: float
    test_mse: float
    complex_entries: int
    epochs_ran: float


@dataclass(frozen=True)
class GridResult:
    rows: list[GridRow]
    selected: GridRow


def select_best(rows) -> GridRow:
    """Argmin of val MSE; ties prefer fewer parameters, then shorter look-back."""
    if not rows:
        raise InvalidArgumentError("no grid rows to select from")
    return min(rows, key=lambda r: (r.val_mse, r.complex_entries, r.look_back))


def run_combination(frame, profile, horizon: int, look_back: int, harmonic: int,
                    supervision: Supervision, spec: TrainSpec):
    """Train one (look-back, harmonic, supervision) cell over the reporting seeds."""
    from .data import split_windows  # local import to avoid a module cycle

    cfg = ModelConfig.for_forecast(
        look_back, horizon, profile.period, harmonic, frame.channels, supervision
    )
    train_w, val_w, test_w = split_windows(frame, profile, look_back, horizon, supervision)
    vals, tests, epochs = [], [], []
    for seed in spec.seeds_for_reporting:
        layer = init_params(cfg, seed)
        best, history = train(cfg, layer, train_w, val_w,
                              replace(spec, seed=seed), eval_steps=horizon)
        vals.append(min(h.val_mse for h in history))
        tests.append(evaluate(cfg, best, test_w, eval_steps=horizon)[0])
        epochs.append(len(history))
    return GridRow(
        look_back,
        harmonic,
        supervision.value,
        float(np.mean(vals)),
        float(np.mean(tests)),
        param_count(cfg)[0],
        float(np.mean(epochs)),
    )


def grid_search(frame, profile, horizon: int, look_backs, harmonics,
                supervisions, spec: TrainSpec, skip=None, on_row=None) -> GridResult:
    """Full sweep; `skip` may hold (look_back, harmonic, supervision-value)
    triples already computed (idempotent resume), `on_row` sees each new row."""
    rows: list[GridRow] = []
    skip = set(skip or ())
    for look_back in look_backs:
        for harmonic in harmonics:
            for supervision in supervisions:
                if (look_back, harmonic, supervision.value) in skip:
                    continue
                row = run_combination(frame, profile, horizon, look_back,
                                      harmonic, supervision, spec)
                rows.append(row)
                if on_row is not None:
                    on_row(row)
    return GridResult(rows, select_best(rows)) if rows else GridResult([], None)


GRID_CSV_FIELDS = ["look_back", "harmonic", "supervision", "val_mse", "test_mse",
                   "complex_entries", "epochs_ran"]


def write_history_csv(path, history) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_mse", "val_mse"])
        for h in history:
            writer.writerow([h.epoch, f"{h.train_mse:.12g}", f"{h.val_mse:.12g}"])


def _write_grid_rows(fh, rows, header: bool) -> None:
    writer = csv.writer(fh)
    if header:
        writer.writerow(GRID_CSV_FIELDS)
    for r in rows:
        writer.writerow([r.look_back, r.harmonic, r.supervision,
                         f"{r.val_mse:.12g}", f"{r.test_mse:.12g}",
                         r.complex_entries, f"{r.epochs_ran:.12g}"])


def write_grid_csv(path, rows) -> None:
    """A fresh grid.csv holding exactly `rows`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_grid_rows(fh, rows, header=True)


def append_grid_csv(path, rows) -> None:
    path = Path(path)
    header = not path.exists() or path.stat().st_size == 0
    with open(path, "a", newline="", encoding="utf-8") as fh:
        _write_grid_rows(fh, rows, header)


def read_grid_csv(path) -> list[GridRow]:
    """Rows of a grid.csv log.

    The log is appended one row per finished cell, so an interrupted run can
    leave a final row without its line end; that torn row is dropped and its
    cell reruns. Any other malformed row raises ParseError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    records = list(csv.reader(text.splitlines()))
    if text and not text.endswith("\n"):
        records.pop()  # torn final row
    if records and records[0] != GRID_CSV_FIELDS:
        raise ParseError(f"{path}: header {records[0]} is not {GRID_CSV_FIELDS}")
    rows = []
    for lineno, rec in enumerate(records[1:], start=2):
        try:
            look_back, harmonic, supervision, val, test, entries, epochs = rec
            rows.append(GridRow(int(look_back), int(harmonic), supervision,
                                float(val), float(test), int(entries), float(epochs)))
        except ValueError:
            raise ParseError(
                f"{path}: row {lineno} is not a {len(GRID_CSV_FIELDS)}-cell grid row: {rec}"
            ) from None
    return rows
