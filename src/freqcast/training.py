"""Fitting the layer, by mini-batch Adam with early stopping or by one exact
least-squares solve, plus the look-back/harmonic grid search.

The optimization problem is linear least squares in the layer parameters
(every stage around the layer is fixed or instance-affine), so plain Adam on
the 2N real scalars behind the complex parameters converges reliably; the
test suite checks the trained loss against the closed-form normal-equations
optimum on a small instance.

The same fact makes a layer's squared error over a window set a quadratic
form in (W, b), whose sums one pass takes (`validation_statistics`).
`exact_fit`, which `detect` uses, solves one window set's sums over the
whole output window and returns the layer; forecast-only supervision has no
normal equations in that form. A fit by Adam that may run more than one
epoch scores every epoch from the validation windows' sums; only the
restored epoch is scored again, by `evaluate`, for its reported MSE and MAE.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import data as dat
from . import model as mdl
from .errors import InvalidArgumentError, ParseError, ShapeError, TrainingDivergedError
from .model import (
    ComplexLinear,
    ModelConfig,
    Supervision,
    init_params,
    model_backward,
    model_forward,  # not called here; the benchmark trace wraps training.model_forward
    pack_params,
    param_count,
    unpack_params,
)

# relative val-MSE improvement below this counts as no improvement
MIN_RELATIVE_IMPROVEMENT = 1e-6
# Adam moment decays and denominator guard (the usual defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
EVAL_BATCH = 64  # windows per `evaluate` batch, each a slice, so a view of the windows


@dataclass(frozen=True)
class TrainSpec:
    learning_rate: float = 5e-4
    batch_size: int = 64
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    seeds_for_reporting: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        if not math.isfinite(self.learning_rate):
            raise InvalidArgumentError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.learning_rate <= 0:
            raise InvalidArgumentError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.patience < 1:
            raise InvalidArgumentError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 1:
            raise InvalidArgumentError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise InvalidArgumentError(f"max_epochs must be >= 1, got {self.max_epochs}")
        for seed in (self.seed, *self.seeds_for_reporting):
            if seed < 0:
                raise InvalidArgumentError(f"seed must be >= 0, got {seed}")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    # two work vectors for adam_step, allocated with the moments
    work: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              spec: TrainSpec) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update, in place on the flat real vector.

    Temporaries go into the state's work vectors, in the operation order of
    m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t),
    params -= lr * m_hat / (sqrt(v_hat) + eps).
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(
            f"params {params.shape}, grads {grads.shape}, state {state.m.shape} disagree"
        )
    state.t += 1
    step, denom = state.work
    state.m *= ADAM_BETA1
    state.m += np.multiply(grads, 1.0 - ADAM_BETA1, out=step)
    state.v *= ADAM_BETA2
    np.square(grads, out=step)
    state.v += np.multiply(step, 1.0 - ADAM_BETA2, out=step)
    np.divide(state.m, 1.0 - ADAM_BETA1**state.t, out=step)
    np.divide(state.v, 1.0 - ADAM_BETA2**state.t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step *= spec.learning_rate
    step /= denom
    params -= step
    return params, state


@dataclass(frozen=True)
class EpochStats:
    """One epoch's losses; `improved` marks a new best val MSE, whose
    parameters `train` kept (see `restored_epoch`).

    In a fit with more than one epoch allowed, val_mse comes from the
    validation statistics (`ValStatistics.mse`) and val_mae is NaN (not
    measured), except at the restored epoch, whose val_mse and val_mae are
    `evaluate`'s of the kept layer. A one-epoch fit takes both from `evaluate`.
    """

    epoch: int
    train_mse: float
    val_mse: float
    val_mae: float
    improved: bool


def restored_epoch(history) -> EpochStats:
    """The epoch whose parameters `train` returned: the last one that improved."""
    return next(h for h in reversed(history) if h.improved)


def _scored_rows(windows, eval_steps: int | None) -> int:
    """The number of trailing target rows that scoring compares."""
    if len(windows) == 0:
        raise InvalidArgumentError("cannot evaluate on an empty window set")
    rows = windows.targets.shape[1]
    k = rows if eval_steps is None else eval_steps
    if not 1 <= k <= rows:
        raise InvalidArgumentError(f"eval_steps={eval_steps} outside the {rows}-row target")
    return k


def _scored_parts(cfg: ModelConfig, windows, k: int, sums):
    """sums(z, u) of `model._tail_rows` for each part of the windows, in window order.

    The windows go EVAL_BATCH at a time through the model's input checks; a
    large slice is taken as two half batches, as the model takes it, so the
    parts come in one order wherever a half ran.
    """
    for lo in range(0, len(windows), EVAL_BATCH):
        x, t = windows.batch(slice(lo, lo + EVAL_BATCH))
        x3, _ = mdl._as_batch(x, cfg.input_len, cfg.channels, "input")
        mdl._check_finite(x3)

        yield from mdl._halves(lambda w: sums(*mdl._tail_rows(x3[w], t[w], cfg, k)),
                               cfg, len(x3))


def evaluate(cfg: ModelConfig, layer: ComplexLinear, windows,
             eval_steps: int | None = None):
    """(MSE, MAE) over the trailing eval_steps rows of prediction and target.

    eval_steps=None compares against the full target region, which is the
    forecast horizon for forecast-only windows and the whole output window
    otherwise (the reconstruction case). Only the compared rows are
    predicted: the layer is folded into their synthesis once, and each
    row's error is z @ V - u (`model._tail_rows`).
    """
    k = _scored_rows(windows, eval_steps)
    mdl._check_layer(cfg, layer)
    fold = mdl._real_fold(layer, mdl._tail_synthesis(cfg, k))

    def sums(z, u):
        r = mdl._tail_residual(z, u, fold)
        return float(np.vdot(r, r)), float(np.abs(r, out=r).sum())

    sq, ab = map(sum, zip(*_scored_parts(cfg, windows, k, sums)))
    count = len(windows) * k * cfg.channels
    return sq / count, ab / count


@dataclass(frozen=True)
class ValStatistics:
    """The squared error of any layer over a window set's scored rows, as a
    quadratic form in the layer.

    With z and u the rows of `model._tail_rows` and V =
    `model._real_fold(layer, synth)`, the errors z @ V - u square-sum to
    e - 2<V, C> + <V, H V> with H = sum z^T z (gram), C = sum z^T u (cross)
    and e = sum |u|^2 (energy), over `count` values. `train` scores epochs
    on the val windows' statistics, and `exact_fit` solves the training
    windows'. The sum rounds at the scale of e, not of the error, so the
    closer a layer fits, the fewer digits it shares with `evaluate`.
    """

    synth: np.ndarray
    gram: np.ndarray
    cross: np.ndarray
    energy: float
    count: int

    def mse(self, layer: ComplexLinear) -> float:
        """The layer's MSE; it agrees with `evaluate`'s to rounding, not bit for bit."""
        fold = mdl._real_fold(layer, self.synth)
        sq = (self.energy - 2.0 * float(np.vdot(fold, self.cross))
              + float(np.vdot(fold, self.gram @ fold)))
        # an exact fit can round below zero
        return max(sq, 0.0) / self.count


def validation_statistics(cfg: ModelConfig, windows,
                          eval_steps: int | None = None) -> ValStatistics:
    """The `ValStatistics` of the rows `evaluate(cfg, ., windows, eval_steps)` scores,
    summed in one pass over the same parts as `evaluate`'s. The parts are
    added in the calling thread in window order, so the worker changes no bit."""
    k = _scored_rows(windows, eval_steps)
    width = 2 * cfg.n_in + 2
    gram, cross, energy = np.zeros((width, width)), np.zeros((width, k)), 0.0
    for h, c, e in _scored_parts(cfg, windows, k,
                                 lambda z, u: (z.T @ z, z.T @ u, float(np.vdot(u, u)))):
        gram += h
        cross += c
        energy += e
    return ValStatistics(mdl._tail_synthesis(cfg, k), gram, cross, energy,
                         len(windows) * k * cfg.channels)


def train(cfg: ModelConfig, layer: ComplexLinear, train_windows, val_windows,
          spec: TrainSpec, eval_steps: int | None = None, val_stats=None):
    """Train with seeded shuffling and early stopping on the validation MSE.

    Returns (best layer, history). The parameters of the last epoch that
    improved the best validation MSE by at least 1e-6 relative are restored
    (`restored_epoch(history)`); training stops once `patience` epochs pass
    without such an improvement. Each batch of an epoch's seeded order is one
    Adam step.

    When spec.max_epochs > 1, each epoch's val MSE comes from statistics
    taken once before the first epoch (`validation_statistics`), and after
    the loop the restored epoch alone is scored by `evaluate`, whose MSE and
    MAE replace its entry. The other epochs' val MSE agrees with `evaluate`'s
    to rounding, so a stopping decision could differ from one made on
    `evaluate` only within rounding of the 1e-6 threshold. A one-epoch fit
    makes no such decision and scores its epoch by `evaluate` alone. The
    statistics depend on no seed: `val_stats`, if given, is
    `validation_statistics(cfg, val_windows, eval_steps)`, which fits of
    several seeds take once.
    """
    if len(train_windows) == 0 or len(val_windows) == 0:
        raise InvalidArgumentError("train and validation window sets must be nonempty")
    mdl._check_layer(cfg, layer)
    if val_stats is None and spec.max_epochs > 1:
        val_stats = validation_statistics(cfg, val_windows, eval_steps)
    rng = np.random.default_rng(spec.seed)
    # Adam steps theta in place; view aliases it, and grad aliases grads
    theta = pack_params(layer)
    view = unpack_params(theta, cfg)
    grads = np.empty_like(theta)  # each batch's gradient, in theta's layout
    grad = unpack_params(grads, cfg)
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
            # neither the batch nor (dW, db) outlives this statement, so
            # the next batch is gathered into the memory they free
            loss, grad.weight[...], grad.bias[...] = model_backward(
                *train_windows.batch(idx), cfg, view)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch offset {lo}: {loss}"
                )
            adam_step(theta, grads, adam, spec)
            loss_sum += loss * idx.size
        train_mse = loss_sum / n
        if val_stats is None:
            val_mse, val_mae = evaluate(cfg, view, val_windows, eval_steps)
        else:
            val_mse, val_mae = val_stats.mse(view), math.nan
        if not math.isfinite(val_mse):
            raise TrainingDivergedError(f"non-finite validation MSE at epoch {epoch}: {val_mse}")
        improved = val_mse < best_val * (1.0 - MIN_RELATIVE_IMPROVEMENT)
        history.append(EpochStats(epoch, train_mse, val_mse, val_mae, improved))
        if improved:
            best_val = val_mse
            best_theta[...] = theta
            stale = 0
        else:
            stale += 1
            if stale >= spec.patience:
                break
    best = unpack_params(best_theta, cfg)
    if val_stats is not None:
        restored = restored_epoch(history)
        val_mse, val_mae = evaluate(cfg, best, val_windows, eval_steps)
        history[restored.epoch - 1] = replace(restored, val_mse=val_mse, val_mae=val_mae)
    return best, history


def exact_fit(cfg: ModelConfig, windows) -> ComplexLinear:
    """The layer with the least whole-window MSE over `windows`.

    A solve on the windows' `ValStatistics` over the whole output
    window, taken in one pass. With z~ the complex rows behind z and B the
    target's rfft over the layer's bins, that loss is (sum e0 + 2 |z~ W~ -
    B|^2 - |Nyquist column|^2) / (n m) (`model._spectral_pass`), so every
    bin below Nyquist is a complex least-squares problem: G1 W~ = sum z~^H B,
    with G1 = sum z~^H z~ read off H's blocks. From bin 1 up B is as much the
    rfft of u = t - mean as of t, so that right side is the FFT of C's rows
    as complex pairs. When the layer reaches the Nyquist bin, only that
    column's real part reaches the output: it is the real problem of design
    [Re z~, -Im z~] against Re B = u @ (-1)^t, with normal matrix H and right
    side C @ (-1)^t. That problem is always singular (the bias's Im column is
    zero, as is the input Nyquist bin's when the layer keeps it), so each is
    solved min-norm (`np.linalg.lstsq`), which also serves a singular G1 (too
    few windows, constant channels).
    """
    if cfg.target_rows < cfg.output_len:
        raise InvalidArgumentError("the exact fit solves the whole output window; "
                                   "forecast-only supervision needs `train`")
    if len(windows) == 0:
        raise InvalidArgumentError("the exact fit needs at least one training window")
    stats = validation_statistics(cfg, windows, None)
    gram, cross = stats.gram, stats.cross
    if not (np.isfinite(gram).all() and np.isfinite(cross).all()):
        raise TrainingDivergedError("the exact fit's normal equations are not finite")
    re, im = slice(0, None, 2), slice(1, None, 2)
    g1 = gram[re, re] + gram[im, im] + 1j * (gram[re, im] - gram[im, re])
    nyquist = cfg.n_out == cfg.output_len // 2
    below = cfg.n_out - nyquist
    stacked = np.empty((cfg.n_in + 1, cfg.n_out), np.complex128)  # [b; W]
    rhs = np.fft.fft(cross[re] - 1j * cross[im], axis=-1)[:, 1 : 1 + below]
    stacked[:, :below] = np.linalg.lstsq(g1, rhs, rcond=None)[0]
    if nyquist:
        sign = np.where(np.arange(cfg.output_len) % 2, -1.0, 1.0)
        folded = np.linalg.lstsq(gram, cross @ sign, rcond=None)[0]  # (Re, -Im) pairs
        stacked[:, -1] = folded[re] - 1j * folded[im]
    return ComplexLinear(stacked[1:], stacked[0])


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


def train_seeds(frame, profile, horizon: int, look_back: int, harmonic: int,
                supervision: Supervision, spec: TrainSpec):
    """Train one forecast setting once per reporting seed.

    Returns (cfg, runs) with one (record, best layer, history) per seed of
    `spec.seeds_for_reporting`. The record holds the seed, the val MSE/MAE of
    the restored epoch, the test MSE/MAE of the kept layer and the number of
    epochs run.
    """
    cfg = ModelConfig.for_forecast(
        look_back, horizon, profile.period, harmonic, frame.channels, supervision
    )
    # called through the module, so a wrapper of data.split_windows sees the call
    train_w, val_w, test_w = dat.split_windows(frame, profile, look_back, horizon, supervision)
    # the seeds' fits share the validation statistics, which depend on no seed
    val_stats = None if spec.max_epochs == 1 else validation_statistics(cfg, val_w, horizon)
    runs = []
    for seed in spec.seeds_for_reporting:
        best, history = train(cfg, init_params(cfg, seed), train_w, val_w,
                              replace(spec, seed=seed), horizon, val_stats)
        restored = restored_epoch(history)
        test_mse, test_mae = evaluate(cfg, best, test_w, eval_steps=horizon)
        record = {
            "seed": seed,
            "val_mse": restored.val_mse, "val_mae": restored.val_mae,
            "test_mse": test_mse, "test_mae": test_mae,
            "epochs": len(history),
        }
        runs.append((record, best, history))
    return cfg, runs


def run_combination(frame, profile, horizon: int, look_back: int, harmonic: int,
                    supervision: Supervision, spec: TrainSpec):
    """Train one (look-back, harmonic, supervision) cell; report the seed means."""
    cfg, runs = train_seeds(frame, profile, horizon, look_back, harmonic, supervision, spec)

    def mean(key):
        return float(np.mean([record[key] for record, _, _ in runs]))

    return GridRow(look_back, harmonic, supervision.value, mean("val_mse"),
                   mean("test_mse"), param_count(cfg)[0], mean("epochs"))


def grid_search(frame, profile, horizon: int, look_backs, harmonics,
                supervisions, spec: TrainSpec, done=(), on_row=None) -> GridResult:
    """Train every cell of the sweep that is not among the `done` rows.

    The result's rows are `done` (say, a resumed grid.csv) followed by the new
    rows in sweep order, and `selected` is the best of them all. `on_row`
    gets those rows after each new one.
    """
    rows = list(done)
    finished = {(r.look_back, r.harmonic, r.supervision) for r in rows}
    for look_back in look_backs:
        for harmonic in harmonics:
            for supervision in supervisions:
                if (look_back, harmonic, supervision.value) in finished:
                    continue
                rows.append(run_combination(frame, profile, horizon, look_back,
                                            harmonic, supervision, spec))
                if on_row is not None:
                    on_row(rows)
    return GridResult(rows, select_best(rows))


GRID_CSV_FIELDS = [f.name for f in fields(GridRow)]


def write_history_csv(path, history) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_mse", "val_mse"])
        for h in history:
            writer.writerow([h.epoch, f"{h.train_mse:.12g}", f"{h.val_mse:.12g}"])


def write_grid_csv(path, rows) -> None:
    """A fresh grid.csv holding exactly `rows`; each float is written as its
    shortest exact repr, so `read_grid_csv` returns rows equal to `rows`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(GRID_CSV_FIELDS)
        writer.writerows(astuple(r) for r in rows)


def read_grid_csv(path) -> list[GridRow]:
    """Rows of a grid.csv log.

    A final row without its line end, which an older version's row-by-row
    append could leave, is dropped and its cell reruns. Any other malformed
    row, a line the CSV reader refuses, an unknown supervision or a non-finite
    val or test MSE raises ParseError.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(text.splitlines())
    try:
        records = list(reader)
    except csv.Error as exc:  # such as a cell longer than the reader's field limit
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if text and not text.endswith("\n"):
        records.pop()  # torn final row
    if records and records[0] != GRID_CSV_FIELDS:
        raise ParseError(f"{path}: header {records[0]} is not {GRID_CSV_FIELDS}")
    rows = []
    supervisions = [s.value for s in Supervision]
    for lineno, rec in enumerate(records[1:], start=2):
        try:
            look_back, harmonic, supervision, val, test, entries, epochs = rec
            row = GridRow(int(look_back), int(harmonic), supervision,
                          float(val), float(test), int(entries), float(epochs))
        except ValueError:
            raise ParseError(
                f"{path}: row {lineno} is not a {len(GRID_CSV_FIELDS)}-cell grid row: {rec}"
            ) from None
        if supervision not in supervisions:
            raise ParseError(f"{path}: row {lineno} has supervision {supervision!r}, "
                             f"not one of {supervisions}")
        if not (math.isfinite(row.val_mse) and math.isfinite(row.test_mse)):
            raise ParseError(f"{path}: row {lineno} has a non-finite MSE: {rec}")
        rows.append(row)
    return rows
