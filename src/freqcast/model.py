"""The frequency-interpolation network and its analytic gradients.

One window flows through a fixed sandwich around a single trainable
complex-valued linear layer (weights shared across channels):

    normalize  ->  rfft  ->  drop DC, keep first n_in bins  ->  X @ W + b
      -> zero-pad to output_len/2 bins, DC forced to 0  ->  irfft  -> denorm

The rfft is linear and the layer drops the DC bin, so with std and mean the
instance statistics, std * X is the kept bins of rfft(x - mean), and the
output is irfft([0, z~ W~]) + mean with W~ = [b; W] and each instance
channel's z~ = [std, std * X] (`_scaled_bins`). The normalization is z~'s
bias entry: no pass divides by std or multiplies by it. Everything around
the layer is linear, so the exact gradient of the MSE is an adjoint chain
ending in [db; dW] = conj(z~)^T G, where row r of G is the loss's gradient
with respect to instance channel r's output bins z~ W~. With n = output_len
and m the number of supervised values, the chain to G depends on the rows
the loss covers (`ModelConfig.target_rows`). The forward pass and each
supervision's loss pass take z~:

* the whole output window (backcast+forecast, and every reconstruction
  model), `_spectral_pass`: the residual is formed in frequency. Over the
  layer's bins, rfft(y - t) is R = z~ W~ - B, one complex GEMM, with B the
  target's rfft there and the Nyquist bin's imaginary part dropped, as
  irfft drops it. Outside them the residual does not depend on the layer,
  so its energy e0 (DC, where y contributes n * mean, and the bins above
  the layer) is fixed data. Parseval gives the MSE, (e0 + 2 sum_k |R_k|^2 -
  |R_n/2|^2) / (n m), and [db; dW] = 4 / (m n) * conj(z~)^T R'. No inverse
  FFT is needed. When the layer reaches the Nyquist bin, R' halves R there,
  since that bin enters the output once and only through its real part.
* the horizon rows only (forecast-only), `_tail_pass`: `_tail_rows` gives
  z, the real view of z~, and u = t - mean over those rows, and V =
  `_real_fold` folds W~ into S = `_tail_synthesis`, which maps the layer's
  bins to the rows. The residual there is r = z V - u, and [db; dW] =
  conj(z~)^T (2 / m) r S^H = conj(S (2 / m) r^T z~)^T, read through S
  itself: GEMMs, no FFT after the input's rfft, and no Nyquist fold, since
  S's Nyquist row is real. `training.evaluate`
  and `training.validation_statistics` take the scored rows through the
  same z and u, with no loss pass. `training.exact_fit` solves one window
  set's statistics and returns the layer, with no loss pass either.

Gradients are packaged as complex numbers whose real/imag parts are the
partial derivatives with respect to the real/imag parts of the parameter;
correctness is pinned by finite-difference checks in the test suite, and
the spectral loss by its time-domain value.

A batch of at least 2 windows and 2^16 input values is computed as two half
batches, windows [0, n//2) and [n//2, n) (`_splits`): each half runs the
pipeline, their losses and gradients are added, and their output rows joined;
the layer is folded once for both (`model_backward`). The halving depends on
the batch alone, so the bits do not depend on where a half runs. The first
half runs on one worker thread, started by the first such batch, when BLAS
runs on one thread and another CPU is free (`_cpu_idle`), and on the calling
thread otherwise. Each thread computes in its own scratch buffers.
"""

from __future__ import annotations

import functools
import math
import os
import re
import struct
import threading
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidLengthError,
    InvalidValueError,
    ShapeError,
)
from .spectral import cutoff_bins

RIN_EPS = 1e-5
# per-thread scratch arrays of the batch pipeline, see `_scratch`
_buffers = threading.local()
# a batch with fewer input values is computed whole, see `_splits`
_SPLIT_VALUES = 1 << 16
_pool = None  # the worker thread of half batches, see `_worker`
_pool_lock = threading.Lock()


class Supervision(Enum):
    """Which part of the output window the training loss covers."""

    FORECAST_ONLY = "forecast"
    BACKCAST_AND_FORECAST = "backcast+forecast"

    def target_start(self, input_len: int) -> int:
        """The first output row the loss covers: the first forecast row if
        forecast-only, else row 0."""
        return input_len if self is Supervision.FORECAST_ONLY else 0


@dataclass(frozen=True)
class ModelConfig:
    """Window geometry plus the derived spectral layer dimensions.

    harmonic == 0 means "no low-pass filter": every non-DC input bin is kept.
    The layer maps n_in = k_cut input bins to n_out = floor(n_in * Lo / Li)
    output bins (clamped to the Lo/2 available), so the interpolation rate
    output_len/input_len carries over to the frequency axis unchanged.
    """

    input_len: int
    output_len: int
    period: int
    harmonic: int
    channels: int
    supervision: Supervision = Supervision.BACKCAST_AND_FORECAST
    n_in: int = field(init=False)
    n_out: int = field(init=False)

    def __post_init__(self):
        if self.input_len < 2 or self.input_len % 2 != 0:
            raise InvalidLengthError(f"input_len must be even and >= 2, got {self.input_len}")
        if self.output_len % 2 != 0 or self.output_len < self.input_len:
            raise InvalidLengthError(
                f"output_len must be even and >= input_len, got {self.output_len}"
            )
        if self.period < 1:
            raise InvalidArgumentError(f"period must be >= 1, got {self.period}")
        if self.harmonic < 0:
            raise InvalidArgumentError(f"harmonic must be >= 0, got {self.harmonic}")
        if self.channels < 1:
            raise InvalidArgumentError(f"channels must be >= 1, got {self.channels}")
        for name in ("input_len", "output_len", "period", "harmonic", "channels"):
            if getattr(self, name) >= 1 << 63:  # the checkpoint stores each as an int64
                raise InvalidArgumentError(f"{name} must be < 2^63, got {getattr(self, name)}")
        if self.supervision is Supervision.FORECAST_ONLY and self.horizon == 0:
            raise InvalidArgumentError("forecast-only supervision needs a positive horizon")
        if self.harmonic == 0:
            k = self.input_len // 2
        else:
            k = cutoff_bins(self.input_len, self.period, self.harmonic)
        object.__setattr__(self, "n_in", k)
        n_out = min(k * self.output_len // self.input_len, self.output_len // 2)
        object.__setattr__(self, "n_out", n_out)

    @classmethod
    def for_forecast(cls, input_len, horizon, period, harmonic, channels,
                     supervision=Supervision.BACKCAST_AND_FORECAST):
        if horizon < 1:
            raise InvalidArgumentError(f"horizon must be >= 1, got {horizon}")
        return cls(input_len, input_len + horizon, period, harmonic, channels, supervision)

    @classmethod
    def for_reconstruction(cls, window, factor, channels):
        """Upsample a factor-downsampled window back to its original length."""
        if factor < 1:
            raise InvalidArgumentError(f"factor must be >= 1, got {factor}")
        if window % factor != 0:
            raise InvalidArgumentError(f"factor {factor} does not divide window {window}")
        return cls(window // factor, window, 1, 0, channels,
                   Supervision.BACKCAST_AND_FORECAST)

    @property
    def horizon(self) -> int:
        return self.output_len - self.input_len

    @property
    def target_rows(self) -> int:
        """Trailing output rows the loss covers: the horizon if forecast-only, else all."""
        return self.output_len - self.supervision.target_start(self.input_len)


@dataclass
class ComplexLinear:
    """The entire trainable state: complex weights (n_in, n_out) and bias (n_out,)."""

    weight: np.ndarray
    bias: np.ndarray

    def copy(self) -> "ComplexLinear":
        return ComplexLinear(self.weight.copy(), self.bias.copy())


@dataclass(frozen=True)
class RinState:
    """Per-instance, per-channel statistics captured by the normalizer."""

    mean: np.ndarray
    std: np.ndarray


def rin_normalize(x) -> tuple[np.ndarray, RinState]:
    """Normalize each channel of each instance to zero mean, unit (population) std.

    Accepts (L, C) or (B, L, C); statistics are taken over the L axis, and a
    degenerate std is replaced by RIN_EPS so constant channels map to zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    axis = x.ndim - 2
    if x.ndim not in (2, 3):
        raise ShapeError(f"expected (L, C) or (B, L, C), got shape {x.shape}")
    if x.shape[axis] < 2:
        raise InvalidLengthError("need at least 2 timesteps per instance")
    _check_finite(x)
    mean = x.mean(axis=axis, keepdims=True)
    std = np.maximum(x.std(axis=axis, keepdims=True), RIN_EPS)
    return (x - mean) / std, RinState(mean, std)


def rin_denormalize(y, state: RinState) -> np.ndarray:
    """Exact inverse of :func:`rin_normalize`: y * std + mean per channel."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] != state.mean.shape[-1]:
        raise ShapeError(
            f"channel mismatch: output has {y.shape[-1]}, state has {state.mean.shape[-1]}"
        )
    return y * state.std + state.mean


def _as_batch(x, length: int, channels: int, what: str):
    x = np.asarray(x, dtype=np.float64)
    given = x.shape
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    if x.ndim != 3 or x.shape[1] != length or x.shape[2] != channels:
        raise ShapeError(
            f"{what} must be ({length}, {channels}) or (B, {length}, {channels}), "
            f"got shape {given}"
        )
    return x, squeeze


def _check_layer(cfg: ModelConfig, layer: ComplexLinear):
    if layer.weight.shape != (cfg.n_in, cfg.n_out) or layer.bias.shape != (cfg.n_out,):
        raise ShapeError(
            f"layer shaped {layer.weight.shape}/{layer.bias.shape} does not match "
            f"config n_in={cfg.n_in}, n_out={cfg.n_out}"
        )


def _scratch(name: str, shape, dtype=np.float64) -> np.ndarray:
    """This thread's `name` buffer, viewed as a C-contiguous `shape` array of `dtype`.

    The buffer is kept and reused while later requests fit in it, so the
    batch loop does not fault in fresh pages for each batch. Contents are
    undefined, and no public function returns a view of one. Each thread owns
    its buffers, so a half batch on the worker computes in the worker's. The
    buffers are: "work", the centred input rows and then the layer's output
    bins or the residual of the loss pass; "spectrum", the rows' squares and
    then their spectrum, whose first 1 + n_in bins, DC overwritten by std,
    are z~ (`_scaled_bins`); "target", the target's spectrum, whose layer
    bins are B, or u and then r^T z~ of the tail residual r.
    """
    size = math.prod(shape) * np.dtype(dtype).itemsize // 8
    buf = getattr(_buffers, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_buffers, name, buf)
    return buf[:size].view(dtype).reshape(shape)


def _blas_threads(environ) -> int | None:
    """The BLAS thread count OpenBLAS reads when it loads; None means one per CPU.

    The first positive OPENBLAS_NUM_THREADS or GOTO_NUM_THREADS wins, then
    OMP_NUM_THREADS; like C's atoi, a value counts by its leading digits.
    """
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        digits = re.match(r"\s*\+?(\d+)", environ.get(name, ""))
        if digits and int(digits[1]) > 0:
            return int(digits[1])
    return None


@functools.cache
def _cpu_idle() -> bool:
    """Whether BLAS runs on one thread and leaves another usable CPU idle; read once.

    A BLAS on more threads would compete with the worker for the CPU.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return _blas_threads(os.environ) == 1 and (cpus or 1) > 1


def _splits(cfg: ModelConfig, windows: int) -> bool:
    """Whether a batch of `windows` windows runs as two half batches; its size alone decides."""
    return windows >= 2 and windows * cfg.input_len * cfg.channels >= _SPLIT_VALUES


def _worker():
    """The one worker thread of half batches, a ThreadPoolExecutor started by the first of them."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here, so a run that never splits does not load it
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(1, thread_name_prefix="freqcast-split")
        return _pool


def _forget_worker() -> None:
    # a forked child inherits the executor but not its thread
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _halves(work, cfg: ModelConfig, windows: int):
    """work's results on a batch of `windows` windows, each given a slice of them.

    That is (work(all),) for a batch that stays whole (`_splits`), else
    (work(first), work(second)) for its two halves. The first half runs on
    the worker when a CPU is idle, else here before the second. Returns or
    raises only once both halves finished; an exception of the worker's half
    re-raises here.
    """
    if not _splits(cfg, windows):
        return (work(slice(0, windows)),)
    first, second = slice(0, windows // 2), slice(windows // 2, windows)
    if not _cpu_idle():
        return work(first), work(second)
    future = _worker().submit(work, first)
    try:
        rest = work(second)
    finally:
        future.exception()  # waits for the worker's half, raising nothing
    return future.result(), rest


def _check_finite(x3) -> None:
    if not np.all(np.isfinite(x3)):
        raise InvalidValueError("input window contains non-finite values")


def _scaled_bins(x3, cfg: ModelConfig):
    """(z~, mean) of a checked batch, with z~ = [std, rfft(x - mean) bins 1..n_in].

    One complex row per instance channel, (batch*channels, 1 + n_in), channel
    major, so the reductions are contiguous and the layer contraction is one
    BLAS matmul; a view of this thread's "spectrum" buffer.
    """
    batch, length, channels = x3.shape
    rows = _scratch("work", (batch, channels, length))
    np.copyto(rows, x3.transpose(0, 2, 1))
    rows = rows.reshape(batch * channels, length)
    spectrum = _scratch("spectrum", (batch * channels, length // 2 + 1), np.complex128)
    mean = rows.mean(axis=-1, keepdims=True)
    # np.std's arithmetic, with the squares in the spectrum's storage:
    # centre, square, pairwise-sum each row, divide by the count, sqrt
    rows -= mean
    squares = spectrum.view(np.float64)[:, :length]
    np.multiply(rows, rows, out=squares)
    std = squares.sum(axis=-1, keepdims=True)
    std /= length
    np.sqrt(std, out=std)
    np.maximum(std, RIN_EPS, out=std)
    np.fft.rfft(rows, axis=-1, out=spectrum)
    spectrum[:, 0] = std[:, 0]  # the bias entry, over DC: the centred rows' sum, about 0
    return spectrum[:, : 1 + cfg.n_in], mean


def _forward_rows(x3, cfg: ModelConfig, stacked):
    """The (batch*channels, output_len) output rows irfft([0, z~ W~]) + mean; stacked is W~."""
    z, mean = _scaled_bins(x3, cfg)
    # DC forced to 0; irfft zero-pads the bins above n_out itself
    bins = _scratch("work", (len(z), 1 + cfg.n_out), np.complex128)
    bins[:, 0] = 0.0
    np.matmul(z, stacked, out=bins[:, 1:])
    y = np.fft.irfft(bins, n=cfg.output_len, axis=-1)
    y += mean
    return y


@functools.lru_cache(maxsize=16)
def _tail_synthesis(cfg: ModelConfig, last: int) -> np.ndarray:
    """(n_out, last) complex S with Re(Y @ S) = irfft([0, Y], output_len)[-last:].

    Row j-1 is 2/n * exp(2 pi i j t / n) for the last `last` timesteps t; when
    the layer reaches the Nyquist bin its row is the real cos(pi t) / n, since
    irfft ignores that bin's imaginary part. Cached per (cfg, last), so the
    table is read-only. Folded into the layer by `_real_fold` wherever rows
    are scored through `_tail_rows`, and applied to the residual's
    contraction with z for forecast-only `model_backward` (`_tail_pass`).
    """
    n = cfg.output_len
    t = np.arange(n - last, n)
    j = np.arange(1, cfg.n_out + 1)[:, None]
    synth = (2.0 / n) * np.exp(2j * np.pi * ((j * t) % n) / n)
    if cfg.n_out == n // 2:
        synth[-1] = np.where(t % 2, -1.0, 1.0) / n
    synth.flags.writeable = False
    return synth


def _real_fold(layer: ComplexLinear, synth) -> np.ndarray:
    """The layer folded into the synthesis S, as (2 n_in + 2, last) reals V.

    Rows 2i and 2i+1 are Re and -Im of row i of W~ @ S, so for a row z of
    `_tail_rows`, z @ V = Re(z~ @ W~ @ S).
    """
    fold = np.empty((len(layer.weight) + 1, synth.shape[1]), np.complex128)
    np.matmul(layer.bias, synth, out=fold[0])
    np.matmul(layer.weight, synth, out=fold[1:])
    return np.stack((fold.real, -fold.imag), axis=1).reshape(-1, synth.shape[1])


def _tail_rows(x3, t3, cfg: ModelConfig, last: int):
    """(z, u) of a checked batch over the last `last` output and target rows.

    One row per instance channel: z is z~ = [std, kept bins of rfft(x - mean)]
    (`_scaled_bins`) as interleaved (re, im) reals, (batch*channels, 2 n_in + 2);
    u = t - mean is (batch*channels, last) in this thread's "target" buffer.
    With V = `_real_fold(layer, _tail_synthesis(cfg, last))` the error on
    those rows, y - t, is z @ V - u (`_tail_residual`).
    """
    z, mean = _scaled_bins(x3, cfg)
    u = _scratch("target", (x3.shape[0], cfg.channels, last))
    np.subtract(t3[:, -last:].transpose(0, 2, 1), mean.reshape(x3.shape[0], -1, 1), out=u)
    return z.view(np.float64), u.reshape(-1, last)


def _tail_residual(z, u, fold) -> np.ndarray:
    """z @ fold - u in this thread's "work" buffer, which `_tail_rows` leaves free."""
    r = np.matmul(z, fold, out=_scratch("work", u.shape))
    r -= u
    return r


def model_forward(x, cfg: ModelConfig, layer: ComplexLinear) -> np.ndarray:
    """Map an input window (or batch of windows) to the interpolated output."""
    _check_layer(cfg, layer)
    x3, squeeze = _as_batch(x, cfg.input_len, cfg.channels, "input")
    _check_finite(x3)
    stacked = np.concatenate((layer.bias[None], layer.weight), dtype=np.complex128)  # W~
    y_rows = np.concatenate(_halves(lambda w: _forward_rows(x3[w], cfg, stacked), cfg, len(x3)))
    y = y_rows.reshape(x3.shape[0], cfg.channels, cfg.output_len).transpose(0, 2, 1)
    return y[0] if squeeze else y


def _tail_pass(x3, t3, cfg: ModelConfig, fold, m: int, grad) -> float:
    """The forecast-only loss of a checked batch, as its share of a loss over m supervised values.

    fold is V, the layer folded into the forecast rows' synthesis
    (`_real_fold`); the residual is r = z V - u over the rows of `_tail_rows`.
    Writes [db; dW] = conj(z~)^T (2 / m) r S^H = conj(S (2 / m) r^T z~)^T into
    grad, an (n_in + 1, n_out) complex array.
    """
    last = cfg.target_rows
    z, u = _tail_rows(x3, t3, cfg, last)
    r = _tail_residual(z, u, fold)
    loss = float(np.vdot(r, r)) / m
    r *= 2.0 / m
    # S (r^T z~), fewer flops than (S r^T) z~ while batch*channels > rows;
    # u is spent, so its "target" buffer is free
    rz = np.matmul(r.T, z, out=_scratch("target", (last, z.shape[1]))).view(np.complex128)
    np.matmul(_tail_synthesis(cfg, last), rz, out=grad.T)
    np.conjugate(grad, out=grad)
    return loss


def _spectral_pass(x3, t3, cfg: ModelConfig, stacked, m: int, grad) -> float:
    """The whole-window loss of a checked batch, as its share of a loss over m supervised values.

    stacked is W~ = [b; W]. One row per instance channel: z~ of `_scaled_bins`,
    so z~ W~ is rfft(y - mean) over the layer's bins 1..n_out; B, the target's
    rfft T there; and e0, the squared spectral error outside those bins,
    which no layer changes: |n mean - T_0|^2 at DC, where the output's
    spectrum is n mean, plus |T_k|^2 twice for each bin above the layer,
    once for the Nyquist bin. Writes [db; dW] = 4 / (m n) conj(z~)^T R' into
    grad, an (n_in + 1, n_out) complex array.
    """
    n = cfg.output_len
    spectrum = _scratch("target", (t3.shape[0] * t3.shape[2], n // 2 + 1), np.complex128)
    # channel-major target rows: a view when the batch was gathered channel-major
    np.fft.rfft(t3.transpose(0, 2, 1).reshape(-1, n), axis=-1, out=spectrum)
    z, mean = _scaled_bins(x3, cfg)
    # rfft leaves the DC and Nyquist bins real: their squares are (re^2, 0)
    above = spectrum[:, 1 + cfg.n_out:].view(np.float64)
    np.square(above, out=above)
    e0 = above.sum(axis=-1)
    e0 *= 2.0
    if cfg.n_out < n // 2:
        e0 -= above[:, -2]
    dc = spectrum[:, 0].real - n * mean[:, 0]
    e0 += dc * dc
    b = spectrum[:, 1 : 1 + cfg.n_out]
    resid = np.matmul(z, stacked, out=_scratch("work", b.shape, np.complex128))
    resid -= b
    nyquist = cfg.n_out == n // 2
    if nyquist:
        resid[:, -1].imag = 0.0  # irfft ignores the Nyquist bin's imaginary part
    # a real signal's energy counts each bin below Nyquist twice, the Nyquist bin once
    energy = float(e0.sum()) + 2.0 * np.vdot(resid, resid).real
    if nyquist:
        energy -= np.vdot(resid[:, -1], resid[:, -1]).real
        resid[:, -1] *= 0.5
    # 4/(m n) folds the 2/m MSE factor and irfft's 2/n on every used bin
    np.matmul(np.conjugate(z, out=z).T, resid, out=grad)
    grad *= 4.0 / (m * n)
    return energy / (n * m)


def _checked_pair(x, target, cfg: ModelConfig, rows: int):
    """(x3, t3): an input batch and its `rows`-row target batch, checked as
    `model_backward` and every scoring pass accept them: the target's rows
    are the last `rows` of the output window."""
    if rows > cfg.output_len:
        raise ShapeError(f"{rows} target rows exceed the {cfg.output_len}-row output window")
    x3, _ = _as_batch(x, cfg.input_len, cfg.channels, "input")
    t3, _ = _as_batch(target, rows, cfg.channels, f"{cfg.supervision.value} target")
    if t3.shape[0] != x3.shape[0]:
        raise ShapeError(f"{t3.shape[0]} target windows for {x3.shape[0]} input windows")
    _check_finite(x3)
    return x3, t3


def model_backward(x, target, cfg: ModelConfig, layer: ComplexLinear):
    """MSE over the supervised region plus exact gradients (dW, db).

    Returns (loss, dW, db) with dW shaped like layer.weight and db like
    layer.bias; see the module docstring for the adjoint chain of each
    supervision. A batch that splits (`_halves`) runs the supervision's pass
    on each half, with one layer operand for both, and adds the halves'
    losses and gradients.
    """
    _check_layer(cfg, layer)
    x3, t3 = _checked_pair(x, target, cfg, cfg.target_rows)
    if cfg.target_rows < cfg.output_len:
        loss_pass, operand = _tail_pass, _real_fold(layer, _tail_synthesis(cfg, cfg.target_rows))
    else:
        loss_pass = _spectral_pass
        operand = np.concatenate((layer.bias[None], layer.weight), dtype=np.complex128)  # W~
    grad = np.empty((cfg.n_in + 1, cfg.n_out), np.complex128)  # [db; dW]

    def part(w):
        out = np.empty_like(grad) if w.start else grad
        return loss_pass(x3[w], t3[w], cfg, operand, t3.size, out), out

    (loss, _), *rest = _halves(part, cfg, len(x3))
    for second_loss, second in rest:
        loss += second_loss
        grad += second
    return loss, grad[1:], grad[0]


def init_params(cfg: ModelConfig, seed: int) -> ComplexLinear:
    """Seeded init: Re/Im of W iid uniform(-1/sqrt(n_in), +1/sqrt(n_in)), b = 0."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(cfg.n_in)
    w = rng.uniform(-bound, bound, (cfg.n_in, cfg.n_out)) + 1j * rng.uniform(
        -bound, bound, (cfg.n_in, cfg.n_out)
    )
    return ComplexLinear(w, np.zeros(cfg.n_out, dtype=np.complex128))


def param_count(cfg: ModelConfig) -> tuple[int, int]:
    """(complex entries, real scalars) of the trainable layer."""
    complex_entries = cfg.n_in * cfg.n_out + cfg.n_out
    return complex_entries, 2 * complex_entries


def pack_params(layer: ComplexLinear) -> np.ndarray:
    """Flatten to a new float64 vector: W row-major as interleaved (re, im), then b,
    taken as complex128 first. `train` steps this layout and FQCKPT01 stores it."""
    return np.concatenate([np.asarray(layer.weight, np.complex128).ravel(),
                           np.asarray(layer.bias, np.complex128)]).view(np.float64)


def unpack_params(theta: np.ndarray, cfg: ModelConfig) -> ComplexLinear:
    """Rebuild a layer whose arrays alias the flat parameter vector."""
    nw = 2 * cfg.n_in * cfg.n_out
    if theta.shape != (nw + 2 * cfg.n_out,):
        raise ShapeError(
            f"parameter vector has {theta.shape}, config needs {nw + 2 * cfg.n_out}"
        )
    w = theta[:nw].view(np.complex128).reshape(cfg.n_in, cfg.n_out)
    b = theta[nw:].view(np.complex128)
    return ComplexLinear(w, b)


# Checkpoint layout (little-endian), documented in the README:
#   8-byte magic  FQCKPT01
#   8 x int64     input_len, output_len, period, harmonic, channels,
#                 supervision code (0 forecast, 1 backcast+forecast), n_in, n_out
#   theta         pack_params(layer) as float64: W row-major, then b, (re, im) pairs
CHECKPOINT_MAGIC = b"FQCKPT01"
_SUP_CODE = {Supervision.FORECAST_ONLY: 0, Supervision.BACKCAST_AND_FORECAST: 1}
_SUP_FROM_CODE = {v: k for k, v in _SUP_CODE.items()}


def save_checkpoint(path, cfg: ModelConfig, layer: ComplexLinear) -> None:
    _check_layer(cfg, layer)
    header = struct.pack(
        "<8q",
        cfg.input_len,
        cfg.output_len,
        cfg.period,
        cfg.harmonic,
        cfg.channels,
        _SUP_CODE[cfg.supervision],
        cfg.n_in,
        cfg.n_out,
    )
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(header)
        fh.write(pack_params(layer).astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelConfig, ComplexLinear]:
    raw = Path(path).read_bytes()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise InvalidValueError(f"{path}: not a recognized checkpoint (bad magic)")
    if len(raw) < 72:
        raise InvalidValueError(f"{path}: truncated header ({len(raw)} of 72 bytes)")
    ints = struct.unpack("<8q", raw[8:72])
    if ints[5] not in _SUP_FROM_CODE:
        raise InvalidValueError(f"{path}: unknown supervision code {ints[5]}")
    try:
        cfg = ModelConfig(ints[0], ints[1], ints[2], ints[3], ints[4], _SUP_FROM_CODE[ints[5]])
    except (InvalidArgumentError, InvalidLengthError) as exc:
        raise InvalidValueError(f"{path}: stored config refused: {exc}") from None
    if (cfg.n_in, cfg.n_out) != (ints[6], ints[7]):
        raise InvalidValueError(
            f"{path}: stored layer dims {ints[6]}x{ints[7]} disagree with the "
            f"config-derived {cfg.n_in}x{cfg.n_out}"
        )
    need = 72 + 8 * param_count(cfg)[1]
    if len(raw) != need:
        raise InvalidValueError(f"{path}: expected {need} bytes, found {len(raw)}")
    theta = np.frombuffer(raw[72:], dtype="<f8").astype(np.float64)
    if not np.isfinite(theta).all():
        raise InvalidValueError(f"{path}: stored weights or bias are not all finite")
    return cfg, unpack_params(theta, cfg)
