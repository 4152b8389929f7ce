"""The frequency-interpolation network and its analytic gradients.

One window flows through a fixed sandwich around a single trainable
complex-valued linear layer (weights shared across channels):

    normalize  ->  rfft  ->  drop DC, keep first n_in bins  ->  X @ W + b
      -> zero-pad to output_len/2 bins, DC forced to 0  ->  irfft  -> denorm

Everything around the layer is linear or instance-affine, so the exact
gradient of the MSE with respect to W and b is an adjoint chain ending in

    dW = conj(X).T @ G        db = sum_batch G

where row r of G is the loss's gradient with respect to the layer output
bins of instance channel r. With n = output_len, m the number of supervised
values and std, mean the instance statistics, the chain to G depends on the
rows the loss covers (`ModelConfig.target_rows`):

* the whole output window (backcast+forecast, and every reconstruction
  model): the residual is formed in frequency. R = rfft(y - t) is
  std * [0, X W + b, 0...] + n * mean at DC - rfft(t), with the Nyquist
  bin's imaginary part dropped first because irfft drops it. Parseval gives
  the MSE, (|R_0|^2 + 2 sum_k |R_k|^2 + |R_n/2|^2) / (n m), and
  G = 4 / (m n) * std * R over the layer's bins. No inverse FFT is needed.
  When the layer reaches the Nyquist bin, G's entry there is halved and made
  real, since that bin enters the output once and only through its real part.
* the horizon rows only (forecast-only): S = `_tail_synthesis` maps the
  layer's bins to those rows, y = Re((X W + b) S) * std + mean, and with r
  the residual on them G = (2 / m) * std * r S^H: two real GEMMs, no FFT
  after the input's rfft, and no Nyquist fold, since S's Nyquist row is real.

Gradients are packaged as complex numbers whose real/imag parts are the
partial derivatives with respect to the real/imag parts of the parameter;
correctness is pinned by finite-difference checks in the test suite, and
the spectral loss by its time-domain value.

A large batch (at least 2^16 input values) is worked in two halves when BLAS
runs on one thread and another CPU is free (`_splits`): one worker thread,
started by the first such batch, takes the first half of the windows, and of
W's rows for dW and W @ S, while the calling thread takes the rest. The
halves cover the per-row work: the channel-major copy, normalization, FFTs,
X W + b, the residual, W @ S and dW. Every sum across rows (the loss, db),
G's scaling and the real GEMMs of the horizon route run once on the calling
thread over the whole batch. The buffers belong to the calling thread, and
each half writes only its own rows, so the outputs are the serial ones bit
for bit.
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
# a batch with fewer input values runs every pass on the calling thread alone
_SPLIT_VALUES = 1 << 16
_pool = None  # the worker thread of split passes, see `_worker`
_pool_lock = threading.Lock()


class Supervision(Enum):
    """Which part of the output window the training loss covers."""

    FORECAST_ONLY = "forecast"
    BACKCAST_AND_FORECAST = "backcast+forecast"


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
        return self.horizon if self.supervision is Supervision.FORECAST_ONLY else self.output_len

    def reconstructs(self, window: int, factor: int) -> bool:
        """Whether the layer maps every `factor`-th row of a `window`-row window back to it."""
        return self.input_len * factor == window == self.output_len


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
    if not np.all(np.isfinite(x)):
        raise InvalidValueError("input window contains non-finite values")
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
    undefined, and no function returns a view of one. A buffer belongs to the
    thread that asked for it; during a split pass the worker fills a disjoint
    row range of the caller's buffers. The buffers are: "work", the
    normalized input rows and then the layer's output bins or their
    gradient; "spectrum", the rows' spectrum; "target", the target's spectrum
    and then the residual's, or the tail rows and then their residual.
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

    A BLAS on more threads would compete for the CPU, and it cuts a product
    among its threads by the product's size, so a half could round
    differently from the same rows of the whole.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return _blas_threads(os.environ) == 1 and (cpus or 1) > 1


def _splits(values: int) -> bool:
    """Whether a batch of `values` input values runs its passes in two halves."""
    return values >= _SPLIT_VALUES and _cpu_idle()


def _worker():
    """The one worker thread of split passes, a ThreadPoolExecutor started by the first of them."""
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


# A pass's work is a function of `share`: share(count) is the slice of
# range(count) that this call covers. A half of one row would take NumPy's
# matrix-vector product, whose rounding differs from the matrix product's,
# so a range of fewer than 4 goes to the second half whole.
def _whole(count: int) -> slice:
    return slice(0, count)


def _first_half(count: int) -> slice:
    return slice(0, count // 2 if count >= 4 else 0)


def _second_half(count: int) -> slice:
    return slice(count // 2 if count >= 4 else 0, count)


def _in_halves(split: bool, work) -> None:
    """work(_whole) here, or work(_first_half) on the worker while work(_second_half) runs here.

    Returns or raises only once both halves finished, so the worker never
    writes into buffers after the call that owns them; an exception of the
    worker's half re-raises here.
    """
    if not split:
        work(_whole)
        return
    future = _worker().submit(work, _first_half)
    try:
        work(_second_half)
    finally:
        future.exception()  # waits for the worker's half, raising nothing
    future.result()


def _rows(windows: slice, channels: int) -> slice:
    """The channel-major rows of a slice of windows."""
    return slice(windows.start * channels, windows.stop * channels)


def _normalized_bins(x3, cfg: ModelConfig):
    """Buffers for the kept input bins of the normalized windows, and their filler.

    One (batch*channels, timesteps) row per instance channel keeps the
    normalizer reductions contiguous and the layer contraction a single BLAS
    matmul. Returns (kept, mean, std, normalize) with kept shaped
    (batch*channels, n_in), a view of this thread's spectrum buffer.
    normalize(windows) fills the rows of that slice of windows and no others,
    and returns their own block of this thread's "work" buffer: it held their
    normalized rows, contiguous, and is free once they are transformed. It
    has room for 1 + n_out complex numbers a row (`_complex_rows`).
    """
    batch, length, channels = x3.shape
    if not np.all(np.isfinite(x3)):
        raise InvalidValueError("input window contains non-finite values")
    width = max(length, 2 * (1 + cfg.n_out))  # floats of "work" a row
    work = _scratch("work", (batch * channels * width,))
    spectrum = _scratch("spectrum", (batch * channels, length // 2 + 1), np.complex128)
    mean = np.empty((batch * channels, 1))
    std = np.empty((batch * channels, 1))

    def normalize(windows: slice) -> np.ndarray:
        r = _rows(windows, channels)
        mu, sd, spec = mean[r], std[r], spectrum[r]
        block = work[r.start * width : r.stop * width]
        rows = block[: (r.stop - r.start) * length].reshape(-1, length)
        np.copyto(rows.reshape(-1, channels, length), x3[windows].transpose(0, 2, 1))
        rows.mean(axis=-1, keepdims=True, out=mu)
        # np.std's arithmetic, with the squares in the spectrum's storage:
        # centre, square, pairwise-sum each row, divide by the count, sqrt
        rows -= mu
        squares = spec.view(np.float64)[:, :length]
        np.multiply(rows, rows, out=squares)
        squares.sum(axis=-1, keepdims=True, out=sd)
        sd /= length
        np.sqrt(sd, out=sd)
        np.maximum(sd, RIN_EPS, out=sd)
        rows /= sd
        np.fft.rfft(rows, axis=-1, out=spec)
        return block

    return spectrum[:, 1 : 1 + cfg.n_in], mean, std, normalize


def _complex_rows(block, rows: int, cols: int) -> np.ndarray:
    """The start of a float block as a C-contiguous (rows, cols) complex array."""
    return block[: 2 * rows * cols].view(np.complex128).reshape(rows, cols)


def _layer_into(out, kept, layer: ComplexLinear):
    """out = kept @ W + b, computed in the caller's buffer."""
    np.matmul(kept, layer.weight, out=out)
    out += layer.bias
    return out


def _forward_rows(x3, cfg: ModelConfig, layer: ComplexLinear, split: bool):
    """Full-window pipeline: the (batch*channels, output_len) output rows."""
    kept, mean, std, normalize = _normalized_bins(x3, cfg)
    yn = np.empty((kept.shape[0], cfg.output_len))

    def synthesize(share):
        windows = share(x3.shape[0])
        r = _rows(windows, cfg.channels)
        bins = _complex_rows(normalize(windows), r.stop - r.start, 1 + cfg.n_out)
        # DC forced to 0; irfft zero-pads the bins above n_out itself
        bins[:, 0] = 0.0
        _layer_into(bins[:, 1:], kept[r], layer)
        np.fft.irfft(bins, n=cfg.output_len, axis=-1, out=yn[r])
        yn[r] *= std[r]
        yn[r] += mean[r]

    _in_halves(split, synthesize)
    return yn


@functools.lru_cache(maxsize=16)
def _tail_synthesis(cfg: ModelConfig, last: int) -> np.ndarray:
    """(n_out, last) complex S with Re(Y @ S) = irfft([0, Y], output_len)[-last:].

    Row j-1 is 2/n * exp(2 pi i j t / n) for the last `last` timesteps t; when
    the layer reaches the Nyquist bin its row is the real cos(pi t) / n, since
    irfft ignores that bin's imaginary part. Cached per (cfg, last), so the
    table is read-only. Used by `model_forward(..., last)` (so by `evaluate`) and,
    through `_tail_adjoint`, by forecast-only `model_backward`.
    """
    n = cfg.output_len
    t = np.arange(n - last, n)
    j = np.arange(1, cfg.n_out + 1)[:, None]
    synth = (2.0 / n) * np.exp(2j * np.pi * ((j * t) % n) / n)
    if cfg.n_out == n // 2:
        synth[-1] = np.where(t % 2, -1.0, 1.0) / n
    synth.flags.writeable = False
    return synth


@functools.lru_cache(maxsize=16)
def _tail_adjoint(cfg: ModelConfig, last: int) -> np.ndarray:
    """S^H as (last, 2 n_out) reals (Re S_j, -Im S_j): r @ it, viewed complex, is r @ S^H.

    `_forward_tail` builds the same real form (transposed) of W @ S.
    """
    adjoint = _tail_synthesis(cfg, last).conj().T.copy().view(np.float64)
    adjoint.flags.writeable = False
    return adjoint


def _forward_tail(x3, cfg: ModelConfig, layer: ComplexLinear, last: int, split: bool):
    """The last `last` output rows only, with the layer folded into the synthesis.

    V = W @ S maps kept input bins straight to the tail timesteps, so
    Re(X V) is one real GEMM on the interleaved (re, im) view of the kept
    bins; Re(b @ S) is the bias's share of every row. V is built once per
    call, by halves of W's rows beside the normalization. The real GEMM runs
    whole on this thread: OpenBLAS rounds some columns of a block of its rows
    differently from the same rows of the whole product. Returns (y_rows,
    kept, std) with y_rows (batch*channels, last) in this thread's "target"
    buffer.
    """
    kept, mean, std, normalize = _normalized_bins(x3, cfg)
    synth = _tail_synthesis(cfg, last)
    fold = np.empty((cfg.n_in, last), np.complex128)
    real_fold = np.empty((2 * cfg.n_in, last))

    def fold_and_normalize(share):
        k = share(cfg.n_in)
        np.matmul(layer.weight[k], synth, out=fold[k])
        real_fold[2 * k.start : 2 * k.stop : 2] = fold[k].real
        np.negative(fold[k].imag, out=real_fold[2 * k.start + 1 : 2 * k.stop : 2])
        normalize(share(x3.shape[0]))

    _in_halves(split, fold_and_normalize)
    yn = np.matmul(kept.view(np.float64), real_fold,
                   out=_scratch("target", (kept.shape[0], last)))
    yn += (layer.bias @ synth).real
    yn *= std
    yn += mean
    return yn, kept, std


def model_forward(x, cfg: ModelConfig, layer: ComplexLinear,
                  last: int | None = None) -> np.ndarray:
    """Map an input window (or batch of windows) to the interpolated output.

    `last=k` returns only the final k output rows. Below output_len they are
    computed by a direct tail synthesis, which agrees with the full output's
    last k rows to rounding but not bit for bit.
    """
    _check_layer(cfg, layer)
    x3, squeeze = _as_batch(x, cfg.input_len, cfg.channels, "input")
    if last is None:
        last = cfg.output_len
    if not 1 <= last <= cfg.output_len:
        raise InvalidArgumentError(
            f"last={last} outside the {cfg.output_len}-row output window"
        )
    split = _splits(x3.size)
    if last < cfg.output_len:
        y_rows = _forward_tail(x3, cfg, layer, last, split)[0].copy()  # the rows are scratch
    else:
        y_rows = _forward_rows(x3, cfg, layer, split)
    y = y_rows.reshape(x3.shape[0], cfg.channels, last).transpose(0, 2, 1)
    return y[0] if squeeze else y


def _spectral_residual(x3, t3, cfg: ModelConfig, layer: ComplexLinear, split: bool):
    """Full-window loss from spectra: (loss, kept, std, R) with R = rfft(y - t).

    rfft(y) is std * [0, X W + b, 0...] plus n * mean at DC, with the Nyquist
    bin's imaginary part dropped as irfft drops it, so R needs one rfft of the
    target and no inverse transform; Parseval gives the MSE.
    """
    n = cfg.output_len
    resid = _scratch("target", (t3.shape[0] * t3.shape[2], n // 2 + 1), np.complex128)
    kept, mean, std, normalize = _normalized_bins(x3, cfg)

    def residual(share):
        windows = share(x3.shape[0])
        r = _rows(windows, cfg.channels)
        res = resid[r]
        # channel-major target rows: a view when the batch was gathered channel-major
        np.fft.rfft(t3[windows].transpose(0, 2, 1).reshape(-1, n), axis=-1, out=res)
        block = normalize(windows)
        np.negative(res, out=res)
        res[:, 0] += n * mean[r, 0]
        bins = _layer_into(_complex_rows(block, r.stop - r.start, cfg.n_out), kept[r], layer)
        bins *= std[r]
        if cfg.n_out == n // 2:
            bins[:, -1].imag = 0.0
        res[:, 1 : 1 + cfg.n_out] += bins

    _in_halves(split, residual)
    # DC and Nyquist appear once in a real signal's energy, every other bin twice
    energy = (2.0 * np.vdot(resid, resid).real - np.vdot(resid[:, 0], resid[:, 0]).real
              - np.vdot(resid[:, -1], resid[:, -1]).real)
    return float(energy / (n * t3.size)), kept, std, resid


def _weight_gradient(kept, g, split: bool) -> np.ndarray:
    """dW = conj(kept).T @ g, by halves of dW's rows; conjugates kept (scratch) in place."""
    d_weight = np.empty((kept.shape[1], g.shape[1]), np.complex128)

    def rows_of_dw(share):
        k = share(kept.shape[1])
        np.matmul(np.conjugate(kept[:, k], out=kept[:, k]).T, g, out=d_weight[k])

    _in_halves(split, rows_of_dw)
    return d_weight


def model_backward(x, target, cfg: ModelConfig, layer: ComplexLinear):
    """MSE over the supervised region plus exact gradients (dW, db).

    Returns (loss, dW, db) with dW shaped like layer.weight and db like
    layer.bias; see the module docstring for the adjoint chain of each
    supervision.
    """
    _check_layer(cfg, layer)
    x3, _ = _as_batch(x, cfg.input_len, cfg.channels, "input")
    rows = cfg.target_rows
    t3, _ = _as_batch(target, rows, cfg.channels, f"{cfg.supervision.value} target")
    if t3.shape[0] != x3.shape[0]:
        raise ShapeError(f"{t3.shape[0]} target windows for {x3.shape[0]} input windows")

    split = _splits(x3.size)
    n = cfg.output_len
    m = t3.size
    if rows == n:
        loss, kept, std, resid = _spectral_residual(x3, t3, cfg, layer, split)
        g = resid[:, 1 : 1 + cfg.n_out]
        # 4/(m n) * std folds the 2/m MSE factor, irfft's 2/n on every used
        # bin and the instance std into one scaling
        g *= (4.0 / (m * n)) * std
        if cfg.n_out == n // 2:
            # irfft ignores the imaginary part of the Nyquist bin and counts it once
            g[:, -1] = g[:, -1].real * 0.5
    else:
        resid, kept, std = _forward_tail(x3, cfg, layer, rows, split)
        resid.reshape(-1, cfg.channels, rows)[...] -= t3.transpose(0, 2, 1)
        loss = float(np.vdot(resid, resid)) / m
        resid *= (2.0 / m) * std
        g = _scratch("work", (kept.shape[0], cfg.n_out), np.complex128)  # rows are spent
        np.matmul(resid, _tail_adjoint(cfg, rows), out=g.view(np.float64))

    d_weight = _weight_gradient(kept, g, split)
    d_bias = g.sum(axis=0)
    return loss, d_weight, d_bias


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
    """Flatten to float64: W row-major as interleaved (re, im), then b."""
    return np.concatenate(
        [
            np.ascontiguousarray(layer.weight).ravel().view(np.float64),
            np.ascontiguousarray(layer.bias).view(np.float64),
        ]
    )


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
#   W             n_in*n_out complex entries, row-major, (re, im) float64 pairs
#   b             n_out complex entries, (re, im) float64 pairs
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
        fh.write(np.ascontiguousarray(layer.weight, dtype="<c16").tobytes())
        fh.write(np.ascontiguousarray(layer.bias, dtype="<c16").tobytes())


def load_checkpoint(path) -> tuple[ModelConfig, ComplexLinear]:
    raw = Path(path).read_bytes()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise InvalidValueError(f"{path}: not a recognized checkpoint (bad magic)")
    if len(raw) < 72:
        raise InvalidValueError(f"{path}: truncated header ({len(raw)} of 72 bytes)")
    ints = struct.unpack("<8q", raw[8:72])
    if ints[5] not in _SUP_FROM_CODE:
        raise InvalidValueError(f"{path}: unknown supervision code {ints[5]}")
    cfg = ModelConfig(ints[0], ints[1], ints[2], ints[3], ints[4], _SUP_FROM_CODE[ints[5]])
    if (cfg.n_in, cfg.n_out) != (ints[6], ints[7]):
        raise InvalidValueError(
            f"{path}: stored layer dims {ints[6]}x{ints[7]} disagree with the "
            f"config-derived {cfg.n_in}x{cfg.n_out}"
        )
    need = 72 + 16 * (cfg.n_in * cfg.n_out + cfg.n_out)
    if len(raw) != need:
        raise InvalidValueError(f"{path}: expected {need} bytes, found {len(raw)}")
    flat = np.frombuffer(raw[72:], dtype="<c16")
    w = flat[: cfg.n_in * cfg.n_out].reshape(cfg.n_in, cfg.n_out).astype(np.complex128)
    b = flat[cfg.n_in * cfg.n_out :].astype(np.complex128)
    if not (np.isfinite(w).all() and np.isfinite(b).all()):
        raise InvalidValueError(f"{path}: stored weights or bias are not all finite")
    return cfg, ComplexLinear(w, b)
