"""The frequency-interpolation network and its analytic gradients.

One window flows through a fixed sandwich around a single trainable
complex-valued linear layer (weights shared across channels):

    normalize  ->  rfft  ->  drop DC, keep first n_in bins  ->  X @ W + b
      -> zero-pad to output_len/2 bins, DC forced to 0  ->  irfft  -> denorm

Everything around the layer is linear or instance-affine, so the exact
gradient of the time-domain MSE with respect to W and b is an adjoint chain:
scale the residual by the instance std, push it through the rfft adjoint
(1/N factor from the inverse convention, conjugate-symmetric doubling on
every bin except DC and Nyquist), slice the bins the layer produced, then

    dW = conj(X).T @ G        db = sum_batch G

Gradients are packaged as complex numbers whose real/imag parts are the
partial derivatives with respect to the real/imag parts of the parameter;
correctness is pinned by the finite-difference checks in the test suite.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
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
    cutoff: int = field(init=False)
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
        if self.harmonic == 0:
            k = self.input_len // 2
        else:
            k = cutoff_bins(self.input_len, self.period, self.harmonic)
        object.__setattr__(self, "cutoff", k)
        object.__setattr__(self, "n_in", k)
        n_out = min(k * self.output_len // self.input_len, self.output_len // 2)
        object.__setattr__(self, "n_out", n_out)

    @classmethod
    def for_forecast(cls, input_len, horizon, period, harmonic, channels,
                     supervision=Supervision.BACKCAST_AND_FORECAST):
        return cls(input_len, input_len + horizon, period, harmonic, channels, supervision)

    @classmethod
    def for_reconstruction(cls, window, factor, channels):
        """Upsample a factor-downsampled window back to its original length."""
        if window % factor != 0:
            raise InvalidArgumentError(f"factor {factor} does not divide window {window}")
        return cls(window // factor, window, 1, 0, channels,
                   Supervision.BACKCAST_AND_FORECAST)

    @property
    def horizon(self) -> int:
        return self.output_len - self.input_len

    @property
    def eta(self) -> Fraction:
        """Interpolation rate output_len/input_len as an exact rational."""
        return Fraction(self.output_len, self.input_len)


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
    eps: float = RIN_EPS


def rin_normalize(x) -> tuple[np.ndarray, RinState]:
    """Normalize each channel of each instance to zero mean, unit (population) std.

    Accepts (L, C) or (B, L, C); statistics are taken over the L axis, and a
    degenerate std is replaced by eps so constant channels map to zeros.
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


def complex_linear_forward(x, layer: ComplexLinear) -> np.ndarray:
    """Y = X @ W + b for a (batch, n_in) complex matrix."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2 or x.shape[1] != layer.weight.shape[0]:
        raise ShapeError(
            f"expected (batch, {layer.weight.shape[0]}) input, got shape {x.shape}"
        )
    return x @ layer.weight + layer.bias


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


def _forward_rows(x3, cfg: ModelConfig, layer: ComplexLinear):
    """Batched pipeline in channel-major layout.

    One (batch*channels, timesteps) row per instance channel keeps the
    normalizer reductions contiguous and the layer contraction a single BLAS
    matmul. Returns (y_rows, kept, mean, std) with y_rows shaped
    (batch*channels, output_len).
    """
    batch, length, channels = x3.shape
    if not np.all(np.isfinite(x3)):
        raise InvalidValueError("input window contains non-finite values")
    # explicit copy: the transpose can alias the caller's array when C == 1,
    # and the buffer is normalized in place below
    rows = np.empty((batch, channels, length))
    np.copyto(rows, x3.transpose(0, 2, 1))
    rows = rows.reshape(batch * channels, length)
    mean = rows.mean(axis=-1, keepdims=True)
    std = np.maximum(rows.std(axis=-1, keepdims=True), RIN_EPS)
    rows -= mean  # rows is our private copy; normalize it in place
    rows /= std
    spec = np.fft.rfft(rows, axis=-1)
    kept = spec[:, 1 : 1 + cfg.n_in]
    out = kept @ layer.weight + layer.bias
    padded = np.zeros((batch * channels, cfg.output_len // 2 + 1), dtype=np.complex128)
    padded[:, 1 : 1 + cfg.n_out] = out
    yn = np.fft.irfft(padded, n=cfg.output_len, axis=-1)
    yn *= std
    yn += mean
    return yn, kept, mean, std


def _rows_to_batch(y_rows, batch: int, channels: int) -> np.ndarray:
    return y_rows.reshape(batch, channels, -1).transpose(0, 2, 1)


def model_forward(x, cfg: ModelConfig, layer: ComplexLinear) -> np.ndarray:
    """Map an input window (or batch of windows) to the interpolated output."""
    _check_layer(cfg, layer)
    x3, squeeze = _as_batch(x, cfg.input_len, cfg.channels, "input")
    y_rows, _, _, _ = _forward_rows(x3, cfg, layer)
    y = _rows_to_batch(y_rows, x3.shape[0], x3.shape[2])
    return y[0] if squeeze else y


def _supervised_rows(cfg: ModelConfig, target_rows: int) -> int:
    if cfg.supervision is Supervision.BACKCAST_AND_FORECAST:
        expected = cfg.output_len
    else:
        expected = cfg.horizon
        if expected == 0:
            raise InvalidArgumentError("forecast-only supervision needs a positive horizon")
    if target_rows != expected:
        raise ShapeError(
            f"{cfg.supervision.value} supervision expects {expected} target rows, "
            f"got {target_rows}"
        )
    return expected


def model_backward(x, target, cfg: ModelConfig, layer: ComplexLinear):
    """MSE over the supervised region plus exact gradients (dW, db).

    Returns (loss, dW, db) with dW shaped like layer.weight and db like
    layer.bias; see the module docstring for the adjoint chain.
    """
    _check_layer(cfg, layer)
    x3, _ = _as_batch(x, cfg.input_len, cfg.channels, "input")
    t3 = np.asarray(target, dtype=np.float64)
    if t3.ndim == 2:
        t3 = t3[None]
    rows = _supervised_rows(cfg, t3.shape[1])
    if t3.shape != (x3.shape[0], rows, x3.shape[2]):
        raise ShapeError(
            f"target shape {np.asarray(target).shape} does not match batch "
            f"{x3.shape[0]} x {rows} rows x {x3.shape[2]} channels"
        )

    batch, _, channels = x3.shape
    y_rows, kept, _, std = _forward_rows(x3, cfg, layer)
    t_rows = np.ascontiguousarray(t3.transpose(0, 2, 1)).reshape(batch * channels, rows)
    resid = y_rows[:, cfg.output_len - rows :] - t_rows
    m = resid.size
    loss = float(np.mean(resid**2))

    # adjoint of (irfft o pad): 2/n on every used bin except Nyquist (1/n),
    # folded together with the 2/m MSE factor and the instance std into one
    # in-place scaling of the residual
    n = cfg.output_len
    resid *= 4.0 / (m * n)
    resid *= std
    if rows == n:
        grad_rows = resid
    else:
        grad_rows = np.zeros_like(y_rows)
        grad_rows[:, n - rows :] = resid
    grad_bins = np.fft.rfft(grad_rows, axis=-1)
    g = grad_bins[:, 1 : 1 + cfg.n_out]
    if cfg.n_out == n // 2:
        # irfft ignores the imaginary part of the Nyquist bin
        g[:, -1] = g[:, -1].real * 0.5

    d_weight = kept.conj().T @ g
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
    return cfg, ComplexLinear(w, b)
