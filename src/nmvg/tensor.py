"""Dense NCHW tensor primitives: convolution, normalization, activations,
pooling, resampling and edge extraction.

The in-memory currency of the whole runtime is a float32 numpy array laid
out row-major as (batch, channel, row, col).  Every function here is pure:
inputs are never mutated and outputs are freshly allocated.  Convolutions
take one of two paths: depthwise kernels shift-and-accumulate their taps,
dense and grouped kernels contract im2col columns in one batched matmul.
Both accumulate in float64 before rounding back to float32, which keeps
results stable enough to compare against scalar reference loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FeatureMap = np.ndarray
"""Alias for a float32 array in (N, C, H, W) order."""

ActivationKind = Literal["relu", "silu", "sigmoid"]


class ShapeError(ValueError):
    """Input dimensions violate an operation's contract."""


def feature_map(values, shape: tuple[int, int, int, int] | None = None) -> FeatureMap:
    """Build a validated, read-only feature map.

    ``values`` may be nested sequences or a flat buffer combined with an
    explicit ``shape``.  The result is float32, C-contiguous, 4-D and
    contains only finite values.
    """
    arr = np.asarray(values, dtype=np.float32)
    if shape is not None:
        expected = int(np.prod(shape))
        if arr.size != expected:
            raise ShapeError(
                f"flat buffer has {arr.size} elements, shape {tuple(shape)} needs {expected}"
            )
        arr = arr.reshape(shape)
    if arr.ndim != 4:
        raise ShapeError(f"feature maps are (N, C, H, W); got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError("feature map contains non-finite values")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _as_f32(x, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim != ndim:
        raise ShapeError(f"{what} must be {ndim}-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class ConvParams:
    """Weights for a (possibly grouped) 2-D convolution.

    kernel is (C_out, C_in // groups, k_h, k_w); bias, when present, is
    (C_out,).  ``groups == C_in`` gives a depthwise convolution.
    """

    kernel: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        k = np.ascontiguousarray(np.asarray(self.kernel, dtype=np.float32))
        if k.ndim != 4:
            raise ShapeError(f"conv kernel must be 4-D, got shape {k.shape}")
        object.__setattr__(self, "kernel", k)
        if self.bias is not None:
            b = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float32))
            if b.shape != (k.shape[0],):
                raise ShapeError(
                    f"bias shape {b.shape} does not match {k.shape[0]} output channels"
                )
            object.__setattr__(self, "bias", b)
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ShapeError(f"padding must be >= 0, got {self.padding}")
        if self.groups < 1 or k.shape[0] % self.groups != 0:
            raise ShapeError(
                f"groups ({self.groups}) must divide output channels ({k.shape[0]})"
            )

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1] * self.groups

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[0]


@dataclass(frozen=True, eq=False)
class BNParams:
    """Inference-time batch normalization statistics for C channels."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5

    def __post_init__(self):
        arrs = {}
        for name in ("gamma", "beta", "running_mean", "running_var"):
            a = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float32))
            if a.ndim != 1:
                raise ShapeError(f"{name} must be 1-D, got shape {a.shape}")
            arrs[name] = a
        lengths = {a.shape[0] for a in arrs.values()}
        if len(lengths) != 1:
            raise ShapeError(f"batchnorm fields disagree on channel count: {sorted(lengths)}")
        if (arrs["running_var"] < 0).any():
            raise ValueError("running_var contains negative entries")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        for name, a in arrs.items():
            object.__setattr__(self, name, a)

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


def conv2d(x: FeatureMap, p: ConvParams) -> FeatureMap:
    """Grouped 2-D cross-correlation with zero padding.

    Output spatial dims follow floor((H + 2*pad - k_h) / stride) + 1.
    Depthwise kernels (``groups == C_in``, any channel multiplier) run as a
    shift-and-accumulate: each kernel tap is a strided view of the padded
    input, scaled per channel and added in tap order.  Dense and grouped
    kernels run as im2col columns contracted by ``_grouped_matmul``.  Both
    paths accumulate in float64 and round the result to float32.
    """
    x = _as_f32(x, 4, "conv input")
    n, c, h, w = x.shape
    if c != p.in_channels:
        raise ShapeError(f"input has {c} channels, kernel expects {p.in_channels}")
    co, cg, kh, kw = p.kernel.shape
    if h + 2 * p.padding < kh or w + 2 * p.padding < kw:
        raise ShapeError(
            f"spatial dims {(h, w)} too small for kernel {(kh, kw)} at padding {p.padding}"
        )
    if p.padding:
        pad = p.padding
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    s = p.stride
    ho = (x.shape[2] - kh) // s + 1
    wo = (x.shape[3] - kw) // s + 1
    taps = [x[:, :, i : i + s * ho : s, j : j + s * wo : s] for i in range(kh) for j in range(kw)]
    if p.groups == c:
        k64 = p.kernel.astype(np.float64).reshape(c, co // c, kh * kw, 1, 1)
        out = np.zeros((n, c, co // c, ho, wo))
        for t, tap in enumerate(taps):
            out += tap[:, :, None] * k64[:, :, t]
    else:
        cols = np.empty((n, c, kh * kw, ho, wo))
        for t, tap in enumerate(taps):
            cols[:, :, t] = tap
        out = _grouped_matmul(cols, p.kernel, p.groups)
    out = out.reshape(n, co, ho, wo)
    if p.bias is not None:
        out = out + p.bias.astype(np.float64)[:, None, None]
    return out.astype(np.float32)


def _grouped_matmul(cols: np.ndarray, kernel: np.ndarray, groups: int) -> np.ndarray:
    """One batched float64 matmul of a (C_out, C // groups, k_h, k_w) kernel
    with im2col columns (N, C, k_h*k_w, *pixels); returns (N, C_out, pixels)."""
    n = cols.shape[0]
    co = kernel.shape[0]
    k64 = kernel.astype(np.float64).reshape(groups, co // groups, -1)
    out = np.matmul(k64, cols.reshape(n, groups, k64.shape[2], -1))
    return out.reshape(n, co, -1)


def batchnorm_inference(x: FeatureMap, p: BNParams) -> FeatureMap:
    """Per-channel affine normalization using frozen running statistics."""
    x = _as_f32(x, 4, "batchnorm input")
    if x.shape[1] != p.channels:
        raise ShapeError(f"input has {x.shape[1]} channels, batchnorm expects {p.channels}")
    gamma = p.gamma[:, None, None]
    beta = p.beta[:, None, None]
    mean = p.running_mean[:, None, None]
    std = np.sqrt(p.running_var + np.float32(p.epsilon))[:, None, None]
    return (gamma * (x - mean) / std + beta).astype(np.float32)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; pick the stable form for each sign.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1 / (1 + e), e / (1 + e))


def activation(x: np.ndarray, kind: ActivationKind) -> np.ndarray:
    x = np.asarray(x, dtype=np.float32)
    if kind == "relu":
        return np.maximum(x, np.float32(0.0))
    if kind == "silu":
        return (x * _sigmoid(x)).astype(np.float32)
    if kind == "sigmoid":
        return _sigmoid(x)
    raise ValueError(f"unknown activation kind: {kind!r}")


def maxpool1d(x: np.ndarray, kernel: int = 3, stride: int = 2) -> np.ndarray:
    """Max pooling over the last axis of a (C, L) or (N, C, L) array.

    Output length is floor((L - kernel) / stride) + 1; no padding.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim not in (2, 3):
        raise ShapeError(f"maxpool1d expects (C, L) or (N, C, L), got shape {x.shape}")
    if kernel < 1 or stride < 1:
        raise ShapeError(f"kernel and stride must be >= 1, got {kernel}, {stride}")
    if x.shape[-1] < kernel:
        raise ShapeError(
            f"sequence length {x.shape[-1]} is shorter than the pooling window {kernel}"
        )
    win = sliding_window_view(x, kernel, axis=-1)[..., ::stride, :]
    return win.max(axis=-1)


_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float32)
_SOBEL_Y = _SOBEL_X.T.copy()


def sobel(x: FeatureMap) -> FeatureMap:
    """Per-channel gradient magnitude sqrt(Gx^2 + Gy^2), zero padded."""
    x = _as_f32(x, 4, "sobel input")
    if x.shape[2] < 3 or x.shape[3] < 3:
        raise ShapeError(f"sobel needs spatial dims >= 3, got {x.shape[2:]}")
    c = x.shape[1]
    px = ConvParams(np.tile(_SOBEL_X, (c, 1, 1, 1)), padding=1, groups=c)
    py = ConvParams(np.tile(_SOBEL_Y, (c, 1, 1, 1)), padding=1, groups=c)
    gx = conv2d(x, px)
    gy = conv2d(x, py)
    return np.sqrt(gx * gx + gy * gy).astype(np.float32)


def _upsample_nearest(x: np.ndarray, factor: int) -> np.ndarray:
    return np.repeat(np.repeat(x, factor, axis=2), factor, axis=3)


def _upsample_bilinear(x: np.ndarray, factor: int) -> np.ndarray:
    n, c, h, w = x.shape
    ho, wo = h * factor, w * factor
    # Half-pixel source coordinates, edge-clamped.
    ys = np.clip((np.arange(ho, dtype=np.float64) + 0.5) / factor - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(wo, dtype=np.float64) + 0.5) / factor - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0).astype(np.float32)
    wx = (xs - x0).astype(np.float32)
    wy = wy[:, None]
    wx = wx[None, :]
    tl = x[:, :, y0[:, None], x0[None, :]]
    tr = x[:, :, y0[:, None], x1[None, :]]
    bl = x[:, :, y1[:, None], x0[None, :]]
    br = x[:, :, y1[:, None], x1[None, :]]
    top = tl * (1 - wx) + tr * wx
    bot = bl * (1 - wx) + br * wx
    return (top * (1 - wy) + bot * wy).astype(np.float32)


def upsample(x: FeatureMap, factor: int, mode: str = "nearest") -> FeatureMap:
    """Integer-factor spatial upsampling, nearest or bilinear (half-pixel)."""
    x = _as_f32(x, 4, "upsample input")
    if int(factor) != factor or factor < 1:
        raise ShapeError(f"upsample factor must be a positive integer, got {factor}")
    factor = int(factor)
    if mode not in ("nearest", "bilinear"):
        raise ValueError(f"unknown upsample mode: {mode!r}")
    if factor == 1:
        return x.copy()
    if mode == "nearest":
        return _upsample_nearest(x, factor)
    return _upsample_bilinear(x, factor)


def global_avg_pool(x: FeatureMap) -> np.ndarray:
    """Spatial mean per channel, returned as (N, C)."""
    x = _as_f32(x, 4, "pool input")
    return x.mean(axis=(2, 3), dtype=np.float64).astype(np.float32)
