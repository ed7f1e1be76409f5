"""Dense NCHW tensor primitives: convolution, normalization, activations,
pooling, resampling and edge extraction.

The in-memory currency of the whole runtime is a float32 numpy array laid
out row-major as (batch, channel, row, col).  Every function here is pure:
inputs are never mutated and outputs are freshly allocated.  Convolutions
take one of two paths: depthwise kernels shift-and-accumulate their taps,
dense and grouped kernels contract im2col columns in batched matmuls.
Both accumulate in float64 before rounding back to float32, which keeps
results stable enough to compare against scalar reference loops.  A conv
allocates its float32 output once and works through it in tiles (blocks
of output rows, or of channels when depthwise) whose float64 work fits
one reused buffer of about ``_TILE`` elements, so no float64 temporary
ever spans the whole map; each tile is rounded straight into its slice
of the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FeatureMap = np.ndarray
"""Alias for a float32 array in (N, C, H, W) order."""

ActivationKind = Literal["relu", "silu", "sigmoid"]

# float64 elements (batch axis included) in the work buffer a conv reuses
# from tile to tile: 2 MB, which stays in a core's L2 cache.
_TILE = 1 << 18


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
    shift-and-accumulate over blocks of channels: each kernel tap is a
    strided view of the padded input, scaled per channel and added in tap
    order.  Dense and grouped kernels run as im2col columns for blocks of
    output rows, contracted by ``_contract_rows``.  Both paths accumulate
    in float64 and round each block to float32 in the output.
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
    out = np.empty((n, co, ho, wo), dtype=np.float32)
    if p.groups != c:

        def fill(cols, r0, r1):
            for t in range(kh * kw):
                i, j = divmod(t, kw)
                cols[:, :, t] = x[:, :, i + s * r0 : i + s * (r1 - 1) + 1 : s, j : j + s * wo : s]

        _contract_rows(out, p, fill)
        return out
    m = co // c
    k64 = p.kernel.astype(np.float64).reshape(c, m, kh * kw, 1, 1)
    bias = None if p.bias is None else p.bias.astype(np.float64).reshape(c, m, 1, 1)
    # The accumulator and the product of one tap share the tile.
    block = min(c, max(1, _TILE // (2 * n * m * ho * wo)))
    acc_buf, prod_buf = np.empty((2, n * block * m * ho * wo))
    for c0 in range(0, c, block):
        c1 = min(c0 + block, c)
        acc = acc_buf[: n * (c1 - c0) * m * ho * wo].reshape(n, c1 - c0, m, ho, wo)
        prod = prod_buf[: acc.size].reshape(acc.shape)
        acc.fill(0.0)
        for t in range(kh * kw):
            i, j = divmod(t, kw)
            tap = x[:, c0:c1, None, i : i + s * ho : s, j : j + s * wo : s]
            np.multiply(tap, k64[c0:c1, :, t], out=prod)
            acc += prod
        if bias is not None:
            acc += bias[c0:c1]
        out[:, c0 * m : c1 * m] = acc.reshape(n, (c1 - c0) * m, ho, wo)
    return out


def _contract_rows(
    out: np.ndarray, p: ConvParams, fill: Callable[[np.ndarray, int, int], None]
) -> None:
    """Write the float32 result of conv ``p`` into ``out`` (N, C_out, H_out,
    W_out), one block of output rows at a time.

    ``fill(cols, r0, r1)`` writes the float64 im2col columns
    (N, C_in, k_h*k_w, r1 - r0, W_out) of output rows r0:r1 into a view of
    one reused buffer of about ``_TILE`` elements.  Each block is contracted
    with the kernel as (groups, C_out/groups, C_in/groups*k_h*k_w) in one
    batched float64 matmul, gets the bias added in float64, and is rounded
    into its rows of ``out``.
    """
    n, co, ho, wo = out.shape
    _, cg, kh, kw = p.kernel.shape
    depth = p.in_channels * kh * kw
    rows = min(ho, max(1, _TILE // (n * depth * wo)))
    buf = np.empty(n * depth * rows * wo)
    k64 = p.kernel.astype(np.float64).reshape(p.groups, co // p.groups, cg * kh * kw)
    bias = None if p.bias is None else p.bias.astype(np.float64)[:, None]
    for r0 in range(0, ho, rows):
        r1 = min(r0 + rows, ho)
        cols = buf[: n * depth * (r1 - r0) * wo].reshape(n, p.in_channels, kh * kw, r1 - r0, wo)
        fill(cols, r0, r1)
        block = np.matmul(k64, cols.reshape(n, p.groups, cg * kh * kw, -1)).reshape(n, co, -1)
        if bias is not None:
            block += bias
        out[:, :, r0:r1] = block.reshape(n, co, r1 - r0, wo)


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
