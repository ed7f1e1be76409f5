"""Dense NCHW tensor primitives: convolution, normalization, activations,
pooling, resampling and edge extraction.

The in-memory currency of the whole runtime is a float32 numpy array laid
out row-major as (batch, channel, row, col).  Every function here is pure:
inputs are never mutated and outputs are freshly allocated.  Convolutions
read their zero-padded input as stride-phase planes (``_planes``: plane
(a, b) holds padded rows a::stride and columns b::stride) and take one of
two paths: depthwise kernels shift-and-accumulate their taps, each tap
one flat slice of a float64 plane, and dense and grouped kernels copy
im2col columns out of float32 planes and contract them in batched
matmuls.  Both accumulate in float64 before rounding back to float32,
which keeps results stable enough to compare against scalar reference
loops.  A conv allocates its float32 output once and works through it in
tiles (blocks of output rows, and of channels when depthwise) whose work
fits buffers of about ``_TILE`` elements reused from tile to tile, so no
float64 temporary ever spans the whole map and the input is never padded
as a whole; each tile is rounded straight into its slice of the output.
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
    Both paths read the padded input as stride-phase planes (``_planes``)
    built one tile at a time.  Depthwise kernels (``groups == C_in``, any
    channel multiplier) shift-and-accumulate over blocks of channels and
    output rows: each kernel tap is one flat slice of a float64 phase
    plane, scaled per channel and added in tap order.  Dense and grouped
    kernels copy their float64 im2col columns out of float32 planes for
    blocks of output rows and contract them in ``_contract_rows``.  Both paths accumulate in
    float64 and round each block to float32 in the output.
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
    s = p.stride
    ho = (h + 2 * p.padding - kh) // s + 1
    wo = (w + 2 * p.padding - kw) // s + 1
    # Plane columns: the output columns plus the spare ones a tap reads.
    wq = wo + (kw - 1) // s
    out = np.empty((n, co, ho, wo), dtype=np.float32)
    if p.groups != c:
        # A block of about _TILE plane elements serves every column tile in
        # it, so the rows a tap reads beyond a tile are built once a block.
        # The planes stay float32: the im2col copy does the cast, and
        # float64 planes would double the bytes each tap reads.
        span = max(1, _TILE // (n * c * s * s * wq))
        planes, p0, p1, buf = None, 0, 0, np.empty(0, dtype=np.float32)

        def fill(cols, r0, r1):
            nonlocal buf, planes, p0, p1
            if r1 > p1:
                p0, p1 = r0, min(ho, r0 + max(span, r1 - r0))
                planes, buf = _planes(x, p, p0, p1, buf)
            for t in range(kh * kw):
                i, j = divmod(t, kw)
                plane = planes[:, :, (i % s) * s + j % s]
                top = r0 - p0 + i // s
                cols[:, :, t] = plane[:, :, top : top + r1 - r0, j // s : j // s + wo]

        _contract_rows(out, p, fill)
        return out
    m = co // c
    k64 = p.kernel.astype(np.float64).reshape(c, m, kh * kw, 1)
    bias = None if p.bias is None else p.bias.astype(np.float64).reshape(c, m, 1)
    # Tap (i, j) of output (r, q) is plane (i % s, j % s) at row r + i // s,
    # column q + j // s.  Accumulating on rows of wq plane columns turns
    # every tap into one flat slice; the wq - wo spare columns are dropped.
    # Per channel and output row: accumulator, tap product and the planes.
    per_row = n * wq * (2 * m + s * s)
    rows = min(ho, max(1, _TILE // per_row))
    block = min(c, max(1, _TILE // (per_row * rows)))
    acc_buf, prod_buf = np.empty((2, n * block * m * rows * wq))
    buf = np.empty(0)
    for c0 in range(0, c, block):
        c1 = min(c0 + block, c)
        for r0 in range(0, ho, rows):
            r1 = min(r0 + rows, ho)
            size = (r1 - r0) * wq
            planes, buf = _planes(x[:, c0:c1], p, r0, r1, buf)
            flat = planes.reshape(n, c1 - c0, planes.shape[2], -1)
            acc = acc_buf[: n * (c1 - c0) * m * size].reshape(n, c1 - c0, m, size)
            prod = prod_buf[: acc.size].reshape(acc.shape)
            acc.fill(0.0)
            for t in range(kh * kw):
                i, j = divmod(t, kw)
                start = (i // s) * wq + j // s
                tap = flat[:, :, None, (i % s) * s + j % s, start : start + size]
                np.multiply(tap, k64[c0:c1, :, t], out=prod)
                acc += prod
            if bias is not None:
                acc += bias[c0:c1]
            block_out = acc.reshape(n, (c1 - c0) * m, r1 - r0, wq)
            out[:, c0 * m : c1 * m, r0:r1] = block_out[..., :wo]
    return out


def _planes(
    x: np.ndarray, p: ConvParams, r0: int, r1: int, buf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The zero-padded input of conv ``p`` over output rows r0:r1, split
    into stride-phase planes of ``buf``'s dtype.

    Returns ``(planes, buf)``.  planes is (N, C, stride**2, rows, wq):
    plane a * stride + b holds padded rows (r0 + t) * stride + a and
    columns u * stride + b, with wq = W_out + (k_w - 1) // stride.  rows
    covers every row a tap of those output rows reads, plus one row when
    the last flat tap slice of ``conv2d``'s depthwise path runs past them.
    planes is a view of ``buf`` when that is large enough, else of a new
    buffer, which is returned for the next tile; only the border strips
    around the copied input are zeroed.  An unpadded stride-1 1x1 conv
    gets a view of ``x`` (float32) and no copy.
    """
    n, c, h, w = x.shape
    _, _, kh, kw = p.kernel.shape
    s, pad = p.stride, p.padding
    if kh == kw == s == 1 and pad == 0:
        return x[:, :, None, r0:r1], buf
    wq = (w + 2 * pad - kw) // s + 1 + (kw - 1) // s
    rows = r1 - r0 + (kh - 1) // s + ((kw - 1) // s > 0)
    size = n * c * s * s * rows * wq
    if buf.size < size:
        buf = np.empty(size, dtype=buf.dtype)
    planes = buf[:size].reshape(n, c, s * s, rows, wq)
    for a in range(s):
        # Plane rows t_lo:t_hi and columns u_lo:u_hi hold input pixels.
        t_lo = min(rows, max(0, -((a - pad) // s) - r0))
        t_hi = max(t_lo, min(rows, -((a - pad - h) // s) - r0))
        y0 = (r0 + t_lo) * s + a - pad
        for b in range(s):
            u_lo = min(wq, max(0, -((b - pad) // s)))
            u_hi = max(u_lo, min(wq, -((b - pad - w) // s)))
            x0 = u_lo * s + b - pad
            plane = planes[:, :, a * s + b]
            plane[:, :, :t_lo] = 0.0
            plane[:, :, t_hi:] = 0.0
            plane[:, :, t_lo:t_hi, :u_lo] = 0.0
            plane[:, :, t_lo:t_hi, u_hi:] = 0.0
            plane[:, :, t_lo:t_hi, u_lo:u_hi] = x[
                :, :, y0 : y0 + s * (t_hi - t_lo) : s, x0 : x0 + s * (u_hi - u_lo) : s
            ]
    return planes, buf


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
    std = np.sqrt(p.running_var + np.float32(p.epsilon))[:, None, None]
    y = x - p.running_mean[:, None, None]
    y *= p.gamma[:, None, None]
    y /= std
    y += p.beta[:, None, None]
    return y


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows.  The numerator is 1 where x >= 0 (e <= 1
    # there) and e below, so the maximum picks the stable form per sign.
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1 + e)


def activation(x: np.ndarray, kind: ActivationKind) -> np.ndarray:
    x = np.asarray(x, dtype=np.float32)
    if kind == "relu":
        return np.maximum(x, np.float32(0.0))
    if kind == "silu":
        y = _sigmoid(x)
        y *= x
        return y
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
    gx *= gx
    gy *= gy
    gx += gy
    return np.sqrt(gx, out=gx)


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
