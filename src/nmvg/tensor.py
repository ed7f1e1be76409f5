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
``conv2d(x, p, bn, act)`` then finishes that slice in place with
batchnorm and an activation while it is still in cache, in the tile's own
free work buffer, using the same in-place helpers (``_normalize``,
``_activate``) as ``batchnorm_inference`` and ``activation``, so the fused
result equals the separate passes bit for bit.

Threading: ``_map_tiles`` splits a conv's tiles into one contiguous chunk
per core the process may run on; the calling thread runs the first chunk
and a module-level pool of cores - 1 threads the others, while numpy
releases the GIL inside each copy, ufunc and matmul.  The calling thread
allocates every chunk's buffers.  Tiles, tap order and GEMM shapes do not
depend on the split, so outputs are bitwise the same on any core count.
The pool (and ``concurrent.futures``) is made by the first conv that
spans two chunks, and made again by a forked child's first such conv.
With more than one core, importing this module puts numpy's bundled
OpenBLAS on one thread for the whole process, since the cores already run
one tile each.  The threading and the OpenBLAS pin were timed on two
cores only.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Literal, get_args

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FeatureMap = np.ndarray
"""Alias for a float32 array in (N, C, H, W) order."""

ActivationKind = Literal["relu", "silu", "sigmoid"]
_KINDS = get_args(ActivationKind)

# float64 elements (batch axis included) in the work buffer a conv reuses
# from tile to tile: 2 MB, which stays in a core's L2 cache.
_TILE = 1 << 18

# A conv splits its tiles into one chunk per core: the calling thread runs
# the first and the _CORES - 1 threads of _pool() the others.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = None  # a concurrent.futures.ThreadPoolExecutor once _pool() made it
_POOL_LOCK = threading.Lock()
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads",
)


def _pool():
    """The tile pool, made (and ``concurrent.futures`` imported) by the
    first conv that spans two chunks."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(_CORES - 1, thread_name_prefix="nmvg-tiles")
        return _POOL


def _drop_pool() -> None:
    """Forget the pool in a forked child, whose copy of it has no threads
    (and whose copy of the lock another thread may hold); the child's first
    multi-chunk conv makes its own."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


def _pin_blas() -> None:
    """Put numpy's bundled OpenBLAS on one thread.

    The tile GEMMs are small (about ``_TILE`` elements), and an OpenBLAS
    that splits each one over the cores the pool already keeps busy only
    adds spin-waiting threads.  A forked child inherits the setting.
    """
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        setter = next((getattr(handle, fn) for fn in _BLAS_THREAD_SETTERS if hasattr(handle, fn)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return


if _CORES > 1:
    _pin_blas()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


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


def conv2d(
    x: FeatureMap, p: ConvParams, bn: BNParams | None = None, act: ActivationKind | None = None
) -> FeatureMap:
    """Grouped 2-D cross-correlation with zero padding, optionally finished
    by batchnorm ``bn`` and then activation ``act``.

    Output spatial dims follow floor((H + 2*pad - k_h) / stride) + 1.
    Both paths read the padded input as stride-phase planes (``_planes``)
    built one tile at a time.  Depthwise kernels (``groups == C_in``, any
    channel multiplier) shift-and-accumulate over blocks of channels and
    output rows: each kernel tap is one flat slice of a float64 phase
    plane, scaled per channel and added in tap order.  Dense and grouped
    kernels copy their float64 im2col columns out of float32 planes for
    blocks of output rows and contract them in ``_contract_rows``.  Both
    paths accumulate in float64, round each block to float32 in the
    output, and spread their blocks over the cores with ``_map_tiles``.
    Each block then gets ``bn`` and ``act`` in place while it is still in
    cache, which equals ``activation(batchnorm_inference(conv2d(x, p), bn),
    act)`` bit for bit.
    """
    x = _as_f32(x, 4, "conv input")
    n, c, h, w = x.shape
    if n < 1:
        raise ShapeError(f"conv input has an empty batch, got shape {x.shape}")
    if c != p.in_channels:
        raise ShapeError(f"input has {c} channels, kernel expects {p.in_channels}")
    co, cg, kh, kw = p.kernel.shape
    finish = None if bn is None and act is None else _epilogue(bn, act, co)
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

        def make_fill(rows):
            buf = _plane_buffer(x, p, min(ho, max(span, rows)), np.float32)
            planes, p0, p1 = None, 0, 0

            def fill(cols, r0, r1):
                nonlocal planes, p0, p1
                if r1 > p1:
                    p0, p1 = r0, min(ho, r0 + max(span, r1 - r0))
                    planes = _planes(x, p, p0, p1, buf)
                for t in range(kh * kw):
                    i, j = divmod(t, kw)
                    plane = planes[:, :, (i % s) * s + j % s]
                    top = r0 - p0 + i // s
                    cols[:, :, t] = plane[:, :, top : top + r1 - r0, j // s : j // s + wo]

            return fill

        _contract_rows(out, p, make_fill, finish)
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

    def make_tile():
        acc_buf, prod_buf = np.empty((2, n * block * m * rows * wq))
        buf = _plane_buffer(x[:, :block], p, rows, np.float64)

        def tile(at):
            c0, r0 = at
            c1, r1 = min(c0 + block, c), min(r0 + rows, ho)
            size = (r1 - r0) * wq
            planes = _planes(x[:, c0:c1], p, r0, r1, buf)
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
            if finish is not None:
                finish(out[:, c0 * m : c1 * m, r0:r1], c0 * m, c1 * m, prod_buf.view(np.float32))

        return tile

    _map_tiles([(c0, r0) for c0 in range(0, c, block) for r0 in range(0, ho, rows)], make_tile)
    return out


def _plane_buffer(x: np.ndarray, p: ConvParams, rows: int, dtype) -> np.ndarray:
    """An empty buffer that holds ``_planes(x, p, r0, r1, buf)`` for any
    r1 - r0 <= rows; empty when those planes are a view of ``x``."""
    n, c, _, w = x.shape
    _, _, kh, kw = p.kernel.shape
    s, pad = p.stride, p.padding
    if kh == kw == s == 1 and pad == 0:
        return np.empty(0, dtype=dtype)
    wq = (w + 2 * pad - kw) // s + 1 + (kw - 1) // s
    return np.empty(n * c * s * s * (rows + (kh - 1) // s + ((kw - 1) // s > 0)) * wq, dtype)


def _planes(x: np.ndarray, p: ConvParams, r0: int, r1: int, buf: np.ndarray) -> np.ndarray:
    """The zero-padded input of conv ``p`` over output rows r0:r1, split
    into stride-phase planes in a view of ``buf`` (see ``_plane_buffer``).

    The planes are (N, C, stride**2, rows, wq): plane a * stride + b holds
    padded rows (r0 + t) * stride + a and columns u * stride + b, with
    wq = W_out + (k_w - 1) // stride.  rows covers every row a tap of
    those output rows reads, plus one row when the last flat tap slice of
    ``conv2d``'s depthwise path runs past them.  Only the border strips
    around the copied input are zeroed.  An unpadded stride-1 1x1 conv
    gets a view of ``x`` (float32) and no copy.
    """
    n, c, h, w = x.shape
    _, _, kh, kw = p.kernel.shape
    s, pad = p.stride, p.padding
    if kh == kw == s == 1 and pad == 0:
        return x[:, :, None, r0:r1]
    wq = (w + 2 * pad - kw) // s + 1 + (kw - 1) // s
    rows = r1 - r0 + (kh - 1) // s + ((kw - 1) // s > 0)
    planes = buf[: n * c * s * s * rows * wq].reshape(n, c, s * s, rows, wq)
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
    return planes


def _contract_rows(
    out: np.ndarray,
    p: ConvParams,
    make_fill: Callable[[int], Callable[[np.ndarray, int, int], None]],
    finish: Callable | None = None,
) -> None:
    """Write the float32 result of conv ``p`` into ``out`` (N, C_out, H_out,
    W_out), one block of output rows at a time.

    ``make_fill(rows)`` returns a ``fill(cols, r0, r1)`` for blocks of at
    most ``rows`` rows; it is called once per chunk of blocks, on the
    calling thread, so it allocates that chunk's scratch there.  fill
    writes the float64 im2col columns (N, C_in, k_h*k_w, r1 - r0, W_out) of
    output rows r0:r1 into a view of a buffer of about ``_TILE`` elements.
    Each block is contracted with the kernel as
    (groups, C_out/groups, C_in/groups*k_h*k_w) in one batched float64
    matmul into a reused result buffer, which the larger of depth and
    C_out keeps near ``_TILE`` elements too, gets the bias added in
    float64, and is rounded into its rows of ``out``, which ``finish``
    (see ``_epilogue``) then finishes in place.
    """
    n, co, ho, wo = out.shape
    _, cg, kh, kw = p.kernel.shape
    depth = p.in_channels * kh * kw
    rows = min(ho, max(1, _TILE // (n * max(depth, co) * wo)))
    k64 = p.kernel.astype(np.float64).reshape(p.groups, co // p.groups, cg * kh * kw)
    bias = None if p.bias is None else p.bias.astype(np.float64)[:, None]

    def make_tile():
        buf = np.empty(n * depth * rows * wo)
        res_buf = np.empty(n * co * rows * wo)
        fill = make_fill(rows)

        def tile(r0):
            r1 = min(r0 + rows, ho)
            cols = buf[: n * depth * (r1 - r0) * wo].reshape(n, p.in_channels, kh * kw, r1 - r0, wo)
            fill(cols, r0, r1)
            res = res_buf[: n * co * (r1 - r0) * wo]
            np.matmul(
                k64,
                cols.reshape(n, p.groups, cg * kh * kw, -1),
                out=res.reshape(n, p.groups, co // p.groups, -1),
            )
            block = res.reshape(n, co, -1)
            if bias is not None:
                block += bias
            out[:, :, r0:r1] = block.reshape(n, co, r1 - r0, wo)
            if finish is not None:
                finish(out[:, :, r0:r1], 0, co, res_buf.view(np.float32))

        return tile

    _map_tiles(list(range(0, ho, rows)), make_tile)


def _map_tiles(tiles: list, make_tile: Callable[[], Callable]) -> None:
    """Run ``tile(t)`` for every t in ``tiles``, split into one contiguous
    chunk per core.

    ``make_tile()`` is called on the calling thread once per chunk and
    returns that chunk's ``tile``, so every work buffer is allocated here
    and not in a pool thread (glibc would keep each thread's freed
    temporaries in that thread's own malloc arena).  The calling thread
    runs the first chunk and ``_pool()`` the others, so one chunk never
    touches (or makes) the pool.  Each tile writes its own slice of the
    output, so the split changes no bit.  An exception in any chunk is
    raised once every chunk has finished.
    """
    k = min(_CORES, len(tiles))
    jobs = [(make_tile(), tiles[len(tiles) * i // k : len(tiles) * (i + 1) // k]) for i in range(k)]
    futures = [_pool().submit(_run_chunk, *job) for job in jobs[1:]]
    try:
        _run_chunk(*jobs[0])
    finally:
        for f in futures:
            f.exception()  # waits for the chunk without raising
    for f in futures:
        f.result()


def _run_chunk(tile: Callable, chunk: list) -> None:
    for t in chunk:
        tile(t)


def _epilogue(bn: BNParams | None, act: ActivationKind | None, channels: int) -> Callable:
    """Check a conv's epilogue and return ``finish(y, c0, c1, scratch)``,
    which applies ``bn`` over channels c0:c1 and then ``act`` to the
    float32 output block y in place.  ``scratch`` is float32 with at least
    2 * y.size elements (the block's free float64 work buffer, viewed)."""
    if act is not None and act not in _KINDS:
        raise ValueError(f"unknown activation kind: {act!r}")
    if bn is not None and bn.channels != channels:
        raise ShapeError(f"conv has {channels} output channels, batchnorm expects {bn.channels}")
    terms = None if bn is None else _bn_terms(bn)

    def finish(y, c0, c1, scratch):
        if terms is not None:
            _normalize(y, [t[c0:c1] for t in terms], out=y)
        if act is not None:
            _activate(y, act, y, scratch)

    return finish


def _bn_terms(p: BNParams) -> list[np.ndarray]:
    """Mean, gamma, std and beta of ``p``, each shaped (C, 1, 1)."""
    std = np.sqrt(p.running_var + np.float32(p.epsilon))
    return [a[:, None, None] for a in (p.running_mean, p.gamma, std, p.beta)]


def _normalize(x: np.ndarray, terms: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """(x - mean) * gamma / std + beta per channel, into ``out`` when given."""
    mean, gamma, std, beta = terms
    y = np.subtract(x, mean, out=out)
    y *= gamma
    y /= std
    y += beta
    return y


def _activate(
    x: np.ndarray,
    kind: ActivationKind,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Activation ``kind`` of x, into ``out`` (which may be x) when given.
    The sigmoids use ``scratch`` (x's dtype, at least 2 * x.size elements;
    made when None)."""
    if kind == "relu":
        return np.maximum(x, 0, out=out)
    if out is None:
        out = np.empty_like(x)
    if scratch is None:
        scratch = np.empty(2 * x.size, x.dtype)
    # e = exp(-|x|) never overflows.  The numerator is 1 where x >= 0 (e <= 1
    # there) and e below, so the maximum picks the stable form per sign.
    e = scratch[: x.size].reshape(x.shape)
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = out if kind == "sigmoid" else scratch[x.size : 2 * x.size].reshape(x.shape)
    np.greater_equal(x, 0, out=num)
    np.maximum(e, num, out=num)
    e += 1
    num /= e
    if kind == "silu":
        np.multiply(x, num, out=out)
    return out


def batchnorm_inference(x: FeatureMap, p: BNParams) -> FeatureMap:
    """Per-channel affine normalization using frozen running statistics."""
    x = _as_f32(x, 4, "batchnorm input")
    if x.shape[1] != p.channels:
        raise ShapeError(f"input has {x.shape[1]} channels, batchnorm expects {p.channels}")
    return _normalize(x, _bn_terms(p))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Sigmoid in x's own float dtype."""
    return _activate(np.asarray(x), "sigmoid")


def activation(x: np.ndarray, kind: ActivationKind) -> np.ndarray:
    if kind not in _KINDS:
        raise ValueError(f"unknown activation kind: {kind!r}")
    return _activate(np.asarray(x, dtype=np.float32), kind)


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
