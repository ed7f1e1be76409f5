"""Dense NCHW tensor primitives: convolution, normalization, activations,
pooling, resampling and edge extraction.

The in-memory currency of the whole runtime is a float32 numpy array laid
out row-major as (batch, channel, row, col).  Every public function here is
pure, inputs never mutated and outputs freshly allocated, except where a
``conv2d`` caller asks otherwise: ``out=`` names the array its tiles are
written into, and ``hook=`` takes each finished tile instead of an output.

What this module holds to:

* A conv multiplies and sums in float64 and rounds each output once to
  float32.
* A conv works through its output in tiles whose float64 work fits
  buffers of about ``_TILE`` elements, reused from tile to tile, so no
  float64 temporary spans a whole map; ``conv2d(x, p, bn, act)`` finishes
  each tile in place with the helpers ``batchnorm_inference`` and
  ``activation`` use, so the fused result equals the separate calls.
* ``_map_tiles`` runs a conv's tiles on one thread per core, each pulling
  the next tile from one queue.  The calling thread allocates every
  thread's buffers, and the tiles run in the caller's ``np.errstate``
  with ufunc buffers of ``_BUFSIZE`` elements.  Tiles, tap order and GEMM
  shapes depend neither on the split nor on the batch, so outputs are
  bitwise the same on any core count and for any batch a frame is in.
* Importing the module starts no thread; with more than one core it puts
  numpy's bundled OpenBLAS on one thread for the whole process.

README.md (Performance) gives the reasons and the measurements.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import numbers
import operator
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Literal, get_args

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FeatureMap = np.ndarray
"""Alias for a float32 array in (N, C, H, W) order."""

ActivationKind = Literal["relu", "silu", "sigmoid"]
_KINDS = get_args(ActivationKind)

# float64 elements (batch axis included) in the work buffer a conv reuses
# from tile to tile: 2 MB, which stays in a core's L2 cache.
_TILE = 1 << 18
# numpy's ufunc buffer size (elements) while tiles run.  A ufunc whose
# per-channel operand is broadcast over runs shorter than the buffer runs
# slower per element, so the tiles use a buffer below their runs.
_BUFSIZE = 512
# The text pooling window of maxpool1d: kernel 3, stride 2.
_POOL_KERNEL, _POOL_STRIDE = 3, 2

# A conv runs its tiles on up to one thread per core: the calling thread and
# the _CORES - 1 threads of _pool().
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = None  # a concurrent.futures.ThreadPoolExecutor once _pool() made it
_POOL_LOCK = threading.Lock()
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads",
)


def _pool():
    """The tile pool, made (and ``concurrent.futures`` imported) by the
    first conv that spans two threads."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(_CORES - 1, thread_name_prefix="nmvg-tiles")
        return _POOL


def _drop_pool() -> None:
    """Forget the pool in a forked child, whose copy of it has no threads
    (and whose copy of the lock another thread may hold); the child's first
    multi-thread conv makes its own."""
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


def _as_f32(x, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim != ndim:
        raise ShapeError(f"{what} must be {ndim}-D, got shape {arr.shape}")
    return arr


def _as_int(name: str, value) -> int:
    """``value`` as a Python int by ``operator.index``; a bool or a
    non-integer (2.5, 3.0, '3') raises ValueError naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _as_real(name: str, value) -> float:
    """``value``, a non-bool ``numbers.Real``, as a finite float; '0.5',
    True, NaN, inf or 10**400 raises ValueError naming ``name``."""
    if type(value) is not float:  # a float skips the slow ABC test
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{name} must be finite, got a value beyond the float range") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _own(obj, name: str, ndim: int, lead: tuple = (), dtype=np.float32) -> np.ndarray:
    """Store a bundle's array field as a C-contiguous ``dtype`` array of
    ``ndim`` axes whose leading lengths are ``lead``, and return it.  An
    array already in that form is stored as it is, not copied."""
    a = np.asarray(getattr(obj, name), dtype, order="C")
    if a.ndim != ndim or a.shape[: len(lead)] != lead:
        dims = f" with leading dims {lead}" if lead else ""
        raise ShapeError(f"{name} must be {ndim}-D{dims}, got shape {a.shape}")
    object.__setattr__(obj, name, a)
    return a


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
        k = _own(self, "kernel", 4)
        if self.bias is not None:
            _own(self, "bias", 1, k.shape[:1])
        # One type test covers the usual all-int case: binding a model makes about 90 of these.
        if not type(self.stride) is type(self.padding) is type(self.groups) is int:
            for name in ("stride", "padding", "groups"):
                object.__setattr__(self, name, _as_int(name, getattr(self, name)))
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
        c = _own(self, "gamma", 1).shape
        for name in ("beta", "running_mean", "running_var"):
            _own(self, name, 1, c)
        if not (self.running_var >= 0).all():  # also false for NaN
            raise ValueError("running_var contains negative or NaN entries")
        if not np.isfinite(np.concatenate((self.gamma, self.beta, self.running_mean, self.running_var))).all():
            raise ValueError("gamma, beta, running_mean and running_var must be finite")
        object.__setattr__(self, "epsilon", _as_real("epsilon", self.epsilon))
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


# hook(y, channels, rows): a finished float32 tile of a conv's output.
TileHook = Callable[[np.ndarray, slice, slice], None]


def conv2d(
    x: FeatureMap,
    p: ConvParams,
    bn: BNParams | None = None,
    act: ActivationKind | None = None,
    *,
    out: np.ndarray | None = None,
    hook: TileHook | None = None,
) -> FeatureMap | None:
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

    ``out``, a writeable float32 array of the output's shape, receives the
    result instead of a new array.  It may be ``x`` itself only for a 1x1,
    stride-1, unpadded conv with C_out == C_in: every tile copies the
    pixels it reads into its float64 work before it rounds into that same
    window, and no two tiles share a window.  With ``hook`` no output is
    made and None is returned: each finished tile is rounded into a float32
    buffer of its thread, gets ``bn`` and ``act`` there, and is handed to
    ``hook(y, channels, rows)`` (slices of the output's channel and row
    axes), which writes it wherever it belongs, on the tile's core.  Every
    argument is checked before any tile runs.
    """
    x = _as_f32(x, 4, "conv input")
    n, c, h, w = x.shape
    if n < 1:
        raise ShapeError(f"conv input has an empty batch, got shape {x.shape}")
    if c != p.in_channels:
        raise ShapeError(f"input has {c} channels, kernel expects {p.in_channels}")
    co, cg, kh, kw = p.kernel.shape
    if h + 2 * p.padding < kh or w + 2 * p.padding < kw:
        raise ShapeError(
            f"spatial dims {(h, w)} too small for kernel {(kh, kw)} at padding {p.padding}"
        )
    s = p.stride
    ho, wo = _out_extent(p, h, w)
    out = _conv_out(x, p, (n, co, ho, wo), out, hook)
    make_emit = _emitter(out, co, bn, act, hook)
    if p.groups != c:
        # The planes stay float32: the im2col copy does the cast, and
        # float64 planes would double the bytes each tap reads.
        def make_fill(rows):
            buf = _plane_buffer(x, p, rows, np.float32)

            def fill(cols, r0, r1):
                planes = _planes(x, p, r0, r1, buf)
                for t in range(kh * kw):
                    i, j = divmod(t, kw)
                    plane = planes[:, :, (i % s) * s + j % s]
                    cols[:, :, t] = plane[:, :, i // s : i // s + r1 - r0, j // s : j // s + wo]

            return fill

        _contract_rows((n, co, ho, wo), p, make_fill, make_emit)
        return out
    m = co // c
    _, wq = _plane_extent(x, p, 0)
    k64 = p.kernel.astype(np.float64).reshape(c, m, kh * kw, 1)
    bias = None if p.bias is None else p.bias.astype(np.float64).reshape(c, m, 1)
    # Tap (i, j) of output (r, q) is plane (i % s, j % s) at row r + i // s,
    # column q + j // s.  Accumulating on rows of wq plane columns turns
    # every tap into one flat slice; the wq - wo spare columns are dropped.
    # Per channel and output row: accumulator, tap product and the planes.
    per_row = n * wq * (2 * m + s * s)
    rows = min(ho, max(1, _TILE // per_row))
    block = min(c, max(1, _TILE // (per_row * rows)))
    block = -(-c // -(-c // block))  # balanced: ceil(C / blocks) channels

    def make_tile():
        acc_buf, prod_buf = np.empty((2, n * block * m * rows * wq))
        buf = _plane_buffer(x[:, :block], p, rows, np.float64)
        emit = make_emit(n * block * m * rows * wo)

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
            emit(block_out[..., :wo], c0 * m, c1 * m, r0, prod_buf.view(np.float32))

        return tile

    _map_tiles([(c0, r0) for c0 in range(0, c, block) for r0 in range(0, ho, rows)], make_tile)
    return out


def _conv_out(x: np.ndarray, p: ConvParams, shape: tuple, out, hook) -> np.ndarray | None:
    """The float32 array conv ``p`` of ``x`` writes into: ``out`` once it
    is checked, a new one, or None for a conv with a ``hook``."""
    if hook is not None:
        if out is not None:
            raise ValueError("conv2d takes out= or hook=, not both")
        return None
    if out is None:
        return np.empty(shape, dtype=np.float32)
    if not isinstance(out, np.ndarray) or out.dtype != np.float32:
        raise ValueError(f"conv out must be a float32 array, got {getattr(out, 'dtype', type(out))}")
    if out.shape != shape:
        raise ShapeError(f"conv out has shape {out.shape}, the conv makes {shape}")
    if not out.flags.writeable:
        raise ValueError("conv out is read-only")
    if np.may_share_memory(out, x):
        _, _, kh, kw = p.kernel.shape
        if out is not x or kh != 1 or kw != 1 or p.stride != 1 or p.padding != 0 or shape[1] != x.shape[1]:
            raise ValueError(
                "conv out may overlap the input only as the input itself, "
                "for a 1x1 stride-1 unpadded conv with as many output channels as input channels"
            )
    return out


def _out_extent(p: ConvParams, h: int, w: int) -> tuple[int, int]:
    """Output rows and columns of conv ``p`` over an h x w input."""
    _, _, kh, kw = p.kernel.shape
    return (h + 2 * p.padding - kh) // p.stride + 1, (w + 2 * p.padding - kw) // p.stride + 1


def _plane_extent(x: np.ndarray, p: ConvParams, rows: int) -> tuple[int, int]:
    """Rows and columns of the stride-phase planes (``_planes``) that serve
    ``rows`` output rows of conv ``p`` over ``x``: those rows, the halo the
    taps read below them and one row more when the last flat tap slice of
    the depthwise path runs past them; and W_out + (k_w - 1) // stride."""
    _, _, kh, kw = p.kernel.shape
    s = p.stride
    wq = _out_extent(p, *x.shape[2:])[1] + (kw - 1) // s
    return rows + (kh - 1) // s + ((kw - 1) // s > 0), wq


def _plane_buffer(x: np.ndarray, p: ConvParams, rows: int, dtype) -> np.ndarray:
    """An empty buffer that holds ``_planes(x, p, r0, r1, buf)`` for any
    r1 - r0 <= rows; empty when those planes are a view of ``x``."""
    n, c, _, _ = x.shape
    _, _, kh, kw = p.kernel.shape
    s = p.stride
    if kh == kw == s == 1 and p.padding == 0:
        return np.empty(0, dtype=dtype)
    halo_rows, wq = _plane_extent(x, p, rows)
    return np.empty(n * c * s * s * halo_rows * wq, dtype)


def _planes(x: np.ndarray, p: ConvParams, r0: int, r1: int, buf: np.ndarray) -> np.ndarray:
    """The zero-padded input of conv ``p`` over output rows r0:r1, split
    into stride-phase planes in a view of ``buf`` (see ``_plane_buffer``).

    The planes are (N, C, stride**2, rows, wq) with (rows, wq) from
    ``_plane_extent``: plane a * stride + b holds padded rows
    (r0 + t) * stride + a and columns u * stride + b.  Only the border
    strips around the copied input are zeroed.  An unpadded stride-1 1x1
    conv gets a view of ``x`` (float32) and no copy.
    """
    n, c, h, w = x.shape
    _, _, kh, kw = p.kernel.shape
    s, pad = p.stride, p.padding
    if kh == kw == s == 1 and pad == 0:
        return x[:, :, None, r0:r1]
    rows, wq = _plane_extent(x, p, r1 - r0)
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
    shape: tuple[int, int, int, int],
    p: ConvParams,
    make_fill: Callable[[int], Callable[[np.ndarray, int, int], None]],
    make_emit: Callable[[int], Callable],
) -> None:
    """Compute conv ``p``'s output of ``shape`` (N, C_out, H_out, W_out) one
    block of output rows at a time.

    ``make_fill(rows)`` returns a ``fill(cols, r0, r1)`` for blocks of at
    most ``rows`` rows; it is called once per thread, on the calling
    thread, so it allocates that thread's scratch there.  fill writes the
    float64 im2col columns of output rows r0:r1 through ``cols``, an
    (N, C_in, k_h*k_w, r1 - r0, W_out) transposed view of a buffer of
    about ``_TILE`` elements laid out (C_in*k_h*k_w, N, r1 - r0, W_out).
    So each block, the whole batch at once, is contracted with the kernel
    (groups, C_out/groups, C_in/groups*k_h*k_w) in one float64 matmul into
    a reused result buffer, gets the bias added in float64, and goes to
    the thread's ``emit`` (see ``_emitter``) as an (N, C_out, rows, W_out)
    view.  A block holds depth + C_out float64 values per output pixel
    (its columns and its result), so sizing blocks by that sum keeps a
    tile's whole work near ``_TILE``.  The blocks are then balanced,
    ceil(H_out / blocks) rows each, so a thread never sizes its buffers
    for rows that a short last block leaves unused.
    """
    n, co, ho, wo = shape
    _, cg, kh, kw = p.kernel.shape
    depth = p.in_channels * kh * kw
    rows = min(ho, max(1, _TILE // (n * (depth + co) * wo)))
    rows = -(-ho // -(-ho // rows))
    k64 = p.kernel.astype(np.float64).reshape(p.groups, co // p.groups, cg * kh * kw)
    bias = None if p.bias is None else p.bias.astype(np.float64)[:, None]

    def make_tile():
        buf = np.empty(n * depth * rows * wo)
        res_buf = np.empty(n * co * rows * wo)
        fill = make_fill(rows)
        emit = make_emit(n * co * rows * wo)

        def tile(r0):
            r1 = min(r0 + rows, ho)
            span = n * (r1 - r0) * wo
            cols = buf[: depth * span]
            fill(cols.reshape(p.in_channels, kh * kw, n, r1 - r0, wo).transpose(2, 0, 1, 3, 4), r0, r1)
            res = res_buf[: co * span].reshape(co, span)
            np.matmul(k64, cols.reshape(p.groups, -1, span), out=res.reshape(p.groups, -1, span))
            if bias is not None:
                res += bias
            emit(res.reshape(co, n, r1 - r0, wo).transpose(1, 0, 2, 3), 0, co, r0, res_buf.view(np.float32))

        return tile

    _map_tiles(list(range(0, ho, rows)), make_tile)


def _map_tiles(tiles: list, make_tile: Callable[[], Callable]) -> None:
    """Run ``tile(t)`` for every t in ``tiles`` on up to one thread per core.

    ``make_tile()`` is called on the calling thread once per thread and
    returns that thread's ``tile``, so every work buffer is allocated here
    and not in a pool thread (glibc would keep each thread's freed
    temporaries in that thread's own malloc arena).  Each thread pulls the
    next tile from one shared iterator until none is left, so a thread
    that finishes early takes more.  The calling thread is one of them and
    ``_pool()`` runs the others, so one thread never touches (or makes)
    the pool.  Each tile writes its own slice of the output, so the split
    changes no bit.  Once a tile raises, no thread starts another tile,
    and the first exception is raised once every thread has stopped.
    """
    k = min(_CORES, len(tiles))
    queue = iter(tiles)
    failed = []
    jobs = [(make_tile(), queue, failed) for _ in range(k)]
    # np.errstate is per context: a pool job runs in a copy of the caller's.
    futures = [_pool().submit(contextvars.copy_context().run, _run_chunk, *job) for job in jobs[1:]]
    _run_chunk(*jobs[0])
    for f in futures:
        f.result()
    if failed:
        raise failed[0]


def _run_chunk(tile: Callable, tiles: Iterator, failed: list) -> None:
    """Run ``tile`` on each tile pulled from ``tiles`` until none is left
    or a tile of any thread has raised; an exception goes to ``failed``.
    The tiles run with ufunc buffers of ``_BUFSIZE`` elements, which
    changes no bit: they run no reduction, whose pairwise blocking depends
    on the buffer size.  The caller's size is restored (numpy 1.x's
    errstate would not)."""
    bufsize = np.setbufsize(_BUFSIZE)
    try:
        for t in tiles:  # next() on a list iterator is atomic under the GIL
            if failed:
                return
            tile(t)
    except BaseException as e:  # re-raised by _map_tiles
        failed.append(e)
    finally:
        np.setbufsize(bufsize)


def _emitter(
    out: np.ndarray | None,
    channels: int,
    bn: BNParams | None = None,
    act: ActivationKind | None = None,
    hook: TileHook | None = None,
) -> Callable[[int], Callable]:
    """Check a conv's epilogue and return ``make_emit(size)``, which the
    calling thread calls once per tile thread for its ``emit(block, c0,
    c1, r0, scratch)``.

    emit rounds the float64 block (N, c1 - c0, rows, W_out) of output
    channels c0:c1 and rows r0: into ``out``, or, with a ``hook``, into a
    float32 buffer of ``size`` elements the thread owns.  It then applies
    ``bn`` and ``act`` to that float32 block y in place and hands y to
    ``hook``.  ``scratch`` is float32 with at least 2 * y.size elements
    (the block's free float64 work buffer, viewed)."""
    if act is not None and act not in _KINDS:
        raise ValueError(f"unknown activation kind: {act!r}")
    if bn is not None and bn.channels != channels:
        raise ShapeError(f"conv has {channels} output channels, batchnorm expects {bn.channels}")
    terms = None if bn is None else _bn_terms(bn)

    def make_emit(size):
        own = None if hook is None else np.empty(size, dtype=np.float32)

        def emit(block, c0, c1, r0, scratch):
            r1 = r0 + block.shape[2]
            y = out[:, c0:c1, r0:r1] if own is None else own[: block.size].reshape(block.shape)
            y[...] = block
            if terms is not None:
                _normalize(y, [t[c0:c1] for t in terms], out=y)
            if act is not None:
                _activate(y, act, y, scratch)
            if hook is not None:
                hook(y, slice(c0, c1), slice(r0, r1))

        return emit

    return make_emit


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


def maxpool1d(x: np.ndarray) -> np.ndarray:
    """Max pooling over the last axis of a (C, L) or (N, C, L) array with
    the paper's unpadded window of 3 at stride 2 (``_POOL_KERNEL``,
    ``_POOL_STRIDE``), so the output length is floor((L - 3) / 2) + 1.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim not in (2, 3):
        raise ShapeError(f"maxpool1d expects (C, L) or (N, C, L), got shape {x.shape}")
    if x.shape[-1] < _POOL_KERNEL:
        raise ShapeError(
            f"sequence length {x.shape[-1]} is shorter than the pooling window {_POOL_KERNEL}"
        )
    win = sliding_window_view(x, _POOL_KERNEL, axis=-1)[..., ::_POOL_STRIDE, :]
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


def _upsample2_add(fine: np.ndarray, coarse: np.ndarray, in_place: bool = False) -> np.ndarray:
    """fine plus the 2x nearest-neighbour blow-up of coarse, without making
    the upsampled map: coarse (N, C, H, W) is repeated along columns only
    (half the size of fine) and added to each pair of rows of fine
    (N, C, 2H, 2W) through a broadcast view.  With ``in_place`` the sum is
    written into fine when fine is contiguous (a conv output the caller
    owns)."""
    n, c, h, w = coarse.shape
    pairs = fine.reshape(n, c, h, 2, 2 * w)
    cols = np.repeat(coarse, 2, axis=3)[:, :, :, None]
    return np.add(pairs, cols, out=pairs if in_place else None).reshape(n, c, 2 * h, 2 * w)


def _pyramid(levels: list, what: str) -> list[np.ndarray]:
    """The four levels of a pyramid, fine to coarse, as float32 maps; each
    must have half the rows and columns of the one before it."""
    if len(levels) != 4:
        raise ShapeError(f"{what} expects four levels, got {len(levels)}")
    maps = [np.asarray(m, dtype=np.float32) for m in levels]
    for a, b in zip(maps, maps[1:]):
        if a.shape[2] != 2 * b.shape[2] or a.shape[3] != 2 * b.shape[3]:
            raise ShapeError(f"{what} level dims must halve level to level, got {a.shape[2:]} then {b.shape[2:]}")
    return maps


def upsample(x: FeatureMap, factor: int) -> FeatureMap:
    """Integer-factor bilinear (half-pixel, edge-clamped) upsampling.

    Separable: each source row is interpolated along x once, then output
    rows pick and blend two of those rows.  Every output takes the same
    float32 steps as the four-corner form, top = tl * (1 - wx) + tr * wx,
    bot likewise, top * (1 - wy) + bot * wy, so the bits are the same."""
    x = _as_f32(x, 4, "upsample input")
    factor = _as_int("factor", factor)
    if factor < 1:
        raise ShapeError(f"upsample factor must be a positive integer, got {factor}")
    if factor == 1:
        return x.copy()
    h, w = x.shape[2:]
    ys = np.clip((np.arange(h * factor, dtype=np.float64) + 0.5) / factor - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(w * factor, dtype=np.float64) + 0.5) / factor - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0).astype(np.float32)[:, None]
    wx = (xs - x0).astype(np.float32)
    rows = x[..., x0] * (1 - wx)
    rows += x[..., x1] * wx
    out = rows[:, :, y0]
    out *= 1 - wy
    bot = rows[:, :, y1]
    bot *= wy
    out += bot
    return out


def global_avg_pool(x: FeatureMap) -> np.ndarray:
    """Spatial mean per channel, returned as (N, C)."""
    x = _as_f32(x, 4, "pool input")
    return x.mean(axis=(2, 3), dtype=np.float64).astype(np.float32)
