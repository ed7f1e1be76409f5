"""Triplet fusion of image, radar and text features.

The dataflow for one stage, with C channels at H x W:

  1. image path:  1x1 depthwise projection of the image feature
  2. radar path:  1x1 depthwise projection, then an efficient channel
     attention gate (sigmoid of a small 1-D conv over pooled channels)
  3. the two paths are summed into a joint map
  4. a 3x3 deformable conv (offsets predicted from the joint map itself)
     plus a learned positional grid produces the (C, H, W) query map
  5. text path: a fixed sinusoidal code is added to the (C, L) text
     feature, a dense C x C affine is applied per token, and a single
     1-D max pool (k=3, s=2) produces the keys; values are the same
     pooled tensor
  6. similarity = Q K / sqrt(d) with d = C, unnormalized by default
     (an optional flag applies a row softmax)
  7. the attended values form the (C, H, W) output map

Zero text annihilates the output exactly: keys and values are all zero,
so the attended map is zero regardless of the queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import (
    ConvParams,
    FeatureMap,
    ShapeError,
    _as_f32,
    _contract_rows,
    _emitter,
    _out_extent,
    _own,
    _sigmoid,
    conv2d,
    global_avg_pool,
    maxpool1d,
)


@dataclass(frozen=True, eq=False)
class EcaParams:
    """Weights of the 1-D cross-channel conv behind the channel gate."""

    weights: np.ndarray

    def __post_init__(self):
        if _own(self, "weights", 1).shape[0] % 2 == 0:
            raise ShapeError(f"eca weights must have odd length, got shape {self.weights.shape}")


def eca(x: FeatureMap, p: EcaParams) -> FeatureMap:
    """Efficient channel attention: gate each channel by its pooled context.

    gate = sigmoid(conv1d(GAP(x))) with zero padding over the channel axis,
    broadcast multiplied back onto x.
    """
    x = np.asarray(x, dtype=np.float32)
    pooled = global_avg_pool(x)
    k = p.weights.shape[0]
    pad = k // 2
    padded = np.pad(pooled, ((0, 0), (pad, pad)))
    win = sliding_window_view(padded, k, axis=1)
    logits = (win.astype(np.float64) @ p.weights.astype(np.float64)).astype(np.float32)
    gate = _sigmoid(logits)
    return x * gate[:, :, None, None]


@dataclass(frozen=True, eq=False)
class DeformParams:
    """A 3x3 conv whose sampling grid is shifted by predicted offsets.

    offset_conv maps the input to 2 * k_h * k_w channels laid out as
    (row, col) pairs per tap in row-major tap order.  main is the conv
    applied over the deformed samples.
    """

    offset_conv: ConvParams
    main: ConvParams

    def __post_init__(self):
        kh, kw = self.main.kernel.shape[2:]
        want = 2 * kh * kw
        got = self.offset_conv.out_channels
        if got != want:
            raise ShapeError(
                f"offset conv emits {got} channels, main kernel {kh}x{kw} needs {want}"
            )


def deform_conv(x: FeatureMap, p: DeformParams) -> FeatureMap:
    """Deformable 2-D conv with bilinear sampling; out-of-bounds reads zero.

    The input is copied once, as float64, into a map with a zero border of
    two pixels above and left and three below and right.  Coordinates are
    clamped to [-2, extent + 1], beyond which all four bilinear corners are
    off the map anyway, so every corner is a pixel of the bordered copy and
    one off the map reads 0.0; no corner is clipped or masked.  The samples
    are gathered one block of output rows at a time, each corner with one
    flat index into the copy, into float64 im2col columns (N, C_in,
    k_h*k_w, rows, W_out) that go through the same tiled grouped float64
    contraction as ``conv2d``'s dense path.  A block's coordinates, weights
    and indices live in arrays made once per tile thread, on the calling
    thread, and every cast into them is an assignment, so no block makes a
    temporary in a pool thread.
    With an all-zero offset predictor this reduces to conv2d(x, p.main).
    """
    x = _as_f32(x, 4, "deform input")
    offsets = conv2d(x, p.offset_conv)
    main = p.main
    n, c_in, h, w = x.shape
    if c_in != main.in_channels:
        raise ShapeError(f"input has {c_in} channels, main kernel expects {main.in_channels}")
    co, cg, kh, kw = main.kernel.shape
    taps = kh * kw
    ho, wo = _out_extent(main, h, w)
    if offsets.shape[2:] != (ho, wo):
        raise ShapeError(
            f"offset grid {offsets.shape[2:]} does not match conv output {(ho, wo)}"
        )
    ky, kx = np.unravel_index(np.arange(taps), (kh, kw))
    # Each tap's sampling grid before the offsets move it, as float64.
    base_y = ((np.arange(ho) * main.stride - main.padding)[None, :, None] + ky[:, None, None]).astype(np.float64)
    base_x = ((np.arange(wo) * main.stride - main.padding)[None, None, :] + kx[:, None, None]).astype(np.float64)
    # The map at (2, 2) of a zero copy wide enough for every clamped corner.
    wb = w + 5
    bordered = np.zeros((n, c_in, h + 5, wb))
    bordered[:, :, 2 : h + 2, 2 : w + 2] = x
    pixels = bordered.reshape(n, c_in, -1)

    def make_fill(rows):
        # One element per sample (batch, tap, row, column) of a block.
        size = n * taps * rows * wo
        reals = np.empty((5, size))
        ints = np.empty((2, size), dtype=np.int64)
        weighted = np.empty(c_in * taps * rows * wo)

        def fill(cols, r0, r1):
            shape = (n, taps, r1 - r0, wo)
            m = n * taps * (r1 - r0) * wo
            wy, qy, wx, qx, wgt = (a[:m].reshape(shape) for a in reals)
            y0, x0 = (a[:m].reshape(shape) for a in ints)
            # Per axis: frac holds the coordinate, then its fraction f; rest
            # its floor, then 1 - f; c0 the floor as int64.  wgt holds the
            # grid until the corners need it.
            for k, ext, grid, frac, rest, c0 in (
                (0, h, base_y[:, r0:r1], wy, qy, y0),
                (1, w, base_x, wx, qx, x0),
            ):
                frac[...] = offsets[:, k::2, r0:r1]
                wgt[...] = grid
                frac += wgt
                # Beyond this window all four bilinear corners are off the
                # map, so clamping changes no result and keeps the cast finite.
                np.clip(frac, -2, ext + 1, out=frac)
                np.floor(frac, out=rest)
                c0[...] = rest
                frac -= rest
                np.subtract(1.0, frac, out=rest)
            # y0 becomes the top-left corner's flat index counted from the
            # map's (0, 0), which is 2 * wb + 2 in the copy; x0 then holds
            # each corner's index in the copy in turn.
            y0 *= wb
            y0 += x0
            prod = weighted[: cols[0].size].reshape(c_in, -1)
            for step, a, b in ((0, qy, qx), (1, qy, wx), (wb, wy, qx), (wb + 1, wy, wx)):
                np.add(y0, 2 * wb + 2 + step, out=x0)
                np.multiply(a, b, out=wgt)
                for i in range(n):
                    # The indices are in range, so "wrap" never wraps; it
                    # gathers faster than "clip".
                    np.take(pixels[i], x0[i].reshape(-1), axis=1, out=prod, mode="wrap")
                    prod *= wgt[i].reshape(1, -1)
                    # cols is a transposed view: written per frame, never
                    # reshaped.  The first corner writes w*v + 0.0, which is
                    # +0.0 where w*v is -0.0, as a sum begun at 0.0 would.
                    np.add(prod.reshape(cols[i].shape), cols[i] if step else 0.0, out=cols[i])

        return fill

    out = np.empty((n, co, ho, wo), dtype=np.float32)
    _contract_rows(out.shape, main, make_fill, _emitter(out, co))
    return out


def sinusoidal_encoding(channels: int, length: int) -> np.ndarray:
    """Fixed absolute position code of shape (channels, length).

    Even channels carry sin(pos / 10000^(c / C)), odd channels the cosine
    at the preceding frequency.
    """
    if channels < 1 or length < 1:
        raise ShapeError("sinusoidal encoding needs positive dims")
    c = np.arange(channels)
    angle = (1.0 / 10000.0 ** ((c & ~1) / channels))[:, None] * np.arange(length, dtype=np.float64)
    enc = np.where(c[:, None] % 2 == 0, np.sin(angle), np.cos(angle))
    return enc.astype(np.float32)


def _softmax_rows(sim: np.ndarray) -> np.ndarray:
    shifted = sim - sim.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def scaled_attend(q: np.ndarray, kv: np.ndarray, normalize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Similarity attention over pooled text tokens.

    q is (N, C, P), a query map with its P positions in a row; kv is
    (C, L'), the pooled text, which serves as both the keys and the
    values.  Returns the attended context (N, C, P) and the similarity
    map (N, P, L').  The similarity is Q^T K / sqrt(C); rows are
    softmaxed only when normalize is set.
    """
    q = _as_f32(q, 3, "attention queries")
    kv = _as_f32(kv, 2, "attention keys")
    if q.shape[1] != kv.shape[0]:
        raise ShapeError(f"channel mismatch: q {q.shape}, kv {kv.shape}")
    kv64 = kv.astype(np.float64)
    sim = (q.astype(np.float64).transpose(0, 2, 1) @ kv64) / np.sqrt(float(kv.shape[0]))
    if normalize:
        sim = _softmax_rows(sim)
    ctx = kv64 @ sim.transpose(0, 2, 1)
    return ctx.astype(np.float32), sim.astype(np.float32)


@dataclass(frozen=True, eq=False)
class TmdfParams:
    """Per-stage fusion weights for C channels at a fixed H x W extent."""

    w_img: ConvParams
    w_radar: ConvParams
    eca: EcaParams
    deform: DeformParams
    lpe: np.ndarray
    w_text: np.ndarray
    w_text_bias: np.ndarray
    ape: np.ndarray

    def __post_init__(self):
        c = _own(self, "lpe", 4, (1,)).shape[1]
        _own(self, "w_text", 2, (c, c))
        _own(self, "w_text_bias", 1, (c,))
        _own(self, "ape", 2, (c,))
        # Widths only: building a bundle makes no pass over its weights.
        for name, conv, emits in (
            ("w_img", self.w_img, True),
            ("w_radar", self.w_radar, True),
            ("deform.main", self.deform.main, True),
            ("deform.offset_conv", self.deform.offset_conv, False),
        ):
            if conv.in_channels != c or (emits and conv.out_channels != c):
                raise ShapeError(
                    f"{name} maps {conv.in_channels} to {conv.out_channels} channels, lpe has {c}"
                )


def tmdf_fuse(
    f_img: FeatureMap,
    f_radar: FeatureMap,
    f_text: np.ndarray,
    p: TmdfParams,
    normalize: bool = False,
) -> FeatureMap:
    """Fuse one stage of image and radar features under text guidance."""
    f_img = _as_f32(f_img, 4, "image stage")
    f_radar = _as_f32(f_radar, 4, "radar stage")
    f_text = np.asarray(f_text, dtype=np.float32)
    if f_img.shape != f_radar.shape:
        raise ShapeError(
            f"image and radar stages must match, got {f_img.shape} vs {f_radar.shape}"
        )
    c = p.lpe.shape[1]
    if f_img.shape[1] != c:
        raise ShapeError(f"stage has {f_img.shape[1]} channels, fusion expects {c}")
    if f_img.shape[2:] != p.lpe.shape[2:]:
        raise ShapeError(
            f"stage extent {f_img.shape[2:]} does not match positional grid {p.lpe.shape[2:]}"
        )
    if f_text.shape != p.ape.shape:
        raise ShapeError(
            f"text feature {f_text.shape} does not match positional code {p.ape.shape}"
        )
    if f_text.shape[1] < 3:
        raise ShapeError("text sequence is too short to pool (need length >= 3)")

    # The conv outputs are new maps, so the sums run in place on them.
    img_p = conv2d(f_img, p.w_img)
    img_p += eca(conv2d(f_radar, p.w_radar), p.eca)
    q_map = deform_conv(img_p, p.deform)
    del img_p
    q_map += p.lpe

    coded = (f_text + p.ape).astype(np.float64)
    t = p.w_text.astype(np.float64) @ coded + p.w_text_bias.astype(np.float64)[:, None]
    kv = maxpool1d(t.astype(np.float32))

    n, _, h, w = q_map.shape
    ctx, _ = scaled_attend(q_map.reshape(n, c, h * w), kv, normalize=normalize)
    return ctx.reshape(n, c, h, w)
