"""Triplet fusion of image, radar and text features.

The dataflow for one stage, with C channels at H x W:

  1. image path:  1x1 depthwise projection of the image feature
  2. radar path:  1x1 depthwise projection, then an efficient channel
     attention gate (sigmoid of a small 1-D conv over pooled channels)
  3. the two paths are summed into a joint map
  4. a 3x3 deformable conv (offsets predicted from the joint map itself)
     plus a learned positional grid produces the query map, flattened to
     (H*W, C)
  5. text path: a fixed sinusoidal code is added to the (C, L) text
     feature, a dense C x C affine is applied per token, and a single
     1-D max pool (k=3, s=2) produces the keys; values are the same
     pooled tensor
  6. similarity = Q K / sqrt(d) with d = C, unnormalized by default
     (an optional flag applies a row softmax)
  7. the attended values are reshaped back to (C, H, W)

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
    _contract_rows,
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
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float32))
        if w.ndim != 1 or w.shape[0] % 2 == 0:
            raise ShapeError(f"eca weights must be 1-D with odd length, got shape {w.shape}")
        object.__setattr__(self, "weights", w)


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

    The bilinear samples are gathered one block of output rows at a time,
    each corner of each sample with one flat index over its H*W pixels,
    into float64 im2col columns (N, C_in, k_h*k_w, rows, W_out) that go
    through the same tiled grouped float64 contraction as ``conv2d``'s
    dense path.  With an
    all-zero offset predictor this reduces to conv2d(x, p.main).
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 4:
        raise ShapeError(f"deform input must be 4-D, got shape {x.shape}")
    offsets = conv2d(x, p.offset_conv)
    main = p.main
    n, c_in, h, w = x.shape
    if c_in != main.in_channels:
        raise ShapeError(f"input has {c_in} channels, main kernel expects {main.in_channels}")
    co, cg, kh, kw = main.kernel.shape
    taps = kh * kw
    ho = (h + 2 * main.padding - kh) // main.stride + 1
    wo = (w + 2 * main.padding - kw) // main.stride + 1
    if offsets.shape[2:] != (ho, wo):
        raise ShapeError(
            f"offset grid {offsets.shape[2:]} does not match conv output {(ho, wo)}"
        )
    ky, kx = np.unravel_index(np.arange(taps), (kh, kw))
    base_x = (np.arange(wo) * main.stride - main.padding)[None, None, :] + kx[:, None, None]
    pixels = x.reshape(n, c_in, h * w)

    def make_fill(rows):
        # One sample's gathered corner values and their weighted float64 copy.
        gathered = np.empty(c_in * taps * rows * wo, dtype=np.float32)
        weighted = np.empty(c_in * taps * rows * wo)

        def fill(cols, r0, r1):
            off = offsets[:, :, r0:r1].astype(np.float64).reshape(n, taps, 2, r1 - r0, wo)
            base_y = (np.arange(r0, r1) * main.stride - main.padding)[None, :, None] + ky[:, None, None]
            # Beyond this window all four bilinear corners are out of bounds, so
            # clamping changes no result and keeps the int cast finite.
            py = np.clip(base_y + off[:, :, 0], -2, h + 1)
            px = np.clip(base_x + off[:, :, 1], -2, w + 1)
            y0 = np.floor(py).astype(np.int64)
            x0 = np.floor(px).astype(np.int64)
            wy = py - y0
            wx = px - x0
            cols = cols.reshape(n, c_in, -1)
            cols.fill(0.0)
            vals = gathered[: cols[0].size].reshape(c_in, -1)
            prod = weighted[: cols[0].size].reshape(c_in, -1)
            for yy, xx, wgt in (
                (y0, x0, (1 - wy) * (1 - wx)),
                (y0, x0 + 1, (1 - wy) * wx),
                (y0 + 1, x0, wy * (1 - wx)),
                (y0 + 1, x0 + 1, wy * wx),
            ):
                valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
                idx = (np.clip(yy, 0, h - 1) * w + np.clip(xx, 0, w - 1)).reshape(n, -1)
                wgt = (wgt * valid).reshape(n, 1, -1)
                for b in range(n):
                    np.take(pixels[b], idx[b], axis=1, out=vals, mode="clip")
                    np.multiply(vals, wgt[b], out=prod)
                    cols[b] += prod

        return fill

    out = np.empty((n, co, ho, wo), dtype=np.float32)
    _contract_rows(out, main, make_fill)
    return out


def sinusoidal_encoding(channels: int, length: int) -> np.ndarray:
    """Fixed absolute position code of shape (channels, length).

    Even channels carry sin(pos / 10000^(c / C)), odd channels the cosine
    at the preceding frequency.
    """
    if channels < 1 or length < 1:
        raise ShapeError("sinusoidal encoding needs positive dims")
    pos = np.arange(length, dtype=np.float64)
    enc = np.zeros((channels, length), dtype=np.float64)
    for c in range(channels):
        base = c if c % 2 == 0 else c - 1
        freq = 1.0 / (10000.0 ** (base / channels))
        enc[c] = np.sin(pos * freq) if c % 2 == 0 else np.cos(pos * freq)
    return enc.astype(np.float32)


def flatten_spatial(x: FeatureMap) -> np.ndarray:
    """(N, C, H, W) -> (N, H*W, C) with row-major position order."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 4:
        raise ShapeError(f"flatten_spatial expects 4-D input, got shape {x.shape}")
    n, c, h, w = x.shape
    return np.ascontiguousarray(x.reshape(n, c, h * w).transpose(0, 2, 1))


def unflatten_spatial(q: np.ndarray, h: int, w: int) -> FeatureMap:
    """Inverse of flatten_spatial for a given spatial extent."""
    q = np.asarray(q, dtype=np.float32)
    if q.ndim != 3 or q.shape[1] != h * w:
        raise ShapeError(f"cannot unflatten shape {q.shape} to {h}x{w}")
    n, _, c = q.shape
    return np.ascontiguousarray(q.transpose(0, 2, 1).reshape(n, c, h, w))


def _softmax_rows(sim: np.ndarray) -> np.ndarray:
    shifted = sim - sim.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def scaled_attend(
    q: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    d: int,
    normalize: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Similarity attention over pooled text tokens.

    q is (N, P, C); keys and values are (C, L').  Returns the attended
    context (N, P, C) and the similarity map (N, P, L').  The similarity
    is Q K / sqrt(d); rows are softmaxed only when normalize is set.
    """
    q = np.asarray(q, dtype=np.float32)
    keys = np.asarray(keys, dtype=np.float32)
    values = np.asarray(values, dtype=np.float32)
    if q.ndim != 3 or keys.ndim != 2 or values.ndim != 2:
        raise ShapeError("scaled_attend expects q (N,P,C) and keys/values (C,L')")
    if q.shape[2] != keys.shape[0] or keys.shape != values.shape:
        raise ShapeError(
            f"channel mismatch: q {q.shape}, keys {keys.shape}, values {values.shape}"
        )
    if d < 1:
        raise ValueError(f"attention scale dimension must be positive, got {d}")
    sim = (q.astype(np.float64) @ keys.astype(np.float64)) / np.sqrt(float(d))
    if normalize:
        sim = _softmax_rows(sim)
    ctx = sim @ values.astype(np.float64).T
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
    d: int

    def __post_init__(self):
        lpe = np.ascontiguousarray(np.asarray(self.lpe, dtype=np.float32))
        if lpe.ndim != 4 or lpe.shape[0] != 1:
            raise ShapeError(f"lpe must be (1, C, H, W), got shape {lpe.shape}")
        object.__setattr__(self, "lpe", lpe)
        wt = np.ascontiguousarray(np.asarray(self.w_text, dtype=np.float32))
        c = lpe.shape[1]
        if wt.shape != (c, c):
            raise ShapeError(f"w_text must be ({c}, {c}), got shape {wt.shape}")
        object.__setattr__(self, "w_text", wt)
        wb = np.ascontiguousarray(np.asarray(self.w_text_bias, dtype=np.float32))
        if wb.shape != (c,):
            raise ShapeError(f"w_text_bias must be ({c},), got shape {wb.shape}")
        object.__setattr__(self, "w_text_bias", wb)
        ape = np.ascontiguousarray(np.asarray(self.ape, dtype=np.float32))
        if ape.ndim != 2 or ape.shape[0] != c:
            raise ShapeError(f"ape must be ({c}, L), got shape {ape.shape}")
        object.__setattr__(self, "ape", ape)
        if self.d != c:
            raise ValueError(f"attention scale d ({self.d}) must equal channels ({c})")


def tmdf_fuse(
    f_img: FeatureMap,
    f_radar: FeatureMap,
    f_text: np.ndarray,
    p: TmdfParams,
    normalize: bool = False,
) -> FeatureMap:
    """Fuse one stage of image and radar features under text guidance."""
    f_img = np.asarray(f_img, dtype=np.float32)
    f_radar = np.asarray(f_radar, dtype=np.float32)
    f_text = np.asarray(f_text, dtype=np.float32)
    if f_img.shape != f_radar.shape:
        raise ShapeError(
            f"image and radar stages must match, got {f_img.shape} vs {f_radar.shape}"
        )
    if f_img.ndim != 4:
        raise ShapeError(f"stage features must be 4-D, got shape {f_img.shape}")
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

    img_p = conv2d(f_img, p.w_img)
    rad_p = eca(conv2d(f_radar, p.w_radar), p.eca)
    mixed = img_p + rad_p

    q_map = deform_conv(mixed, p.deform) + p.lpe
    n, _, h, w = q_map.shape
    q = flatten_spatial(q_map)

    coded = (f_text + p.ape).astype(np.float64)
    t = p.w_text.astype(np.float64) @ coded + p.w_text_bias.astype(np.float64)[:, None]
    kv = maxpool1d(t.astype(np.float32))

    ctx, _ = scaled_attend(q, kv, kv, p.d, normalize=normalize)
    return unflatten_spatial(ctx, h, w)
