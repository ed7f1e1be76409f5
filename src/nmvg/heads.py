"""Detection and segmentation heads.

The detection head is anchor free: three small conv branches over the
finest routed level emit a confidence heatmap (sigmoid), a size map and a
sub-cell offset map at 1/4 resolution.  decode_boxes turns those maps
into boxes by 3x3 peak picking.

The segmentation head walks the pyramid coarse to fine.  Each step runs a
multi-branch depthwise block (3x3 + 1x1 + identity, each behind its own
BN) that can be folded into a single 3x3 depthwise conv after training;
msrep_fuse performs that fold exactly (up to float rounding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import (
    ActivationKind,
    BNParams,
    ConvParams,
    FeatureMap,
    ShapeError,
    activation,
    batchnorm_inference,
    conv2d,
    upsample,
)

#: Decoded box sides are clamped to this floor so degenerate size
#: regressions cannot produce empty boxes.
MIN_BOX_SIDE = 1e-4


@dataclass(frozen=True)
class DetectionBox:
    cx: float
    cy: float
    w: float
    h: float
    score: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h", "score"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (np.isfinite(self.cx) and np.isfinite(self.cy)):
            raise ValueError(f"box centre must be finite, got cx={self.cx}, cy={self.cy}")
        if not (0 < self.w < np.inf and 0 < self.h < np.inf):
            raise ValueError(f"box sides must be positive and finite, got w={self.w}, h={self.h}")
        if not (0.0 < self.score < 1.0):
            raise ValueError(f"score must lie in (0, 1), got {self.score}")


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Full-resolution foreground bitmap with the threshold that made it."""

    bitmap: np.ndarray
    threshold: float

    def __post_init__(self):
        b = np.ascontiguousarray(np.asarray(self.bitmap, dtype=np.uint8))
        if b.ndim != 2:
            raise ShapeError(f"mask bitmap must be 2-D, got shape {b.shape}")
        if not np.isin(b, (0, 1)).all():
            raise ValueError("mask bitmap entries must be 0 or 1")
        object.__setattr__(self, "bitmap", b)


# ---------------------------------------------------------------------------
# detection branch
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BranchParams:
    """3x3 depthwise + BN + ReLU, 1x1 pointwise + BN + ReLU, 1x1 projection."""

    dw: ConvParams
    dw_bn: BNParams
    pw: ConvParams
    pw_bn: BNParams
    proj: ConvParams


@dataclass(frozen=True, eq=False)
class RecHeadParams:
    conf: BranchParams
    wh: BranchParams
    offset: BranchParams


def _branch(x: FeatureMap, bp: BranchParams, act: ActivationKind | None = None) -> FeatureMap:
    x = conv2d(x, bp.dw, bp.dw_bn, "relu")
    x = conv2d(x, bp.pw, bp.pw_bn, "relu")
    return conv2d(x, bp.proj, act=act)


def rec_head_forward(
    feat: FeatureMap, p: RecHeadParams
) -> tuple[FeatureMap, FeatureMap, FeatureMap]:
    """Emit (heatmap, sizes, offsets) as (N,1,h,w), (N,2,h,w), (N,2,h,w).

    The heatmap passes through a sigmoid and is nudged off exact 0/1 so it
    always lies in the open interval.
    """
    heat = _branch(feat, p.conf, "sigmoid")
    heat = np.clip(heat, np.float32(1e-7), np.float32(1.0 - 1e-7))
    if heat.shape[1] != 1:
        raise ShapeError(f"confidence branch must emit one channel, got {heat.shape[1]}")
    sizes = _branch(feat, p.wh)
    offsets = _branch(feat, p.offset)
    if sizes.shape[1] != 2 or offsets.shape[1] != 2:
        raise ShapeError("size and offset branches must emit two channels each")
    return heat, sizes, offsets


def _peak_mask(heat: np.ndarray) -> np.ndarray:
    """Cells that win their 3x3 neighbourhood.

    A cell survives when it is >= every neighbour and no neighbour with a
    smaller flat index holds the same value; ties on a plateau therefore
    resolve to the first cell in row-major order.
    """
    h, w = heat.shape
    pad = np.pad(heat, 1, constant_values=-np.inf)
    win = sliding_window_view(pad, (3, 3))
    is_max = heat >= win.max(axis=(2, 3))
    tied_earlier = np.zeros_like(is_max)
    for dr, dc in ((-1, -1), (-1, 0), (-1, 1), (0, -1)):
        neighbour = pad[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
        tied_earlier |= neighbour == heat
    return is_max & ~tied_earlier


def _plane(arr, channels: int, what: str) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float32)
    if a.ndim == 4 and a.shape[0] == 1:
        a = a[0]
    if a.ndim == 3 and channels == 1 and a.shape[0] == 1:
        a = a[0]
    want = 2 if channels == 1 else 3
    ok = a.ndim == want and (channels == 1 or a.shape[0] == channels)
    if not ok:
        raise ShapeError(f"{what} has shape {np.shape(arr)}, expected {channels} plane(s)")
    return a


def decode_boxes(
    heatmap,
    sizes,
    offsets,
    r: int,
    k: int,
    score_thresh: float,
) -> list[DetectionBox]:
    """Pick up to k heatmap peaks and lift them to image-plane boxes.

    A peak at cell (row, col) with offset (ox, oy) and size (sw, sh)
    becomes cx=(col+ox)*r, cy=(row+oy)*r, w=sw*r, h=sh*r.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    heat = _plane(heatmap, 1, "heatmap")
    wh = _plane(sizes, 2, "size map")
    off = _plane(offsets, 2, "offset map")
    if wh.shape[1:] != heat.shape or off.shape[1:] != heat.shape:
        raise ShapeError(
            f"map extents disagree: heat {heat.shape}, sizes {wh.shape[1:]}, offsets {off.shape[1:]}"
        )
    h, w = heat.shape
    keep = _peak_mask(heat) & (heat >= np.float32(score_thresh))
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        return []
    scores = heat.reshape(-1)[idx]
    order = np.argsort(-scores, kind="stable")[:k]
    boxes = []
    for flat in idx[order]:
        row, col = divmod(int(flat), w)
        ox = float(off[0, row, col])
        oy = float(off[1, row, col])
        boxes.append(
            DetectionBox(
                cx=(col + ox) * r,
                cy=(row + oy) * r,
                w=max(float(wh[0, row, col]) * r, MIN_BOX_SIDE),
                h=max(float(wh[1, row, col]) * r, MIN_BOX_SIDE),
                score=float(heat[row, col]),
            )
        )
    return boxes


# ---------------------------------------------------------------------------
# segmentation head with fold-able multi-branch blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MsRepParams:
    """One depthwise multi-branch block, in trainable or fused form.

    Trainable form carries the 3x3 and 1x1 conv branches plus an
    identity branch, each behind its own BN.  Fused form carries the
    single folded 3x3 depthwise conv and nothing else is used.
    """

    conv3: ConvParams | None = None
    bn3: BNParams | None = None
    conv1: ConvParams | None = None
    bn1: BNParams | None = None
    bn_id: BNParams | None = None
    fused: ConvParams | None = None

    def __post_init__(self):
        if self.fused is None:
            missing = [
                name
                for name in ("conv3", "bn3", "conv1", "bn1", "bn_id")
                if getattr(self, name) is None
            ]
            if missing:
                raise ValueError(f"trainable block is missing branches: {missing}")

    @property
    def mode(self) -> str:
        return "fused" if self.fused is not None else "train"


def msrep_forward(x: FeatureMap, p: MsRepParams) -> FeatureMap:
    if p.fused is not None:
        return conv2d(x, p.fused)
    y3 = conv2d(x, p.conv3, p.bn3)
    y1 = conv2d(x, p.conv1, p.bn1)
    y3 += y1
    y3 += batchnorm_inference(x, p.bn_id)
    return y3


def _fold_bn(kernel64: np.ndarray, bias64: np.ndarray | None, bn: BNParams):
    std = np.sqrt(bn.running_var.astype(np.float64) + float(bn.epsilon))
    scale = bn.gamma.astype(np.float64) / std
    folded_kernel = kernel64 * scale[:, None, None, None]
    conv_bias = bias64 if bias64 is not None else np.zeros(kernel64.shape[0])
    folded_bias = bn.beta.astype(np.float64) + (conv_bias - bn.running_mean.astype(np.float64)) * scale
    return folded_kernel, folded_bias


def msrep_fuse(p: MsRepParams) -> MsRepParams:
    """Fold the three branches into one 3x3 depthwise conv with bias.

    BN folds into each conv branch, the 1x1 kernel zero-pads to 3x3 and
    the identity branch becomes a centered delta kernel; kernels and
    biases then sum.  Fusing an already fused block is an error.
    """
    if p.fused is not None:
        raise ValueError("block is already fused")
    c = p.conv3.out_channels
    if p.conv3.kernel.shape != (c, 1, 3, 3) or p.conv3.groups != c:
        raise ShapeError("fusion expects a depthwise 3x3 branch")
    if p.conv1.kernel.shape != (c, 1, 1, 1) or p.conv1.groups != c:
        raise ShapeError("fusion expects a depthwise 1x1 branch")

    k3, b3 = _fold_bn(p.conv3.kernel.astype(np.float64), _bias64(p.conv3), p.bn3)
    k1, b1 = _fold_bn(p.conv1.kernel.astype(np.float64), _bias64(p.conv1), p.bn1)
    k1 = np.pad(k1, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ident = np.zeros((c, 1, 3, 3), dtype=np.float64)
    ident[:, 0, 1, 1] = 1.0
    kid, bid = _fold_bn(ident, None, p.bn_id)

    fused = ConvParams(
        kernel=(k3 + k1 + kid).astype(np.float32),
        bias=(b3 + b1 + bid).astype(np.float32),
        stride=1,
        padding=1,
        groups=c,
    )
    return MsRepParams(fused=fused)


def _bias64(conv: ConvParams) -> np.ndarray | None:
    return None if conv.bias is None else conv.bias.astype(np.float64)


@dataclass(frozen=True, eq=False)
class ResHeadParams:
    """Coarse-to-fine mask decoder parameters.

    entry is a depthwise 1x1 over the coarsest level; blocks hold the
    multi-branch refiners applied at levels 5, 4 and 3 on the way down;
    proj maps the finest merged map to a single logit channel.
    """

    entry: ConvParams
    blocks: tuple[MsRepParams, MsRepParams, MsRepParams]
    proj: ConvParams


def res_head_forward(
    pyramid: list[FeatureMap],
    p: ResHeadParams,
    image_size: int,
    threshold: float = 0.0,
) -> tuple[FeatureMap, list[BinaryMask]]:
    """Decode the pyramid into a full-resolution logit map and bitmaps.

    Each step refines the running map with a multi-branch block plus a
    short residual, applies ReLU, doubles the resolution (nearest) and
    adds the next finer level.  The finest map projects to one channel
    and upsamples bilinearly to the requested image size.  Foreground is
    logit strictly greater than the threshold.
    """
    if len(pyramid) != 4:
        raise ShapeError(f"segmentation head expects four levels, got {len(pyramid)}")
    maps = [np.asarray(m, dtype=np.float32) for m in pyramid]
    for a, b in zip(maps, maps[1:]):
        if a.shape[2] != 2 * b.shape[2] or a.shape[3] != 2 * b.shape[3]:
            raise ShapeError(
                f"pyramid dims must halve level to level, got {a.shape[2:]} then {b.shape[2:]}"
            )
    d = conv2d(maps[3], p.entry)
    for finer, block in zip((maps[2], maps[1], maps[0]), p.blocks):
        merged = activation(msrep_forward(d, block) + d, "relu")
        d = finer + upsample(merged, 2, "nearest")
    logits = conv2d(d, p.proj)
    if logits.shape[1] != 1:
        raise ShapeError(f"mask projection must emit one channel, got {logits.shape[1]}")
    if image_size % logits.shape[2] != 0:
        raise ShapeError(
            f"image size {image_size} is not a multiple of the merged extent {logits.shape[2]}"
        )
    factor = image_size // logits.shape[2]
    logits = upsample(logits, factor, "bilinear")
    masks = [
        BinaryMask(bitmap=(logits[i, 0] > np.float32(threshold)).astype(np.uint8), threshold=threshold)
        for i in range(logits.shape[0])
    ]
    return logits, masks
