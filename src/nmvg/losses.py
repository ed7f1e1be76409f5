"""Training losses with closed-form gradients.

Every loss returns (value, grad) where grad is the exact derivative of
the returned value with respect to the prediction argument, suitable for
checking against central finite differences.  Computation runs in
float64 regardless of the input dtype; the detection losses follow the
center-point formulation (penalty-reduced focal confidence, sub-cell L1
offsets, complete-IoU sizes) and the mask losses are soft Dice plus
binary focal.  Every loss raises ValueError on a NaN or infinite
argument, and on a probability or mask argument outside [0, 1].
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .tensor import _as_int, _as_real

log = logging.getLogger(__name__)

_CLAMP_LO = 1e-6
_CLAMP_HI = 1.0 - 1e-6

# The paper's fixed loss weights, not settings: the focal exponents of the
# confidence loss (CenterNet, arXiv 1904.07850) and of the mask loss, the
# term weights of rec_loss and res_loss, and Dice's smoothing term.
ALPHA_CONF, BETA_CONF = 2.0, 4.0
ALPHA_RES, GAMMA_RES = 0.25, 2.0
TAUS = (1.0, 0.1, 1.0)
LAMBDAS = (1.0, 1.0)
DICE_SMOOTH = 1.0


@dataclass(frozen=True)
class UncertaintyWeights:
    """Task balance terms stored as log-sigmas so sigma stays positive."""

    log_sigma1: float = 0.0
    log_sigma2: float = 0.0

    def __post_init__(self):
        """Each log-sigma, stored as a float, must give a finite, positive sigma and sigma²."""
        for name in ("log_sigma1", "log_sigma2"):
            log_sigma = _as_real(name, getattr(self, name))
            object.__setattr__(self, name, log_sigma)
            sigma = math.exp(min(log_sigma, 709.0))  # below exp's overflow; sigma² is inf from 355 on
            if not 0.0 < sigma * sigma < math.inf:
                raise ValueError(f"{name} must give a finite positive sigma and sigma², got {log_sigma}")

    @classmethod
    def from_sigmas(cls, sigma1: float, sigma2: float) -> "UncertaintyWeights":
        for name, sigma in (("sigma1", sigma1), ("sigma2", sigma2)):
            if not _as_real(name, sigma) > 0:
                raise ValueError(f"{name} must be positive, got {sigma}")
        return cls(log_sigma1=math.log(sigma1), log_sigma2=math.log(sigma2))

    @property
    def sigma1(self) -> float:
        return math.exp(self.log_sigma1)

    @property
    def sigma2(self) -> float:
        return math.exp(self.log_sigma2)


# ---------------------------------------------------------------------------
# heatmap targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HeatmapTarget:
    heatmap: np.ndarray
    centers: tuple[tuple[int, int], ...]
    radii: tuple[float, ...]


def _gaussian_radius(box_h: float, box_w: float, min_overlap: float = 0.7) -> float:
    # Smallest of the three quadratic bounds that keep a shifted box above
    # the overlap floor.
    a1 = 1.0
    b1 = box_h + box_w
    c1 = box_w * box_h * (1 - min_overlap) / (1 + min_overlap)
    r1 = (b1 + math.sqrt(b1 * b1 - 4 * a1 * c1)) / 2

    a2 = 4.0
    b2 = 2 * (box_h + box_w)
    c2 = (1 - min_overlap) * box_w * box_h
    r2 = (b2 + math.sqrt(b2 * b2 - 4 * a2 * c2)) / 2

    a3 = 4.0 * min_overlap
    b3 = -2 * min_overlap * (box_h + box_w)
    c3 = (min_overlap - 1) * box_w * box_h
    r3 = (b3 + math.sqrt(b3 * b3 - 4 * a3 * c3)) / 2
    return min(r1, r2, r3)


def gaussian_target(
    centers,
    sizes,
    h: int,
    w: int,
) -> HeatmapTarget:
    """Splat one Gaussian per object and keep the per-cell maximum.

    centers are integer (col, row) cells; sizes are non-negative (width,
    height) in the same grid units and set each Gaussian's radius via the
    0.7 minimum-overlap rule with sigma = radius / 3.  The map is exactly
    1 at every annotated center.
    """
    centers = [(_as_int("center col", cx), _as_int("center row", cy)) for cx, cy in centers]
    sizes = [(_as_real("size width", sw), _as_real("size height", sh)) for sw, sh in sizes]
    if len(centers) != len(sizes):
        raise ValueError(f"{len(centers)} centers but {len(sizes)} sizes")
    for cx, cy in centers:
        if not (0 <= cx < w and 0 <= cy < h):
            raise ValueError(f"center ({cx}, {cy}) lies outside the {w}x{h} grid")
    ys, xs = np.mgrid[0:h, 0:w]
    heat = np.zeros((h, w), dtype=np.float64)
    radii = []
    for (cx, cy), (sw, sh) in zip(centers, sizes):
        if sw < 0 or sh < 0:
            raise ValueError(f"size ({sw}, {sh}) must not be negative")
        radius = _gaussian_radius(sh, sw)
        radii.append(radius)
        sigma = max(radius, 1e-6) / 3.0
        g = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
        heat = np.maximum(heat, g)
    return HeatmapTarget(
        heatmap=heat[None].astype(np.float32),
        centers=tuple(centers),
        radii=tuple(radii),
    )


# ---------------------------------------------------------------------------
# detection losses
# ---------------------------------------------------------------------------


def _checked(pred, target, what: str, kind: str = "real"):
    """Both arguments as float64 arrays.  Raises ValueError on a NaN or an
    infinity; for kind "probability" or "mask", on a value outside [0, 1];
    and for "mask", on an empty or non-binary target."""
    p = np.asarray(pred, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    for name, arr in (("prediction", p), ("target", y)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{what} {name} must be finite")
        if kind != "real" and ((arr < 0) | (arr > 1)).any():
            raise ValueError(f"{what} {name} must lie in [0, 1]")
    if kind == "mask" and p.size == 0:
        raise ValueError(f"{what} over empty tensors is undefined")
    if kind == "mask" and not np.isin(y, (0.0, 1.0)).all():
        raise ValueError(f"{what} target must be binary")
    return p, y


def _focal(p_raw, pos, weight, a: float, norm: float, name: str):
    """Focal loss -(sum over pos of weight (1-p)^a log p + sum over the
    rest of weight p^a log(1-p)) / norm, with its gradient.  weight is a
    scalar or one value per cell.  Predictions are clamped into
    [_CLAMP_LO, _CLAMP_HI], and clamped cells get no gradient."""
    clamped = (p_raw < _CLAMP_LO) | (p_raw > _CLAMP_HI)
    if clamped.any():
        log.warning("%s clamped %d prediction(s) into [%g, %g]",
                    name, int(clamped.sum()), _CLAMP_LO, _CLAMP_HI)
    p = np.clip(p_raw, _CLAMP_LO, _CLAMP_HI)
    q = 1 - p
    lp = np.log(p)
    lq = np.log1p(-p)
    value = -(np.sum((weight * q**a * lp)[pos]) + np.sum((weight * p**a * lq)[~pos])) / norm
    d_pos = -a * q ** (a - 1) * lp + q**a / p
    d_neg = a * p ** (a - 1) * lq - p**a / q
    grad = -(weight * np.where(pos, d_pos, d_neg)) / norm
    grad[clamped] = 0.0
    return float(value), grad


def conf_loss(pred, target):
    """Penalty-reduced focal loss over the confidence heatmap.

    Cells with target exactly 1 contribute (1-p)^ALPHA_CONF log p; all
    other cells contribute (1-y)^BETA_CONF p^ALPHA_CONF log(1-p).  The
    sum is negated and divided by the number of positive cells (floored
    at one).
    """
    y = target.heatmap if isinstance(target, HeatmapTarget) else target
    p, y = _checked(pred, y, "conf_loss", "probability")
    if p.shape != y.shape:
        raise ValueError(f"prediction shape {p.shape} != target shape {y.shape}")
    pos = y == 1.0
    weight = np.where(pos, 1.0, (1 - y) ** BETA_CONF)
    return _focal(p, pos, weight, ALPHA_CONF, max(int(pos.sum()), 1), "conf_loss")


def offset_loss(pred, centers, downsample: int):
    """Mean absolute error of sub-cell offsets at the annotated centers.

    centers are image-plane (x, y); each maps to the cell floor(p / R)
    with target p / R minus that cell.  The mean runs over both
    coordinates of every object, and the gradient is non-zero only at
    the sampled cells.  downsample is an integer of at least 1.
    """
    p, pts = _checked(pred, centers, "offset_loss")
    if p.ndim != 3 or p.shape[0] != 2:
        raise ValueError(f"offset map must be (2, h, w), got shape {p.shape}")
    downsample = _as_int("downsample", downsample)
    if downsample < 1:
        raise ValueError(f"downsample must be >= 1, got {downsample}")
    pts = pts.reshape(-1, 2)
    grad = np.zeros_like(p)
    if pts.shape[0] == 0:
        return 0.0, grad
    _, h, w = p.shape
    cells = np.floor(pts / downsample).astype(np.int64)
    if (cells[:, 0] < 0).any() or (cells[:, 0] >= w).any() or (cells[:, 1] < 0).any() or (cells[:, 1] >= h).any():
        raise ValueError("a center falls outside the offset grid after downsampling")
    targets = pts / downsample - cells
    m = 2 * pts.shape[0]
    total = 0.0
    for (col, row), (tx, ty) in zip(cells, targets):
        dx = p[0, row, col] - tx
        dy = p[1, row, col] - ty
        total += abs(dx) + abs(dy)
        grad[0, row, col] += np.sign(dx) / m
        grad[1, row, col] += np.sign(dy) / m
    return float(total / m), grad


# d(x1, y1, x2, y2) / d(cx, cy, w, h): a row of corner gradients times this
# is the gradient with respect to the box parameters.
_CORNER_JACOBIAN = np.array([
    [1.0, 0.0, -0.5, 0.0],
    [0.0, 1.0, 0.0, -0.5],
    [1.0, 0.0, 0.5, 0.0],
    [0.0, 1.0, 0.0, 0.5],
])
# The sign of each corner (x1, y1, x2, y2) in its axis's extent hi - lo.
_CORNER_SIGN = np.array([-1.0, -1.0, 1.0, 1.0])


def ciou_wh_loss(pred, gt):
    """Mean complete-IoU loss over paired boxes, with its full gradient.

    Boxes are (cx, cy, w, h).  The loss per pair is 1 - CIoU where
    CIoU = IoU - rho^2 / c^2 - alpha_v * v; the gradient includes the
    dependence of the aspect trade-off alpha_v on the prediction, so it
    matches finite differences of the actual value.  Raises ValueError
    when boxes are so extreme that the value or gradient is not finite.
    """
    p, g = _checked(pred, gt, "ciou_wh_loss")
    p = p.reshape(-1, 4)
    g = g.reshape(-1, 4)
    if p.shape != g.shape:
        raise ValueError(f"{p.shape[0]} predictions but {g.shape[0]} ground-truth boxes")
    if p.shape[0] == 0:
        raise ValueError("no boxes to compare")
    if (g[:, 2:] <= 0).any():
        raise ValueError("ground-truth boxes must have positive area")
    if (p[:, 2:] <= 0).any():
        raise ValueError("predicted boxes must have positive area")
    # Finite but extreme boxes (1e-200 or 1e300 wide) over- or underflow
    # inside the terms; that shows as a non-finite result, refused here.
    with np.errstate(all="ignore"):
        value, grad = _ciou(p, g)
    if not (np.isfinite(value) and np.isfinite(grad).all()):
        raise ValueError("ciou_wh_loss is not finite for these boxes: a size or coordinate is too extreme")
    return value, grad


def _ciou(p: np.ndarray, g: np.ndarray) -> tuple[float, np.ndarray]:
    """ciou_wh_loss's value and gradient for checked (n, 4) boxes."""
    n = p.shape[0]
    zeros = np.zeros((n, 2))
    # Centres, sizes and corners per axis as (n, 2): x in column 0, y in 1.
    # Per-box values are (n, 1) columns and their gradients (n, 4) rows over
    # (cx, cy, w, h).
    pc, ps, gc, gs = p[:, :2], p[:, 2:], g[:, :2], g[:, 2:]
    plo, phi = pc - ps / 2, pc + ps / 2
    glo, ghi = gc - gs / 2, gc + gs / 2

    overlap = np.clip(np.minimum(phi, ghi) - np.maximum(plo, glo), 0.0, None)
    inter = np.prod(overlap, axis=1, keepdims=True)
    union = np.prod(ps, axis=1, keepdims=True) + np.prod(gs, axis=1, keepdims=True) - inter
    iou = inter / union

    rho2 = np.sum((pc - gc) ** 2, axis=1, keepdims=True)
    enclose = np.maximum(phi, ghi) - np.minimum(plo, glo)
    c2 = np.sum(enclose**2, axis=1, keepdims=True)

    datan = np.arctan(gs[:, :1] / gs[:, 1:]) - np.arctan(ps[:, :1] / ps[:, 1:])
    v = (4.0 / math.pi**2) * datan**2
    s = 1.0 - iou + v
    # s hits 0 only for a perfect match, where the aspect term vanishes
    safe_s = np.where(s == 0.0, 1.0, s)
    alpha = v / safe_s
    ciou = iou - rho2 / c2 - alpha * v
    value = float(np.mean(1.0 - ciou))

    # Corner gradients of the per-axis extents: a prediction edge moves the
    # overlap where it bounds a non-empty overlap, and the enclosure where
    # it bounds that.
    d_overlap = _CORNER_SIGN * np.hstack([plo > glo, phi < ghi]) * np.tile(overlap > 0, 2)
    d_enclose = _CORNER_SIGN * np.hstack([plo < glo, phi > ghi])
    d_inter = (d_overlap * np.tile(overlap[:, ::-1], 2)) @ _CORNER_JACOBIAN
    d_union = np.hstack([zeros, ps[:, ::-1]]) - d_inter  # d(w h) = (0, 0, h, w)
    d_iou = (d_inter * union - inter * d_union) / union**2
    d_rho2 = np.hstack([2 * (pc - gc), zeros])
    d_c2 = (2 * np.tile(enclose, 2) * d_enclose) @ _CORNER_JACOBIAN
    d_penalty = (d_rho2 * c2 - rho2 * d_c2) / c2**2
    d_atan = np.hstack([zeros, ps[:, ::-1] * [1.0, -1.0]]) / np.sum(ps**2, axis=1, keepdims=True)
    d_v = -(8.0 / math.pi**2) * datan * d_atan
    d_alpha = (d_v * (1.0 - iou) + v * d_iou) / safe_s**2
    d_ciou = d_iou - d_penalty - (d_alpha * v + alpha * d_v)
    return value, -d_ciou / n


# ---------------------------------------------------------------------------
# segmentation losses
# ---------------------------------------------------------------------------


def dice_loss(pred, target):
    """Soft Dice loss 1 - (2 sum(p g) + s) / (sum(p) + sum(g) + s) with
    s = DICE_SMOOTH."""
    p, g = _checked(pred, target, "dice_loss", "mask")
    p = p.reshape(-1)
    g = g.reshape(-1)
    if p.size != g.size:
        raise ValueError(f"prediction has {p.size} elements, target has {g.size}")
    num = 2.0 * float(p @ g) + DICE_SMOOTH
    den = float(p.sum() + g.sum()) + DICE_SMOOTH
    value = 1.0 - num / den
    grad = ((num - 2.0 * g * den) / den**2).reshape(np.shape(pred))
    return float(value), grad


def focal_seg_loss(pred, target):
    """Binary focal loss, mean over pixels:
    -ALPHA_RES (1 - p_t)^GAMMA_RES log p_t."""
    p, g = _checked(pred, target, "focal_seg_loss", "mask")
    if p.shape != g.shape:
        raise ValueError(f"prediction shape {p.shape} != target shape {g.shape}")
    return _focal(p, g == 1.0, ALPHA_RES, GAMMA_RES, p.size, "focal_seg_loss")


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def rec_loss(conf: float, offset: float, wh: float) -> float:
    """Detection total: tau1 * conf + tau2 * offset + tau3 * wh over TAUS."""
    return TAUS[0] * conf + TAUS[1] * offset + TAUS[2] * wh


def res_loss(dice: float, focal: float) -> float:
    """Segmentation total: lambda1 * dice + lambda2 * focal over LAMBDAS."""
    return LAMBDAS[0] * dice + LAMBDAS[1] * focal


def total_loss(l_rec: float, l_res: float, u: UncertaintyWeights = UncertaintyWeights()) -> float:
    """Uncertainty-weighted sum of the two task losses.

    total = l_rec / (2 sigma1^2) + l_res / (2 sigma2^2)
          + log sigma1 + log sigma2

    With both sigmas at 1 this is exactly half the sum of the two parts.
    Each loss term must be a finite real, or ValueError names it.
    """
    l_rec, l_res = _as_real("l_rec", l_rec), _as_real("l_res", l_res)
    s1 = u.sigma1
    s2 = u.sigma2
    return (
        l_rec / (2.0 * s1 * s1)
        + l_res / (2.0 * s2 * s2)
        + u.log_sigma1
        + u.log_sigma2
    )
