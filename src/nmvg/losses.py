"""Training losses with closed-form gradients.

Every loss returns (value, grad) where grad is the exact derivative of
the returned value with respect to the prediction argument, suitable for
checking against central finite differences.  Computation runs in
float64 regardless of the input dtype; the detection losses follow the
center-point formulation (penalty-reduced focal confidence, sub-cell L1
offsets, complete-IoU sizes) and the mask losses are soft Dice plus
binary focal.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import read_settings

log = logging.getLogger(__name__)

_CLAMP_LO = 1e-6
_CLAMP_HI = 1.0 - 1e-6


@dataclass(frozen=True)
class LossConfig:
    alpha_conf: float = 2.0
    beta_conf: float = 4.0
    tau1: float = 1.0
    tau2: float = 0.1
    tau3: float = 1.0
    alpha_res: float = 0.25
    gamma_res: float = 2.0
    lambda1: float = 1.0
    lambda2: float = 1.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("alpha_conf", "beta_conf", "alpha_res", "gamma_res"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "LossConfig":
        """Parse a settings file of `key = value` lines; overrides win."""
        values = read_settings(path, dict.fromkeys(cls.__dataclass_fields__, float))
        values.update({k: float(v) for k, v in overrides.items()})
        return cls(**values)


@dataclass(frozen=True)
class UncertaintyWeights:
    """Task balance terms stored as log-sigmas so sigma stays positive."""

    log_sigma1: float = 0.0
    log_sigma2: float = 0.0

    @classmethod
    def from_sigmas(cls, sigma1: float, sigma2: float) -> "UncertaintyWeights":
        if sigma1 <= 0 or sigma2 <= 0:
            raise ValueError(f"sigmas must be positive, got {sigma1}, {sigma2}")
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

    centers are integer (col, row) cells; sizes are (width, height) in
    the same grid units and set each Gaussian's radius via the 0.7
    minimum-overlap rule with sigma = radius / 3.  The map is exactly 1
    at every annotated center.
    """
    centers = [(int(cx), int(cy)) for cx, cy in centers]
    sizes = [(float(sw), float(sh)) for sw, sh in sizes]
    if len(centers) != len(sizes):
        raise ValueError(f"{len(centers)} centers but {len(sizes)} sizes")
    for cx, cy in centers:
        if not (0 <= cx < w and 0 <= cy < h):
            raise ValueError(f"center ({cx}, {cy}) lies outside the {w}x{h} grid")
    ys, xs = np.mgrid[0:h, 0:w]
    heat = np.zeros((h, w), dtype=np.float64)
    radii = []
    for (cx, cy), (sw, sh) in zip(centers, sizes):
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


def _target_array(target) -> np.ndarray:
    y = target.heatmap if isinstance(target, HeatmapTarget) else target
    return np.asarray(y, dtype=np.float64)


def conf_loss(pred, target, cfg: LossConfig = LossConfig()):
    """Penalty-reduced focal loss over the confidence heatmap.

    Cells with target exactly 1 contribute (1-p)^alpha log p; all other
    cells contribute (1-y)^beta p^alpha log(1-p).  The sum is negated and
    divided by the number of positive cells (floored at one).
    """
    y = _target_array(target)
    p_raw = np.asarray(pred, dtype=np.float64)
    if p_raw.shape != y.shape:
        raise ValueError(f"prediction shape {p_raw.shape} != target shape {y.shape}")
    clamped = (p_raw < _CLAMP_LO) | (p_raw > _CLAMP_HI)
    if clamped.any():
        log.warning("conf_loss clamped %d prediction(s) into [%g, %g]",
                    int(clamped.sum()), _CLAMP_LO, _CLAMP_HI)
    p = np.clip(p_raw, _CLAMP_LO, _CLAMP_HI)
    a = cfg.alpha_conf
    b = cfg.beta_conf
    pos = y == 1.0
    n = max(int(pos.sum()), 1)

    lp = np.log(p)
    lq = np.log1p(-p)
    value = -(
        np.sum(((1 - p) ** a * lp)[pos])
        + np.sum((((1 - y) ** b) * p**a * lq)[~pos])
    ) / n

    grad = np.empty_like(p)
    grad[pos] = -(-a * (1 - p[pos]) ** (a - 1) * lp[pos] + (1 - p[pos]) ** a / p[pos]) / n
    pn = p[~pos]
    grad[~pos] = (
        -((1 - y[~pos]) ** b)
        * (a * pn ** (a - 1) * lq[~pos] - pn**a / (1 - pn))
        / n
    )
    grad[clamped] = 0.0
    return float(value), grad


def offset_loss(pred, centers, downsample: int):
    """Mean absolute error of sub-cell offsets at the annotated centers.

    centers are image-plane (x, y); each maps to the cell floor(p / R)
    with target p / R minus that cell.  The mean runs over both
    coordinates of every object, and the gradient is non-zero only at
    the sampled cells.
    """
    p = np.asarray(pred, dtype=np.float64)
    if p.ndim != 3 or p.shape[0] != 2:
        raise ValueError(f"offset map must be (2, h, w), got shape {p.shape}")
    if downsample < 1:
        raise ValueError(f"downsample must be >= 1, got {downsample}")
    pts = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
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


def _corners(b):
    cx, cy, w, h = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2


def ciou_wh_loss(pred, gt):
    """Mean complete-IoU loss over paired boxes, with its full gradient.

    Boxes are (cx, cy, w, h).  The loss per pair is 1 - CIoU where
    CIoU = IoU - rho^2 / c^2 - alpha_v * v; the gradient includes the
    dependence of the aspect trade-off alpha_v on the prediction, so it
    matches finite differences of the actual value.
    """
    p = np.asarray(pred, dtype=np.float64).reshape(-1, 4)
    g = np.asarray(gt, dtype=np.float64).reshape(-1, 4)
    if p.shape != g.shape:
        raise ValueError(f"{p.shape[0]} predictions but {g.shape[0]} ground-truth boxes")
    if p.shape[0] == 0:
        raise ValueError("no boxes to compare")
    if (g[:, 2] <= 0).any() or (g[:, 3] <= 0).any():
        raise ValueError("ground-truth boxes must have positive area")
    if (p[:, 2] <= 0).any() or (p[:, 3] <= 0).any():
        raise ValueError("predicted boxes must have positive area")
    n = p.shape[0]
    pcx, pcy, pw, ph = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
    gcx, gcy, gw, gh = g[:, 0], g[:, 1], g[:, 2], g[:, 3]
    px1, py1, px2, py2 = _corners(p)
    gx1, gy1, gx2, gy2 = _corners(g)

    iw = np.clip(np.minimum(px2, gx2) - np.maximum(px1, gx1), 0.0, None)
    ih = np.clip(np.minimum(py2, gy2) - np.maximum(py1, gy1), 0.0, None)
    inter = iw * ih
    union = pw * ph + gw * gh - inter
    iou = inter / union

    rho2 = (pcx - gcx) ** 2 + (pcy - gcy) ** 2
    ew = np.maximum(px2, gx2) - np.minimum(px1, gx1)
    eh = np.maximum(py2, gy2) - np.minimum(py1, gy1)
    c2 = ew**2 + eh**2

    datan = np.arctan(gw / gh) - np.arctan(pw / ph)
    v = (4.0 / math.pi**2) * datan**2
    s = 1.0 - iou + v
    # s hits 0 only for a perfect match, where the aspect term vanishes
    safe_s = np.where(s == 0.0, 1.0, s)
    alpha = v / safe_s
    ciou = iou - rho2 / c2 - alpha * v
    value = float(np.mean(1.0 - ciou))

    # Active-side masks for the min/max corners.
    m_ix2 = (px2 < gx2).astype(np.float64)
    m_ix1 = (px1 > gx1).astype(np.float64)
    m_iy2 = (py2 < gy2).astype(np.float64)
    m_iy1 = (py1 > gy1).astype(np.float64)
    live_w = (iw > 0).astype(np.float64)
    live_h = (ih > 0).astype(np.float64)

    diw = {
        "cx": (m_ix2 - m_ix1) * live_w,
        "w": 0.5 * (m_ix2 + m_ix1) * live_w,
    }
    dih = {
        "cy": (m_iy2 - m_iy1) * live_h,
        "h": 0.5 * (m_iy2 + m_iy1) * live_h,
    }
    zeros = np.zeros(n)
    dinter = {
        "cx": diw["cx"] * ih,
        "cy": dih["cy"] * iw,
        "w": diw["w"] * ih,
        "h": dih["h"] * iw,
    }
    darea = {"cx": zeros, "cy": zeros, "w": ph, "h": pw}
    diou = {}
    for key in ("cx", "cy", "w", "h"):
        dunion = darea[key] - dinter[key]
        diou[key] = (dinter[key] * union - inter * dunion) / union**2

    drho2 = {"cx": 2 * (pcx - gcx), "cy": 2 * (pcy - gcy), "w": zeros, "h": zeros}
    m_ex2 = (px2 > gx2).astype(np.float64)
    m_ex1 = (px1 < gx1).astype(np.float64)
    m_ey2 = (py2 > gy2).astype(np.float64)
    m_ey1 = (py1 < gy1).astype(np.float64)
    dew = {"cx": m_ex2 - m_ex1, "w": 0.5 * (m_ex2 + m_ex1), "cy": zeros, "h": zeros}
    deh = {"cy": m_ey2 - m_ey1, "h": 0.5 * (m_ey2 + m_ey1), "cx": zeros, "w": zeros}
    dpen = {}
    for key in ("cx", "cy", "w", "h"):
        dc2 = 2 * ew * dew[key] + 2 * eh * deh[key]
        dpen[key] = (drho2[key] * c2 - rho2 * dc2) / c2**2

    denom = pw**2 + ph**2
    dv = {
        "cx": zeros,
        "cy": zeros,
        "w": (8.0 / math.pi**2) * datan * (-ph / denom),
        "h": (8.0 / math.pi**2) * datan * (pw / denom),
    }
    grad = np.zeros_like(p)
    for j, key in enumerate(("cx", "cy", "w", "h")):
        dalpha = (dv[key] * (1.0 - iou) + v * diou[key]) / safe_s**2
        dciou = diou[key] - dpen[key] - (dalpha * v + alpha * dv[key])
        grad[:, j] = -dciou / n
    return value, grad


# ---------------------------------------------------------------------------
# segmentation losses
# ---------------------------------------------------------------------------


def dice_loss(pred, target, smooth: float = 1.0):
    """Soft Dice loss 1 - (2 sum(p g) + s) / (sum(p) + sum(g) + s)."""
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    g = np.asarray(target, dtype=np.float64).reshape(-1)
    if p.size == 0:
        raise ValueError("dice loss over empty tensors is undefined")
    if p.size != g.size:
        raise ValueError(f"prediction has {p.size} elements, target has {g.size}")
    if not np.isin(g, (0.0, 1.0)).all():
        raise ValueError("dice target must be binary")
    if (p < 0).any() or (p > 1).any():
        raise ValueError("dice prediction must lie in [0, 1]")
    num = 2.0 * float(p @ g) + smooth
    den = float(p.sum() + g.sum()) + smooth
    value = 1.0 - num / den
    grad = ((num - 2.0 * g * den) / den**2).reshape(np.shape(pred))
    return float(value), grad


def focal_seg_loss(pred, target, cfg: LossConfig = LossConfig()):
    """Binary focal loss, mean over pixels: -alpha (1 - p_t)^gamma log p_t."""
    p_raw = np.asarray(pred, dtype=np.float64)
    g = np.asarray(target, dtype=np.float64)
    if p_raw.shape != g.shape:
        raise ValueError(f"prediction shape {p_raw.shape} != target shape {g.shape}")
    if p_raw.size == 0:
        raise ValueError("focal loss over empty tensors is undefined")
    if not np.isin(g, (0.0, 1.0)).all():
        raise ValueError("focal target must be binary")
    clamped = (p_raw < _CLAMP_LO) | (p_raw > _CLAMP_HI)
    p = np.clip(p_raw, _CLAMP_LO, _CLAMP_HI)
    a = cfg.alpha_res
    gam = cfg.gamma_res
    m = p.size
    fg = g == 1.0

    lp = np.log(p)
    lq = np.log1p(-p)
    value = (
        np.sum((-a * (1 - p) ** gam * lp)[fg]) + np.sum((-a * p**gam * lq)[~fg])
    ) / m

    grad = np.empty_like(p)
    grad[fg] = -a * (-gam * (1 - p[fg]) ** (gam - 1) * lp[fg] + (1 - p[fg]) ** gam / p[fg]) / m
    pb = p[~fg]
    grad[~fg] = -a * (gam * pb ** (gam - 1) * lq[~fg] - pb**gam / (1 - pb)) / m
    grad[clamped] = 0.0
    return float(value), grad


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def rec_loss(conf: float, offset: float, wh: float, cfg: LossConfig = LossConfig()) -> float:
    """Detection total: tau1 * conf + tau2 * offset + tau3 * wh."""
    return cfg.tau1 * conf + cfg.tau2 * offset + cfg.tau3 * wh


def res_loss(dice: float, focal: float, cfg: LossConfig = LossConfig()) -> float:
    """Segmentation total: lambda1 * dice + lambda2 * focal."""
    return cfg.lambda1 * dice + cfg.lambda2 * focal


def total_loss(l_rec: float, l_res: float, u: UncertaintyWeights = UncertaintyWeights()) -> float:
    """Uncertainty-weighted sum of the two task losses.

    total = l_rec / (2 sigma1^2) + l_res / (2 sigma2^2)
          + log sigma1 + log sigma2

    With both sigmas at 1 this is exactly half the sum of the two parts.
    """
    s1 = u.sigma1
    s2 = u.sigma2
    return (
        l_rec / (2.0 * s1 * s1)
        + l_res / (2.0 * s2 * s2)
        + u.log_sigma1
        + u.log_sigma2
    )
