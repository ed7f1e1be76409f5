"""Evaluation metrics: box AP/AR, mask mIoU and the energy-aware score.

AP follows the pooled 101-point interpolation scheme: detections from
all samples rank together by score, each matches greedily to the best
still-unmatched ground-truth box of its own sample at or above the IoU
threshold, and the precision envelope is averaged at 101 recall points.
Thresholds run 0.50 to 0.95 in steps of 0.05.  All results use a 0..100
percentage scale.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .heads import BinaryMask
from .tensor import _as_int, _as_real, _own

IOU_THRESHOLDS = tuple((50 + 5 * i) / 100 for i in range(10))


def _as_box(b) -> tuple[float, float, float, float]:
    """A box's cx, cy, w and h (fields, or a sequence's first four items) as finite floats."""
    cx, cy, w, h = (b.cx, b.cy, b.w, b.h) if hasattr(b, "cx") else tuple(b)[:4]
    return _as_real("box cx", cx), _as_real("box cy", cy), _as_real("box w", w), _as_real("box h", h)


def box_iou(a, b) -> float:
    """Intersection over union of two (cx, cy, w, h) boxes, which must be
    finite and of positive area."""
    (acx, acy, aw, ah), (bcx, bcy, bw, bh) = _as_box(a), _as_box(b)
    if aw <= 0 or ah <= 0 or bw <= 0 or bh <= 0:
        raise ValueError("boxes must have positive area")
    ix = min(acx + aw / 2, bcx + bw / 2) - max(acx - aw / 2, bcx - bw / 2)
    iy = min(acy + ah / 2, bcy + bh / 2) - max(acy - ah / 2, bcy - bh / 2)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = aw * ah + bw * bh - inter
    return inter / union


@dataclass(frozen=True)
class EvalResult:
    ap50: float
    ap50_95: float
    ar50_95: float

    def __post_init__(self):
        for name in ("ap50", "ap50_95", "ar50_95"):
            v = _as_real(name, getattr(self, name))
            object.__setattr__(self, name, v)
            if not (0.0 <= v <= 100.0):
                raise ValueError(f"{name} must lie in [0, 100], got {v}")
        if self.ap50 < self.ap50_95 - 1e-9:
            raise ValueError(
                f"ap50 ({self.ap50}) cannot be below ap50_95 ({self.ap50_95})"
            )


def _ap_101(tp_flags: list[bool], total_gt: int) -> float:
    if total_gt == 0:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    precision = tp / np.arange(1, len(tp_flags) + 1, dtype=np.float64)
    recall = tp / total_gt
    # recall never falls, so the points at or above a level are a suffix:
    # the envelope at a level is the suffix maximum from its first point.
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    ap = 0.0
    for v in envelope[np.searchsorted(recall, np.linspace(0.0, 1.0, 101) - 1e-12)].tolist():
        ap += v
    return ap / 101.0


def average_precision(preds_per_sample, gts_per_sample) -> EvalResult:
    """Pooled AP50, AP50:95 and AR50:95 over per-sample box lists.

    Samples with neither ground truth nor predictions carry no signal and
    are dropped; if nothing remains the evaluation is undefined and
    rejected.
    """
    if len(preds_per_sample) != len(gts_per_sample):
        raise ValueError(
            f"{len(preds_per_sample)} prediction lists but {len(gts_per_sample)} ground-truth lists"
        )
    kept = [
        (list(p), [_as_box(g) for g in gts])
        for p, gts in zip(preds_per_sample, gts_per_sample)
        if len(list(p)) or len(list(gts))
    ]
    if not kept:
        raise ValueError("no samples with annotations or predictions to evaluate")
    total_gt = sum(len(g) for _, g in kept)
    pool = []
    for sample_idx, (preds, _) in enumerate(kept):
        for pb in preds:
            pool.append((float(pb.score), sample_idx, pb))
    pool.sort(key=lambda t: -t[0])
    ious = [[box_iou(pb, gb) for gb in kept[si][1]] for _, si, pb in pool]

    aps, recalls = [], []
    for thresh in IOU_THRESHOLDS:
        order_flags = []
        # greedy in global score order, matching within each sample
        taken = [[False] * len(g) for _, g in kept]
        for (_, si, _), row in zip(pool, ious):
            best, best_iou = -1, -1.0
            for j, iou in enumerate(row):
                if taken[si][j]:
                    continue
                if iou >= thresh and iou > best_iou:
                    best, best_iou = j, iou
            if best >= 0:
                taken[si][best] = True
                order_flags.append(True)
            else:
                order_flags.append(False)
        aps.append(_ap_101(order_flags, total_gt))
        recalls.append(sum(order_flags) / total_gt if total_gt else 0.0)

    return EvalResult(
        ap50=100.0 * aps[0],  # IOU_THRESHOLDS[0] is 0.5
        ap50_95=100.0 * float(np.mean(aps)),
        ar50_95=100.0 * float(np.mean(recalls)),
    )


def mask_miou(pred_masks, gt_masks) -> float:
    """Mean IoU over paired binary masks, each a BinaryMask or an array it
    accepts; two empty masks count as 1."""
    if len(pred_masks) != len(gt_masks):
        raise ValueError(f"{len(pred_masks)} predictions but {len(gt_masks)} ground-truth masks")
    if not pred_masks:
        raise ValueError("no masks to evaluate")
    scores = []
    for pm, gm in zip(pred_masks, gt_masks):
        pa, ga = ((m if isinstance(m, BinaryMask) else BinaryMask(m)).bitmap.astype(bool) for m in (pm, gm))
        if pa.shape != ga.shape:
            raise ValueError(f"mask shapes differ: {pa.shape} vs {ga.shape}")
        union = int(np.logical_or(pa, ga).sum())
        if union == 0:
            scores.append(1.0)
        else:
            scores.append(int(np.logical_and(pa, ga).sum()) / union)
    return 100.0 * float(np.mean(scores))


# ---------------------------------------------------------------------------
# energy-aware performance
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EnergyTrace:
    """Paired per-sample energy readings for trained and untrained weights."""

    sample_ids: tuple[str, ...]
    trained: np.ndarray
    untrained: np.ndarray
    tau_evals: int

    def __post_init__(self):
        tr = _own(self, "trained", 1, dtype=np.float64)
        un = _own(self, "untrained", 1, tr.shape, np.float64)
        if tr.shape[0] == 0:
            raise ValueError("energy trace is empty")
        if len(self.sample_ids) != tr.shape[0]:
            raise ValueError("sample ids do not match the number of readings")
        if not (np.isfinite(tr).all() and np.isfinite(un).all()):
            raise ValueError("energy readings must be finite")
        if (tr < 0).any() or (un < 0).any():
            raise ValueError("energy readings must be non-negative")
        object.__setattr__(self, "tau_evals", _as_int("tau_evals", self.tau_evals))
        if self.tau_evals < 1:
            raise ValueError(f"tau_evals must be >= 1, got {self.tau_evals}")
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))

    @classmethod
    def from_csv(cls, path: str | Path, tau: int | None = None) -> "EnergyTrace":
        """Load `sample_id,energy_trained,energy_untrained` rows.

        tau defaults to the row count when not given.
        """
        ids, tr, un = [], [], []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            need = {"sample_id", "energy_trained", "energy_untrained"}
            if reader.fieldnames is None or not need.issubset(reader.fieldnames):
                raise ValueError(
                    f"trace {path} must have columns {sorted(need)}, got {reader.fieldnames}"
                )
            for row in reader:
                # DictReader files a short row's missing fields as None and a
                # long row's extra fields under the key None.
                where = f"{path}:{reader.line_num}"
                if None in row or None in row.values():
                    raise ValueError(f"{where}: expected {len(reader.fieldnames)} fields")
                try:
                    tr.append(float(row["energy_trained"]))
                    un.append(float(row["energy_untrained"]))
                except ValueError:
                    raise ValueError(f"{where}: non-numeric energy reading") from None
                ids.append(row["sample_id"])
        if not ids:
            raise ValueError(f"trace {path} has no data rows")
        return cls(
            sample_ids=tuple(ids),
            trained=np.array(tr),
            untrained=np.array(un),
            tau_evals=tau if tau is not None else len(ids),
        )


def mept(perf, trace: EnergyTrace) -> float:
    """Mean performance divided by the relative power of training.

    relative power = sum(trained - untrained) / tau_evals.  A non-positive
    value means the untrained weights drew at least as much energy, which
    marks the trace as corrupt and is rejected.
    """
    p = np.asarray(perf, dtype=np.float64).reshape(-1)
    if p.size == 0:
        raise ValueError("no performance values given")
    if not np.isfinite(p).all():
        raise ValueError("performance values must be finite")
    power = float((trace.trained - trace.untrained).sum()) / trace.tau_evals
    if power <= 0:
        raise ValueError(
            "relative power is non-positive (untrained weights consumed at least "
            "as much energy); the trace looks corrupt"
        )
    return float(p.mean()) / power
