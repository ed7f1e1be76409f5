"""Independent reference implementations used by the test suite.

Everything here is written the slow, obvious way (nested loops, per-pixel
arithmetic, one formula per line) and deliberately shares no code with
the package beyond parameter containers.  Tests trust these before
trusting the fast paths.  The one exception is the compositions at the
end: they rebuild layers that write maps over each other, or attend in
another layout, and the whole forward, from the package's public ops,
one fresh array per step, as the bit-for-bit reference for the in-place,
tiled and channel-major forms.
"""

from __future__ import annotations

import math

import numpy as np


def conv2d_ref(x, kernel, bias=None, stride=1, padding=0, groups=1):
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    n, cin, h, w = x.shape
    cout, cpg, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    opg = cout // groups
    for b in range(n):
        for o in range(cout):
            g = o // opg
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(cpg):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (
                                    xp[b, g * cpg + c, i * stride + u, j * stride + v]
                                    * kernel[o, c, u, v]
                                )
                    if bias is not None:
                        acc += float(bias[o])
                    out[b, o, i, j] = acc
    return out


def bn_ref(x, gamma, beta, mean, var, eps):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        out[:, c] = gamma[c] * (x[:, c] - mean[c]) / math.sqrt(var[c] + eps) + beta[c]
    return out


def sigmoid_ref(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def silu_ref(x):
    return np.asarray(x, dtype=np.float64) * sigmoid_ref(x)


def sigmoid_where(x):
    """Stable two-branch sigmoid in the input's dtype, each branch picked with
    ``np.where``: the bitwise reference for the runtime's sigmoid."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1 / (1 + e), e / (1 + e))


def bn_expr(x, gamma, beta, mean, var, eps):
    """Inference batchnorm as one out-of-place float32 expression: the
    bitwise reference for the runtime's batchnorm."""
    g, b, m, v = (np.asarray(a, dtype=np.float32)[:, None, None] for a in (gamma, beta, mean, var))
    std = np.sqrt(v + np.float32(eps))
    return (g * (x - m) / std + b).astype(np.float32)


def maxpool1d_ref(seq, kernel=3, stride=2):
    seq = np.asarray(seq, dtype=np.float64)
    length = seq.shape[-1]
    lp = (length - kernel) // stride + 1
    out = np.empty(seq.shape[:-1] + (lp,))
    for t in range(lp):
        out[..., t] = seq[..., t * stride : t * stride + kernel].max(axis=-1)
    return out


_SOBEL_GX = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
_SOBEL_GY = _SOBEL_GX.T


def sobel_ref(x):
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros_like(x)
    for b in range(n):
        for ch in range(c):
            for i in range(h):
                for j in range(w):
                    gx = (xp[b, ch, i : i + 3, j : j + 3] * _SOBEL_GX).sum()
                    gy = (xp[b, ch, i : i + 3, j : j + 3] * _SOBEL_GY).sum()
                    out[b, ch, i, j] = math.sqrt(gx * gx + gy * gy)
    return out


def upsample_nearest_ref(x, factor):
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out = np.empty((n, c, h * factor, w * factor))
    for i in range(h * factor):
        for j in range(w * factor):
            out[:, :, i, j] = x[:, :, i // factor, j // factor]
    return out


def upsample_bilinear_ref(x, factor):
    """Half-pixel (align_corners=False) sampling with edge clamping."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out = np.empty((n, c, h * factor, w * factor))
    for i in range(h * factor):
        for j in range(w * factor):
            sy = min(max((i + 0.5) / factor - 0.5, 0.0), h - 1.0)
            sx = min(max((j + 0.5) / factor - 0.5, 0.0), w - 1.0)
            y0, x0 = int(math.floor(sy)), int(math.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            out[:, :, i, j] = (
                x[:, :, y0, x0] * (1 - fy) * (1 - fx)
                + x[:, :, y0, x1] * (1 - fy) * fx
                + x[:, :, y1, x0] * fy * (1 - fx)
                + x[:, :, y1, x1] * fy * fx
            )
    return out


def upsample_bilinear_corners(x, factor):
    """The four-corner float32 form of half-pixel bilinear upsampling: each
    output blends its four gathered corners, top row then bottom, then the
    two rows.  The separable form must equal it bit for bit."""
    x = np.asarray(x, dtype=np.float32)
    n, c, h, w = x.shape
    ho, wo = h * factor, w * factor
    ys = np.clip((np.arange(ho, dtype=np.float64) + 0.5) / factor - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(wo, dtype=np.float64) + 0.5) / factor - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0).astype(np.float32)[:, None]
    wx = (xs - x0).astype(np.float32)[None, :]
    tl = x[:, :, y0[:, None], x0[None, :]]
    tr = x[:, :, y0[:, None], x1[None, :]]
    bl = x[:, :, y1[:, None], x0[None, :]]
    br = x[:, :, y1[:, None], x1[None, :]]
    top = tl * (1 - wx) + tr * wx
    bot = bl * (1 - wx) + br * wx
    return top * (1 - wy) + bot * wy


def gap_ref(x):
    x = np.asarray(x, dtype=np.float64)
    return x.mean(axis=(2, 3))


def eca_ref(x, weights):
    """GAP -> zero-padded 1-D conv over channels -> sigmoid -> gate."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    k = weights.shape[0]
    pad = k // 2
    pooled = gap_ref(x)
    n, c = pooled.shape
    gated = np.empty_like(x)
    for b in range(n):
        padded = np.concatenate([np.zeros(pad), pooled[b], np.zeros(pad)])
        for ch in range(c):
            logit = float((padded[ch : ch + k] * weights).sum())
            gated[b, ch] = x[b, ch] * (1.0 / (1.0 + math.exp(-logit)))
    return gated


def _bilinear_at(plane, y, x):
    """Read plane[y, x] with bilinear weights; outside the grid reads zero."""
    h, w = plane.shape
    y0, x0 = int(math.floor(y)), int(math.floor(x))
    total = 0.0
    for yy, wy in ((y0, 1.0 - (y - y0)), (y0 + 1, y - y0)):
        for xx, wx in ((x0, 1.0 - (x - x0)), (x0 + 1, x - x0)):
            if 0 <= yy < h and 0 <= xx < w and wy * wx != 0.0:
                total += plane[yy, xx] * wy * wx
    return total


def deform_ref(x, offset_kernel, offset_bias, main_kernel, main_bias):
    """3x3 deformable conv, padding 1: offsets via standard conv, then
    per-tap bilinear reads at base + offset positions."""
    x = np.asarray(x, dtype=np.float64)
    offsets = conv2d_ref(x, offset_kernel, offset_bias, 1, 1, 1)
    n, cin, h, w = x.shape
    cout = main_kernel.shape[0]
    kh, kw = main_kernel.shape[2:]
    out = np.zeros((n, cout, h, w))
    for b in range(n):
        for i in range(h):
            for j in range(w):
                for o in range(cout):
                    acc = 0.0
                    for t in range(kh * kw):
                        u, v = divmod(t, kw)
                        dy = offsets[b, 2 * t, i, j]
                        dx = offsets[b, 2 * t + 1, i, j]
                        sy = i + u - kh // 2 + dy
                        sx = j + v - kw // 2 + dx
                        for c in range(cin):
                            acc += main_kernel[o, c, u, v] * _bilinear_at(x[b, c], sy, sx)
                    out[b, o, i, j] = acc + (main_bias[o] if main_bias is not None else 0.0)
    return out


def sinusoid_ref(channels, length):
    enc = np.zeros((channels, length))
    for pos in range(length):
        for c in range(channels):
            base = c - (c % 2)
            angle = pos / (10000.0 ** (base / channels))
            enc[c, pos] = math.sin(angle) if c % 2 == 0 else math.cos(angle)
    return enc


def sinusoidal_encoding_loop(channels, length):
    """The position code one channel at a time, each row one numpy sin or
    cos of the positions times the channel's frequency, rounded to float32."""
    pos = np.arange(length, dtype=np.float64)
    enc = np.zeros((channels, length), dtype=np.float64)
    for c in range(channels):
        base = c if c % 2 == 0 else c - 1
        freq = 1.0 / (10000.0 ** (base / channels))
        enc[c] = np.sin(pos * freq) if c % 2 == 0 else np.cos(pos * freq)
    return enc.astype(np.float32)


def tmdf_ref(f_img, f_radar, f_text, p, normalize=False):
    """Step-by-step transcription of the fusion dataflow.

    1. project image; 2. project radar then channel-gate it; 3. add;
    4. deform conv + learnable grid, flatten to queries; 5. text affine
    with fixed positional code; 6/7. one max-pool giving keys == values;
    8. scaled dot similarity; 9. project back to the spatial grid.
    """
    f_img = np.asarray(f_img, dtype=np.float64)
    f_radar = np.asarray(f_radar, dtype=np.float64)
    f_text = np.asarray(f_text, dtype=np.float64)
    n, c, h, w = f_img.shape

    img_p = conv2d_ref(f_img, p.w_img.kernel, None, 1, 0, groups=c)
    radar_p = conv2d_ref(f_radar, p.w_radar.kernel, None, 1, 0, groups=c)
    radar_g = eca_ref(radar_p, p.eca.weights)
    mixed = img_p + radar_g

    sampled = deform_ref(
        mixed,
        p.deform.offset_conv.kernel,
        p.deform.offset_conv.bias,
        p.deform.main.kernel,
        p.deform.main.bias,
    )
    q_grid = sampled + np.asarray(p.lpe, dtype=np.float64)
    q = np.empty((n, h * w, c))
    for b in range(n):
        for ch in range(c):
            q[b, :, ch] = q_grid[b, ch].reshape(-1)

    t_hat = (
        np.asarray(p.w_text, dtype=np.float64) @ (f_text + np.asarray(p.ape, dtype=np.float64))
        + np.asarray(p.w_text_bias, dtype=np.float64)[:, None]
    )
    pooled = maxpool1d_ref(t_hat)
    k = v = pooled

    out = np.empty((n, c, h, w))
    for b in range(n):
        sim = (q[b] @ k) / math.sqrt(c)
        if normalize:
            z = sim - sim.max(axis=1, keepdims=True)
            e = np.exp(z)
            sim = e / e.sum(axis=1, keepdims=True)
        ctx = sim @ v.T  # (HW, C)
        for ch in range(c):
            out[b, ch] = ctx[:, ch].reshape(h, w)
    return out


def enmoe_ref(f, p):
    """Step-by-step transcription of the expert routing."""
    f = np.asarray(f, dtype=np.float64)
    c = f.shape[1]
    edge = silu_ref(
        bn_ref(
            conv2d_ref(sobel_ref(f), p.edge_conv.kernel, None, 1, 0, groups=c),
            p.edge_bn.gamma,
            p.edge_bn.beta,
            p.edge_bn.running_mean,
            p.edge_bn.running_var,
            p.edge_bn.epsilon,
        )
    )
    local = silu_ref(
        bn_ref(
            conv2d_ref(f, p.nbr_conv.kernel, None, 1, 2, groups=c),
            p.nbr_bn.gamma,
            p.nbr_bn.beta,
            p.nbr_bn.running_mean,
            p.nbr_bn.running_var,
            p.nbr_bn.epsilon,
        )
    )
    gate_h = sigmoid_ref(conv2d_ref(edge, p.gate_high.kernel, p.gate_high.bias, 1, 0, 1))
    gate_l = sigmoid_ref(conv2d_ref(local, p.gate_low.kernel, p.gate_low.bias, 1, 0, 1))
    base = conv2d_ref(f, p.w_o.kernel, p.w_o.bias, 1, 0, 1)
    t1 = float(sigmoid_ref(p.theta1_raw))
    t2 = float(sigmoid_ref(p.theta2_raw))
    return (t1 * gate_h * base + t2 * gate_l * base) + f


def fpn_ref(stages, p):
    laterals = [
        conv2d_ref(s, lat.kernel, lat.bias, 1, 0, 1) for s, lat in zip(stages, p.lateral)
    ]
    merged = [None] * 4
    merged[3] = laterals[3]
    for i in (2, 1, 0):
        merged[i] = laterals[i] + upsample_nearest_ref(merged[i + 1], 2)
    return [
        conv2d_ref(m, sm.kernel, sm.bias, 1, 1, 1) for m, sm in zip(merged, p.smooth)
    ]


# ---------------------------------------------------------------------------
# decode oracle
# ---------------------------------------------------------------------------


def decode_ref(heat, wh, off, r, k, score_thresh):
    """Brute-force peak pick: a cell survives when no 8-neighbour beats it
    and no equal-valued neighbour precedes it in row-major order; then
    filter, sort by (-score, index) and lift to boxes."""
    heat = np.asarray(heat, dtype=np.float64)
    h, w = heat.shape
    cands = []
    for i in range(h):
        for j in range(w):
            val = heat[i, j]
            keep = True
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    ni, nj = i + di, j + dj
                    if not (0 <= ni < h and 0 <= nj < w):
                        continue
                    other = heat[ni, nj]
                    if other > val:
                        keep = False
                    elif other == val and ni * w + nj < i * w + j:
                        keep = False
            if keep and val >= score_thresh:
                cands.append((-val, i * w + j))
    cands.sort()
    boxes = []
    for negv, idx in cands[:k]:
        i, j = divmod(idx, w)
        cx = (j + off[0, i, j]) * r
        cy = (i + off[1, i, j]) * r
        bw = max(wh[0, i, j] * r, 1e-4)
        bh = max(wh[1, i, j] * r, 1e-4)
        boxes.append((cx, cy, bw, bh, -negv))
    return boxes


# ---------------------------------------------------------------------------
# scalar CIoU and finite differences
# ---------------------------------------------------------------------------


def ciou_ref(p, g):
    """Scalar complete-IoU of one (cx, cy, w, h) pair, float64."""
    pcx, pcy, pw, ph = (float(t) for t in p)
    gcx, gcy, gw, gh = (float(t) for t in g)
    px1, py1, px2, py2 = pcx - pw / 2, pcy - ph / 2, pcx + pw / 2, pcy + ph / 2
    gx1, gy1, gx2, gy2 = gcx - gw / 2, gcy - gh / 2, gcx + gw / 2, gcy + gh / 2
    iw = max(min(px2, gx2) - max(px1, gx1), 0.0)
    ih = max(min(py2, gy2) - max(py1, gy1), 0.0)
    inter = iw * ih
    union = pw * ph + gw * gh - inter
    iou = inter / union
    rho2 = (pcx - gcx) ** 2 + (pcy - gcy) ** 2
    cw = max(px2, gx2) - min(px1, gx1)
    chh = max(py2, gy2) - min(py1, gy1)
    c2 = cw * cw + chh * chh
    v = (4.0 / math.pi**2) * (math.atan(gw / gh) - math.atan(pw / ph)) ** 2
    alpha = v / (1.0 - iou + v) if v > 0 else 0.0
    return iou - rho2 / c2 - alpha * v


def fd_grad(fn, x, step=1e-4):
    """Central finite differences of a scalar function over an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        hi = x.copy()
        lo = x.copy()
        hi[idx] += step
        lo[idx] -= step
        grad[idx] = (fn(hi) - fn(lo)) / (2.0 * step)
    return grad


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


# ---------------------------------------------------------------------------
# pooled AP enumeration
# ---------------------------------------------------------------------------


def ap_ref(preds_per_sample, gts_per_sample, thresholds):
    """Literal pooled evaluation: sort all detections by score, greedily
    match each to its best still-free ground truth in its own sample,
    then 101-point interpolate precision over recall."""
    per_thresh = {}
    recalls = []
    total_gt = sum(len(g) for g in gts_per_sample)
    for thresh in thresholds:
        detections = []
        for s, preds in enumerate(preds_per_sample):
            for b in preds:
                detections.append((-b.score, s, b))
        detections.sort(key=lambda t: t[0])
        used = [set() for _ in gts_per_sample]
        flags = []
        for _, s, b in detections:
            best_iou, best_j = 0.0, -1
            for j, g in enumerate(gts_per_sample[s]):
                if j in used[s]:
                    continue
                iou = _iou_ref((b.cx, b.cy, b.w, b.h), g)
                if iou > best_iou:
                    best_iou, best_j = iou, j
            if best_j >= 0 and best_iou >= thresh:
                used[s].add(best_j)
                flags.append(True)
            else:
                flags.append(False)
        tp = np.cumsum(flags) if flags else np.array([])
        if total_gt == 0:
            per_thresh[thresh] = 0.0
            recalls.append(0.0)
            continue
        if len(flags) == 0:
            per_thresh[thresh] = 0.0
            recalls.append(0.0)
            continue
        fp = np.arange(1, len(flags) + 1) - tp
        rec = tp / total_gt
        prec = tp / (tp + fp)
        ap = 0.0
        for r in np.linspace(0.0, 1.0, 101):
            mask = rec >= r
            ap += float(prec[mask].max()) if mask.any() else 0.0
        per_thresh[thresh] = ap / 101.0
        recalls.append(float(rec[-1]))
    ap_all = float(np.mean([per_thresh[t] for t in thresholds]))
    ar_all = float(np.mean(recalls))
    return per_thresh, ap_all * 100.0, ar_all * 100.0


def average_precision_loop(preds_per_sample, gts_per_sample, thresholds):
    """``metrics.average_precision`` computed as first written: every
    (prediction, ground truth) IoU again at every threshold, and each of
    the 101 envelope points as the maximum precision over a boolean mask,
    summed in recall order.  Kept as its bitwise reference."""
    from nmvg.metrics import EvalResult, _as_box, box_iou

    kept = [
        (list(p), [_as_box(g) for g in gts])
        for p, gts in zip(preds_per_sample, gts_per_sample)
        if len(list(p)) or len(list(gts))
    ]
    total_gt = sum(len(g) for _, g in kept)
    pool = sorted(
        ((float(pb.score), si, pb) for si, (preds, _) in enumerate(kept) for pb in preds),
        key=lambda t: -t[0],
    )
    aps, recalls = [], []
    for thresh in thresholds:
        flags = []
        taken = [[False] * len(g) for _, g in kept]
        for _, si, pb in pool:
            best, best_iou = -1, -1.0
            for j, gb in enumerate(kept[si][1]):
                if taken[si][j]:
                    continue
                iou = box_iou(pb, gb)
                if iou >= thresh and iou > best_iou:
                    best, best_iou = j, iou
            if best >= 0:
                taken[si][best] = True
            flags.append(best >= 0)
        ap = 0.0
        if total_gt:
            tp = np.cumsum(np.asarray(flags, dtype=np.float64)) if flags else np.zeros(0)
            precision = tp / np.arange(1, len(flags) + 1, dtype=np.float64) if flags else np.zeros(0)
            recall = tp / total_gt if flags else np.zeros(0)
            for r in np.linspace(0.0, 1.0, 101):
                mask = recall >= r - 1e-12
                ap += float(precision[mask].max()) if mask.any() else 0.0
        aps.append(ap / 101.0)
        recalls.append(sum(flags) / total_gt if total_gt else 0.0)
    ap50 = 100.0 * dict(zip(thresholds, aps)).get(0.5, aps[0])
    return EvalResult(ap50, 100.0 * float(np.mean(aps)), 100.0 * float(np.mean(recalls)))


def _iou_ref(a, b):
    ax1, ay1, ax2, ay2 = a[0] - a[2] / 2, a[1] - a[3] / 2, a[0] + a[2] / 2, a[1] + a[3] / 2
    bx1, by1, bx2, by2 = b[0] - b[2] / 2, b[1] - b[3] / 2, b[0] + b[2] / 2, b[1] + b[3] / 2
    iw = max(min(ax2, bx2) - max(ax1, bx1), 0.0)
    ih = max(min(ay2, by2) - max(ay1, by1), 0.0)
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union if union > 0 else 0.0


# ---------------------------------------------------------------------------
# random parameter builders and read-only inputs (shared by layer tests)
# ---------------------------------------------------------------------------


def read_only(*arrays):
    """Copies of ``arrays`` that raise on any write."""
    out = []
    for a in arrays:
        a = np.array(a)
        a.flags.writeable = False
        out.append(a)
    return out


def rand_bn(rng, c):
    from nmvg.tensor import BNParams

    return BNParams(
        gamma=rng.uniform(0.5, 1.5, c).astype(np.float32),
        beta=rng.standard_normal(c).astype(np.float32),
        running_mean=rng.standard_normal(c).astype(np.float32),
        running_var=rng.uniform(0.3, 2.0, c).astype(np.float32),
    )


def rand_conv(rng, cout, cpg, kh, kw, *, stride=1, padding=0, groups=1, bias=False, scale=1.0):
    from nmvg.tensor import ConvParams

    return ConvParams(
        kernel=(scale * rng.standard_normal((cout, cpg, kh, kw))).astype(np.float32),
        bias=rng.standard_normal(cout).astype(np.float32) if bias else None,
        stride=stride,
        padding=padding,
        groups=groups,
    )


def rand_tmdf(rng, c, h, w, length, *, offset_scale=0.1, scale=1.0):
    from nmvg.fusion import DeformParams, EcaParams, TmdfParams

    return TmdfParams(
        w_img=rand_conv(rng, c, 1, 1, 1, groups=c, scale=scale),
        w_radar=rand_conv(rng, c, 1, 1, 1, groups=c, scale=scale),
        eca=EcaParams(weights=rng.standard_normal(3).astype(np.float32)),
        deform=DeformParams(
            offset_conv=rand_conv(rng, 18, c, 3, 3, padding=1, bias=True, scale=offset_scale),
            main=rand_conv(rng, c, c, 3, 3, padding=1, bias=True, scale=scale),
        ),
        lpe=(scale * rng.standard_normal((1, c, h, w))).astype(np.float32),
        w_text=(scale * rng.standard_normal((c, c))).astype(np.float32),
        w_text_bias=(scale * rng.standard_normal(c)).astype(np.float32),
        ape=(scale * rng.standard_normal((c, length))).astype(np.float32),
    )


def rand_fpn(rng, stage_channels, out_channels):
    from nmvg.fpn import FpnParams

    return FpnParams(
        lateral=[rand_conv(rng, out_channels, c, 1, 1, bias=True) for c in stage_channels],
        smooth=[
            rand_conv(rng, out_channels, out_channels, 3, 3, padding=1, bias=True)
            for _ in stage_channels
        ],
    )


def rand_enmoe(rng, c):
    from nmvg.enmoe import EnMoeParams

    return EnMoeParams(
        edge_conv=rand_conv(rng, c, 1, 1, 1, groups=c),
        edge_bn=rand_bn(rng, c),
        nbr_conv=rand_conv(rng, c, 1, 5, 5, padding=2, groups=c),
        nbr_bn=rand_bn(rng, c),
        gate_high=rand_conv(rng, c, c, 1, 1, bias=True),
        gate_low=rand_conv(rng, c, c, 1, 1, bias=True),
        w_o=rand_conv(rng, c, c, 1, 1, bias=True),
        theta1_raw=float(rng.standard_normal()),
        theta2_raw=float(rng.standard_normal()),
    )


def rand_msrep(rng, c):
    from nmvg.heads import MsRepParams

    return MsRepParams(
        conv3=rand_conv(rng, c, 1, 3, 3, padding=1, groups=c),
        bn3=rand_bn(rng, c),
        conv1=rand_conv(rng, c, 1, 1, 1, groups=c),
        bn1=rand_bn(rng, c),
        bn_id=rand_bn(rng, c),
    )


# ---------------------------------------------------------------------------
# out-of-place compositions
# ---------------------------------------------------------------------------


def conv_steps(x, p, bn=None, act=None):
    """conv2d, then batchnorm, then the activation, each a fresh array."""
    from nmvg.tensor import activation, batchnorm_inference, conv2d

    y = conv2d(x, p)
    if bn is not None:
        y = batchnorm_inference(y, bn)
    return y if act is None else activation(y, act)


def enmoe_steps(f, p):
    """The expert routing with every map kept: both experts, both gates and
    the whole 1x1 projection, blended in the runtime's float32 order."""
    from nmvg.tensor import sobel

    gate_edge = conv_steps(conv_steps(sobel(f), p.edge_conv, p.edge_bn, "silu"), p.gate_high, act="sigmoid")
    gate_local = conv_steps(conv_steps(f, p.nbr_conv, p.nbr_bn, "silu"), p.gate_low, act="sigmoid")
    base = conv_steps(f, p.w_o)
    t1 = np.float32(sigmoid_where(np.float64(p.theta1_raw)))
    t2 = np.float32(sigmoid_where(np.float64(p.theta2_raw)))
    return (gate_edge * t1 * base + gate_local * t2 * base) + f


def rec_branch_steps(x, bp, act=None):
    x = conv_steps(x, bp.dw, bp.dw_bn, "relu")
    x = conv_steps(x, bp.pw, bp.pw_bn, "relu")
    return conv_steps(x, bp.proj, act=act)


def rec_head_steps(feat, p):
    """(heatmap, sizes, offsets) with each branch's maps kept apart."""
    heat = rec_branch_steps(feat, p.conf, "sigmoid")
    heat = np.clip(heat, np.float32(1e-7), np.float32(1.0 - 1e-7))
    return heat, rec_branch_steps(feat, p.wh), rec_branch_steps(feat, p.offset)


def _nearest2(x):
    """The 2x nearest-neighbour blow-up of x, made whole."""
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def forward_reference(model, image, radar, tokens):
    """``Model.forward``'s four outputs (heatmap, sizes, offsets,
    mask_logits) as the plain composition of the public layer calls on
    the model's own bound bundles: every conv unfused (``conv_steps``),
    every add a whole-map add, each nearest 2x step made whole by
    ``np.repeat``, the mask by ``upsample``, no ``out=`` or ``hook=``, and
    every map kept."""
    from nmvg.enmoe import MIN_EXTENT
    from nmvg.fusion import deform_conv, eca, scaled_attend
    from nmvg.tensor import ConvParams, activation, batchnorm_inference, conv2d, maxpool1d, upsample

    cfg = model.cfg
    image, radar = (np.asarray(x, dtype=np.float32) for x in (image, radar))

    def sep(x, b):
        return conv_steps(conv_steps(x, b.dw), b.pw, b.bn, "relu")

    x = sep(image, model.image_p.stem)
    img = []
    for stage in model.image_p.stages:
        x = sep(x, stage)
        img.append(x)

    rp = model.radar_p
    x = conv_steps(radar, rp.stem_dw, rp.stem_bn, "relu")
    rad = []
    for stage in rp.stages:
        h = conv_steps(x, stage.block1_dw, stage.block1_bn, "relu")
        h = conv_steps(h, stage.block2_dw, stage.block2_bn, "relu")
        x = sep(h + x, stage.down)
        rad.append(x)

    text = model.text_p.embedding[tokens.ids].T.astype(np.float64)
    fused = []
    for i, p in enumerate(model.tmdf_p):
        weight, bias = model.adapters[i]
        stage_text = (weight.astype(np.float64) @ text + bias.astype(np.float64)[:, None]).astype(np.float32)
        mixed = conv2d(img[i], p.w_img) + eca(conv2d(rad[i], p.w_radar), p.eca)
        q_map = deform_conv(mixed, p.deform) + p.lpe
        coded = (stage_text + p.ape).astype(np.float64)
        t = p.w_text.astype(np.float64) @ coded + p.w_text_bias.astype(np.float64)[:, None]
        kv = maxpool1d(t.astype(np.float32))
        n, c, hh, ww = q_map.shape
        ctx, _ = scaled_attend(q_map.reshape(n, c, hh * ww), kv, normalize=cfg.attention_normalize)
        fused.append(ctx.reshape(n, c, hh, ww))

    fp = model.fpn_p
    tops = [conv2d(fused[3], fp.lateral[3])]
    for i in (2, 1, 0):
        tops.append(conv2d(fused[i], fp.lateral[i]) + _nearest2(tops[-1]))
    pyramid = [conv2d(t, sp) for t, sp in zip(tops[::-1], fp.smooth)]

    routed = [
        enmoe_steps(level, ep) if min(level.shape[2:]) >= MIN_EXTENT else level
        for level, ep in zip(pyramid, model.enmoe_p)
    ]
    heat, sizes, offsets = rec_head_steps(routed[cfg.head_scale - 2], model.rec_p)

    res = model.res_p
    d = conv2d(routed[3], res.entry)
    for finer, block in zip(routed[2::-1], res.blocks):
        if isinstance(block, ConvParams):
            merged = conv2d(d, block)
        else:
            merged = (
                conv_steps(d, block.conv3, block.bn3)
                + conv_steps(d, block.conv1, block.bn1)
                + batchnorm_inference(d, block.bn_id)
            )
        d = finer + _nearest2(activation(merged + d, "relu"))
    logits = conv2d(d, res.proj)
    return heat, sizes, offsets, upsample(logits, cfg.input_size // logits.shape[2])


def deform_conv_fresh(x, p):
    """The deformable conv with each block's bilinear samples computed per
    corner in fresh temporaries: the float64 coordinates, their floors cast
    to int64, a validity mask, clipped index and weight made for every
    corner, and each corner's gather scaled by a float32 x float64 multiply.
    The blocks go through the runtime's own ``_contract_rows``, so only the
    sampling differs from ``fusion.deform_conv``."""
    from nmvg.tensor import _contract_rows, _emitter, conv2d

    x = np.asarray(x, dtype=np.float32)
    offsets = conv2d(x, p.offset_conv)
    main = p.main
    n, c_in, h, w = x.shape
    co, _, kh, kw = main.kernel.shape
    taps = kh * kw
    ho = (h + 2 * main.padding - kh) // main.stride + 1
    wo = (w + 2 * main.padding - kw) // main.stride + 1
    ky, kx = np.unravel_index(np.arange(taps), (kh, kw))
    base_x = (np.arange(wo) * main.stride - main.padding)[None, None, :] + kx[:, None, None]
    pixels = x.reshape(n, c_in, h * w)

    def make_fill(rows):
        def fill(cols, r0, r1):
            off = offsets[:, :, r0:r1].astype(np.float64).reshape(n, taps, 2, r1 - r0, wo)
            base_y = (np.arange(r0, r1) * main.stride - main.padding)[None, :, None] + ky[:, None, None]
            py = np.clip(base_y + off[:, :, 0], -2, h + 1)
            px = np.clip(base_x + off[:, :, 1], -2, w + 1)
            y0 = np.floor(py).astype(np.int64)
            x0 = np.floor(px).astype(np.int64)
            wy = py - y0
            wx = px - x0
            cols.fill(0.0)
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
                    cols[b] += (np.take(pixels[b], idx[b], axis=1) * wgt[b]).reshape(cols[b].shape)

        return fill

    out = np.empty((n, co, ho, wo), dtype=np.float32)
    _contract_rows(out.shape, main, make_fill, _emitter(out, co))
    return out


def tmdf_fuse_tokens(f_img, f_radar, f_text, p, normalize=False):
    """The fusion with its attention token-major: the query map copied to
    (N, H*W, C), the similarity Q K / sqrt(C) and the context sim V^T
    formed per position, and the context copied back to (N, C, H, W).
    The convs and the text pooling are the runtime's own public ops, so
    only the attention's layout differs from ``fusion.tmdf_fuse``."""
    from nmvg.fusion import deform_conv, eca
    from nmvg.tensor import conv2d, maxpool1d

    mixed = conv2d(f_img, p.w_img) + eca(conv2d(f_radar, p.w_radar), p.eca)
    q_map = deform_conv(mixed, p.deform) + p.lpe
    n, c, h, w = q_map.shape
    q = np.ascontiguousarray(q_map.reshape(n, c, h * w).transpose(0, 2, 1))
    coded = (np.asarray(f_text, dtype=np.float32) + p.ape).astype(np.float64)
    t = p.w_text.astype(np.float64) @ coded + p.w_text_bias.astype(np.float64)[:, None]
    kv = maxpool1d(t.astype(np.float32)).astype(np.float64)
    sim = (q.astype(np.float64) @ kv) / np.sqrt(float(c))
    if normalize:
        e = np.exp(sim - sim.max(axis=-1, keepdims=True))
        sim = e / e.sum(axis=-1, keepdims=True)
    ctx = (sim @ kv.T).astype(np.float32)
    return np.ascontiguousarray(ctx.transpose(0, 2, 1).reshape(n, c, h, w))
