"""Quick numeric self-checks, one line of output per check.

Every check compares a module against a tiny independent oracle (nested
loops, a hand-computed value, or an exact algebraic identity) so a broken
build is caught without the full test suite.  Checks are independent;
all of them run even after a failure.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from .archive import WeightArchive, load_archive, save_archive
from .enmoe import EnMoeParams, enmoe_forward
from .fusion import (
    DeformParams,
    EcaParams,
    TmdfParams,
    deform_conv,
    eca,
    scaled_attend,
    tmdf_fuse,
)
from .heads import MsRepParams, decode_boxes, msrep_forward, msrep_fuse
from .losses import (
    UncertaintyWeights,
    ciou_wh_loss,
    conf_loss,
    dice_loss,
    focal_seg_loss,
    offset_loss,
    total_loss,
)
from .metrics import EnergyTrace, average_precision, box_iou, mept
from .tensor import (
    BNParams,
    ConvParams,
    activation,
    batchnorm_inference,
    conv2d,
    maxpool1d,
    sobel,
    upsample,
)


def _conv_ref(x, kernel, bias, stride, padding, groups):
    """Nested-loop convolution in float64; the shape of trust."""
    n, cin, h, w = x.shape
    cout, cpg, kh, kw = kernel.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
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
                    out[b, o, i, j] = acc + (bias[o] if bias is not None else 0.0)
    return out


def _assert_close(got, want, tol, what):
    err = float(np.max(np.abs(np.asarray(got, dtype=np.float64) - np.asarray(want, dtype=np.float64))))
    if err > tol:
        raise AssertionError(f"{what}: max deviation {err:.3g} exceeds {tol:g}")


def check_conv_general():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 6, 7)).astype(np.float32)
    k = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    p = ConvParams(kernel=k, bias=b, stride=2, padding=1)
    _assert_close(conv2d(x, p), _conv_ref(x, k, b, 2, 1, 1), 1e-5, "strided conv")


def check_conv_depthwise():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
    k = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
    p = ConvParams(kernel=k, stride=1, padding=1, groups=4)
    _assert_close(conv2d(x, p), _conv_ref(x, k, None, 1, 1, 4), 1e-5, "depthwise conv")


def check_batchnorm():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    g, b, m, v = (rng.standard_normal(3).astype(np.float32) for _ in range(4))
    v = np.abs(v) + 0.5
    bn = BNParams(gamma=g, beta=b, running_mean=m, running_var=v, epsilon=1e-5)
    want = g[:, None, None] * (x - m[:, None, None]) / np.sqrt(v[:, None, None] + 1e-5) + b[:, None, None]
    _assert_close(batchnorm_inference(x, bn), want, 1e-5, "batchnorm")


def check_conv_epilogue():
    """BN and activation applied per tile inside the conv equal the two
    whole-map passes bit for bit, on a depthwise 3x3 of four tiles and a
    dense 1x1 of two.  Fails on a numpy whose float32 ufuncs give other
    bits on a tile's strided slice than on a whole map."""
    rng = np.random.default_rng(22)
    x = (3 * rng.standard_normal((1, 32, 96, 96))).astype(np.float32)
    g, b, m, v = (rng.standard_normal(32).astype(np.float32) for _ in range(4))
    bn = BNParams(gamma=g, beta=b, running_mean=m, running_var=np.abs(v))
    dw, dense = (rng.standard_normal(s).astype(np.float32) for s in ((32, 1, 3, 3), (32, 32, 1, 1)))
    convs = {"depthwise 3x3": ConvParams(dw, padding=1, groups=32), "dense 1x1": ConvParams(dense)}
    for name, p in convs.items():
        plain = batchnorm_inference(conv2d(x, p), bn)
        for act in ("relu", "silu", "sigmoid"):
            got, want = conv2d(x, p, bn, act), activation(plain, act)
            if not np.array_equal(got.view(np.uint32), want.view(np.uint32)):
                raise AssertionError(f"{name} with BN and {act}: fused differs from unfused")


def check_maxpool():
    got = maxpool1d(np.array([[1.0, 5.0, 2.0, 4.0, 3.0]], dtype=np.float32))
    _assert_close(got, [[5.0, 4.0]], 0.0, "maxpool k3 s2")


def check_sobel():
    x = np.tile(np.arange(8, dtype=np.float32), (8, 1))[None, None]
    mag = sobel(x)
    _assert_close(mag[0, 0, 1:-1, 1:-1], 8.0, 1e-4, "sobel on a ramp")


def check_bilinear():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
    up = upsample(x, 2)
    h, w = 6, 6
    want = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            sy = min(max((i + 0.5) / 2 - 0.5, 0.0), 2.0)
            sx = min(max((j + 0.5) / 2 - 0.5, 0.0), 2.0)
            y0, x0 = int(math.floor(sy)), int(math.floor(sx))
            y1, x1 = min(y0 + 1, 2), min(x0 + 1, 2)
            fy, fx = sy - y0, sx - x0
            want[i, j] = (
                x[0, 0, y0, x0] * (1 - fy) * (1 - fx)
                + x[0, 0, y0, x1] * (1 - fy) * fx
                + x[0, 0, y1, x0] * fy * (1 - fx)
                + x[0, 0, y1, x1] * fy * fx
            )
    _assert_close(up[0, 0], want, 1e-5, "bilinear upsample")


def check_eca():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((1, 5, 3, 3)).astype(np.float32)
    w = rng.standard_normal(3).astype(np.float32)
    got = eca(x, EcaParams(weights=w))
    pooled = x.mean(axis=(2, 3), dtype=np.float64)
    padded = np.pad(pooled, ((0, 0), (1, 1)))
    gates = np.zeros(5)
    for c in range(5):
        z = sum(padded[0, c + t] * w[t] for t in range(3))
        gates[c] = 1.0 / (1.0 + math.exp(-z))
    want = x.astype(np.float64) * gates[None, :, None, None]
    _assert_close(got, want, 1e-5, "eca gate")


def check_deform_degenerate():
    rng = np.random.default_rng(16)
    c = 4
    x = rng.standard_normal((1, c, 6, 6)).astype(np.float32)
    main = ConvParams(
        kernel=rng.standard_normal((c, c, 3, 3)).astype(np.float32),
        bias=rng.standard_normal(c).astype(np.float32),
        padding=1,
    )
    off = ConvParams(
        kernel=np.zeros((18, c, 3, 3), dtype=np.float32),
        bias=np.zeros(18, dtype=np.float32),
        padding=1,
    )
    got = deform_conv(x, DeformParams(offset_conv=off, main=main))
    _assert_close(got, conv2d(x, main), 1e-6, "deform conv with zero offsets")


def check_attention_scale():
    q = np.ones((1, 4, 1), dtype=np.float32)
    kv = np.ones((4, 3), dtype=np.float32)
    ctx, sim = scaled_attend(q, kv)
    _assert_close(sim, 2.0, 1e-6, "similarity q.k/sqrt(C)")
    _assert_close(ctx, 6.0, 1e-6, "attended context")


def _toy_tmdf(rng, c=4, side=4, length=6):
    def dw1():
        return ConvParams(kernel=rng.standard_normal((c, 1, 1, 1)).astype(np.float32), groups=c)

    return TmdfParams(
        w_img=dw1(),
        w_radar=dw1(),
        eca=EcaParams(weights=rng.standard_normal(3).astype(np.float32)),
        deform=DeformParams(
            offset_conv=ConvParams(
                kernel=(0.1 * rng.standard_normal((18, c, 3, 3))).astype(np.float32),
                bias=np.zeros(18, dtype=np.float32),
                padding=1,
            ),
            main=ConvParams(
                kernel=rng.standard_normal((c, c, 3, 3)).astype(np.float32),
                bias=rng.standard_normal(c).astype(np.float32),
                padding=1,
            ),
        ),
        lpe=rng.standard_normal((1, c, side, side)).astype(np.float32),
        w_text=rng.standard_normal((c, c)).astype(np.float32),
        w_text_bias=np.zeros(c, dtype=np.float32),
        ape=np.zeros((c, length), dtype=np.float32),
    )


def check_tmdf_zero_text():
    rng = np.random.default_rng(17)
    p = _toy_tmdf(rng)
    out = tmdf_fuse(
        rng.standard_normal((1, 4, 4, 4)).astype(np.float32),
        rng.standard_normal((1, 4, 4, 4)).astype(np.float32),
        np.zeros((4, 6), dtype=np.float32),
        p,
    )
    if out.any():
        raise AssertionError("zero text with zero positional code must yield exact zeros")


def check_enmoe_zero_gates():
    rng = np.random.default_rng(18)
    c = 3
    f = rng.standard_normal((1, c, 6, 6)).astype(np.float32)

    def dw(k):
        return ConvParams(
            kernel=rng.standard_normal((c, 1, k, k)).astype(np.float32), padding=k // 2, groups=c
        )

    def bn():
        return BNParams(
            gamma=np.ones(c, dtype=np.float32),
            beta=np.zeros(c, dtype=np.float32),
            running_mean=np.zeros(c, dtype=np.float32),
            running_var=np.ones(c, dtype=np.float32),
        )

    def gate():
        # All-zero gate: logits 0, sigmoid exactly 0.5 everywhere.
        return ConvParams(
            kernel=np.zeros((c, c, 1, 1), dtype=np.float32),
            bias=np.zeros(c, dtype=np.float32),
        )

    w_o = ConvParams(kernel=rng.standard_normal((c, c, 1, 1)).astype(np.float32))
    p = EnMoeParams(
        edge_conv=ConvParams(kernel=rng.standard_normal((c, 1, 1, 1)).astype(np.float32), groups=c),
        edge_bn=bn(),
        nbr_conv=dw(5),
        nbr_bn=bn(),
        gate_high=gate(),
        gate_low=gate(),
        w_o=w_o,
        theta1_raw=0.0,
        theta2_raw=0.0,
    )
    got = enmoe_forward(f, p)
    want = f + np.float32(0.5) * conv2d(f, w_o)
    if not np.array_equal(got, want):
        raise AssertionError("closed gates must reduce to f + 0.5 * shared projection, bitwise")


def check_msrep_fuse():
    rng = np.random.default_rng(19)
    c = 5

    def bn():
        return BNParams(
            gamma=rng.uniform(0.5, 1.5, c).astype(np.float32),
            beta=rng.standard_normal(c).astype(np.float32),
            running_mean=rng.standard_normal(c).astype(np.float32),
            running_var=rng.uniform(0.5, 2.0, c).astype(np.float32),
        )

    p = MsRepParams(
        conv3=ConvParams(kernel=rng.standard_normal((c, 1, 3, 3)).astype(np.float32), padding=1, groups=c),
        bn3=bn(),
        conv1=ConvParams(kernel=rng.standard_normal((c, 1, 1, 1)).astype(np.float32), groups=c),
        bn1=bn(),
        bn_id=bn(),
    )
    x = rng.standard_normal((2, c, 7, 7)).astype(np.float32)
    _assert_close(msrep_forward(x, msrep_fuse(p)), msrep_forward(x, p), 1e-5, "folded block")


def check_decode():
    heat = np.zeros((24, 24), dtype=np.float32)
    heat[12, 10] = 0.9
    wh = np.zeros((2, 24, 24), dtype=np.float32)
    wh[:, 12, 10] = (2.0, 3.0)
    off = np.zeros((2, 24, 24), dtype=np.float32)
    off[:, 12, 10] = (0.3, 0.4)
    boxes = decode_boxes(heat, wh, off, r=4, k=5, score_thresh=0.6)
    if len(boxes) != 1:
        raise AssertionError(f"expected one box, got {len(boxes)}")
    b = boxes[0]
    _assert_close(
        [b.cx, b.cy, b.w, b.h, b.score], [41.2, 49.6, 8.0, 12.0, 0.9], 1e-5, "decoded box"
    )


def check_conf_and_offset_values():
    v, _ = conf_loss(np.full((1, 1, 1), 0.5, dtype=np.float32), np.ones((1, 1, 1), dtype=np.float32))
    _assert_close(v, 0.25 * math.log(2.0), 1e-9, "peak-cell focal value")
    pred = np.zeros((2, 16, 16), dtype=np.float32)
    pred[:, 12, 10] = (0.3 + 0.1, 0.4 - 0.1)
    v, _ = offset_loss(pred, [(41.2, 49.6)], downsample=4)
    _assert_close(v, 0.1, 1e-6, "offset l1 value")


def check_seg_loss_values():
    v, _ = dice_loss(np.zeros(100, dtype=np.float32), np.ones(100, dtype=np.float32))
    _assert_close(v, 1.0 - 1.0 / 101.0, 1e-9, "dice with smoothing")
    v, _ = focal_seg_loss(np.full(1, 0.5, dtype=np.float32), np.ones(1, dtype=np.float32))
    _assert_close(v, 0.25 * 0.25 * math.log(2.0), 1e-9, "focal seg value")


def check_total_loss():
    u = UncertaintyWeights.from_sigmas(1.0, 2.0)
    _assert_close(total_loss(2.0, 4.0, u), 1.5 + math.log(2.0), 1e-9, "uncertainty-weighted sum")


def check_ciou_gradient():
    rng = np.random.default_rng(20)
    pred = np.abs(rng.standard_normal((3, 4))) + 0.5
    gt = np.abs(rng.standard_normal((3, 4))) + 0.5
    _, grad = ciou_wh_loss(pred, gt)
    step = 1e-4
    for idx in np.ndindex(pred.shape):
        hi = pred.copy()
        lo = pred.copy()
        hi[idx] += step
        lo[idx] -= step
        fd = (ciou_wh_loss(hi, gt)[0] - ciou_wh_loss(lo, gt)[0]) / (2 * step)
        denom = max(abs(fd), abs(grad[idx]), 1e-6)
        if abs(fd - grad[idx]) / denom > 1e-3:
            raise AssertionError(f"ciou grad at {idx}: analytic {grad[idx]:.6g} vs fd {fd:.6g}")


def check_ap_sweep():
    a = (0.0, 0.0, 1.0, 1.0)
    _assert_close(box_iou(a, (0.5, 0.0, 1.0, 1.0)), 1.0 / 3.0, 1e-9, "shifted unit squares")
    gt = [(10.0, 10.0, 10.0, 10.0)]
    # One detection at IoU 0.6 against one object: credit at 0.50/0.55/0.60.
    from .heads import DetectionBox

    pred = [DetectionBox(cx=10.0, cy=12.5, w=10.0, h=10.0, score=0.9)]
    res = average_precision([pred], [gt])
    _assert_close(res.ap50, 100.0, 1e-9, "ap50")
    _assert_close(res.ap50_95, 30.0, 1e-9, "ap50:95")


def check_mept():
    trace = EnergyTrace(
        sample_ids=tuple(f"s{i}" for i in range(10)),
        trained=np.full(10, 50.0),
        untrained=np.full(10, 22.0),
        tau_evals=10,
    )
    _assert_close(mept([70.0], trace), 2.5, 1e-9, "energy-scaled performance")


def check_archive_roundtrip():
    rng = np.random.default_rng(21)
    arc = WeightArchive(
        entries={
            "a.kernel": rng.standard_normal((2, 3, 3, 3)).astype(np.float32),
            "b.bias": rng.standard_normal(4).astype(np.float32),
            "c.scalar": np.array([1.5], dtype=np.float32),
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.nmvg"
        save_archive(arc, path)
        back = load_archive(path)
    for name, tensor in arc.entries.items():
        if not np.array_equal(back.get(name), tensor):
            raise AssertionError(f"round trip changed {name}")


CHECKS = [
    ("conv2d general", check_conv_general),
    ("conv2d depthwise", check_conv_depthwise),
    ("batchnorm", check_batchnorm),
    ("conv epilogue", check_conv_epilogue),
    ("maxpool 3/2", check_maxpool),
    ("sobel ramp", check_sobel),
    ("bilinear upsample", check_bilinear),
    ("channel gate", check_eca),
    ("deform degenerate", check_deform_degenerate),
    ("attention scale", check_attention_scale),
    ("fusion zero text", check_tmdf_zero_text),
    ("routing closed gates", check_enmoe_zero_gates),
    ("branch fold", check_msrep_fuse),
    ("box decode", check_decode),
    ("center losses", check_conf_and_offset_values),
    ("mask losses", check_seg_loss_values),
    ("uncertainty total", check_total_loss),
    ("box loss gradient", check_ciou_gradient),
    ("detection metric", check_ap_sweep),
    ("energy metric", check_mept),
    ("archive round trip", check_archive_roundtrip),
]


def run() -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            print(f"FAIL  {name}: {exc}")
            failures += 1
        else:
            print(f"  ok  {name}")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
