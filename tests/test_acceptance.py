"""Acceptance gate: one test per release criterion, pinned tolerances.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Tolerances and instance counts here are contractual; do
not loosen them to make a failure go away.
"""

import filecmp
import time

import numpy as np
import pytest

from nmvg.enmoe import EnMoeParams, enmoe_forward
from nmvg.fusion import DeformParams, EcaParams, TmdfParams, deform_conv, tmdf_fuse
from nmvg.heads import DetectionBox, decode_boxes, msrep_forward, msrep_fuse
from nmvg.losses import (
    LAMBDAS,
    TAUS,
    UncertaintyWeights,
    ciou_wh_loss,
    conf_loss,
    dice_loss,
    focal_seg_loss,
    offset_loss,
    rec_loss,
    res_loss,
    total_loss,
)
from nmvg.metrics import (
    IOU_THRESHOLDS,
    EnergyTrace,
    average_precision,
    mask_miou,
    mept,
)
from nmvg.model import Model, RunConfig, generate_archive, generate_fixtures, run_infer
from nmvg.tensor import ConvParams, conv2d
from nmvg.encoders import tokenize
from nmvg.model import DEFAULT_VOCAB
from oracles import (
    ap_ref,
    decode_ref,
    enmoe_ref,
    fd_grad,
    rand_conv,
    rand_enmoe,
    rand_msrep,
    rand_tmdf,
    rel_err,
    tmdf_ref,
)


def test_criterion_1_reparameterization_equivalence():
    """>=100 random multi-branch blocks fold to a single conv within 1e-5."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1_000 + seed)
        c = int(rng.integers(1, 33))
        p = rand_msrep(rng, c)
        x = rng.standard_normal((1, c, 16, 16)).astype(np.float32)
        dev = float(np.abs(msrep_forward(x, msrep_fuse(p)) - msrep_forward(x, p)).max())
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-5, f"worst fused-vs-multibranch deviation {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_loss_gradients_match_finite_differences():
    """Analytic gradients of all five losses vs central differences,
    step 1e-4, relative error <= 1e-3, >=50 instances per loss."""
    start = time.perf_counter()
    n_inst = 50

    for seed in range(n_inst):
        rng = np.random.default_rng(2_000 + seed)
        y = np.where(rng.random((5, 5)) > 0.85, 1.0, rng.random((5, 5)) * 0.9)
        p = rng.uniform(0.05, 0.95, (5, 5))
        _, grad = conf_loss(p, y)
        assert rel_err(grad, fd_grad(lambda q: conf_loss(q, y)[0], p)) <= 1e-3

    for seed in range(n_inst):
        rng = np.random.default_rng(3_000 + seed)
        centers = [
            (float(rng.uniform(0, 63)), float(rng.uniform(0, 63))) for _ in range(3)
        ]
        pred = np.zeros((2, 16, 16))
        # residuals placed well away from the L1 kink
        for cx, cy in centers:
            col, row = int(cx // 4), int(cy // 4)
            tx, ty = cx / 4 - col, cy / 4 - row
            sx, sy = rng.choice([-1.0, 1.0], size=2)
            pred[0, row, col] = tx + sx * rng.uniform(0.05, 0.4)
            pred[1, row, col] = ty + sy * rng.uniform(0.05, 0.4)
        _, grad = offset_loss(pred, centers, downsample=4)
        assert rel_err(grad, fd_grad(lambda q: offset_loss(q, centers, 4)[0], pred)) <= 1e-3

    def draw_boxes(rng, n):
        while True:
            pred = np.column_stack(
                [rng.uniform(-3, 3, n), rng.uniform(-3, 3, n),
                 rng.uniform(0.8, 3, n), rng.uniform(0.8, 3, n)]
            )
            gt = np.column_stack(
                [rng.uniform(-3, 3, n), rng.uniform(-3, 3, n),
                 rng.uniform(0.8, 3, n), rng.uniform(0.8, 3, n)]
            )
            # the corner masks flip where box edges coincide; keep every
            # pair of competing edges clear of the differencing step
            px1, py1 = pred[:, 0] - pred[:, 2] / 2, pred[:, 1] - pred[:, 3] / 2
            px2, py2 = pred[:, 0] + pred[:, 2] / 2, pred[:, 1] + pred[:, 3] / 2
            gx1, gy1 = gt[:, 0] - gt[:, 2] / 2, gt[:, 1] - gt[:, 3] / 2
            gx2, gy2 = gt[:, 0] + gt[:, 2] / 2, gt[:, 1] + gt[:, 3] / 2
            gaps = np.concatenate(
                [np.abs(px1 - gx1), np.abs(px2 - gx2), np.abs(py1 - gy1), np.abs(py2 - gy2)]
            )
            iw = np.minimum(px2, gx2) - np.maximum(px1, gx1)
            ih = np.minimum(py2, gy2) - np.maximum(py1, gy1)
            edge = np.concatenate([np.abs(iw), np.abs(ih)])
            if (gaps > 1e-3).all() and (edge > 1e-3).all():
                return pred, gt

    for seed in range(n_inst):
        rng = np.random.default_rng(4_000 + seed)
        pred, gt = draw_boxes(rng, 3)
        _, grad = ciou_wh_loss(pred, gt)
        assert rel_err(grad, fd_grad(lambda q: ciou_wh_loss(q, gt)[0], pred)) <= 1e-3

    for seed in range(n_inst):
        rng = np.random.default_rng(5_000 + seed)
        p = rng.uniform(0.05, 0.95, 40)
        g = (rng.random(40) > 0.5).astype(float)
        _, grad = dice_loss(p, g)
        assert rel_err(grad, fd_grad(lambda q: dice_loss(q, g)[0], p)) <= 1e-3

    for seed in range(n_inst):
        rng = np.random.default_rng(6_000 + seed)
        p = rng.uniform(0.05, 0.95, (5, 5))
        g = (rng.random((5, 5)) > 0.6).astype(float)
        _, grad = focal_seg_loss(p, g)
        assert rel_err(grad, fd_grad(lambda q: focal_seg_loss(q, g)[0], p)) <= 1e-3

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_fusion_and_routing_match_step_oracles():
    """Fusion and expert routing agree with literal step-by-step
    transcriptions within 1e-5 on >=50 instances each.  Weight scales are
    moderated so outputs stay O(1); at larger magnitudes an absolute
    1e-5 would measure float32 rounding, not structure."""
    worst_fuse = 0.0
    for seed in range(60):
        rng = np.random.default_rng(10_000 + seed)
        c, h, w, length = 4, 4, 4, 9
        p = rand_tmdf(rng, c, h, w, length, scale=0.35)
        f_img = (0.5 * rng.standard_normal((2, c, h, w))).astype(np.float32)
        f_radar = (0.5 * rng.standard_normal((2, c, h, w))).astype(np.float32)
        f_text = (0.5 * rng.standard_normal((c, length))).astype(np.float32)
        normalize = bool(seed % 2)
        got = tmdf_fuse(f_img, f_radar, f_text, p, normalize=normalize)
        want = tmdf_ref(f_img, f_radar, f_text, p, normalize=normalize)
        worst_fuse = max(worst_fuse, float(np.abs(got - want).max()))
    assert worst_fuse <= 1e-5, f"fusion deviation {worst_fuse:.3e}"

    worst_route = 0.0
    for seed in range(60):
        rng = np.random.default_rng(20_000 + seed)
        c = int(rng.integers(2, 7))
        p = rand_enmoe(rng, c)
        f = rng.standard_normal((1, c, 8, 8)).astype(np.float32)
        worst_route = max(
            worst_route, float(np.abs(enmoe_forward(f, p) - enmoe_ref(f, p)).max())
        )
    assert worst_route <= 1e-5, f"routing deviation {worst_route:.3e}"


def test_criterion_4_degenerate_exactness():
    rng = np.random.default_rng(7)

    # zero offsets reduce the deformable conv to its standard sibling
    c = 4
    p = DeformParams(
        offset_conv=ConvParams(
            kernel=np.zeros((18, c, 3, 3), dtype=np.float32),
            bias=np.zeros(18, dtype=np.float32),
            padding=1,
        ),
        main=rand_conv(rng, c, c, 3, 3, padding=1, bias=True),
    )
    x = rng.standard_normal((2, c, 7, 7)).astype(np.float32)
    assert float(np.abs(deform_conv(x, p) - conv2d(x, p.main)).max()) <= 1e-6

    # zero gate logits collapse the expert blend to f + 0.5 * (w_o f)
    base = rand_enmoe(rng, c)
    zero_gate = ConvParams(
        kernel=np.zeros((c, c, 1, 1), dtype=np.float32),
        bias=np.zeros(c, dtype=np.float32),
    )
    p2 = EnMoeParams(
        edge_conv=base.edge_conv, edge_bn=base.edge_bn,
        nbr_conv=base.nbr_conv, nbr_bn=base.nbr_bn,
        gate_high=zero_gate, gate_low=zero_gate,
        w_o=base.w_o, theta1_raw=0.0, theta2_raw=0.0,
    )
    f = rng.standard_normal((1, c, 6, 6)).astype(np.float32)
    want = f + np.float32(0.5) * conv2d(f, base.w_o)
    assert np.array_equal(enmoe_forward(f, p2), want)

    # silent text leaves nothing to attend to
    length = 8
    p3 = rand_tmdf(rng, c, 3, 3, length)
    p3 = TmdfParams(
        w_img=p3.w_img, w_radar=p3.w_radar, eca=p3.eca, deform=p3.deform,
        lpe=p3.lpe, w_text=p3.w_text,
        w_text_bias=np.zeros(c, dtype=np.float32),
        ape=np.zeros((c, length), dtype=np.float32),
    )
    out = tmdf_fuse(
        rng.standard_normal((1, c, 3, 3)).astype(np.float32),
        rng.standard_normal((1, c, 3, 3)).astype(np.float32),
        np.zeros((c, length), dtype=np.float32),
        p3,
    )
    assert not out.any()


def test_criterion_5_decode_matches_brute_force():
    """>=200 random 16x16 heatmaps, k <= 10, plateaus included."""
    checked = 0
    for seed in range(220):
        rng = np.random.default_rng(30_000 + seed)
        heat = rng.random((16, 16)).astype(np.float32)
        if seed % 2:
            # coarse quantization forces tie plateaus
            heat = (np.round(heat * 4) / 4 * 0.5 + 0.25).astype(np.float32)
        wh = (rng.random((2, 16, 16)) * 4 + 0.1).astype(np.float32)
        off = rng.standard_normal((2, 16, 16)).astype(np.float32)
        k = int(rng.integers(1, 11))
        thresh = float(rng.random() * 0.8)
        got = decode_boxes(heat, wh, off, r=4, k=k, score_thresh=thresh)
        want = decode_ref(heat, wh, off, 4, k, thresh)
        assert len(got) == len(want), f"seed {seed}: {len(got)} vs {len(want)} boxes"
        for g, t in zip(got, want):
            assert (g.cx, g.cy, g.w, g.h, g.score) == pytest.approx(t, abs=1e-5)
        checked += 1
    assert checked >= 200


def test_criterion_6_loss_assembly_constants():
    unit = UncertaintyWeights()
    for l_rec, l_res in ((2.0, 4.0), (0.3, 0.7), (5.5, 1.25), (0.0, 0.0)):
        assert total_loss(l_rec, l_res, unit) == 0.5 * l_rec + 0.5 * l_res

    assert TAUS == (1.0, 0.1, 1.0)
    assert LAMBDAS == (1.0, 1.0)
    assert rec_loss(3.0, 10.0, 2.0) == pytest.approx(3.0 + 1.0 + 2.0, abs=1e-12)
    assert res_loss(0.25, 0.5) == pytest.approx(0.75, abs=1e-12)

    skewed = UncertaintyWeights.from_sigmas(1.0, 2.0)
    assert total_loss(2.0, 4.0, skewed) == pytest.approx(1.5 + np.log(2.0), abs=1e-12)


def test_criterion_7_energy_metric_hand_trace():
    trace = EnergyTrace(
        sample_ids=tuple(f"s{i}" for i in range(10)),
        trained=np.full(10, 50.0),
        untrained=np.full(10, 22.0),
        tau_evals=10,
    )
    assert abs(mept([70.0], trace) - 2.5) <= 1e-9

    rng = np.random.default_rng(0)
    noisy = EnergyTrace(
        sample_ids=tuple(f"r{i}" for i in range(8)),
        trained=rng.uniform(40, 60, 8),
        untrained=rng.uniform(10, 20, 8),
        tau_evals=8,
    )
    perf = rng.uniform(10, 90, 6)
    for factor in (0.5, 2.0, 10.0):
        assert mept(factor * perf, noisy) == pytest.approx(
            factor * mept(perf, noisy), rel=1e-12
        )


@pytest.mark.parametrize("size", [64, 640])
def test_criterion_8_end_to_end_shape_and_determinism(size, tmp_path):
    cfg = RunConfig(input_size=size, seed=3)
    archive = generate_archive(cfg)
    model = Model.from_archive(cfg, archive)
    rng = np.random.default_rng(size)
    image = rng.random((1, 3, size, size), dtype=np.float32)
    radar = rng.standard_normal((1, 3, size, size)).astype(np.float32)
    tokens = tokenize("the small green buoy", list(DEFAULT_VOCAB), cfg.text_len)

    out = model.forward(image, radar, tokens)
    assert out.heatmap.shape == (1, 1, size // 4, size // 4)
    assert out.mask_logits.shape == (1, 1, size, size)
    assert out.masks[0].bitmap.shape == (size, size)

    again = model.forward(image, radar, tokens)
    assert np.array_equal(out.heatmap, again.heatmap)
    assert np.array_equal(out.sizes, again.sizes)
    assert np.array_equal(out.offsets, again.offsets)
    assert np.array_equal(out.mask_logits, again.mask_logits)

    # the file-level pipeline is byte-stable too
    fix = tmp_path / "fix"
    generate_fixtures(fix, cfg)
    for sub in ("a", "b"):
        run_infer(cfg, archive, fix / "image.ppm", fix / "radar.f32",
                  fix / "prompt.txt", tmp_path / sub)
    assert filecmp.cmp(tmp_path / "a" / "boxes.txt", tmp_path / "b" / "boxes.txt", shallow=False)
    assert filecmp.cmp(tmp_path / "a" / "mask.pgm", tmp_path / "b" / "mask.pgm", shallow=False)


def test_criterion_9_metric_self_match_and_sweep(tmp_path):
    # evaluating the pipeline's own output against itself must be perfect
    cfg = RunConfig(input_size=64, seed=11)
    fix = tmp_path / "fix"
    generate_fixtures(fix, cfg)
    from nmvg.archive import load_archive

    result = run_infer(cfg, load_archive(fix / "weights.nmvg"), fix / "image.ppm",
                       fix / "radar.f32", fix / "prompt.txt", tmp_path / "out")
    assert result.boxes, "self-match needs at least one detection"
    res = average_precision([result.boxes], [result.boxes])
    assert res.ap50 == 100.0
    assert res.ap50_95 == 100.0
    assert mask_miou([result.mask], [result.mask]) == 100.0

    # threshold sweep: a single pred at IoU exactly 0.6 scores in three bands
    gts = [[(10.0, 10.0, 10.0, 10.0)]]
    preds = [[DetectionBox(10.0, 12.5, 10.0, 10.0, 0.9)]]
    sweep = average_precision(preds, gts)
    assert sweep.ap50 == 100.0
    assert sweep.ap50_95 == pytest.approx(30.0, abs=1e-9)
    _, want_ap, want_ar = ap_ref(preds, gts, IOU_THRESHOLDS)
    assert sweep.ap50_95 == pytest.approx(want_ap, abs=1e-9)
    assert sweep.ar50_95 == pytest.approx(want_ar, abs=1e-9)

    # and a random sweep agrees with the enumeration oracle end to end
    rng = np.random.default_rng(99)
    gt_boxes = [
        [
            (float(rng.uniform(5, 40)), float(rng.uniform(5, 40)),
             float(rng.uniform(3, 9)), float(rng.uniform(3, 9)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        for _ in range(3)
    ]
    pred_boxes = [
        [
            DetectionBox(
                gx + float(rng.normal(0, 1.2)), gy + float(rng.normal(0, 1.2)),
                max(gw + float(rng.normal(0, 1.0)), 0.5),
                max(gh + float(rng.normal(0, 1.0)), 0.5),
                float(rng.uniform(0.1, 0.9)),
            )
            for gx, gy, gw, gh in sample
        ]
        for sample in gt_boxes
    ]
    mine = average_precision(pred_boxes, gt_boxes)
    per, want_ap, want_ar = ap_ref(pred_boxes, gt_boxes, IOU_THRESHOLDS)
    assert mine.ap50 == pytest.approx(100.0 * per[0.5], abs=1e-9)
    assert mine.ap50_95 == pytest.approx(want_ap, abs=1e-9)
    assert mine.ar50_95 == pytest.approx(want_ar, abs=1e-9)
