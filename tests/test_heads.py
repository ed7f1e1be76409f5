import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from nmvg.heads import (
    MIN_BOX_SIDE,
    BinaryMask,
    BranchParams,
    DetectionBox,
    MsRepParams,
    RecHeadParams,
    ResHeadParams,
    _peak_mask,
    decode_boxes,
    msrep_forward,
    msrep_fuse,
    rec_head_forward,
    res_head_forward,
)
from nmvg.tensor import ConvParams, ShapeError, activation, conv2d, upsample
from oracles import decode_ref, rand_bn, rand_conv, rand_msrep, read_only, rec_head_steps, upsample_nearest_ref


class TestDetectionBox:
    def test_fields_coerced_to_float(self):
        b = DetectionBox(np.float32(1), np.float32(2), np.float32(3), np.float32(4), np.float32(0.5))
        assert all(type(v) is float for v in (b.cx, b.cy, b.w, b.h, b.score))

    @pytest.mark.parametrize("w,h", [(0.0, 1.0), (1.0, -2.0), (np.inf, 1.0), (1.0, np.nan)])
    def test_degenerate_sides_rejected(self, w, h):
        with pytest.raises(ValueError):
            DetectionBox(0, 0, w, h, 0.5)

    @pytest.mark.parametrize("cx,cy", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf)])
    def test_non_finite_centre_rejected(self, cx, cy):
        with pytest.raises(ValueError, match="finite"):
            DetectionBox(cx, cy, 1, 1, 0.5)

    @pytest.mark.parametrize("score", [0.0, 1.0, -0.1, 1.5])
    def test_score_open_interval(self, score):
        with pytest.raises(ValueError):
            DetectionBox(0, 0, 1, 1, score)


class TestBinaryMask:
    def test_accepts_zero_one(self):
        m = BinaryMask(np.array([[0, 1], [1, 0]]))
        assert m.bitmap.dtype == np.uint8

    def test_rejects_other_values(self):
        with pytest.raises(ValueError):
            BinaryMask(np.array([[0, 2]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            BinaryMask(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_accepts_exactly_the_values_zero_and_one(self):
        """The bound check accepts the same uint8 values as membership in
        {0, 1} did, and an empty bitmap."""
        for v in range(256):
            bitmap = np.array([[0, 1], [1, v]], dtype=np.uint8)
            if v <= 1:
                assert BinaryMask(bitmap).bitmap[1, 1] == v
            else:
                with pytest.raises(ValueError, match="0 or 1"):
                    BinaryMask(bitmap)
        assert BinaryMask(np.zeros((0, 4), dtype=np.uint8)).bitmap.shape == (0, 4)
        assert BinaryMask(np.eye(3, dtype=bool)).bitmap.dtype == np.uint8

    @pytest.mark.parametrize("value", [0.5, np.nan, 256, -256])
    def test_rejects_entries_that_would_cast_to_zero_or_one(self, value):
        """Entries are checked before the uint8 cast, which would turn 0.5,
        NaN and 256 into 0."""
        with pytest.raises(ValueError, match="0 or 1"):
            BinaryMask(np.array([[0, 1], [1, value]]))


def _rand_branch(rng, cin, cout):
    return BranchParams(
        dw=rand_conv(rng, cin, 1, 3, 3, padding=1, groups=cin),
        dw_bn=rand_bn(rng, cin),
        pw=rand_conv(rng, cin, cin, 1, 1),
        pw_bn=rand_bn(rng, cin),
        proj=rand_conv(rng, cout, cin, 1, 1, bias=True),
    )


class TestRecHead:
    def test_output_shapes_and_open_interval(self):
        rng = np.random.default_rng(0)
        p = RecHeadParams(
            conf=_rand_branch(rng, 6, 1),
            wh=_rand_branch(rng, 6, 2),
            offset=_rand_branch(rng, 6, 2),
        )
        feat = rng.standard_normal((2, 6, 8, 8)).astype(np.float32)
        heat, sizes, offsets = rec_head_forward(feat, p)
        assert heat.shape == (2, 1, 8, 8)
        assert sizes.shape == (2, 2, 8, 8)
        assert offsets.shape == (2, 2, 8, 8)
        assert (heat > 0).all() and (heat < 1).all()

    def test_read_only_feature_gives_the_out_of_place_result(self):
        """Each branch's pointwise conv writes over its depthwise map and the
        heatmap is clipped in place, on maps the head made: a read-only
        feature is left alone and the outputs equal the out-of-place
        composition bit for bit."""
        rng = np.random.default_rng(2)
        p = RecHeadParams(
            conf=_rand_branch(rng, 6, 1),
            wh=_rand_branch(rng, 6, 2),
            offset=_rand_branch(rng, 6, 2),
        )
        feat = rng.standard_normal((2, 6, 8, 8)).astype(np.float32)
        (frozen,) = read_only(feat)
        got = rec_head_forward(frozen, p)
        assert np.array_equal(frozen, feat)
        for a, b in zip(got, rec_head_steps(feat, p)):
            assert np.array_equal(a.view(np.uint32), b.view(np.uint32))

    def test_frame640_peak_memory(self, cores):
        """No branch holds its pointwise map beside its depthwise map: with
        its outputs, a 640 rec head peaks under two of its input maps (2.68
        while the pointwise conv made a map of its own)."""
        rng = np.random.default_rng(3)
        p = RecHeadParams(
            conf=_rand_branch(rng, 64, 1),
            wh=_rand_branch(rng, 64, 2),
            offset=_rand_branch(rng, 64, 2),
        )
        feat = rng.standard_normal((1, 64, 160, 160)).astype(np.float32)
        cores(2)
        tracemalloc.start()
        try:
            outs = rec_head_forward(feat, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(outs) == 3
        assert peak <= 2.0 * feat.nbytes

    def test_wrong_branch_widths_rejected(self):
        """The bundle checks each projection's width when built."""
        rng = np.random.default_rng(1)
        good = {"conf": _rand_branch(rng, 4, 1), "wh": _rand_branch(rng, 4, 2), "offset": _rand_branch(rng, 4, 2)}
        for name, wrong in (("conf", 2), ("wh", 1), ("offset", 3)):
            with pytest.raises(ShapeError, match=f"{name} projection must emit"):
                RecHeadParams(**{**good, name: _rand_branch(rng, 4, wrong)})


def _maps(h=16, w=16, seed=0):
    rng = np.random.default_rng(seed)
    heat = rng.random((h, w)).astype(np.float32)
    wh = (rng.random((2, h, w)) * 5 + 0.5).astype(np.float32)
    off = rng.standard_normal((2, h, w)).astype(np.float32) * 0.3
    return heat, wh, off


class TestDecodeBoxes:
    def test_hand_single_peak(self):
        heat = np.full((16, 16), 0.1, dtype=np.float32)
        heat[12, 10] = 0.9
        wh = np.zeros((2, 16, 16), dtype=np.float32)
        off = np.zeros((2, 16, 16), dtype=np.float32)
        wh[:, 12, 10] = (2.0, 3.0)
        off[:, 12, 10] = (0.3, 0.4)
        boxes = decode_boxes(heat, wh, off, r=4, k=5, score_thresh=0.5)
        assert len(boxes) == 1
        b = boxes[0]
        assert (b.cx, b.cy, b.w, b.h) == pytest.approx((41.2, 49.6, 8.0, 12.0), abs=1e-5)
        assert b.score == pytest.approx(0.9)

    def test_plateau_keeps_first_cell_only(self):
        heat = np.full((8, 8), 0.2, dtype=np.float32)
        heat[3:5, 3:5] = 0.7
        wh = np.ones((2, 8, 8), dtype=np.float32)
        off = np.zeros((2, 8, 8), dtype=np.float32)
        boxes = decode_boxes(heat, wh, off, r=1, k=10, score_thresh=0.5)
        assert len(boxes) == 1
        assert (boxes[0].cx, boxes[0].cy) == (3.0, 3.0)

    def test_peak_mask_equals_the_window_form(self):
        """The separable 3x3 max keeps the 3x3 window max's cells, plateau
        ties and -inf border included."""
        rng = np.random.default_rng(7)
        # Few levels, so most cells tie with a neighbour; whole-map bands on
        # the borders make plateaus that touch the padding.
        heat = rng.integers(0, 4, (160, 160)).astype(np.float32) / 4
        heat[0, :40] = heat[:40, -1] = heat[-1, -40:] = heat[-40:, 0] = 1.0
        heat[70:90, 70:90] = 1.0
        pad = np.pad(heat, 1, constant_values=-np.inf)
        win = sliding_window_view(pad, (3, 3)).max(axis=(2, 3))
        earlier = np.zeros(heat.shape, dtype=bool)
        for dr, dc in ((-1, -1), (-1, 0), (-1, 1), (0, -1)):
            earlier |= pad[1 + dr : 161 + dr, 1 + dc : 161 + dc] == heat
        want = (heat >= win) & ~earlier
        got = _peak_mask(heat)
        assert got.dtype == bool and want.any()
        np.testing.assert_array_equal(got, want)

    def test_uniform_map_yields_single_corner_box(self):
        heat = np.full((6, 6), 0.8, dtype=np.float32)
        wh = np.ones((2, 6, 6), dtype=np.float32)
        off = np.zeros((2, 6, 6), dtype=np.float32)
        boxes = decode_boxes(heat, wh, off, r=2, k=4, score_thresh=0.1)
        assert len(boxes) == 1
        assert (boxes[0].cx, boxes[0].cy) == (0.0, 0.0)

    def test_threshold_filters(self):
        heat, wh, off = _maps(seed=2)
        assert decode_boxes(heat, wh, off, r=4, k=10, score_thresh=1.0) == []

    def test_k_truncates_by_score(self):
        heat, wh, off = _maps(seed=3)
        all_boxes = decode_boxes(heat, wh, off, r=4, k=100, score_thresh=0.0)
        top2 = decode_boxes(heat, wh, off, r=4, k=2, score_thresh=0.0)
        assert [b.score for b in top2] == [b.score for b in all_boxes[:2]]

    def test_sides_clamped_to_floor(self):
        heat = np.full((5, 5), 0.1, dtype=np.float32)
        heat[2, 2] = 0.9
        wh = np.full((2, 5, 5), -3.0, dtype=np.float32)
        off = np.zeros((2, 5, 5), dtype=np.float32)
        (box,) = decode_boxes(heat, wh, off, r=4, k=1, score_thresh=0.5)
        assert box.w == MIN_BOX_SIDE and box.h == MIN_BOX_SIDE

    def test_batch_axis_of_one_accepted(self):
        heat, wh, off = _maps(seed=4)
        a = decode_boxes(heat, wh, off, r=4, k=10, score_thresh=0.3)
        b = decode_boxes(heat[None, None], wh[None], off[None], r=4, k=10, score_thresh=0.3)
        assert a == b

    @pytest.mark.parametrize("k", [2.5, True, "3"])
    def test_non_integer_k_rejected(self, k):
        heat, wh, off = _maps(seed=5)
        with pytest.raises(ValueError, match="k must be an integer"):
            decode_boxes(heat, wh, off, r=4, k=k, score_thresh=0.5)

    def test_nonpositive_k_rejected(self):
        heat, wh, off = _maps(seed=5)
        with pytest.raises(ValueError):
            decode_boxes(heat, wh, off, r=4, k=0, score_thresh=0.5)

    @pytest.mark.parametrize(
        "r,score_thresh,cell,message",
        [
            (0, 0.5, 0.5, "ratio r must be positive"),
            (-4, 0.5, 0.5, "ratio r must be positive"),
            (4, np.nan, 0.5, "score_thresh must be finite"),
            (4, np.inf, 0.5, "score_thresh must be finite"),
            (4, 0.5, np.nan, "heatmap holds non-finite values"),
            (4, 0.5, np.inf, "heatmap holds non-finite values"),
        ],
    )
    def test_bad_argument_rejected(self, r, score_thresh, cell, message):
        heat, wh, off = _maps(seed=5)
        heat[3, 4] = cell
        with pytest.raises(ValueError, match=message):
            decode_boxes(heat, wh, off, r=r, k=5, score_thresh=score_thresh)

    def test_extent_mismatch_rejected(self):
        heat, wh, off = _maps(seed=6)
        with pytest.raises(ShapeError):
            decode_boxes(heat, wh[:, :8], off, r=4, k=5, score_thresh=0.5)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(700 + seed)
        h = w = int(rng.integers(4, 17))
        heat = rng.random((h, w)).astype(np.float32)
        if seed % 2:
            # quantize to force plateaus, then squeeze into the open interval
            # the real head guarantees
            heat = (np.round(heat * 4) / 4 * 0.5 + 0.25).astype(np.float32)
        wh = (rng.random((2, h, w)) * 4).astype(np.float32)
        off = rng.standard_normal((2, h, w)).astype(np.float32)
        k = int(rng.integers(1, 11))
        thresh = float(rng.random() * 0.8)
        got = decode_boxes(heat, wh, off, r=4, k=k, score_thresh=thresh)
        want = decode_ref(heat, wh, off, 4, k, thresh)
        assert len(got) == len(want)
        for g, t in zip(got, want):
            assert (g.cx, g.cy, g.w, g.h, g.score) == pytest.approx(t, abs=1e-5)


class TestMsRep:
    def test_train_mode_sums_three_branches(self):
        rng = np.random.default_rng(10)
        p = rand_msrep(rng, 4)
        assert isinstance(p, MsRepParams)
        x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        from nmvg.tensor import batchnorm_inference, conv2d

        want = (
            batchnorm_inference(conv2d(x, p.conv3), p.bn3)
            + batchnorm_inference(conv2d(x, p.conv1), p.bn1)
            + batchnorm_inference(x, p.bn_id)
        )
        np.testing.assert_allclose(msrep_forward(x, p), want, atol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_fused_matches_trainable(self, seed):
        rng = np.random.default_rng(20 + seed)
        c = int(rng.integers(1, 9))
        p = rand_msrep(rng, c)
        fused = msrep_fuse(p)
        assert isinstance(fused, ConvParams)
        x = rng.standard_normal((2, c, 7, 7)).astype(np.float32)
        np.testing.assert_allclose(
            msrep_forward(x, fused), msrep_forward(x, p), atol=1e-5
        )

    def test_incomplete_branches_rejected(self):
        rng = np.random.default_rng(31)
        with pytest.raises(TypeError, match="bn1"):
            MsRepParams(
                conv3=rand_conv(rng, 2, 1, 3, 3, padding=1, groups=2),
                bn3=rand_bn(rng, 2),
                conv1=rand_conv(rng, 2, 1, 1, 1, groups=2),
            )

    def test_fuse_requires_depthwise(self):
        rng = np.random.default_rng(32)
        p = MsRepParams(
            conv3=rand_conv(rng, 2, 2, 3, 3, padding=1),
            bn3=rand_bn(rng, 2),
            conv1=rand_conv(rng, 2, 1, 1, 1, groups=2),
            bn1=rand_bn(rng, 2),
            bn_id=rand_bn(rng, 2),
        )
        with pytest.raises(ShapeError):
            msrep_fuse(p)

    @given(
        arrays(
            np.float32,
            (1, 2, 5, 5),
            elements=st.floats(-5, 5, width=32, allow_nan=False),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_fuse_equivalence_property(self, x):
        p = rand_msrep(np.random.default_rng(33), 2)
        np.testing.assert_allclose(
            msrep_forward(x, msrep_fuse(p)), msrep_forward(x, p), atol=1e-5
        )


def _res_params(rng, c):
    return ResHeadParams(
        entry=rand_conv(rng, c, 1, 1, 1, groups=c),
        blocks=(rand_msrep(rng, c), rand_msrep(rng, c), rand_msrep(rng, c)),
        proj=rand_conv(rng, 1, c, 1, 1, bias=True),
    )


def _pyramid(rng, c, base):
    return [
        rng.standard_normal((1, c, base >> i, base >> i)).astype(np.float32)
        for i in range(4)
    ]


class TestResHead:
    def test_wrong_projection_width_rejected(self):
        """The bundle checks proj's width when built."""
        rng = np.random.default_rng(42)
        with pytest.raises(ShapeError, match="proj must emit one channel, got 2"):
            replace(_res_params(rng, 4), proj=rand_conv(rng, 2, 4, 1, 1, bias=True))

    def test_logits_full_resolution(self):
        rng = np.random.default_rng(40)
        p = _res_params(rng, 4)
        logits, masks = res_head_forward(_pyramid(rng, 4, 16), p, image_size=64)
        assert logits.shape == (1, 1, 64, 64)
        assert len(masks) == 1
        assert masks[0].bitmap.shape == (64, 64)

    def test_threshold_strictly_greater(self):
        rng = np.random.default_rng(41)
        p = _res_params(rng, 3)
        logits, masks = res_head_forward(_pyramid(rng, 3, 8), p, image_size=32, threshold=0.0)
        want = (logits[0, 0] > 0.0).astype(np.uint8)
        np.testing.assert_array_equal(masks[0].bitmap, want)

    def test_fused_blocks_agree(self):
        rng = np.random.default_rng(42)
        p = _res_params(rng, 4)
        pyramid = _pyramid(rng, 4, 16)
        base_logits, _ = res_head_forward(pyramid, p, image_size=64)
        fused = replace(p, blocks=tuple(msrep_fuse(b) for b in p.blocks))
        fused_logits, _ = res_head_forward(pyramid, fused, image_size=64)
        np.testing.assert_allclose(fused_logits, base_logits, atol=1e-4)

    @pytest.mark.parametrize("mode", ["train", "fused"])
    def test_read_only_pyramid_gives_the_out_of_place_result(self, mode):
        """The residual add and ReLU run in place on each block's output and
        the upsample-add makes a new map; the caller's levels are never
        written, and the result equals the old out-of-place glue."""
        rng = np.random.default_rng(43)
        p = _res_params(rng, 4)
        if mode == "fused":
            p = replace(p, blocks=tuple(msrep_fuse(b) for b in p.blocks))
        pyramid = [rng.standard_normal((2, 4, 16 >> i, 16 >> i)).astype(np.float32) for i in range(4)]
        frozen = read_only(*pyramid)
        logits, masks = res_head_forward(frozen, p, image_size=64, threshold=0.25)
        d = conv2d(pyramid[3], p.entry)
        for finer, block in zip((pyramid[2], pyramid[1], pyramid[0]), p.blocks):
            merged = activation(msrep_forward(d, block) + d, "relu")
            d = finer + upsample_nearest_ref(merged, 2).astype(np.float32)
        want = upsample(conv2d(d, p.proj), 4)
        assert all(np.array_equal(a, b) for a, b in zip(frozen, pyramid))
        assert np.array_equal(logits, want)
        assert all(np.array_equal(m.bitmap, want[i, 0] > np.float32(0.25)) for i, m in enumerate(masks))

    def test_wrong_level_count_rejected(self):
        rng = np.random.default_rng(43)
        p = _res_params(rng, 2)
        with pytest.raises(ShapeError):
            res_head_forward(_pyramid(rng, 2, 16)[:3], p, image_size=64)

    def test_non_halving_levels_rejected(self):
        rng = np.random.default_rng(44)
        p = _res_params(rng, 2)
        pyr = _pyramid(rng, 2, 16)
        pyr[1] = rng.standard_normal((1, 2, 10, 10)).astype(np.float32)
        with pytest.raises(ShapeError):
            res_head_forward(pyr, p, image_size=64)

    def test_indivisible_image_size_rejected(self):
        rng = np.random.default_rng(45)
        p = _res_params(rng, 2)
        with pytest.raises(ShapeError):
            res_head_forward(_pyramid(rng, 2, 16), p, image_size=60)
