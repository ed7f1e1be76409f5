import numpy as np
import pytest

from nmvg.fpn import FpnParams, fpn_forward
from nmvg.tensor import ConvParams, ShapeError, conv2d
from oracles import fpn_ref, rand_fpn, read_only, upsample_nearest_ref


def _stages(rng, channels=(4, 6, 8, 10), base=8):
    return [
        rng.standard_normal((1, c, base >> i, base >> i)).astype(np.float32)
        for i, c in enumerate(channels)
    ]


class TestFpnForward:
    def test_output_shapes_and_channels(self):
        rng = np.random.default_rng(0)
        stages = _stages(rng)
        p = rand_fpn(rng, (4, 6, 8, 10), 5)
        outs = fpn_forward(stages, p)
        assert [o.shape for o in outs] == [(1, 5, 8, 8), (1, 5, 4, 4), (1, 5, 2, 2), (1, 5, 1, 1)]

    def test_top_level_is_smooth_of_lateral(self):
        """No neighbour above the coarsest level, so its output is just
        smooth(lateral(c5))."""
        rng = np.random.default_rng(1)
        stages = _stages(rng)
        p = rand_fpn(rng, (4, 6, 8, 10), 5)
        outs = fpn_forward(stages, p)
        want = conv2d(conv2d(stages[3], p.lateral[3]), p.smooth[3])
        np.testing.assert_allclose(outs[3], want, atol=1e-5)

    def test_zero_upper_stages_isolate_finest(self):
        rng = np.random.default_rng(2)
        stages = _stages(rng)
        for i in (1, 2, 3):
            stages[i] = np.zeros_like(stages[i])
        p = rand_fpn(rng, (4, 6, 8, 10), 5)
        # zero biases so zeroed inputs contribute nothing through the merge
        p = FpnParams(
            lateral=[ConvParams(kernel=c.kernel) for c in p.lateral],
            smooth=[ConvParams(kernel=c.kernel, padding=1) for c in p.smooth],
        )
        outs = fpn_forward(stages, p)
        want = conv2d(conv2d(stages[0], p.lateral[0]), p.smooth[0])
        np.testing.assert_allclose(outs[0], want, atol=1e-5)

    def test_coarse_perturbation_reaches_every_level(self):
        rng = np.random.default_rng(3)
        stages = _stages(rng)
        p = rand_fpn(rng, (4, 6, 8, 10), 5)
        base = fpn_forward(stages, p)
        stages[3] = stages[3] + 1.0
        bumped = fpn_forward(stages, p)
        for a, b in zip(base, bumped):
            assert np.abs(a - b).max() > 1e-6

    def test_fine_perturbation_stays_local(self):
        rng = np.random.default_rng(4)
        stages = _stages(rng)
        p = rand_fpn(rng, (4, 6, 8, 10), 5)
        base = fpn_forward(stages, p)
        stages[0] = stages[0] + 1.0
        bumped = fpn_forward(stages, p)
        assert np.abs(base[0] - bumped[0]).max() > 1e-6
        for a, b in zip(base[1:], bumped[1:]):
            np.testing.assert_array_equal(a, b)

    def test_merge_is_nearest_upsample(self):
        """Two-level check: the finer output sees lateral(c_fine) plus the
        2x nearest-neighbour blow-up of the level above."""
        rng = np.random.default_rng(5)
        stages = _stages(rng, channels=(3, 4, 5, 6), base=8)
        p = rand_fpn(rng, (3, 4, 5, 6), 4)
        outs = fpn_forward(stages, p)
        tops = [conv2d(s, l) for s, l in zip(stages, p.lateral)]
        merged = tops[2] + upsample_nearest_ref(tops[3], 2).astype(np.float32)
        want = conv2d(merged, p.smooth[2])
        np.testing.assert_allclose(outs[2], want, atol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        channels = (3, 5, 7, 9)
        stages = _stages(rng, channels=channels, base=16)
        p = rand_fpn(rng, channels, 6)
        got = fpn_forward(stages, p)
        want = fpn_ref(stages, p)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-4)

    def test_read_only_stages_give_the_out_of_place_result(self):
        """The sums run in place on the lateral conv outputs, never on the
        caller's stages, and match the glue that upsampled each coarser map."""
        rng = np.random.default_rng(12)
        stages = [
            rng.standard_normal((2, c, 16 >> i, 16 >> i)).astype(np.float32)
            for i, c in enumerate((4, 6, 8, 10))
        ]
        p = rand_fpn(rng, (4, 6, 8, 10), 5)
        frozen = read_only(*stages)
        got = fpn_forward(frozen, p)
        merged = conv2d(stages[3], p.lateral[3])
        tops = [merged]
        for i in (2, 1, 0):
            merged = conv2d(stages[i], p.lateral[i]) + upsample_nearest_ref(merged, 2).astype(np.float32)
            tops.append(merged)
        want = [conv2d(t, sp) for t, sp in zip(reversed(tops), p.smooth)]
        assert all(np.array_equal(a, b) for a, b in zip(frozen, stages))
        assert len(got) == 4 and all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_wrong_stage_count_rejected(self):
        rng = np.random.default_rng(6)
        p = rand_fpn(rng, (4, 6, 8, 10), 5)
        with pytest.raises(ShapeError):
            fpn_forward(_stages(rng)[:3], p)

    def test_non_halving_pyramid_rejected(self):
        rng = np.random.default_rng(7)
        stages = _stages(rng)
        stages[1] = rng.standard_normal((1, 6, 5, 5)).astype(np.float32)
        p = rand_fpn(rng, (4, 6, 8, 10), 5)
        with pytest.raises(ShapeError):
            fpn_forward(stages, p)

    def test_mismatched_lateral_widths_rejected(self):
        rng = np.random.default_rng(8)
        laterals = [
            ConvParams(kernel=rng.standard_normal((5, c, 1, 1)).astype(np.float32))
            for c in (4, 6, 8, 10)
        ]
        smooths = [
            ConvParams(kernel=rng.standard_normal((5, 5, 3, 3)).astype(np.float32), padding=1)
            for _ in range(3)
        ]
        smooths.append(
            ConvParams(kernel=rng.standard_normal((6, 5, 3, 3)).astype(np.float32), padding=1)
        )
        with pytest.raises(ShapeError):
            FpnParams(lateral=laterals, smooth=smooths)

