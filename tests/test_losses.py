import math

import numpy as np
import pytest

from nmvg.losses import (
    HeatmapTarget,
    LossConfig,
    UncertaintyWeights,
    _gaussian_radius,
    ciou_wh_loss,
    conf_loss,
    dice_loss,
    focal_seg_loss,
    gaussian_target,
    offset_loss,
    rec_loss,
    res_loss,
    total_loss,
)
from oracles import ciou_ref, fd_grad, rel_err


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert (cfg.alpha_conf, cfg.beta_conf) == (2.0, 4.0)
        assert (cfg.tau1, cfg.tau2, cfg.tau3) == (1.0, 0.1, 1.0)
        assert (cfg.alpha_res, cfg.gamma_res) == (0.25, 2.0)
        assert (cfg.lambda1, cfg.lambda2) == (1.0, 1.0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="gamma_res"):
            LossConfig(gamma_res=-1.0)

    def test_from_file_with_comments_and_overrides(self, tmp_path):
        f = tmp_path / "loss.cfg"
        f.write_text("# comment\nalpha_conf = 3\ntau2 = 0.5  # inline\n")
        cfg = LossConfig.from_file(f, tau2=0.9)
        assert cfg.alpha_conf == 3.0
        assert cfg.tau2 == 0.9

    def test_from_file_rejects_unknown_key(self, tmp_path):
        f = tmp_path / "loss.cfg"
        f.write_text("warp_factor = 9\n")
        with pytest.raises(ValueError, match="warp_factor"):
            LossConfig.from_file(f)

    @pytest.mark.parametrize(
        "line,message", [("tau1 = nan", "tau1 must be finite"), ("gamma_res = -1", "gamma_res must be non-negative")]
    )
    def test_from_file_out_of_range_value_names_its_line(self, tmp_path, line, message):
        f = tmp_path / "loss.cfg"
        f.write_text(f"# weights\nalpha_conf = 3\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ValueError, match=f"loss.cfg:3: {key}: {message}"):
            LossConfig.from_file(f)

    def test_from_file_rejects_bare_line(self, tmp_path):
        f = tmp_path / "loss.cfg"
        f.write_text("alpha_conf\n")
        with pytest.raises(ValueError, match="key = value"):
            LossConfig.from_file(f)


class TestUncertaintyWeights:
    def test_sigma_round_trip(self):
        u = UncertaintyWeights.from_sigmas(1.5, 0.25)
        assert u.sigma1 == pytest.approx(1.5)
        assert u.sigma2 == pytest.approx(0.25)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            UncertaintyWeights.from_sigmas(0.0, 1.0)


def _radius_oracle(h, w, o=0.7):
    """Same three published quadratic bounds, solved independently:
    each candidate is the larger real root of x^2 - b x + a c."""
    cands = []
    for a, b, c in (
        (1.0, h + w, w * h * (1 - o) / (1 + o)),
        (4.0, 2 * (h + w), (1 - o) * w * h),
        (4.0 * o, -2 * o * (h + w), (o - 1) * w * h),
    ):
        roots = np.roots([1.0, -b, a * c])
        cands.append(max(roots.real))
    return min(cands)


class TestGaussianTarget:
    @pytest.mark.parametrize("h,w", [(10, 10), (3, 7), (24, 2), (1, 1)])
    def test_radius_matches_root_oracle(self, h, w):
        assert _gaussian_radius(h, w) == pytest.approx(_radius_oracle(h, w), rel=1e-9)

    def test_peak_exactly_one(self):
        t = gaussian_target([(5, 3)], [(4, 6)], h=8, w=10)
        assert t.heatmap.shape == (1, 8, 10)
        assert t.heatmap[0, 3, 5] == 1.0

    def test_lone_center_matches_scalar_gaussian(self):
        t = gaussian_target([(8, 8)], [(6, 6)], h=16, w=16)
        sigma = t.radii[0] / 3.0
        for d in (1, 2, 3):
            want = math.exp(-(d * d) / (2 * sigma * sigma))
            assert t.heatmap[0, 8, 8 + d] == pytest.approx(want, rel=1e-5)

    def test_two_objects_compose_by_max(self):
        a = gaussian_target([(4, 4)], [(5, 5)], h=12, w=12)
        b = gaussian_target([(7, 6)], [(3, 8)], h=12, w=12)
        both = gaussian_target([(4, 4), (7, 6)], [(5, 5), (3, 8)], h=12, w=12)
        np.testing.assert_array_equal(both.heatmap, np.maximum(a.heatmap, b.heatmap))

    def test_center_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            gaussian_target([(10, 2)], [(2, 2)], h=8, w=10)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gaussian_target([(1, 1)], [], h=4, w=4)


class TestConfLoss:
    def test_hand_single_positive_cell(self):
        value, _ = conf_loss(np.array([[0.5]]), np.array([[1.0]]))
        assert value == pytest.approx(0.25 * math.log(2.0), abs=1e-12)

    def test_perfect_prediction_near_zero(self):
        t = gaussian_target([(3, 3)], [(3, 3)], h=8, w=8)
        pred = np.where(t.heatmap[0] == 1.0, 1.0, 0.0)
        value, grad = conf_loss(pred, t.heatmap[0])
        assert 0 <= value <= 1e-4
        # clamped cells carry no gradient
        assert not grad.any()

    def test_background_weighting_uses_beta(self):
        y = np.array([[0.5]])
        p = np.array([[0.4]])
        v2, _ = conf_loss(p, y, LossConfig(beta_conf=2.0))
        v4, _ = conf_loss(p, y, LossConfig(beta_conf=4.0))
        want_ratio = 0.5**2 / 0.5**4
        assert v2 / v4 == pytest.approx(want_ratio)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        y = np.where(rng.random((5, 5)) > 0.85, 1.0, rng.random((5, 5)) * 0.9)
        p = rng.uniform(0.05, 0.95, (5, 5))
        _, grad = conf_loss(p, y)
        fd = fd_grad(lambda q: conf_loss(q, y)[0], p)
        assert rel_err(grad, fd) <= 1e-3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            conf_loss(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_accepts_heatmap_target(self):
        t = gaussian_target([(2, 2)], [(2, 2)], h=5, w=5)
        v_obj, _ = conf_loss(t.heatmap, t)
        v_arr, _ = conf_loss(t.heatmap, t.heatmap)
        assert v_obj == v_arr


class TestOffsetLoss:
    def test_hand_exact_target_is_zero(self):
        pred = np.zeros((2, 16, 16))
        pred[0, 12, 10] = 0.3
        pred[1, 12, 10] = 0.4
        value, grad = offset_loss(pred, [(41.2, 49.6)], downsample=4)
        assert value == pytest.approx(0.0, abs=1e-9)
        # sitting on the L1 kink: entries are subgradients in {0, +-1/m}
        assert set(np.round(np.abs(grad), 12).ravel()) <= {0.0, 0.5}

    def test_hand_shifted_prediction(self):
        pred = np.zeros((2, 16, 16))
        pred[0, 12, 10] = 0.3 + 0.1
        pred[1, 12, 10] = 0.4 - 0.1
        value, _ = offset_loss(pred, [(41.2, 49.6)], downsample=4)
        assert value == pytest.approx(0.1, abs=1e-9)

    def test_no_objects_zero(self):
        value, grad = offset_loss(np.ones((2, 4, 4)), [], downsample=4)
        assert value == 0.0
        assert not grad.any()

    def test_mean_runs_over_both_coordinates(self):
        pred = np.zeros((2, 4, 4))
        pred[0, 0, 0] = 0.5  # one coordinate off by 0.5, three exact
        value, _ = offset_loss(pred, [(0.0, 0.0), (4.0, 4.0)], downsample=4)
        assert value == pytest.approx(0.5 / 4)

    def test_gradient_matches_finite_differences_away_from_kink(self):
        rng = np.random.default_rng(9)
        centers = [(17.3, 9.9), (33.0, 41.7)]
        pred = rng.standard_normal((2, 16, 16)) * 0.5
        # keep all sampled residuals well clear of the L1 kink
        value, grad = offset_loss(pred, centers, downsample=4)
        assert value > 0
        fd = fd_grad(lambda q: offset_loss(q, centers, 4)[0], pred)
        assert rel_err(grad, fd) <= 1e-3

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            offset_loss(np.zeros((3, 4, 4)), [(1.0, 1.0)], downsample=4)

    def test_center_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            offset_loss(np.zeros((2, 4, 4)), [(100.0, 1.0)], downsample=4)


class TestCiouLoss:
    def test_identical_boxes_zero(self):
        boxes = np.array([[3.0, 4.0, 2.0, 5.0]])
        value, grad = ciou_wh_loss(boxes, boxes)
        assert value == 0.0
        assert np.isfinite(grad).all()

    def test_disjoint_unit_squares_cross_checked(self):
        pred = np.array([[0.0, 0.0, 1.0, 1.0]])
        gt = np.array([[10.0, 0.0, 1.0, 1.0]])
        value, _ = ciou_wh_loss(pred, gt)
        assert value == pytest.approx(1.0 - ciou_ref(pred[0], gt[0]), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_value_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(40 + seed)
        n = 5
        pred = np.column_stack(
            [rng.uniform(-5, 5, n), rng.uniform(-5, 5, n), rng.uniform(0.5, 4, n), rng.uniform(0.5, 4, n)]
        )
        gt = np.column_stack(
            [rng.uniform(-5, 5, n), rng.uniform(-5, 5, n), rng.uniform(0.5, 4, n), rng.uniform(0.5, 4, n)]
        )
        value, _ = ciou_wh_loss(pred, gt)
        want = np.mean([1.0 - ciou_ref(p, g) for p, g in zip(pred, gt)])
        assert value == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(60 + seed)
        n = 4
        pred = np.column_stack(
            [rng.uniform(-3, 3, n), rng.uniform(-3, 3, n), rng.uniform(1.0, 3, n), rng.uniform(1.0, 3, n)]
        )
        gt = pred + np.column_stack(
            [rng.uniform(0.3, 0.9, n), rng.uniform(0.3, 0.9, n), rng.uniform(0.2, 0.6, n), rng.uniform(0.2, 0.6, n)]
        )
        _, grad = ciou_wh_loss(pred, gt)
        fd = fd_grad(lambda q: ciou_wh_loss(q, gt)[0], pred)
        assert rel_err(grad, fd) <= 1e-3

    def test_degenerate_gt_rejected(self):
        with pytest.raises(ValueError):
            ciou_wh_loss(np.array([[0, 0, 1, 1.0]]), np.array([[0, 0, 0.0, 1.0]]))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ciou_wh_loss(np.zeros((2, 4)) + 1, np.zeros((3, 4)) + 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ciou_wh_loss(np.zeros((0, 4)), np.zeros((0, 4)))


class TestDiceLoss:
    def test_hand_smoothed_miss(self):
        value, _ = dice_loss(np.zeros(100), np.ones(100))
        assert value == pytest.approx(1.0 - 1.0 / 101.0, abs=1e-12)

    def test_perfect_binary_overlap_near_zero(self):
        g = (np.arange(2000) % 3 == 0).astype(float)
        value, _ = dice_loss(g, g)
        assert 0 <= value <= 1e-3

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(80 + seed)
        p = rng.uniform(0.05, 0.95, 50)
        g = (rng.random(50) > 0.5).astype(float)
        _, grad = dice_loss(p, g)
        fd = fd_grad(lambda q: dice_loss(q, g)[0], p)
        assert rel_err(grad, fd) <= 1e-3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dice_loss(np.zeros(0), np.zeros(0))

    def test_non_binary_target_rejected(self):
        with pytest.raises(ValueError):
            dice_loss(np.full(4, 0.5), np.full(4, 0.5))

    def test_out_of_range_prediction_rejected(self):
        with pytest.raises(ValueError):
            dice_loss(np.array([1.5]), np.array([1.0]))


class TestFocalSegLoss:
    def test_hand_single_foreground_pixel(self):
        value, _ = focal_seg_loss(np.array([0.5]), np.array([1.0]))
        assert value == pytest.approx(0.25 * 0.25 * math.log(2.0), abs=1e-12)

    def test_background_uses_complement(self):
        v_fg, _ = focal_seg_loss(np.array([0.3]), np.array([1.0]))
        v_bg, _ = focal_seg_loss(np.array([0.7]), np.array([0.0]))
        assert v_fg == pytest.approx(v_bg, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(120 + seed)
        p = rng.uniform(0.05, 0.95, (6, 6))
        g = (rng.random((6, 6)) > 0.6).astype(float)
        _, grad = focal_seg_loss(p, g)
        fd = fd_grad(lambda q: focal_seg_loss(q, g)[0], p)
        assert rel_err(grad, fd) <= 1e-3

    def test_non_binary_target_rejected(self):
        with pytest.raises(ValueError):
            focal_seg_loss(np.array([0.5]), np.array([0.5]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            focal_seg_loss(np.zeros((0,)), np.zeros((0,)))


class TestAssembly:
    def test_rec_loss_uses_taus(self):
        cfg = LossConfig(tau1=2.0, tau2=0.5, tau3=3.0)
        assert rec_loss(1.0, 2.0, 3.0, cfg) == pytest.approx(2.0 + 1.0 + 9.0)

    def test_rec_loss_default_taus(self):
        assert rec_loss(1.0, 1.0, 1.0) == pytest.approx(1.0 + 0.1 + 1.0)

    def test_res_loss_uses_lambdas(self):
        cfg = LossConfig(lambda1=0.5, lambda2=2.0)
        assert res_loss(4.0, 3.0, cfg) == pytest.approx(2.0 + 6.0)

    def test_total_hand_case(self):
        u = UncertaintyWeights.from_sigmas(1.0, 2.0)
        assert total_loss(2.0, 4.0, u) == pytest.approx(1.5 + math.log(2.0), abs=1e-12)

    def test_total_unit_sigmas_exact_half_sum(self):
        u = UncertaintyWeights()
        for l_rec, l_res in ((2.0, 4.0), (0.3, 0.7), (5.5, 1.25)):
            assert total_loss(l_rec, l_res, u) == 0.5 * l_rec + 0.5 * l_res
