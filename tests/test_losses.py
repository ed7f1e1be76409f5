import math

import numpy as np
import pytest

from nmvg.losses import (
    ALPHA_CONF,
    ALPHA_RES,
    BETA_CONF,
    DICE_SMOOTH,
    GAMMA_RES,
    LAMBDAS,
    TAUS,
    HeatmapTarget,
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


class TestLossConstants:
    def test_paper_values(self):
        assert (ALPHA_CONF, BETA_CONF) == (2.0, 4.0)
        assert TAUS == (1.0, 0.1, 1.0)
        assert (ALPHA_RES, GAMMA_RES) == (0.25, 2.0)
        assert LAMBDAS == (1.0, 1.0)
        assert DICE_SMOOTH == 1.0


class TestUncertaintyWeights:
    def test_sigma_round_trip(self):
        u = UncertaintyWeights.from_sigmas(1.5, 0.25)
        assert u.sigma1 == pytest.approx(1.5)
        assert u.sigma2 == pytest.approx(0.25)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            UncertaintyWeights.from_sigmas(0.0, 1.0)

    @pytest.mark.parametrize("name,sigmas", [("sigma1", (math.nan, 1.0)), ("sigma2", (1.0, math.inf))])
    def test_non_finite_sigma_rejected(self, name, sigmas):
        """A NaN sigma was stored as a NaN log-sigma."""
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            UncertaintyWeights.from_sigmas(*sigmas)

    @pytest.mark.parametrize(
        "name,log_sigmas",
        [
            ("log_sigma1", (800.0, 0.0)),  # sigma overflows: sigma1 raised OverflowError
            ("log_sigma2", (0.0, 400.0)),  # sigma is finite, sigma² is not
            ("log_sigma1", (-400.0, 0.0)),  # sigma² underflows to zero
        ],
    )
    def test_log_sigma_out_of_range_rejected(self, name, log_sigmas):
        with pytest.raises(ValueError, match=f"{name} must give a finite positive sigma"):
            UncertaintyWeights(*log_sigmas)

    @pytest.mark.parametrize("name,log_sigmas", [("log_sigma2", (0.0, math.nan)), ("log_sigma1", (math.inf, 0.0))])
    def test_non_finite_log_sigma_rejected(self, name, log_sigmas):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            UncertaintyWeights(*log_sigmas)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_size_rejected(self, bad):
        """A NaN or infinite size gave a NaN heatmap."""
        with pytest.raises(ValueError, match="size width must be finite"):
            gaussian_target([(1, 1)], [(bad, 2)], h=4, w=4)

    def test_negative_size_rejected(self):
        """A negative size gave a negative radius, or a bare math domain error."""
        with pytest.raises(ValueError, match=r"size \(2.0, -1.0\) must not be negative"):
            gaussian_target([(1, 1)], [(2, -1)], h=4, w=4)

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, "2"])
    def test_non_integer_center_rejected(self, bad):
        """A centre of 2.7 was truncated to cell 2."""
        with pytest.raises(ValueError, match="center row must be an integer"):
            gaussian_target([(1, bad)], [(2, 2)], h=4, w=4)

    def test_numpy_integer_center_accepted(self):
        t = gaussian_target([(np.int64(1), np.int32(2))], [(np.float32(2), 2)], h=4, w=4)
        assert t.centers == ((1, 2),) and t.heatmap[0, 2, 1] == 1.0


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
        p = np.array([[0.4]])
        v_half, _ = conf_loss(p, np.array([[0.5]]))
        v_zero, _ = conf_loss(p, np.array([[0.0]]))
        assert v_half / v_zero == pytest.approx(0.5**BETA_CONF)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5, 1.5])
    @pytest.mark.parametrize("where", ["prediction", "target"])
    def test_non_finite_or_out_of_range_input_rejected(self, bad, where):
        """A NaN gave a quiet NaN value; both arguments are probabilities,
        so a value outside [0, 1] is refused as well."""
        p = np.full((3, 3), 0.4)
        y = np.full((3, 3), 0.2)
        {"prediction": p, "target": y}[where][1, 1] = bad
        with pytest.raises(ValueError, match=f"conf_loss {where} must"):
            conf_loss(p, y)

    def test_clamped_cells_logged(self, caplog):
        with caplog.at_level("WARNING", logger="nmvg.losses"):
            conf_loss(np.array([[0.0, 0.5, 1.0]]), np.array([[1.0, 0.5, 0.0]]))
        assert "conf_loss clamped 2 prediction(s)" in caplog.text


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

    @pytest.mark.parametrize("bad", [2.5, 4.0, True, "4"])
    def test_non_integer_downsample_rejected(self, bad):
        """downsample=2.5 and downsample=True were accepted."""
        with pytest.raises(ValueError, match="downsample must be an integer"):
            offset_loss(np.zeros((2, 16, 16)), [(41.2, 49.6)], downsample=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        pred = np.zeros((2, 16, 16))
        pred[0, 12, 10] = bad
        with pytest.raises(ValueError, match="offset_loss prediction must be finite"):
            offset_loss(pred, [(41.2, 49.6)], downsample=4)
        with pytest.raises(ValueError, match="offset_loss target must be finite"):
            offset_loss(np.zeros((2, 16, 16)), [(41.2, bad)], downsample=4)


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

    @pytest.mark.parametrize("size", [1e-200, 1e300])
    def test_extreme_box_rejected_not_nan_gradient(self, size):
        """A finite box so small or large that the terms under- or overflow
        gave a finite loss with an all-NaN gradient; it is refused."""
        with pytest.raises(ValueError, match="ciou_wh_loss is not finite"):
            ciou_wh_loss(np.array([[0.0, 0.0, size, size]]), np.array([[0.0, 0.0, 1.0, 1.0]]))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ciou_wh_loss(np.zeros((2, 4)) + 1, np.zeros((3, 4)) + 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ciou_wh_loss(np.zeros((0, 4)), np.zeros((0, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["prediction", "target"])
    def test_non_finite_input_rejected(self, bad, where):
        """A box with h = inf gave a loss of 1.05, a NaN one a NaN loss."""
        boxes = {"prediction": np.array([[0.0, 0.0, 1.0, 1.0]]), "target": np.array([[0.5, 0.0, 1.0, 2.0]])}
        boxes[where][0, 3] = bad
        with pytest.raises(ValueError, match=f"ciou_wh_loss {where} must be finite"):
            ciou_wh_loss(boxes["prediction"], boxes["target"])


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="dice_loss prediction must be finite"):
            dice_loss(np.array([0.5, bad]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="dice_loss target must be finite"):
            dice_loss(np.array([0.5, 0.5]), np.array([1.0, bad]))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5, -0.5])
    def test_non_finite_or_out_of_range_prediction_rejected(self, bad):
        """[1.5] against [1] gave 2.5e-19 with zero gradient, where dice
        refuses it; a NaN gave a NaN value."""
        with pytest.raises(ValueError, match="focal_seg_loss prediction must"):
            focal_seg_loss(np.array([bad]), np.array([1.0]))
        with pytest.raises(ValueError, match="focal_seg_loss target must be finite"):
            focal_seg_loss(np.array([0.5]), np.array([np.nan]))

    def test_clamped_cells_logged(self, caplog):
        with caplog.at_level("WARNING", logger="nmvg.losses"):
            focal_seg_loss(np.array([0.0, 0.5]), np.array([1.0, 0.0]))
        assert "focal_seg_loss clamped 1 prediction(s)" in caplog.text


class TestAssembly:
    def test_rec_loss_uses_taus(self):
        assert (rec_loss(1.0, 0.0, 0.0), rec_loss(0.0, 1.0, 0.0), rec_loss(0.0, 0.0, 1.0)) == TAUS

    def test_rec_loss_default_taus(self):
        assert rec_loss(1.0, 1.0, 1.0) == pytest.approx(1.0 + 0.1 + 1.0)

    def test_res_loss_uses_lambdas(self):
        assert (res_loss(1.0, 0.0), res_loss(0.0, 1.0)) == LAMBDAS

    def test_total_hand_case(self):
        u = UncertaintyWeights.from_sigmas(1.0, 2.0)
        assert total_loss(2.0, 4.0, u) == pytest.approx(1.5 + math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("name,terms", [("l_rec", ("1.0", 1.0)), ("l_res", (1.0, True))])
    def test_total_non_real_term_rejected(self, name, terms):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            total_loss(*terms)

    @pytest.mark.parametrize("name,terms", [("l_rec", (math.nan, 1.0)), ("l_res", (1.0, -math.inf))])
    def test_total_non_finite_term_rejected(self, name, terms):
        """total_loss(nan, 1.0) returned nan."""
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            total_loss(*terms)

    def test_total_unit_sigmas_exact_half_sum(self):
        u = UncertaintyWeights()
        for l_rec, l_res in ((2.0, 4.0), (0.3, 0.7), (5.5, 1.25)):
            assert total_loss(l_rec, l_res, u) == 0.5 * l_rec + 0.5 * l_res
