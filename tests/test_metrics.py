import numpy as np
import pytest

from nmvg.heads import BinaryMask, DetectionBox
from nmvg.metrics import (
    IOU_THRESHOLDS,
    EnergyTrace,
    EvalResult,
    average_precision,
    box_iou,
    mask_miou,
    mept,
)
from oracles import ap_ref, average_precision_loop


def _box(cx, cy, w, h, score=0.9):
    return DetectionBox(cx, cy, w, h, score)


class TestBoxIou:
    def test_identical(self):
        assert box_iou((1, 2, 3, 4), (1, 2, 3, 4)) == 1.0

    def test_disjoint(self):
        assert box_iou((0, 0, 1, 1), (5, 5, 1, 1)) == 0.0

    def test_half_overlap_unit_squares(self):
        assert box_iou((0, 0, 1, 1), (0.5, 0, 1, 1)) == pytest.approx(1.0 / 3.0)

    def test_accepts_detection_boxes(self):
        assert box_iou(_box(0, 0, 2, 2), _box(0, 0, 2, 2)) == 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            box_iou((0, 0, 0, 1), (0, 0, 1, 1))

    @pytest.mark.parametrize(
        "bad", [(np.nan, 0, 1, 1), (0, 0, np.nan, 1), (0, 0, np.inf, 1), (0, -np.inf, 1, 1)]
    )
    def test_non_finite_rejected_in_either_order(self, bad):
        """min and max drop a NaN in one argument order, so a NaN box once
        scored 1.0 one way round and nan the other."""
        for a, b in ((bad, (0, 0, 1, 1)), ((0, 0, 1, 1), bad)):
            with pytest.raises(ValueError, match="box (cx|cy|w|h) must be finite"):
                box_iou(a, b)

    def test_non_finite_ground_truth_rejected_by_ap(self):
        """A NaN ground-truth box once matched every detection: AP50 100."""
        with pytest.raises(ValueError, match="box (cx|cy|w|h) must be finite"):
            average_precision([[_box(5, 5, 2, 2)]], [[(np.nan, np.nan, 2, 2)]])


class TestEvalResult:
    def test_range_checked(self):
        with pytest.raises(ValueError):
            EvalResult(ap50=120.0, ap50_95=50.0, ar50_95=50.0)

    def test_ordering_checked(self):
        with pytest.raises(ValueError):
            EvalResult(ap50=10.0, ap50_95=50.0, ar50_95=50.0)


class TestAveragePrecision:
    def test_thresholds_are_the_ten_standard_steps(self):
        assert IOU_THRESHOLDS == tuple(np.arange(0.5, 1.0, 0.05).round(2))

    def test_self_match_is_perfect(self):
        gts = [[(10.0, 10.0, 4.0, 4.0), (20.0, 5.0, 2.0, 8.0)], [(3.0, 3.0, 5.0, 5.0)]]
        preds = [[_box(*b) for b in sample] for sample in gts]
        res = average_precision(preds, gts)
        assert res.ap50 == 100.0
        assert res.ap50_95 == 100.0
        assert res.ar50_95 == 100.0

    def test_iou_exactly_at_edge_of_band(self):
        """A single pred at IoU 0.6 counts at thresholds 0.50/0.55/0.60."""
        gts = [[(10.0, 10.0, 10.0, 10.0)]]
        preds = [[_box(10.0, 12.5, 10.0, 10.0)]]
        res = average_precision(preds, gts)
        assert res.ap50 == 100.0
        assert res.ap50_95 == pytest.approx(30.0, abs=1e-9)
        assert res.ar50_95 == pytest.approx(30.0, abs=1e-9)

    def test_missed_gt_caps_recall(self):
        gts = [[(0.0, 0.0, 2.0, 2.0), (50.0, 50.0, 2.0, 2.0)]]
        preds = [[_box(0.0, 0.0, 2.0, 2.0)]]
        res = average_precision(preds, gts)
        # perfect precision on half the ground truth
        assert res.ar50_95 == pytest.approx(50.0)
        assert res.ap50 == pytest.approx(100.0 * (51 / 101))

    def test_false_positive_lowers_precision_not_recall(self):
        gts = [[(0.0, 0.0, 2.0, 2.0)]]
        hit = _box(0.0, 0.0, 2.0, 2.0, score=0.9)
        miss = _box(30.0, 30.0, 2.0, 2.0, score=0.1)
        res = average_precision([[hit, miss]], gts)
        assert res.ar50_95 == 100.0
        assert res.ap50 == 100.0  # the miss ranks below the full-recall point

    def test_high_scoring_false_positive_hurts(self):
        gts = [[(0.0, 0.0, 2.0, 2.0)]]
        hit = _box(0.0, 0.0, 2.0, 2.0, score=0.1)
        miss = _box(30.0, 30.0, 2.0, 2.0, score=0.9)
        res = average_precision([[hit, miss]], gts)
        assert res.ap50 == pytest.approx(50.0)

    def test_empty_samples_dropped(self):
        gts = [[], [(0.0, 0.0, 2.0, 2.0)]]
        preds = [[], [_box(0.0, 0.0, 2.0, 2.0)]]
        assert average_precision(preds, gts).ap50 == 100.0

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            average_precision([[], []], [[], []])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            average_precision([[]], [[], []])

    def test_pooled_scores_rank_across_samples(self):
        """A confident false positive in one sample outranks a shy true
        positive in another, dragging the pooled precision curve down."""
        gts = [[(0.0, 0.0, 2.0, 2.0)], [(0.0, 0.0, 2.0, 2.0)]]
        preds = [
            [_box(0.0, 0.0, 2.0, 2.0, score=0.3)],
            [_box(40.0, 40.0, 2.0, 2.0, score=0.8)],
        ]
        pooled = average_precision(preds, gts)
        want_per, want_ap, want_ar = ap_ref(preds, gts, IOU_THRESHOLDS)
        assert pooled.ap50_95 == pytest.approx(want_ap, abs=1e-9)
        assert pooled.ap50 < 100.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(500 + seed)
        n_samples = int(rng.integers(1, 4))
        gts, preds = [], []
        for _ in range(n_samples):
            n_gt = int(rng.integers(0, 4))
            n_pred = int(rng.integers(0, 5))
            gts.append(
                [
                    (
                        float(rng.uniform(0, 30)),
                        float(rng.uniform(0, 30)),
                        float(rng.uniform(2, 8)),
                        float(rng.uniform(2, 8)),
                    )
                    for _ in range(n_gt)
                ]
            )
            sample_preds = []
            for _ in range(n_pred):
                if gts[-1] and rng.random() < 0.6:
                    gx, gy, gw, gh = gts[-1][int(rng.integers(0, len(gts[-1])))]
                    sample_preds.append(
                        _box(
                            gx + float(rng.normal(0, 1)),
                            gy + float(rng.normal(0, 1)),
                            max(gw + float(rng.normal(0, 1)), 0.5),
                            max(gh + float(rng.normal(0, 1)), 0.5),
                            score=float(rng.uniform(0.05, 0.95)),
                        )
                    )
                else:
                    sample_preds.append(
                        _box(
                            float(rng.uniform(0, 30)),
                            float(rng.uniform(0, 30)),
                            float(rng.uniform(2, 8)),
                            float(rng.uniform(2, 8)),
                            score=float(rng.uniform(0.05, 0.95)),
                        )
                    )
            preds.append(sample_preds)
        if not any(gts) and not any(preds):
            gts[0] = [(5.0, 5.0, 3.0, 3.0)]
        res = average_precision(preds, gts)
        want_per, want_ap, want_ar = ap_ref(preds, gts, IOU_THRESHOLDS)
        assert res.ap50 == pytest.approx(100.0 * want_per[0.5], abs=1e-9)
        assert res.ap50_95 == pytest.approx(want_ap, abs=1e-9)
        assert res.ar50_95 == pytest.approx(want_ar, abs=1e-9)


    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_per_threshold_loop(self, seed):
        """One IoU table per call and the suffix-maximum envelope give the
        per-threshold loop's result bit for bit, on pools with tied scores
        and IoUs, empty samples, samples with only boxes of one side, and
        predictions that match nothing."""
        rng = np.random.default_rng(900 + seed)
        grid = [(float(x), float(y), float(w), float(h)) for x in (4, 6, 9) for y in (4, 7) for w in (2, 3) for h in (2, 4)]
        for _ in range(50):
            gts, preds = [], []
            for _ in range(int(rng.integers(1, 5))):
                gts.append([grid[i] for i in rng.integers(0, len(grid), int(rng.integers(0, 4)))])
                preds.append(
                    [
                        _box(*grid[i], score=float(rng.choice([0.2, 0.5, 0.5, 0.8])))
                        for i in rng.integers(0, len(grid), int(rng.integers(0, 5)))
                    ]
                )
            if not any(gts) and not any(preds):
                preds[0] = [_box(*grid[0])]
            want = average_precision_loop(preds, gts, IOU_THRESHOLDS)
            assert average_precision(preds, gts) == want

    def test_each_pair_iou_computed_once(self, monkeypatch):
        from nmvg import metrics

        calls = []
        iou = metrics.box_iou
        monkeypatch.setattr(metrics, "box_iou", lambda a, b: calls.append(1) or iou(a, b))
        gts = [[(0.0, 0.0, 2.0, 2.0), (5.0, 5.0, 2.0, 2.0)], [(1.0, 1.0, 3.0, 3.0)]]
        preds = [[_box(0.0, 0.0, 2.0, 2.0), _box(9.0, 9.0, 1.0, 1.0)], [_box(1.0, 1.0, 2.0, 3.0)]]
        average_precision(preds, gts)
        assert len(calls) == 2 * 2 + 1 * 1


class TestMaskMiou:
    def test_identical_masks(self):
        m = (np.arange(64).reshape(8, 8) % 5 == 0).astype(np.uint8)
        assert mask_miou([m], [m]) == 100.0

    def test_disjoint_masks(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.zeros((4, 4), dtype=np.uint8)
        a[0, 0] = 1
        b[3, 3] = 1
        assert mask_miou([a], [b]) == 0.0

    def test_both_empty_count_as_one(self):
        z = np.zeros((4, 4), dtype=np.uint8)
        assert mask_miou([z], [z]) == 100.0

    def test_mean_over_pairs(self):
        z = np.zeros((4, 4), dtype=np.uint8)
        half = z.copy()
        half[:2] = 1
        full = np.ones((4, 4), dtype=np.uint8)
        got = mask_miou([z, half], [z, full])
        assert got == pytest.approx(100.0 * (1.0 + 0.5) / 2)

    def test_accepts_binary_mask_objects(self):
        m = BinaryMask(np.ones((3, 3), dtype=np.uint8))
        assert mask_miou([m], [np.ones((3, 3))]) == 100.0

    @pytest.mark.parametrize("bad", [np.nan, 0.5])
    def test_non_binary_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            mask_miou([np.full((4, 4), bad)], [np.ones((4, 4))])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mask_miou([np.zeros((2, 2))], [np.zeros((3, 3))])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            mask_miou([], [])


class TestEnergyTrace:
    def _write(self, path, rows, header="sample_id,energy_trained,energy_untrained"):
        path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))

    def test_from_csv_round_trip(self, tmp_path):
        f = tmp_path / "trace.csv"
        self._write(f, [f"s{i},50.0,22.0" for i in range(10)])
        t = EnergyTrace.from_csv(f)
        assert t.sample_ids[0] == "s0"
        assert t.tau_evals == 10
        np.testing.assert_array_equal(t.trained, np.full(10, 50.0))

    def test_explicit_tau_wins(self, tmp_path):
        f = tmp_path / "trace.csv"
        self._write(f, ["a,5,1", "b,6,2"])
        assert EnergyTrace.from_csv(f, tau=7).tau_evals == 7

    def test_missing_column_rejected(self, tmp_path):
        f = tmp_path / "trace.csv"
        f.write_text("sample_id,energy_trained\na,5\n")
        with pytest.raises(ValueError, match="columns"):
            EnergyTrace.from_csv(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "trace.csv"
        self._write(f, [])
        with pytest.raises(ValueError, match="no data"):
            EnergyTrace.from_csv(f)

    def test_negative_reading_rejected(self):
        with pytest.raises(ValueError):
            EnergyTrace(("a",), np.array([-1.0]), np.array([0.5]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["trained", "untrained"])
    def test_non_finite_reading_rejected(self, bad, column):
        readings = {"trained": np.array([5.0, 6.0]), "untrained": np.array([1.0, 2.0])}
        readings[column][1] = bad
        with pytest.raises(ValueError, match="finite"):
            EnergyTrace(("a", "b"), readings["trained"], readings["untrained"], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EnergyTrace(("a",), np.array([1.0, 2.0]), np.array([0.5, 0.5]), 2)

    @pytest.mark.parametrize("tau", [1.5, True, "2"])
    def test_non_integer_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau_evals must be an integer"):
            EnergyTrace(("a",), np.array([5.0]), np.array([1.0]), tau)


class TestMept:
    def _trace(self, trained, untrained, tau):
        n = len(trained)
        return EnergyTrace(
            tuple(f"s{i}" for i in range(n)),
            np.asarray(trained, dtype=float),
            np.asarray(untrained, dtype=float),
            tau,
        )

    def test_hand_value(self):
        t = self._trace([50.0] * 10, [22.0] * 10, 10)
        assert mept([70.0], t) == pytest.approx(2.5, abs=1e-12)

    def test_mean_over_performance_values(self):
        t = self._trace([50.0] * 10, [22.0] * 10, 10)
        assert mept([60.0, 80.0], t) == pytest.approx(2.5, abs=1e-12)

    def test_homogeneity_in_performance(self):
        rng = np.random.default_rng(0)
        t = self._trace(rng.uniform(40, 60, 8), rng.uniform(10, 20, 8), 8)
        p = rng.uniform(20, 90, 5)
        assert mept(2.0 * p, t) == pytest.approx(2.0 * mept(p, t), rel=1e-12)

    def test_corrupt_trace_rejected(self):
        t = self._trace([10.0, 10.0], [20.0, 20.0], 2)
        with pytest.raises(ValueError, match="corrupt"):
            mept([50.0], t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_perf_rejected(self, bad):
        t = self._trace([50.0], [22.0], 1)
        with pytest.raises(ValueError, match="finite"):
            mept([50.0, bad], t)

    def test_empty_perf_rejected(self):
        t = self._trace([50.0], [22.0], 1)
        with pytest.raises(ValueError):
            mept([], t)
