"""Input boundaries, one case per documented refusal.

``TestBoundaryRaises`` holds the refusals no other test reaches: each
case builds the smallest input that crosses one boundary and asserts the
documented error type and message.  ``TestExportedCallablesProbe`` hands
each number-taking callable of ``nmvg.__all__`` a NaN, an infinity, a
zero and a negative value, and pins whether each is refused, with the
documented type, or accepted.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from oracles import rand_bn, rand_conv, rand_msrep, rand_tmdf

import nmvg
from nmvg.archive import load_archive
from nmvg.encoders import tokenize
from nmvg.fpn import FpnParams
from nmvg.fusion import DeformParams, deform_conv, sinusoidal_encoding, tmdf_fuse
from nmvg.heads import MsRepParams, decode_boxes, msrep_fuse
from nmvg.losses import ciou_wh_loss, dice_loss, focal_seg_loss, offset_loss
from nmvg.metrics import EnergyTrace
from nmvg.rasters import RasterError, read_boxes, read_image, read_mask, write_ppm, write_radar_raw
from nmvg.tensor import BNParams, ShapeError, batchnorm_inference, conv2d, maxpool1d


def _rng():
    return np.random.default_rng(36)


def _tmdf(f_img_shape=(1, 4, 6, 6), f_text_shape=(4, 5)):
    """tmdf_fuse on C=4, 6x6 weights with a text code of length 5."""
    rng = _rng()
    p = rand_tmdf(rng, 4, 6, 6, 5)
    f = rng.standard_normal(f_img_shape).astype(np.float32)
    return tmdf_fuse(f, f, rng.standard_normal(f_text_shape).astype(np.float32), p)


def _file(tmp_path, data: bytes):
    path = tmp_path / "b.txt"
    path.write_bytes(data)
    return path


# id -> (a call given tmp_path, error type, message pattern)
BOUNDARY_RAISES = {
    # tensor
    "conv-stride-below-1": (lambda t: rand_conv(_rng(), 2, 2, 1, 1, stride=0), ShapeError, "stride must be >= 1"),
    "conv-negative-padding": (lambda t: rand_conv(_rng(), 2, 2, 1, 1, padding=-1), ShapeError, "padding must be >= 0"),
    "conv-input-not-4d": (
        lambda t: conv2d(np.zeros((2, 4, 4), np.float32), rand_conv(_rng(), 2, 2, 1, 1)),
        ShapeError,
        "conv input must be 4-D",
    ),
    "batchnorm-channel-mismatch": (
        lambda t: batchnorm_inference(np.zeros((1, 3, 2, 2), np.float32), rand_bn(_rng(), 4)),
        ShapeError,
        "input has 3 channels, batchnorm expects 4",
    ),
    "maxpool1d-1d-input": (lambda t: maxpool1d(np.zeros(7)), ShapeError, r"maxpool1d expects \(C, L\)"),
    # fusion
    "deform-main-channel-mismatch": (
        lambda t: deform_conv(
            np.zeros((1, 4, 5, 5), np.float32),
            DeformParams(
                offset_conv=rand_conv(_rng(), 18, 4, 3, 3, padding=1), main=rand_conv(_rng(), 4, 2, 3, 3, padding=1)
            ),
        ),
        ShapeError,
        "input has 4 channels, main kernel expects 2",
    ),
    "deform-offset-grid-mismatch": (
        lambda t: deform_conv(
            np.zeros((1, 4, 5, 5), np.float32),
            DeformParams(
                offset_conv=rand_conv(_rng(), 18, 4, 3, 3, padding=1),
                main=rand_conv(_rng(), 4, 4, 3, 3, stride=2, padding=1),
            ),
        ),
        ShapeError,
        r"offset grid \(5, 5\) does not match conv output \(3, 3\)",
    ),
    "sinusoidal-zero-channels": (lambda t: sinusoidal_encoding(0, 5), ShapeError, "needs positive dims"),
    "tmdf-channel-mismatch": (
        lambda t: _tmdf(f_img_shape=(1, 2, 6, 6)),
        ShapeError,
        "stage has 2 channels, fusion expects 4",
    ),
    "tmdf-extent-mismatch": (lambda t: _tmdf(f_img_shape=(1, 4, 4, 4)), ShapeError, "does not match positional grid"),
    "tmdf-text-shape-mismatch": (lambda t: _tmdf(f_text_shape=(4, 6)), ShapeError, "does not match positional code"),
    # fpn and heads
    "fpn-three-laterals": (
        lambda t: FpnParams(
            lateral=tuple(rand_conv(_rng(), 8, 4, 1, 1) for _ in range(3)),
            smooth=tuple(rand_conv(_rng(), 8, 8, 3, 3, padding=1) for _ in range(4)),
        ),
        ShapeError,
        "exactly four lateral",
    ),
    "decode-heatmap-of-two-planes": (
        lambda t: decode_boxes(np.full((2, 4, 4), 0.5), np.zeros((2, 4, 4)), np.zeros((2, 4, 4)), 4, 3, 0.1),
        ShapeError,
        r"heatmap has shape \(2, 4, 4\), expected 1 plane",
    ),
    "msrep-dense-1x1-branch": (
        lambda t: msrep_fuse(
            MsRepParams(
                conv3=rand_conv(_rng(), 4, 1, 3, 3, padding=1, groups=4),
                bn3=rand_bn(_rng(), 4),
                conv1=rand_conv(_rng(), 4, 4, 1, 1),
                bn1=rand_bn(_rng(), 4),
                bn_id=rand_bn(_rng(), 4),
            )
        ),
        ShapeError,
        "depthwise 1x1 branch",
    ),
    # losses
    "offset-loss-downsample-0": (
        lambda t: offset_loss(np.zeros((2, 4, 4)), np.array([[1.0, 1.0]]), 0),
        ValueError,
        "downsample must be >= 1, got 0",
    ),
    "ciou-non-positive-predicted-side": (
        lambda t: ciou_wh_loss(np.array([[5.0, 5.0, 0.0, 2.0]]), np.array([[5.0, 5.0, 2.0, 2.0]])),
        ValueError,
        "predicted boxes must have positive area",
    ),
    "dice-size-mismatch": (
        lambda t: dice_loss(np.full(4, 0.5), np.ones(3)),
        ValueError,
        "prediction has 4 elements, target has 3",
    ),
    "focal-seg-shape-mismatch": (
        lambda t: focal_seg_loss(np.full((2, 2), 0.5), np.ones(4)),
        ValueError,
        r"prediction shape \(2, 2\) != target shape \(4,\)",
    ),
    # metrics
    "energy-trace-empty": (lambda t: EnergyTrace((), np.zeros(0), np.zeros(0), 1), ValueError, "energy trace is empty"),
    "energy-trace-tau-0": (
        lambda t: EnergyTrace(("s",), np.ones(1), np.zeros(1), 0),
        ValueError,
        "tau_evals must be >= 1, got 0",
    ),
    # rasters
    "netpbm-non-integer-field": (
        lambda t: read_image(_file(t, b"P6\n2 two\n255\n" + bytes(12)), 2),
        RasterError,
        "malformed netpbm header",
    ),
    "netpbm-maxval-not-255": (
        lambda t: read_image(_file(t, b"P6\n2 2\n65535\n" + bytes(24)), 2),
        RasterError,
        "only maxval 255 is supported, got 65535",
    ),
    "write-ppm-gray-array": (
        lambda t: write_ppm(t / "x.ppm", np.zeros((2, 2), np.uint8)),
        RasterError,
        r"write_ppm expects \(3, H, W\)",
    ),
    "write-radar-two-planes": (
        lambda t: write_radar_raw(t / "x.f32", np.zeros((2, 4, 4))),
        RasterError,
        r"raw radar must be \(3, H, W\)",
    ),
    "read-mask-of-a-p6": (
        lambda t: read_mask(_file(t, b"P6\n2 2\n255\n" + bytes(12))),
        RasterError,
        "expected a P5 gray image",
    ),
    "unscored-box-line-of-three-fields": (
        lambda t: read_boxes(_file(t, b"1 2 3\n"), with_scores=False),
        RasterError,
        r"b.txt:1: expected `cx cy w h`",
    ),
}


class TestBoundaryRaises:
    @pytest.mark.parametrize("case", list(BOUNDARY_RAISES))
    def test_refused_with_the_documented_error(self, tmp_path, case):
        call, error, message = BOUNDARY_RAISES[case]
        with pytest.raises(error, match=message):
            call(tmp_path)

    def test_manifest_without_entries_loads_an_empty_archive(self, tmp_path):
        path = tmp_path / "empty.nmvg"
        manifest = b"\n\n"
        path.write_bytes(b"NMVG" + struct.pack("<II", 1, len(manifest)) + manifest)
        archive = load_archive(path)
        assert len(archive) == 0 and dict(archive.entries) == {}


_HEAT = np.full((1, 4, 4), 0.1, np.float32)
_HEAT[0, 1, 1] = 0.9
_ZERO = np.zeros((2, 4, 4), np.float32)
_CFG32 = nmvg.RunConfig(input_size=32, text_len=3)
_MODEL32 = nmvg.Model.from_archive(_CFG32, nmvg.generate_archive(_CFG32))
_TOKENS32 = tokenize("the red buoy", nmvg.DEFAULT_VOCAB, 3)


def _msrep_var(v):
    p = rand_msrep(_rng(), 2)
    var = p.bn3.running_var.copy()
    var[0] = v
    bn3 = BNParams(p.bn3.gamma, p.bn3.beta, p.bn3.running_mean, var)
    return msrep_fuse(MsRepParams(p.conv3, bn3, p.conv1, p.bn1, p.bn_id))


VALUES = {"nan": math.nan, "inf": math.inf, "zero": 0, "negative": -1}
# id -> (value -> call, the error type for each of VALUES in order, or
# None where the value is accepted).
PROBES = {
    "BinaryMask": (lambda v: nmvg.BinaryMask(np.full((2, 2), v)), (ValueError, ValueError, None, ValueError)),
    "DetectionBox.cx": (lambda v: nmvg.DetectionBox(v, 1, 1, 1, 0.5), (ValueError, ValueError, None, None)),
    "DetectionBox.w": (lambda v: nmvg.DetectionBox(1, 1, v, 1, 0.5), (ValueError,) * 4),
    "DetectionBox.score": (lambda v: nmvg.DetectionBox(1, 1, 1, 1, v), (ValueError,) * 4),
    "EnergyTrace.trained": (
        lambda v: nmvg.EnergyTrace(("s",), np.array([v]), np.zeros(1), 1),
        (ValueError, ValueError, None, ValueError),
    ),
    "EnergyTrace.tau_evals": (lambda v: nmvg.EnergyTrace(("s",), np.ones(1), np.zeros(1), v), (ValueError,) * 4),
    "EvalResult.ap50": (lambda v: nmvg.EvalResult(v, 0.0, 0.0), (ValueError, ValueError, None, ValueError)),
    "EvalResult.ar50_95": (lambda v: nmvg.EvalResult(50.0, 0.0, v), (ValueError, ValueError, None, ValueError)),
    "LossConfig.gamma_res": (lambda v: nmvg.LossConfig(gamma_res=v), (ValueError, ValueError, None, ValueError)),
    "LossConfig.tau2": (lambda v: nmvg.LossConfig(tau2=v), (ValueError, ValueError, None, None)),
    "Model.forward": (
        lambda v: _MODEL32.forward(np.full((1, 3, 32, 32), v, np.float32), np.zeros((1, 3, 32, 32)), _TOKENS32),
        (ValueError, ValueError, None, None),
    ),
    "RunConfig.mask_thresh": (lambda v: nmvg.RunConfig(mask_thresh=v), (ValueError, ValueError, None, None)),
    "RunConfig.head_scale": (lambda v: nmvg.RunConfig(head_scale=v), (ValueError,) * 4),
    "UncertaintyWeights.log_sigma2": (lambda v: nmvg.UncertaintyWeights(0.0, v), (ValueError, ValueError, None, None)),
    "UncertaintyWeights.from_sigmas": (lambda v: nmvg.UncertaintyWeights.from_sigmas(1.0, v), (ValueError,) * 4),
    "WeightArchive": (
        lambda v: nmvg.WeightArchive(entries={"x": np.array([v])}),
        (nmvg.NonFiniteError, nmvg.NonFiniteError, None, None),
    ),
    "average_precision.gt_h": (
        lambda v: nmvg.average_precision([[nmvg.DetectionBox(1, 1, 1, 1, 0.5)]], [[(1, 1, 1, v)]]),
        (ValueError,) * 4,
    ),
    "box_iou.cy": (lambda v: nmvg.box_iou((0, 0, 1, 1), (0, v, 1, 1)), (ValueError, ValueError, None, None)),
    "decode_boxes.r": (lambda v: decode_boxes(_HEAT, _ZERO, _ZERO, r=v, k=3, score_thresh=0.5), (ValueError,) * 4),
    "decode_boxes.k": (lambda v: decode_boxes(_HEAT, _ZERO, _ZERO, r=4, k=v, score_thresh=0.5), (ValueError,) * 4),
    "decode_boxes.sizes": (
        lambda v: decode_boxes(_HEAT, np.full_like(_ZERO, v), _ZERO, r=4, k=3, score_thresh=0.5),
        (ValueError, ValueError, None, None),
    ),
    "decode_boxes.offsets": (
        lambda v: decode_boxes(_HEAT, _ZERO, np.full_like(_ZERO, v), r=4, k=3, score_thresh=0.5),
        (ValueError, ValueError, None, None),
    ),
    "mask_miou": (
        lambda v: nmvg.mask_miou([np.full((2, 2), v)], [np.zeros((2, 2))]),
        (ValueError, ValueError, None, ValueError),
    ),
    "mept.perf": (
        lambda v: nmvg.mept([v], nmvg.EnergyTrace(("s",), np.array([2.0]), np.array([1.0]), 1)),
        (ValueError, ValueError, None, None),
    ),
    "msrep_fuse.running_var": (_msrep_var, (ValueError, None, None, ValueError)),
    "total_loss.l_res": (lambda v: nmvg.total_loss(1.0, v), (ValueError, ValueError, None, None)),
}


class TestExportedCallablesProbe:
    @pytest.mark.parametrize("value", list(VALUES))
    @pytest.mark.parametrize("case", list(PROBES))
    def test_nan_inf_zero_and_negative(self, case, value):
        call, expected = PROBES[case]
        error = expected[list(VALUES).index(value)]
        if error is None:
            call(VALUES[value])
        else:
            with pytest.raises(error):
                call(VALUES[value])
