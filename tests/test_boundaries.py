"""Input boundaries, one case per documented refusal.

``TestBoundaryRaises`` holds the refusals no other test reaches: each
case builds the smallest input that crosses one boundary and asserts the
documented error type and message.  ``TestExportedCallablesProbe`` hands
each number-taking callable of ``nmvg.__all__``, and each scalar argument
checked by ``tensor._as_real`` or ``tensor._as_int``, a NaN, an infinity,
a zero, a negative value, a numeric string and a bool, and pins whether
each is refused, with the documented type, or accepted.  An array
argument takes what numpy casts, so '1' and True reach it as 1.
"""

from __future__ import annotations

import dataclasses
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
from nmvg.losses import ciou_wh_loss, dice_loss, focal_seg_loss, gaussian_target, offset_loss
from nmvg.metrics import EnergyTrace
from nmvg.rasters import RasterError, read_boxes, read_image, read_mask, write_ppm, write_radar_raw
from nmvg.tensor import ShapeError, batchnorm_inference, conv2d, maxpool1d, upsample


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


def _msrep_bn(field: str, v):
    """msrep_fuse with entry 0 of bn3's ``field``, or its epsilon, set to v."""
    p = rand_msrep(_rng(), 2)
    if field == "epsilon":
        bn3 = dataclasses.replace(p.bn3, epsilon=v)
    else:
        vec = getattr(p.bn3, field).copy()
        vec[0] = v
        bn3 = dataclasses.replace(p.bn3, **{field: vec})
    return msrep_fuse(dataclasses.replace(p, bn3=bn3))


VALUES = {"nan": math.nan, "inf": math.inf, "zero": 0, "negative": -1, "string": "1", "bool": True}
_REFUSED = (ValueError,) * 6
#: A scalar real argument with no range of its own: only 0 and -1 pass.
_REAL = (ValueError, ValueError, None, None, ValueError, ValueError)
#: A non-negative real or integer scalar.
_NON_NEGATIVE = (ValueError, ValueError, None, ValueError, ValueError, ValueError)
#: A real array checked only for finiteness.
_FINITE_ARRAY = (ValueError, ValueError, None, None, None, None)
# id -> (value -> call, the error type for each of VALUES in order, or
# None where the value is accepted).
PROBES = {
    "BinaryMask": (lambda v: nmvg.BinaryMask(np.full((2, 2), v)), (ValueError, ValueError, None, ValueError, ValueError, None)),
    "DetectionBox.cx": (lambda v: nmvg.DetectionBox(v, 1, 1, 1, 0.5), _REAL),
    "DetectionBox.w": (lambda v: nmvg.DetectionBox(1, 1, v, 1, 0.5), _REFUSED),
    "DetectionBox.score": (lambda v: nmvg.DetectionBox(1, 1, 1, 1, v), _REFUSED),
    "EnergyTrace.trained": (
        lambda v: nmvg.EnergyTrace(("s",), np.array([v]), np.zeros(1), 1),
        (ValueError, ValueError, None, ValueError, None, None),
    ),
    "EnergyTrace.tau_evals": (lambda v: nmvg.EnergyTrace(("s",), np.ones(1), np.zeros(1), v), _REFUSED),
    "EvalResult.ap50": (lambda v: nmvg.EvalResult(v, 0.0, 0.0), _NON_NEGATIVE),
    "EvalResult.ar50_95": (lambda v: nmvg.EvalResult(50.0, 0.0, v), _NON_NEGATIVE),
    "Model.forward": (
        lambda v: _MODEL32.forward(np.full((1, 3, 32, 32), v, np.float32), np.zeros((1, 3, 32, 32)), _TOKENS32),
        _FINITE_ARRAY,
    ),
    "RunConfig.score_thresh": (lambda v: nmvg.RunConfig(score_thresh=v), _REAL),
    "RunConfig.mask_thresh": (lambda v: nmvg.RunConfig(mask_thresh=v), _REAL),
    "RunConfig.head_scale": (lambda v: nmvg.RunConfig(head_scale=v), _REFUSED),
    "UncertaintyWeights.log_sigma2": (lambda v: nmvg.UncertaintyWeights(0.0, v), _REAL),
    "UncertaintyWeights.from_sigmas": (lambda v: nmvg.UncertaintyWeights.from_sigmas(1.0, v), _REFUSED),
    "WeightArchive": (
        lambda v: nmvg.WeightArchive(entries={"x": np.array([v])}),
        (nmvg.NonFiniteError, nmvg.NonFiniteError, None, None, None, None),
    ),
    "average_precision.gt_h": (
        lambda v: nmvg.average_precision([[nmvg.DetectionBox(1, 1, 1, 1, 0.5)]], [[(1, 1, 1, v)]]),
        _REFUSED,
    ),
    "box_iou.cy": (lambda v: nmvg.box_iou((0, 0, 1, 1), (0, v, 1, 1)), _REAL),
    "decode_boxes.r": (lambda v: decode_boxes(_HEAT, _ZERO, _ZERO, r=v, k=3, score_thresh=0.5), _REFUSED),
    "decode_boxes.k": (lambda v: decode_boxes(_HEAT, _ZERO, _ZERO, r=4, k=v, score_thresh=0.5), _REFUSED),
    "decode_boxes.score_thresh": (lambda v: decode_boxes(_HEAT, _ZERO, _ZERO, r=4, k=3, score_thresh=v), _REAL),
    "decode_boxes.sizes": (
        lambda v: decode_boxes(_HEAT, np.full_like(_ZERO, v), _ZERO, r=4, k=3, score_thresh=0.5),
        _FINITE_ARRAY,
    ),
    "decode_boxes.offsets": (
        lambda v: decode_boxes(_HEAT, _ZERO, np.full_like(_ZERO, v), r=4, k=3, score_thresh=0.5),
        _FINITE_ARRAY,
    ),
    "generate_archive.seed": (lambda v: nmvg.generate_archive(_CFG32, v), _NON_NEGATIVE),
    "mask_miou": (
        lambda v: nmvg.mask_miou([np.full((2, 2), v)], [np.zeros((2, 2))]),
        (ValueError, ValueError, None, ValueError, ValueError, None),
    ),
    "mept.perf": (
        lambda v: nmvg.mept([v], nmvg.EnergyTrace(("s",), np.array([2.0]), np.array([1.0]), 1)),
        _FINITE_ARRAY,
    ),
    "msrep_fuse.gamma": (lambda v: _msrep_bn("gamma", v), _FINITE_ARRAY),
    "msrep_fuse.running_mean": (lambda v: _msrep_bn("running_mean", v), _FINITE_ARRAY),
    "msrep_fuse.running_var": (
        lambda v: _msrep_bn("running_var", v),
        (ValueError, ValueError, None, ValueError, None, None),
    ),
    "msrep_fuse.epsilon": (lambda v: _msrep_bn("epsilon", v), _NON_NEGATIVE),
    "total_loss.l_rec": (lambda v: nmvg.total_loss(v, 1.0), _REAL),
    "total_loss.l_res": (lambda v: nmvg.total_loss(1.0, v), _REAL),
    # scalar arguments outside nmvg.__all__
    "gaussian_target.centers": (lambda v: gaussian_target([(v, 1)], [(2, 2)], 4, 4), _NON_NEGATIVE),
    "gaussian_target.sizes": (lambda v: gaussian_target([(1, 1)], [(2, v)], 4, 4), _NON_NEGATIVE),
    "offset_loss.downsample": (lambda v: offset_loss(np.zeros((2, 4, 4)), np.array([[1.0, 1.0]]), v), _REFUSED),
    "upsample.factor": (
        lambda v: upsample(np.zeros((1, 1, 2, 2), np.float32), v),
        (ValueError, ValueError, ShapeError, ShapeError, ValueError, ValueError),
    ),
}


#: The name a scalar argument's NaN, inf, string or bool refusal gives.
NAMED = {
    "DetectionBox.cx": "cx",
    "DetectionBox.w": "w",
    "DetectionBox.score": "score",
    "EnergyTrace.tau_evals": "tau_evals",
    "EvalResult.ap50": "ap50",
    "EvalResult.ar50_95": "ar50_95",
    "RunConfig.score_thresh": "score_thresh",
    "RunConfig.mask_thresh": "mask_thresh",
    "RunConfig.head_scale": "head_scale",
    "UncertaintyWeights.log_sigma2": "log_sigma2",
    "UncertaintyWeights.from_sigmas": "sigma2",
    "average_precision.gt_h": "box h",
    "box_iou.cy": "box cy",
    "decode_boxes.r": "r",
    "decode_boxes.k": "k",
    "decode_boxes.score_thresh": "score_thresh",
    "generate_archive.seed": "seed",
    "msrep_fuse.epsilon": "epsilon",
    "total_loss.l_rec": "l_rec",
    "total_loss.l_res": "l_res",
    "gaussian_target.centers": "center col",
    "gaussian_target.sizes": "size height",
    "offset_loss.downsample": "downsample",
    "upsample.factor": "factor",
}


class TestExportedCallablesProbe:
    @pytest.mark.parametrize("value", list(VALUES))
    @pytest.mark.parametrize("case", list(PROBES))
    def test_nan_inf_zero_negative_string_and_bool(self, case, value):
        call, expected = PROBES[case]
        error = expected[list(VALUES).index(value)]
        if error is None:
            call(VALUES[value])
            return
        named = case in NAMED and value in ("nan", "inf", "string", "bool")
        with pytest.raises(error, match=rf"(^|\s){NAMED[case]} must" if named else None):
            call(VALUES[value])
