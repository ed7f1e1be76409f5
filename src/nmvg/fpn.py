"""Top-down feature pyramid over the four fused stages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ConvParams, FeatureMap, ShapeError, conv2d, upsample


@dataclass(frozen=True, eq=False)
class FpnParams:
    """Four 1x1 laterals and four 3x3 smoothing convs, one pair per level."""

    lateral: tuple[ConvParams, ConvParams, ConvParams, ConvParams]
    smooth: tuple[ConvParams, ConvParams, ConvParams, ConvParams]

    def __post_init__(self):
        if len(self.lateral) != 4 or len(self.smooth) != 4:
            raise ShapeError("fpn needs exactly four lateral and four smoothing convs")
        widths = {p.out_channels for p in self.lateral} | {p.out_channels for p in self.smooth}
        if len(widths) != 1:
            raise ShapeError(f"all fpn convs must agree on output channels, got {sorted(widths)}")


def fpn_forward(stages: list[FeatureMap], p: FpnParams) -> list[FeatureMap]:
    """Merge coarse levels down into fine ones and smooth each output.

    Input is [c2, c3, c4, c5] fine-to-coarse with strictly halving spatial
    dims; output is [s2, s3, s4, s5] at the shared channel width.
    """
    if len(stages) != 4:
        raise ShapeError(f"fpn expects four stages, got {len(stages)}")
    maps = [np.asarray(s, dtype=np.float32) for s in stages]
    for a, b in zip(maps, maps[1:]):
        if a.shape[2] != 2 * b.shape[2] or a.shape[3] != 2 * b.shape[3]:
            raise ShapeError(
                f"stage dims must halve level to level, got {a.shape[2:]} then {b.shape[2:]}"
            )
    merged = conv2d(maps[3], p.lateral[3])
    tops = [merged]
    for i in (2, 1, 0):
        merged = conv2d(maps[i], p.lateral[i]) + upsample(merged, 2, "nearest")
        tops.append(merged)
    tops.reverse()
    return [conv2d(t, p.smooth[i]) for i, t in enumerate(tops)]
