"""Top-down feature pyramid over the four fused stages."""

from __future__ import annotations

from dataclasses import dataclass

from .tensor import ConvParams, FeatureMap, ShapeError, _pyramid, _upsample2_add, conv2d


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
    maps = _pyramid(stages, "fpn")
    # Coarse to fine; each lateral conv output takes the coarser sum in place.
    tops = [conv2d(maps[3], p.lateral[3])]
    for i in (2, 1, 0):
        tops.append(_upsample2_add(conv2d(maps[i], p.lateral[i]), tops[-1], in_place=True))
    # Fine to coarse, each top-down map freed once its smooth conv has run.
    return [conv2d(tops.pop(), sp) for sp in p.smooth]
