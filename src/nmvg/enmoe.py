"""Edge and neighbourhood expert routing over one pyramid level.

Two parallel experts summarize the input: a high-frequency path (Sobel
magnitude followed by a 1x1 depthwise conv, BN and SiLU) and a local
context path (5x5 depthwise conv, BN, SiLU).  Each expert drives a dense
per-position channel gate, the two gated copies of a 1x1 projection of
the input are blended by two scalar mixing gates, and the input rides a
long residual:

  out = sigmoid(t1) * G_edge * base + sigmoid(t2) * G_local * base + x

With every gate logit at zero the blend collapses to x + 0.5 * base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    BNParams,
    ConvParams,
    FeatureMap,
    ShapeError,
    _as_f32,
    _sigmoid,
    conv2d,
    sobel,
)

#: Minimum spatial extent: the 5x5 context kernel must fit real content.
MIN_EXTENT = 5


@dataclass(frozen=True, eq=False)
class EnMoeParams:
    edge_conv: ConvParams
    edge_bn: BNParams
    nbr_conv: ConvParams
    nbr_bn: BNParams
    gate_high: ConvParams
    gate_low: ConvParams
    w_o: ConvParams
    theta1_raw: float = 0.0
    theta2_raw: float = 0.0

    def __post_init__(self) -> None:
        widths = {
            name: conv.kernel.shape[0]
            for name, conv in (
                ("edge_conv", self.edge_conv),
                ("nbr_conv", self.nbr_conv),
                ("gate_high", self.gate_high),
                ("gate_low", self.gate_low),
                ("w_o", self.w_o),
            )
        }
        if len(set(widths.values())) != 1:
            raise ShapeError(f"expert channel widths disagree: {widths}")


def enmoe_forward(f: FeatureMap, p: EnMoeParams) -> FeatureMap:
    f = _as_f32(f, 4, "enmoe input")
    if f.shape[2] < MIN_EXTENT or f.shape[3] < MIN_EXTENT:
        raise ShapeError(
            f"spatial dims {f.shape[2:]} are below the {MIN_EXTENT}x{MIN_EXTENT} minimum"
        )
    # Each 1x1 conv writes over the map it reads, which nothing reads later,
    # and base is blended into gate_edge one tile at a time, so neither base
    # nor a second gate-sized map is ever made.
    gate_edge = sobel(f)
    conv2d(gate_edge, p.edge_conv, p.edge_bn, "silu", out=gate_edge)
    conv2d(gate_edge, p.gate_high, act="sigmoid", out=gate_edge)
    gate_local = conv2d(f, p.nbr_conv, p.nbr_bn, "silu")
    conv2d(gate_local, p.gate_low, act="sigmoid", out=gate_local)
    t1 = np.float32(_sigmoid(np.array(p.theta1_raw, dtype=np.float64)))
    t2 = np.float32(_sigmoid(np.array(p.theta2_raw, dtype=np.float64)))

    def blend(base, cs, rs):
        edge, local = gate_edge[:, cs, rs], gate_local[:, cs, rs]
        edge *= t1
        edge *= base
        local *= t2
        local *= base
        edge += local
        edge += f[:, cs, rs]

    conv2d(f, p.w_o, hook=blend)
    return gate_edge
