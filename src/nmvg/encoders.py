"""Stand-in backbones for the three input branches.

The fusion and head modules only care about the interface: four image and
radar stages at 1/4, 1/8, 1/16 and 1/32 of the input resolution with a
fixed channel count per stage, and a (embed_dim, L) text feature with
a fixed token budget.  The encoders here are deliberately small: separable
convolutions for the image branch, depthwise residual blocks for radar and
a plain embedding lookup for text.  They do not check their inputs:
``Model.forward`` does that once, before the first conv.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .tensor import (
    BNParams,
    ConvParams,
    FeatureMap,
    _as_int,
    _own,
    conv2d,
)


@dataclass(frozen=True, eq=False)
class TokenSequence:
    """Fixed-length token ids plus a mask flagging the padded tail."""

    ids: np.ndarray
    padding_mask: np.ndarray

    def __post_init__(self):
        ids = _own(self, "ids", 1, dtype=np.int64)
        _own(self, "padding_mask", 1, ids.shape, bool)
        if (ids < 0).any():
            raise ValueError("token ids must be non-negative")

    def __len__(self) -> int:
        return self.ids.shape[0]


def load_vocab(path: str | Path) -> list[str]:
    """Read a vocabulary file: one token per line, line index is the id."""
    tokens = Path(path).read_text(encoding="utf-8").splitlines()
    if not tokens:
        raise ValueError(f"vocabulary file {path} is empty")
    return tokens


def tokenize(text: str, vocab: Sequence[str], length: int = 50) -> TokenSequence:
    """Whitespace-split, lowercase, look up ids, pad or truncate to length.

    Id 0 is reserved for padding.  Words missing from the vocabulary are
    rejected rather than silently remapped, and so is a non-integer length or one below 1.
    """
    length = _as_int("length", length)
    if length < 1:
        raise ValueError(f"token length must be >= 1, got {length}")
    index = {tok: i for i, tok in enumerate(vocab)}
    ids = []
    for word in text.lower().split():
        if word not in index:
            raise ValueError(f"word {word!r} is not in the vocabulary")
        ids.append(index[word])
    ids = ids[:length]
    pad = length - len(ids)
    full = np.array(ids + [0] * pad, dtype=np.int64)
    mask = np.zeros(length, dtype=bool)
    if pad:
        mask[len(ids):] = True
    return TokenSequence(ids=full, padding_mask=mask)


@dataclass(frozen=True, eq=False)
class SeparableDown:
    """Depthwise stride-2 conv, pointwise projection, then BN (+ ReLU)."""

    dw: ConvParams
    pw: ConvParams
    bn: BNParams


def _separable_down(x: FeatureMap, block: SeparableDown) -> FeatureMap:
    return conv2d(conv2d(x, block.dw), block.pw, block.bn, "relu")


@dataclass(frozen=True, eq=False)
class ImageEncoderParams:
    stem: SeparableDown
    stages: tuple[SeparableDown, SeparableDown, SeparableDown, SeparableDown]


def image_encoder(rgb: FeatureMap, p: ImageEncoderParams) -> list[FeatureMap]:
    """Four separable downsampling stages at 1/4, 1/8, 1/16, 1/32 resolution."""
    x = _separable_down(rgb, p.stem)
    outs = []
    for stage in p.stages:
        x = _separable_down(x, stage)
        outs.append(x)
    return outs


@dataclass(frozen=True, eq=False)
class RadarStage:
    """Two depthwise 3x3 blocks with an identity residual, then a stride-2
    projection."""

    block1_dw: ConvParams
    block1_bn: BNParams
    block2_dw: ConvParams
    block2_bn: BNParams
    down: SeparableDown


@dataclass(frozen=True, eq=False)
class RadarEncoderParams:
    stem_dw: ConvParams
    stem_bn: BNParams
    stages: tuple[RadarStage, RadarStage, RadarStage, RadarStage]


def radar_encoder(radar: FeatureMap, p: RadarEncoderParams) -> list[FeatureMap]:
    """Mirror of image_encoder over the range/velocity/power planes."""
    x = conv2d(radar, p.stem_dw, p.stem_bn, "relu")
    outs = []
    for stage in p.stages:
        h = conv2d(x, stage.block1_dw, stage.block1_bn, "relu")
        h = conv2d(h, stage.block2_dw, stage.block2_bn, "relu")
        x = h + x
        x = _separable_down(x, stage.down)
        outs.append(x)
    return outs


@dataclass(frozen=True, eq=False)
class TextEncoderParams:
    """Embedding table of shape (vocab, embed_dim); row 0 is the pad vector."""

    embedding: np.ndarray

    def __post_init__(self):
        _own(self, "embedding", 2)


def text_encoder(tokens: TokenSequence, p: TextEncoderParams) -> np.ndarray:
    """Pure embedding lookup returning (embed_dim, L); padded slots emit row 0."""
    return np.ascontiguousarray(p.embedding[tokens.ids].T)
