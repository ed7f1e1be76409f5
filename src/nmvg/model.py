"""Run configuration, weight generation and the end-to-end pipeline.

A Model binds every named tensor of a weight archive into the typed
parameter bundles of the individual modules and exposes a pure forward
pass: encoders -> per-stage triplet fusion -> pyramid -> expert routing
-> detection and segmentation heads.  Weight archives are generated
deterministically: each tensor gets its own generator seeded from the
global seed plus the tensor name, so any single tensor is reproducible
in isolation.
"""

from __future__ import annotations

import math
import os
import re
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .archive import ArchiveError, WeightArchive
from .encoders import (
    ImageEncoderParams,
    RadarEncoderParams,
    RadarStage,
    SeparableDown,
    TextEncoderParams,
    TokenSequence,
    image_encoder,
    load_vocab,
    radar_encoder,
    text_encoder,
    tokenize,
)
from .enmoe import MIN_EXTENT, EnMoeParams, enmoe_forward
from .fpn import FpnParams, fpn_forward
from .fusion import (
    DeformParams,
    EcaParams,
    TmdfParams,
    sinusoidal_encoding,
    tmdf_fuse,
)
from .heads import (
    BinaryMask,
    BranchParams,
    DetectionBox,
    MsRepParams,
    RecHeadParams,
    ResHeadParams,
    decode_boxes,
    msrep_fuse,
    rec_head_forward,
    res_head_forward,
)
from .rasters import read_image, read_radar, write_boxes, write_mask, write_radar_raw, write_ppm
from .tensor import BNParams, ConvParams, ShapeError, _as_int, _as_real

DEFAULT_VOCAB = (
    "<pad>",
    "the", "a", "on", "near", "left", "right", "red", "green", "white",
    "small", "large", "fast", "slow", "moving", "still", "vessel", "boat",
    "ship", "buoy", "dock", "bridge", "water", "channel", "port", "starboard",
)


# A settings comment: `#` at the start of a line or after whitespace.
_COMMENT = re.compile(r"(?:^|\s)#")


_BOOLS = {"true": True, "1": True, "false": False, "0": False}

#: Settings whose file value is not a plain integer.  A boolean word not in
#: _BOOLS stays a string, which RunConfig refuses.
_PARSERS = {
    "attention_normalize": lambda val: _BOOLS.get(val.lower(), val),
    "score_thresh": float,
    "mask_thresh": float,
    "vocab_path": str,
}


@dataclass(frozen=True)
class RunConfig:
    input_size: int = 640
    text_len: int = 50
    attention_normalize: bool = False
    head_scale: int = 2
    topk: int = 10
    score_thresh: float = 0.6
    mask_thresh: float = 0.0
    seed: int = 0
    vocab_path: str | None = None

    def __post_init__(self):
        """The one check of every field, set in code or a file; each is stored as its annotated type."""
        for name in ("input_size", "text_len", "head_scale", "topk", "seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if not isinstance(self.attention_normalize, (bool, np.bool_)):
            raise ValueError(f"attention_normalize must be a bool, got {self.attention_normalize!r}")
        object.__setattr__(self, "attention_normalize", bool(self.attention_normalize))
        for name in ("score_thresh", "mask_thresh"):
            object.__setattr__(self, name, _as_real(name, getattr(self, name)))
        path = os.fspath(self.vocab_path) if isinstance(self.vocab_path, os.PathLike) else self.vocab_path
        if not isinstance(path, (str, type(None))):
            raise ValueError(f"vocab_path must be None, a str or a path-like, got {self.vocab_path!r}")
        object.__setattr__(self, "vocab_path", path)
        if self.input_size < 32 or self.input_size % 32:
            raise ValueError(f"input_size must be a positive multiple of 32, got {self.input_size}")
        # text_len covers at least one k3/s2 text pooling window
        for name, low in (("text_len", 3), ("topk", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.head_scale not in (2, 3, 4, 5):
            raise ValueError(f"head_scale must be one of 2..5, got {self.head_scale}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @cached_property
    def vocab(self) -> tuple[str, ...]:
        """The token list, read once: DEFAULT_VOCAB or the vocab_path file.
        Its length is the row count of the token table."""
        return tuple(load_vocab(self.vocab_path)) if self.vocab_path else DEFAULT_VOCAB

    def stage_size(self, i: int) -> int:
        return self.input_size // (4 * (1 << i))

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Read a settings file of `key = value` lines; a key left out keeps
        its default.

        `#` starts a comment at the start of a line or after whitespace, so a
        value may hold one (`/tmp/a#b`); blank lines are skipped. Each value
        is parsed for its field and checked alone. A line without `=`, an
        unknown key, or a value that does not parse or is out of range
        raises ValueError naming `path:line`.
        """
        values = {}
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = _COMMENT.split(raw, 1)[0].strip()
            if not line:
                continue
            key, eq, val = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
            try:
                values[key] = _PARSERS.get(key, int)(val)
                cls(**{key: values[key]})
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
        return cls(**values)


# ---------------------------------------------------------------------------
# binding: the one place that names every tensor
# ---------------------------------------------------------------------------


class _Binder:
    """Hands out archive tensors by name and records each (name, shape).

    Without an archive it hands out zeros of the requested shape, so a dry
    bind yields the manifest: every name and shape in binding order.
    """

    def __init__(self, archive: WeightArchive | None = None):
        self.archive = archive
        self.shapes: dict[str, tuple[int, ...]] = {}

    def arr(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        shape = tuple(shape)
        self.shapes[name] = shape
        if self.archive is None:
            return np.zeros(shape, dtype=np.float32)
        a = self.archive.get(name)
        if a.shape != shape:
            raise ArchiveError(f"entry {name!r} has shape {a.shape}, the model expects {shape}")
        return a

    def conv(self, prefix, shape, *, stride=1, padding=0, groups=1, bias=False) -> ConvParams:
        return ConvParams(
            kernel=self.arr(f"{prefix}.kernel", shape),
            bias=self.arr(f"{prefix}.bias", (shape[0],)) if bias else None,
            stride=stride,
            padding=padding,
            groups=groups,
        )

    def bn(self, prefix, c: int) -> BNParams:
        return BNParams(
            gamma=self.arr(f"{prefix}.gamma", (c,)),
            beta=self.arr(f"{prefix}.beta", (c,)),
            running_mean=self.arr(f"{prefix}.mean", (c,)),
            running_var=self.arr(f"{prefix}.var", (c,)),
        )

    def scalar(self, name: str) -> float:
        return float(self.arr(name, (1,))[0])


_MSREP_PREFIXES = ("res.msrep5", "res.msrep4", "res.msrep3")
#: Present exactly when an archive holds the folded segmentation blocks.
_FUSED_KEY = f"{_MSREP_PREFIXES[0]}.fused.kernel"


def _msrep(b: _Binder, p: str, f: int, fused: bool) -> MsRepParams | ConvParams:
    """One segmentation block of width f at prefix p: the folded conv, or the
    trainable branches."""
    if fused:
        return b.conv(f"{p}.fused", (f, 1, 3, 3), padding=1, groups=f, bias=True)
    return MsRepParams(
        conv3=b.conv(f"{p}.conv3", (f, 1, 3, 3), padding=1, groups=f),
        bn3=b.bn(f"{p}.bn3", f),
        conv1=b.conv(f"{p}.conv1", (f, 1, 1, 1), groups=f),
        bn1=b.bn(f"{p}.bn1", f),
        bn_id=b.bn(f"{p}.bnid", f),
    )


#: The model's fixed widths: the four encoder stages, the pyramid levels
#: and the text embedding. An archive of other widths fails to bind.
STAGE_CHANNELS = (16, 32, 64, 96)
FPN_CHANNELS = 64
EMBED_DIM = 64


def _bind(cfg: RunConfig, b: _Binder, fused: bool) -> dict:
    """Every parameter bundle of the model, keyed by its Model field.

    Arguments evaluate left to right, so the order below is the binding
    order, which is also the byte order of generated archives.
    """
    ch, f, e = STAGE_CHANNELS, FPN_CHANNELS, EMBED_DIM

    def sep(prefix, cin, cout) -> SeparableDown:
        return SeparableDown(
            dw=b.conv(f"{prefix}.dw", (cin, 1, 3, 3), stride=2, padding=1, groups=cin),
            pw=b.conv(f"{prefix}.pw", (cout, cin, 1, 1)),
            bn=b.bn(f"{prefix}.bn", cout),
        )

    def radar_stage(i) -> RadarStage:
        cin = 3 if i == 0 else ch[i - 1]
        p = f"radar_enc.stage{i}"
        return RadarStage(
            block1_dw=b.conv(f"{p}.block1.dw", (cin, 1, 3, 3), padding=1, groups=cin),
            block1_bn=b.bn(f"{p}.block1.bn", cin),
            block2_dw=b.conv(f"{p}.block2.dw", (cin, 1, 3, 3), padding=1, groups=cin),
            block2_bn=b.bn(f"{p}.block2.bn", cin),
            down=sep(f"{p}.down", cin, ch[i]),
        )

    def tmdf(i) -> TmdfParams:
        c = ch[i]
        side = cfg.stage_size(i)
        p = f"tmdf.stage{i}"
        return TmdfParams(
            w_img=b.conv(f"{p}.w_img", (c, 1, 1, 1), groups=c),
            w_radar=b.conv(f"{p}.w_radar", (c, 1, 1, 1), groups=c),
            eca=EcaParams(weights=b.arr(f"{p}.eca.weights", (3,))),
            deform=DeformParams(
                offset_conv=b.conv(f"{p}.deform.offset", (18, c, 3, 3), padding=1, bias=True),
                main=b.conv(f"{p}.deform.main", (c, c, 3, 3), padding=1, bias=True),
            ),
            lpe=b.arr(f"{p}.lpe", (1, c, side, side)),
            w_text=b.arr(f"{p}.w_text.weight", (c, c)),
            w_text_bias=b.arr(f"{p}.w_text.bias", (c,)),
            ape=sinusoidal_encoding(c, cfg.text_len),
        )

    def fpn() -> FpnParams:
        # lateral{l} and smooth{l} bind together, level by level
        pairs = [
            (
                b.conv(f"fpn.lateral{level}", (f, ch[level - 2], 1, 1), bias=True),
                b.conv(f"fpn.smooth{level}", (f, f, 3, 3), padding=1, bias=True),
            )
            for level in (2, 3, 4, 5)
        ]
        lateral, smooth = zip(*pairs)
        return FpnParams(lateral=lateral, smooth=smooth)

    def enmoe(p) -> EnMoeParams:
        return EnMoeParams(
            edge_conv=b.conv(f"{p}.edge", (f, 1, 1, 1), groups=f),
            edge_bn=b.bn(f"{p}.edge_bn", f),
            nbr_conv=b.conv(f"{p}.nbr", (f, 1, 5, 5), padding=2, groups=f),
            nbr_bn=b.bn(f"{p}.nbr_bn", f),
            gate_high=b.conv(f"{p}.gate_h", (f, f, 1, 1), bias=True),
            gate_low=b.conv(f"{p}.gate_l", (f, f, 1, 1), bias=True),
            w_o=b.conv(f"{p}.w_o", (f, f, 1, 1), bias=True),
            theta1_raw=b.scalar(f"{p}.theta1_raw"),
            theta2_raw=b.scalar(f"{p}.theta2_raw"),
        )

    def branch(p, out) -> BranchParams:
        return BranchParams(
            dw=b.conv(f"{p}.dw", (f, 1, 3, 3), padding=1, groups=f),
            dw_bn=b.bn(f"{p}.dw_bn", f),
            pw=b.conv(f"{p}.pw", (f, f, 1, 1)),
            pw_bn=b.bn(f"{p}.pw_bn", f),
            proj=b.conv(f"{p}.proj", (out, f, 1, 1), bias=True),
        )

    return dict(
        image_p=ImageEncoderParams(
            stem=sep("img_enc.stem", 3, ch[0]),
            stages=tuple(sep(f"img_enc.stage{i}", ch[max(i - 1, 0)], ch[i]) for i in range(4)),
        ),
        radar_p=RadarEncoderParams(
            stem_dw=b.conv("radar_enc.stem.dw", (3, 1, 3, 3), stride=2, padding=1, groups=3),
            stem_bn=b.bn("radar_enc.stem.bn", 3),
            stages=tuple(radar_stage(i) for i in range(4)),
        ),
        text_p=TextEncoderParams(embedding=b.arr("text_enc.embedding", (len(cfg.vocab), e))),
        adapters=tuple(
            (b.arr(f"text_adapt.stage{i}.weight", (ch[i], e)), b.arr(f"text_adapt.stage{i}.bias", (ch[i],)))
            for i in range(4)
        ),
        tmdf_p=tuple(tmdf(i) for i in range(4)),
        fpn_p=fpn(),
        enmoe_p=tuple(enmoe(f"enmoe.stage{i}") for i in range(4)),
        rec_p=RecHeadParams(
            conf=branch("rec.conf", 1),
            wh=branch("rec.wh", 2),
            offset=branch("rec.offset", 2),
        ),
        res_p=ResHeadParams(
            entry=b.conv("res.entry", (f, 1, 1, 1), groups=f),
            blocks=tuple(_msrep(b, p, f, fused) for p in _MSREP_PREFIXES),
            proj=b.conv("res.proj", (1, f, 1, 1), bias=True),
        ),
    )


# ---------------------------------------------------------------------------
# parameter manifest and deterministic generation
# ---------------------------------------------------------------------------


def parameter_shapes(cfg: RunConfig) -> dict[str, tuple[int, ...]]:
    """Every named tensor of the trainable-form model, in binding order."""
    b = _Binder()
    _bind(cfg, b, fused=False)
    return b.shapes


def _init_tensor(name: str, shape: tuple[int, ...], seed: int) -> np.ndarray:
    rng = np.random.default_rng((seed, zlib.crc32(name.encode())))
    leaf = name.rsplit(".", 1)[-1]
    if leaf in ("lpe", "bias") or "deform.offset" in name or leaf.startswith("theta"):
        return np.zeros(shape, dtype=np.float32)
    if leaf == "gamma":
        return rng.uniform(0.8, 1.2, size=shape).astype(np.float32)
    if leaf == "beta" or leaf == "mean":
        return (0.05 * rng.standard_normal(shape)).astype(np.float32)
    if leaf == "var":
        return rng.uniform(0.5, 1.5, size=shape).astype(np.float32)
    if leaf in ("weights", "embedding"):  # eca, text table
        return (0.5 * rng.standard_normal(shape)).astype(np.float32)
    fan_in = math.prod(shape[1:])  # every tensor left is a 4-D kernel or a 2-D weight
    std = float(np.sqrt(2.0 / fan_in))
    return (std * rng.standard_normal(shape)).astype(np.float32)


def generate_archive(cfg: RunConfig, seed: int | None = None) -> WeightArchive:
    """Deterministic random weights for every tensor of the model, at ``seed`` or ``cfg.seed``."""
    seed = cfg.seed if seed is None else _as_int("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    entries = {
        name: _init_tensor(name, shape, seed)
        for name, shape in parameter_shapes(cfg).items()
    }
    return WeightArchive(entries=entries)


class NonFiniteOutputError(ValueError):
    """A forward output holds NaN or inf: the inputs drove the model out of
    float32 range, so no boxes or mask made from it would mean anything."""


@dataclass(frozen=True, eq=False)
class ModelOutputs:
    heatmap: np.ndarray
    sizes: np.ndarray
    offsets: np.ndarray
    mask_logits: np.ndarray
    masks: list[BinaryMask]
    downsample_ratio: int


@dataclass(frozen=True, eq=False)
class Model:
    """Bound, ready-to-run pipeline for one run configuration."""

    cfg: RunConfig
    image_p: ImageEncoderParams
    radar_p: RadarEncoderParams
    text_p: TextEncoderParams
    adapters: tuple[tuple[np.ndarray, np.ndarray], ...]
    tmdf_p: tuple[TmdfParams, ...]
    fpn_p: FpnParams
    enmoe_p: tuple[EnMoeParams, ...]
    rec_p: RecHeadParams
    res_p: ResHeadParams

    @classmethod
    def from_archive(cls, cfg: RunConfig, archive: WeightArchive) -> "Model":
        """Bind the archive; the segmentation blocks bind in the form it holds."""
        return cls(cfg, **_bind(cfg, _Binder(archive), _FUSED_KEY in archive))

    def _check_inputs(self, image, radar, tokens: TokenSequence) -> tuple[np.ndarray, np.ndarray]:
        """The one check of the forward's inputs: image and radar are finite
        float32 (N, 3, S, S) at the input size with one batch N >= 1, and
        tokens are text_len rows of the embedding table."""
        side = (self.cfg.input_size,) * 2
        image, radar = (np.asarray(x, dtype=np.float32) for x in (image, radar))
        for what, x in (("image", image), ("radar", radar)):
            if x.ndim != 4 or x.shape[1] != 3:
                raise ShapeError(f"{what} input must be (N, 3, H, W), got shape {x.shape}")
            if x.shape[2:] != side:
                raise ShapeError(f"{what} input extent {x.shape[2:]} is not the model's input size {side}")
            if len(x) != len(image) or not len(x):
                raise ShapeError(f"{what} input batch {len(x)} is empty or not the image's {len(image)}")
            if not np.isfinite(x).all():
                raise ValueError(f"{what} input contains non-finite values")
        ids, rows = tokens.ids, self.text_p.embedding.shape[0]
        if len(ids) != self.cfg.text_len:
            raise ShapeError(f"tokens hold {len(ids)} ids, the model expects text_len {self.cfg.text_len}")
        if ids.max() >= rows:
            raise ValueError(f"token id {ids.max()} is outside the embedding table ({rows} rows)")
        return image, radar

    def forward(self, image, radar, tokens: TokenSequence) -> ModelOutputs:
        """Check the inputs before any layer runs, run the pipeline, and raise
        NonFiniteOutputError naming the first output that holds NaN or inf."""
        cfg = self.cfg
        image, radar = self._check_inputs(image, radar, tokens)
        img_stages = image_encoder(image, self.image_p)
        rad_stages = radar_encoder(radar, self.radar_p)
        text = text_encoder(tokens, self.text_p)  # (E, L)
        # Each map is dropped after its last reader, so only live maps are held.
        fused_stages = []
        for i in range(4):
            weight, bias = self.adapters[i]
            stage_text = (
                weight.astype(np.float64) @ text.astype(np.float64)
                + bias.astype(np.float64)[:, None]
            ).astype(np.float32)
            fused_stages.append(
                tmdf_fuse(
                    img_stages[i],
                    rad_stages[i],
                    stage_text,
                    self.tmdf_p[i],
                    normalize=cfg.attention_normalize,
                )
            )
            img_stages[i] = rad_stages[i] = None
        pyramid = fpn_forward(fused_stages, self.fpn_p)
        del fused_stages
        # ENMoE routes each level in place in the list, freeing the level it replaces.
        for i in range(4):
            if min(pyramid[i].shape[2:]) >= MIN_EXTENT:
                pyramid[i] = enmoe_forward(pyramid[i], self.enmoe_p[i])
        heat, sizes, offsets = rec_head_forward(pyramid[cfg.head_scale - 2], self.rec_p)
        logits, masks = res_head_forward(pyramid, self.res_p, cfg.input_size, cfg.mask_thresh)
        for name, a in (("heatmap", heat), ("sizes", sizes), ("offsets", offsets), ("mask_logits", logits)):
            if not np.isfinite(a).all():
                raise NonFiniteOutputError(f"forward output {name} holds non-finite values")
        ratio = cfg.input_size // heat.shape[3]
        return ModelOutputs(
            heatmap=heat,
            sizes=sizes,
            offsets=offsets,
            mask_logits=logits,
            masks=masks,
            downsample_ratio=ratio,
        )


# ---------------------------------------------------------------------------
# archive-level reparameterization
# ---------------------------------------------------------------------------


def fuse_archive(archive: WeightArchive) -> WeightArchive:
    """Fold every msrep block of an archive; branch keys are dropped."""
    if _FUSED_KEY in archive:
        raise ArchiveError("archive is already fused")
    b = _Binder(archive)
    folded = {}
    for p in _MSREP_PREFIXES:
        # The fold has no run configuration: the 3x3 branch gives the width.
        f = archive.get(f"{p}.conv3.kernel").shape[0]
        conv = msrep_fuse(_msrep(b, p, f, fused=False))
        # the folded names come from the helper that from_archive binds them with
        names = _Binder()
        _msrep(names, p, f, fused=True)
        folded.update(zip(names.shapes, (conv.kernel, conv.bias)))
    return archive._replace_entries(b.shapes, folded)


# ---------------------------------------------------------------------------
# one-shot inference
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InferResult:
    boxes: list[DetectionBox]
    mask: BinaryMask
    boxes_path: Path
    mask_path: Path


def run_infer(
    cfg: RunConfig,
    archive: WeightArchive,
    image_path: str | Path,
    radar_path: str | Path,
    prompt_path: str | Path,
    out_dir: str | Path,
) -> InferResult:
    """Load inputs, run the pipeline once and write boxes + mask files. An
    archive without one token table row per word of cfg.vocab fails to bind."""
    model = Model.from_archive(cfg, archive)
    image = read_image(image_path, cfg.input_size)[None]
    radar = read_radar(radar_path, cfg.input_size)[None]
    prompt = Path(prompt_path).read_text(encoding="utf-8")
    tokens = tokenize(prompt, cfg.vocab, cfg.text_len)
    out = model.forward(image, radar, tokens)
    boxes = decode_boxes(
        out.heatmap[0],
        out.sizes[0],
        out.offsets[0],
        r=out.downsample_ratio,
        k=cfg.topk,
        score_thresh=cfg.score_thresh,
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    boxes_path = out_dir / "boxes.txt"
    mask_path = out_dir / "mask.pgm"
    write_boxes(boxes_path, boxes)
    write_mask(mask_path, out.masks[0])
    return InferResult(boxes=boxes, mask=out.masks[0], boxes_path=boxes_path, mask_path=mask_path)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def generate_fixtures(out_dir: str | Path, cfg: RunConfig) -> dict[str, Path]:
    """Write a self-consistent demo set: weights, inputs, vocab and a trace."""
    from .archive import save_archive  # local import keeps module load light

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng((cfg.seed, 0xF1C))
    side = cfg.input_size

    paths = {}
    paths["vocab"] = out / "vocab.txt"
    paths["vocab"].write_text("\n".join(cfg.vocab) + "\n", encoding="utf-8")

    archive = generate_archive(cfg)
    paths["weights"] = out / "weights.nmvg"
    save_archive(archive, paths["weights"])

    paths["image"] = out / "image.ppm"
    write_ppm(paths["image"], rng.integers(0, 256, size=(3, side, side)).astype(np.uint8))

    paths["radar"] = out / "radar.f32"
    write_radar_raw(paths["radar"], rng.standard_normal((3, side, side)).astype(np.float32))

    paths["prompt"] = out / "prompt.txt"
    paths["prompt"].write_text("the fast red vessel near the buoy\n", encoding="utf-8")

    # Every setting, each in the form RunConfig.from_file reads back to the
    # same value; the archive's token table has one row per word of vocab.txt.
    settings = {name: getattr(cfg, name) for name in cfg.__dataclass_fields__}
    settings["vocab_path"] = paths["vocab"].resolve()
    paths["config"] = out / "run.cfg"
    paths["config"].write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")

    # A demo energy trace: ten samples, relative power 28 at tau = 10.
    paths["trace"] = out / "trace.csv"
    rows = ["sample_id,energy_trained,energy_untrained"]
    rows += [f"s{i},50.0,22.0" for i in range(10)]
    paths["trace"].write_text("\n".join(rows) + "\n", encoding="utf-8")

    # Demo annotations usable on both sides of an evaluation.
    boxes = [
        DetectionBox(cx=side * 0.3, cy=side * 0.4, w=side * 0.2, h=side * 0.15, score=0.9),
        DetectionBox(cx=side * 0.7, cy=side * 0.6, w=side * 0.25, h=side * 0.2, score=0.8),
    ]
    paths["boxes"] = out / "boxes.txt"
    write_boxes(paths["boxes"], boxes)
    bitmap = np.zeros((side, side), dtype=np.uint8)
    bitmap[side // 4 : side // 2, side // 4 : side // 2] = 1
    paths["mask"] = out / "mask.pgm"
    write_mask(paths["mask"], BinaryMask(bitmap=bitmap))
    return paths
