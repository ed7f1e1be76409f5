"""The three benchmark workloads: weights, inputs, requests and output checks.

Each workload binds one fixed archive (built from ``generate_archive`` with
the zero-initialised entries overwritten by seeded non-zero values, so the
deformable sampling lands between pixels the way trained weights make it)
and feeds the program inputs drawn from ``(seed, stream, request index)``.
Stream 0 holds the timed requests and stream 1 the fixed check request
whose outputs are recorded under ``bench/reference``.

A request returns an *outcome*: a dict of the arrays and products it made
(``heatmap``, ``sizes``, ``offsets``, ``mask_logits``, ``boxes``,
``masks``, ``scores``).  Two outcomes of the same inputs must agree
bitwise on every key they share.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nmvg.archive import WeightArchive, load_archive, save_archive
from nmvg.encoders import tokenize
from nmvg.heads import decode_boxes
from nmvg.metrics import average_precision, mask_miou
from nmvg.model import DEFAULT_VOCAB, Model, RunConfig, fuse_archive, generate_archive, run_infer

import trace_layers as tl

WEIGHT_SEED = 2408
CHECK_SEED = 17
TIMED_STREAM, CHECK_STREAM = 0, 1
# Decoding keeps peaks at or above this score; low enough that every
# request decodes boxes with the benchmark weights.
SCORE_THRESH = 0.3
# A deviation from the recorded reference passes when
# |out - ref| <= REF_ATOL + REF_RTOL * |ref| holds everywhere.
REF_ATOL = 1e-4
REF_RTOL = 1e-4
ARRAY_KEYS = ("heatmap", "sizes", "offsets", "mask_logits")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
_WORDS = DEFAULT_VOCAB[1:]


class CheckFailure(Exception):
    """An output check of the benchmark failed."""


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def benchmark_archive(cfg: RunConfig, seed: int = WEIGHT_SEED) -> WeightArchive:
    """``generate_archive`` with its zero-initialised entries made non-zero.

    The deform offset predictors, ``lpe``, every bias and the ``theta``
    mixing logits start at zero there, which puts every deformable sample
    on an integer pixel.  Each is redrawn from its own seeded generator.
    """
    entries = dict(generate_archive(cfg, seed).entries)
    for name, arr in entries.items():
        leaf = name.rsplit(".", 1)[-1]
        rng = np.random.default_rng((seed, zlib.crc32(name.encode()), 1))
        if "deform.offset" in name:
            std = 0.03 if leaf == "kernel" else 0.5
        elif leaf == "lpe" or leaf == "bias":
            std = 0.1
        elif leaf.startswith("theta"):
            std = 1.0
        else:
            continue
        entries[name] = (std * rng.standard_normal(arr.shape)).astype(np.float32)
    return WeightArchive(entries=entries)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream, index))


def _prompt(rng: np.random.Generator) -> str:
    n = int(rng.integers(3, 9))
    return " ".join(_WORDS[int(i)] for i in rng.integers(0, len(_WORDS), size=n))


def _frame_arrays(rng, batch: int, size: int):
    """Camera as 8-bit levels scaled to [0, 1]; radar as float32 planes."""
    image = rng.integers(0, 256, size=(batch, 3, size, size)).astype(np.float32) / np.float32(255)
    radar = rng.standard_normal((batch, 3, size, size)).astype(np.float32)
    return image, radar


def _write_netpbm(path: Path, planes: np.ndarray) -> None:
    c, h, w = planes.shape
    magic = "P6" if c == 3 else "P5"
    body = planes.transpose(1, 2, 0).tobytes() if c == 3 else planes[0].tobytes()
    path.write_bytes(f"{magic}\n{w} {h}\n255\n".encode() + body)


def _read_boxes_text(path: Path) -> list[tuple[float, ...]]:
    return [tuple(float(v) for v in line.split()) for line in path.read_text().splitlines() if line]


def _read_p5(path: Path) -> np.ndarray:
    data = path.read_bytes()
    head = data.split(b"\n", 3)
    if head[0] != b"P5" or head[2] != b"255":
        raise CheckFailure(f"{path.name}: not an 8-bit P5 file")
    w, h = (int(v) for v in head[1].split())
    return np.frombuffer(head[3], dtype=np.uint8).reshape(h, w)


# ---------------------------------------------------------------------------
# outcome helpers
# ---------------------------------------------------------------------------


def _box_tuples(boxes) -> tuple[tuple[float, ...], ...]:
    return tuple((b.cx, b.cy, b.w, b.h, b.score) for b in boxes)


def _decode_all(cfg: RunConfig, heat, sizes, offsets, ratio, tr=tl.UNTRACED):
    return [
        tr.call(
            "heads.decode_boxes", decode_boxes, heat[i], sizes[i], offsets[i],
            r=ratio, k=cfg.topk, score_thresh=cfg.score_thresh,
        )
        for i in range(heat.shape[0])
    ]


def outcome_from_forward(fwd, boxes) -> dict:
    heat, sizes, offsets, logits, masks = fwd
    return {
        "heatmap": heat,
        "sizes": sizes,
        "offsets": offsets,
        "mask_logits": logits,
        "masks": tuple(m.bitmap for m in masks),
        "boxes": tuple(_box_tuples(b) for b in boxes),
    }


def _model_forward(model: Model, image, radar, tokens):
    out = model.forward(image, radar, tokens)
    return (out.heatmap, out.sizes, out.offsets, out.mask_logits, out.masks), out.downsample_ratio


def digest(outcome: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(outcome):
        h.update(key.encode())
        h.update(repr(_canonical(outcome[key])).encode())
    return h.hexdigest()


def _canonical(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, hashlib.sha256(value.tobytes()).hexdigest())
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(v) for v in value)
    return value


def require_equal(a: dict, b: dict, what: str) -> None:
    """Bitwise equality on every key the two outcomes share."""
    shared = sorted(set(a) & set(b))
    if not shared:
        raise CheckFailure(f"{what}: the outcomes share no key")
    for key in shared:
        if _canonical(a[key]) != _canonical(b[key]):
            raise CheckFailure(f"{what}: {key} differs")


def check_arrays(outcome: dict, cfg: RunConfig, batch: int) -> None:
    """Shapes, finiteness, the heatmap range and mask/logit agreement."""
    s = cfg.input_size
    cells = s // 4
    want = {
        "heatmap": (batch, 1, cells, cells),
        "sizes": (batch, 2, cells, cells),
        "offsets": (batch, 2, cells, cells),
        "mask_logits": (batch, 1, s, s),
    }
    for key, shape in want.items():
        arr = outcome[key]
        if arr.shape != shape or arr.dtype != np.float32:
            raise CheckFailure(f"{key} is {arr.dtype}{arr.shape}, expected float32{shape}")
        if not np.isfinite(arr).all():
            raise CheckFailure(f"{key} holds non-finite values")
    heat = outcome["heatmap"]
    if not ((heat > 0) & (heat < 1)).all():
        raise CheckFailure("heatmap leaves the open interval (0, 1)")
    for i, bitmap in enumerate(outcome["masks"]):
        if not np.array_equal(bitmap, outcome["mask_logits"][i, 0] > np.float32(cfg.mask_thresh)):
            raise CheckFailure(f"mask {i} disagrees with its logits")
    for boxes in outcome["boxes"]:
        _check_boxes(boxes, cfg)


def _check_boxes(boxes, cfg: RunConfig) -> None:
    if len(boxes) > cfg.topk:
        raise CheckFailure(f"{len(boxes)} boxes exceed topk {cfg.topk}")
    scores = [b[4] for b in boxes]
    if scores != sorted(scores, reverse=True) or any(sc < cfg.score_thresh for sc in scores):
        raise CheckFailure("box scores are unsorted or below the threshold")


def reference_deviation(outcome: dict, reference) -> tuple[float, bool]:
    """Worst absolute deviation from the reference and whether it passes."""
    worst, ok = 0.0, True
    for key in ARRAY_KEYS:
        out = outcome[key].astype(np.float64)
        ref = reference[key].astype(np.float64)
        if out.shape != ref.shape:
            return float("inf"), False
        dev = np.abs(out - ref)
        worst = max(worst, float(dev.max()))
        ok = ok and bool((dev <= REF_ATOL + REF_RTOL * np.abs(ref)).all())
    return worst, ok


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    """A request shape over one bound archive.

    One request completes ``batch`` frames.  The ``setup``/``request``
    pair is what the timed runs execute; ``traced_request`` recomposes
    the same request from the layers' public functions under a tracer.
    """

    name: str
    size: int
    batch: int = 1
    fused: bool = False
    #: Spans of this workload's own path, besides ``trace_layers.FORWARD_SPANS``.
    extra_spans = ()

    def config(self) -> RunConfig:
        return RunConfig(input_size=self.size, score_thresh=SCORE_THRESH)

    def write_archive(self, workdir: Path) -> Path:
        path = workdir / "weights.nmvg"
        save_archive(benchmark_archive(self.config()), path)
        return path

    # -- set-up -----------------------------------------------------------

    def setup(self, workdir: Path, tr=tl.UNTRACED) -> dict:
        cfg = self.config()
        path = workdir / "weights.nmvg"
        archive = tr.call("archive.load_archive", load_archive, path)
        if self.fused:
            archive = tr.call("model.fuse_archive", fuse_archive, archive)
        model = tr.call("model.from_archive", Model.from_archive, cfg, archive)
        return {"cfg": cfg, "model": model, "workdir": workdir, "archive_bytes": path.stat().st_size}

    # -- inputs -----------------------------------------------------------

    def make_inputs(self, state: dict, seed: int, stream: int, index: int) -> dict:
        rng = _rng(seed, stream, index)
        image, radar = _frame_arrays(rng, self.batch, self.size)
        tokens = tokenize(_prompt(rng), DEFAULT_VOCAB, state["cfg"].text_len)
        return {"image": image, "radar": radar, "tokens": tokens}

    def release_inputs(self, inputs: dict) -> None:
        """Drop whatever a request left on disk."""

    # -- requests ---------------------------------------------------------

    def _run(self, state: dict, inputs: dict, tr=tl.UNTRACED):
        """Forward plus per-sample decode; recomposed when a tracer is given."""
        cfg, model = state["cfg"], state["model"]
        args = (model, inputs["image"], inputs["radar"], inputs["tokens"])
        fwd, ratio = _model_forward(*args) if tr is tl.UNTRACED else tl.traced_forward(*args, tr)
        return fwd, _decode_all(cfg, fwd[0], fwd[1], fwd[2], ratio, tr)

    def request(self, state: dict, inputs: dict) -> dict:
        return outcome_from_forward(*self._run(state, inputs))

    def traced_request(self, state: dict, inputs: dict, tr) -> dict:
        return outcome_from_forward(*self._run(state, inputs, tr))

    def forward_arrays(self, state: dict, inputs: dict) -> dict:
        """Raw model outputs for the inputs, for the reference comparison."""
        return self.request(state, inputs)

    def check(self, state: dict, inputs: dict, outcome: dict) -> None:
        check_arrays(outcome, state["cfg"], self.batch)


class EvalBatch320(Workload):
    """Batched forward on the fused archive, then decode and scoring."""

    extra_spans = ("model.fuse_archive", "metrics.average_precision", "metrics.mask_miou")

    def make_inputs(self, state, seed, stream, index):
        inputs = super().make_inputs(state, seed, stream, index)
        rng = _rng(seed, stream + 2, index)
        s = self.size
        gt_boxes, gt_masks = [], []
        for _ in range(self.batch):
            n = int(rng.integers(1, 4))
            centre = rng.uniform(0.2 * s, 0.8 * s, size=(n, 2))
            sides = rng.uniform(0.05 * s, 0.3 * s, size=(n, 2))
            gt_boxes.append([(*c, *d) for c, d in zip(centre.tolist(), sides.tolist())])
            bitmap = np.zeros((s, s), dtype=np.uint8)
            y0, x0 = rng.integers(0, s // 2, size=2)
            y1, x1 = rng.integers(s // 2, s, size=2)
            bitmap[y0:y1, x0:x1] = 1
            gt_masks.append(bitmap)
        inputs["gt_boxes"], inputs["gt_masks"] = gt_boxes, gt_masks
        return inputs

    def _scored(self, state, inputs, tr=tl.UNTRACED):
        fwd, boxes = self._run(state, inputs, tr)
        ap = tr.call("metrics.average_precision", average_precision, boxes, inputs["gt_boxes"])
        miou = tr.call("metrics.mask_miou", mask_miou, fwd[4], inputs["gt_masks"])
        outcome = outcome_from_forward(fwd, boxes)
        outcome["scores"] = (ap.ap50, ap.ap50_95, ap.ar50_95, miou)
        return outcome

    def request(self, state, inputs):
        return self._scored(state, inputs)

    def traced_request(self, state, inputs, tr):
        return self._scored(state, inputs, tr)

    def check(self, state, inputs, outcome):
        super().check(state, inputs, outcome)
        if not all(0.0 <= v <= 100.0 for v in outcome["scores"]):
            raise CheckFailure(f"scores {outcome['scores']} leave [0, 100]")


class Cli64(Workload):
    """What ``nmvg infer`` does, in-process: load the archive, then run_infer."""

    extra_spans = (
        "rasters.read_image", "rasters.read_radar", "encoders.tokenize",
        "rasters.write_boxes", "rasters.write_mask",
    )

    def setup(self, workdir, tr=tl.UNTRACED):
        cfg = self.config()
        path = workdir / "weights.nmvg"
        return {"cfg": cfg, "workdir": workdir, "weights": path, "archive_bytes": path.stat().st_size}

    def make_inputs(self, state, seed, stream, index):
        rng = _rng(seed, stream, index)
        d = state["workdir"] / f"req-{stream}-{index}"
        d.mkdir(parents=True, exist_ok=True)
        s = self.size
        image = rng.integers(0, 256, size=(3, s, s), dtype=np.uint8)
        _write_netpbm(d / "image.ppm", image)
        # Radar alternates raw float32, P6 and P5 so both read_radar paths run.
        form = index % 4
        if form in (0, 2):
            radar = d / "radar.f32"
            radar.write_bytes(rng.standard_normal((3, s, s)).astype("<f4").tobytes())
        else:
            radar = d / ("radar.ppm" if form == 1 else "radar.pgm")
            planes = 3 if form == 1 else 1
            _write_netpbm(radar, rng.integers(0, 256, size=(planes, s, s), dtype=np.uint8))
        prompt = d / "prompt.txt"
        prompt.write_text(_prompt(rng) + "\n", encoding="utf-8")
        return {"dir": d, "image": d / "image.ppm", "radar": radar, "prompt": prompt, "out": d / "out"}

    def release_inputs(self, inputs):
        for path in sorted(inputs["dir"].rglob("*"), reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()
        inputs["dir"].rmdir()

    def request(self, state, inputs):
        result = run_infer(
            state["cfg"],
            load_archive(state["weights"]),
            inputs["image"],
            inputs["radar"],
            inputs["prompt"],
            inputs["out"],
        )
        return {"boxes": (_box_tuples(result.boxes),), "masks": (result.mask.bitmap,)}

    def traced_request(self, state, inputs, tr):
        return tl.traced_infer(state["cfg"], state["weights"], inputs, tr)

    def forward_arrays(self, state, inputs):
        cfg = state["cfg"]
        model = Model.from_archive(cfg, load_archive(state["weights"]))
        image, radar, tokens = tl.read_request_files(cfg, inputs)
        fwd, ratio = _model_forward(model, image, radar, tokens)
        return outcome_from_forward(fwd, _decode_all(cfg, fwd[0], fwd[1], fwd[2], ratio))

    def check(self, state, inputs, outcome):
        """The files run_infer wrote must read back to what it returned."""
        boxes = tuple(_read_boxes_text(inputs["out"] / "boxes.txt"))
        if boxes != outcome["boxes"][0]:
            raise CheckFailure("boxes.txt does not read back to the returned boxes")
        _check_boxes(boxes, state["cfg"])
        mask = _read_p5(inputs["out"] / "mask.pgm")
        if not np.array_equal(mask, outcome["masks"][0].astype(np.uint8) * 255):
            raise CheckFailure("mask.pgm does not read back to the returned mask")


WORKLOADS = {
    "frame640": Workload("frame640", 640),
    "cli64": Cli64("cli64", 64),
    "evalbatch320": EvalBatch320("evalbatch320", 320, batch=4, fused=True),
}


def workload(name: str, size: int | None = None) -> Workload:
    base = WORKLOADS[name]
    return type(base)(base.name, size or base.size, base.batch, base.fused)


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.npz"
