"""Per-layer tracing from outside the program.

``Tracer`` keeps spans (name, start, end, parent, request id) in memory.
``traced_forward`` recomposes ``Model.forward`` from the layers' public
functions, in the same order and with the same glue, wrapping each call in
a span; ``traced_infer`` does the same for ``run_infer``.  A traced run
asserts that the recomposition is bitwise equal to the program's own path,
otherwise the trace would time a different program.

The ``tensor`` rows come from a separate step: ``record_convs`` watches one
request with ``sys.setprofile`` and records every call of
``tensor.conv2d`` and ``fusion.deform_conv`` (input shape plus the bound
``ConvParams``), and ``replay_convs`` times each recorded call again on a
fresh input of the same shape.  MACs and bytes moved are computed from
the shapes, not measured.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from nmvg.archive import load_archive
from nmvg.encoders import image_encoder, radar_encoder, text_encoder, tokenize
from nmvg.enmoe import MIN_EXTENT, enmoe_forward
from nmvg.fpn import fpn_forward
from nmvg.fusion import deform_conv, tmdf_fuse
from nmvg.heads import decode_boxes, rec_head_forward, res_head_forward
from nmvg.model import DEFAULT_VOCAB, Model
from nmvg.rasters import read_image, read_radar, write_boxes, write_mask
from nmvg.tensor import conv2d

#: Layers named after the package modules; every span name starts with one.
LAYERS = ("archive", "model", "rasters", "encoders", "fusion", "fpn", "enmoe", "heads", "tensor", "metrics")

#: Conv calls per 640 forward, measured with wrapper timers when the
#: baseline in ROADMAP.md was taken, with that baseline's seconds.
BASELINE_640 = {
    "dw3x3s1": (22, 0.99),
    "dense3x3": (8, 0.37),
    "dense1x1": (32, 0.25),
    "dw5x5": (4, 0.25),
    "dw3x3s2": (10, 0.16),
}
#: Spans every traced forward records, besides one per enmoe level that runs.
FORWARD_SPANS = (
    "model.forward", "encoders.image_encoder", "encoders.radar_encoder", "encoders.text_encoder",
    *(f"fusion.adapter[{i}]" for i in range(4)), *(f"fusion.tmdf_fuse[{i}]" for i in range(4)),
    "fpn.fpn_forward", "heads.rec_head_forward", "heads.res_head_forward", "heads.decode_boxes",
    "archive.load_archive", "model.from_archive",
)
KINDS = ("dense1x1", "dense3x3", "dw1x1", "dw3x3s1", "dw3x3s2", "dw5x5", "deform3x3")


class Tracer:
    """In-memory spans; ``request`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[dict] = []
        self.request = None
        self._open: list[int] = []
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "request": self.request,
            "error": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = perf_counter() - self._t0
        try:
            yield
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = perf_counter() - self._t0
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


class _Untraced:
    """Stands in for a ``Tracer`` on requests that run untraced."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


UNTRACED = _Untraced()


def enmoe_levels_run(size: int) -> int:
    """Pyramid levels at least MIN_EXTENT wide; ``Model.forward`` routes these."""
    return sum(1 for i in range(4) if size // (4 << i) >= MIN_EXTENT)


# ---------------------------------------------------------------------------
# recomposed program paths
# ---------------------------------------------------------------------------


def traced_forward(model: Model, image, radar, tokens, tr: Tracer):
    """``Model.forward`` rebuilt from public layer calls, one span each.

    Returns ``((heat, sizes, offsets, logits, masks), ratio)``.
    """
    cfg = model.cfg
    with tr.span("model.forward"):
        img = tr.call("encoders.image_encoder", image_encoder, image, model.image_p)
        rad = tr.call("encoders.radar_encoder", radar_encoder, radar, model.radar_p)
        text = tr.call("encoders.text_encoder", text_encoder, tokens, model.text_p)
        fused = []
        for i in range(4):
            weight, bias = model.adapters[i]
            with tr.span(f"fusion.adapter[{i}]"):
                stage_text = (
                    weight.astype(np.float64) @ text.astype(np.float64)
                    + bias.astype(np.float64)[:, None]
                ).astype(np.float32)
            fused.append(
                tr.call(
                    f"fusion.tmdf_fuse[{i}]",
                    tmdf_fuse,
                    img[i],
                    rad[i],
                    stage_text,
                    model.tmdf_p[i],
                    normalize=cfg.attention_normalize,
                )
            )
        pyramid = tr.call("fpn.fpn_forward", fpn_forward, fused, model.fpn_p)
        routed = [
            tr.call(f"enmoe.enmoe_forward[{i}]", enmoe_forward, level, model.enmoe_p[i])
            if min(level.shape[2:]) >= MIN_EXTENT
            else level
            for i, level in enumerate(pyramid)
        ]
        feat = routed[cfg.head_scale - 2]
        heat, sizes, offsets = tr.call("heads.rec_head_forward", rec_head_forward, feat, model.rec_p)
        logits, masks = tr.call(
            "heads.res_head_forward", res_head_forward, routed, model.res_p, cfg.input_size, cfg.mask_thresh
        )
    return (heat, sizes, offsets, logits, masks), cfg.input_size // heat.shape[3]


def read_request_files(cfg, inputs: dict, tr=UNTRACED):
    """Rasters and prompt of a CLI request, read the way ``run_infer`` does."""
    image = tr.call("rasters.read_image", read_image, inputs["image"], cfg.input_size)[None]
    radar = tr.call("rasters.read_radar", read_radar, inputs["radar"], cfg.input_size)[None]
    prompt = Path(inputs["prompt"]).read_text(encoding="utf-8")
    tokens = tr.call("encoders.tokenize", tokenize, prompt, list(DEFAULT_VOCAB), cfg.text_len)
    return image, radar, tokens


def traced_infer(cfg, weights: Path, inputs: dict, tr: Tracer) -> dict:
    """``load_archive`` + ``run_infer`` rebuilt from public calls."""
    archive = tr.call("archive.load_archive", load_archive, weights)
    model = tr.call("model.from_archive", Model.from_archive, cfg, archive)
    image, radar, tokens = read_request_files(cfg, inputs, tr)
    (heat, sizes, offsets, logits, masks), ratio = traced_forward(model, image, radar, tokens, tr)
    boxes = tr.call(
        "heads.decode_boxes", decode_boxes, heat[0], sizes[0], offsets[0],
        r=ratio, k=cfg.topk, score_thresh=cfg.score_thresh,
    )
    out = Path(inputs["out"])
    out.mkdir(parents=True, exist_ok=True)
    tr.call("rasters.write_boxes", write_boxes, out / "boxes.txt", boxes)
    tr.call("rasters.write_mask", write_mask, out / "mask.pgm", masks[0])
    return {
        "heatmap": heat,
        "sizes": sizes,
        "offsets": offsets,
        "mask_logits": logits,
        "masks": (masks[0].bitmap,),
        "boxes": (tuple((b.cx, b.cy, b.w, b.h, b.score) for b in boxes),),
    }


# ---------------------------------------------------------------------------
# conv recording and replay
# ---------------------------------------------------------------------------


@dataclass
class ConvCall:
    kind: str
    fn: object
    shape: tuple
    params: object
    input: np.ndarray | None = None  # kept for deform calls only


def conv_kind(in_channels: int, p) -> str:
    """Name a conv2d call by its kernel, grouping and stride."""
    co, cg, kh, kw = p.kernel.shape
    if p.groups == 1 and p.stride == 1 and (kh, kw) in ((1, 1), (3, 3)):
        return f"dense{kh}x{kw}"
    if p.groups == in_channels and cg == 1:
        if (kh, kw) == (3, 3) and p.stride in (1, 2):
            return f"dw3x3s{p.stride}"
        if (kh, kw) in ((1, 1), (5, 5)) and p.stride == 1:
            return f"dw{kh}x{kw}"
    raise ValueError(f"unclassified conv: kernel {p.kernel.shape}, groups {p.groups}, stride {p.stride}")


def record_convs(fn, *args):
    """Run ``fn(*args)`` and record each conv2d / deform_conv it executes."""
    codes = {conv2d.__code__: conv2d, deform_conv.__code__: deform_conv}
    calls: list[ConvCall] = []

    def hook(frame, event, arg):
        target = codes.get(frame.f_code)
        if target is None or event != "call":
            return
        x, p = frame.f_locals["x"], frame.f_locals["p"]
        shape = tuple(np.shape(x))
        if target is deform_conv:
            calls.append(ConvCall("deform%dx%d" % p.main.kernel.shape[2:], target, shape, p, x))
        else:
            calls.append(ConvCall(conv_kind(shape[1], p), target, shape, p))

    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def offset_abs_median(calls: list[ConvCall]) -> float:
    """Median |predicted offset| of the first (stage 0) deform call, in px."""
    first = next(c for c in calls if c.fn is deform_conv)
    return float(np.median(np.abs(conv2d(first.input, first.params.offset_conv))))


def conv_work(call: ConvCall) -> tuple[int, int]:
    """Computed (MACs, bytes moved) of one call at float32 interfaces.

    A deform call counts its main contraction plus four MACs per bilinear
    sample, and reads the predicted offsets; its offset conv is a call of
    its own.
    """
    n, cin, h, w = call.shape
    deform = call.fn is deform_conv
    p = call.params.main if deform else call.params
    co, cg, kh, kw = p.kernel.shape
    ho = (h + 2 * p.padding - kh) // p.stride + 1
    wo = (w + 2 * p.padding - kw) // p.stride + 1
    macs = n * co * ho * wo * cg * kh * kw
    moved = n * cin * h * w + p.kernel.size + n * co * ho * wo
    if p.bias is not None:
        moved += p.bias.size
    if deform:
        macs += 4 * n * cin * kh * kw * ho * wo
        moved += n * 2 * kh * kw * ho * wo
    return macs, 4 * moved


def replay_convs(calls: list[ConvCall], rng: np.random.Generator) -> tuple[list[float], int]:
    """Seconds per recorded call, each on a fresh input of its shape, and
    the number of calls that raised (timed as zero).

    A deform call's time excludes its offset conv, which is timed as its
    own call, so the kinds add up without double counting.
    """
    times, errors = [], 0
    for call in calls:
        x = rng.standard_normal(call.shape).astype(np.float32)
        try:
            t0 = perf_counter()
            call.fn(x, call.params)
            times.append(perf_counter() - t0)
            if call.fn is deform_conv:
                t0 = perf_counter()
                conv2d(x, call.params.offset_conv)
                times[-1] -= perf_counter() - t0
        except Exception:  # counted in tensor.errors
            times.append(0.0)
            errors += 1
    return times, errors


# ---------------------------------------------------------------------------
# per-layer table
# ---------------------------------------------------------------------------

#: Span name (without an index) -> per-layer metric it adds to.
SPAN_METRIC = {
    "archive.load_archive": "archive.load_ms",
    "model.from_archive": "model.bind_ms",
    "model.fuse_archive": "model.fold_ms",
    "rasters.read_image": "rasters.read_ms",
    "rasters.read_radar": "rasters.read_ms",
    "rasters.write_boxes": "rasters.write_ms",
    "rasters.write_mask": "rasters.write_ms",
    "encoders.image_encoder": "encoders.image_ms",
    "encoders.radar_encoder": "encoders.radar_ms",
    "encoders.text_encoder": "encoders.text_ms",
    "encoders.tokenize": "encoders.tokenize_ms",
    "fusion.adapter": "fusion.adapter_ms",
    "fusion.tmdf_fuse": "fusion.stage{i}_ms",
    "fpn.fpn_forward": "fpn.forward_ms",
    "enmoe.enmoe_forward": "enmoe.level{i}_ms",
    "heads.rec_head_forward": "heads.rec_ms",
    "heads.res_head_forward": "heads.res_ms",
    "heads.decode_boxes": "heads.decode_ms",
    "metrics.average_precision": "metrics.score_ms",
    "metrics.mask_miou": "metrics.score_ms",
}


def _metric_of(name: str) -> str | None:
    base, _, rest = name.partition("[")
    metric = SPAN_METRIC.get(base)
    if metric is None:
        return None
    return metric.format(i=rest.rstrip("]")) if "{i}" in metric else metric


def span_table(spans: list[dict], skip=()) -> dict[str, float]:
    """Median over requests of each layer metric, in ms.

    Spans of the requests in ``skip`` are left out; set-up spans count
    once, as a request of their own.  ``enmoe.forward_ms`` sums the levels
    that ran and ``model.forward_self_ms`` is the forward span minus its
    children.
    """
    per_req: dict = defaultdict(Counter)
    children: dict = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
    for idx, s in enumerate(spans):
        if s["request"] in skip:
            continue
        ms = 1e3 * (s["end"] - s["start"])
        key = s["request"]
        metric = _metric_of(s["name"])
        if metric is not None:
            per_req[key][metric] += ms
            if metric.startswith("enmoe.level"):
                per_req[key]["enmoe.forward_ms"] += ms
        if s["name"] == "model.forward":
            per_req[key]["model.forward_self_ms"] += ms - 1e3 * children[idx]
    names = {m for c in per_req.values() for m in c}
    return {m: statistics.median([c[m] for c in per_req.values() if m in c]) for m in sorted(names)}


def error_counts(spans: list[dict]) -> dict[str, int]:
    counts = {layer: 0 for layer in LAYERS}
    for s in spans:
        if s["error"] is not None:
            counts[s["name"].split(".", 1)[0]] += 1
    return counts


def kind_table(calls: list[ConvCall], passes: list[list[float]]) -> dict[str, dict]:
    """Per conv kind: calls and computed work per forward, median ms."""
    rows = {k: {"calls": 0, "macs": 0, "bytes": 0, "ms": []} for k in KINDS}
    for call in calls:
        row = rows.setdefault(call.kind, {"calls": 0, "macs": 0, "bytes": 0, "ms": []})
        macs, moved = conv_work(call)
        row["calls"] += 1
        row["macs"] += macs
        row["bytes"] += moved
    for times in passes:
        per_kind = Counter()
        for call, t in zip(calls, times):
            per_kind[call.kind] += 1e3 * t
        for kind, row in rows.items():
            row["ms"].append(per_kind[kind])
    for row in rows.values():
        row["ms"] = statistics.median(row["ms"]) if row["ms"] else 0.0
    return rows
