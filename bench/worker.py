"""One benchmark process: set a workload up, then time it or trace it.

``run.py`` starts this script in a fresh interpreter and reads JSON lines
from its standard output:

* ``ready``   -- set-up and one warm-up request are done; the parent takes
  the time from process start to this line as the set-up time.  The
  warm-up request runs the fixed check inputs.
* ``checked`` -- the warm-up outcome compared with the recorded reference
  and, for ``cli64``, with a direct ``Model.forward`` of the same files.
* ``result``  -- the timed loop (role ``timed``) or the traced run (role
  ``trace``).

After ``checked`` a ``timed`` worker reads one line from standard input:
``run`` starts the timed loop, anything else ends the process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import nmvg
import trace_layers as tl
import workloads as wl

MIN_REQUESTS = 3


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def _load_reference(w: wl.Workload, full_size: bool):
    path = wl.reference_path(w.name)
    if not full_size or not path.is_file():
        return None
    with np.load(path) as ref:
        return {k: ref[k] for k in ref.files}


def _checked_event(w, state, inputs, outcome, reference) -> dict:
    """Compare the warm-up outcome with the reference; build ``checked``."""
    failures = []
    try:
        w.check(state, inputs, outcome)
        arrays = outcome if "heatmap" in outcome else w.forward_arrays(state, inputs)
        wl.require_equal(outcome, arrays, "request against forward + decode")
    except wl.CheckFailure as exc:
        failures.append(f"check request: {exc}")
        arrays = outcome
    dev = None
    if reference is not None and "heatmap" in arrays:
        dev, ok = wl.reference_deviation(arrays, reference)
        if not ok:
            failures.append(f"check request deviates from the reference by up to {dev:g}")
    return {"digest": wl.digest({**outcome, **arrays}), "max_abs_dev": dev, "failures": failures}


def _timed_request(w, state, inputs):
    """One request: (outcome or None, wall s, cpu s, failure message)."""
    c0, t0 = process_time(), perf_counter()
    try:
        outcome = w.request(state, inputs)
    except Exception as exc:  # a raising request is a failed request
        return None, perf_counter() - t0, process_time() - c0, f"{type(exc).__name__}: {exc}"
    wall, cpu = perf_counter() - t0, process_time() - c0
    try:
        w.check(state, inputs, outcome)
    except wl.CheckFailure as exc:
        return outcome, wall, cpu, str(exc)
    return outcome, wall, cpu, None


def _keep_going(n: int, started: float, last: float, args) -> bool:
    if args.max_requests and n >= args.max_requests:
        return False
    return n < MIN_REQUESTS or perf_counter() - started + last <= args.seconds


def run_timed(w, state, args) -> dict:
    lat, cpu, failures = [], [], []
    started, last, i = perf_counter(), 0.0, 0
    while _keep_going(i, started, last, args):
        inputs = w.make_inputs(state, args.seed, wl.TIMED_STREAM, i)
        outcome, wall, used, failure = _timed_request(w, state, inputs)
        w.release_inputs(inputs)
        del outcome
        lat.append(wall)
        cpu.append(used)
        if failure:
            failures.append(f"request {i}: {failure}")
        last, i = wall, i + 1
    return {
        "latency_s": lat,
        "cpu_s": cpu,
        "frames_per_request": w.batch,
        "attempted": len(lat),
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_trace(w, state, tracer, calls, args, workdir: Path) -> dict:
    plain_lat, traced_lat, passes, boxes, raster_bytes, failures = [], [], [], [], [], []
    replay_errors = 0
    rng = np.random.default_rng((args.seed, 3))
    started, last, cycle = perf_counter(), 0.0, 0
    while _keep_going(cycle, started, last, args):
        t_cycle = perf_counter()
        # Alternate which of the pair runs first so order effects cancel.
        for index in sorted((2 * cycle, 2 * cycle + 1), reverse=bool(cycle % 2)):
            inputs = w.make_inputs(state, args.seed, wl.TIMED_STREAM, index)
            if index % 2 == 0:
                _, wall, _, failure = _timed_request(w, state, inputs)
                plain_lat.append(wall)
                if failure:
                    failures.append(f"request {index}: {failure}")
            else:
                tracer.request = cycle
                t0 = perf_counter()
                try:
                    outcome = w.traced_request(state, inputs, tracer)
                    traced_lat.append(perf_counter() - t0)
                    w.check(state, inputs, outcome)
                    boxes.append(sum(len(b) for b in outcome["boxes"]))
                    raster_bytes.append(_raster_bytes(inputs))
                except Exception as exc:  # counted as a failed traced request
                    failures.append(f"traced request {index}: {type(exc).__name__}: {exc}")
                tracer.request = None
            w.release_inputs(inputs)

        times, errors = tl.replay_convs(calls, rng)
        passes.append(times)
        replay_errors += errors
        last, cycle = perf_counter() - t_cycle, cycle + 1

    layer = tl.span_table(tracer.spans, skip=("check",))
    kinds = tl.kind_table(calls, passes)
    errors = tl.error_counts(tracer.spans)
    per_layer = dict(layer)
    for kind, row in kinds.items():
        per_layer[f"tensor.{kind}.ms"] = row["ms"]
        per_layer[f"tensor.{kind}.calls"] = row["calls"]
        per_layer[f"tensor.{kind}.gmacs"] = row["macs"] / 1e9
        per_layer[f"tensor.{kind}.mbytes"] = row["bytes"] / 1e6
    errors["tensor"] += replay_errors
    if replay_errors:
        failures.append(f"{replay_errors} replayed conv calls raised")
    for name, count in errors.items():
        per_layer[f"{name}.errors"] = count
    per_layer["enmoe.levels_skipped"] = 4 - sum(
        1 for s in tracer.spans if s["request"] == "check" and s["name"].startswith("enmoe.")
    )
    per_layer["heads.boxes_kept"] = statistics.median(boxes) if boxes else 0
    per_layer["archive.bytes"] = state["archive_bytes"]
    per_layer["rasters.bytes"] = statistics.median(raster_bytes) if raster_bytes else 0
    per_layer["trace.overhead_ms"] = 1e3 * (statistics.median(traced_lat) - statistics.median(plain_lat))
    span_file = workdir / "spans.json"
    span_file.write_text(
        json.dumps(
            {
                "schema": 1,
                "workload": w.name,
                "seed": args.seed,
                "time_unit": "s since the tracer started",
                "spans": tracer.spans,
                "conv_calls": [
                    {"kind": c.kind, "fn": c.fn.__name__, "shape": c.shape} for c in calls
                ],
                "per_layer": per_layer,
            }
        )
    )
    return {
        "per_layer": per_layer,
        "kinds": kinds,
        "traced_ms": 1e3 * statistics.median(traced_lat) if traced_lat else None,
        "untraced_ms": 1e3 * statistics.median(plain_lat),
        "attempted": 2 * cycle,
        "failures": failures,
        "span_file": str(span_file),
    }


def _raster_bytes(inputs: dict) -> int:
    if "out" not in inputs:
        return 0
    paths = (inputs["image"], inputs["radar"], inputs["out"] / "boxes.txt", inputs["out"] / "mask.pgm")
    return sum(Path(p).stat().st_size for p in paths)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--role", required=True, choices=("timed", "trace"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--size", type=int, default=None)
    ap.add_argument("--max-requests", type=int, default=0)
    args = ap.parse_args(argv)
    if args.src.resolve() not in Path(nmvg.__file__).resolve().parents:
        print(f"error: imported nmvg from {nmvg.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    w = wl.workload(args.workload, args.size)
    reference = _load_reference(w, w.size == wl.WORKLOADS[w.name].size)
    if args.role == "timed":
        state = w.setup(args.workdir)
        inputs = w.make_inputs(state, wl.CHECK_SEED, wl.CHECK_STREAM, 0)
        outcome = w.request(state, inputs)
        emit("ready")
        checked = _checked_event(w, state, inputs, outcome, reference)
        w.release_inputs(inputs)
        emit("checked", **checked)
        if sys.stdin.readline().strip() == "run":
            emit("result", **run_timed(w, state, args))
        return 0

    # Traced run: record the convs of the program's own path on the check
    # request, then require the recomposed path to match it bitwise.
    tracer = tl.Tracer()
    tracer.request = "setup"
    state = w.setup(args.workdir, tracer)
    inputs = w.make_inputs(state, wl.CHECK_SEED, wl.CHECK_STREAM, 0)
    outcome, calls = tl.record_convs(w.request, state, inputs)
    emit("ready")
    checked = _checked_event(w, state, inputs, outcome, reference)
    tracer.request = "check"
    try:
        traced = w.traced_request(state, inputs, tracer)
        wl.require_equal(traced, outcome, "recomposed path against the program's own")
        if "heatmap" not in outcome:
            direct = w.forward_arrays(state, inputs)
            wl.require_equal(traced, direct, "recomposed forward against Model.forward")
    except wl.CheckFailure as exc:
        checked["failures"].append(str(exc))
    tracer.request = None
    w.release_inputs(inputs)
    recorded = {s["name"] for s in tracer.spans if s["request"] in ("setup", "check")}
    required = {*tl.FORWARD_SPANS, *w.extra_spans}
    required |= {f"enmoe.enmoe_forward[{i}]" for i in range(tl.enmoe_levels_run(w.size))}
    if required - recorded:
        checked["failures"].append(f"the traced check request recorded no span {sorted(required - recorded)}")
    counts = {k: sum(1 for c in calls if c.kind == k) for k in tl.KINDS}
    # Every size that routes all four enmoe levels runs the 640 conv set.
    if w.name == "frame640" and tl.enmoe_levels_run(w.size) == 4:
        drift = {k: (counts[k], n) for k, (n, _) in tl.BASELINE_640.items() if counts[k] != n}
        if drift:
            checked["failures"].append(f"conv calls per kind drifted from the baseline (got, want): {drift}")
    checked["offset_abs_median"] = tl.offset_abs_median(calls)
    emit("checked", **checked)
    result = run_trace(w, state, tracer, calls, args, args.workdir)
    result["per_layer"]["fusion.offset_abs_median"] = checked["offset_abs_median"]
    emit("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
