"""nmvg benchmark: end-to-end metrics per workload, or a per-layer trace.

Usage, from the repository root:

    python3 bench/run.py --workload frame640 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload cli64 --seed 1 --seconds 15 --trace 1
    python3 bench/run.py --record-reference      # rewrite bench/reference/*.npz
    python3 bench/selfcheck.py                   # shrunk runs of every workload

Workloads (each a closed loop with one client, in fresh processes):

* ``frame640``     -- warm bound model, train-form archive, one 640 frame
  per request: ``Model.forward`` + ``decode_boxes``.
* ``cli64``        -- what ``nmvg infer`` does, in-process, at 64:
  ``load_archive`` from disk, then ``run_infer``.
* ``evalbatch320`` -- folded archive, batches of four 320 frames per
  forward, per-sample decode, then ``average_precision`` + ``mask_miou``.

With ``--trace 0`` the benchmark starts three to nine fresh processes one
after another; each sets up (import, archive load, fold where used, bind)
and runs one untimed warm-up request on fixed check inputs.  ``setup_s`` is
the median time from start to ready.  The last process then runs requests
on new seeded inputs for ``--seconds`` and the end-to-end metrics come from
it.
With ``--trace 1`` one process times every layer from outside the program
(see ``trace_layers.py``) and writes its spans to ``.bench_out``.

Every run checks the outputs: the warm-up outcome against the recorded
reference and across the processes (bitwise), and every request's outputs
(shapes, ranges, masks against logits; on ``cli64`` the files written read
back to the returned result).  The last line of standard output is one JSON
object; the exit code is 1 when a check failed and 2 when the program
cannot be found.  The harness sets no thread-count environment variable.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up is measured in at least SETUPS_MIN fresh processes, and in more
# (up to SETUPS_MAX) while their set-ups total under SETUP_BUDGET_S, so a
# cheap set-up gets a steadier median at little cost.
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 9, 5.0
DEADLINE_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# Per-layer rows that some workloads never run; they appear in the printed
# table and the span file, not in the JSON result.
TABLE_ONLY = (
    "enmoe.level2_ms", "enmoe.level3_ms", "model.fold_ms", "rasters.read_ms",
    "rasters.write_ms", "metrics.score_ms", "encoders.tokenize_ms",
)
BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads",
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------


class Worker:
    """A ``worker.py`` process whose JSON-line events are read in order."""

    def __init__(self, args, role: str, workdir: Path, deadline: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--role", role, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--workdir", str(workdir), "--src", str(SRC),
            "--max-requests", str(args.max_requests),
        ]
        if args.size:
            cmd += ["--size", str(args.size)]
        self.deadline = deadline
        self._pending = b""
        self._arrived = None
        self.started = perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT)

    def send(self, command: str) -> None:
        self.proc.stdin.write(f"{command}\n".encode())
        self.proc.stdin.close()

    def event(self, name: str) -> tuple[dict, float]:
        """The next event, which must be ``name``, and when it arrived."""
        while True:
            while b"\n" not in self._pending:
                left = self.deadline - perf_counter()
                if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                    raise BenchError(f"worker gave no {name!r} event before the deadline")
                chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
                self._arrived = perf_counter()
                if not chunk:
                    raise BenchError(f"worker exited with code {self.proc.wait()} before its {name!r} event")
                self._pending += chunk
            line, _, self._pending = self._pending.partition(b"\n")
            try:
                ev = json.loads(line)
            except json.JSONDecodeError:
                continue  # stray output from the program under test
            if ev.get("event") != name:
                raise BenchError(f"expected event {name!r}, got {ev.get('event')!r}")
            return ev, self._arrived

    def close(self) -> None:
        """Wait for a clean exit; a worker past the deadline is killed."""
        try:
            self.proc.wait(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("worker did not exit before the deadline") from None
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        if self.proc.returncode:
            raise BenchError(f"worker exited with code {self.proc.returncode}")

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()


def _with_worker(args, role, workdir, deadline, fn):
    w = Worker(args, role, workdir, deadline)
    try:
        out = fn(w)
    except BaseException:
        w.kill()
        raise
    w.close()
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest of TAIL_PERCENTILES, by nearest
    rank, that has at least ten samples beyond it.

    With fewer than forty samples none has; the upper median rank is
    reported then, since no tail is resolvable.
    """
    s = sorted(samples)
    n = len(s)
    for p in TAIL_PERCENTILES:
        k = math.ceil(p / 100 * n) - 1
        if n - 1 - k >= 10:
            return s[k], p
    return s[n // 2], 50.0


def end_to_end(setups: list[float], result: dict) -> dict:
    lat = result["latency_s"]
    frames = result["frames_per_request"] * len(lat)
    t, _ = tail(lat)
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * t,
        "frames_per_s": frames / sum(lat),
        "cpu_ms_per_frame": 1e3 * sum(result["cpu_s"]) / frames,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def environment() -> dict:
    import numpy as np

    blas, threads = "unknown", None
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for fn in BLAS_THREAD_GETTERS:
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_timed(args, workdir: Path, deadline: float, report) -> tuple[dict, dict]:
    setups, checks = [], []

    def drive(w):
        _, ready_at = w.event("ready")
        setups.append(ready_at - w.started)
        checks.append(w.event("checked")[0])
        n = len(setups)
        if n >= SETUPS_MIN and (n >= SETUPS_MAX or sum(setups) >= SETUP_BUDGET_S):
            w.send("run")
            return w.event("result")[0]
        w.send("exit")
        return None

    result = None
    while result is None:
        result = _with_worker(args, "timed", workdir, deadline, drive)
    metrics = end_to_end(setups, result)
    failures = [f for c in checks for f in c["failures"]] + result["failures"]
    digests = {c["digest"] for c in checks}
    if len(digests) != 1:
        failures.append(f"the check request gave {len(digests)} different outputs in {len(checks)} processes")
    attempted = result["attempted"] + len(checks)
    failed = len(result["failures"]) + sum(1 for c in checks if c["failures"]) + (len(digests) != 1)
    devs = [c["max_abs_dev"] for c in checks if c["max_abs_dev"] is not None]
    lat = result["latency_s"]
    _, pct = tail(lat)
    report("setup_s", metrics["setup_s"], note="median of %d fresh processes: %s" % (
        len(setups), " ".join(f"{s:.3f}" for s in setups)))
    report("latency_p50_ms", metrics["latency_p50_ms"], note=f"{len(lat)} timed requests")
    report("latency_tail_ms", metrics["latency_tail_ms"], note=f"p{pct:g} of {len(lat)} requests")
    report("frames_per_s", metrics["frames_per_s"], note=f"{result['frames_per_request']} frame(s)/request")
    report("cpu_ms_per_frame", metrics["cpu_ms_per_frame"], note="process CPU time, all threads")
    report("peak_rss_mb", metrics["peak_rss_mb"], note="timed process")
    report("failed_frac", failed / attempted, "1", f"{failed} of {attempted} requests, warm-ups included")
    report("output_max_abs_dev", max(devs) if devs else float("nan"), "1",
           "against bench/reference" if devs else "no reference at this size")
    return metrics, {"attempted": attempted, "failed": failed, "failures": failures}


def run_trace(args, workdir: Path, deadline: float, report) -> tuple[dict, dict]:
    import trace_layers as tl

    def drive(w):
        w.event("ready")
        return w.event("checked")[0], w.event("result")[0]

    checked, result = _with_worker(args, "trace", workdir, deadline, drive)
    failures = checked["failures"] + result["failures"]
    attempted = result["attempted"] + 2  # the check inputs ran both paths
    failed = len(result["failures"]) + bool(checked["failures"])
    per_layer = result["per_layer"]
    print("per-layer (ms are medians per request; set-up layers are timed once per process):")
    for name in sorted(set(per_layer) | set(TABLE_ONLY)):
        if name in per_layer:
            report(name, per_layer[name])
        else:
            print(f"  {name:28s} {'n/a':>14s}       not on this workload's path")
    print("conv kinds (replayed; MACs and bytes computed from shapes):")
    baseline = tl.BASELINE_640
    base_total = sum(secs for _, secs in baseline.values())
    kinds = result["kinds"]
    now_total = sum(kinds[k]["ms"] for k in baseline)
    for kind, row in kinds.items():
        line = (f"  {kind:10s} calls {row['calls']:4d}  {row['ms']:10.3f} ms"
                f"  {row['macs'] / 1e9:8.4f} GMAC  {row['bytes'] / 1e6:9.3f} MB")
        if kind in baseline and now_total > 0:
            n, secs = baseline[kind]
            share = row["ms"] / now_total
            line += f"  share {share:6.1%} (640 baseline: {n} calls, {secs / base_total:6.1%})"
        print(line)
    print(f"traced request {result['traced_ms']:.3f} ms, untraced {result['untraced_ms']:.3f} ms "
          f"(overhead {per_layer['trace.overhead_ms']:.3f} ms)")
    print(f"spans: {Path(result['span_file']).relative_to(ROOT)}")
    print(f"median |offset| at stage 0: {checked['offset_abs_median']:.4f} px")
    return per_layer, {"attempted": attempted, "failed": failed, "failures": failures}


def record_reference() -> int:
    """Rewrite the recorded reference outputs of every workload."""
    import numpy as np

    import trace_layers as tl
    import workloads as wl

    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, w in wl.WORKLOADS.items():
        workdir = OUT / f"reference-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        w.write_archive(workdir)
        state = w.setup(workdir)
        inputs = w.make_inputs(state, wl.CHECK_SEED, wl.CHECK_STREAM, 0)
        outcome, calls = tl.record_convs(w.forward_arrays, state, inputs)
        w.release_inputs(inputs)
        offset = tl.offset_abs_median(calls)
        arrays = {k: outcome[k] for k in wl.ARRAY_KEYS}
        np.savez(wl.reference_path(name), offset_abs_median=np.float64(offset), **arrays)
        shutil.rmtree(workdir)
        print(f"{name}: recorded {', '.join(arrays)}; median |offset| at stage 0 = {offset:.4f} px")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("frame640", "cli64", "evalbatch320"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    # Shrinking for the benchmark's self-check (selfcheck.py).
    ap.add_argument("--size", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--max-requests", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "nmvg" / "__init__.py").is_file():
        print(f"error: no nmvg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        ap.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = perf_counter() + DEADLINE_S
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    import workloads as wl

    env = environment()
    print(f"nmvg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: python {python}, numpy {numpy}, BLAS {blas} ({blas_threads} threads), "
          "CPU {cpu}, nproc {nproc}, thread variables {thread_env}".format(**env))
    reference = wl.reference_path(args.workload)
    if reference.is_file() and not args.size:
        import numpy as np

        with np.load(reference) as ref:
            offset = float(ref["offset_abs_median"])
        print(f"weights: median |offset| at stage 0 on the check request = {offset:.4f} px")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    def report(name, value, unit=None, note=""):
        unit = unit or units.get(name, "ms" if name.endswith("_ms") else "")
        print(f"  {name:28s} {value:14.6g} {unit:5s} {note}")

    try:
        wl.workload(args.workload, args.size or None).write_archive(workdir)
        runner = run_trace if args.trace else run_timed
        values, status = runner(args, workdir, deadline, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in workdir.iterdir():
            if leftover.name != "spans.json":
                shutil.rmtree(leftover) if leftover.is_dir() else leftover.unlink()
        if not any(workdir.iterdir()):
            workdir.rmdir()

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 1
    for failure in status["failures"]:
        print(f"FAILED: {failure}")
    correct = not status["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": status["attempted"],
        "failed": status["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
