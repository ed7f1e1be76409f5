"""Quick self-check of the benchmark itself.

Runs every workload shrunk to a few requests at a small input, once timed
and once traced, and requires for each run: exit code 0, ``correct`` true,
a last line holding exactly the metrics ``BENCHMARK.json`` names with their
units, and, for traced runs, a span file.  The traced runs themselves fail
when the recomposed forward differs from ``Model.forward``, a required span
is missing or (on ``frame640``) the conv counts drift.  Last, the benchmark
must fail without printing a result in a directory that holds only
``BENCHMARK.json`` and ``bench/``.  Run from the repository root:

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SHRUNK = {"frame640": 160, "cli64": 64, "evalbatch320": 64}


def _run(cwd: Path, workload: str, trace: int, size: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
        "--seconds", "1", "--trace", str(trace), "--size", str(size), "--max-requests", "3",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace, SHRUNK[workload])
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct {result['correct']}, failed {result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {set(got) ^ set(wanted)}")
    if trace and "\nspans: " not in proc.stdout:
        problems.append(f"{where}: no span file reported")
    return problems


def check_bare() -> list[str]:
    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "cli64", 0, 64)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["without the program the benchmark did not fail cleanly"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in SHRUNK:
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_bare()
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
