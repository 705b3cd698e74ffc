"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root:

    python3 bench/smoke.py

For each workload it runs a few jobs untraced and traced, and checks that
every metric named in BENCHMARK.json is printed (end-to-end untraced,
per-layer traced), that every output passed its check, and that the traced
runs together emit a span for every function the tracer wraps.  Exits 1 on
the first list of problems.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_JOBS = 10
SEED = 0


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--jobs", str(TINY_JOBS)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("FAIL: BENCHMARK.json workloads differ from workloads.WORKLOADS")
        return 1
    problems, seen_spans = [], set()
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            proc = run(workload, trace)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: outputs failed their checks")
            printed = {line.split()[1] for line in lines if line.startswith("metric ")}
            for name in expected[trace]:
                if name not in result["metrics"]:
                    problems.append(f"{label}: {name} missing from the JSON result")
                if name not in printed:
                    problems.append(f"{label}: {name} not printed")
            extra = set(result["metrics"]) - set(expected[trace])
            if extra:
                problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
            # "spans NAME = COUNT", printed by the traced run
            seen_spans.update(line.split()[1] for line in lines
                              if line.startswith("spans ") and int(line.split()[-1]) > 0)
            print(f"ran {label}: {result['attempted']} jobs")
    for name in SPAN_NAMES:
        if name not in seen_spans:
            problems.append(f"no span for wrapped function {name}")
    for p in problems:
        print(f"FAIL: {p}")
    if problems:
        return 1
    print(f"PASS: all metrics printed, spans for all {len(SPAN_NAMES)} wrapped functions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
