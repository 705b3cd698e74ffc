"""Benchmark quarticvp end to end through its command line.

Run from the repository root:

    python3 bench/run.py --workload vp_scan --seed 1 --seconds 15 --trace 0

One client, closed loop, one process: each job calls ``quarticvp.cli.main``
in-process with the quartic on stdin, and the next job starts when it
returns.  Jobs run in whole passes until the timed work reaches
``--seconds`` at reference speed.  Job times are reported at a reference CPU speed measured
while they run (speed.py); the wall-clock figures are printed next to them.
Every output is checked after the clock stops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
pass untraced, replays it with every wrapped function timed (tracer.py), and
prints the per-layer metrics with the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from speed import SpeedSampler  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

SETUP_PROBES = 3
END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# how many samples must lie beyond the reported tail percentile
TAIL_BEYOND = 10


@dataclass
class Record:
    job: Job
    wall: float  # seconds on the clock, sampler time excluded
    latency: float  # seconds at the reference speed (speed.py)
    outcome: str  # ok, refused or fail
    result: object
    canonical: str
    problem: str | None


def prepare(name: str, seed: int):
    """Everything before the first timed job: import, inputs, warm-up."""
    import quarticvp.cli  # noqa: F401
    import quarticvp.generator  # noqa: F401
    import quarticvp.tables  # noqa: F401

    workload = WORKLOADS[name](seed)
    report = workload.load()
    with SpeedSampler() as sampler:
        run_job(workload, workload.warmup_job(), sampler)
    return workload, report


def run_job(workload, job: Job, sampler: SpeedSampler) -> Record:
    from quarticvp import cli

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(job.stdin)
    error = None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = sampler.mark()
            try:
                code = cli.main(list(job.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an uncaught error fails this job only
                code, error = None, exc
            stop = sampler.mark()
    finally:
        sys.stdin = saved_stdin
    sampler.sample()
    wall, latency = sampler.reference_time(start, stop)
    stderr = err.getvalue().strip()
    result, problem, outcome = None, None, "fail"
    if error is not None:
        problem = "uncaught " + "".join(traceback.format_exception_only(error)).strip()
        canonical = json.dumps({"uncaught": type(error).__name__})
    elif code == 0:
        try:
            obj = json.loads(out.getvalue())
            result = workload.reduce(obj)
            outcome = "ok"
            canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
            canonical = json.dumps({"unreadable": out.getvalue()[:200]})
    elif workload.allow_refusal and code == 3 and stderr.startswith("error: could not realize"):
        outcome = "refused"
        canonical = json.dumps({"refused": stderr})
    else:
        problem = f"exit {code}: {stderr[-300:]}"
        canonical = json.dumps({"exit": code, "stderr": stderr})
    return Record(job, wall, latency, outcome, result, canonical, problem)


def run_jobs(workload, jobs, sampler, tracer=None) -> list:
    records = []
    for job in jobs:
        if tracer is not None:
            tracer.begin_job()
        records.append(run_job(workload, job, sampler))
        if tracer is not None:
            tracer.end_job()
    return records


def timed_passes(workload, seconds: float, max_jobs: int | None, sampler) -> list:
    """Whole passes until the timed work reaches ``seconds`` at reference
    speed (at least one), so the number of jobs does not follow the host."""
    if max_jobs is not None:
        return [run_jobs(workload, workload.pass_jobs(0)[:max_jobs], sampler)]
    passes, elapsed = [], 0.0
    while True:
        records = run_jobs(workload, workload.pass_jobs(len(passes)), sampler)
        passes.append(records)
        elapsed += sum(r.latency for r in records)
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def setup_probe(args, sampler) -> tuple:
    """(wall, reference-speed) seconds from spawning a fresh interpreter
    until its ``prepare`` is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        sampler.sample()
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return t1 - t0, (t1 - t0) * sampler.speed_between(t0, t1)


def verify(workload, records) -> list:
    """Check every output and refusal; returns (job id, reason) for each
    failed job."""
    failures = []
    for r in records:
        problem = r.problem
        if problem is None:
            try:
                problem = workload.verify(r.job, r.result)
            except Exception as exc:  # a check that cannot run fails the job
                problem = "check raised " + "".join(traceback.format_exception_only(exc)).strip()
        if problem is not None:
            failures.append((r.job.id, problem))
    return failures


def digest(records) -> str:
    h = hashlib.sha256()
    for r in sorted(records, key=lambda r: r.job.id):
        h.update(f"{r.job.id}\n{r.canonical}\n".encode())
    return h.hexdigest()


def job_metrics(latencies) -> dict:
    """Throughput, median and tail of per-job latencies in seconds.

    The tail is the latency at the highest percentile with TAIL_BEYOND
    samples beyond it (the maximum when there are fewer jobs than that).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    return {
        "jobs_per_s": n / sum(ordered),
        "job_p50_ms": statistics.median(ordered) * 1000,
        "job_tail_ms": ordered[n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else -1] * 1000,
    }


def tail_percentile(n: int) -> tuple:
    """(percentile, samples beyond it) of the reported tail for n jobs."""
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return 100.0 * (n - beyond) / n, beyond


def header(args):
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "quarticvp").glob("*.py"))
    )
    print(f"# quarticvp bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# git={sha} python={platform.python_version()} nproc={os.cpu_count()} "
          f"src_lines={src_lines}")


def report_failures(failures):
    for job_id, reason in failures:
        print(f"FAILED {job_id}: {reason}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, help="run only the first N jobs of one pass")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quarticvp" / "__init__.py").is_file():
        print(f"error: no quarticvp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        prepare(args.workload, args.seed)
        print("READY", flush=True)
        return 0

    header(args)
    with SpeedSampler() as sampler:
        setup = [setup_probe(args, sampler) for _ in range(SETUP_PROBES)]
    workload, pool_report = prepare(args.workload, args.seed)
    for line in pool_report:
        print(line)

    if args.trace:
        return traced_run(args, workload, pool_report)

    with SpeedSampler() as sampler:
        passes = timed_passes(workload, args.seconds, args.jobs, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = [r for p in passes for r in p]
    failures = verify(workload, records)
    metrics = job_metrics([r.latency for r in records])
    metrics["setup_s"] = statistics.median(ref for _, ref in setup)
    metrics["peak_rss_mb"] = peak_rss_mb
    raw = job_metrics([r.wall for r in records])
    raw["setup_s"] = statistics.median(wall for wall, _ in setup)
    refused = sum(r.outcome == "refused" for r in records)
    n = len(records)
    print(f"passes={len(passes)} jobs={n} refused={refused} "
          f"timed_wall_s={sum(r.wall for r in records):.3f} "
          f"mean_speed={sum(r.latency for r in records) / sum(r.wall for r in records):.3f}")
    units = dict(END_TO_END)
    for name, _ in END_TO_END:
        at_wall = f"  (wall clock: {raw[name]:.6g})" if name in raw else ""
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}{at_wall}")
    pct, beyond = tail_percentile(n)
    print(f"  job_tail_ms is p{pct:.1f} of {n} jobs ({beyond} beyond it)")
    print(f"  setup_s is the median of {SETUP_PROBES} fresh processes: "
          + ", ".join(f"{ref:.3f}" for _, ref in setup))
    print(f"metric failed_frac = {len(failures) / len(records):.6g} "
          f"({len(failures)} of {len(records)} jobs)")
    report_failures(failures)
    print(f"digest {workload.name} pass 0 ({len(passes[0])} jobs): sha256:{digest(passes[0])}")
    return emit(not failures and not pool_report, len(records), len(failures),
                {name: (metrics[name], units[name]) for name, _ in END_TO_END})


def traced_run(args, workload, pool_report) -> int:
    jobs = workload.pass_jobs(0)[: args.jobs]
    tracer = Tracer()
    with SpeedSampler() as sampler:
        plain = run_jobs(workload, jobs, sampler)
        with tracer.installed():
            traced = run_jobs(workload, jobs, sampler, tracer)
    overhead = sum(r.latency for r in traced) / sum(r.latency for r in plain) - 1
    failures = verify(workload, plain + traced)
    metrics = tracer.metrics(overhead)
    units = dict(PER_LAYER)
    print(f"jobs={len(jobs)} untraced_s={sum(r.latency for r in plain):.3f} "
          f"traced_s={sum(r.latency for r in traced):.3f} (reference speed)")
    for name in tracer.missing:
        print(f"not traced (missing): {name}")
    for name, count in tracer.span_counts().items():
        print(f"spans {name} = {count}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    report_failures(failures)
    print(f"digest {workload.name} pass 0 untraced: sha256:{digest(plain)}")
    print(f"digest {workload.name} pass 0 traced:   sha256:{digest(traced)}")
    same = digest(plain) == digest(traced)
    return emit(same and not failures and not pool_report, len(plain) + len(traced),
                len(failures), {name: (metrics[name], units[name]) for name, _ in PER_LAYER})


def emit(correct, attempted, failed, metrics) -> int:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
