"""Run one workload's job list in this process and print the raw record.

Started by ``run.py`` once per workload run, with ``src`` on PYTHONPATH
and BLAS/OpenMP threads at 1. Prints one JSON line: per-pass wall times,
per-job result digests and job latencies, the failed jobs with their
reasons, the peak RSS, the set-up probe times and, when traced, the
tracer counters.

    python3 bench/worker.py --workload wide_sweep --seed 7 --seconds 20 --min-passes 3 --setup
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent

#: Set-up probes timed before the first pass and after each pass.
PROBES_PER_GAP = 2

# Cold interpreter to a first float slack and a first exact slack.
SETUP_PROBE = """\
import math
from bonnesen import (PolygonKind, PolygonModel, evaluate, evaluate_exact,
                      make_angle_vector)
poly = PolygonModel(PolygonKind.TANGENTIAL, 1.0,
                    make_angle_vector([1.2, 1.0, math.pi - 2.2], math.pi))
fast = evaluate("BASIC", poly).slack
exact = evaluate_exact("BASIC", poly).slack
if not (fast > 0 and abs(fast - exact) <= 1e-9 * exact):
    raise SystemExit(f"setup probe: float {fast!r} vs exact {exact!r}")
"""


def setup_probe() -> float:
    """Seconds from starting a fresh interpreter to the end of ``SETUP_PROBE``."""
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-c", SETUP_PROBE], stdout=subprocess.DEVNULL,
                   check=True, timeout=60)
    return (perf_counter_ns() - t0) / 1e9


def _canonical(value):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if hasattr(value, "tolist"):
        return value.tolist()
    return repr(value)


def digest(result) -> str:
    """sha256 of a job result; floats enter with all their digits."""
    blob = json.dumps(result, sort_keys=True, default=_canonical)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_pass(jobs, tracer=None):
    """Run every job once; returns (wall ns, latencies ns, digests, failures)."""
    state: dict = {}
    latencies, digests, failures = [], {}, []
    start = perf_counter_ns()
    for job in jobs:
        before = dict(tracer.counts) if tracer else None
        t0 = perf_counter_ns()
        try:
            result = job.call(state)
        except Exception:  # a job that raises is a failed job, not a failed run
            latencies.append(perf_counter_ns() - t0)
            failures.append({"job": job.name, "reason": traceback.format_exc(limit=3)})
            continue
        latencies.append(perf_counter_ns() - t0)
        digests[job.name] = digest(result)
        reason = job.check(result)
        if reason is None and tracer is not None:
            reason = _count_mismatch(job, before, tracer.counts)
        if reason is not None:
            failures.append({"job": job.name, "reason": reason})
    return perf_counter_ns() - start, latencies, digests, failures


def _count_mismatch(job, before, after):
    """Compare the tracer counters a job moved against the counts it declares."""
    for key, want in job.expect.items():
        got = after.get(key, 0) - before.get(key, 0)
        if got != want:
            return f"tracer saw {got} for {key}, expected {want}"
    for key, least in job.expect_min.items():
        got = after.get(key, 0) - before.get(key, 0)
        if got < least:
            return f"tracer saw {got} for {key}, expected at least {least}"
    return None


def run(jobs, seconds: float, tracer=None, min_passes: int = 1, setup=False) -> dict:
    """Run passes until ``seconds`` would be exceeded; at least ``min_passes``.

    With ``setup``, set-up probes run before the first pass and after each
    pass, so that they sample the host over the whole run, as the jobs do.
    """
    passes, failures, setup_s = [], [], []
    elapsed = 0
    while True:
        if setup:
            setup_s += [setup_probe() for _ in range(PROBES_PER_GAP)]
        wall, lat, digests, fails = run_pass(jobs, tracer)
        passes.append({"wall_s": wall / 1e9, "digests": digests,
                       "latencies_ms": [ns / 1e6 for ns in lat]})
        failures += [dict(f, **{"pass": len(passes) - 1}) for f in fails]
        elapsed += wall
        if (len(passes) >= min_passes
                and (elapsed + elapsed / len(passes)) / 1e9 > seconds):
            break
    if setup:
        setup_s += [setup_probe() for _ in range(PROBES_PER_GAP)]
    return {
        "setup_s": setup_s,
        "jobs_per_pass": len(jobs),
        "passes": passes,
        "failures": failures,
        "attempted": sum(len(p["latencies_ms"]) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--setup", action="store_true",
                        help="time set-up probes between the passes")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    import bonnesen

    if Path(bonnesen.__file__).resolve().parent != ROOT / "src" / "bonnesen":
        print(f"bonnesen imported from {bonnesen.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    work_dir = ROOT / ".bench_work"
    work_dir.mkdir(exist_ok=True)
    size = workloads.TINY if args.tiny else workloads.FULL
    jobs = workloads.WORKLOADS[args.workload](args.seed, size, work_dir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    record = run(jobs, args.seconds, tracer, args.min_passes, args.setup)
    if tracer is not None:
        record["counts"] = dict(tracer.counts)
        record["bindings"] = tracer.bindings
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
