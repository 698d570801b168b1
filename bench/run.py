"""Benchmark runner for the bonnesen verification lab.

    python3 bench/run.py --workload wide_sweep --seed 7 --seconds 50 --trace 0
    python3 bench/run.py                  # every workload, one table

Each workload run starts one single-threaded worker process (BLAS and
OpenMP threads at 1) that imports the package from ``src/`` of this
checkout and runs the workload's seeded job list (see
``bench/workloads.py``) for about ``--seconds``, a pass at a time.

With ``--trace 0`` the worker makes at least ``PASSES`` passes. A job's
latency is the shortest of its passes; ``job_p50_ms`` and ``job_p90_ms``
are percentiles over the jobs and ``wall_s`` is their sum, the time of
the job list with each job at its shortest. Before, between and after
the passes the worker times fresh interpreters to a first float slack
and a first exact slack; ``setup_s`` is their median. With ``--trace 1``
the runner runs one untraced and one traced pass in two processes,
checks that their result digests agree and prints the per-layer metrics
and ``trace.overhead_s``. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A job fails when it raises, when its verdict is wrong, when
its result digest differs between passes or processes, or (traced) when
the span counts differ from those it declares. The full record, with
provenance, is written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("wide_sweep", "narrow_descent")

#: Passes an untraced run makes at least. A job's latency is the shortest
#: of its passes: its work is the same in every pass, so any longer time is
#: another tenant of the host slowing it down, in spells of seconds to
#: tens of seconds that a median over a few passes does not outvote.
PASSES = 6

#: A workload run gives up, killing the process it waits on, this long
#: after it starts.
RUN_LIMIT_S = 170

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in _THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _child(cmd: list[str], deadline: float) -> str:
    # A session of its own, so that a timeout kills the worker together
    # with any set-up probe it is running.
    with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s in {cmd[1]}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n{err}")
    return out


def run_worker(workload: str, seed: int, seconds: float, trace: int, tiny: bool,
               deadline: float, min_passes: int = 1, setup: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--min-passes", str(min_passes)]
    if setup:
        cmd.append("--setup")
    out = _child(cmd + (["--tiny"] if tiny else []), deadline)
    return json.loads(out.strip().splitlines()[-1])


def digest_mismatches(passes: list[dict]) -> list[str]:
    """(pass, job) instances whose result digest differs from the first pass's."""
    first = passes[0]["digests"]
    return [f"{name} (pass {i})" for i, p in enumerate(passes[1:], 1)
            for name, d in p["digests"].items() if name in first and d != first[name]]


def workload_digest(digests: dict) -> str:
    blob = "".join(f"{name}:{d}\n" for name, d in sorted(digests.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


def job_latencies(passes: list[dict]) -> list[float]:
    """Each job's latency in ms: the shortest of its runs over the passes."""
    return [min(runs) for runs in zip(*(p["latencies_ms"] for p in passes))]


def end_to_end(record: dict, setup_s: float) -> dict:
    lat = job_latencies(record["passes"])
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": math.fsum(lat) / 1e3, "unit": "s"},
        "job_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "job_p90_ms": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MiB"},
    }


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "unknown"


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        l2 = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        l2 = "unknown"
    version = "unknown"
    for line in (SRC / "bonnesen" / "__init__.py").read_text().splitlines():
        if line.startswith("__version__"):
            version = line.split("=", 1)[1].strip().strip("\"'")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "bonnesen").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": _version("numpy"),
        "mpmath": _version("mpmath"), "bonnesen": version,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "l2": l2,
        "seed": seed, "commit": commit, "src_sha256": src.hexdigest(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False) -> dict:
    """One workload run; returns the full record, including ``result``."""
    deadline = monotonic() + RUN_LIMIT_S
    if not trace:
        record = run_worker(workload, seed, seconds, 0, tiny, deadline, PASSES, setup=True)
        setup_s = statistics.median(record["setup_s"])
        failures = record["failures"]
        mismatches = digest_mismatches(record["passes"])
        metrics = end_to_end(record, setup_s)
        attempted = record["attempted"]
    else:
        import tracer as tracing

        # One pass each: the traced counters then describe exactly one pass.
        plain = run_worker(workload, seed, 0, 0, tiny, deadline)
        record = run_worker(workload, seed, 0, 1, tiny, deadline)
        record["untraced"] = plain
        failures = plain["failures"] + record["failures"]
        mismatches = digest_mismatches(plain["passes"] + record["passes"])
        metrics = tracing.layer_metrics(record["counts"])
        metrics["trace.overhead_s"] = {
            "value": record["passes"][0]["wall_s"] - plain["passes"][0]["wall_s"],
            "unit": "s"}
        attempted = plain["attempted"] + record["attempted"]
    record["digest"] = workload_digest(record["passes"][0]["digests"])
    record["failures"] = failures
    record["digest_mismatches"] = mismatches
    failed = len(failures) + len(mismatches)
    record["failed_share"] = failed / attempted
    record["result"] = {"correct": failed == 0, "attempted": attempted,
                        "failed": failed, "metrics": metrics}
    return record


def print_summary(workload: str, record: dict) -> None:
    res = record["result"]
    print(f"== {workload}: {record['jobs_per_pass']} jobs per pass, "
          f"{len(record['passes'])} pass(es), digest {record['digest'][:16]}")
    for name, m in res["metrics"].items():
        print(f"  {name:<58} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_share':<58} {record['failed_share']:>16.6g} ratio"
          f"  ({res['failed']}/{res['attempted']} jobs)")
    for f in record["failures"][:10]:
        print(f"  FAILED {f['job']}: {f['reason'].strip()}")
    for name in record["digest_mismatches"][:10]:
        print(f"  FAILED {name}: result digest differs from the first run's")


def save(workload: str, seed: int, trace: int, record: dict, prov: dict) -> None:
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    record = dict(record, provenance=prov)
    with open(work / f"{workload}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bonnesen benchmark runner")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; the numbers mean nothing")
    args = parser.parse_args(argv)

    if not (SRC / "bonnesen" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'bonnesen'}", file=sys.stderr)
        return 2
    try:
        prov = provenance(args.seed)
        print("provenance " + json.dumps(prov, sort_keys=True))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            record = run_workload(workload, args.seed, args.seconds, args.trace,
                                  args.tiny)
            save(workload, args.seed, args.trace, record, prov)
            print_summary(workload, record)
            results[workload] = record["result"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
