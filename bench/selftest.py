"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit on
every workload, traced and untraced; that traced and untraced runs, and a
repeat with the same seed, give the same result digests; that a job which
takes ``sign_flipped("BASIC")`` for a true inequality drives the failed
share above 0; and that the runner refuses, without a result line, in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_metrics(spec) -> list[str]:
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench("--workload", workload, "--seed", str(SEED), "--seconds",
                             "0", "--trace", str(trace), "--tiny")
            if proc.returncode != 0:
                errors.append(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                errors.append(f"{workload} trace {trace}: metrics {got} != {want}")
            for name, unit in want.items():
                if not any(line.split()[:1] == [name] and line.endswith(" " + unit)
                           for line in lines):
                    errors.append(f"{workload} trace {trace}: no line for {name} [{unit}]")
            if not result["correct"] or result["failed"]:
                errors.append(f"{workload} trace {trace}: failed jobs\n{proc.stdout}")
        digests = [json.loads((ROOT / ".bench_work" / f"{workload}-seed{SEED}-trace{t}.json")
                              .read_text())["digest"] for t in (0, 1)]
        if digests[0] != digests[1]:
            errors.append(f"{workload}: untraced digest {digests[0]} != traced {digests[1]}")
    return errors


def check_planted_failure() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import worker
    import workloads
    from bonnesen import inequality_catalog, polygon_core

    flipped = inequality_catalog.sign_flipped("BASIC")
    jobs = [workloads.falsify_job(flipped, polygon_core.PolygonKind.TANGENTIAL, 3, 400, [SEED])]
    record = worker.run(jobs, 0)
    share = len(record["failures"]) / record["attempted"]
    return [] if share > 0 else [f"flipped BASIC taken as true: failed share {share}"]


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("--workload", "wide_sweep", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, output {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    for name, check in (("metrics, units and digests", lambda: check_metrics(spec)),
                        ("planted entry taken as true fails", check_planted_failure),
                        ("bare directory refused", check_bare_directory)):
        errors = check()
        failed += bool(errors)
        print(f"[{'FAIL' if errors else 'PASS'}] {name}")
        for e in errors:
            print("   ", e)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
