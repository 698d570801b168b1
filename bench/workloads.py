"""Seeded job lists for the two benchmark workloads.

A job is one public-API call that answers one question: one
``verify_sweep`` cell, one ``falsify`` case, one ``grid_scan``. Each job
carries a check of the mathematical verdict of its result and the exact
span counts the tracer must see while it runs. Jobs call the package
through module attributes at call time, so traced runs reach the wrapped
functions.

Workloads, and why each was chosen:

* ``wide_sweep``: the sweeps. Sampled soundness and Schur certification
  as wide vectorized batches (10^3 to 2.4 x 10^4 rows, the largest angle
  array beyond the L2 cache), the n = 4 lattice walk of ``grid_scan``, the
  report round trip, and high-precision sweeps in which every sample of a
  planted sign-flipped entry is re-adjudicated in 50-digit mpmath, plus
  single-polygon ``evaluate_exact`` over every (entry, kind, params)
  combination. No descent runs here.
* ``narrow_descent``: ``bonnesen search`` split into per-(entry, kind, n)
  ``minimize_slack`` and ``grid_scan`` jobs with ``search_sweep``'s seeds
  and defaults except for fewer starts, plus ``falsify`` at a fixed
  budget. Nearly every ``evaluate_batch`` call has one row; no wide batch
  or mpmath work to speak of.

``FULL`` sizes a pass to about 5 s on a 2-CPU Xeon, so that a 50 s run
makes six or more: a job's latency is the shortest of its passes (see
``run.py``), and the more passes, the likelier one of them runs while
the host is quiet. ``TINY`` is for the self-test.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from bonnesen import (
    cli,
    extremal_search,
    inequality_catalog as catalog,
    reporting,
    verification,
)
from bonnesen.polygon_core import (
    PolygonKind,
    PolygonModel,
    make_angle_vector,
    regular_angles,
)

KINDS = (PolygonKind.TANGENTIAL, PolygonKind.CYCLIC)
#: Kind index that ``search_sweep`` appends to its seeds.
KIND_INDEX = {PolygonKind.TANGENTIAL: 0, PolygonKind.CYCLIC: 1}

# search_sweep's default anomaly thresholds.
SLACK_TOL = 1e-8
MISS_TOL = 1e-6
DISTANCE_TOL = 1e-3

#: Grid minima and exact slacks below -this times the scale fail.
NEGATIVE_RTOL = 1e-10


@dataclass(frozen=True)
class Job:
    name: str
    call: Callable[[dict], object]  # pass state -> result
    check: Callable[[object], str | None]  # result -> failure reason, None if right
    expect: dict = field(default_factory=dict)  # tracer counter -> exact delta
    expect_min: dict = field(default_factory=dict)  # tracer counter -> minimum delta


FULL = {
    # The largest verify chunk makes a 2.2 MiB angle array at n = 12,
    # beyond the 2 MiB L2 cache of the host the sizes were tuned on.
    "verify_n": range(3, 13), "verify_samples": (1_200, 2_400, 4_800, 24_000),
    "certify_n": range(3, 9), "certify_alphas": (1, 2, 3), "certify_chunks": 2,
    "certify_samples": 6_400,
    "grid_alphas": (1, 2, 3), "grid_ks": (2, 3), "grid_resolution": 200,
    "search_n": (3, 4, 5), "search_starts": 3, "search_grid_resolution": 100,
    "search_grid_n_max": 4, "falsify_n": (3, 4), "falsify_budget": 750,
    "planted_budget": 2000,
    "adjudicate_n": range(3, 9), "adjudicate_samples": range(29, 101, 9),
    "exact_alphas": (1, 2, 3), "exact_ks": (2, 3), "exact_n": range(3, 9),
}

TINY = {
    "verify_n": (3, 4), "verify_samples": (200,),
    "certify_n": (3,), "certify_alphas": (1,), "certify_chunks": 1,
    "certify_samples": 300,
    "grid_alphas": (1,), "grid_ks": (2,), "grid_resolution": 24,
    "search_n": (3,), "search_starts": 2, "search_grid_resolution": 24,
    "search_grid_n_max": 4, "falsify_n": (4,), "falsify_budget": 60,
    "planted_budget": 400,
    "adjudicate_n": (3,), "adjudicate_samples": (10,),
    "exact_alphas": (1,), "exact_ks": (2,), "exact_n": (3,),
}


def interleave(*groups: list[Job]) -> list[Job]:
    """Spread each group's jobs evenly over the pass.

    Run back to back, a group of short jobs would sample the machine's
    speed over a fraction of a second, and the latency percentiles would
    swing with it; spread out, every group samples the whole pass.
    """
    keyed = [((i + 0.5) / len(g), gi, job) for gi, g in enumerate(groups)
             for i, job in enumerate(g)]
    return [job for _, _, job in sorted(keyed, key=lambda t: t[:2])]


def cases():
    """The 21 (entry index, entry, kind) cases, in ``search_sweep`` order."""
    return [(i, e, kind) for i, e in enumerate(catalog.list_entries())
            for kind in sorted(e.kinds, key=lambda kk: kk.value)]


def search_params(entry, alpha=1, k=2):
    """The (alpha, k) ``search_sweep`` uses for an entry at its defaults."""
    p = entry.params
    return p.validate(alpha if p.uses_alpha and p.alpha_fixed is None else None,
                      k if p.uses_k and p.k_fixed is None else None)


# ----------------------------------------------------------------- checks

def _no_violations(result):
    _, violations = result
    return None if violations == 0 else f"{violations} violation(s)"


def _no_mismatches(result):
    _, mismatches = result
    return None if mismatches == 0 else f"{mismatches} classification mismatch(es)"


def _grid_check(entry, kind, n, alpha, k):
    # The minimum lies at or next to the regular polygon, so the terms'
    # magnitude there bounds the round-off of the grid minimum.
    regular = PolygonModel(kind, 1.0, regular_angles(n, math.pi))
    floor = -NEGATIVE_RTOL * catalog.evaluate(entry, regular, alpha, k).scale

    def check(scan):
        if scan.grid_min_slack < floor:
            return f"grid minimum {scan.grid_min_slack!r} < {floor!r}"
        off = max(abs(v - math.pi / n) for v in scan.grid_argmin.values)
        if off > scan.step * (1 + 1e-9):
            return f"grid argmin {off:.3e} from regular, step {scan.step:.3e}"
        return None
    return check


def _search_check(res):
    if res.best_slack < -SLACK_TOL:
        return f"negative best slack {res.best_slack!r}"
    if res.best_slack > MISS_TOL:
        return f"best slack {res.best_slack!r} above the miss tolerance"
    if abs(res.best_slack) <= SLACK_TOL and res.distance_to_regular > DISTANCE_TOL:
        return f"equality {res.distance_to_regular:.3e} away from regular"
    return None


def _survives(result):
    return None if result is None else f"counterexample {result.angles.values}"


def _caught(result):
    if result is None:
        return "planted violation not caught"
    if not result.slack_exact < -extremal_search.COUNTEREXAMPLE_RTOL * result.scale:
        return f"counterexample not certified: exact slack {result.slack_exact!r}"
    return None


def _adjudication_check(fault_id, samples):
    def check(result):
        rows, confirmed = result
        for row in rows:
            want = samples if row["entry_id"] == fault_id else 0
            if row["violations"] != want:
                return f"{row['entry_id']}: {row['violations']} violations, want {want}"
        if confirmed != samples:
            return f"{confirmed} confirmed violations, want {samples}"
        return None
    return check


def _exact_check(rec):
    if rec.slack < -NEGATIVE_RTOL * rec.scale:
        return f"exact slack {rec.slack!r} below -{NEGATIVE_RTOL} * scale {rec.scale!r}"
    return None


# ------------------------------------------------------------- workloads

def wide_sweep(seed: int, size: dict, work_dir) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    verify_jobs, certify_jobs, grid_jobs = [], [], []

    def verify(kind, n, chunk, samples):
        def call(state):
            result = verification.verify_sweep(
                kinds=(kind,), n_set=(n,), samples=samples, seed=[seed, chunk])
            state.setdefault("verify_rows", []).extend(result[0])
            return result
        return call

    for kind in KINDS:
        for n in size["verify_n"]:
            for chunk, samples in enumerate(size["verify_samples"]):
                verify_jobs.append(Job(
                    f"verify/{kind.value}/n{n}/c{chunk}", verify(kind, n, chunk, samples),
                    _no_violations,
                    {"verification.verify_sweep.calls": 1,
                     "polygon_core.sample_simplex_batch.calls": 1}))

    certify_calls = (len(verification.CONVEX_SIDE_FAMILIES)
                     + 2 * len(verification.CONCAVE_SIDE_FAMILIES))  # k in (2, 3)
    for n in size["certify_n"]:
        for a in size["certify_alphas"]:
            for chunk in range(size["certify_chunks"]):
                certify_jobs.append(Job(
                    f"certify/n{n}/a{a}/c{chunk}",
                    lambda state, n=n, a=a, chunk=chunk: verification.certification_grid(
                        n_set=(n,), alpha_set=(a,), k_set=(2, 3),
                        samples=size["certify_samples"], seed=[seed, chunk],
                        include_probe=False),
                    _no_mismatches,
                    {"verification.certification_grid.calls": 1,
                     "schur_certifier.certify.calls": certify_calls,
                     "polygon_core.sample_simplex_batch.calls": certify_calls}))

    for _, entry, kind in cases():
        p = entry.params
        a = int(rng.choice(size["grid_alphas"])) if p.uses_alpha and p.alpha_fixed is None else None
        k = int(rng.choice(size["grid_ks"])) if p.uses_k and p.k_fixed is None else None
        grid_jobs.append(Job(
            f"grid/{entry.id}/{kind.value}/n4",
            lambda state, entry=entry, kind=kind, a=a, k=k: extremal_search.grid_scan(
                entry, 4, alpha=a, k=k, resolution=size["grid_resolution"], kind=kind),
            _grid_check(entry, kind, 4, a, k),
            {"extremal_search.grid_scan.calls": 1}))

    path = str(work_dir / "wide_sweep-report.json")

    def report(state):
        rows = state.get("verify_rows", [])
        doc = reporting.ReportDocument(
            command="verify", config={"samples": list(size["verify_samples"])},
            results=rows, seed=seed, samples=None, precision_mode="standard")
        reporting.write_json(doc, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["report", path])
        return {"exit": code, "text": out.getvalue(), "rows": len(rows)}

    def report_check(result):
        if result["exit"] != 0 or "(consistent)" not in result["text"]:
            return f"report exit {result['exit']}: {result['text']!r}"
        if f"rows: {result['rows']} " not in result["text"]:
            return f"report lost rows: {result['text']!r}"
        return None

    # The report covers every verify row of the pass, so it runs last.
    return interleave(verify_jobs, certify_jobs, grid_jobs,
                      *adjudication_jobs(seed, size)) + [Job(
        "report/verify", report, report_check,
        {"cli.main.calls": 1, "reporting.render_json.calls": 1,
         "reporting.determinism_hash.calls": 2})]


def narrow_descent(seed: int, size: dict, work_dir=None) -> list[Job]:
    minimize_jobs, scan_jobs = [], []
    for e_idx, entry, kind in cases():
        a, k = search_params(entry)
        for n in size["search_n"]:
            minimize_jobs.append(Job(
                f"minimize/{entry.id}/{kind.value}/n{n}",
                lambda state, entry=entry, kind=kind, n=n, a=a, k=k, s=[seed, e_idx, KIND_INDEX[kind], n]:
                    extremal_search.minimize_slack(
                        entry, n, alpha=a, k=k, starts=size["search_starts"], seed=s, kind=kind),
                _search_check,
                {"extremal_search.minimize_slack.calls": 1}))
            if n <= size["search_grid_n_max"]:
                scan_jobs.append(Job(
                    f"scan/{entry.id}/{kind.value}/n{n}",
                    lambda state, entry=entry, kind=kind, n=n, a=a, k=k:
                        extremal_search.grid_scan(
                            entry, n, alpha=a, k=k,
                            resolution=size["search_grid_resolution"], kind=kind),
                    _grid_check(entry, kind, n, a, k),
                    {"extremal_search.grid_scan.calls": 1}))

    # Falsify at two n puts the median job among the minimize and falsify
    # jobs; with falsify at one n it falls on the gap between the n = 3
    # and the n = 4 minimize jobs and jumps from one to the other.
    falsify_jobs = [
        falsify_job(entry, kind, n, size["falsify_budget"], [seed, i])
        for i, (n, (_, entry, kind)) in enumerate(itertools.product(size["falsify_n"], cases()))]

    planted = catalog.sign_flipped("BASIC")
    falsify_jobs.append(Job(
        "falsify/BASIC-FLIPPED/tangential/n3",
        lambda state, s=[seed, len(falsify_jobs)]: extremal_search.falsify(
            planted, 3, budget_evals=size["planted_budget"], seed=s),
        _caught,
        {"extremal_search.falsify.calls": 1}))
    return interleave(minimize_jobs, scan_jobs, falsify_jobs)


def falsify_job(entry, kind, n, budget, seed) -> Job:
    """A ``falsify`` job on an entry taken to be true: it must find nothing."""
    return Job(
        f"falsify/{entry.id}/{kind.value}/n{n}",
        lambda state: extremal_search.falsify(
            entry, n, budget_evals=budget, seed=seed, kind=kind),
        _survives,
        {"extremal_search.falsify.calls": 1, "inequality_catalog.evaluate_exact.calls": 0},
        {"extremal_search.falsify>inequality_catalog.evaluate_batch.rows": budget})


def _random_polygon(rng, kind, n, margin=1e-3):
    while True:
        theta = rng.dirichlet(np.ones(n)) * math.pi
        if (theta > margin).all() and (theta < math.pi / 2 - margin).all():
            break
    theta *= math.pi / math.fsum(theta)
    return PolygonModel(kind, 1.0, make_angle_vector(theta, math.pi))


def adjudication_jobs(seed: int, size: dict) -> tuple[list[Job], list[Job]]:
    """High-precision sweep cells and single-polygon ``evaluate_exact`` jobs."""
    fault = catalog.sign_flipped("BASIC")
    adjudicate_jobs, exact_jobs = [], []
    # Chunks of unequal size spread the job latencies out; with equal
    # chunks they bunch by (kind, n), and a percentile that falls between
    # two bunches jumps from one to the other with the machine's speed.
    for kind in KINDS:
        for n in size["adjudicate_n"]:
            for chunk, samples in enumerate(size["adjudicate_samples"]):
                adjudicate_jobs.append(Job(
                    f"adjudicate/{kind.value}/n{n}/c{chunk}",
                    lambda state, kind=kind, n=n, chunk=chunk, samples=samples:
                        verification.verify_sweep(
                            kinds=(kind,), n_set=(n,), samples=samples, seed=[seed, chunk],
                            extra_entries=(fault,), high_precision=True),
                    _adjudication_check(fault.id, samples),
                    {"verification.verify_sweep.calls": 1,
                     "inequality_catalog.evaluate_exact.calls": samples,
                     "highprec.measure_exact.calls": samples}))

    # One polygon per combination, its n cycling through 3..8. These few
    # sub-millisecond jobs stay far below the median, whose latency would
    # swing with the machine's speed from moment to moment.
    rng = np.random.default_rng([seed, 2])
    combos = [(entry, kind, a, k) for kind in KINDS for entry in catalog.list_entries(kind)
              for a, k in entry.params.combos(size["exact_alphas"], size["exact_ks"])]
    for i, (entry, kind, a, k) in enumerate(combos):
        n = size["exact_n"][i % len(size["exact_n"])]
        poly = _random_polygon(rng, kind, n)
        exact_jobs.append(Job(
            f"exact/{entry.id}/{kind.value}/a{a}k{k}/n{n}",
            lambda state, entry=entry, poly=poly, a=a, k=k:
                catalog.evaluate_exact(entry, poly, a, k),
            _exact_check,
            {"inequality_catalog.evaluate_exact.calls": 1,
             "highprec.measure_exact.calls": 1}))
    return adjudicate_jobs, exact_jobs


WORKLOADS = {
    "wide_sweep": wide_sweep,
    "narrow_descent": narrow_descent,
}
