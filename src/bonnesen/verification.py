"""Sweep drivers shared by the command-line front end and the test suite.

Three sweeps, one per verification mode:

  * verify_sweep: sampled soundness check of every catalog entry over a
    (kind, n, alpha, k) grid, aggregating per-cell minima and violations.
  * certification_grid: Schur classification of the two proof-side gap
    functions over a (family, n, alpha, k) grid, compared against the
    class each is expected to have.
  * search_sweep: slack minimization per entry with brute-force grid
    cross-checks for n <= GRID_N_MAX.

Each driver returns plain-dict rows ready for JSON or CSV serialization
plus an anomaly count that maps directly to the process exit code.
"""

from __future__ import annotations

import math

import numpy as np

from . import extremal_search, inequality_catalog as catalog, schur_certifier
from .analytic_inequalities import family
from .polygon_core import (DEFAULT_MARGIN, SWEEP_RADIUS, AngleVector, PolygonKind,
                           PolygonModel, measure_arrays, sample_simplex_batch, seed_parts)
from .records import EQUALITY_RTOL, VIOLATION_RTOL

_KIND_INDEX = {PolygonKind.TANGENTIAL: 0, PolygonKind.CYCLIC: 1}

#: search_sweep's anomaly thresholds: two slack tolerances relative to the
#: term scale, and a distance from the regular polygon in radians.
SLACK_RTOL, MISS_RTOL, DISTANCE_TOL = 1e-8, 1e-6, 1e-3
#: search_sweep cross-checks each descent against grid_scan up to this n.
GRID_N_MAX = 4


def verify_sweep(
    kinds=(PolygonKind.TANGENTIAL, PolygonKind.CYCLIC),
    n_set=range(3, 9),
    alpha_set=(1, 2, 3),
    k_set=(2, 3),
    samples: int = 10_000,
    seed=7,
    margin: float = DEFAULT_MARGIN,
    tolerance_rtol: float = VIOLATION_RTOL,
    extra_entries=(),
    high_precision: bool = False,
) -> tuple[list[dict], int]:
    """Sampled soundness sweep at R = 1; returns (rows, total certified violations).

    Violations are slack < -tolerance_rtol * max(1, |lhs|, |rhs|). In
    high-precision mode each float-level violation is re-evaluated with
    mpf arithmetic and only counted if it survives, so cancellation noise
    near the regular point cannot raise false alarms.

    Each (kind, n) sample batch is measured once and every entry and
    (alpha, k) is evaluated on that one context. A cell whose slack
    leaves the float range raises NonFiniteValue.
    """
    rows: list[dict] = []
    total_violations = 0
    for kind in kinds:
        entries = list(catalog.list_entries(kind)) + [
            e for e in extra_entries if e.applies_to(kind)
        ]
        cells = [(entry, a, kk) for entry in entries
                 for a, kk in entry.params.combos(alpha_set, k_set)]
        for n in n_set:
            pts = sample_simplex_batch(
                n, math.pi, margin, samples,
                seed=seed_parts(seed) + [_KIND_INDEX[kind], n],
            )
            ctx = measure_arrays(kind, SWEEP_RADIUS, pts)
            # Overflow is reported as NonFiniteValue, not as numpy's warning.
            with np.errstate(over="ignore", invalid="ignore"):
                for entry, a, kk in cells:
                    out = catalog.evaluate_batch(entry, kind, SWEEP_RADIUS, ctx, a, kk)
                    lhs, rhs, slack = out["lhs"], out["rhs"], out["slack"]
                    i_min = int(np.argmin(slack))
                    # A finite slack has finite sides: inf or nan in a side
                    # carries into the difference, and argmin finds a nan.
                    if not (math.isfinite(slack[i_min]) and math.isfinite(slack.max())):
                        raise catalog._overflow(entry, kind, n, a, kk)
                    side_scale = np.abs(lhs)
                    np.maximum(side_scale, np.abs(rhs), out=side_scale)
                    np.maximum(side_scale, 1.0, out=side_scale)
                    violating = slack < -tolerance_rtol * side_scale
                    violations = np.count_nonzero(violating)
                    if high_precision and violations:
                        violations = _confirm_exact(entry, kind, pts, a, kk,
                                                    np.flatnonzero(violating), tolerance_rtol)
                    eq_tol = EQUALITY_RTOL * side_scale
                    argmin_row = pts[i_min].tolist()
                    rows.append({
                        "entry_id": entry.id,
                        "citation": entry.citation,
                        "kind": kind.value,
                        "n": int(n),
                        "R": SWEEP_RADIUS,
                        "alpha": a,
                        "k": kk,
                        "samples": int(samples),
                        "min_slack": float(slack[i_min]),
                        "violations": int(violations),
                        "equality_hits": int(np.count_nonzero(np.abs(slack) <= eq_tol)),
                        "negative_lhs": int(np.count_nonzero(lhs < 0.0)),
                        "argmin": {
                            "lhs": float(lhs[i_min]),
                            "rhs": float(rhs[i_min]),
                            "slack": float(slack[i_min]),
                            "equality": bool(abs(slack[i_min]) <= eq_tol[i_min]),
                            "angle_hash": AngleVector(values=tuple(argmin_row),
                                                      total=math.pi).angle_hash(),
                            "angles": argmin_row,
                        },
                    })
                    total_violations += int(violations)
    return rows, total_violations


def _confirm_exact(entry, kind, pts, alpha, k, viol_idx, rtol) -> int:
    """How many of the rows ``viol_idx`` of ``pts`` stay violations at 50 digits."""
    confirmed = 0
    for row in pts[viol_idx].tolist():
        angles = AngleVector(values=tuple(row), total=math.pi)
        poly = PolygonModel(kind=kind, radius=SWEEP_RADIUS, angles=angles)
        rec = catalog.evaluate_exact(entry, poly, alpha, k)
        if rec.slack < -rtol * max(1.0, abs(rec.lhs), abs(rec.rhs)):
            confirmed += 1
    return confirmed


#: Families each proof side is certified with by default.
CONVEX_SIDE_FAMILIES = ("tan", "sec")
CONCAVE_SIDE_FAMILIES = ("tan", "csc")


def certification_grid(
    n_set=range(3, 9),
    alpha_set=(1, 2, 3),
    k_set=(2, 3),
    samples: int = 10_000,
    seed=7,
    include_probe: bool = True,
) -> tuple[list[dict], int]:
    """Schur certification over the stock grid; returns (rows, mismatches).

    The convex-side gap function must certify Schur-convex for tan and sec;
    the reverse-gap function must certify Schur-concave for tan and csc.
    The linear probe row is informational and never counts as a mismatch.
    """
    rows: list[dict] = []
    mismatches = 0
    base = seed_parts(seed)
    for n in n_set:
        for a in alpha_set:
            for name in CONVEX_SIDE_FAMILIES:
                F = schur_certifier.power_gap_function(family(name), n, a)
                verdict = schur_certifier.certify(F, math.pi, samples,
                                                  seed=base + [0, n, a, 0])
                match = verdict.classification == schur_certifier.Classification.SCHUR_CONVEX
                mismatches += 0 if match else 1
                rows.append(_certify_row("power_gap", name, n, a, None,
                                         "schur_convex", verdict, match))
            for kk in k_set:
                for name in CONCAVE_SIDE_FAMILIES:
                    F = schur_certifier.power_gap_reverse_function(family(name), n, a, kk)
                    verdict = schur_certifier.certify(F, math.pi, samples,
                                                      seed=base + [1, n, a, kk])
                    match = (verdict.classification
                             == schur_certifier.Classification.SCHUR_CONCAVE)
                    mismatches += 0 if match else 1
                    rows.append(_certify_row("power_gap_reverse", name, n, a, kk,
                                             "schur_concave", verdict, match))
    if include_probe:
        probe = schur_certifier.linear_function(4)
        verdict = schur_certifier.certify(probe, math.pi, min(samples, 1000), seed=base + [2])
        rows.append(_certify_row("probe", "linear", 4, None, None,
                                 "indeterminate", verdict,
                                 verdict.classification
                                 == schur_certifier.Classification.INDETERMINATE,
                                 informational=True))
    return rows, mismatches


def _certify_row(side, fam_name, n, alpha, k, expected, verdict, match,
                 informational=False):
    return {
        "function": side,
        "family": fam_name,
        "n": int(n),
        "alpha": None if alpha is None else int(alpha),
        "k": None if k is None else int(k),
        "expected": expected,
        "verdict": verdict.classification.value,
        "matches": bool(match),
        "worst_value": float(verdict.worst_value),
        "noise_floor": float(verdict.noise_floor),
        "samples": int(verdict.samples_checked),
        "informational": bool(informational),
    }


def search_sweep(
    n_set=(3, 4, 5),
    alpha: int = 1,
    k: int = 2,
    seed=7,
    starts: int = 20,
    kinds=(PolygonKind.TANGENTIAL, PolygonKind.CYCLIC),
    grid_resolution: int = 100,
    margin: float = DEFAULT_MARGIN,
) -> tuple[list[dict], int]:
    """Minimize every entry's slack; cross-check n <= GRID_N_MAX against the grid.

    An anomaly is a best slack below -SLACK_RTOL, one within SLACK_RTOL of
    zero at more than DISTANCE_TOL from the regular polygon, or one still
    above MISS_RTOL (the optimizer failed to reach the known zero
    minimum). The slack tolerances are relative: each is multiplied by
    the term scale (at least 1) of the judged point, the best point of the
    descent or the grid argmin, so float cancellation among large terms is
    not an anomaly. Returns (rows, anomalies).
    """
    rows: list[dict] = []
    anomalies = 0
    base = seed_parts(seed)
    for e_idx, entry in enumerate(catalog.list_entries()):
        for kind in sorted(entry.kinds, key=lambda kk: kk.value):
            if kind not in kinds:
                continue
            for n in n_set:
                want_a = alpha if (entry.params.uses_alpha
                                   and entry.params.alpha_fixed is None) else None
                want_k = k if (entry.params.uses_k
                               and entry.params.k_fixed is None) else None
                a, kk = entry.params.validate(want_a, want_k)
                res = extremal_search.minimize_slack(
                    entry, n, alpha=a, k=kk, starts=starts,
                    seed=base + [e_idx, _KIND_INDEX[kind], n], kind=kind,
                    margin=margin,
                )
                row = {
                    "entry_id": entry.id,
                    "kind": kind.value,
                    "n": int(n),
                    "alpha": a,
                    "k": kk,
                    "best_slack": float(res.best_slack),
                    "distance_to_regular": float(res.distance_to_regular),
                    "converged": bool(res.converged),
                    "starts": int(res.starts),
                }
                scale = _term_scale(entry, kind, res.best_angles, a, kk)
                bad = (res.best_slack < -SLACK_RTOL * scale
                       or res.best_slack > MISS_RTOL * scale
                       or (abs(res.best_slack) <= SLACK_RTOL * scale
                           and res.distance_to_regular > DISTANCE_TOL))
                if n <= GRID_N_MAX:
                    scan = extremal_search.grid_scan(
                        entry, n, alpha=a, k=kk,
                        resolution=grid_resolution, kind=kind, margin=margin,
                    )
                    row["grid_min_slack"] = float(scan.grid_min_slack)
                    row["grid_step"] = float(scan.step)
                    row["grid_agrees"] = bool(
                        res.best_slack <= scan.grid_min_slack + 1e-9 * max(
                            1.0, abs(scan.grid_min_slack))
                    )
                    grid_scale = _term_scale(entry, kind, scan.grid_argmin, a, kk)
                    bad = bad or scan.grid_min_slack < -SLACK_RTOL * grid_scale
                row["anomaly"] = bool(bad)
                anomalies += int(bad)
                rows.append(row)
    return rows, anomalies


def _term_scale(entry, kind, angles: AngleVector, alpha, k) -> float:
    """max(1, every |term|) of an entry at the polygon ``angles``, R = 1."""
    poly = PolygonModel(kind=kind, radius=SWEEP_RADIUS, angles=angles)
    return max(1.0, catalog.evaluate(entry, poly, alpha, k).scale)
