"""Sweep drivers shared by the command-line front end and the test suite.

Three sweeps, one per verification mode:

  * verify_sweep: sampled soundness check of every catalog entry over a
    (kind, n, alpha, k) grid, aggregating per-cell minima and violations.
  * certification_grid: Schur classification of the two proof-side gap
    functions over a (family, n, alpha, k) grid, compared against the
    class each is expected to have.
  * search_sweep: slack minimization per entry with optional brute-force
    grid cross-checks for small n.

Each driver returns plain-dict rows ready for JSON or CSV serialization
plus an anomaly count that maps directly to the process exit code.
"""

from __future__ import annotations

import math

import numpy as np

from . import extremal_search, inequality_catalog as catalog, schur_certifier
from .analytic_inequalities import family
from .polygon_core import (DEFAULT_MARGIN, AngleVector, PolygonKind, PolygonModel,
                           measure_arrays, sample_simplex_batch, seed_parts)
from .records import EQUALITY_RTOL, VIOLATION_RTOL

_KIND_INDEX = {PolygonKind.TANGENTIAL: 0, PolygonKind.CYCLIC: 1}


def verify_sweep(
    kinds=(PolygonKind.TANGENTIAL, PolygonKind.CYCLIC),
    n_set=range(3, 9),
    alpha_set=(1, 2, 3),
    k_set=(2, 3),
    samples: int = 10_000,
    seed=7,
    margin: float = 1e-6,
    radius: float = 1.0,
    tolerance_rtol: float = VIOLATION_RTOL,
    extra_entries=(),
    high_precision: bool = False,
) -> tuple[list[dict], int]:
    """Sampled soundness sweep; returns (rows, total certified violations).

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
        for n in n_set:
            pts = sample_simplex_batch(
                n, math.pi, margin, samples,
                seed=seed_parts(seed) + [_KIND_INDEX[kind], n],
            )
            ctx = measure_arrays(kind, radius, pts)
            for entry in entries:
                for a, kk in entry.params.combos(alpha_set, k_set):
                    # Overflow is reported below as NonFiniteValue, not
                    # as numpy's warning.
                    try:
                        with np.errstate(over="ignore", invalid="ignore"):
                            out = catalog.evaluate_batch(entry, kind, radius, ctx, a, kk)
                    except OverflowError as exc:
                        raise catalog._overflow(entry, kind, n, a, kk) from exc
                    lhs, rhs, slack = out["lhs"], out["rhs"], out["slack"]
                    # A finite slack has finite sides: inf or nan in a side
                    # carries into the difference.
                    if not np.isfinite(slack).all():
                        raise catalog._overflow(entry, kind, n, a, kk)
                    side_scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
                    tol = tolerance_rtol * side_scale
                    viol_idx = np.nonzero(slack < -tol)[0]
                    if high_precision and viol_idx.size:
                        viol_idx = _confirm_exact(
                            entry, kind, radius, pts, a, kk, viol_idx, tolerance_rtol
                        )
                    eq_tol = EQUALITY_RTOL * side_scale
                    i_min = int(np.argmin(slack))
                    argmin_angles = AngleVector(
                        values=tuple(float(v) for v in pts[i_min]), total=math.pi
                    )
                    rows.append({
                        "entry_id": entry.id,
                        "citation": entry.citation,
                        "kind": kind.value,
                        "n": int(n),
                        "R": float(radius),
                        "alpha": a,
                        "k": kk,
                        "samples": int(samples),
                        "min_slack": float(slack[i_min]),
                        "violations": int(viol_idx.size),
                        "equality_hits": int((np.abs(slack) <= eq_tol).sum()),
                        "negative_lhs": int((lhs < 0.0).sum()),
                        "argmin": {
                            "lhs": float(lhs[i_min]),
                            "rhs": float(rhs[i_min]),
                            "slack": float(slack[i_min]),
                            "equality": bool(abs(slack[i_min]) <= eq_tol[i_min]),
                            "angle_hash": argmin_angles.angle_hash(),
                            "angles": [float(v) for v in pts[i_min]],
                        },
                    })
                    total_violations += int(viol_idx.size)
    return rows, total_violations


def _confirm_exact(entry, kind, radius, pts, alpha, k, viol_idx, rtol):
    confirmed = []
    for i in viol_idx:
        angles = AngleVector(values=tuple(float(v) for v in pts[i]), total=math.pi)
        poly = PolygonModel(kind=kind, radius=radius, angles=angles)
        rec = catalog.evaluate_exact(entry, poly, alpha, k)
        if rec.slack < -rtol * max(1.0, abs(rec.lhs), abs(rec.rhs)):
            confirmed.append(i)
    return np.asarray(confirmed, dtype=int)


#: Families each proof side is certified with by default.
CONVEX_SIDE_FAMILIES = ("tan", "sec")
CONCAVE_SIDE_FAMILIES = ("tan", "csc")


def certification_grid(
    n_set=range(3, 9),
    alpha_set=(1, 2, 3),
    k_set=(2, 3),
    samples: int = 10_000,
    seed=7,
    margin: float = 1e-4,
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
                verdict = schur_certifier.certify(
                    F, math.pi, samples, seed=base + [0, n, a, 0], margin=margin
                )
                match = verdict.classification == schur_certifier.Classification.SCHUR_CONVEX
                mismatches += 0 if match else 1
                rows.append(_certify_row("power_gap", name, n, a, None,
                                         "schur_convex", verdict, match))
            for kk in k_set:
                for name in CONCAVE_SIDE_FAMILIES:
                    F = schur_certifier.power_gap_reverse_function(family(name), n, a, kk)
                    verdict = schur_certifier.certify(
                        F, math.pi, samples, seed=base + [1, n, a, kk], margin=margin
                    )
                    match = (verdict.classification
                             == schur_certifier.Classification.SCHUR_CONCAVE)
                    mismatches += 0 if match else 1
                    rows.append(_certify_row("power_gap_reverse", name, n, a, kk,
                                             "schur_concave", verdict, match))
    if include_probe:
        probe = schur_certifier.linear_function(4)
        verdict = schur_certifier.certify(probe, math.pi, min(samples, 1000),
                                          seed=base + [2], margin=margin)
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
    grid_n_max: int = 4,
    margin: float = DEFAULT_MARGIN,
    slack_tol: float = 1e-8,
    distance_tol: float = 1e-3,
    miss_tol: float = 1e-6,
) -> tuple[list[dict], int]:
    """Minimize every entry's slack; cross-check small n against the grid.

    An anomaly is a certified negative best slack, an equality point away
    from the regular polygon, or a best slack still above ``miss_tol``
    (the optimizer failed to reach the known zero minimum).
    Returns (rows, anomalies).
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
                bad = (res.best_slack < -slack_tol
                       or res.best_slack > miss_tol
                       or (abs(res.best_slack) <= slack_tol
                           and res.distance_to_regular > distance_tol))
                if n <= grid_n_max:
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
                    bad = bad or scan.grid_min_slack < -slack_tol
                row["anomaly"] = bool(bad)
                anomalies += int(bad)
                rows.append(row)
    return rows, anomalies
