"""Each shared-measurement shortcut against the path it replaced.

The sweeps measure a sample batch once (verify_sweep), gather lattice
sums from per-angle tables (grid_scan), and take one cos_sin per angle
with memoized regular-polygon constants (measure_exact). The old per-call paths are
kept here as references, and results must match them bit for bit.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from bonnesen import (PolygonKind, extremal_search, grid_scan, highprec, list_entries,
                      sign_flipped)
from bonnesen.inequality_catalog import evaluate_batch, get_entry
from bonnesen.polygon_core import regular_part, sample_simplex_batch
from bonnesen.records import EQUALITY_RTOL, VIOLATION_RTOL
from bonnesen.verification import verify_sweep

KINDS = (PolygonKind.TANGENTIAL, PolygonKind.CYCLIC)
_KIND_INDEX = {PolygonKind.TANGENTIAL: 0, PolygonKind.CYCLIC: 1}


def _verify_reference(kind, n, samples, seed, margin):
    """verify_sweep's cell values, with one evaluate_batch(pts) per entry."""
    pts = sample_simplex_batch(n, math.pi, margin, samples,
                               seed=[seed, _KIND_INDEX[kind], n])
    cells = []
    for entry in list_entries(kind):
        for a, kk in entry.params.combos((1, 2, 3), (2, 3)):
            out = evaluate_batch(entry, kind, 1.0, pts, a, kk)
            lhs, rhs, slack = out["lhs"], out["rhs"], out["slack"]
            side_scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            i = int(np.argmin(slack))
            cells.append({
                "entry_id": entry.id, "alpha": a, "k": kk,
                "min_slack": float(slack[i]),
                "violations": int((slack < -VIOLATION_RTOL * side_scale).sum()),
                "equality_hits": int((np.abs(slack) <= EQUALITY_RTOL * side_scale).sum()),
                "negative_lhs": int((lhs < 0.0).sum()),
                "lhs": float(lhs[i]), "rhs": float(rhs[i]),
                "angles": [float(v) for v in pts[i]],
            })
    return cells


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("n", [3, 8, 12])
def test_verify_sweep_matches_per_entry_measurement(kind, n):
    rows, _ = verify_sweep(kinds=(kind,), n_set=(n,), samples=400, seed=11)
    got = [{
        "entry_id": r["entry_id"], "alpha": r["alpha"], "k": r["k"],
        "min_slack": r["min_slack"], "violations": r["violations"],
        "equality_hits": r["equality_hits"], "negative_lhs": r["negative_lhs"],
        "lhs": r["argmin"]["lhs"], "rhs": r["argmin"]["rhs"],
        "angles": r["argmin"]["angles"],
    } for r in rows]
    assert got == _verify_reference(kind, n, 400, 11, 1e-6)


def _grid_reference(entry, n, kind, alpha, k, resolution, margin=1e-6):
    """grid_scan's (min, argmin) over every composition of ``resolution``.

    Every lattice point is evaluated at its ascending angle row, with
    evaluate_batch(pts) on each plane; ties go to the lexicographically
    smallest sorted index tuple.
    """
    step, hi = extremal_search._lattice_params(n, resolution, margin)
    axis = np.arange(1, hi + 1)
    best = [float("inf"), None]

    def plane(prefix, remaining):
        ja, jb = np.meshgrid(axis, axis, indexing="ij")
        jc = remaining - ja - jb
        mask = (jc >= 1) & (jc <= hi)
        if not mask.any():
            return
        ja, jb, jc = ja[mask], jb[mask], jc[mask]
        rows = np.empty((ja.size, n), dtype=int)
        rows[:, :len(prefix)] = prefix
        rows[:, len(prefix):] = np.stack([ja, jb, jc], axis=1)
        rows.sort(axis=1)
        slack = evaluate_batch(entry, kind, 1.0, margin + rows * step, alpha, k)["slack"]
        low = slack.min()
        j = min(tuple(int(v) for v in row) for row in rows[slack == low])
        if (low, j) < tuple(best):
            best[:] = [float(low), j]

    def walk(prefix, remaining):
        left = n - len(prefix)
        if left == 3:
            plane(prefix, remaining)
            return
        for j in range(max(1, remaining - hi * (left - 1)),
                       min(hi, remaining - (left - 1)) + 1):
            walk(prefix + [j], remaining - j)

    walk([], resolution)
    theta = [margin + j * step for j in best[1]]
    s = math.fsum(theta)
    return best[0], tuple(v * (math.pi / s) for v in theta)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("n,resolution", [(3, 90), (4, 36), (5, 20), (3, 3), (6, 16), (7, 14)])
def test_grid_scan_matches_per_plane_measurement(kind, n, resolution):
    # A sign-flipped entry has its minimum at an uneven lattice point, where
    # the order of the row sum shows in the last bits. (3, 3) is the one
    # point with every j = 1; (6, 16) and (7, 14) run the most columns
    # before the last.
    entries = list(list_entries(kind)[::3])
    for entry in entries + [sign_flipped(e) for e in entries]:
        p = entry.params
        a = 2 if p.uses_alpha and p.alpha_fixed is None else None
        k = 3 if p.uses_k and p.k_fixed is None else None
        scan = grid_scan(entry, n, alpha=a, k=k, resolution=resolution, kind=kind)
        assert (scan.grid_min_slack, scan.grid_argmin.values) == _grid_reference(
            entry, n, kind, *entry.params.validate(a, k), resolution), entry.id


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_grid_scan_wide_rows_match_numpy_sum(kind):
    """numpy sums rows of 8 or more values pairwise, not left to right."""
    entry = get_entry("BASIC")
    scan = grid_scan(entry, 8, resolution=13, kind=kind)
    assert (scan.grid_min_slack, scan.grid_argmin.values) == _grid_reference(
        entry, 8, kind, None, None, 13)


@pytest.mark.parametrize("entry_id", ["BASIC", "ZHANG97", "T52", "T53"])
def test_grid_scan_sums_sorted_rows(entry_id):
    """A lattice point's value is the slack of its ascending angle row.

    The orderings of one multiset of angles sum to floats that differ in
    the last bits; a scan over every ordering finds a lower minimum here.
    """
    entry = get_entry(entry_id)
    scan = grid_scan(entry, 3, resolution=100, kind=PolygonKind.CYCLIC)
    assert (scan.grid_min_slack, scan.grid_argmin.values) == _grid_reference(
        entry, 3, PolygonKind.CYCLIC, *entry.params.validate(None, None), 100)


def _measure_exact_reference(kind, radius, angles):
    with mp.workdps(highprec.DPS):
        th = [mp.mpf(v) for v in angles]
        n = len(th)
        if kind == PolygonKind.TANGENTIAL:
            sum_L = sum_A = mp.fsum(mp.tan(t) for t in th)
        else:
            sin = [mp.sin(t) for t in th]
            sum_L = mp.fsum(sin)
            sum_A = mp.fsum(s * mp.cos(t) for s, t in zip(sin, th))
        pin = mp.pi / n
        return regular_part(kind, n, mp.mpf(radius), mp.tan(pin), mp.sin(pin),
                            mp.cos(pin)).context(sum_L, sum_A)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("ambient_dps", [30, 50, 80])
def test_measure_exact_matches_separate_trig_calls(kind, ambient_dps):
    """The 50-digit result, whatever precision the caller's mp context holds."""
    rng = np.random.default_rng(ambient_dps)
    for n in (3, 4, 7, 12, 40):
        for _ in range(25):
            angles = rng.dirichlet(np.ones(n)) * math.pi
            with mp.workdps(ambient_dps):
                ctx = highprec.measure_exact(kind, 1.7, angles)
            assert ctx == _measure_exact_reference(kind, 1.7, angles)
