"""Slack minimization, the brute-force grid oracle, and the falsifier."""

import collections
import itertools
import math

import numpy as np
import pytest

from bonnesen import (
    DEFAULT_MARGIN,
    PolygonKind,
    errors,
    falsify,
    grid_scan,
    minimize_slack,
    sign_flipped,
)
from bonnesen import extremal_search
from bonnesen.extremal_search import lattice_point_count
from bonnesen.inequality_catalog import evaluate_batch, get_entry

PI = math.pi


class TestMinimizeSlack:
    def test_basic_triangle(self):
        res = minimize_slack("BASIC", 3, starts=20, seed=0,
                             kind=PolygonKind.TANGENTIAL)
        assert res.converged
        assert abs(res.best_slack) <= 1e-8
        assert res.distance_to_regular < 1e-4

    def test_inscribed_area_bound_square(self):
        res = minimize_slack("T53", 4, starts=20, seed=0)
        assert abs(res.best_slack) <= 1e-8
        assert res.distance_to_regular < 1e-4

    def test_reverse_perimeter_bound_triangle(self):
        res = minimize_slack("T41A", 3, alpha=1, k=2, starts=20, seed=0)
        assert abs(res.best_slack) <= 1e-8
        assert res.distance_to_regular < 1e-4

    def test_deterministic_given_seed(self):
        a = minimize_slack("CQX", 4, starts=10, seed=5)
        b = minimize_slack("CQX", 4, starts=10, seed=5)
        assert a.best_angles.values == b.best_angles.values
        assert a.best_slack == b.best_slack
        assert a.iterations == b.iterations

    def test_best_not_above_start_values(self):
        res = minimize_slack("C42B", 5, starts=8, seed=3)
        assert res.best_slack <= 1e-6

    def test_kind_required_for_dual_entries(self):
        res = minimize_slack("BASIC", 3, starts=5, seed=1,
                             kind=PolygonKind.CYCLIC)
        assert abs(res.best_slack) <= 1e-8

    def test_wrong_kind_rejected(self):
        with pytest.raises(errors.DomainViolation):
            minimize_slack("T53", 3, kind=PolygonKind.TANGENTIAL)


@pytest.mark.parametrize("search", [
    lambda: minimize_slack("T53", 3, starts=2, kind=PolygonKind.TANGENTIAL),
    lambda: grid_scan("T53", 3, resolution=60, kind=PolygonKind.TANGENTIAL),
    lambda: falsify("T53", 3, budget_evals=100, kind=PolygonKind.TANGENTIAL),
], ids=["minimize_slack", "grid_scan", "falsify"])
def test_search_on_wrong_kind_is_kind_mismatch(search):
    """The searches refuse a cyclic-only entry as the catalog evaluators do."""
    with pytest.raises(errors.KindMismatch):
        search()


class TestGridScan:
    def test_basic_triangle_res400(self):
        res = grid_scan("BASIC", 3, resolution=400, kind=PolygonKind.TANGENTIAL)
        assert res.grid_min_slack >= -1e-10
        assert res.grid_argmin.max_deviation() <= res.step + 1e-12

    def test_inscribed_bound_triangle_res400(self):
        res = grid_scan("T52", 3, resolution=400)
        assert res.grid_min_slack >= -1e-10
        assert res.grid_argmin.max_deviation() <= res.step + 1e-12

    def test_regular_point_on_lattice_when_n_divides_resolution(self):
        res = grid_scan("BASIC", 4, resolution=100, kind=PolygonKind.TANGENTIAL)
        assert res.grid_argmin.max_deviation() <= 1e-12

    def test_budget_exceeded_for_n6_res400(self):
        with pytest.raises(errors.BudgetExceeded):
            grid_scan("BASIC", 6, resolution=400, kind=PolygonKind.TANGENTIAL)

    def test_small_resolution_n5_feasible(self):
        res = grid_scan("BASIC", 5, resolution=40, kind=PolygonKind.TANGENTIAL)
        assert res.grid_min_slack >= -1e-10

    @pytest.mark.parametrize("n,resolution", [(3, 12), (4, 20), (5, 16), (6, 14)])
    def test_scan_visits_each_sorted_tuple_once(self, n, resolution, monkeypatch):
        """One evaluated row per multiset of indices, ascending, in lexicographic order."""
        _, max_steps = extremal_search._lattice_params(n, resolution, DEFAULT_MARGIN)
        expected = [t for t in itertools.combinations_with_replacement(
            range(1, max_steps + 1), n) if sum(t) == resolution]
        evaluated, gathered = [], []
        evaluate_batch = extremal_search.catalog.evaluate_batch
        angle_terms = extremal_search.angle_terms

        def counting(*args):
            out = evaluate_batch(*args)
            evaluated.append(out["slack"].size)
            return out

        class Recorded(np.ndarray):
            def __getitem__(self, index):
                gathered.append(np.asarray(index))
                return np.asarray(self)[index]

        def recorded_terms(kind, theta):
            terms_L, terms_A = angle_terms(kind, theta)
            assert terms_A is terms_L  # tangential: one table, one gather per plane
            table = terms_L.view(Recorded)
            return table, table

        monkeypatch.setattr(extremal_search.catalog, "evaluate_batch", counting)
        monkeypatch.setattr(extremal_search, "angle_terms", recorded_terms)
        grid_scan("BASIC", n, resolution=resolution, kind=PolygonKind.TANGENTIAL)
        assert sum(evaluated) == len(expected)
        assert [tuple(int(j) for j in row) for row in np.concatenate(gathered)] == expected

    def test_lattice_count_matches_enumeration(self):
        # brute count for a small case: compositions of 12 into 3 parts <= 5
        count = 0
        for a in range(1, 6):
            for b in range(1, 6):
                c = 12 - a - b
                if 1 <= c <= 5:
                    count += 1
        assert lattice_point_count(12, 3, 5) == count


def _lipschitz_estimate(entry_id, n, argmin, step, kind, alpha=None, k=None):
    """Max |slack difference| per step over one-step lattice moves."""
    entry = get_entry(entry_id)
    base = np.asarray(argmin.values)
    rows = [base]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            cand = base.copy()
            cand[i] += step
            cand[j] -= step
            if (cand > 0).all() and (cand < PI / 2).all():
                rows.append(cand)
    out = evaluate_batch(entry, kind, 1.0, np.asarray(rows), alpha, k)
    return float(np.abs(out["slack"][1:] - out["slack"][0]).max()) / step


class TestOracleAgreement:
    @pytest.mark.parametrize("entry_id,kind", [
        ("BASIC", PolygonKind.TANGENTIAL),
        ("C35", PolygonKind.TANGENTIAL),
        ("T41B", PolygonKind.TANGENTIAL),
        ("T53", PolygonKind.CYCLIC),
    ])
    def test_minimizer_matches_grid_minimum(self, entry_id, kind):
        scan = grid_scan(entry_id, 3, resolution=200, kind=kind)
        res = minimize_slack(entry_id, 3, starts=10, seed=2, kind=kind)
        lip = _lipschitz_estimate(entry_id, 3, scan.grid_argmin, scan.step, kind)
        assert res.best_slack <= scan.grid_min_slack + 1e-12
        assert scan.grid_min_slack - res.best_slack <= 2.0 * lip * scan.step + 1e-10


class TestNonFiniteSlack:
    """A slack that leaves the float range is an error naming the case."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_grid_scan_refuses_nan_slacks(self, n):
        # At n = 3, 84 of the 406 lattice slacks are nan (inf - inf) and the
        # finite minimum is 3.6e229; no minimum over the rest is reported.
        with pytest.raises(errors.NonFiniteValue,
                           match=rf"^T31A \(tangential, n={n}, alpha=120, k=None\): "):
            grid_scan("T31A", n, alpha=120, resolution=60, kind=PolygonKind.TANGENTIAL)

    def test_minimize_refuses_when_no_descent_ends_finite(self):
        with pytest.raises(errors.NonFiniteValue,
                           match=r"^T31A \(tangential, n=3, alpha=120, k=None\): "):
            minimize_slack("T31A", 3, alpha=120, starts=2, kind=PolygonKind.TANGENTIAL)

    def test_falsify_refuses_when_no_settled_descent_ends_finite(self):
        # The budget settles starts 0 and 1 only, and both overflow: no
        # "survived" verdict rests on them.
        with pytest.raises(errors.NonFiniteValue,
                           match=r"^T31A \(tangential, n=3, alpha=120, k=None\): "):
            falsify("T31A", 3, alpha=120, kind=PolygonKind.TANGENTIAL, budget_evals=200)

    @pytest.mark.parametrize("search", [
        lambda: grid_scan("T41A", 3, alpha=120, k=9, resolution=60),
        lambda: minimize_slack("T41A", 3, alpha=120, k=9, starts=2),
        lambda: falsify("T41A", 3, alpha=120, k=9, budget_evals=100),
    ], ids=["grid_scan", "minimize_slack", "falsify"])
    def test_python_float_overflow_is_named(self, search):
        """(2 R tan(pi/n))**alpha overflows as a Python float, not an array."""
        with pytest.raises(errors.NonFiniteValue,
                           match=r"^T41A \(tangential, n=3, alpha=120, k=9\): ") as info:
            search()
        assert isinstance(info.value.__cause__, OverflowError)


class TestFalsify:
    def test_planted_fault_detected(self):
        planted = sign_flipped("BASIC")
        found = falsify(planted, 3, budget_evals=10_000, seed=0,
                        kind=PolygonKind.TANGENTIAL)
        assert found is not None
        assert found.slack < 0.0
        assert found.slack_exact < -1e-8 * found.scale
        assert found.entry_id == "BASIC-FLIPPED"

    def test_basic_pentagon_survives(self):
        assert falsify("BASIC", 5, budget_evals=10_000, seed=0,
                       kind=PolygonKind.TANGENTIAL) is None

    def test_alpha_two_perimeter_bound_survives(self):
        assert falsify("T31A", 3, alpha=2, budget_evals=10_000, seed=0) is None

    def test_deterministic(self):
        a = falsify(sign_flipped("T52"), 3, budget_evals=5_000, seed=4)
        b = falsify(sign_flipped("T52"), 3, budget_evals=5_000, seed=4)
        assert a is not None and b is not None
        assert a.angles.values == b.angles.values


def _one_simplex_descent(fn, x0, xtol, max_iter, branches=None):
    """Reference downhill simplex on one start, one point per ``fn`` call.

    Returns (x, f, iterations, converged, evals, shrinks), shrinks being
    the iterations that shrank the simplex; the lockstep driver must
    reproduce it bit for bit on every lane. ``branches``, a Counter, if
    given, counts the iterations that end in each branch.
    """
    if branches is None:
        branches = collections.Counter()
    dim = x0.size
    verts = [x0.copy()]
    for i in range(dim):
        v = x0.copy()
        v[i] += 0.1 if v[i] == 0.0 else 0.1 * abs(v[i]) + 0.05
        verts.append(v)
    verts = np.asarray(verts)
    fvals = np.asarray([fn(v) for v in verts])
    evals = dim + 1
    shrinks = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
        diameter = float(np.max(np.linalg.norm(verts[1:] - verts[0], axis=1)))
        if diameter < xtol:
            converged = True
            break
        centroid = verts[:-1].mean(axis=0)
        xr = centroid + 1.0 * (centroid - verts[-1])
        fr = fn(xr)
        evals += 1
        if fr < fvals[0]:
            xe = centroid + 2.0 * (xr - centroid)
            fe = fn(xe)
            evals += 1
            if fe < fr:
                verts[-1], fvals[-1] = xe, fe
                branches["expansion"] += 1
            else:
                verts[-1], fvals[-1] = xr, fr
                branches["expansion refused"] += 1
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
            branches["reflection"] += 1
        else:
            inside = fr >= fvals[-1]
            base = verts[-1] if inside else xr
            fbase = fvals[-1] if inside else fr
            xc = centroid + 0.5 * (base - centroid)
            fc = fn(xc)
            evals += 1
            if fc < fbase:
                verts[-1], fvals[-1] = xc, fc
                branches["inside contraction" if inside else "outside contraction"] += 1
            else:
                for j in range(1, dim + 1):
                    verts[j] = verts[0] + 0.5 * (verts[j] - verts[0])
                    fvals[j] = fn(verts[j])
                evals += dim
                shrinks.append(it)
                branches["shrink"] += 1
    best = int(np.argmin(fvals))
    return verts[best], float(fvals[best]), it, converged, evals, shrinks


def _one_row(fn):
    """``fn`` on one free point at a time."""
    return lambda row: float(fn(row[None, :])[0])


def _lockstep_case(entry_id, kind, n):
    """The objective of a catalog case and six seeded starts for it."""
    entry = get_entry(entry_id)
    alpha, k = entry.params.validate(None, None)
    fn = extremal_search._objective(entry, kind, n, alpha, k, DEFAULT_MARGIN)
    return fn, [extremal_search._start_point(11, i, n, DEFAULT_MARGIN) for i in range(6)]


class TestLockstepWidth:
    """A start's descent is the same whatever other starts share its batch."""

    @pytest.mark.parametrize("entry_id,kind,n,max_iter", [
        ("BASIC", PolygonKind.TANGENTIAL, 3, 4000),
        ("T53", PolygonKind.CYCLIC, 4, 4000),
        ("C42B", PolygonKind.TANGENTIAL, 5, 4000),
        ("T41A", PolygonKind.TANGENTIAL, 5, 40),
    ])
    def test_lanes_match_single_descents(self, entry_id, kind, n, max_iter):
        fn, x0 = _lockstep_case(entry_id, kind, n)

        def descend(starts):
            lanes = extremal_search._Lanes(fn, n - 1, 1e-10, max_iter)
            for i in starts:
                lanes.add(i, x0[i])
            return [(d.z.tolist(), d.f, d.iterations, d.converged, d.evals)
                    for d in lanes.run()]

        def reference(i):
            z, f, iterations, converged, evals, _ = _one_simplex_descent(
                _one_row(fn), x0[i], 1e-10, max_iter)
            return z.tolist(), f, iterations, converged, evals

        wide = descend(range(6))
        assert wide == [d for i in range(6) for d in descend([i])]
        assert wide == [reference(i) for i in range(6)]

    def test_every_branch_matches_single_descents(self):
        """Each lane's branch choice, on inf and NaN slacks too.

        A tilted quadratic, inf on a half-plane (as the descent objective
        is beyond the domain) and NaN on a band. The six starts between
        them take every branch: expansion taken and refused, reflection,
        outside and inside contraction, and shrink.
        """
        seen = collections.Counter()

        def fn(z):
            z0, z1 = z[:, 0], z[:, 1]
            f = (z0 - 1.0) ** 2 + 3.0 * (z1 + 0.5) ** 2 + 0.5 * z0 * z1
            f[z0 + z1 > 2.5] = np.inf
            f[(z0 > -1.0) & (z0 < -0.5)] = np.nan
            seen.update(inf=int(np.isinf(f).sum()), nan=int(np.isnan(f).sum()))
            return f

        x0 = [np.array(p) for p in ([1.2, 1.2], [-2.0, 0.4], [-2.95, -1.0],
                                    [3.0, -0.4], [0.0, 0.0], [-5.0, 3.0])]
        lanes = extremal_search._Lanes(fn, 2, 1e-10, 400)
        for i, x in enumerate(x0):
            lanes.add(i, x)
        wide = [(d.z.tolist(), d.f, d.iterations, d.converged, d.evals) for d in lanes.run()]
        assert seen["inf"] and seen["nan"]
        branches = collections.Counter()
        references = []
        for x in x0:
            z, f, iterations, converged, evals, _ = _one_simplex_descent(
                _one_row(fn), x, 1e-10, 400, branches)
            references.append((z.tolist(), f, iterations, converged, evals))
        assert wide == references
        assert set(branches) == {"expansion", "expansion refused", "reflection",
                                 "outside contraction", "inside contraction", "shrink"}
        # One start never leaves the inf half-plane; no lane ends at NaN.
        assert [f for _, f, *_ in wide].count(np.inf) == 1
        assert not any(math.isnan(f) for _, f, *_ in wide)

    @pytest.mark.parametrize("entry_id,kind,n", [
        ("BASIC", PolygonKind.TANGENTIAL, 3),
        ("T53", PolygonKind.CYCLIC, 4),
        ("C42B", PolygonKind.TANGENTIAL, 5),
    ])
    def test_one_objective_call_per_iteration(self, entry_id, kind, n, monkeypatch):
        """One call for the initial simplex, one per iteration, one per shrink."""
        fn, x0 = _lockstep_case(entry_id, kind, n)
        refs = [_one_simplex_descent(_one_row(fn), x, 1e-10, 4000) for x in x0]
        # A converged lane stops at the check that opens its last iteration.
        iterations = max(it - converged for _, _, it, converged, _, _ in refs)
        shrinks = set().union(*(r[5] for r in refs))
        assert shrinks
        calls = []
        evaluate_batch = extremal_search.catalog.evaluate_batch

        def counting(*args):
            calls.append(args[0])
            return evaluate_batch(*args)

        monkeypatch.setattr(extremal_search.catalog, "evaluate_batch", counting)
        lanes = extremal_search._Lanes(fn, n - 1, 1e-10, 4000)
        for i, x in enumerate(x0):
            lanes.add(i, x)
        lanes.run()
        assert len(calls) == 1 + iterations + len(shrinks)

    def test_falsify_pool_widens_with_budget(self):
        widths = [extremal_search._falsify_lanes(b)
                  for b in (1, 750, 2000, 4999, 5000, 20_000, 100_000)]
        assert widths == [8, 8, 8, 8, 32, 32, 32]

    @pytest.mark.parametrize("entry,n,budget", [
        (get_entry("T31A"), 3, 2000),
        (get_entry("C35"), 4, 2000),
        (sign_flipped("T52"), 3, 5000),
    ])
    def test_falsify_matches_one_lane(self, entry, n, budget, monkeypatch):
        """Same verdict, from the same starts checked in the same order.

        Every start launched is charged what the one-simplex reference
        evaluates over the iterations it ran, and the pool's ``spent`` is
        their sum, whatever the pool width.
        """
        evaluate = extremal_search.catalog.evaluate
        references = {}

        def reference(fn, start, max_iter):
            if (start, max_iter) not in references:
                x0 = extremal_search._start_point(4, start, n, DEFAULT_MARGIN)
                z, f, it, converged, evals, _ = _one_simplex_descent(
                    _one_row(fn), x0, extremal_search.DESCENT_XTOL, max_iter)
                references[start, max_iter] = z.tolist(), f, it, converged, evals
            return references[start, max_iter]

        pools = []

        class Recorded(extremal_search._Lanes):
            """A pool that keeps itself and every lane it finishes."""

            def __init__(self, *args):
                super().__init__(*args)
                self.finished = []
                pools.append(self)

            def step(self):
                done = super().step()
                self.finished += done
                return done

        def run(lanes):
            checked = []

            def recording(e, poly, alpha, k):
                checked.append(poly.angles.values)
                return evaluate(e, poly, alpha, k)

            monkeypatch.setattr(extremal_search, "_falsify_lanes", lambda budget: lanes)
            monkeypatch.setattr(extremal_search.catalog, "evaluate", recording)
            monkeypatch.setattr(extremal_search, "_Lanes", Recorded)
            pools.clear()
            verdict = falsify(entry, n, budget_evals=budget, seed=4)
            (pool,) = pools
            assert not pool._pending
            for d in pool.finished:
                assert ((d.z.tolist(), d.f, d.iterations, d.converged, d.evals)
                        == reference(pool.fn, d.start, extremal_search.DESCENT_MAX_ITER))
            for start, iters, evals in zip(pool.starts, pool.iters, pool.evals):
                assert reference(pool.fn, int(start), int(iters))[4] == evals
            assert pool.spent == (sum(d.evals for d in pool.finished)
                                  + int(pool.evals.sum()))
            return verdict, checked

        width = extremal_search._falsify_lanes(budget)
        widest = extremal_search.FALSIFY_WIDE_LANES
        one = run(1)
        assert width > 1 and run(width) == one and run(widest) == one
        assert (one[0] is None) == (not entry.id.endswith("FLIPPED"))


@pytest.mark.parametrize("search", [
    lambda: minimize_slack("BASIC", 3, starts=2, seed=1),
    lambda: falsify("BASIC", 3, budget_evals=200, seed=1),
], ids=["minimize_slack", "falsify"])
def test_descents_stop_on_the_descent_constants(search, monkeypatch):
    """Both descents build their pools with one tolerance and iteration cap."""
    built = []

    class Recorded(extremal_search._Lanes):
        def __init__(self, fn, dim, xtol, max_iter):
            super().__init__(fn, dim, xtol, max_iter)
            built.append((xtol, max_iter))

    monkeypatch.setattr(extremal_search, "_Lanes", Recorded)
    search()
    assert built and set(built) == {(extremal_search.DESCENT_XTOL,
                                     extremal_search.DESCENT_MAX_ITER)}
