"""Slack minimization, the brute-force grid oracle, and the falsifier."""

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
    list_entries,
    minimize_slack,
    sample_simplex_batch,
    sign_flipped,
)
from bonnesen import extremal_search
from bonnesen.extremal_search import lattice_point_count
from bonnesen.inequality_catalog import evaluate_batch, get_entry

PI = math.pi


def _record_descents(monkeypatch):
    """A list that collects (objective, descent) of every pool run from now on."""
    descents = []
    run = extremal_search._Pool.run

    def recorded(pool):
        done = run(pool)
        descents.extend((pool.fn, d) for d in done)
        return done

    monkeypatch.setattr(extremal_search._Pool, "run", recorded)
    return descents


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

    def test_every_start_descends_in_a_narrow_box(self, monkeypatch):
        """The box [0.3, pi/2 - 0.3] is narrow at n = 3, yet no start is the
        regular point, where the projected gradient is 0 and a descent
        would stop before it moved."""
        descents = _record_descents(monkeypatch)
        res = minimize_slack("BASIC", 3, starts=6, seed=0,
                             kind=PolygonKind.TANGENTIAL, margin=0.3)
        assert len(descents) == 6 and all(d.evals > 1 for _, d in descents)
        assert res.converged and res.distance_to_regular <= 1e-6

    def test_start_points_lie_in_the_box(self):
        for n, margin in [(3, 0.3), (3, DEFAULT_MARGIN), (5, 0.1), (20, DEFAULT_MARGIN)]:
            thetas = extremal_search._start_points(np.random.default_rng(n), 200, n, margin)
            assert np.all(thetas > margin) and np.all(thetas < PI / 2 - margin)
            assert np.abs(thetas.sum(axis=1) - PI).max() <= 1e-13
            assert np.abs(thetas - PI / n).max(axis=1).min() > 1e-3

    def test_kind_required_for_dual_entries(self):
        res = minimize_slack("BASIC", 3, starts=5, seed=1,
                             kind=PolygonKind.CYCLIC)
        assert abs(res.best_slack) <= 1e-8

    def test_wrong_kind_rejected(self):
        with pytest.raises(errors.DomainViolation):
            minimize_slack("T53", 3, kind=PolygonKind.TANGENTIAL)

    def test_descends_exactly_the_starts_asked_for(self, monkeypatch):
        """No descent converges in 4 evaluations, and no more starts are added."""
        monkeypatch.setattr(extremal_search, "DESCENT_MAX_ITER", 4)
        res = minimize_slack("T53", 4, starts=3, seed=1)
        assert res.starts == 3 and not res.converged
        assert res.iterations <= 12

    @pytest.mark.parametrize("starts", [0, extremal_search.MAX_STARTS + 1])
    def test_start_count_it_cannot_run_is_refused(self, starts):
        """Neither silently one start nor silently MAX_STARTS."""
        with pytest.raises(errors.DomainViolation, match="starts"):
            minimize_slack("BASIC", 3, starts=starts, seed=0)


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
        # Every settled start overflows at its first evaluation: no
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

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_a_domain_violation(self, budget):
        """Not the overflow error of a search that ran no descent."""
        with pytest.raises(errors.DomainViolation, match="budget_evals"):
            falsify("BASIC", 3, budget_evals=budget, seed=1)


class TestDualGradient:
    """The dual path's d slack / d theta is the derivative of the float slack."""

    @pytest.mark.parametrize("n", [3, 5, 20])
    def test_gradient_matches_central_differences(self, n):
        h = 1e-6
        theta = sample_simplex_batch(n, PI, 0.05, 4, seed=n)
        checked = 0
        for entry in list_entries():
            for kind in sorted(entry.kinds, key=lambda kk: kk.value):
                for alpha, k in entry.params.combos((1, 2, 3), (2, 3)):
                    fn = extremal_search._objective(entry, kind, n, alpha, k)
                    slack, grad = fn(theta)
                    assert slack.tolist() == evaluate_batch(
                        entry, kind, 1.0, theta, alpha, k)["slack"].tolist()
                    for row, g in zip(theta, grad):
                        steps = np.eye(n) * h
                        up = evaluate_batch(entry, kind, 1.0, row + steps, alpha, k)["slack"]
                        down = evaluate_batch(entry, kind, 1.0, row - steps, alpha, k)["slack"]
                        central = (up - down) / (2 * h)
                        assert np.abs(g - central).max() <= 1e-6 * np.linalg.norm(g)
                    checked += 1
        # The 21 (entry, kind) cases: 13 fixed, 4 with alpha 1-3, 4 with
        # alpha 1-3 and k 2-3.
        assert checked == 13 + 4 * 3 + 4 * 3 * 2


def _pool_case(entry, kind, n, seed=11, starts=8):
    """The objective of a catalog case and seeded start points for it."""
    entry = get_entry(entry) if isinstance(entry, str) else entry
    alpha, k = entry.params.validate(None, None)
    fn = extremal_search._objective(entry, kind, n, alpha, k)
    thetas = extremal_search._start_points(np.random.default_rng(seed), starts, n,
                                           DEFAULT_MARGIN)
    return fn, thetas


def _descents(fn, thetas, starts):
    """(theta, f, evals, converged) of ``starts`` descended on one pool."""
    done = extremal_search._Pool(fn, DEFAULT_MARGIN, starts, thetas[list(starts)]).run()
    assert [d.start for d in done] == list(starts)
    return [(d.theta.tolist(), d.f, d.evals, d.converged) for d in done]


_CASES = [
    ("BASIC", PolygonKind.TANGENTIAL, 3),
    ("BASIC", PolygonKind.CYCLIC, 3),  # descents that end on the upper bound's edge
    ("T53", PolygonKind.CYCLIC, 4),
    ("C42B", PolygonKind.TANGENTIAL, 5),
    ("T41A", PolygonKind.TANGENTIAL, 20),
    # False inequalities: descents that end on vertices of the box.
    (sign_flipped("T53"), PolygonKind.CYCLIC, 4),
    (sign_flipped("C42B"), PolygonKind.TANGENTIAL, 5),
]


def _case_id(value):
    """A flipped entry by its id; pytest's own id for every other value."""
    return getattr(value, "id", None)


class TestLockstepPool:
    """A start's descent is the same whatever other starts share its pool."""

    @pytest.mark.parametrize("entry,kind,n", _CASES, ids=_case_id)
    def test_pool_width_leaves_each_descent_unchanged(self, entry, kind, n):
        fn, thetas = _pool_case(entry, kind, n)
        wide = _descents(fn, thetas, range(8))
        assert wide == _descents(fn, thetas, range(3)) + _descents(fn, thetas, range(3, 8))
        assert wide == [d for i in range(8) for d in _descents(fn, thetas, [i])]
        assert all(converged for *_, converged in wide)

    @pytest.mark.parametrize("entry,kind,n", _CASES, ids=_case_id)
    def test_one_catalog_call_per_lockstep_iteration(self, entry, kind, n, monkeypatch):
        calls = []
        evaluate_batch = extremal_search.catalog.evaluate_batch

        def counting(*args):
            out = evaluate_batch(*args)
            calls.append(len(out["slack"]))
            return out

        monkeypatch.setattr(extremal_search.catalog, "evaluate_batch", counting)
        fn, thetas = _pool_case(entry, kind, n)
        pool = extremal_search._Pool(fn, DEFAULT_MARGIN, range(8), thetas)
        running = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while pool.starts:
                running.append(len(pool.starts))
                pool.step()
        # One row per running lane, one call per iteration; the longest
        # descent sets the iteration count.
        assert calls == running and len(calls) == pool.steps

    def test_descent_next_to_the_upper_bound_converges(self):
        """The point where a softmax BFGS stalled against its infinite wall."""
        fn = extremal_search._objective(get_entry("BASIC"), PolygonKind.CYCLIC, 3, None, None)
        top = math.pi / 2 - DEFAULT_MARGIN
        starts = np.array([[math.pi - 0.172 - top, 0.172, top],
                           [1.399, 0.172, math.pi - 1.571],
                           [math.pi - 0.172 - (top - 1e-9), 0.172, top - 1e-9]])
        for theta, f, evals, converged in _descents(fn, starts, range(3)):
            assert converged
            assert max(abs(v - math.pi / 3) for v in theta) <= 1e-6
            assert abs(f) <= 1e-12

    @pytest.mark.parametrize("entry,n,budget", [
        (get_entry("T31A"), 3, 2000),
        (get_entry("C35"), 4, 2000),
        (sign_flipped("T52"), 3, 5000),
    ])
    def test_falsify_matches_one_lane(self, entry, n, budget, monkeypatch):
        """Same verdict, from the same starts settled and checked in the same order."""
        evaluate, run_pool = extremal_search.catalog.evaluate, extremal_search._Pool.run

        def run(lanes):
            checked, descents = [], []

            def recording(e, poly, alpha, k):
                checked.append(poly.angles.values)
                return evaluate(e, poly, alpha, k)

            def recorded(pool):
                done = run_pool(pool)
                descents.extend((d.start, d.theta.tolist(), d.f, d.evals, d.converged)
                                for d in done)
                return done

            if lanes is not None:
                monkeypatch.setattr(extremal_search, "_falsify_lanes", lambda budget: lanes)
            monkeypatch.setattr(extremal_search.catalog, "evaluate", recording)
            monkeypatch.setattr(extremal_search._Pool, "run", recorded)
            verdict = falsify(entry, n, budget_evals=budget, seed=4)
            settled, spent = [], 0
            for d in sorted(descents):
                if spent >= budget:
                    break
                settled.append(d)
                spent += d[3]
            return verdict, checked, settled

        assert extremal_search._falsify_lanes(budget) > 1
        one = run(1)
        assert run(None) == one
        assert (one[0] is None) == (not entry.id.endswith("FLIPPED"))

    def test_falsify_width_is_a_rule_of_the_budget(self):
        widths = [extremal_search._falsify_lanes(b)
                  for b in (1, 750, 4999, 5000, 100_000)]
        narrow, wide = extremal_search.FALSIFY_NARROW_LANES, extremal_search.FALSIFY_WIDE_LANES
        assert widths == [narrow] * 3 + [wide] * 2


@pytest.mark.parametrize("search", [
    lambda: minimize_slack("T53", 4, starts=3, seed=1),
    lambda: falsify("T53", 4, budget_evals=300, seed=1),
], ids=["minimize_slack", "falsify"])
class TestDescentConstants:
    """Both searches stop their descents on DESCENT_GTOL and DESCENT_MAX_ITER."""

    def _record(self, monkeypatch):
        return _record_descents(monkeypatch)

    def test_a_converged_descent_meets_the_kkt_test(self, search, monkeypatch):
        descents = self._record(monkeypatch)
        search()
        assert descents and all(d.converged for _, d in descents)
        for fn, d in descents:
            _, grad = fn(d.theta[None, :])
            lam = grad.mean()
            residual = np.abs(grad - lam).max() / max(1.0, abs(lam))
            assert residual <= extremal_search.DESCENT_GTOL

    def test_a_looser_tolerance_stops_sooner(self, search, monkeypatch):
        descents = self._record(monkeypatch)
        search()
        strict = {d.start: d.evals for _, d in descents}
        descents.clear()
        monkeypatch.setattr(extremal_search, "DESCENT_GTOL", 1e-3)
        search()
        loose = {d.start: d.evals for _, d in descents}
        assert all(d.converged for _, d in descents)
        assert all(loose[i] <= strict[i] for i in loose if i in strict)
        assert sum(loose.values()) < sum(strict[i] for i in loose if i in strict)

    def test_no_descent_runs_past_the_iteration_cap(self, search, monkeypatch):
        descents = self._record(monkeypatch)
        monkeypatch.setattr(extremal_search, "DESCENT_MAX_ITER", 4)
        search()
        assert descents and all(d.evals <= 4 for _, d in descents)
        assert not any(d.converged for _, d in descents)
