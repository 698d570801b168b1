"""Catalog structure, entry formulas, soundness and sharpness."""

import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest

import oracle
from bonnesen import (
    AngleVector,
    Direction,
    PolygonKind,
    PolygonModel,
    errors,
    evaluate,
    evaluate_all,
    evaluate_exact,
    family,
    get_entry,
    list_entries,
    make_angle_vector,
    power_gap_function,
    power_gap_reverse_function,
    regular_angles,
    sample_simplex_batch,
    sign_flipped,
)
from bonnesen.inequality_catalog import evaluate_batch

PI = math.pi

#: (entry, gap builder, constant c(alpha), k values) of the catalog entries
#: whose tangential slack at R = 1 is c(alpha) times the tan family's gap.
GAP_TIES = [
    *[(e, power_gap_function, lambda a: 1.0, (2, 3)) for e in ("T31B", "C36", "T32B", "CQC")],
    *[(e, power_gap_function, lambda a: 4.0**a, (2, 3)) for e in ("T31A", "C35", "T32A", "CQX")],
    *[(e, power_gap_reverse_function, lambda a: -1.0, (2, 3))
      for e in ("T41B", "C4B", "T42B", "C42B")],
    *[(e, power_gap_reverse_function, lambda a: -(4.0**a), (2, 3)) for e in ("T42A", "C42A")],
    ("T41A", power_gap_reverse_function, lambda a: -(4.0**a), (2,)),
]

ALL_IDS = [
    "BASIC", "ZHANG97", "T31A", "T31B", "C35", "C36", "T32A", "T32B",
    "CQX", "CQC", "T41A", "T41B", "C4A", "C4B", "T42A", "T42B",
    "C42A", "C42B", "T52", "T53",
]
CYCLIC_IDS = ["BASIC", "ZHANG97", "T52", "T53"]
#: Entries stated in L/2R and A/R^2 only: their slack does not change with R.
DIMENSIONLESS_IDS = {"T31B", "C36", "T32B", "CQC", "T41B", "C4B", "T42B", "C42B"}


def slack_degree(entry_id, a, k):
    """The power of R that scales an entry's slack, read off its displayed
    formula: 0 when dimensionless, None for L^(ka) - L*^(ka) with k != 2
    (its sides scale as R^(2a) and R^(ka)), else 2a."""
    if entry_id in DIMENSIONLESS_IDS:
        return 0
    if entry_id in ("T41A", "C4A") and k != 2:
        return None
    return 2 * (a or 1)


def probe_triangle():
    return make_angle_vector([0.4 * PI, 0.3 * PI, 0.3 * PI], PI)


def tangential(av, radius=1.0):
    return PolygonModel(PolygonKind.TANGENTIAL, radius, av)


def cyclic(av, radius=1.0):
    return PolygonModel(PolygonKind.CYCLIC, radius, av)


class TestCatalogStructure:
    def test_entry_ids_and_order(self):
        assert [e.id for e in list_entries()] == ALL_IDS

    def test_ids_unique(self):
        ids = [e.id for e in list_entries()]
        assert len(set(ids)) == len(ids)

    def test_kind_partition(self):
        cyc = [e.id for e in list_entries(PolygonKind.CYCLIC)]
        tan = [e.id for e in list_entries(PolygonKind.TANGENTIAL)]
        assert cyc == CYCLIC_IDS
        assert len(tan) == 17 and "BASIC" in tan and "ZHANG97" not in tan

    def test_directions(self):
        ge = {"BASIC", "ZHANG97", "T31A", "T31B", "C35", "C36", "T32A",
              "T32B", "CQX", "CQC", "T53"}
        for e in list_entries():
            expected = Direction.GE if e.id in ge else Direction.LE
            assert e.direction == expected, e.id

    def test_unknown_id(self):
        with pytest.raises(errors.UnknownId):
            get_entry("NOPE")


class TestEvaluateExamples:
    def test_t31a_regular_square_equality(self):
        rec = evaluate("T31A", tangential(regular_angles(4, PI)), alpha=1)
        assert rec.lhs == pytest.approx(0.0, abs=1e-12)
        assert rec.rhs == pytest.approx(0.0, abs=1e-12)
        assert rec.slack == pytest.approx(0.0, abs=1e-12)
        assert rec.equality

    def test_c35_probe_triangle(self):
        rec = evaluate("C35", tangential(probe_triangle()))
        assert rec.lhs == pytest.approx(oracle.TAN_DEFICIT, rel=1e-11)
        assert rec.rhs == pytest.approx(oracle.C35_RHS, rel=1e-11)
        assert rec.slack == pytest.approx(oracle.TAN_DEFICIT - oracle.C35_RHS, rel=1e-10)
        assert not rec.equality

    def test_t53_probe_triangle(self):
        rec = evaluate("T53", cyclic(probe_triangle()))
        assert rec.lhs == pytest.approx(oracle.CYC_DEFICIT, rel=1e-11)
        assert rec.rhs == pytest.approx(oracle.T53_RHS, rel=1e-11)
        assert rec.slack == pytest.approx(oracle.CYC_DEFICIT - oracle.T53_RHS, rel=1e-10)

    def test_t52_probe_triangle(self):
        rec = evaluate("T52", cyclic(probe_triangle()))
        assert rec.lhs == pytest.approx(oracle.T52_VALUE, rel=1e-11)
        assert rec.slack == pytest.approx(-oracle.T52_VALUE, rel=1e-11)
        assert rec.slack > 0.0

    def test_t52_regular_square_equality(self):
        rec = evaluate("T52", cyclic(regular_angles(4, PI)))
        # A = 2, L = 4 sqrt 2, cos(pi/4) = sqrt(2)/2: 2 - 4 + 2 = 0
        assert rec.lhs == pytest.approx(0.0, abs=1e-13)
        assert rec.equality

    def test_record_fingerprint(self):
        av = probe_triangle()
        rec = evaluate("BASIC", tangential(av))
        assert rec.entry_id == "BASIC"
        assert rec.n == 3
        assert rec.radius == 1.0
        assert rec.angle_hash == av.angle_hash()


class TestEvaluateErrors:
    def test_kind_mismatch(self):
        with pytest.raises(errors.KindMismatch):
            evaluate("T31A", cyclic(probe_triangle()), alpha=1)
        with pytest.raises(errors.KindMismatch):
            evaluate("ZHANG97", tangential(probe_triangle()))

    def test_param_out_of_domain(self):
        poly = tangential(probe_triangle())
        with pytest.raises(errors.ParamOutOfDomain):
            evaluate("T31A", poly, alpha=0)
        with pytest.raises(errors.ParamOutOfDomain):
            evaluate("C35", poly, alpha=2)
        with pytest.raises(errors.ParamOutOfDomain):
            evaluate("BASIC", poly, alpha=1)
        with pytest.raises(errors.ParamOutOfDomain):
            evaluate("T41A", poly, alpha=1, k=1)
        with pytest.raises(errors.ParamOutOfDomain):
            evaluate("C4A", poly, alpha=1, k=2)

    def test_python_float_overflow_in_evaluate(self):
        # L*^(ka) is a Python float power, so it raises instead of giving inf.
        with pytest.raises(errors.NonFiniteValue,
                           match=r"^T41A \(tangential, n=3, alpha=120, k=9\): ") as info:
            evaluate("T41A", tangential(probe_triangle()), 120, 9)
        assert isinstance(info.value.__cause__, OverflowError)

    @pytest.mark.parametrize("evaluator", [evaluate, evaluate_exact],
                             ids=["evaluate", "evaluate_exact"])
    def test_record_past_the_float_range_is_refused(self, evaluator):
        """Only array terms overflow here: evaluate's slack would be nan and
        evaluate_exact's inf, the latter flagged as an equality."""
        near = PI / 2 - 1e-6
        poly = tangential(AngleVector(values=(near, near, PI - 2 * near), total=PI))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                errors.NonFiniteValue, match=r"^T31A \(tangential, n=3, alpha=45, k=None\): "):
            evaluator("T31A", poly, 45)

    def test_python_float_overflow_in_evaluate_batch(self):
        pts = np.array([probe_triangle().values])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                errors.NonFiniteValue,
                match=r"^T41A \(tangential, n=3, alpha=120, k=9\): ") as info:
            evaluate_batch("T41A", PolygonKind.TANGENTIAL, 1.0, pts, 120, 9)
        assert isinstance(info.value.__cause__, OverflowError)


class TestEvaluateAll:
    def test_tangential_grid(self):
        recs = evaluate_all(tangential(probe_triangle()), alpha_set=(1,), k_set=(2, 3))
        ids = [r.entry_id for r in recs]
        assert "ZHANG97" not in ids and "T52" not in ids and "T53" not in ids
        assert len(recs) == 21  # free-k entries contribute k = 2 and k = 3
        # deterministic order: catalog order, then alpha, then k
        t41a = [(r.alpha, r.k) for r in recs if r.entry_id == "T41A"]
        assert t41a == [(1, 2), (1, 3)]

    def test_cyclic_grid(self):
        recs = evaluate_all(cyclic(probe_triangle()))
        assert [r.entry_id for r in recs] == CYCLIC_IDS

    @pytest.mark.parametrize("kind", [PolygonKind.TANGENTIAL, PolygonKind.CYCLIC])
    def test_regular_polygon_all_equalities(self, kind):
        poly = PolygonModel(kind, 1.0, regular_angles(5, PI))
        recs = evaluate_all(poly, alpha_set=(1, 2, 3), k_set=(2, 3))
        assert recs and all(r.equality for r in recs)


class TestCatalogProperties:
    @pytest.mark.parametrize("kind", [PolygonKind.TANGENTIAL, PolygonKind.CYCLIC])
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_soundness_mini_sweep(self, kind, n):
        pts = sample_simplex_batch(n, PI, 1e-6, 300, seed=[43, n])
        for entry in list_entries(kind):
            for a, k in entry.params.combos((1, 2, 3), (2, 3)):
                out = evaluate_batch(entry, kind, 1.0, pts, a, k)
                tol = 1e-10 * np.maximum(
                    1.0, np.maximum(np.abs(out["lhs"]), np.abs(out["rhs"])))
                assert (out["slack"] >= -tol).all(), (entry.id, a, k)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_sharpness_at_regular(self, n):
        for kind in (PolygonKind.TANGENTIAL, PolygonKind.CYCLIC):
            poly = PolygonModel(kind, 1.0, regular_angles(n, PI))
            for rec in evaluate_all(poly, alpha_set=(1, 2, 3), k_set=(2, 3)):
                assert abs(rec.slack) <= 1e-12 * rec.scale, rec.entry_id

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        pts = sample_simplex_batch(6, PI, 1e-4, 20, seed=47)
        for row in pts:
            perm = rng.permutation(6)
            for kind in (PolygonKind.TANGENTIAL, PolygonKind.CYCLIC):
                a = PolygonModel(kind, 1.0, AngleVector(tuple(row), PI))
                b = PolygonModel(kind, 1.0, AngleVector(tuple(row[perm]), PI))
                for ra, rb in zip(evaluate_all(a), evaluate_all(b)):
                    assert rb.slack == pytest.approx(ra.slack, rel=1e-12, abs=1e-12 * ra.scale)

    def test_radius_homogeneity(self):
        av = probe_triangle()
        for kind in (PolygonKind.TANGENTIAL, PolygonKind.CYCLIC):
            for entry in list_entries(kind):
                for a, k in entry.params.combos((1, 2), (2, 3)):
                    degree = slack_degree(entry.id, a, k)
                    if degree is None:
                        continue  # sides scale apart; no single degree
                    r1 = evaluate(entry, PolygonModel(kind, 1.0, av), a, k)
                    r2 = evaluate(entry, PolygonModel(kind, 2.0, av), a, k)
                    assert r2.slack == pytest.approx(
                        2.0**degree * r1.slack, rel=1e-10), (entry.id, a, k)

    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_homogeneity_fn_matches_radius_scaling(self, entry_id):
        """Slack at 2R is 2**degree times the slack at R, within 1e-12 x scale.

        Where the formula's degree is None, the two sides must really scale
        by different powers of R.
        """
        entry = get_entry(entry_id)
        av = make_angle_vector([0.5, 0.9, 1.1, PI - 2.5], PI)
        for kind in entry.kinds:
            for a, k in entry.params.combos((1, 2, 3), (2, 3, 4)):
                degree = slack_degree(entry_id, a, k)
                r1 = evaluate(entry, PolygonModel(kind, 0.8, av), a, k)
                r2 = evaluate(entry, PolygonModel(kind, 1.6, av), a, k)
                case = (kind.value, a, k, degree)
                if degree is None:
                    assert not math.isclose(r2.lhs / r1.lhs, r2.rhs / r1.rhs,
                                            rel_tol=1e-6), case
                else:
                    assert abs(r2.slack - 2.0**degree * r1.slack) <= 1e-12 * r2.scale, case

    def test_scaled_area_bound_matches_perimeter_bound(self):
        # For circumscribed polygons A = R L / 2 exactly, so the area-form
        # right side coincides with the perimeter-form right side.
        pts = sample_simplex_batch(5, PI, 1e-4, 50, seed=53)
        for row in pts:
            poly = tangential(AngleVector(tuple(row), PI))
            for a in (1, 2):
                ra = evaluate("T31A", poly, alpha=a)
                rb = evaluate("T32A", poly, alpha=a)
                assert rb.rhs == pytest.approx(ra.rhs, rel=1e-12)
                assert rb.slack == pytest.approx(ra.slack, rel=1e-12)

    def test_exact_matches_standard(self):
        pts = sample_simplex_batch(4, PI, 1e-4, 5, seed=59)
        for row in pts:
            for kind in (PolygonKind.TANGENTIAL, PolygonKind.CYCLIC):
                poly = PolygonModel(kind, 1.3, AngleVector(tuple(row), PI))
                for entry in list_entries(kind):
                    std = evaluate(entry, poly)
                    ext = evaluate_exact(entry, poly)
                    assert std.slack == pytest.approx(ext.slack, abs=1e-10 * ext.scale)

    def test_exact_mode_digit_floor(self):
        # 50 digits whatever the caller's mp precision: a 20-digit context
        # neither lowers it nor changes the record.
        poly = cyclic(probe_triangle())
        rec = evaluate_exact("T52", poly)
        assert rec.slack == pytest.approx(-oracle.T52_VALUE, rel=1e-11)
        with mp.workdps(20):
            assert evaluate_exact("T52", poly) == rec

    def test_exact_is_thread_safe(self):
        # Four threads adjudicate the same pentagons while a fifth switches
        # the global mpmath precision; every record is the serial one.
        polys = [tangential(AngleVector(tuple(row), PI))
                 for row in sample_simplex_batch(5, PI, 1e-4, 60, seed=61)]
        serial = [evaluate_exact("T41A", p, 2, 3) for p in polys] * 3
        results = [[] for _ in range(4)]
        stop = threading.Event()

        def adjudicate(out):
            for _ in range(3):
                out.extend(evaluate_exact("T41A", p, 2, 3) for p in polys)

        def switch_precision():
            while not stop.is_set():
                mp.mp.dps = 15
                mp.mp.dps = 30

        dps, interval = mp.mp.dps, sys.getswitchinterval()
        threads = [threading.Thread(target=adjudicate, args=(out,)) for out in results]
        switcher = threading.Thread(target=switch_precision)
        sys.setswitchinterval(1e-6)
        try:
            for t in [switcher, *threads]:
                t.start()
            for t in threads:
                t.join(timeout=30)
            stop.set()
            switcher.join(timeout=30)
            assert not any(t.is_alive() for t in [switcher, *threads])
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            mp.mp.dps = dps
        assert all(out == serial for out in results)

    def test_exact_resolves_near_equality(self):
        # The slack gap grows like 288 eps^2 while float angles satisfy the
        # sum constraint only to ~1e-16, shifting the deficit by ~83 * that;
        # eps = 1e-7 puts the gap well above the representation floor, where
        # mpf arithmetic must resolve the strict positive sign.
        eps = 1e-7
        av = AngleVector((PI / 3 + eps, PI / 3, PI / 3 - eps), PI)
        rec = evaluate_exact("BASIC", tangential(av))
        assert rec.slack > 0.0
        assert rec.slack == pytest.approx(288 * eps**2, rel=0.05)

    def test_exact_formula_runs_at_working_precision(self):
        # The slack, about 1.6e-16, is far below the 15-digit rounding of
        # the lhs terms: only a formula evaluated at the working precision
        # resolves it instead of cancelling to 0.
        eps = 1e-8
        angles = (PI / 3 + eps, PI / 3, PI / 3 - eps)
        rec = evaluate_exact("BASIC", tangential(AngleVector(angles, PI)))
        lhs, _ = oracle.entry_values("BASIC", "tangential", angles)
        assert rec.slack == pytest.approx(float(lhs), rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_tangential_gaps_match_analytic_layer(self, n):
        # On tangential polygons A/R^2 = L/2R = sum tan(theta) and
        # d_n = n tan(pi/n), so each tied entry's slack is its constant
        # times the tan family's gap function (see GAP_TIES).
        tan = family("tan")
        pts = sample_simplex_batch(n, PI, 1e-3, 20, seed=[73, n])
        for entry_id, gap, constant, k_set in GAP_TIES:
            for a, k in get_entry(entry_id).params.combos((1, 2, 3), k_set):
                out = evaluate_batch(entry_id, PolygonKind.TANGENTIAL, 1.0, pts, a, k)
                F = gap(tan, n, a) if k is None else gap(tan, n, a, k)
                scale = np.maximum(1.0, np.maximum(np.abs(out["lhs"]), np.abs(out["rhs"])))
                err = np.abs(out["slack"] - constant(a) * F.evaluate(pts))
                assert (err <= 1e-12 * scale).all(), (entry_id, a, k)

    def test_every_entry_matches_independent_formula(self):
        # Dual-route check: lhs and rhs of every entry, recomputed with
        # 50-digit arithmetic straight from the displayed formulas, at
        # random polygons and a non-unit radius.
        for kind in (PolygonKind.TANGENTIAL, PolygonKind.CYCLIC):
            pts = sample_simplex_batch(5, PI, 1e-4, 4, seed=[71, 0])
            for radius in (1.0, 1.7):
                for row in pts:
                    poly = PolygonModel(kind, radius, AngleVector(tuple(row), PI))
                    for entry in list_entries(kind):
                        for a, k in entry.params.combos((1, 2), (2, 3)):
                            rec = evaluate(entry, poly, a, k)
                            lhs, rhs = oracle.entry_values(
                                entry.id, kind.value, row, radius,
                                alpha=a or 1, k=k or 2)
                            assert rec.lhs == pytest.approx(
                                float(lhs), rel=1e-11, abs=1e-13), (entry.id, a, k)
                            assert rec.rhs == pytest.approx(
                                float(rhs), rel=1e-11, abs=1e-13), (entry.id, a, k)

    def test_negative_lhs_never_occurs_dimensionless(self):
        # The dimensionless left side is P^(2a) - d_n^a P^a with P above
        # n tan(pi/n) > 1, so it stays positive; the sweep records it anyway.
        pts = sample_simplex_batch(4, PI, 1e-6, 2000, seed=61)
        out = evaluate_batch("T31B", PolygonKind.TANGENTIAL, 1.0, pts, 1, None)
        assert (out["lhs"] >= 0.0).all()


class TestSignFlipped:
    def test_direction_inverted_and_registry_untouched(self):
        flipped = sign_flipped("BASIC", "FAULT-BASIC")
        assert flipped.id == "FAULT-BASIC"
        assert flipped.direction == Direction.LE
        assert get_entry("BASIC").direction == Direction.GE
        assert all(e.id != "FAULT-BASIC" for e in list_entries())

    def test_flipped_entry_violates_off_center(self):
        flipped = sign_flipped("BASIC")
        rec = evaluate(flipped, tangential(probe_triangle()))
        assert rec.slack < 0.0
