"""Function families, Jensen, the power-sum gap functions and the coupled inequality."""

import math

import numpy as np
import pytest

import oracle
from bonnesen import (
    AngleVector,
    CaseId,
    Convexity,
    Direction,
    PolygonKind,
    PolygonModel,
    builtin_families,
    coupled_gradient_slack,
    errors,
    evaluate,
    family,
    make_angle_vector,
    measure,
    power_gap_function,
    power_gap_reverse_function,
    regular_angles,
    sample_simplex_batch,
)

PI = math.pi


def probe_triangle():
    return make_angle_vector([0.4 * PI, 0.3 * PI, 0.3 * PI], PI)


def tangential(av):
    return PolygonModel(PolygonKind.TANGENTIAL, 1.0, av)


def gap_sides(fam, x, alpha, k=None):
    """(lhs, rhs) of the power gap (k None) or reverse gap, for tolerance scales.

    lhs = P^(2a) - (n s)^a P^a, and rhs = s^a (P^a - (n s)^a) for the lower
    bound or P^(ka) - (n s)^(ka) for the reverse one; x is (n,) or (m, n).
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    P = np.asarray(fam.f(pts)).sum(axis=1)
    s = np.asarray(fam.f(pts.mean(axis=1)))
    ns = pts.shape[1] * s
    lhs = P ** (2 * alpha) - ns**alpha * P**alpha
    if k is None:
        rhs = s**alpha * (P**alpha - ns**alpha)
    else:
        rhs = P ** (k * alpha) - ns ** (k * alpha)
    if np.ndim(x) == 1:
        return float(lhs[0]), float(rhs[0])
    return lhs, rhs


MU_CASES = {
    "sin": (1.0, CaseId.I1, Direction.GE),
    "cos": (1.0, CaseId.I2, Direction.LE),
    "sinh": (1.0, CaseId.II1, Direction.LE),
    "shifted_cosh": (-1.0, CaseId.II2, Direction.GE),
}


class TestBuiltinFamilies:
    def test_expected_names(self):
        names = {f.name for f in builtin_families()}
        assert names == {"tan", "sec", "csc", "square", "sin", "cos",
                         "sinh", "shifted_cosh"}

    @pytest.mark.parametrize("fam", builtin_families(), ids=lambda f: f.name)
    def test_convexity_class_matches_second_derivative(self, fam):
        fpp = np.asarray(fam.f_double_prime(fam.grid(1000)))
        if fam.convexity == Convexity.STRICTLY_CONVEX:
            assert (fpp > 0.0).all()
        else:
            assert (fpp < 0.0).all()

    @pytest.mark.parametrize("fam", builtin_families(), ids=lambda f: f.name)
    def test_positivity_on_grid(self, fam):
        assert (np.asarray(fam.f(fam.grid(1000))) > 0.0).all() == fam.positivity

    @pytest.mark.parametrize("name", sorted(MU_CASES))
    def test_mu_residual(self, name):
        # f'^2 - f f'' = mu on a domain grid.
        fam = family(name)
        x = fam.grid(1000)
        residual = fam.f_prime(x) ** 2 - fam.f(x) * fam.f_double_prime(x) - fam.mu
        assert np.abs(residual).max() <= 1e-10

    @pytest.mark.parametrize("name", sorted(MU_CASES))
    def test_case_assignment(self, name):
        fam = family(name)
        mu, case, direction = MU_CASES[name]
        assert fam.mu == mu
        assert fam.ode_case.case_id == case
        assert fam.ode_case.direction == direction
        grid = fam.grid(200)
        assert (np.sign(fam.f_double_prime(grid)) == fam.ode_case.sign_fpp).all()
        assert (np.sign(fam.f_prime(grid)) == fam.ode_case.sign_fp).all()

    def test_tan_has_no_mu(self):
        assert family("tan").mu is None

    def test_unknown_family(self):
        with pytest.raises(errors.UnknownId, match="'nope'"):
            family("nope")


def jensen_gap(fam, av):
    """sum f(theta_i) - n f(sigma): >= 0 for convex f, <= 0 for concave f."""
    return float(np.asarray(fam.f(av.to_array())).sum() - av.n * fam.f(av.sigma))


class TestJensen:
    def test_regular_point_is_tight(self):
        assert jensen_gap(family("tan"), regular_angles(3, PI)) == pytest.approx(0.0, abs=1e-14)

    def test_tan_probe_value(self):
        assert jensen_gap(family("tan"), probe_triangle()) == pytest.approx(
            oracle.JENSEN_TAN, rel=1e-11)

    def test_sin_probe_value_is_nonpositive(self):
        val = jensen_gap(family("sin"), probe_triangle())
        assert val == pytest.approx(oracle.JENSEN_SIN, rel=1e-11)
        assert val < 0.0

    @pytest.mark.parametrize("name", ["tan", "sec", "csc"])
    def test_convex_families_strictly_positive_off_center(self, name):
        pts = sample_simplex_batch(5, PI, 1e-4, 100, seed=31)
        for row in pts:
            av = AngleVector(tuple(row), PI)
            if av.max_deviation() > 1e-3:
                assert jensen_gap(family(name), av) > 0.0


class TestPowerGap:
    def test_regular_point_zero(self):
        x = regular_angles(3, PI).to_array()
        assert power_gap_function(family("tan"), 3, 1).evaluate(x) == pytest.approx(
            0.0, abs=1e-12)

    def test_probe_values(self):
        # T31B on a tangential polygon is the tan family's power gap.
        rec = evaluate("T31B", tangential(probe_triangle()), alpha=1)
        assert rec.lhs == pytest.approx(oracle.POWER_GAP_TAN_LHS, rel=1e-11)
        assert rec.rhs == pytest.approx(oracle.POWER_GAP_TAN_RHS, rel=1e-11)
        F = power_gap_function(family("tan"), 3, 1)
        assert F.evaluate(probe_triangle().to_array()) == pytest.approx(
            oracle.POWER_GAP_TAN_SLACK, rel=1e-11)
        assert rec.slack == pytest.approx(oracle.POWER_GAP_TAN_SLACK, rel=1e-11)
        assert not rec.equality

    def test_sec_regular_alpha2(self):
        F = power_gap_function(family("sec"), 4, 2)
        assert F.evaluate(regular_angles(4, PI).to_array()) == pytest.approx(0.0, abs=1e-10)

    def test_square_family_unit_total(self):
        x = make_angle_vector([0.4, 0.3, 0.2, 0.1], 1.0, bound=1.0).to_array()
        F = power_gap_function(family("square"), 4, 1)
        assert F.evaluate(x) == pytest.approx(0.011875, rel=1e-12)


class TestReverseGap:
    # The reverse gap function is lhs - rhs, so its slack is -F.
    def test_regular_point_zero(self):
        x = regular_angles(3, PI).to_array()
        for alpha, k in [(1, 2), (2, 3), (3, 2)]:
            lhs, rhs = gap_sides(family("tan"), x, alpha, k)
            F = power_gap_reverse_function(family("tan"), 3, alpha, k)
            assert abs(F.evaluate(x)) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    def test_probe_values_k3(self):
        # T41B on a tangential polygon is the tan family's reverse gap.
        rec = evaluate("T41B", tangential(probe_triangle()), alpha=1, k=3)
        assert rec.lhs == pytest.approx(oracle.POWER_GAP_TAN_LHS, rel=1e-11)
        assert rec.rhs == pytest.approx(oracle.REVERSE_GAP_TAN_K3_RHS, rel=1e-11)
        F = power_gap_reverse_function(family("tan"), 3, 1, 3)
        assert -F.evaluate(probe_triangle().to_array()) == pytest.approx(
            oracle.REVERSE_GAP_TAN_K3_SLACK, rel=1e-11)
        assert rec.slack == pytest.approx(oracle.REVERSE_GAP_TAN_K3_SLACK, rel=1e-11)

    def test_csc_probe_positive(self):
        F = power_gap_reverse_function(family("csc"), 3, 1, 3)
        slack = -F.evaluate(probe_triangle().to_array())
        ref = oracle.reverse_gap_values("csc", oracle.probe_angles(), PI, 1, 3)
        assert slack == pytest.approx(float(ref["slack"]), rel=1e-12)
        assert slack > 0.0


class TestGapSoundnessSampled:
    # The lower bound holds for every convex positive family. The reverse
    # (upper) bound additionally needs n*f(sigma) >= 1: its gradient factor
    # 2a P^(2a-1) - ... - ka P^(ka-1) only stays negative when P > 1, which
    # the trig families guarantee on the pi grid but x^2 on (0,1) does not.
    FAMS_LOWER = [("tan", PI), ("sec", PI), ("csc", PI), ("square", 1.0)]
    FAMS_REVERSE = [("tan", PI), ("sec", PI), ("csc", PI)]

    @pytest.mark.parametrize("name,total", FAMS_LOWER, ids=lambda p: str(p))
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_power_gap_nonnegative(self, name, total, alpha):
        fam = family(name)
        for n in (3, 5, 8):
            pts = sample_simplex_batch(n, total, 1e-4, 200,
                                       seed=[7, n, alpha], bound=fam.domain[1])
            slack = power_gap_function(fam, n, alpha).evaluate(pts)
            lhs, _ = gap_sides(fam, pts, alpha)
            assert (slack >= -1e-10 * np.maximum(1.0, np.abs(lhs))).all()

    @pytest.mark.parametrize("name,total", FAMS_REVERSE, ids=lambda p: str(p))
    @pytest.mark.parametrize("alpha,k", [(1, 2), (2, 3), (3, 2)])
    def test_reverse_gap_nonnegative(self, name, total, alpha, k):
        fam = family(name)
        for n in (3, 5, 8):
            pts = sample_simplex_batch(n, total, 1e-4, 200,
                                       seed=[8, n, alpha, k], bound=fam.domain[1])
            slack = -power_gap_reverse_function(fam, n, alpha, k).evaluate(pts)
            _, rhs = gap_sides(fam, pts, alpha, k)
            assert (slack >= -1e-10 * np.maximum(1.0, np.abs(rhs))).all()

    def test_reverse_gap_fails_for_small_power_sums(self):
        # Regression pin: with P = sum x_i^2 < 1 the reverse bound is not
        # generally true. The ratio of the two sides' growth near the center is
        # k (n s)^((k-2)a) < 1 for n s = 1/3, k = 3, a = 2, so slack must
        # go negative close to the regular point.
        x = make_angle_vector([1 / 3 + 0.02, 1 / 3 - 0.01, 1 / 3 - 0.01], 1.0, bound=1.0)
        assert -power_gap_reverse_function(family("square"), 3, 2, 3).evaluate(
            x.to_array()) < 0.0

    def test_strictness_away_from_center(self):
        fam = family("tan")
        lower = power_gap_function(fam, 4, 2)
        reverse = power_gap_reverse_function(fam, 4, 2, 3)
        pts = sample_simplex_batch(4, PI, 1e-4, 300, seed=77)
        off = pts[np.abs(pts - PI / 4).max(axis=1) > 1e-3]
        assert (lower.evaluate(off) > 1e-10).all()
        assert (-reverse.evaluate(off) > 1e-10).all()


class TestCoupledGap:
    def test_equality_when_arguments_match(self):
        av = probe_triangle()
        rec = coupled_gradient_slack(family("sin"), av, av)
        assert rec.slack == pytest.approx(0.0, abs=1e-14)
        assert rec.equality

    def test_sin_probe_against_center(self):
        rec = coupled_gradient_slack(family("sin"), probe_triangle(), regular_angles(3, PI))
        assert rec.slack == pytest.approx(oracle.COUPLED_SIN_SLACK, rel=1e-11)
        assert not rec.equality

    def test_cos_probe_against_center(self):
        rec = coupled_gradient_slack(family("cos"), probe_triangle(), regular_angles(3, PI))
        assert rec.slack == pytest.approx(oracle.COUPLED_COS_SLACK, rel=1e-11)
        assert rec.slack > 0.0

    def test_totals_must_match(self):
        with pytest.raises(errors.TotalsDiffer):
            coupled_gradient_slack(
                family("sinh"),
                make_angle_vector([0.3, 0.3, 0.3], 0.9, bound=1.0),
                make_angle_vector([0.2, 0.3, 0.3], 0.8, bound=1.0),
            )

    def test_out_of_domain(self):
        av = AngleVector((1.2, 0.9, 0.9), 3.0)
        with pytest.raises(errors.OutOfDomain):
            coupled_gradient_slack(family("sinh"), av, av)

    def test_family_without_mu_rejected(self):
        av = probe_triangle()
        with pytest.raises(errors.MissingMu):
            coupled_gradient_slack(family("tan"), av, regular_angles(3, PI))

    @pytest.mark.parametrize("name", sorted(MU_CASES))
    def test_four_cases_nonnegative_sampled(self, name):
        fam = family(name)
        hi = fam.domain[1]
        total = PI if hi > 1.5 else 0.5 * 4 * hi / 2  # keep sigma interior
        n = 4
        th = sample_simplex_batch(n, total, 1e-3, 150, seed=[5, 1], bound=hi)
        ps = sample_simplex_batch(n, total, 1e-3, 150, seed=[5, 2], bound=hi)
        for a, b in zip(th, ps):
            rec = coupled_gradient_slack(
                fam, AngleVector(tuple(a), total), AngleVector(tuple(b), total))
            assert rec.slack >= -1e-10 * rec.scale

    def test_reduction_identity_to_inscribed_measure(self):
        # Coupled slack of sin against the center equals the negated
        # inscribed-polygon bound A - L cos(sigma) + d_n cos^2(sigma) at R = 1.
        for n in (3, 4, 6):
            pts = sample_simplex_batch(n, PI, 1e-4, 50, seed=[13, n])
            center = regular_angles(n, PI)
            cs = math.cos(PI / n)
            for row in pts:
                av = AngleVector(tuple(row), PI)
                rec = coupled_gradient_slack(family("sin"), av, center)
                m = measure(PolygonModel(PolygonKind.CYCLIC, 1.0, av))
                bound_value = m.area - m.perimeter * cs + m.dn * cs * cs
                assert rec.slack == pytest.approx(-bound_value, abs=1e-12)
