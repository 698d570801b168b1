"""Angle vectors, polygon measurement and simplex sampling."""

import math

import numpy as np
import pytest

import oracle
from bonnesen import (
    AngleVector,
    PolygonKind,
    PolygonModel,
    errors,
    make_angle_vector,
    measure,
    regular_angles,
    sample_simplex_batch,
)

PI = math.pi
KINDS = [PolygonKind.TANGENTIAL, PolygonKind.CYCLIC]


def probe_triangle():
    return make_angle_vector([0.4 * PI, 0.3 * PI, 0.3 * PI], PI)


class TestAngleVector:
    def test_regular_triple_valid(self):
        av = make_angle_vector([PI / 3, PI / 3, PI / 3], PI)
        assert av.n == 3
        assert av.sigma == pytest.approx(PI / 3, rel=1e-15)

    def test_uneven_triple_valid(self):
        av = probe_triangle()
        assert av.total == PI
        assert av.max_deviation() == pytest.approx(0.4 * PI - PI / 3, rel=1e-12)

    def test_sum_mismatch(self):
        with pytest.raises(errors.SumMismatch):
            make_angle_vector([0.5 * PI * 0.999, 0.25 * PI, 0.25 * PI], PI)

    def test_out_of_domain_reports_index(self):
        with pytest.raises(errors.OutOfDomain) as exc:
            make_angle_vector([PI / 4, PI / 2, PI / 4], PI)
        assert exc.value.index == 1

    def test_empty_input(self):
        with pytest.raises(errors.EmptyInput):
            make_angle_vector([], PI)

    def test_angle_hash_stable(self):
        assert probe_triangle().angle_hash() == probe_triangle().angle_hash()
        assert probe_triangle().angle_hash() != regular_angles(3, PI).angle_hash()


class TestRegularAngles:
    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_entries_equal(self, n):
        av = regular_angles(n, PI)
        assert av.values == (PI / n,) * n

    def test_digon_hits_boundary(self):
        # sigma = pi/2 is not interior to (0, pi/2)
        with pytest.raises(errors.DomainViolation):
            regular_angles(2, PI)

    def test_analytic_total(self):
        av = regular_angles(4, 1.0, bound=1.0)
        assert av.sigma == pytest.approx(0.25)


class TestMeasure:
    @pytest.mark.parametrize("n,expected", [
        (3, 3.0 * math.sqrt(3.0)), (4, 4.0), (6, 2.0 * math.sqrt(3.0))],
        ids=["triangle", "square", "hexagon"])
    def test_polygon_constant(self, n, expected):
        p = PolygonModel(PolygonKind.TANGENTIAL, 1.0, regular_angles(n, PI))
        assert measure(p).dn == pytest.approx(expected, rel=1e-15)

    def test_square_about_unit_circle(self):
        p = PolygonModel(PolygonKind.TANGENTIAL, 1.0, regular_angles(4, PI))
        m = measure(p)
        assert m.perimeter == pytest.approx(8.0, rel=1e-14)
        assert m.area == pytest.approx(4.0, rel=1e-14)
        assert abs(m.deficit) <= 1e-12 * m.perimeter**2

    def test_square_in_unit_circle(self):
        p = PolygonModel(PolygonKind.CYCLIC, 1.0, regular_angles(4, PI))
        m = measure(p)
        assert m.perimeter == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-14)
        assert m.area == pytest.approx(2.0, rel=1e-14)
        assert abs(m.deficit) <= 1e-12 * m.perimeter**2

    def test_probe_triangle_tangential(self):
        m = measure(PolygonModel(PolygonKind.TANGENTIAL, 1.0, probe_triangle()))
        assert m.perimeter == pytest.approx(oracle.TAN_PERIMETER, rel=1e-11)
        assert m.area == pytest.approx(oracle.TAN_AREA, rel=1e-11)
        assert m.deficit == pytest.approx(oracle.TAN_DEFICIT, rel=1e-11)
        assert m.regular_perimeter == pytest.approx(oracle.TAN_REGULAR_PERIMETER, rel=1e-11)

    def test_probe_triangle_cyclic(self):
        m = measure(PolygonModel(PolygonKind.CYCLIC, 1.0, probe_triangle()))
        assert m.perimeter == pytest.approx(oracle.CYC_PERIMETER, rel=1e-11)
        assert m.area == pytest.approx(oracle.CYC_AREA, rel=1e-11)
        assert m.deficit == pytest.approx(oracle.CYC_DEFICIT, rel=1e-11)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(errors.DomainViolation):
            PolygonModel(PolygonKind.CYCLIC, 0.0, probe_triangle())

    def test_rejects_wrong_total(self):
        av = make_angle_vector([0.2, 0.3, 0.4], 0.9, bound=1.0)
        with pytest.raises(errors.SumMismatch):
            PolygonModel(PolygonKind.CYCLIC, 1.0, av)


class TestMeasureProperties:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_tangential_identity(self, n):
        pts = sample_simplex_batch(n, PI, 1e-6, 50, seed=[11, n])
        for row in pts:
            av = AngleVector(values=tuple(row), total=PI)
            m = measure(PolygonModel(PolygonKind.TANGENTIAL, 1.7, av))
            assert m.area == pytest.approx(1.7 * m.perimeter / 2.0, rel=1e-14)

    @pytest.mark.parametrize("kind", KINDS)
    def test_permutation_invariance(self, kind):
        rng = np.random.default_rng(5)
        pts = sample_simplex_batch(6, PI, 1e-6, 25, seed=21)
        for row in pts:
            m0 = measure(PolygonModel(kind, 1.0, AngleVector(tuple(row), PI)))
            perm = rng.permutation(6)
            m1 = measure(PolygonModel(kind, 1.0, AngleVector(tuple(row[perm]), PI)))
            assert m1.perimeter == pytest.approx(m0.perimeter, rel=1e-13)
            assert m1.area == pytest.approx(m0.area, rel=1e-13)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_radius_homogeneity(self, kind, c):
        av = probe_triangle()
        base = measure(PolygonModel(kind, 1.0, av))
        scaled = measure(PolygonModel(kind, c, av))
        assert scaled.perimeter == pytest.approx(c * base.perimeter, rel=1e-12)
        assert scaled.area == pytest.approx(c * c * base.area, rel=1e-12)
        assert scaled.deficit == pytest.approx(c * c * base.deficit, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(3, 13))
    def test_deficit_nonnegative(self, kind, n):
        pts = sample_simplex_batch(n, PI, 1e-6, 500, seed=[3, n])
        for row in pts:
            m = measure(PolygonModel(kind, 1.0, AngleVector(tuple(row), PI)))
            assert m.deficit >= -1e-10 * m.perimeter**2

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(3, 13))
    def test_regular_minimality(self, kind, n):
        m = measure(PolygonModel(kind, 1.0, regular_angles(n, PI)))
        assert abs(m.deficit) <= 1e-12 * m.perimeter**2


class TestSampleSimplex:
    def test_deterministic_given_seed(self):
        a = sample_simplex_batch(3, PI, 0.01, 1, seed=42)
        b = sample_simplex_batch(3, PI, 0.01, 1, seed=42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_contract(self, seed):
        (row,) = sample_simplex_batch(3, PI, 0.01, 1, seed=seed)
        assert all(0.01 < v < PI / 2 - 0.01 for v in row)
        assert math.fsum(row) == pytest.approx(PI, rel=1e-12)

    def test_budget_exceeded_for_thin_margin(self):
        # margin 0.6 leaves a feasible but tiny window, so no point is
        # accepted within the 10^4-draw budget of a one-point batch.
        with pytest.raises(errors.RejectionBudgetExceeded):
            sample_simplex_batch(5, PI, 0.6, 1, seed=1)

    def test_infeasible_margin_rejected_upfront(self):
        # sigma = pi/5 < 0.7: the margin window cannot contain the mean.
        with pytest.raises(errors.DomainViolation):
            sample_simplex_batch(5, PI, 0.7, 1, seed=0)

    def test_batch_deterministic_and_in_window(self):
        a = sample_simplex_batch(4, PI, 1e-3, 200, seed=9)
        b = sample_simplex_batch(4, PI, 1e-3, 200, seed=9)
        assert np.array_equal(a, b)
        assert a.shape == (200, 4)
        assert (a > 1e-3).all() and (a < PI / 2 - 1e-3).all()
        assert np.allclose(a.sum(axis=1), PI, rtol=1e-12)
