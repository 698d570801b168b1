"""Schur condition, doubly stochastic averaging, sampling certification."""

import math

import numpy as np
import pytest

from bonnesen import (
    Classification,
    DoublyStochasticMatrix,
    ExtremumMode,
    SymmetricFunction,
    apply_doubly_stochastic,
    certify,
    errors,
    extremum_at_center,
    family,
    identity_matrix,
    linear_function,
    permutation_matrix,
    power_gap_function,
    power_gap_reverse_function,
    sample_simplex_batch,
    schur_condition_value,
    uniform_matrix,
)
from bonnesen.schur_certifier import (
    finite_difference_partial,
    partial_value,
)

PI = math.pi
PROBE = np.array([0.4 * PI, 0.3 * PI, 0.3 * PI])


class TestDoublyStochastic:
    def test_uniform_averages_to_center(self):
        out = apply_doubly_stochastic(uniform_matrix(3), PROBE)
        assert np.abs(out - PI / 3).max() <= 1e-13
        assert out.sum() == pytest.approx(PROBE.sum(), rel=1e-13)

    def test_identity_fixes_point(self):
        out = apply_doubly_stochastic(identity_matrix(3), PROBE)
        assert np.array_equal(out, PROBE)

    def test_permutation_permutes(self):
        out = apply_doubly_stochastic(permutation_matrix([2, 0, 1]), PROBE)
        assert out == pytest.approx([PROBE[2], PROBE[0], PROBE[1]])
        assert out.sum() == pytest.approx(PROBE.sum(), rel=1e-13)

    def test_uniform_on_random_points(self):
        pts = sample_simplex_batch(5, PI, 1e-4, 50, seed=2)
        P = uniform_matrix(5)
        for row in pts:
            out = apply_doubly_stochastic(P, row)
            assert np.abs(out - PI / 5).max() <= 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            apply_doubly_stochastic(uniform_matrix(4), PROBE)

    def test_bad_row_sum_rejected(self):
        with pytest.raises(errors.NotDoublyStochastic):
            DoublyStochasticMatrix(np.array([[0.7, 0.2], [0.3, 0.8]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(errors.NotDoublyStochastic):
            DoublyStochasticMatrix(np.array([[1.2, -0.2], [-0.2, 1.2]]))


class TestConditionValue:
    def test_convex_gap_positive_at_probe(self):
        F = power_gap_function(family("tan"), 3, 1)
        assert schur_condition_value(F, PROBE) > 0.0

    def test_reverse_gap_negative_at_probe(self):
        F = power_gap_reverse_function(family("tan"), 3, 1, 3)
        assert schur_condition_value(F, PROBE) < 0.0

    def test_zero_when_pair_coordinates_equal(self):
        F = power_gap_function(family("tan"), 3, 2)
        x = np.array([0.3 * PI, 0.3 * PI, 0.4 * PI])
        assert schur_condition_value(F, x) == 0.0

    def test_boundary_clearance_required(self):
        F = power_gap_function(family("tan"), 3, 1)
        x = np.array([PI / 2 - 1e-9, PI / 4, PI / 4 + 1e-9])
        with pytest.raises(errors.TooCloseToBoundary):
            schur_condition_value(F, x)

    def test_pair_choice_matches_swapped_default_pair(self):
        F = power_gap_function(family("tan"), 4, 2)
        pts = sample_simplex_batch(4, PI, 1e-3, 100, seed=17)
        for row in pts:
            for i, j in [(0, 2), (1, 3), (2, 3)]:
                # Permutation putting coordinates (i, j) first; symmetry of F
                # makes the (i, j) condition equal the (0, 1) condition there.
                perm = [i, j] + [m for m in range(4) if m not in (i, j)]
                direct = schur_condition_value(F, row, i, j)
                via_perm = schur_condition_value(F, row[perm], 0, 1)
                assert direct == pytest.approx(via_perm, rel=1e-12, abs=1e-12)


class TestPartials:
    CASES = [
        ("tan", 1, None, 3), ("tan", 3, None, 5), ("sec", 2, None, 4),
        ("tan", 1, 3, 3), ("csc", 2, 2, 4), ("tan", 3, 3, 6),
    ]

    @pytest.mark.parametrize("name,alpha,k,n", CASES)
    def test_analytic_matches_finite_differences(self, name, alpha, k, n):
        fam = family(name)
        if k is None:
            F = power_gap_function(fam, n, alpha)
        else:
            F = power_gap_reverse_function(fam, n, alpha, k)
        pts = sample_simplex_batch(n, PI, 1e-3, 100, seed=[19, n, alpha])
        for i in (0, 1):
            exact = partial_value(F, i, pts)
            fd = finite_difference_partial(F, i, pts)
            assert np.abs(exact - fd).max() <= 1e-5 * np.abs(exact).max()


def _neither_probe(n=3):
    # sum sin(3x): f' = 3cos(3x) is not monotone on (0, pi/2), so the
    # condition changes sign across the simplex.
    def evaluate(x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.sin(3.0 * pts).sum(axis=1)
        return out[0] if np.asarray(x).ndim == 1 else out

    return SymmetricFunction(arity=n, domain=(0.0, PI / 2), evaluate=evaluate,
                             name="sin3-sum")


class TestCertify:
    def test_convex_gap_certifies_convex(self):
        F = power_gap_function(family("tan"), 3, 1)
        verdict = certify(F, PI, samples=2000, seed=23)
        assert verdict.classification == Classification.SCHUR_CONVEX
        assert verdict.samples_checked == 2000
        assert "supported at 2000 samples" in verdict.describe()

    def test_reverse_gap_certifies_concave(self):
        F = power_gap_reverse_function(family("tan"), 3, 1, 3)
        verdict = certify(F, PI, samples=2000, seed=23)
        assert verdict.classification == Classification.SCHUR_CONCAVE

    def test_linear_is_indeterminate(self):
        verdict = certify(linear_function(3), PI, samples=500, seed=23)
        assert verdict.classification == Classification.INDETERMINATE

    def test_sign_changing_function_is_neither(self):
        verdict = certify(_neither_probe(), PI, samples=2000, seed=23)
        assert verdict.classification == Classification.NEITHER
        assert verdict.positive_witness is not None
        assert verdict.negative_witness is not None

    def test_zero_samples_rejected(self):
        with pytest.raises(errors.DomainViolation):
            certify(linear_function(3), PI, samples=0, seed=1)

    @pytest.mark.parametrize("name,total", [("csc", PI), ("square", 1.0)])
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_other_convex_families_certify_convex(self, name, total, alpha):
        # The lower-bound gap is Schur-convex for any convex positive
        # family; csc and x^2 exercise it beyond the tan/sec defaults.
        for n in (3, 5, 8):
            F = power_gap_function(family(name), n, alpha)
            verdict = certify(F, total, samples=500, seed=[67, n, alpha])
            assert verdict.classification == Classification.SCHUR_CONVEX, (name, n)


class TestExtremumAtCenter:
    def test_convex_gap_minimum_is_zero_at_center(self):
        F = power_gap_function(family("tan"), 3, 1)
        rep = extremum_at_center(F, PI, ExtremumMode.MIN, samples=2000, seed=29)
        assert rep.holds
        assert rep.center_value == pytest.approx(0.0, abs=1e-10)
        assert rep.worst_margin >= -rep.center_value - 1e-9

    def test_reverse_gap_maximum_is_zero_at_center(self):
        F = power_gap_reverse_function(family("tan"), 3, 1, 3)
        rep = extremum_at_center(F, PI, ExtremumMode.MAX, samples=2000, seed=29)
        assert rep.holds
        assert rep.center_value == pytest.approx(0.0, abs=1e-10)

    def test_concave_quadratic_max_at_center(self):
        def evaluate(x):
            pts = np.atleast_2d(np.asarray(x, dtype=float))
            out = -(pts**2).sum(axis=1)
            return out[0] if np.asarray(x).ndim == 1 else out

        F = SymmetricFunction(arity=4, domain=(0.0, PI / 2), evaluate=evaluate,
                              name="neg-sum-squares")
        rep = extremum_at_center(F, PI, ExtremumMode.MAX, samples=1000, seed=29)
        assert rep.holds
        assert rep.near_ties == 0  # no distinct maximizer found

    def test_misplaced_extremum_is_refuted(self):
        def evaluate(x):
            pts = np.atleast_2d(np.asarray(x, dtype=float))
            out = (pts**2).sum(axis=1)
            return out[0] if np.asarray(x).ndim == 1 else out

        F = SymmetricFunction(arity=3, domain=(0.0, PI / 2), evaluate=evaluate,
                              name="sum-squares")
        rep = extremum_at_center(F, PI, ExtremumMode.MAX, samples=500, seed=29)
        assert not rep.holds
        assert rep.witness is not None


class TestJensenConsequence:
    @pytest.mark.parametrize("name", ["tan", "sec", "csc"])
    def test_convex_sum_exceeds_center_sum(self, name):
        fam = family(name)
        pts = sample_simplex_batch(4, PI, 1e-3, 300, seed=37)
        sigma = PI / 4
        center = 4.0 * float(fam.f(sigma))
        for row in pts:
            if np.abs(row - sigma).max() > 1e-6:
                assert float(np.asarray(fam.f(row)).sum()) > center

