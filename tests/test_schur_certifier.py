"""Schur condition, sampling certification and the gap functions' extrema."""

import math

import numpy as np
import pytest

from bonnesen import (
    Classification,
    SymmetricFunction,
    certify,
    errors,
    family,
    linear_function,
    power_gap_function,
    power_gap_reverse_function,
    sample_simplex_batch,
)
from bonnesen.schur_certifier import _condition

PI = math.pi
PROBE = np.array([0.4 * PI, 0.3 * PI, 0.3 * PI])

#: Central-difference step (radians); balances truncation and roundoff.
FD_STEP = 1e-6


def central_difference(F, i, pts, h=FD_STEP):
    """(F(x + h e_i) - F(x - h e_i)) / 2h over a (m, n) batch."""
    up, down = pts.copy(), pts.copy()
    up[:, i] += h
    down[:, i] -= h
    return (np.asarray(F.evaluate(up), dtype=float)
            - np.asarray(F.evaluate(down), dtype=float)) / (2.0 * h)


def fd_condition(F, pts, i=0, j=1):
    """(x_i - x_j)(FD_i - FD_j) over a (m, n) batch: the central-difference
    reference that _condition is checked against."""
    return (pts[:, i] - pts[:, j]) * (central_difference(F, i, pts)
                                      - central_difference(F, j, pts))


def condition(F, x):
    """The (1, 2) Schur condition at one point."""
    return float(_condition(F, x[None, :])[0][0])


class TestConditionValue:
    def test_convex_gap_positive_at_probe(self):
        F = power_gap_function(family("tan"), 3, 1)
        assert condition(F, PROBE) > 0.0

    def test_reverse_gap_negative_at_probe(self):
        F = power_gap_reverse_function(family("tan"), 3, 1, 3)
        assert condition(F, PROBE) < 0.0

    def test_zero_when_pair_coordinates_equal(self):
        F = power_gap_function(family("tan"), 3, 2)
        x = np.array([0.3 * PI, 0.3 * PI, 0.4 * PI])
        assert condition(F, x) == 0.0

    def test_pair_choice_matches_swapped_default_pair(self):
        # certify checks only the (0, 1) pair; symmetry makes that enough.
        F = power_gap_function(family("tan"), 4, 2)
        pts = sample_simplex_batch(4, PI, 1e-3, 100, seed=17)
        for i, j in [(0, 2), (1, 3), (2, 3)]:
            # Permutation putting coordinates (i, j) first; symmetry of F
            # makes the (i, j) condition equal the (0, 1) condition there.
            perm = [i, j] + [m for m in range(4) if m not in (i, j)]
            values, scale = _condition(F, pts[:, perm])
            assert np.abs(values - fd_condition(F, pts, i, j)).max() <= 1e-5 * scale


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
        values, scale = _condition(F, pts)
        assert np.abs(values - fd_condition(F, pts)).max() <= 1e-5 * scale


def _neither_probe(n=3):
    # sum sin(3x): f' = 3cos(3x) is not monotone on (0, pi/2), so the
    # condition changes sign across the simplex.
    return SymmetricFunction(n, (0.0, PI / 2), lambda x: np.sin(3.0 * x),
                             lambda x: 3.0 * np.cos(3.0 * x), lambda P, s: P, "sin3-sum")


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

    def test_large_alpha_reverse_gap_is_concave(self):
        # The seed certification_grid gives this cell of
        # certify --n 3 --alpha 10 --k 2 --samples 200.
        F = power_gap_reverse_function(family("tan"), 3, 10, 2)
        verdict = certify(F, PI, 200, seed=[7, 1, 3, 10, 2])
        assert verdict.classification == Classification.SCHUR_CONCAVE
        assert verdict.noise_floor < 1e21

    def test_zero_samples_rejected(self):
        with pytest.raises(errors.DomainViolation):
            certify(linear_function(3), PI, samples=0, seed=1)

    @pytest.mark.parametrize("alpha, k", [(400, None), (1, 400), (60, 2)])
    def test_overflowing_condition_values_are_named(self, alpha, k):
        fam = family("tan")
        F = (power_gap_function(fam, 3, alpha) if k is None
             else power_gap_reverse_function(fam, 3, alpha, k))
        with pytest.raises(errors.NonFiniteValue, match=r"\[tan, alpha=.*n=3\]: the Schur"):
            certify(F, PI, samples=500, seed=1)

    @pytest.mark.parametrize("n, alpha, k", [(8, 400, None), (3, 400, 2), (3, 1, 800)])
    def test_overflowing_coefficient_is_named(self, n, alpha, k):
        fam = family("csc")
        with pytest.raises(errors.NonFiniteValue) as exc:
            if k is None:
                power_gap_function(fam, n, alpha)
            else:
                power_gap_reverse_function(fam, n, alpha, k)
        name = (f"power_gap[csc, alpha={alpha}, n={n}]" if k is None
                else f"power_gap_reverse[csc, alpha={alpha}, k={k}, n={n}]")
        assert str(exc.value).startswith(name + ": the coefficient")

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
    # A Schur-convex (concave) function takes its constrained minimum
    # (maximum) at the barycenter; both gap functions vanish there.
    def test_convex_gap_minimum_is_zero_at_center(self):
        F = power_gap_function(family("tan"), 3, 1)
        center = F.evaluate(np.full(3, PI / 3))
        vals = F.evaluate(sample_simplex_batch(3, PI, 1e-4, 2000, seed=29, bound=F.domain[1]))
        assert center == pytest.approx(0.0, abs=1e-10)
        assert (vals - center).min() >= -1e-9 * max(1.0, abs(center), np.abs(vals).max())
        assert (vals - center).min() >= -center - 1e-9

    def test_reverse_gap_maximum_is_zero_at_center(self):
        F = power_gap_reverse_function(family("tan"), 3, 1, 3)
        center = F.evaluate(np.full(3, PI / 3))
        vals = F.evaluate(sample_simplex_batch(3, PI, 1e-4, 2000, seed=29, bound=F.domain[1]))
        assert center == pytest.approx(0.0, abs=1e-10)
        assert (center - vals).min() >= -1e-9 * max(1.0, abs(center), np.abs(vals).max())


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

