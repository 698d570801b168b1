"""Numerical Schur-convexity certification on the constrained simplex.

A symmetric function F with continuous partials is Schur-convex (concave)
exactly when (x1 - x2) (dF/dx1 - dF/dx2) >= 0 (<= 0); by symmetry the
(1, 2) coordinate pair suffices. This module samples the constrained
simplex, evaluates that condition and classifies the sign pattern. The
verdicts are falsification-style: a classification is "supported at N
samples", never proven.

Also here are the two proof-side gap functions, the one home of the
power-sum gap formulas: the convex-side gap function is strictly
Schur-convex, the reverse-gap function strictly Schur-concave, and the
certifier is expected to reproduce both classifications.

Everything is pure and reentrant; certification aggregates samples in
draw order, so a verdict depends only on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .analytic_inequalities import FunctionFamily
from .errors import DomainViolation
from .polygon_core import GEOMETRIC_BOUND, sample_simplex_batch

#: Noise floor = this factor times the sampled condition-value scale.
NOISE_FLOOR_FACTOR = 1e-9
#: Clearance of every sampled coordinate from the ends of the domain.
CERTIFY_MARGIN = 1e-4


@dataclass(frozen=True)
class SymmetricFunction:
    """A permutation-symmetric function on an open box domain.

    ``evaluate`` maps a point of shape (n,) or a batch (m, n) to a scalar
    or (m,) array. ``partial`` maps (indices, batch) to a list of partial
    derivatives over the (m, n) batch, one (m,) array per index, in closed
    form, so that work shared by the partials is done once.
    """

    arity: int
    domain: tuple[float, float]
    evaluate: Callable
    partial: Callable
    name: str = ""


def _as_batch(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def partial_values(F: SymmetricFunction, indices, points) -> list[np.ndarray]:
    """dF/dx_i at ``points`` for each i in ``indices``, from one F.partial call."""
    pts, single = _as_batch(points)
    out = [np.asarray(d, dtype=float) for d in F.partial(indices, pts)]
    return [d[0] for d in out] if single else out


def partial_value(F: SymmetricFunction, i: int, points) -> np.ndarray:
    return partial_values(F, (i,), points)[0]


class Classification(str, Enum):
    SCHUR_CONVEX = "schur_convex"
    SCHUR_CONCAVE = "schur_concave"
    NEITHER = "neither"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SchurVerdict:
    """Outcome of a sampling certification run.

    ``worst_value`` is the condition value closest to contradicting the
    classification. A NEITHER verdict records one witness of each sign,
    both beyond the noise floor.
    """

    classification: Classification
    samples_checked: int
    worst_value: float
    noise_floor: float
    witness: tuple[float, ...] | None = None
    positive_witness: tuple[float, ...] | None = None
    negative_witness: tuple[float, ...] | None = None

    def describe(self) -> str:
        return (
            f"{self.classification.value} supported at {self.samples_checked} "
            f"samples (worst condition value {self.worst_value:.3e}, "
            f"noise floor {self.noise_floor:.3e})"
        )


def certify(
    F: SymmetricFunction,
    total: float,
    samples: int,
    seed: int,
) -> SchurVerdict:
    """Classify F by the sign of the Schur condition over sampled points.

    Draws ``samples`` uniform points of the constrained simplex, CERTIFY_MARGIN
    inside F's domain (the polygon sampler's Dirichlet scheme), evaluates
    the (1, 2) condition at each and classifies:

      * all values >= -floor           -> SCHUR_CONVEX
      * all values <= +floor           -> SCHUR_CONCAVE
      * both signs beyond the floor    -> NEITHER (two witnesses recorded)
      * everything inside the floor    -> INDETERMINATE

    floor = NOISE_FLOOR_FACTOR * max |x1 - x2| * max(|dF/dx1|, |dF/dx2|)
    over the sample, which keeps the test scale-aware.
    """
    if samples < 1:
        raise DomainViolation(f"samples must be >= 1, got {samples}")
    lo, hi = F.domain
    pts = sample_simplex_batch(F.arity, total, CERTIFY_MARGIN, samples, seed, bound=hi)
    d1, d2 = partial_values(F, (0, 1), pts)
    diff = pts[:, 0] - pts[:, 1]
    values = diff * (d1 - d2)
    scale = float((np.abs(diff) * np.maximum(np.abs(d1), np.abs(d2))).max())
    floor = NOISE_FLOOR_FACTOR * scale
    pos = values > floor
    neg = values < -floor
    i_min = int(np.argmin(values))
    i_max = int(np.argmax(values))
    if pos.any() and neg.any():
        return SchurVerdict(
            Classification.NEITHER, samples, float(values[i_min]), floor,
            witness=tuple(pts[i_min]),
            positive_witness=tuple(pts[i_max]),
            negative_witness=tuple(pts[i_min]),
        )
    if pos.any():
        return SchurVerdict(
            Classification.SCHUR_CONVEX, samples, float(values[i_min]), floor,
            witness=tuple(pts[i_min]),
        )
    if neg.any():
        return SchurVerdict(
            Classification.SCHUR_CONCAVE, samples, float(values[i_max]), floor,
            witness=tuple(pts[i_max]),
        )
    worst = float(values[i_max]) if abs(values[i_max]) >= abs(values[i_min]) else float(values[i_min])
    return SchurVerdict(Classification.INDETERMINATE, samples, worst, floor)


# ---------------------------------------------------------------------------
# Proof-side gap functions

def _gap_function(fam: FunctionFamily, n: int, value: Callable,
                  gradient: Callable, name: str) -> SymmetricFunction:
    """The symmetric function F = value(P, s), P = sum f(x_i), s = f(mean x).

    ``gradient(P, s)`` gives (dF/dP, dF/ds), so the i-th partial is
    dF/dP f'(x_i) + (f'(mean x) / n) dF/ds, the second term being the
    chain through the mean.
    """

    def evaluate(x):
        pts, single = _as_batch(x)
        P = np.asarray(fam.f(pts), dtype=float).sum(axis=1)
        s = np.asarray(fam.f(pts.mean(axis=1)), dtype=float)
        out = value(P, s)
        return out[0] if single else out

    def partial(indices, pts):
        P = np.asarray(fam.f(pts), dtype=float).sum(axis=1)
        sig = pts.mean(axis=1)
        s = np.asarray(fam.f(sig), dtype=float)
        fp_s = np.asarray(fam.f_prime(sig), dtype=float)
        d_P, d_s = gradient(P, s)
        chain = (fp_s / n) * d_s
        return [d_P * np.asarray(fam.f_prime(pts[:, i]), dtype=float) + chain
                for i in indices]

    return SymmetricFunction(arity=n, domain=fam.domain, evaluate=evaluate,
                             partial=partial, name=name)


def power_gap_function(fam: FunctionFamily, n: int, alpha: int) -> SymmetricFunction:
    """Gap function of the lower-bound inequality; strictly Schur-convex.

    With P = sum f(x_i) and s = f(mean x),
    F = P^(2a) - (n^a + 1) s^a P^a + n^a s^(2a) = lhs - rhs of
    P^(2a) - (n s)^a P^a >= s^a (P^a - (n s)^a). F vanishes at the
    barycenter and its nonnegativity is the lower-bound inequality.
    """
    a = int(alpha)
    na = float(n) ** a
    return _gap_function(
        fam, n,
        lambda P, s: P ** (2 * a) - (na + 1.0) * s**a * P**a + na * s ** (2 * a),
        lambda P, s: (2 * a * P ** (2 * a - 1) - a * (na + 1.0) * s**a * P ** (a - 1),
                      -a * (na + 1.0) * s ** (a - 1) * P**a + 2 * a * na * s ** (2 * a - 1)),
        f"power_gap[{fam.name}, alpha={a}, n={n}]",
    )


def power_gap_reverse_function(
    fam: FunctionFamily, n: int, alpha: int, k: int
) -> SymmetricFunction:
    """Gap function of the reverse inequality; strictly Schur-concave.

    F = P^(2a) - n^a s^a P^a - P^(ka) + n^(ka) s^(ka) = lhs - rhs of
    P^(2a) - (n s)^a P^a <= P^(ka) - (n s)^(ka), k >= 2. F vanishes at
    the barycenter and its nonpositivity is the reverse inequality.
    """
    a = int(alpha)
    kk = int(k)
    na = float(n) ** a
    nka = float(n) ** (kk * a)
    return _gap_function(
        fam, n,
        lambda P, s: P ** (2 * a) - na * s**a * P**a - P ** (kk * a) + nka * s ** (kk * a),
        lambda P, s: (2 * a * P ** (2 * a - 1) - a * na * s**a * P ** (a - 1)
                      - kk * a * P ** (kk * a - 1),
                      -a * na * s ** (a - 1) * P**a + kk * a * nka * s ** (kk * a - 1)),
        f"power_gap_reverse[{fam.name}, alpha={a}, k={kk}, n={n}]",
    )


def linear_function(n: int) -> SymmetricFunction:
    """sum x_i on (0, pi/2): Schur-convex and Schur-concave, strict in neither."""

    def evaluate(x):
        pts, single = _as_batch(x)
        out = pts.sum(axis=1)
        return out[0] if single else out

    def partial(indices, pts):
        return [np.ones(pts.shape[0]) for _ in indices]

    return SymmetricFunction(arity=n, domain=(0.0, GEOMETRIC_BOUND), evaluate=evaluate,
                             partial=partial, name=f"linear[n={n}]")

