"""Numerical Schur-convexity certification on the constrained simplex.

A symmetric function F with continuous partials is Schur-convex (concave)
exactly when (x1 - x2) (dF/dx1 - dF/dx2) >= 0 (<= 0); by symmetry the
(1, 2) coordinate pair suffices. This module samples the constrained
simplex, evaluates that condition and classifies the sign pattern. The
verdicts are falsification-style: a classification is "supported at N
samples", never proven.

A function is data, F(x) = h(P, s) with P = sum f(x_i) and s = f(mean x).
The two proof-side gap functions, the one home of the power-sum gap
formulas, are the strictly Schur-convex convex-side gap and the strictly
Schur-concave reverse gap; the certifier is expected to reproduce both.

Everything is pure and reentrant; certification aggregates samples in
draw order, so a verdict depends only on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .analytic_inequalities import FunctionFamily
from .errors import DomainViolation, NonFiniteValue
from .polygon_core import GEOMETRIC_BOUND, Dual, sample_simplex_batch

#: Noise floor = this factor times the sampled condition-value scale.
NOISE_FLOOR_FACTOR = 1e-9
#: Clearance of every sampled coordinate from the ends of the domain.
CERTIFY_MARGIN = 1e-4


@dataclass(frozen=True)
class SymmetricFunction:
    """F(x) = h(P, s) on an open box domain, P = sum f(x_i), s = f(mean x).

    ``f`` and ``f_prime`` act elementwise; ``h`` is the one value formula,
    written with arithmetic and integer powers only, so that it runs on
    floats, arrays and :class:`~bonnesen.polygon_core.Dual` numbers alike.
    """

    arity: int
    domain: tuple[float, float]
    f: Callable
    f_prime: Callable
    h: Callable
    name: str = ""

    def evaluate(self, x):
        """F over the last axis: a scalar at a point, (m,) values on an (m, n) batch."""
        return self.h(*_sums(self, x))


def _sums(F: SymmetricFunction, x) -> tuple[np.ndarray, np.ndarray]:
    """(P, s) over the last axis of ``x``."""
    x = np.asarray(x, dtype=float)
    return (np.asarray(F.f(x), dtype=float).sum(axis=-1),
            np.asarray(F.f(x.mean(axis=-1)), dtype=float))


def _condition(F: SymmetricFunction, pts: np.ndarray) -> tuple[np.ndarray, float]:
    """The (1, 2) Schur condition over the (m, n) batch ``pts`` and its scale.

    dF/dx_i is h_P f'(x_i) plus a chain term through the mean that is the
    same for every i, so values = h_P (x1 - x2)(f'(x1) - f'(x2)), h_P from
    one pass of ``F.h`` on a Dual seeded in P; scale = max |h_P (x1 - x2)|
    max(|f'(x1)|, |f'(x2)|) over the batch.
    """
    P, s = _sums(F, pts)
    weight = F.h(Dual(P, 1.0), s).d * (pts[:, 0] - pts[:, 1])
    fp1, fp2 = (np.asarray(F.f_prime(pts[:, i]), dtype=float) for i in (0, 1))
    values = weight * (fp1 - fp2)
    return values, float((np.abs(weight) * np.maximum(np.abs(fp1), np.abs(fp2))).max())


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

    floor = NOISE_FLOOR_FACTOR * max |h_P (x1 - x2)| max(|f'(x1)|, |f'(x2)|)
    over the sample, which keeps the test scale-aware. A condition value
    or floor that leaves the float range raises NonFiniteValue.

    h_P is unfactored: at k = 2 and large P the reverse gap's 2a P^(2a-1)
    terms are equal floats and cancel exactly, so h_P there is 0 or
    negative, never positive, and ``worst_value`` can read 0.0.
    """
    if samples < 1:
        raise DomainViolation(f"samples must be >= 1, got {samples}")
    pts = sample_simplex_batch(F.arity, total, CERTIFY_MARGIN, samples, seed,
                               bound=F.domain[1])
    # Overflow is reported below as NonFiniteValue, not as numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        values, scale = _condition(F, pts)
    if not (np.isfinite(scale) and np.isfinite(values).all()):
        raise NonFiniteValue(f"{F.name}: the Schur condition values leave the float range")
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

def _coefficient(n: int, exponent: int, name: str) -> float:
    try:
        return float(n) ** exponent
    except OverflowError:
        raise NonFiniteValue(f"{name}: the coefficient {n}^{exponent} "
                             "overflows the float range") from None


def power_gap_function(fam: FunctionFamily, n: int, alpha: int) -> SymmetricFunction:
    """Gap function of the lower-bound inequality; strictly Schur-convex.

    With P = sum f(x_i) and s = f(mean x),
    F = P^(2a) - (n^a + 1) s^a P^a + n^a s^(2a) = lhs - rhs of
    P^(2a) - (n s)^a P^a >= s^a (P^a - (n s)^a). F vanishes at the
    barycenter and its nonnegativity is the lower-bound inequality.
    """
    a = int(alpha)
    name = f"power_gap[{fam.name}, alpha={a}, n={n}]"
    na = _coefficient(n, a, name)
    return SymmetricFunction(
        n, fam.domain, fam.f, fam.f_prime,
        lambda P, s: P ** (2 * a) - (na + 1.0) * s**a * P**a + na * s ** (2 * a),
        name)


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
    name = f"power_gap_reverse[{fam.name}, alpha={a}, k={kk}, n={n}]"
    na = _coefficient(n, a, name)
    nka = _coefficient(n, kk * a, name)
    return SymmetricFunction(
        n, fam.domain, fam.f, fam.f_prime,
        lambda P, s: P ** (2 * a) - na * s**a * P**a - P ** (kk * a) + nka * s ** (kk * a),
        name)


def linear_function(n: int) -> SymmetricFunction:
    """sum x_i on (0, pi/2): Schur-convex and Schur-concave, strict in neither."""
    return SymmetricFunction(n, (0.0, GEOMETRIC_BOUND), lambda x: x, np.ones_like,
                             lambda P, s: P, f"linear[n={n}]")
