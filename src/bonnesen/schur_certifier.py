"""Numerical Schur-convexity certification on the constrained simplex.

A symmetric function F with continuous partials is Schur-convex (concave)
exactly when (x1 - x2) (dF/dx1 - dF/dx2) >= 0 (<= 0); by symmetry the
(1, 2) coordinate pair suffices. This module samples the constrained
simplex, evaluates that condition and classifies the sign pattern. The
verdicts are falsification-style: a classification is "supported at N
samples", never proven.

Also here: doubly stochastic matrices (the averaging matrix sends every
point to the barycenter, which is why Schur-convex functions take their
constrained minimum there) and the two proof-side gap functions whose
classifications the certifier is expected to reproduce: the convex-side
gap function is strictly Schur-convex, the reverse-gap function strictly
Schur-concave.

Everything is pure and reentrant; certification aggregates samples in
draw order, so a verdict depends only on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .analytic_inequalities import FunctionFamily
from .errors import (
    DimensionMismatch,
    DomainViolation,
    NotDoublyStochastic,
    TooCloseToBoundary,
)
from .polygon_core import sample_simplex_batch

#: Central finite-difference step (radians); balances truncation and roundoff.
FD_STEP = 1e-6

#: Noise floor = this factor times the sampled condition-value scale.
NOISE_FLOOR_FACTOR = 1e-9


@dataclass(frozen=True)
class SymmetricFunction:
    """A permutation-symmetric function on an open box domain.

    ``evaluate`` maps a point of shape (n,) or a batch (m, n) to a scalar
    or (m,) array. ``partial`` maps (i, points) to the i-th partial
    derivative, supplied in closed form where available; when None the
    certifier falls back to central finite differences with step
    :data:`FD_STEP`.
    """

    arity: int
    domain: tuple[float, float]
    evaluate: Callable
    partial: Callable | None = None
    name: str = ""


def _as_batch(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def finite_difference_partial(
    F: SymmetricFunction, i: int, points, h: float = FD_STEP
) -> np.ndarray:
    """Central difference (F(x + h e_i) - F(x - h e_i)) / 2h."""
    pts, single = _as_batch(points)
    lo, hi = F.domain
    if (pts[:, i] - h <= lo).any() or (pts[:, i] + h >= hi).any():
        raise TooCloseToBoundary(
            f"coordinate {i} within {h!r} of the domain boundary"
        )
    up = pts.copy()
    up[:, i] += h
    down = pts.copy()
    down[:, i] -= h
    out = (np.asarray(F.evaluate(up), dtype=float)
           - np.asarray(F.evaluate(down), dtype=float)) / (2.0 * h)
    return out[0] if single else out


def partial_value(F: SymmetricFunction, i: int, points) -> np.ndarray:
    if F.partial is not None:
        pts, single = _as_batch(points)
        out = np.asarray(F.partial(i, pts), dtype=float)
        return out[0] if single else out
    return finite_difference_partial(F, i, points)


# ---------------------------------------------------------------------------
# Doubly stochastic matrices

@dataclass(frozen=True)
class DoublyStochasticMatrix:
    """Nonnegative square matrix whose rows and columns each sum to 1."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"matrix must be square, got shape {m.shape}")
        if (m < 0.0).any():
            raise NotDoublyStochastic("negative entry")
        if np.abs(m.sum(axis=1) - 1.0).max() > 1e-12:
            raise NotDoublyStochastic("a row sum is off by more than 1e-12")
        if np.abs(m.sum(axis=0) - 1.0).max() > 1e-12:
            raise NotDoublyStochastic("a column sum is off by more than 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def uniform_matrix(n: int) -> DoublyStochasticMatrix:
    """The averaging matrix with every entry 1/n; maps any x to its barycenter."""
    return DoublyStochasticMatrix(np.full((n, n), 1.0 / n))


def identity_matrix(n: int) -> DoublyStochasticMatrix:
    return DoublyStochasticMatrix(np.eye(n))


def permutation_matrix(perm) -> DoublyStochasticMatrix:
    perm = list(perm)
    m = np.zeros((len(perm), len(perm)))
    m[np.arange(len(perm)), perm] = 1.0
    return DoublyStochasticMatrix(m)


def apply_doubly_stochastic(P: DoublyStochasticMatrix, x) -> np.ndarray:
    """P @ x. Preserves the coordinate sum exactly up to roundoff."""
    vec = np.asarray(x, dtype=float)
    if vec.shape != (P.n,):
        raise DimensionMismatch(
            f"matrix is {P.n}x{P.n} but vector has shape {vec.shape}"
        )
    return P.entries @ vec


# ---------------------------------------------------------------------------
# The Schur condition and sampling certification

def schur_condition_value(
    F: SymmetricFunction, x, i: int = 0, j: int = 1
) -> float:
    """(x_i - x_j) (dF/dx_i - dF/dx_j) at one point.

    Positive everywhere means Schur-convex, negative means Schur-concave.
    By symmetry the default (0, 1) pair is sufficient; other pairs are
    accepted for the pair-invariance property test. Requires clearance of
    at least the finite-difference step from the domain boundary.
    """
    vec = np.asarray(x, dtype=float)
    lo, hi = F.domain
    if (vec - FD_STEP <= lo).any() or (vec + FD_STEP >= hi).any():
        raise TooCloseToBoundary(
            f"point needs clearance {FD_STEP!r} from ({lo!r}, {hi!r})"
        )
    di = partial_value(F, i, vec)
    dj = partial_value(F, j, vec)
    return float((vec[i] - vec[j]) * (di - dj))


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
    margin: float = 1e-4,
    noise_floor_factor: float = NOISE_FLOOR_FACTOR,
) -> SchurVerdict:
    """Classify F by the sign of the Schur condition over sampled points.

    Draws ``samples`` uniform points of the constrained simplex (same
    margin-respecting Dirichlet scheme as the polygon sampler), evaluates
    the (1, 2) condition at each and classifies:

      * all values >= -floor           -> SCHUR_CONVEX
      * all values <= +floor           -> SCHUR_CONCAVE
      * both signs beyond the floor    -> NEITHER (two witnesses recorded)
      * everything inside the floor    -> INDETERMINATE

    floor = noise_floor_factor * max |x1 - x2| * max(|dF/dx1|, |dF/dx2|)
    over the sample, which keeps the test scale-aware.
    """
    if samples < 1:
        raise DomainViolation(f"samples must be >= 1, got {samples}")
    lo, hi = F.domain
    pts = sample_simplex_batch(F.arity, total, margin, samples, seed, bound=hi)
    d1 = partial_value(F, 0, pts)
    d2 = partial_value(F, 1, pts)
    diff = pts[:, 0] - pts[:, 1]
    values = diff * (d1 - d2)
    scale = float((np.abs(diff) * np.maximum(np.abs(d1), np.abs(d2))).max())
    floor = noise_floor_factor * scale
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


class ExtremumMode(str, Enum):
    MAX = "max"
    MIN = "min"


@dataclass(frozen=True)
class CenterExtremumReport:
    """Does F take its constrained extremum at the barycenter?

    ``worst_margin`` is min over samples of the signed gap in the claimed
    direction; negative beyond the floor refutes the claim and the
    offending point is recorded. ``near_ties`` counts non-central samples
    whose value matches the center within the floor. Sampling supports
    but cannot prove uniqueness, so zero near-ties reads as "no distinct
    extremizer found".
    """

    mode: ExtremumMode
    center_value: float
    worst_margin: float
    samples_checked: int
    holds: bool
    witness: tuple[float, ...] | None = None
    near_ties: int = 0


def extremum_at_center(
    F: SymmetricFunction,
    total: float,
    mode: ExtremumMode,
    samples: int,
    seed: int,
    margin: float = 1e-4,
    noise_floor_factor: float = NOISE_FLOOR_FACTOR,
) -> CenterExtremumReport:
    """Check F(center) >= F(sample) (MAX mode) or <= (MIN mode) over samples."""
    if samples < 1:
        raise DomainViolation(f"samples must be >= 1, got {samples}")
    lo, hi = F.domain
    n = F.arity
    sigma = total / n
    if not (lo < sigma < hi):
        raise DomainViolation(f"barycenter {sigma!r} outside ({lo!r}, {hi!r})")
    pts = sample_simplex_batch(n, total, margin, samples, seed, bound=hi)
    vals = np.asarray(F.evaluate(pts), dtype=float)
    center = float(F.evaluate(np.full(n, sigma)))
    margins = (center - vals) if mode == ExtremumMode.MAX else (vals - center)
    floor = noise_floor_factor * max(1.0, abs(center), float(np.abs(vals).max()))
    i_worst = int(np.argmin(margins))
    worst = float(margins[i_worst])
    distinct = np.abs(pts - sigma).max(axis=1) > 1e-6
    ties = int(((np.abs(margins) <= floor) & distinct).sum())
    return CenterExtremumReport(
        mode=mode,
        center_value=center,
        worst_margin=worst,
        samples_checked=samples,
        holds=worst >= -floor,
        witness=tuple(pts[i_worst]) if worst < -floor else None,
        near_ties=ties,
    )


# ---------------------------------------------------------------------------
# Proof-side gap functions

def power_gap_function(fam: FunctionFamily, n: int, alpha: int) -> SymmetricFunction:
    """Gap function of the lower-bound inequality; strictly Schur-convex.

    With P = sum f(x_i) and s = f(mean x),
    F = P^(2a) - (n^a + 1) s^a P^a + n^a s^(2a); F vanishes at the
    barycenter and its nonnegativity is the lower-bound inequality.
    The closed-form partials include the chain term through the mean.
    """
    a = int(alpha)
    na = float(n) ** a

    def evaluate(x):
        pts, single = _as_batch(x)
        P = np.asarray(fam.f(pts), dtype=float).sum(axis=1)
        s = np.asarray(fam.f(pts.mean(axis=1)), dtype=float)
        out = P ** (2 * a) - (na + 1.0) * s**a * P**a + na * s ** (2 * a)
        return out[0] if single else out

    def partial(i, x):
        pts, single = _as_batch(x)
        P = np.asarray(fam.f(pts), dtype=float).sum(axis=1)
        sig = pts.mean(axis=1)
        s = np.asarray(fam.f(sig), dtype=float)
        fp_i = np.asarray(fam.f_prime(pts[:, i]), dtype=float)
        fp_s = np.asarray(fam.f_prime(sig), dtype=float)
        explicit = (2 * a * P ** (2 * a - 1)
                    - a * (na + 1.0) * s**a * P ** (a - 1)) * fp_i
        through_mean = (fp_s / n) * (
            -a * (na + 1.0) * s ** (a - 1) * P**a
            + 2 * a * na * s ** (2 * a - 1)
        )
        out = explicit + through_mean
        return out[0] if single else out

    return SymmetricFunction(
        arity=n, domain=fam.domain, evaluate=evaluate, partial=partial,
        name=f"power_gap[{fam.name}, alpha={a}, n={n}]",
    )


def power_gap_reverse_function(
    fam: FunctionFamily, n: int, alpha: int, k: int
) -> SymmetricFunction:
    """Gap function of the reverse inequality; strictly Schur-concave.

    F = P^(2a) - n^a s^a P^a - P^(ka) + n^(ka) s^(ka); F vanishes at the
    barycenter and its nonpositivity is the reverse inequality.
    """
    a = int(alpha)
    kk = int(k)
    na = float(n) ** a
    nka = float(n) ** (kk * a)

    def evaluate(x):
        pts, single = _as_batch(x)
        P = np.asarray(fam.f(pts), dtype=float).sum(axis=1)
        s = np.asarray(fam.f(pts.mean(axis=1)), dtype=float)
        out = P ** (2 * a) - na * s**a * P**a - P ** (kk * a) + nka * s ** (kk * a)
        return out[0] if single else out

    def partial(i, x):
        pts, single = _as_batch(x)
        P = np.asarray(fam.f(pts), dtype=float).sum(axis=1)
        sig = pts.mean(axis=1)
        s = np.asarray(fam.f(sig), dtype=float)
        fp_i = np.asarray(fam.f_prime(pts[:, i]), dtype=float)
        fp_s = np.asarray(fam.f_prime(sig), dtype=float)
        explicit = (2 * a * P ** (2 * a - 1)
                    - a * na * s**a * P ** (a - 1)
                    - kk * a * P ** (kk * a - 1)) * fp_i
        through_mean = (fp_s / n) * (
            -a * na * s ** (a - 1) * P**a
            + kk * a * nka * s ** (kk * a - 1)
        )
        out = explicit + through_mean
        return out[0] if single else out

    return SymmetricFunction(
        arity=n, domain=fam.domain, evaluate=evaluate, partial=partial,
        name=f"power_gap_reverse[{fam.name}, alpha={a}, k={kk}, n={n}]",
    )


def linear_function(n: int, domain: tuple[float, float] = (0.0, math.pi / 2)) -> SymmetricFunction:
    """sum x_i: Schur-convex and Schur-concave at once, strict in neither."""

    def evaluate(x):
        pts, single = _as_batch(x)
        out = pts.sum(axis=1)
        return out[0] if single else out

    def partial(i, x):
        pts, single = _as_batch(x)
        out = np.ones(pts.shape[0])
        return out[0] if single else out

    return SymmetricFunction(arity=n, domain=domain, evaluate=evaluate,
                             partial=partial, name=f"linear[n={n}]")

