"""Angle vectors on the constrained simplex and exact polygon measurements.

A polygon tied to a circle of radius R is described by the half central
angles (theta_1, ..., theta_n), each in the open interval (0, pi/2), summing
to pi. For a tangential polygon (circumscribed about the circle) the angles
sit at the vertices and

    L = 2 R sum tan(theta_i),   A = R^2 sum tan(theta_i),

so A = R L / 2 exactly. For a cyclic polygon (inscribed in the circle) the
angles are subtended by the sides and

    L = 2 R sum sin(theta_i),   A = R^2 sum sin(theta_i) cos(theta_i).

The regular counterpart shares the circle: L* = 2 n R tan(pi/n) or
2 n R sin(pi/n), likewise for A*. The isoperimetric deficit is
L^2 - 4 d_n A with d_n = n tan(pi/n); it is nonnegative and vanishes
exactly for the regular polygon.

Everything here is immutable after construction and every operation is a
pure function of its inputs plus an explicit seed, so concurrent use needs
no locking.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    DomainViolation,
    EmptyInput,
    InvalidN,
    OutOfDomain,
    RejectionBudgetExceeded,
    SumMismatch,
)

#: Open-interval bound for all geometric angle families: theta in (0, pi/2).
GEOMETRIC_BOUND = math.pi / 2

#: Default clearance from the interval endpoints; keeps tan(theta) bounded.
DEFAULT_MARGIN = 1e-6

#: Circle radius of every sweep and search: slacks are checked at R = 1.
SWEEP_RADIUS = 1.0

#: Relative tolerance on the angle-sum constraint.
SUM_RTOL = 1e-12

# Fixed draw chunk so the RNG stream does not depend on call pattern.
_CHUNK = 128


class PolygonKind(str, Enum):
    TANGENTIAL = "tangential"  # circumscribed about the circle
    CYCLIC = "cyclic"          # inscribed in the circle


@dataclass(frozen=True)
class AngleVector:
    """n angles in an open interval whose sum is pinned to ``total``.

    The mean sigma = total / n is always derived, never stored.
    Construct through :func:`make_angle_vector` or :func:`regular_angles`
    so the invariants are checked.
    """

    values: tuple[float, ...]
    total: float

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def sigma(self) -> float:
        return self.total / len(self.values)

    def to_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def max_deviation(self) -> float:
        """max |theta_i - sigma|, the distance from the regular point."""
        s = self.sigma
        return max(abs(v - s) for v in self.values)

    def angle_hash(self) -> str:
        """Stable 16-hex-digit fingerprint of the exact float values."""
        packed = struct.pack(f"<{len(self.values)}d", *self.values)
        return hashlib.sha256(packed).hexdigest()[:16]


def make_angle_vector(
    values, total: float, bound: float = GEOMETRIC_BOUND
) -> AngleVector:
    """Validate ``values`` as a point of the constrained open simplex.

    Each value must lie strictly inside (0, bound) and the sum must match
    ``total`` within 1e-12 relative.

    Raises EmptyInput, OutOfDomain (with the offending index), SumMismatch.
    """
    vals = tuple(float(v) for v in values)
    if not vals:
        raise EmptyInput("angle vector needs at least one value")
    for i, v in enumerate(vals):
        if not (0.0 < v < bound) or not math.isfinite(v):
            raise OutOfDomain(
                f"angle {v!r} at index {i} outside open interval (0, {bound!r})",
                index=i,
            )
    total = float(total)
    if abs(math.fsum(vals) - total) > SUM_RTOL * abs(total):
        raise SumMismatch(
            f"sum {math.fsum(vals)!r} does not match declared total {total!r}"
        )
    return AngleVector(values=vals, total=total)


def regular_angles(n: int, total: float, bound: float = GEOMETRIC_BOUND) -> AngleVector:
    """The barycenter (sigma, ..., sigma) of the constrained simplex."""
    if n < 2:
        raise InvalidN(f"need n >= 2, got {n}")
    sigma = float(total) / n
    if not (0.0 < sigma < bound):
        raise DomainViolation(
            f"mean angle {sigma!r} is not interior to (0, {bound!r})"
        )
    return AngleVector(values=(sigma,) * n, total=float(total))


@dataclass(frozen=True)
class PolygonModel:
    """A tangential or cyclic polygon: kind, circle radius, half angles."""

    kind: PolygonKind
    radius: float
    angles: AngleVector

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise DomainViolation(f"radius must be positive, got {self.radius!r}")
        if abs(self.angles.total - math.pi) > SUM_RTOL * math.pi:
            raise SumMismatch(
                f"polygon angles must sum to pi, declared total is {self.angles.total!r}"
            )


@dataclass(frozen=True)
class GeometricSummary:
    """Perimeter, area, regular-counterpart values and the deficit."""

    perimeter: float
    area: float
    regular_perimeter: float
    regular_area: float
    dn: float
    deficit: float


def measure(p: PolygonModel) -> GeometricSummary:
    """Exact closed-form perimeter/area for the polygon and its regular twin."""
    ctx = measure_arrays(p.kind, p.radius, p.angles.to_array()[None, :])
    L, A = ctx.L[0], ctx.A[0]
    return GeometricSummary(
        perimeter=float(L),
        area=float(A),
        regular_perimeter=float(ctx.Lstar),
        regular_area=float(ctx.Astar),
        dn=float(ctx.dn),
        deficit=float(L * L - 4.0 * ctx.dn * A),
    )


@dataclass
class EvalContext:
    """Measured quantities the catalog formulas need: float, array or mpf.

    Built by :meth:`RegularPart.context` for every number backend, once
    per batch, so it is a plain dataclass: a frozen one costs more to
    build than a one-row evaluation spends in it. Treat it as read-only.
    ``n`` is the number of sides; ``L_hat`` and ``A_hat`` are the measured
    sums L/2R and A/R^2 (one object for a tangential polygon);
    ``Lstar_hat`` and ``Astar_hat`` are L*/2R and A*/R^2. What a formula
    stores in :attr:`memo` is kept for the entries evaluated on the context.
    """

    n: int
    R: object
    L: object
    A: object
    L_hat: object
    A_hat: object
    Lstar: object
    Astar: object
    Lstar_hat: object
    Astar_hat: object
    dn: object
    tan_pin: object
    cos_pin: object
    #: Terms derived from this context, kept for the entries that share it.
    memo: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class RegularPart:
    """The part of an EvalContext fixed by (kind, n, R): all but the sums.

    Built by :func:`regular_part`; :meth:`context` completes it with a
    batch's sums. Both backends build it once and reuse it: the float one
    per (kind, n, R) (:func:`float_regular_part`), the 50-digit mpmath one
    also per (kind, n, R) (``highprec._regular_part``).
    """

    n: int
    R: object
    two_R: object
    r2: object
    Lstar: object
    Astar: object
    Lstar_hat: object
    Astar_hat: object
    dn: object
    tan_pin: object
    cos_pin: object

    def context(self, sum_L, sum_A) -> EvalContext:
        """The context of rows with sums ``sum_L`` and ``sum_A``.

        They are the per-row sums with L = 2 R sum_L and A = R^2 sum_A:
        sum tan(theta) for both when tangential, sum sin(theta) and
        sum sin(theta) cos(theta) when cyclic. The context keeps them as
        ``L_hat`` and ``A_hat``.
        """
        return EvalContext(self.n, self.R, self.two_R * sum_L, self.r2 * sum_A, sum_L,
                           sum_A, self.Lstar, self.Astar, self.Lstar_hat, self.Astar_hat,
                           self.dn, self.tan_pin, self.cos_pin)


def regular_part(kind: PolygonKind, n: int, R, tan_pin, sin_pin, cos_pin) -> RegularPart:
    """The closed-form regular polygon: L*, A*, L*/2R, A*/R^2 and d_n from R and pi/n.

    The trig values are those of pi/n. Any backend whose numbers support
    + - * / and ** works.
    """
    two_R, r2 = 2 * R, R * R
    if kind == PolygonKind.TANGENTIAL:
        Lstar, Astar = 2 * n * R * tan_pin, n * r2 * tan_pin
    else:
        Lstar, Astar = 2 * n * R * sin_pin, n * r2 * sin_pin * cos_pin
    return RegularPart(n=n, R=R, two_R=two_R, r2=r2, Lstar=Lstar, Astar=Astar,
                       Lstar_hat=Lstar / two_R, Astar_hat=Astar / r2,
                       dn=n * tan_pin, tan_pin=tan_pin, cos_pin=cos_pin)


@functools.lru_cache(maxsize=256, typed=True)
def float_regular_part(kind: PolygonKind, n: int, radius) -> RegularPart:
    """The float regular part per (kind, n, radius).

    Typed, so that a Python float radius keeps Python float constants
    (whose powers raise OverflowError) apart from a numpy one.
    """
    pin = math.pi / n
    return regular_part(kind, n, radius, math.tan(pin), math.sin(pin), math.cos(pin))


class Dual:
    """Forward-mode dual number over rows, for exact gradients.

    ``v`` holds the values; ``d`` their partials in whatever variables the
    caller seeded, broadcastable to ``v``. The descents seed sum_L and
    sum_A of :meth:`RegularPart.context` as ``d[0]`` and ``d[1]`` (one Dual
    for both sums when tangential) and run the catalog formulas unchanged,
    values bit for bit the float path's; ``certify`` seeds P alone (d = 1)
    to take h_P of a gap function. Powers take positive integer exponents.
    """

    __slots__ = ("v", "d")
    __array_ufunc__ = None  # numpy operands defer to the methods below

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.v + o.v, self.d + o.d)
        return Dual(self.v + o, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.v, -self.d)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.v * o.v, self.d * o.v + o.d * self.v)
        return Dual(self.v * o, self.d * o)

    __rmul__ = __mul__

    def __pow__(self, p: int):
        return Dual(self.v ** p, (p * self.v ** (p - 1)) * self.d)


def angle_terms(kind: PolygonKind, angles: np.ndarray):
    """Per-angle summands of sum_L and sum_A (see :meth:`RegularPart.context`).

    tan for both when tangential (one array, returned twice); sin and
    sin cos when cyclic. Elementwise, so a table of these terms over a
    lattice of angles gives each lattice point the same values.
    """
    if kind == PolygonKind.TANGENTIAL:
        tan = np.tan(angles)
        return tan, tan
    sin = np.sin(angles)
    return sin, sin * np.cos(angles)


def measure_arrays(kind: PolygonKind, radius: float, angles: np.ndarray) -> EvalContext:
    """Vectorized measurement over a batch of angle rows.

    ``angles`` has shape (m, n); the context holds per-row arrays L, A and
    the shared scalars. Used by the catalog sweeps and the descents;
    :func:`measure` is the single-polygon wrapper.
    """
    angles = np.asarray(angles, dtype=float)
    n = angles.shape[1]
    if n < 3:
        raise InvalidN(f"geometric measurement needs n >= 3, got {n}")
    terms_L, terms_A = angle_terms(kind, angles)
    # np.add.reduce is what ndarray.sum calls, without its Python wrapper.
    sum_L = np.add.reduce(terms_L, axis=1)
    sum_A = sum_L if terms_A is terms_L else np.add.reduce(terms_A, axis=1)
    return float_regular_part(kind, n, radius).context(sum_L, sum_A)


def seed_parts(seed) -> list[int]:
    """A seed or a list of seeds as a list, ready for a substream suffix."""
    if isinstance(seed, (list, tuple)):
        return [int(s) for s in seed]
    return [int(seed)]


def _check_margin_window(n: int, total: float, margin: float, bound: float) -> None:
    if n < 2:
        raise InvalidN(f"need n >= 2, got {n}")
    if not (margin > 0.0):
        raise DomainViolation(f"margin must be positive, got {margin!r}")
    sigma = total / n
    if not (margin < sigma < bound - margin):
        raise DomainViolation(
            f"mean angle {sigma!r} not inside margin window "
            f"({margin!r}, {bound - margin!r}); margin infeasible"
        )


def sample_simplex_batch(
    n: int,
    total: float,
    margin: float,
    count: int,
    seed: int,
    bound: float = GEOMETRIC_BOUND,
) -> np.ndarray:
    """``count`` independent simplex points as a (count, n) array.

    Draws symmetric Dirichlet(1, ..., 1) weights rescaled to ``total`` and
    keeps, in draw order, the rows whose every coordinate lies in
    (margin, bound - margin). Deterministic given (seed, count). The draw
    budget, max(10^4, 64 count), scales with the request; running out of
    it raises RejectionBudgetExceeded, which signals that the margin
    window is too tight.
    """
    _check_margin_window(n, total, margin, bound)
    if count < 1:
        raise DomainViolation(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    rows = []
    have = 0
    budget = max(10_000, 64 * count)
    drawn = 0
    while have < count:
        if drawn >= budget:
            raise RejectionBudgetExceeded(
                f"accepted only {have}/{count} samples after {drawn} draws"
            )
        size = min(max(_CHUNK, count - have), 65536)
        cand = rng.dirichlet(np.ones(n), size=size) * total
        inside = (cand > margin) & (cand < bound - margin)
        # AND of the columns: faster than .all(axis=1) over short rows.
        ok = inside[:, 0].copy()
        for j in range(1, n):
            ok &= inside[:, j]
        good = cand[ok]
        if good.shape[0]:
            rows.append(good[: count - have])
            have += min(good.shape[0], count - have)
        drawn += size
    return np.vstack(rows)
