"""Registry of the geometric slack inequalities over circle polygons.

Each entry maps a displayed inequality to a signed slack evaluator over a
PolygonModel: slack = lhs - rhs for >= entries, rhs - lhs for <= entries,
so nonnegative slack always means the inequality holds as stated, with
equality exactly at the regular polygon. Entries carry the polygon kind
they apply to, their legal (alpha, k) parameter set, a display-style
citation anchor and the signed terms of each side, from which the lhs,
the rhs and the record's scale all follow.

The catalog is immutable after import; evaluations are pure functions, so
parallel evaluation is safe. Entry ids and citation strings are part of
the stable report schema.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from . import highprec
from .analytic_inequalities import Direction
from .errors import KindMismatch, NonFiniteValue, ParamOutOfDomain, UnknownId
from .polygon_core import Dual, EvalContext, PolygonKind, PolygonModel, measure_arrays
from .records import EQUALITY_RTOL, SlackRecord

log = logging.getLogger(__name__)

BOTH_KINDS = frozenset({PolygonKind.TANGENTIAL, PolygonKind.CYCLIC})
TANGENTIAL_ONLY = frozenset({PolygonKind.TANGENTIAL})
CYCLIC_ONLY = frozenset({PolygonKind.CYCLIC})


@dataclass(frozen=True)
class ParamSpec:
    """Legal (alpha, k) set for one entry.

    Free parameters accept any positive integer (k >= 2); fixed parameters
    pin a specialization; unused parameters must stay absent.
    """

    uses_alpha: bool = False
    uses_k: bool = False
    alpha_fixed: int | None = None
    k_fixed: int | None = None

    def validate(self, alpha, k) -> tuple[int | None, int | None]:
        return (_validate_param("alpha", self.uses_alpha, self.alpha_fixed, alpha, 1),
                _validate_param("k", self.uses_k, self.k_fixed, k, 2))

    def combos(self, alpha_set: Iterable[int], k_set: Iterable[int]) -> list[tuple]:
        """Legal (alpha, k) pairs for a sweep grid, deterministic order.

        Fixed parameters contribute their pinned value regardless of the
        grid; free parameters range over the sorted grid values.
        """
        alphas = _param_grid(self.uses_alpha, self.alpha_fixed, alpha_set, 1)
        ks = _param_grid(self.uses_k, self.k_fixed, k_set, 2)
        return [(a, k) for a in alphas for k in ks]


def _validate_param(name: str, used: bool, fixed, value, minimum: int):
    """The value one parameter takes; ``minimum`` is also its default."""
    if not used:
        if value is not None:
            raise ParamOutOfDomain(f"entry takes no {name}")
        return None
    if fixed is not None:
        if value is not None and value != fixed:
            raise ParamOutOfDomain(f"entry fixes {name} = {fixed}, got {value!r}")
        return fixed
    v = minimum if value is None else value
    if not isinstance(v, (int, np.integer)) or v < minimum:
        raise ParamOutOfDomain(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(v)


def _param_grid(used: bool, fixed, values: Iterable[int], minimum: int) -> list:
    if not used:
        return [None]
    if fixed is not None:
        return [fixed]
    return sorted({int(v) for v in values if int(v) >= minimum})


@dataclass(frozen=True)
class CatalogEntry:
    """One displayed inequality: formula, kind, parameters, metadata.

    ``sides(ctx, alpha, k)`` returns ``(lhs, rhs)``, each side a pair
    ``(factor, terms)`` whose value is ``factor * (t1 + t2 + ...)`` summed
    from the first term; a factor of 1 is not multiplied and an empty term
    tuple is 0. The terms carry their signs, and every ``|factor * term|``
    enters the record's scale.
    """

    id: str
    citation: str
    kinds: frozenset
    direction: Direction
    params: ParamSpec
    formula: str
    sides: Callable  # (ctx, alpha, k) -> ((factor, terms), (factor, terms))

    def applies_to(self, kind: PolygonKind) -> bool:
        return kind in self.kinds


# Many entries share a deficit side, so each is built once per context
# and alpha and kept in the context's memo.

def _deficit(c, a):
    """L^(2a) - (4 d_n A)^a."""
    key = ("deficit", a)
    if key not in c.memo:
        c.memo[key] = 1, (c.L ** (2 * a), -(4 * c.dn * c.A) ** a)
    return c.memo[key]


def _dimless(c, a):
    """(A/R^2)^(2a) - d_n^a (L/2R)^a."""
    key = ("dimless", a)
    if key not in c.memo:
        c.memo[key] = 1, (c.A_hat ** (2 * a), -c.dn**a * c.L_hat**a)
    return c.memo[key]


def _build_entries() -> tuple[CatalogEntry, ...]:
    free_a = ParamSpec(uses_alpha=True)
    free_ak = ParamSpec(uses_alpha=True, uses_k=True)
    no_params = ParamSpec()

    def fixed(a=None, k=None):
        return ParamSpec(
            uses_alpha=a is not None,
            uses_k=k is not None,
            alpha_fixed=a,
            k_fixed=k,
        )

    entries = [
        CatalogEntry(
            id="BASIC", citation="Eq. 1.2", kinds=BOTH_KINDS, direction=Direction.GE,
            params=no_params, formula="L^2 - 4*d_n*A >= 0",
            sides=lambda c, a, k: (_deficit(c, 1), (1, ())),
        ),
        CatalogEntry(
            id="ZHANG97", citation="Eq. 1.4", kinds=CYCLIC_ONLY, direction=Direction.GE,
            params=no_params, formula="L^2 - 4*d_n*A >= (L* - L)^2",
            sides=lambda c, a, k: (_deficit(c, 1), (1, ((c.Lstar - c.L) ** 2,))),
        ),
        CatalogEntry(
            id="T31A", citation="Eq. 3.1", kinds=TANGENTIAL_ONLY, direction=Direction.GE,
            params=free_a,
            formula="L^(2a) - 4^a*(d_n*A)^a >= (2*R*tan(pi/n))^a * (L^a - L*^a)",
            sides=lambda c, a, k: (
                _deficit(c, a), ((2 * c.R * c.tan_pin) ** a, (c.L**a, -c.Lstar**a))),
        ),
        CatalogEntry(
            id="T31B", citation="Eq. 3.2", kinds=TANGENTIAL_ONLY, direction=Direction.GE,
            params=free_a,
            formula="(A/R^2)^(2a) - d_n^a*(L/2R)^a >= tan(pi/n)^a * ((L/2R)^a - (L*/2R)^a)",
            sides=lambda c, a, k: (
                _dimless(c, a), (c.tan_pin**a, (c.L_hat**a, -c.Lstar_hat**a))),
        ),
        CatalogEntry(
            id="C35", citation="Eq. 3.5", kinds=TANGENTIAL_ONLY, direction=Direction.GE,
            params=fixed(a=1), formula="L^2 - 4*d_n*A >= 2*R*tan(pi/n) * (L - L*)",
            sides=lambda c, a, k: (_deficit(c, 1), (2 * c.R * c.tan_pin, (c.L, -c.Lstar))),
        ),
        CatalogEntry(
            id="C36", citation="Eq. 3.6", kinds=TANGENTIAL_ONLY, direction=Direction.GE,
            params=fixed(a=1),
            formula="(A/R^2)^2 - d_n*(L/2R) >= tan(pi/n) * (L/2R - L*/2R)",
            sides=lambda c, a, k: (_dimless(c, 1), (c.tan_pin, (c.L_hat, -c.Lstar_hat))),
        ),
        CatalogEntry(
            id="T32A", citation="Eq. 3.7", kinds=TANGENTIAL_ONLY, direction=Direction.GE,
            params=free_a,
            formula="L^(2a) - 4^a*(d_n*A)^a >= 4^a*tan(pi/n)^a * (A^a - A*^a)",
            sides=lambda c, a, k: (
                _deficit(c, a), ((4 * c.tan_pin) ** a, (c.A**a, -c.Astar**a))),
        ),
        CatalogEntry(
            id="T32B", citation="Eq. 3.8", kinds=TANGENTIAL_ONLY, direction=Direction.GE,
            params=free_a,
            formula="(A/R^2)^(2a) - d_n^a*(L/2R)^a >= tan(pi/n)^a * ((A/R^2)^a - (A*/R^2)^a)",
            sides=lambda c, a, k: (
                _dimless(c, a), (c.tan_pin**a, (c.A_hat**a, -c.Astar_hat**a))),
        ),
        CatalogEntry(
            id="CQX", citation="Eq. qx", kinds=TANGENTIAL_ONLY, direction=Direction.GE,
            params=fixed(a=1), formula="L^2 - 4*d_n*A >= 4*tan(pi/n) * (A - A*)",
            sides=lambda c, a, k: (_deficit(c, 1), (4 * c.tan_pin, (c.A, -c.Astar))),
        ),
        CatalogEntry(
            id="CQC", citation="Eq. qc", kinds=TANGENTIAL_ONLY, direction=Direction.GE,
            params=fixed(a=1),
            formula="(A/R^2)^2 - d_n*(L/2R) >= tan(pi/n) * (A/R^2 - A*/R^2)",
            sides=lambda c, a, k: (_dimless(c, 1), (c.tan_pin, (c.A_hat, -c.Astar_hat))),
        ),
        CatalogEntry(
            id="T41A", citation="Eq. 4.1", kinds=TANGENTIAL_ONLY, direction=Direction.LE,
            params=free_ak, formula="L^(2a) - (4*d_n*A)^a <= L^(ka) - L*^(ka)",
            sides=lambda c, a, k: (_deficit(c, a), (1, (c.L ** (k * a), -c.Lstar ** (k * a)))),
        ),
        CatalogEntry(
            id="T41B", citation="Eq. 4.2", kinds=TANGENTIAL_ONLY, direction=Direction.LE,
            params=free_ak,
            formula="(A/R^2)^(2a) - d_n^a*(L/2R)^a <= (L/2R)^(ka) - (L*/2R)^(ka)",
            sides=lambda c, a, k: (
                _dimless(c, a), (1, (c.L_hat ** (k * a), -c.Lstar_hat ** (k * a)))),
        ),
        CatalogEntry(
            id="C4A", citation="Eq. 4.3", kinds=TANGENTIAL_ONLY, direction=Direction.LE,
            params=fixed(a=1, k=3), formula="L^2 - 4*d_n*A <= L^3 - L*^3",
            sides=lambda c, a, k: (_deficit(c, 1), (1, (c.L**3, -c.Lstar**3))),
        ),
        CatalogEntry(
            id="C4B", citation="Eq. 4.4", kinds=TANGENTIAL_ONLY, direction=Direction.LE,
            params=fixed(a=1, k=2),
            formula="(A/R^2)^2 - d_n*(L/2R) <= (L/2R)^2 - (L*/2R)^2",
            sides=lambda c, a, k: (_dimless(c, 1), (1, (c.L_hat**2, -c.Lstar_hat**2))),
        ),
        CatalogEntry(
            id="T42A", citation="Eq. 4.5", kinds=TANGENTIAL_ONLY, direction=Direction.LE,
            params=free_ak,
            formula="L^(2a) - 4^a*(d_n*A)^a <= 4^a/R^(2(k-1)a) * (A^(ka) - A*^(ka))",
            # Normalized to R = 1 via A/R^2 and rescaled by R^(2a): avoids the
            # 1/R^(2(k-1)a) division that amplifies roundoff for small R.
            sides=lambda c, a, k: (_deficit(c, a), (
                4**a * c.R ** (2 * a), (c.A_hat ** (k * a), -c.Astar_hat ** (k * a)))),
        ),
        CatalogEntry(
            id="T42B", citation="Eq. 4.6", kinds=TANGENTIAL_ONLY, direction=Direction.LE,
            params=free_ak,
            formula="(A/R^2)^(2a) - d_n^a*(L/2R)^a <= (A/R^2)^(ka) - (A*/R^2)^(ka)",
            sides=lambda c, a, k: (
                _dimless(c, a), (1, (c.A_hat ** (k * a), -c.Astar_hat ** (k * a)))),
        ),
        CatalogEntry(
            id="C42A", citation="Eq. 4.7", kinds=TANGENTIAL_ONLY, direction=Direction.LE,
            params=fixed(a=1, k=2), formula="L^2 - 4*d_n*A <= 4/R^2 * (A^2 - A*^2)",
            sides=lambda c, a, k: (
                _deficit(c, 1), (4 * c.R**2, (c.A_hat**2, -c.Astar_hat**2))),
        ),
        CatalogEntry(
            id="C42B", citation="Eq. 4.8", kinds=TANGENTIAL_ONLY, direction=Direction.LE,
            params=fixed(a=1, k=3),
            formula="(A/R^2)^2 - d_n*(L/2R) <= (A/R^2)^3 - (A*/R^2)^3",
            sides=lambda c, a, k: (_dimless(c, 1), (1, (c.A_hat**3, -c.Astar_hat**3))),
        ),
        CatalogEntry(
            id="T52", citation="Eq. 5.11", kinds=CYCLIC_ONLY, direction=Direction.LE,
            params=no_params, formula="A - L*R*cos(pi/n) + d_n*(R*cos(pi/n))^2 <= 0",
            sides=lambda c, a, k: ((1, (
                c.A, -c.L * c.R * c.cos_pin, c.dn * (c.R * c.cos_pin) ** 2)), (1, ())),
        ),
        CatalogEntry(
            id="T53", citation="Eq. 5.15", kinds=CYCLIC_ONLY, direction=Direction.GE,
            params=no_params, formula="L^2 - 4*d_n*A >= (1/R^2)*(A* - A)^2",
            sides=lambda c, a, k: (
                _deficit(c, 1), (1, ((c.Astar_hat - c.A_hat) ** 2 * c.R**2,))),
        ),
    ]
    return tuple(entries)


_ENTRIES: tuple[CatalogEntry, ...] = _build_entries()
_BY_ID = {e.id: e for e in _ENTRIES}


def list_entries(kind: PolygonKind | None = None) -> tuple[CatalogEntry, ...]:
    """All catalog entries, optionally filtered by polygon kind."""
    if kind is None:
        return _ENTRIES
    return tuple(e for e in _ENTRIES if e.applies_to(kind))


def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return _BY_ID[entry_id]
    except KeyError:
        raise UnknownId(f"no catalog entry with id {entry_id!r}") from None


def _resolve(entry_or_id) -> CatalogEntry:
    if isinstance(entry_or_id, CatalogEntry):
        return entry_or_id
    return get_entry(entry_or_id)


def sign_flipped(entry_or_id, new_id: str | None = None) -> CatalogEntry:
    """A copy of an entry with its inequality direction inverted.

    The flipped entry is mathematically false, which is exactly what the
    falsifier-validation tests and the CLI fault-injection switch need.
    The global registry is never mutated.
    """
    e = _resolve(entry_or_id)
    return replace(
        e, id=new_id or f"{e.id}-FLIPPED", formula=f"flipped({e.formula})",
        direction=Direction.LE if e.direction == Direction.GE else Direction.GE,
    )


def _checked_params(entry: CatalogEntry, kind: PolygonKind, alpha, k):
    if not entry.applies_to(kind):
        raise KindMismatch(f"entry {entry.id} does not apply to {kind.value} polygons")
    return entry.params.validate(alpha, k)


def _evaluate_sides(entry: CatalogEntry, ctx: EvalContext, alpha, k, maximum=None):
    """(lhs, rhs, slack, scale) of an entry on a context of any backend.

    ``maximum`` is the backend's two-argument max (``np.maximum`` for
    arrays, ``max`` for mpf); scale is max(1, every |factor * term|). With
    no ``maximum`` the scale is not computed and is None.
    """
    values, scale = [], (None if maximum is None else 1)
    for factor, terms in entry.sides(ctx, alpha, k):
        value = sum(terms[1:], terms[0]) if terms else 0
        if factor != 1:
            value = factor * value
            if maximum is not None:
                terms = [factor * t for t in terms]
        if maximum is not None:
            for t in terms:
                scale = maximum(scale, abs(t))
        values.append(value)
    lhs, rhs = values
    slack = (lhs - rhs) if entry.direction == Direction.GE else (rhs - lhs)
    return lhs, rhs, slack, scale


def _overflow(entry: CatalogEntry, kind: PolygonKind, n, alpha, k) -> NonFiniteValue:
    """The error for a case whose float slack is not finite."""
    return NonFiniteValue(f"{entry.id} ({kind.value}, n={n}, alpha={alpha}, k={k}): "
                          "the sides overflow the float range")


def evaluate_batch(
    entry_or_id,
    kind: PolygonKind,
    radius: float,
    pts: np.ndarray,
    alpha: int | None = None,
    k: int | None = None,
) -> dict:
    """Vectorized slack over rows of ``pts``; the sweep and grid workhorse.

    ``pts`` is an (m, n) array of angle rows, or the EvalContext that
    ``measure_arrays`` (or ``RegularPart.context``) built from such rows, so
    one measurement can serve many entries; ``radius`` is then unused, as
    the context holds R. Returns arrays lhs, rhs and slack plus the
    validated (alpha, k), and no term scale: only records carry one. On a
    context whose sums are ``Dual`` numbers, lhs, rhs and slack are their
    values, the float path's bit for bit, and ``slack_dL`` and
    ``slack_dA`` are d slack / d sum_L and d slack / d sum_A (each
    broadcastable to the rows). A Python float power past the float range
    raises NonFiniteValue.
    """
    entry = _resolve(entry_or_id)
    a, kk = _checked_params(entry, kind, alpha, k)
    ctx = pts if isinstance(pts, EvalContext) else measure_arrays(
        kind, radius, np.asarray(pts, dtype=float))
    try:
        lhs, rhs, slack, _ = _evaluate_sides(entry, ctx, a, kk)
    except OverflowError as exc:  # a power of Python floats in the sides
        raise _overflow(entry, kind, ctx.n, a, kk) from exc
    partials = {}
    if isinstance(slack, Dual):  # a dual context: values, and the slack's partials
        partials = dict(zip(("slack_dL", "slack_dA"), slack.d))
        lhs, rhs, slack = (x.v if isinstance(x, Dual) else x for x in (lhs, rhs, slack))
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    if lhs.shape != rhs.shape:  # a side with no terms is the scalar 0
        shape = max(lhs.shape, rhs.shape, key=len)
        lhs, rhs = (x if x.shape == shape else np.full(shape, x) for x in (lhs, rhs))
    return {"lhs": lhs, "rhs": rhs, "slack": slack, "alpha": a, "k": kk, **partials}


def evaluate(
    entry_or_id,
    polygon: PolygonModel,
    alpha: int | None = None,
    k: int | None = None,
) -> SlackRecord:
    """Slack record for one polygon; see the module docstring for signs.

    One pass of the sides over the polygon's one-row context gives values
    and scale; a side with no terms is the scalar 0. A side or slack past
    the float range raises NonFiniteValue.
    """
    entry = _resolve(entry_or_id)
    a, kk = _checked_params(entry, polygon.kind, alpha, k)
    ctx = measure_arrays(polygon.kind, polygon.radius, polygon.angles.to_array()[None, :])
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = _evaluate_sides(entry, ctx, a, kk, np.maximum)
    except OverflowError as exc:  # a power of Python floats in the sides
        raise _overflow(entry, polygon.kind, ctx.n, a, kk) from exc
    return _record(entry, polygon, a, kk,
                   *(v[0] if isinstance(v, np.ndarray) else v for v in values))


def evaluate_exact(
    entry_or_id,
    polygon: PolygonModel,
    alpha: int | None = None,
    k: int | None = None,
) -> SlackRecord:
    """Slack recomputed in high precision; adjudicates near-equality cases.

    Measurement and formula both run at 50 digits (``highprec.DPS``) in a
    private mpmath context, so the caller's is neither read nor changed and
    threads may call this at once. The fields are correctly rounded floats
    of the mpf results, so cancellation in lhs - rhs no longer limits
    accuracy; one past the float range raises NonFiniteValue.
    """
    entry = _resolve(entry_or_id)
    a, kk = _checked_params(entry, polygon.kind, alpha, k)
    ctx = highprec.measure_exact(polygon.kind, polygon.radius, polygon.angles.values)
    return _record(entry, polygon, a, kk, *_evaluate_sides(entry, ctx, a, kk, max))


def _record(entry: CatalogEntry, polygon: PolygonModel, alpha, k,
            lhs, rhs, slack, scale) -> SlackRecord:
    """The record of one evaluation; NonFiniteValue past the float range."""
    lhs, rhs, slack = float(lhs), float(rhs), float(slack)
    if not (math.isfinite(lhs) and math.isfinite(rhs) and math.isfinite(slack)):
        raise _overflow(entry, polygon.kind, polygon.angles.n, alpha, k)
    return SlackRecord(
        lhs=lhs, rhs=rhs, slack=slack,
        equality=abs(slack) <= EQUALITY_RTOL * max(1.0, abs(lhs), abs(rhs)),
        scale=float(scale), alpha=alpha, k=k, entry_id=entry.id,
        n=polygon.angles.n, radius=polygon.radius,
        angle_hash=polygon.angles.angle_hash(),
    )


def evaluate_all(
    polygon: PolygonModel,
    alpha_set: Iterable[int] = (1,),
    k_set: Iterable[int] = (2, 3),
) -> list[SlackRecord]:
    """Every kind-compatible entry over the parameter grid.

    Order is deterministic: catalog order, then alpha, then k. Entries of
    the other kind are skipped with a debug log line.
    """
    records = []
    for entry in _ENTRIES:
        if not entry.applies_to(polygon.kind):
            log.debug("skip %s: requires %s, polygon is %s",
                      entry.id, sorted(k.value for k in entry.kinds),
                      polygon.kind.value)
            continue
        for a, kk in entry.params.combos(alpha_set, k_set):
            records.append(evaluate(entry, polygon, a, kk))
    return records
