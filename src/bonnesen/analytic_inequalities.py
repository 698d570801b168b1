"""Scalar function families and the coupled-gradient slack.

A family is plain data: a name, a domain and a scalar function f with
closed-form f' and f''. The convex positive families feed the power-sum
gap functions, whose one formula each lives in
:func:`bonnesen.schur_certifier.power_gap_function` and
:func:`bonnesen.schur_certifier.power_gap_reverse_function`; on tangential
polygons the catalog entries T31B and T41B are the tan family's gaps.

The families with f'^2 - f f'' = mu constant feed the coupled gap,
2 sum f(th_i) f'(ps_i) against the two diagonal sums. The paper's four
sign cases of (f'', f') fix its direction by the sign of f' f'' alone:
the mixed sum dominates (GE) where f' f'' < 0 (cases I1 and II2) and is
dominated (LE) where f' f'' > 0 (cases I2 and II1). Its slack is signed
so that a nonnegative value means the inequality holds, with equality
exactly at theta = psi.

Families carry hand-coded closed-form derivatives because the coupled gap
needs f' to full accuracy near equality. All callables are numpy ufunc
compositions, so they accept scalars and arrays alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import MissingMu, OutOfDomain, TotalsDiffer, UnknownId
from .polygon_core import AngleVector
from .records import SlackRecord


class Direction(str, Enum):
    GE = "ge"
    LE = "le"


@dataclass(frozen=True)
class FunctionFamily:
    """A scalar function f with f' and f'' on an open domain.

    ``mu`` is the constant of the differential constraint
    f'^2 - f f'' = mu when the family satisfies one. The coupled gap then
    reads its direction off the sign of f' f'', which keeps one sign on
    the domain: GE where it is negative, LE where it is positive.
    """

    name: str
    domain: tuple[float, float]
    f: Callable
    f_prime: Callable
    f_double_prime: Callable
    mu: float | None = None


#: sinh and theta -> cosh(c - theta) live on (0, HYPERBOLIC_BOUND), with c
#: = HYPERBOLIC_BOUND, the least c that keeps the latter's f' negative there.
HYPERBOLIC_BOUND = 1.0

_HALF_PI = math.pi / 2
_sec = lambda x: 1.0 / np.cos(x)
_csc = lambda x: 1.0 / np.sin(x)
_cot = lambda x: np.cos(x) / np.sin(x)

#: The stock families by name, built once. Convex positive families (power
#: and reverse gaps): tan, sec, csc on (0, pi/2) and x^2 on (0, 1).
#: Constant-mu families (coupled gap): sin and cos on (0, pi/2) with mu = 1,
#: sinh on (0, b) with mu = 1, and theta -> cosh(b - theta) on (0, b) with
#: mu = -1, where b is HYPERBOLIC_BOUND.
_FAMILIES = {fam.name: fam for fam in [
    FunctionFamily(
        "tan", (0.0, _HALF_PI),
        np.tan,
        lambda x: 1.0 / np.cos(x) ** 2,
        lambda x: 2.0 * np.tan(x) / np.cos(x) ** 2,
    ),
    FunctionFamily(
        "sec", (0.0, _HALF_PI),
        _sec,
        lambda x: np.sin(x) / np.cos(x) ** 2,
        lambda x: _sec(x) * (_sec(x) ** 2 + np.tan(x) ** 2),
    ),
    FunctionFamily(
        "csc", (0.0, _HALF_PI),
        _csc,
        lambda x: -_csc(x) * _cot(x),
        lambda x: _csc(x) * (_cot(x) ** 2 + _csc(x) ** 2),
    ),
    FunctionFamily(
        "square", (0.0, 1.0),
        lambda x: np.asarray(x, dtype=float) ** 2,
        lambda x: 2.0 * np.asarray(x, dtype=float),
        lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
    ),
    FunctionFamily(
        "sin", (0.0, _HALF_PI),
        np.sin, np.cos, lambda x: -np.sin(x),
        mu=1.0,
    ),
    FunctionFamily(
        "cos", (0.0, _HALF_PI),
        np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x),
        mu=1.0,
    ),
    FunctionFamily(
        "sinh", (0.0, HYPERBOLIC_BOUND),
        np.sinh, np.cosh, np.sinh,
        mu=1.0,
    ),
    FunctionFamily(
        "shifted_cosh", (0.0, HYPERBOLIC_BOUND),
        lambda x: np.cosh(HYPERBOLIC_BOUND - np.asarray(x, dtype=float)),
        lambda x: -np.sinh(HYPERBOLIC_BOUND - np.asarray(x, dtype=float)),
        lambda x: np.cosh(HYPERBOLIC_BOUND - np.asarray(x, dtype=float)),
        mu=-1.0,
    ),
]}


def builtin_families() -> list[FunctionFamily]:
    """The stock families, the same objects on every call."""
    return list(_FAMILIES.values())


def family(name: str) -> FunctionFamily:
    """Look one stock family up by name."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise UnknownId(f"no builtin family named {name!r}") from None


def _check_domain(fam: FunctionFamily, theta: AngleVector) -> None:
    lo, hi = fam.domain
    for i, v in enumerate(theta.values):
        if not (lo < v < hi):
            raise OutOfDomain(
                f"angle {v!r} at index {i} outside {fam.name} domain ({lo!r}, {hi!r})",
                index=i,
            )


def coupled_gradient_slack(
    fam: FunctionFamily, theta: AngleVector, psi: AngleVector
) -> SlackRecord:
    """Two-argument inequality for constant-mu families.

    With mixed = 2 sum f(th_i) f'(ps_i) and
    diag = sum f(th_i) f'(th_i) + sum f(ps_i) f'(ps_i), the slack is
    mixed - diag (GE) where f' f'' < 0 and diag - mixed (LE) where
    f' f'' > 0, the sign taken at the middle of the domain, so slack >= 0
    always means the inequality holds. Equality flag is set when theta
    equals psi componentwise.
    """
    if fam.mu is None:
        raise MissingMu(f"family {fam.name!r} has no constant mu")
    if abs(theta.total - psi.total) > 1e-12 * max(1.0, abs(theta.total)):
        raise TotalsDiffer(
            f"angle totals differ: {theta.total!r} vs {psi.total!r}"
        )
    if theta.n != psi.n:
        raise TotalsDiffer(f"arity differs: {theta.n} vs {psi.n}")
    _check_domain(fam, theta)
    _check_domain(fam, psi)
    th = theta.to_array()
    ps = psi.to_array()
    f_th = np.asarray(fam.f(th), dtype=float)
    f_ps = np.asarray(fam.f(ps), dtype=float)
    fp_th = np.asarray(fam.f_prime(th), dtype=float)
    fp_ps = np.asarray(fam.f_prime(ps), dtype=float)
    mixed = 2.0 * float((f_th * fp_ps).sum())
    diag = float((f_th * fp_th).sum()) + float((f_ps * fp_ps).sum())
    middle = sum(fam.domain) / 2
    ge = fam.f_prime(middle) * fam.f_double_prime(middle) < 0
    slack = mixed - diag if ge else diag - mixed
    scale = max(1.0, abs(mixed), abs(diag))
    equal = bool(np.max(np.abs(th - ps)) <= 1e-12)
    return SlackRecord(lhs=mixed, rhs=diag, slack=slack, equality=equal,
                       scale=scale, n=theta.n)
