"""Scalar function families and the coupled-gradient slack.

A family is a scalar function f with closed-form f' and f'', a domain and
its convexity class. The convex positive families feed the power-sum gap
functions, whose one formula each lives in
:func:`bonnesen.schur_certifier.power_gap_function` and
:func:`bonnesen.schur_certifier.power_gap_reverse_function`; on tangential
polygons the catalog entries T31B and T41B are the tan family's gaps.

The families with f'^2 - f f'' = mu constant feed the coupled gap,
2 sum f(th_i) f'(ps_i) against the two diagonal sums; the inequality
direction follows the signs of f' and f''. Its slack is signed so that a
nonnegative value means the inequality holds, with equality exactly at
theta = psi.

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

from .errors import MissingMu, OutOfDomain, TotalsDiffer
from .polygon_core import AngleVector
from .records import SlackRecord


class Convexity(str, Enum):
    STRICTLY_CONVEX = "strictly_convex"
    STRICTLY_CONCAVE = "strictly_concave"


class Direction(str, Enum):
    GE = "ge"
    LE = "le"


class CaseId(str, Enum):
    I1 = "I1"    # f'' < 0, f' > 0  -> mixed sum dominates (GE)
    I2 = "I2"    # f'' < 0, f' < 0  -> mixed sum is dominated (LE)
    II1 = "II1"  # f'' > 0, f' > 0  -> LE
    II2 = "II2"  # f'' > 0, f' < 0  -> GE


@dataclass(frozen=True)
class OdeCase:
    """Sign pattern of (f'', f') and the inequality direction it forces."""

    case_id: CaseId
    sign_fpp: int
    sign_fp: int
    direction: Direction


ODE_CASES = {
    CaseId.I1: OdeCase(CaseId.I1, sign_fpp=-1, sign_fp=+1, direction=Direction.GE),
    CaseId.I2: OdeCase(CaseId.I2, sign_fpp=-1, sign_fp=-1, direction=Direction.LE),
    CaseId.II1: OdeCase(CaseId.II1, sign_fpp=+1, sign_fp=+1, direction=Direction.LE),
    CaseId.II2: OdeCase(CaseId.II2, sign_fpp=+1, sign_fp=-1, direction=Direction.GE),
}


@dataclass(frozen=True)
class FunctionFamily:
    """A scalar function with derivatives, domain and classification.

    ``mu`` is the constant of the differential constraint
    f'^2 - f f'' = mu when the family satisfies one; ``ode_case`` then
    names the sign pattern that fixes the coupled-gap direction.
    """

    name: str
    domain: tuple[float, float]
    f: Callable
    f_prime: Callable
    f_double_prime: Callable
    convexity: Convexity
    positivity: bool
    mu: float | None = None
    ode_case: OdeCase | None = None

    def grid(self, points: int = 1000, margin_frac: float = 1e-4) -> np.ndarray:
        lo, hi = self.domain
        pad = (hi - lo) * margin_frac
        return np.linspace(lo + pad, hi - pad, points)


def _shifted_cosh(c: float):
    return (
        lambda x: np.cosh(c - np.asarray(x, dtype=float)),
        lambda x: -np.sinh(c - np.asarray(x, dtype=float)),
        lambda x: np.cosh(c - np.asarray(x, dtype=float)),
    )


#: sinh and theta -> cosh(c - theta) live on (0, HYPERBOLIC_BOUND), with c
#: = HYPERBOLIC_BOUND, the least c that keeps the latter's f' negative there.
HYPERBOLIC_BOUND = 1.0


def builtin_families() -> list[FunctionFamily]:
    """The stock families.

    Convex positive families (power and reverse gaps): tan, sec, csc on
    (0, pi/2) and x^2 on (0, 1). Constant-mu families (coupled gap): sin
    and cos on (0, pi/2) with mu = 1, sinh on (0, b) with mu = 1, and
    theta -> cosh(b - theta) on (0, b) with mu = -1, where b is
    HYPERBOLIC_BOUND.
    """
    half_pi = math.pi / 2
    sec = lambda x: 1.0 / np.cos(x)
    csc = lambda x: 1.0 / np.sin(x)
    cot = lambda x: np.cos(x) / np.sin(x)
    ch_f, ch_fp, ch_fpp = _shifted_cosh(HYPERBOLIC_BOUND)
    return [
        FunctionFamily(
            "tan", (0.0, half_pi),
            np.tan,
            lambda x: 1.0 / np.cos(x) ** 2,
            lambda x: 2.0 * np.tan(x) / np.cos(x) ** 2,
            Convexity.STRICTLY_CONVEX, positivity=True,
        ),
        FunctionFamily(
            "sec", (0.0, half_pi),
            sec,
            lambda x: np.sin(x) / np.cos(x) ** 2,
            lambda x: sec(x) * (sec(x) ** 2 + np.tan(x) ** 2),
            Convexity.STRICTLY_CONVEX, positivity=True,
        ),
        FunctionFamily(
            "csc", (0.0, half_pi),
            csc,
            lambda x: -csc(x) * cot(x),
            lambda x: csc(x) * (cot(x) ** 2 + csc(x) ** 2),
            Convexity.STRICTLY_CONVEX, positivity=True,
        ),
        FunctionFamily(
            "square", (0.0, 1.0),
            lambda x: np.asarray(x, dtype=float) ** 2,
            lambda x: 2.0 * np.asarray(x, dtype=float),
            lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
            Convexity.STRICTLY_CONVEX, positivity=True,
        ),
        FunctionFamily(
            "sin", (0.0, half_pi),
            np.sin, np.cos, lambda x: -np.sin(x),
            Convexity.STRICTLY_CONCAVE, positivity=True,
            mu=1.0, ode_case=ODE_CASES[CaseId.I1],
        ),
        FunctionFamily(
            "cos", (0.0, half_pi),
            np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x),
            Convexity.STRICTLY_CONCAVE, positivity=True,
            mu=1.0, ode_case=ODE_CASES[CaseId.I2],
        ),
        FunctionFamily(
            "sinh", (0.0, HYPERBOLIC_BOUND),
            np.sinh, np.cosh, np.sinh,
            Convexity.STRICTLY_CONVEX, positivity=True,
            mu=1.0, ode_case=ODE_CASES[CaseId.II1],
        ),
        FunctionFamily(
            "shifted_cosh", (0.0, HYPERBOLIC_BOUND),
            ch_f, ch_fp, ch_fpp,
            Convexity.STRICTLY_CONVEX, positivity=True,
            mu=-1.0, ode_case=ODE_CASES[CaseId.II2],
        ),
    ]


def family(name: str) -> FunctionFamily:
    """Look one stock family up by name."""
    for fam in builtin_families():
        if fam.name == name:
            return fam
    raise KeyError(f"no builtin family named {name!r}")


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

    With D = 2 sum f(th_i) f'(ps_i) - sum f(th_i) f'(th_i)
             - sum f(ps_i) f'(ps_i),
    the slack is +D when the family's case direction is GE and -D when it
    is LE, so slack >= 0 always means the inequality holds. Equality flag
    is set when theta equals psi componentwise.
    """
    if fam.mu is None or fam.ode_case is None:
        raise MissingMu(f"family {fam.name!r} has no constant-mu classification")
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
    d_value = mixed - diag
    if fam.ode_case.direction == Direction.GE:
        lhs, rhs, slack = mixed, diag, d_value
    else:
        lhs, rhs, slack = mixed, diag, -d_value
    scale = max(1.0, abs(mixed), abs(diag))
    equal = bool(np.max(np.abs(th - ps)) <= 1e-12)
    return SlackRecord(lhs=lhs, rhs=rhs, slack=slack, equality=equal,
                       scale=scale, n=theta.n)
