"""High-precision (mpmath) evaluation backend.

Used to adjudicate near-equality cases and to re-certify candidate
counterexamples before they are believed: the catalog slack formulas are
plain arithmetic over the measured quantities, so they evaluate unchanged
on mpf values produced here.
"""

from __future__ import annotations

import functools

import mpmath as mp

from .errors import DomainViolation
from .polygon_core import EvalContext, PolygonKind, eval_context

#: Default working precision (decimal digits) for exact re-evaluation.
DEFAULT_DPS = 50

MIN_DPS = 30


def measure_exact(kind: PolygonKind, radius, angles, dps: int = DEFAULT_DPS) -> EvalContext:
    """Closed-form polygon measurement with mpf arithmetic.

    The same closed forms as the float backend, with the per-row sums taken
    by ``mp.fsum`` at ``dps`` digits. ``angles`` is any iterable of reals
    summing to pi. Formulas evaluated on the result keep full precision
    only inside an ``mp.workdps(dps)`` block of their own.
    """
    if dps < MIN_DPS:
        raise DomainViolation(f"high-precision mode needs dps >= {MIN_DPS}, got {dps}")
    with mp.workdps(dps):
        th = [mp.mpf(v) for v in angles]
        n = len(th)
        if kind == PolygonKind.TANGENTIAL:
            sum_L = sum_A = mp.fsum(mp.tan(t) for t in th)
        else:
            cos_sin = [mp.cos_sin(t) for t in th]
            sum_L = mp.fsum(s for _, s in cos_sin)
            sum_A = mp.fsum(s * c for c, s in cos_sin)
        return eval_context(kind, n, mp.mpf(radius), sum_L, sum_A, *_pi_over_n_trig(n, dps))


@functools.lru_cache(maxsize=256)
def _pi_over_n_trig(n: int, dps: int):
    """tan, sin and cos of pi/n at ``dps`` digits, shared: mpf values are immutable."""
    with mp.workdps(dps):
        pin = mp.pi / n
        return mp.tan(pin), mp.sin(pin), mp.cos(pin)
