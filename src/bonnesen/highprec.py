"""High-precision (mpmath) evaluation backend, at one precision of 50 digits.

Used to adjudicate near-equality cases and to re-certify candidate
counterexamples before they are believed: the catalog slack formulas are
plain arithmetic over the measured quantities, so they evaluate unchanged
on mpf values produced here.
"""

from __future__ import annotations

import functools

import mpmath as mp
from mpmath import libmp

from .polygon_core import EvalContext, PolygonKind, RegularPart, regular_part

#: Working precision (decimal digits) of every exact re-evaluation.
DPS = 50

#: The mp context's rounding mode, to nearest.
_ROUND = libmp.round_nearest


def measure_exact(kind: PolygonKind, radius, angles) -> EvalContext:
    """Closed-form polygon measurement with mpf arithmetic at DPS digits.

    The same closed forms as the float backend, with the per-row sums taken
    as ``mp.fsum`` takes them. ``angles`` is a sequence of floats summing
    to pi, each converted to mpf exactly. The trig values, products and
    sums run on mpmath's raw mpf tuples (``mpmath.libmp``), the calls
    ``mp.tan``, ``mp.cos_sin`` and ``mp.fsum`` make inside, so the results
    are theirs bit for bit without an mpf object per term. The regular
    polygon's part of the context comes from :func:`_regular_part`.
    Formulas evaluated on the result keep full precision only inside an
    ``mp.workdps(DPS)`` block of their own.
    """
    with mp.workdps(DPS):
        prec = mp.mp.prec

        def fsum(terms):
            return mp.mp.make_mpf(libmp.mpf_sum(terms, prec, _ROUND))

        th = [libmp.from_float(t) for t in angles]
        if kind == PolygonKind.TANGENTIAL:
            sum_L = sum_A = fsum([libmp.mpf_tan(t, prec, _ROUND) for t in th])
        else:
            cos_sin = [libmp.mpf_cos_sin(t, prec, _ROUND) for t in th]
            sum_L = fsum([s for _, s in cos_sin])
            sum_A = fsum([libmp.mpf_mul(s, c, prec, _ROUND) for c, s in cos_sin])
        return _regular_part(kind, len(th), radius).context(sum_L, sum_A)


@functools.lru_cache(maxsize=256)
def _regular_part(kind: PolygonKind, n: int, radius) -> RegularPart:
    """L*, A*, L*/2R, A*/R^2, d_n and the trig values of pi/n at DPS
    digits, per (kind, n, radius); shared, as mpf values are immutable."""
    with mp.workdps(DPS):
        pin = mp.pi / n
        return regular_part(kind, n, mp.mpf(radius), mp.tan(pin), mp.sin(pin), mp.cos(pin))
