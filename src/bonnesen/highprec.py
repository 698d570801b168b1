"""High-precision (mpmath) evaluation backend, at one precision of 50 digits.

Used to adjudicate near-equality cases and to re-certify candidate
counterexamples before they are believed: the catalog slack formulas are
plain arithmetic over the measured quantities, so they evaluate unchanged
on mpf values produced here, all in one private 50-digit mpmath context.
The caller's mpmath context is neither read nor changed, so threads may
share the backend.
"""

from __future__ import annotations

import functools

import mpmath
from mpmath import libmp

from .polygon_core import EvalContext, PolygonKind, RegularPart, regular_part

#: Working precision (decimal digits) of every exact re-evaluation.
DPS = 50

#: The private context of every exact value; nothing changes its precision.
_MP = mpmath.MPContext()
_MP.dps = DPS
_PREC, _ROUND = _MP.prec, libmp.round_nearest


def _fsum(terms):
    return _MP.make_mpf(libmp.mpf_sum(terms, _PREC, _ROUND))


def measure_exact(kind: PolygonKind, radius, angles) -> EvalContext:
    """Closed-form polygon measurement with mpf arithmetic at DPS digits.

    The same closed forms as the float backend, with the per-row sums taken
    as ``fsum`` takes them. ``angles`` is a sequence of floats summing
    to pi, each converted to mpf exactly. The trig values, products and
    sums run on mpmath's raw mpf tuples (``mpmath.libmp``), the calls
    ``tan``, ``cos_sin`` and ``fsum`` make inside, so the results are
    theirs bit for bit without an mpf object per term. The regular
    polygon's part of the context comes from :func:`_regular_part`. Every
    value is in the private context, so formulas on it run at DPS digits.
    """
    th = [libmp.from_float(t) for t in angles]
    if kind == PolygonKind.TANGENTIAL:
        sum_L = sum_A = _fsum([libmp.mpf_tan(t, _PREC, _ROUND) for t in th])
    else:
        cos_sin = [libmp.mpf_cos_sin(t, _PREC, _ROUND) for t in th]
        sum_L = _fsum([s for _, s in cos_sin])
        sum_A = _fsum([libmp.mpf_mul(s, c, _PREC, _ROUND) for c, s in cos_sin])
    return _regular_part(kind, len(th), radius).context(sum_L, sum_A)


@functools.lru_cache(maxsize=256)
def _regular_part(kind: PolygonKind, n: int, radius) -> RegularPart:
    """L*, A*, L*/2R, A*/R^2, d_n and the trig values of pi/n at DPS
    digits, per (kind, n, radius); shared, as mpf values are immutable."""
    pin = _MP.pi / n
    return regular_part(kind, n, _MP.mpf(radius), _MP.tan(pin), _MP.sin(pin), _MP.cos(pin))
