"""Independent high-precision oracle for the test suite.

Everything here recomputes expected values from the closed-form trig sums
with 50-digit mpmath arithmetic and never calls the package under test, so
assertions against these numbers are genuinely two-sided. The frozen
constants below were produced by this module; ``tests/test_oracle.py``
recomputes them to guard against transcription drift.
"""

import mpmath as mp

DPS = 50

#: The standard probe triangle used throughout: (0.4 pi, 0.3 pi, 0.3 pi).
PROBE_TRIANGLE = (0.4, 0.3, 0.3)

# Frozen 12-digit oracle values for the probe triangle at R = 1.
TAN_PERIMETER = 11.6608947562
TAN_AREA = 5.83044737812
TAN_DEFICIT = 14.7928934389
TAN_REGULAR_PERIMETER = 10.3923048454
C35_RHS = 4.39452435903
CYC_PERIMETER = 5.13818101009
CYC_AREA = 1.24494914244
CYC_DEFICIT = 0.525122081877
T53_RHS = 0.00292561594387
T52_VALUE = -0.025103256927
JENSEN_TAN = 0.634294955411
JENSEN_SIN = -0.0289857063083
POWER_GAP_TAN_LHS = 3.69822335973
POWER_GAP_TAN_RHS = 1.09863108976
POWER_GAP_TAN_SLACK = 2.59959226997
REVERSE_GAP_TAN_K3_RHS = 57.9047927579
REVERSE_GAP_TAN_K3_SLACK = 54.2065693982
COUPLED_SIN_SLACK = 0.025103256927
COUPLED_COS_SLACK = 0.0273937283621

_FUNCS = {
    "tan": (mp.tan, lambda x: 1 / mp.cos(x) ** 2),
    "sec": (mp.sec, lambda x: mp.sec(x) * mp.tan(x)),
    "csc": (mp.csc, lambda x: -mp.csc(x) * mp.cot(x)),
    "sin": (mp.sin, mp.cos),
    "cos": (mp.cos, lambda x: -mp.sin(x)),
    "sinh": (mp.sinh, mp.cosh),
    "square": (lambda x: x * x, lambda x: 2 * x),
}


def probe_angles(fractions=PROBE_TRIANGLE):
    return [mp.mpf(f) * mp.pi for f in fractions]


def tangential_summary(angles, radius=1):
    """L, A, L*, A*, d_n, deficit for a circumscribed polygon."""
    with mp.workdps(DPS):
        th = [mp.mpf(t) for t in angles]
        n = len(th)
        R = mp.mpf(radius)
        s = mp.fsum(mp.tan(t) for t in th)
        d = n * mp.tan(mp.pi / n)
        L = 2 * R * s
        A = R**2 * s
        Lstar = 2 * n * R * mp.tan(mp.pi / n)
        Astar = n * R**2 * mp.tan(mp.pi / n)
        return {"L": L, "A": A, "Lstar": Lstar, "Astar": Astar, "dn": d,
                "deficit": L**2 - 4 * d * A}


def cyclic_summary(angles, radius=1):
    """Same quantities for an inscribed polygon."""
    with mp.workdps(DPS):
        th = [mp.mpf(t) for t in angles]
        n = len(th)
        R = mp.mpf(radius)
        d = n * mp.tan(mp.pi / n)
        L = 2 * R * mp.fsum(mp.sin(t) for t in th)
        A = R**2 * mp.fsum(mp.sin(t) * mp.cos(t) for t in th)
        Lstar = 2 * n * R * mp.sin(mp.pi / n)
        Astar = n * R**2 * mp.sin(mp.pi / n) * mp.cos(mp.pi / n)
        return {"L": L, "A": A, "Lstar": Lstar, "Astar": Astar, "dn": d,
                "deficit": L**2 - 4 * d * A}


def power_gap_values(fname, angles, total, alpha):
    """lhs, rhs, slack of the lower-bound power-sum inequality."""
    with mp.workdps(DPS):
        f = _FUNCS[fname][0]
        th = [mp.mpf(t) for t in angles]
        n = len(th)
        P = mp.fsum(f(t) for t in th)
        s = f(mp.mpf(total) / n)
        lhs = P ** (2 * alpha) - (n * s) ** alpha * P**alpha
        rhs = s**alpha * (P**alpha - (n * s) ** alpha)
        return {"lhs": lhs, "rhs": rhs, "slack": lhs - rhs}


def reverse_gap_values(fname, angles, total, alpha, k):
    """lhs, rhs, slack of the reverse power-sum inequality."""
    with mp.workdps(DPS):
        f = _FUNCS[fname][0]
        th = [mp.mpf(t) for t in angles]
        n = len(th)
        P = mp.fsum(f(t) for t in th)
        s = f(mp.mpf(total) / n)
        lhs = P ** (2 * alpha) - (n * s) ** alpha * P**alpha
        rhs = P ** (k * alpha) - (n * s) ** (k * alpha)
        return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs}


def coupled_d_value(fname, theta, psi):
    """2 sum f(th) f'(ps) - sum f(th) f'(th) - sum f(ps) f'(ps)."""
    with mp.workdps(DPS):
        f, fp = _FUNCS[fname]
        th = [mp.mpf(t) for t in theta]
        ps = [mp.mpf(t) for t in psi]
        mixed = 2 * mp.fsum(f(a) * fp(b) for a, b in zip(th, ps))
        diag = mp.fsum(f(a) * fp(a) for a in th) + mp.fsum(f(b) * fp(b) for b in ps)
        return mixed - diag


def jensen_value(fname, angles, total):
    with mp.workdps(DPS):
        f = _FUNCS[fname][0]
        th = [mp.mpf(t) for t in angles]
        return mp.fsum(f(t) for t in th) - len(th) * f(mp.mpf(total) / len(th))


def entry_values(entry_id, kind, angles, radius=1, alpha=1, k=2):
    """(lhs, rhs) of a catalog display, recomputed from scratch.

    Formulas are transcribed directly from the displayed inequalities,
    including the literal 1/R^(2(k-1)a) division that the package
    evaluates in normalized form, so this is an independent route.
    """
    with mp.workdps(DPS):
        summ = (tangential_summary if kind == "tangential" else cyclic_summary)(
            angles, radius)
        L, A = summ["L"], summ["A"]
        Ls, As, d = summ["Lstar"], summ["Astar"], summ["dn"]
        R = mp.mpf(radius)
        n = len(angles)
        t = mp.tan(mp.pi / n)
        a = alpha
        table = {
            "BASIC": (L**2 - 4 * d * A, mp.mpf(0)),
            "ZHANG97": (L**2 - 4 * d * A, (Ls - L) ** 2),
            "T31A": (L ** (2 * a) - 4**a * (d * A) ** a,
                     2**a * R**a * t**a * (L**a - Ls**a)),
            "T31B": ((A / R**2) ** (2 * a) - d**a * (L / (2 * R)) ** a,
                     t**a * ((L / (2 * R)) ** a - (Ls / (2 * R)) ** a)),
            "C35": (L**2 - 4 * d * A, 2 * R * t * (L - Ls)),
            "C36": ((A / R**2) ** 2 - d * (L / (2 * R)),
                    t * (L / (2 * R) - Ls / (2 * R))),
            "T32A": (L ** (2 * a) - 4**a * (d * A) ** a,
                     4**a * t**a * (A**a - As**a)),
            "T32B": ((A / R**2) ** (2 * a) - d**a * (L / (2 * R)) ** a,
                     t**a * ((A / R**2) ** a - (As / R**2) ** a)),
            "CQX": (L**2 - 4 * d * A, 4 * t * (A - As)),
            "CQC": ((A / R**2) ** 2 - d * (L / (2 * R)),
                    t * (A / R**2 - As / R**2)),
            "T41A": (L ** (2 * a) - (4 * d * A) ** a,
                     L ** (k * a) - Ls ** (k * a)),
            "T41B": ((A / R**2) ** (2 * a) - d**a * (L / (2 * R)) ** a,
                     (L / (2 * R)) ** (k * a) - (Ls / (2 * R)) ** (k * a)),
            "C4A": (L**2 - 4 * d * A, L**3 - Ls**3),
            "C4B": ((A / R**2) ** 2 - d * (L / (2 * R)),
                    (L / (2 * R)) ** 2 - (Ls / (2 * R)) ** 2),
            "T42A": (L ** (2 * a) - 4**a * (d * A) ** a,
                     (4**a / R ** (2 * (k - 1) * a)) * (A ** (k * a) - As ** (k * a))),
            "T42B": ((A / R**2) ** (2 * a) - d**a * (L / (2 * R)) ** a,
                     (A / R**2) ** (k * a) - (As / R**2) ** (k * a)),
            "C42A": (L**2 - 4 * d * A, (4 / R**2) * (A**2 - As**2)),
            "C42B": ((A / R**2) ** 2 - d * (L / (2 * R)),
                     (A / R**2) ** 3 - (As / R**2) ** 3),
            "T52": (A - L * R * mp.cos(mp.pi / n)
                    + d * (R * mp.cos(mp.pi / n)) ** 2, mp.mpf(0)),
            "T53": (L**2 - 4 * d * A, (1 / R**2) * (As - A) ** 2),
        }
        return table[entry_id]


def rel_err(value, reference) -> float:
    reference = float(reference)
    if reference == 0.0:
        return abs(float(value))
    return abs(float(value) - reference) / abs(reference)


#: Relative tolerance equivalent to agreement in 6 significant figures.
SIX_SIGFIG_RTOL = 5e-7
