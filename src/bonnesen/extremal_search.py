"""Extremal search over the angle simplex: minimize slack, scan, falsify.

Three complementary tools around the catalog evaluators:

  * minimize_slack: multi-start projected quasi-Newton descent on the
    angles, locating the slack minimum (zero, at the regular polygon, when
    the inequality is sharp).
  * grid_scan: exhaustive minimum over the integer-composition lattice of
    the simplex, evaluated once per multiset of lattice angles (every
    slack is symmetric in the angles); the brute-force oracle the
    optimizer is checked against.
  * falsify: budgeted adversarial search for slack below the violation
    threshold, with high-precision re-certification before any
    counterexample is reported.

Both descents run on one pool class, :class:`_Pool`: projected quasi-Newton
steps on the angles, many starts in lockstep, with exact gradients from
forward-mode dual numbers (``polygon_core.Dual``) and one
``evaluate_batch`` call per iteration, one evaluation charged per lane.
An angle on a bound of the box [margin, pi/2 - margin] is held until the
gradient points inward, and a descent stops on a KKT test
(:func:`minimize_slack` states the rules). Outcomes depend only on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import inequality_catalog as catalog
from .errors import BudgetExceeded, DomainViolation
from .polygon_core import (
    DEFAULT_MARGIN,
    GEOMETRIC_BOUND,
    SWEEP_RADIUS,
    AngleVector,
    PolygonKind,
    Dual,
    PolygonModel,
    _check_margin_window,
    angle_terms,
    float_regular_part,
    seed_parts,
)

#: A descent converges when its KKT residual, the largest projected
#: gradient component relative to max(1, |multiplier|), is at most
#: DESCENT_GTOL, and stops unconverged after DESCENT_MAX_ITER evaluations;
#: minimize_slack makes MAX_STARTS at most.
DESCENT_GTOL, DESCENT_MAX_ITER = 1e-10, 4000
MAX_STARTS = 160

#: grid_scan refuses lattices with more points than this. The count is of
#: compositions (lattice_point_count), an upper bound on the sorted index
#: tuples the scan evaluates.
GRID_POINT_CAP = 10_000_000

#: Certified counterexamples need exact slack below -this times the scale.
COUNTEREXAMPLE_RTOL = 1e-8

#: Starts falsify descends at once, a round at a time: FALSIFY_NARROW_LANES
#: below a budget of FALSIFY_WIDE_BUDGET evaluations, FALSIFY_WIDE_LANES
#: from it on. A round runs until its longest descent ends, so it should
#: hold the starts a budget affords (55-79 at a budget of 750).
FALSIFY_NARROW_LANES, FALSIFY_WIDE_LANES = 80, 256
FALSIFY_WIDE_BUDGET = 5000

_TOTAL = math.pi


@dataclass(frozen=True)
class SearchResult:
    entry_id: str
    best_angles: AngleVector
    best_slack: float
    iterations: int
    starts: int
    converged: bool
    distance_to_regular: float


@dataclass(frozen=True)
class GridScanResult:
    entry_id: str
    resolution: int
    grid_min_slack: float
    grid_argmin: AngleVector
    step: float


@dataclass(frozen=True)
class Counterexample:
    """A certified violation: negative slack confirmed in high precision."""

    entry_id: str
    angles: AngleVector
    slack: float
    slack_exact: float
    scale: float
    alpha: int | None
    k: int | None


def _case(entry_or_id, n: int, alpha, k, kind: PolygonKind | None, margin: float):
    """(entry, kind, alpha, k) of a search, after checking every argument."""
    entry = catalog._resolve(entry_or_id)
    if kind is None:
        # Dual-kind entry with no kind given: tangential is the wider family.
        kind = next(iter(entry.kinds)) if len(entry.kinds) == 1 else PolygonKind.TANGENTIAL
    alpha, k = catalog._checked_params(entry, kind, alpha, k)
    _check_margin_window(n, _TOTAL, margin, GEOMETRIC_BOUND)
    return entry, kind, alpha, k


#: Dual seeds of the two sums: d/d sum_L and d/d sum_A.
_SEED_L, _SEED_A = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])

#: How far a start may reach from the regular point toward the bounds of
#: the box; starts on the bounds (1) tripled falsify's time at n = 3 and 4.
_START_REACH = 0.75

#: Sufficient decrease of the Armijo test. Where the trial's slack is at
#: most _FLAT (1 + |slack at the start|) above the lane's, the test takes
#: the slope at the trial instead, which rounding in the slack cannot fool.
_ARMIJO, _FLAT = 1e-4, 1e-10

#: A step that moves no angle by more than this (the float spacing at
#: pi/2) does not move the lane.
_NO_MOVE = float(np.spacing(GEOMETRIC_BOUND))


def _start_points(rng, count: int, n: int, margin: float) -> np.ndarray:
    """The next ``count`` start points of the stream ``rng``, one per row.

    Each start takes one Dirichlet row of the stream and shrinks it toward
    the regular point just far enough that every angle lies at most
    _START_REACH of the way from pi/n to its bound of the box [margin,
    pi/2 - margin]; a convex combination keeps the sum. A start draws the
    same row however the starts are batched, so its point depends only on
    the seed and its index.
    """
    sigma = _TOTAL / n
    d = rng.dirichlet(np.ones(n), size=count) * _TOTAL - sigma
    reach = np.abs(d) / np.where(d > 0, GEOMETRIC_BOUND - margin - sigma, sigma - margin)
    shrink = _START_REACH / np.maximum(_START_REACH, np.maximum.reduce(reach, axis=1))
    return sigma + shrink[:, None] * d


def _objective(entry, kind, n, alpha, k):
    """Slack of each angle row and its gradient in the angles, in one call.

    The sums enter as dual numbers, so d slack / d theta_i = g_L dL_i +
    g_A dA_i with the partials g of ``evaluate_batch``: dL_i = dA_i =
    sec^2 theta_i when tangential, cos theta_i and cos 2 theta_i when cyclic.
    """
    regular = float_regular_part(kind, n, SWEEP_RADIUS)

    def fn(theta):
        terms_L, terms_A = angle_terms(kind, theta)
        sum_L = Dual(np.add.reduce(terms_L, axis=1), _SEED_L)
        one = terms_A is terms_L
        sum_A = sum_L if one else Dual(np.add.reduce(terms_A, axis=1), _SEED_A)
        out = catalog.evaluate_batch(entry, kind, SWEEP_RADIUS,
                                     regular.context(sum_L, sum_A), alpha, k)
        if one:
            return out["slack"], out["slack_dL"][:, None] * (1.0 + terms_L * terms_L)
        return out["slack"], (out["slack_dL"][:, None] * np.cos(theta)
                              + out["slack_dA"][:, None] * np.cos(2.0 * theta))

    return fn


@dataclass(frozen=True)
class _Descent:
    """One finished lane: where it ended and the evaluations it took; ``f``
    is inf when the descent overflowed."""

    start: int
    theta: np.ndarray
    f: float
    evals: int
    converged: bool


#: Per-lane state, one array each, rows in lane order.
_STATE = ("x", "f", "g", "H", "p", "t", "slope", "trial", "fresh", "ftol")


class _Pool:
    """Projected quasi-Newton descents of many starts at once, in lockstep.

    Each lane is one start: ``starts`` holds their indices, ``thetas``
    their angle rows. A step evaluates one trial point of every running
    lane, value and gradient, in one call of ``fn``. Every operation is
    elementwise or a reduction within a lane's row, in C order, so a
    lane's result is bit-identical whatever lanes share the pool.
    """

    def __init__(self, fn, margin: float, starts, thetas: np.ndarray):
        m, n = thetas.shape
        self.fn, self.n, self.starts = fn, n, list(starts)
        self.lower, self.upper = margin, GEOMETRIC_BOUND - margin
        self.steps = 0
        self._P = np.eye(n) - 1.0 / n
        # f = inf and t = 0: a start is taken unless its slack is NaN. H is
        # zero, so the first direction restarts it.
        self.x = self.trial = thetas
        self.f, self.ftol = np.full(m, np.inf), np.zeros(m)
        self.g, self.p = np.zeros((m, n)), np.zeros((m, n))
        self.H = np.zeros((m, n, n))
        self.t, self.slope = np.zeros(m), np.zeros(m)
        self.fresh = np.zeros(m, dtype=bool)  # H restarted, no BFGS update since

    def run(self) -> list[_Descent]:
        """Descend every lane to the end; results in start order."""
        done = []
        # Overflowing slacks end a descent and are handled by the caller.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while self.starts:
                done += self.step()
        return sorted(done, key=lambda d: d.start)

    def step(self) -> list[_Descent]:
        """Advance every lane one evaluation; return the lanes that finished."""
        x, f, t, slope, trial = self.x, self.f, self.t, self.slope, self.trial
        fv, gv = self.fn(trial)
        self.steps += 1
        acc = fv <= f + _ARMIJO * t * slope
        acc |= (fv <= f + self.ftol) & (
            np.add.reduce(gv * self.p, axis=1) <= (2 * _ARMIJO - 1) * slope)
        # The BFGS pair, y on the sum-zero subspace; at a start s = 0.
        s = trial - x
        y = gv - self.g
        y -= (np.add.reduce(y, axis=1) / self.n)[:, None]
        sy = np.add.reduce(s * y, axis=1)
        upd = acc & (sy > 0)
        if upd.any():
            self._bfgs(upd, s, y, sy)
        # Backtrack to the minimum of the quadratic through f, slope and fv,
        # kept within [0.1 t, 0.5 t]; by 0.1 where it is NaN.
        q = -slope * t * t / (2.0 * (fv - f - slope * t))
        t = np.where(acc, 1.0, np.fmin(np.fmax(q, 0.1 * t), 0.5 * t))
        x = self.x = np.where(acc[:, None], trial, x)
        f = self.f = np.where(acc, fv, f)
        g = self.g = np.where(acc[:, None], gv, self.g)
        if self.steps == 1:
            self.ftol = _FLAT * (1.0 + np.abs(fv))
        lower, upper = self.lower, self.upper
        lam, pg, p = self._direction(x, g)
        # The KKT residual: the projected gradient, relative to the multiplier.
        r = np.maximum.reduce(np.abs(pg), axis=1) / np.maximum(1.0, np.abs(lam))
        slope = np.add.reduce(pg * p, axis=1)
        trial = x + t[:, None] * p
        # Restart H where the direction is not downhill or the step no
        # longer moves the lane: steepest descent, at most a radian per
        # angle. A lane whose restarted H fails so stops.
        renew = ~(slope < 0) | (np.maximum.reduce(np.abs(trial - x), axis=1) <= _NO_MOVE)
        again, stop = renew & ~self.fresh, renew & self.fresh
        if again.any():
            c = 1.0 / np.maximum(1.0, np.maximum.reduce(np.abs(pg), axis=1))
            self.H = np.where(again[:, None, None], c[:, None, None] * self._P, self.H)
            self.fresh = self.fresh | again
            p = np.where(again[:, None], -c[:, None] * pg, p)
            slope = np.where(again, -c * np.add.reduce(pg * pg, axis=1), slope)
            t = np.where(again, 1.0, t)
            trial = x + t[:, None] * p
            stop |= again & (np.maximum.reduce(np.abs(trial - x), axis=1) <= _NO_MOVE)
        out = ((trial < lower) | (trial > upper)).any(axis=1)
        if out.any():
            # Cut the lanes that leave the box; their limiting angles end on it.
            room = np.where(p > 0, upper - x, x - lower) / np.abs(p)
            t = np.where(out, np.minimum(t, np.fmin.reduce(room, axis=1)), t)
            on = out[:, None] & (room == t[:, None])
            trial = np.where(on, np.where(p > 0, upper, lower),
                             np.where(out[:, None], x + t[:, None] * p, trial))
        self.p, self.slope, self.t, self.trial = p, slope, t, trial
        # A slack, gradient or slope past the float range ends a lane as overflowing.
        finite = np.isfinite(f + r + slope)
        converged = finite & (r <= DESCENT_GTOL)
        done = converged | ~finite | stop | (self.steps >= DESCENT_MAX_ITER)
        if not done.any():
            return []
        return self._retire(np.flatnonzero(done), converged, finite)

    def _direction(self, x, g):
        """(multiplier, projected gradient, direction) of every lane.

        The direction is -H times the projected gradient over the free
        angles, recentred on their sum-zero subspace (rounding along
        (1, ..., 1) grows with H). An angle on a bound is freed while the
        gradient points inward of the free angles' multiplier (every
        angle's, when all are on bounds); the direction also holds what it
        would push outward.
        """
        lo, hi = x <= self.lower, x >= self.upper
        free = ~(lo | hi)
        while True:
            basis = free | ~free.any(axis=1)[:, None]
            lam = np.add.reduce(g * basis, axis=1) / np.add.reduce(basis, axis=1)
            more = free | (lo & (g < lam[:, None])) | (hi & (g > lam[:, None]))
            if (more == free).all():
                break
            free = more
        pg = grad = np.where(free, g - lam[:, None], 0.0)
        while True:
            count = np.maximum(np.add.reduce(free, axis=1), 1)
            p = np.where(free, np.add.reduce(self.H * grad[:, None, :], axis=2), 0.0)
            p = np.where(free, (np.add.reduce(p, axis=1) / count)[:, None] - p, 0.0)
            held = (lo & (p < 0)) | (hi & (p > 0))
            if not held.any():
                return lam, pg, p
            free = free & ~held
            mean = np.add.reduce(g * free, axis=1) / np.maximum(np.add.reduce(free, axis=1), 1)
            grad = np.where(free, g - mean[:, None], 0.0)

    def _bfgs(self, upd, s, y, sy):
        """BFGS update of the inverse Hessian of the lanes ``upd``.

        H is first scaled by sy / yHy: outright at its first update
        (Shanno and Phua), later only upward (Oren and Luenberger), so that
        an early step across a steep wall cannot leave it too small.
        """
        idx = np.flatnonzero(upd)
        H, fresh, s, y, sy = self.H[idx], self.fresh[idx], s[idx], y[idx], sy[idx]
        Hy = np.add.reduce(H * y[:, None, :], axis=2)
        yHy = np.add.reduce(y * Hy, axis=1)
        tau = sy / yHy
        tau = np.where(fresh, tau, np.maximum(tau, 1.0))
        rho = 1.0 / sy
        # tau H + s v' + v s', the BFGS update of tau H.
        v = (0.5 * (rho + rho * rho * tau * yHy))[:, None] * s - (rho * tau)[:, None] * Hy
        sv = s[:, :, None] * v[:, None, :]
        self.H[idx] = tau[:, None, None] * H + sv + sv.transpose(0, 2, 1)
        self.fresh[idx] = False

    def _retire(self, lanes, converged, finite) -> list[_Descent]:
        """Take ``lanes`` (indices, ascending) out of the pool as results."""
        done = [_Descent(start=self.starts[i], theta=self.x[i],
                         f=float(self.f[i]) if finite[i] else math.inf,
                         evals=self.steps, converged=bool(converged[i]))
                for i in lanes.tolist()]
        keep = np.ones(len(self.starts), dtype=bool)
        keep[lanes] = False
        for name in _STATE:
            setattr(self, name, getattr(self, name)[keep])
        self.starts = [s for s, kp in zip(self.starts, keep.tolist()) if kp]
        return done


def minimize_slack(
    entry_or_id,
    n: int,
    *,
    alpha: int | None = None,
    k: int | None = None,
    starts: int = 20,
    seed: int = 0,
    kind: PolygonKind | None = None,
    margin: float = DEFAULT_MARGIN,
) -> SearchResult:
    """Multi-start projected quasi-Newton descent on an entry's slack at R = 1.

    Runs ``starts`` descents from seeded random simplex points on one
    lockstep pool; when none converges the start count doubles, up to
    MAX_STARTS in all. Each takes BFGS steps with Armijo backtracking on
    the angles, keeping their sum; steepest descent restarts it where a
    direction is not downhill or a step no longer moves it. An angle on a
    bound of the box [margin, pi/2 - margin] is held until the gradient
    points inward, and a step that would leave the box ends on it. A
    descent converges when its KKT residual (the projected gradient,
    relative to the multiplier) is at most DESCENT_GTOL, and stops
    unconverged after DESCENT_MAX_ITER evaluations or when a restarted
    step fails. ``iterations`` counts evaluations, one per value-and-
    gradient row. ``starts`` outside [1, MAX_STARTS] raises
    DomainViolation; NonFiniteValue when no descent ends at a finite slack.
    """
    if not 1 <= starts <= MAX_STARTS:
        raise DomainViolation(f"starts must be in [1, {MAX_STARTS}], got {starts}")
    entry, kind, alpha, k = _case(entry_or_id, n, alpha, k, kind, margin)
    fn = _objective(entry, kind, n, alpha, k)
    rng = np.random.default_rng(seed_parts(seed))
    sigma = _TOTAL / n

    best, best_f = None, float("inf")
    total_iters = 0
    any_converged = False
    used = 0
    batch = starts
    while used < MAX_STARTS:
        batch = min(batch, MAX_STARTS - used)
        thetas = _start_points(rng, batch, n, margin)
        for d in _Pool(fn, margin, range(used, used + batch), thetas).run():
            total_iters += d.evals
            any_converged = any_converged or d.converged
            if math.isfinite(d.f) and d.f < best_f:
                best_f, best = d.f, d.theta
        used += batch
        if any_converged:
            break
        batch *= 2  # adaptive doubling on total non-convergence
    if best is None:
        # Every start is feasible, so no finite end means overflowing sides.
        raise catalog._overflow(entry, kind, n, alpha, k)
    angles = AngleVector(values=tuple(float(v) for v in best), total=_TOTAL)
    return SearchResult(
        entry_id=entry.id,
        best_angles=angles,
        best_slack=best_f,
        iterations=total_iters,
        starts=used,
        converged=any_converged,
        distance_to_regular=float(np.max(np.abs(best - sigma))),
    )


def lattice_point_count(resolution: int, n: int, max_steps: int) -> int:
    """Compositions of ``resolution`` into n parts with 1 <= j_i <= max_steps."""
    total = 0
    for s in range(n + 1):
        rem = resolution - n - s * max_steps
        if rem < 0:
            break
        total += (-1) ** s * math.comb(n, s) * math.comb(rem + n - 1, n - 1)
    return total


def _lattice_params(n: int, resolution: int, margin: float):
    step = (_TOTAL - n * margin) / resolution
    # Largest j with margin + j*step strictly below the open upper bound.
    max_steps = int(math.floor((GEOMETRIC_BOUND - 2 * margin - 1e-12) / step))
    return step, max_steps


def grid_scan(
    entry_or_id,
    n: int,
    *,
    alpha: int | None = None,
    k: int | None = None,
    resolution: int = 400,
    kind: PolygonKind | None = None,
    margin: float = DEFAULT_MARGIN,
) -> GridScanResult:
    """Exhaustive slack minimum over the simplex lattice at R = 1.

    The lattice is theta_i = margin + j_i * step with step =
    (pi - n margin) / resolution and sum j_i = resolution, every
    coordinate inside the open domain. Every slack is symmetric in the
    angles, so the scan visits only the sorted index tuples
    j_1 <= ... <= j_n, about 1/n! of the points, in lexicographic order;
    a point's value is the slack of its ascending angle row, and the
    argmin is the lexicographically smallest sorted tuple among ties.
    The composition count is computed in closed form first; above
    GRID_POINT_CAP the scan refuses with BudgetExceeded rather than
    grinding. A slack that is not finite raises NonFiniteValue.
    """
    entry, kind, alpha, k = _case(entry_or_id, n, alpha, k, kind, margin)
    if resolution < n:
        raise DomainViolation(f"resolution {resolution} < n = {n}: empty lattice")
    step, hi = _lattice_params(n, resolution, margin)
    count = lattice_point_count(resolution, n, hi)
    if count > GRID_POINT_CAP:
        raise BudgetExceeded(
            f"lattice has {count:,} points, above the cap of {GRID_POINT_CAP:,}"
        )
    if count == 0:
        raise DomainViolation("no feasible lattice point at this resolution")

    best_slack = float("inf")
    best_j: tuple[int, ...] | None = None

    # The per-angle terms take one value per lattice index, so they are
    # tabulated once and every plane's sums are gathered from the tables.
    terms_L, terms_A = angle_terms(kind, margin + np.arange(hi + 1) * step)
    regular = float_regular_part(kind, n, SWEEP_RADIUS)

    # Vectorize the last three indices: a plane is the pairs ja <= jb in
    # lexicographic order, each completed by jc. Peel the leading indices
    # off recursively, each at least the one before it.
    ja_pairs, jb_pairs = np.triu_indices(hi)
    ja_pairs, jb_pairs = ja_pairs + 1, jb_pairs + 1

    def scan_plane(prefix: list[int], first: int, remaining: int):
        nonlocal best_slack, best_j
        jc = remaining - ja_pairs - jb_pairs
        mask = (ja_pairs >= first) & (jb_pairs <= jc) & (jc <= hi)
        if not mask.any():
            return
        plane = [ja_pairs[mask], jb_pairs[mask], jc[mask]]
        # The plane's (m, n) terms, summed as measure_arrays sums them, so
        # the sums match it bit for bit.
        rows = np.stack(np.broadcast_arrays(*prefix, *plane), axis=1)
        sum_L = terms_L[rows].sum(axis=1)
        sum_A = sum_L if terms_A is terms_L else terms_A[rows].sum(axis=1)
        ctx = regular.context(sum_L, sum_A)
        slack = catalog.evaluate_batch(entry, kind, SWEEP_RADIUS, ctx, alpha, k)["slack"]
        # Every lattice point lies in the domain, so a slack that is not
        # finite is an overflow, never a point to skip.
        if not np.isfinite(slack).all():
            raise catalog._overflow(entry, kind, n, alpha, k)
        i = int(np.argmin(slack))
        if slack[i] < best_slack:
            best_slack = float(slack[i])
            best_j = tuple(prefix) + tuple(int(col[i]) for col in plane)

    def walk(prefix: list[int], first: int, remaining: int):
        depth_left = n - len(prefix)
        if depth_left == 3:
            scan_plane(prefix, first, remaining)
            return
        # j is the least of the depth_left indices still to choose, and the
        # others must fit under hi.
        for j in range(max(first, remaining - hi * (depth_left - 1)),
                       remaining // depth_left + 1):
            walk(prefix + [j], j, remaining - j)

    # Overflowing slacks are refused in scan_plane, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        walk([], 1, resolution)

    theta = tuple(margin + j * step for j in best_j)
    # Exact lattice rows sum to pi by construction up to roundoff; renormalize
    # the stored argmin so it is a valid AngleVector.
    s = math.fsum(theta)
    theta = tuple(v * (_TOTAL / s) for v in theta)
    return GridScanResult(
        entry_id=entry.id,
        resolution=resolution,
        grid_min_slack=best_slack,
        grid_argmin=AngleVector(values=theta, total=_TOTAL),
        step=step,
    )


def _falsify_lanes(budget_evals: int) -> int:
    """falsify's pool width for a budget of ``budget_evals`` evaluations."""
    if budget_evals >= FALSIFY_WIDE_BUDGET:
        return FALSIFY_WIDE_LANES
    return FALSIFY_NARROW_LANES


def falsify(
    entry_or_id,
    n: int,
    *,
    alpha: int | None = None,
    k: int | None = None,
    budget_evals: int = 100_000,
    seed: int = 0,
    kind: PolygonKind | None = None,
) -> Counterexample | None:
    """Adversarial search for a certified violation of an entry at R = 1.

    Runs the descents of :func:`minimize_slack`, with its stop rule and
    margin DEFAULT_MARGIN, in rounds of :func:`_falsify_lanes` starts
    until the evaluation budget is spent; a descent is charged one
    evaluation per value-and-gradient row it takes. Starts are settled in
    start order as if run one after another: start i counts only if the
    starts before it spent less than the budget, and the first certified
    counterexample in start order wins, so the verdict does not depend on
    the lane count.
    Any descent ending with slack below -1e-8 * scale is re-evaluated in
    high-precision mode; only an exact negative of the same magnitude is
    returned. None means no counterexample was found within budget, i.e.
    the inequality survived falsification at this budget. When no settled
    descent ends at a finite slack the sides overflow, and NonFiniteValue
    is raised, as :func:`minimize_slack` raises it. A budget below 1
    raises DomainViolation.
    """
    if budget_evals < 1:
        raise DomainViolation(f"budget_evals must be >= 1, got {budget_evals}")
    entry, kind, alpha, k = _case(entry_or_id, n, alpha, k, kind, DEFAULT_MARGIN)
    fn = _objective(entry, kind, n, alpha, k)
    rng = np.random.default_rng(seed_parts(seed))
    width = _falsify_lanes(budget_evals)
    spent = launched = 0
    any_finite = False
    while spent < budget_evals:
        # One round: the next starts, each only if the starts before it may
        # have spent less than the budget (each new one costs at least 1).
        batch = min(width, budget_evals - spent)
        thetas = _start_points(rng, batch, n, DEFAULT_MARGIN)
        for d in _Pool(fn, DEFAULT_MARGIN, range(launched, launched + batch), thetas).run():
            if spent >= budget_evals:
                break
            spent += d.evals
            if not math.isfinite(d.f):
                continue  # overflowing sides; every start is feasible
            any_finite = True
            # d.f is the float slack of d.theta, and the scale is at least 1.
            if not d.f < -COUNTEREXAMPLE_RTOL:
                continue
            angles = AngleVector(values=tuple(float(v) for v in d.theta), total=_TOTAL)
            poly = PolygonModel(kind=kind, radius=SWEEP_RADIUS, angles=angles)
            std = catalog.evaluate(entry, poly, alpha, k)
            if std.slack < -COUNTEREXAMPLE_RTOL * std.scale:
                exact = catalog.evaluate_exact(entry, poly, alpha, k)
                if exact.slack < -COUNTEREXAMPLE_RTOL * exact.scale:
                    return Counterexample(
                        entry_id=entry.id, angles=angles,
                        slack=std.slack, slack_exact=exact.slack,
                        scale=exact.scale, alpha=alpha, k=k,
                    )
        launched += batch
    if not any_finite:
        raise catalog._overflow(entry, kind, n, alpha, k)
    return None
