"""Extremal search over the angle simplex: minimize slack, scan, falsify.

Three complementary tools around the catalog evaluators:

  * minimize_slack: multi-start derivative-free simplex descent on a
    smooth reparameterization of the constrained angle space, locating the
    slack minimum (zero, at the regular polygon, when the inequality is
    sharp).
  * grid_scan: exhaustive minimum over the integer-composition lattice of
    the simplex, evaluated once per multiset of lattice angles (every
    slack is symmetric in the angles); the brute-force oracle the
    optimizer is checked against.
  * falsify: budgeted adversarial search for slack below the violation
    threshold, with high-precision re-certification before any
    counterexample is reported.

The reparameterization maps n - 1 free reals z through a softmax with an
anchored last coordinate to positive weights, then to angles
margin + (total - n margin) * w, so iterates always satisfy the sum
constraint and the lower margin; the upper domain bound is enforced by an
infinite objective. Independent starts use seed-derived substreams and the
best result is reduced in start order, so outcomes depend only on the seed.

Both descents run on one driver, :class:`_Lanes`, which advances many
starts in lockstep. An iteration evaluates four candidate points of
every start in one batched catalog call, plus one call for the starts
whose simplex shrinks. A start's result, and the evaluations charged to
it, are bit-identical to those of the start descending alone; the
candidates it does not take are evaluated but not charged.
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
    PolygonModel,
    _check_margin_window,
    angle_terms,
    float_regular_part,
    seed_parts,
)

#: Every descent stops at a simplex diameter below DESCENT_XTOL or after
#: DESCENT_MAX_ITER iterations; minimize_slack makes MAX_STARTS at most.
DESCENT_XTOL, DESCENT_MAX_ITER = 1e-10, 4000
MAX_STARTS = 160

#: grid_scan refuses lattices with more points than this. The count is of
#: compositions (lattice_point_count), an upper bound on the sorted index
#: tuples the scan evaluates.
GRID_POINT_CAP = 10_000_000

#: Certified counterexamples need exact slack below -this times the scale.
COUNTEREXAMPLE_RTOL = 1e-8

#: Starts falsify descends at once: FALSIFY_NARROW_LANES below a budget
#: of FALSIFY_WIDE_BUDGET evaluations, FALSIFY_WIDE_LANES from it on.
#: Starts past the first certified counterexample, or past the budget,
#: are descended and then dropped, so a wider pool saves batched calls at
#: large budgets but wastes rows at small ones. Over the 21 catalog cases
#: at n = 4 on a 2-vCPU host, 8 lanes ran fastest at budgets of 750 and
#: 2000 (32 lanes took 1.27x and 1.16x as long); at 5000, 2 x 10^4 and
#: 10^5, 32 lanes took 0.61x, 0.45x and 0.38x the time of 8. Budgets
#: between 2000 and 5000 were not measured and keep the narrow pool.
FALSIFY_NARROW_LANES, FALSIFY_WIDE_LANES = 8, 32
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


def _feasible_start(rng, n: int, margin: float) -> np.ndarray:
    """A simplex point with every coordinate strictly inside the domain."""
    upper = GEOMETRIC_BOUND - 2 * margin
    for _ in range(1000):
        theta = rng.dirichlet(np.ones(n)) * _TOTAL
        if (theta > 2 * margin).all() and (theta < upper).all():
            return theta
    # Vanishingly unlikely for the defaults; jitter the regular point instead.
    theta = np.full(n, _TOTAL / n) * (1.0 + 0.01 * rng.standard_normal(n))
    return theta * (_TOTAL / theta.sum())


def _angles_from_free(z: np.ndarray, n: int, margin: float) -> np.ndarray:
    """Angle rows of the free rows ``z``, shape (m, n - 1) -> (m, n)."""
    # In place on one array, and the reductions without the ndarray
    # method wrappers: one call costs far more than these few rows.
    w = np.zeros((len(z), n))
    w[:, :-1] = z
    w -= np.maximum.reduce(w, axis=1, keepdims=True)  # softmax overflow guard
    np.exp(w, out=w)
    w /= np.add.reduce(w, axis=1, keepdims=True)
    w *= _TOTAL - n * margin
    w += margin
    return w


def _free_from_angles(theta: np.ndarray, n: int, margin: float) -> np.ndarray:
    w = (theta - margin) / (_TOTAL - n * margin)
    logw = np.log(w)
    return (logw - logw[-1])[:-1]


def _start_point(seed, index: int, n: int, margin: float) -> np.ndarray:
    """Free coordinates of start ``index``, drawn from substream seed + [index]."""
    rng = np.random.default_rng(seed_parts(seed) + [index])
    return _free_from_angles(_feasible_start(rng, n, margin), n, margin)


def _objective(entry, kind, n, alpha, k, margin):
    """Slack of each free row; inf where an angle reaches the upper bound."""
    upper = GEOMETRIC_BOUND - margin

    def fn(z):
        theta = _angles_from_free(z, n, margin)
        # One test for the batch; a NaN row fails it and is masked below.
        if np.maximum.reduce(theta, axis=None) < upper:
            return catalog.evaluate_batch(entry, kind, SWEEP_RADIUS, theta, alpha, k)["slack"]
        ok = ~(theta >= upper).any(axis=1)
        f = np.full(len(z), np.inf)
        if ok.any():
            f[ok] = catalog.evaluate_batch(entry, kind, SWEEP_RADIUS, theta[ok], alpha, k)["slack"]
        return f

    return fn


@dataclass(frozen=True)
class _Descent:
    """One finished lane: its best vertex and what it cost."""

    start: int
    z: np.ndarray
    f: float
    iterations: int
    converged: bool
    evals: int


_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1.0, 2.0, 0.5, 0.5

#: A lane's candidates are c + t d, c the centroid of all but its worst
#: vertex: the reflection and the inside contraction along d = c - worst,
#: the expansion and the outside contraction along d = reflection - c.
_ALONG_WORST = np.array([_REFLECT, -_CONTRACT])[:, None, None]
_ALONG_REFLECTION = np.array([_EXPAND, _CONTRACT])[:, None, None]


class _Lanes:
    """Plain downhill simplex run on many starts at once, in lockstep.

    Each lane is one start's simplex; the lanes are held as a (lanes,
    dim + 1, dim) array, oldest first. New lanes' initial simplices take
    one call of ``fn``; then an iteration makes one call over four
    candidate points of every lane, and one more over the new vertices of
    the lanes that shrink (see :meth:`_advance`). Per lane the arithmetic
    is that of a single-simplex descent: the same stable sort, centroid
    and norm, so a lane's result does not depend on the other lanes in
    the batch. A lane finishes when its diameter (max vertex distance to
    the best vertex) drops below ``xtol`` or after ``max_iter`` iterations.

    An iteration makes the same few numpy calls whatever the number of
    lanes: the arithmetic runs on the whole block, and only each lane's
    choice of branch, and the count of what it is charged, runs per lane
    on Python floats and ints.
    """

    def __init__(self, fn, dim: int, xtol: float, max_iter: int):
        self.fn, self.dim, self.xtol, self.max_iter = fn, dim, xtol, max_iter
        #: Evaluations charged to every lane added so far, running or not.
        self.spent = 0
        self._pending: list[tuple[int, np.ndarray]] = []
        self.verts = np.empty((0, dim + 1, dim))
        self.fvals = np.empty((0, dim + 1))
        # Per running lane: its start, the iteration it joined at (see
        # ``iters``) and the evaluations charged to it.
        self.starts: list[int] = []
        self._joined: list[int] = []
        self._evals: list[int] = []
        self._clock = 0  # iterations run by the pool
        self._rows = np.empty((0, 1), dtype=int)  # lane index column for gathers

    @property
    def iters(self) -> np.ndarray:
        """Iterations each running lane has run."""
        return np.array([self._clock - j for j in self._joined], dtype=int)

    @property
    def evals(self) -> np.ndarray:
        """Evaluations charged to each running lane."""
        return np.array(self._evals, dtype=int)

    def __len__(self) -> int:
        return len(self.starts) + len(self._pending)

    def add(self, start: int, x0: np.ndarray) -> None:
        """Queue a lane from ``x0``; its simplex is evaluated at the next step."""
        verts = [x0.copy()]
        for i in range(self.dim):
            v = x0.copy()
            v[i] += 0.1 if v[i] == 0.0 else 0.1 * abs(v[i]) + 0.05
            verts.append(v)
        self._pending.append((start, np.asarray(verts)))
        self.spent += self.dim + 1

    def run(self) -> list[_Descent]:
        """Descend every lane to the end; results in start order."""
        done = []
        while len(self):
            done += self.step()
        return sorted(done, key=lambda d: d.start)

    def step(self) -> list[_Descent]:
        """Advance every lane one iteration; return the lanes that finished."""
        if self._pending:
            self._admit()
        done = []
        # Oldest first, so no lane has run more iterations than the first.
        if self.starts and self._clock - self._joined[0] >= self.max_iter:
            done += self._retire([i for i, j in enumerate(self._joined)
                                  if self._clock - j >= self.max_iter], converged=False)
            if not self.starts:
                return done
        self._clock += 1
        order = self.fvals.argsort(axis=1, kind="stable")
        v = self.verts = self.verts[self._rows, order]
        self.fvals = self.fvals[self._rows, order]
        # Squared distances to the best vertex, summed as np.linalg.norm
        # sums them; the root of a lane's largest is its diameter.
        e = v[:, 1:] - v[:, :1]
        e *= e
        sq = np.maximum.reduce(np.add.reduce(e, axis=2), axis=1)
        # fmin passes over NaN: has any lane converged?
        if math.sqrt(np.fmin.reduce(sq)) < self.xtol:
            done += self._retire(np.flatnonzero(np.sqrt(sq) < self.xtol).tolist(),
                                 converged=True)
        if self.starts:
            self._advance()
        return done

    def _admit(self) -> None:
        """Evaluate the queued lanes' simplices in one call and append them."""
        dim = self.dim
        starts, verts = zip(*self._pending)
        self._pending = []
        verts = np.stack(verts)
        fvals = self.fn(verts.reshape(-1, dim)).reshape(len(verts), dim + 1)
        self.verts = np.concatenate([self.verts, verts])
        self.fvals = np.concatenate([self.fvals, fvals])
        self.starts += starts
        self._joined += [self._clock] * len(starts)
        self._evals += [dim + 1] * len(starts)
        self._rows = np.arange(len(self.starts))[:, None]

    def _retire(self, lanes: list[int], converged: bool) -> list[_Descent]:
        """Take ``lanes`` (indices, ascending) out of the pool as results."""
        fvals = self.fvals[lanes]
        best = np.argmin(fvals, axis=1)
        done = [
            _Descent(start=self.starts[i], z=v[b], f=float(f[b]),
                     iterations=self._clock - self._joined[i], converged=converged,
                     evals=self._evals[i])
            for i, v, f, b in zip(lanes, self.verts[lanes], fvals, best)
        ]
        out = set(lanes)
        keep = [i for i in range(len(self.starts)) if i not in out]
        self.verts, self.fvals = self.verts[keep], self.fvals[keep]
        self.starts = [self.starts[i] for i in keep]
        self._joined = [self._joined[i] for i in keep]
        self._evals = [self._evals[i] for i in keep]
        self._rows = np.arange(len(keep))[:, None]
        return done

    def _advance(self) -> None:
        """Reflect, then expand, contract or shrink, for every live lane.

        Every point a lane may take this iteration (the reflection, the
        expansion, the outside and the inside contraction) is known before
        any is evaluated, so all four points of every lane go through one
        call of ``fn``; the lanes that shrink make a second. A call costs
        nearly the same at 1 row as at 4 x lanes, so evaluating the points
        a lane does not take is cheaper than a second call. A lane is
        charged only for the points a single-simplex descent evaluates
        (the reflection, at most one other, a shrink's ``dim`` vertices),
        so the rows evaluated exceed the evaluations charged.
        """
        v, f, dim = self.verts, self.fvals, self.dim
        lanes = len(v)
        c = np.add.reduce(v[:, :-1], axis=1)
        c /= dim  # the centroid, as ndarray.mean takes it
        # Rows: every lane's reflection, expansion, outside and inside
        # contraction.
        pts = np.empty((4, lanes, dim))
        np.add(c, _ALONG_WORST * (c - v[:, -1]), out=pts[::3])
        np.add(c, _ALONG_REFLECTION * (pts[0] - c), out=pts[1:3])
        pts = pts.reshape(-1, dim)
        fc = self.fn(pts).tolist()
        rows, fnew, shrink, evals = [], [], [], self._evals
        spent = self.spent
        for i, fl in enumerate(f.tolist()):
            fr = fc[i]
            if fr < fl[0]:  # try the expansion; keep the better point
                fe = fc[lanes + i]
                r, fx = (lanes + i, fe) if fe < fr else (i, fr)
                charge = 2
            elif fr < fl[-2]:  # take the reflection
                r, fx, charge = i, fr, 1
            else:  # contract towards the better of reflection and worst
                r, fbase = (3 * lanes + i, fl[-1]) if fr >= fl[-1] else (2 * lanes + i, fr)
                fx, charge = fc[r], 2
                if not fx < fbase:  # shrink, over the contraction written below
                    shrink.append(i)
                    charge += dim
            rows.append(r)
            fnew.append(fx)
            evals[i] += charge
            spent += charge
        self.spent = spent
        if shrink:  # towards the best vertex, from the worst before it is written
            s = v[shrink]
            s[:, 1:] = s[:, :1] + _SHRINK * (s[:, 1:] - s[:, :1])
        v[:, -1] = pts.take(rows, axis=0)
        f[:, -1] = fnew
        if shrink:
            v[shrink] = s
            f[shrink, 1:] = self.fn(s[:, 1:].reshape(-1, dim)).reshape(-1, dim)


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
    """Multi-start simplex descent on an entry's slack at R = 1.

    Runs ``starts`` independent descents from seeded random simplex points;
    when none converges the start count doubles, up to MAX_STARTS starts
    in all. Each descent stops at a simplex diameter below DESCENT_XTOL or
    after DESCENT_MAX_ITER iterations. Deterministic given the seed,
    independent of any parallelism. ``starts`` outside [1, MAX_STARTS]
    raises DomainViolation.
    """
    if not 1 <= starts <= MAX_STARTS:
        raise DomainViolation(f"starts must be in [1, {MAX_STARTS}], got {starts}")
    entry, kind, alpha, k = _case(entry_or_id, n, alpha, k, kind, margin)
    fn = _objective(entry, kind, n, alpha, k, margin)
    sigma = _TOTAL / n

    best_z, best_f = None, float("inf")
    total_iters = 0
    any_converged = False
    used = 0
    batch = starts
    while used < MAX_STARTS:
        batch = min(batch, MAX_STARTS - used)
        lanes = _Lanes(fn, n - 1, DESCENT_XTOL, DESCENT_MAX_ITER)
        for idx in range(used, used + batch):
            lanes.add(idx, _start_point(seed, idx, n, margin))
        # Overflowing slacks are refused below, not warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            descents = lanes.run()
        for d in descents:
            total_iters += d.iterations
            any_converged = any_converged or d.converged
            if math.isfinite(d.f) and d.f < best_f:
                best_f, best_z = d.f, d.z
        used += batch
        if any_converged:
            break
        batch *= 2  # adaptive doubling on total non-convergence
    if best_z is None:
        # Every start is feasible, so no finite end means overflowing sides.
        raise catalog._overflow(entry, kind, n, alpha, k)
    theta = _angles_from_free(best_z[None, :], n, margin)[0]
    angles = AngleVector(values=tuple(float(v) for v in theta), total=_TOTAL)
    return SearchResult(
        entry_id=entry.id,
        best_angles=angles,
        best_slack=best_f,
        iterations=total_iters,
        starts=used,
        converged=any_converged,
        distance_to_regular=float(np.max(np.abs(theta - sigma))),
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

    Runs simplex descents until the objective-evaluation budget is spent,
    :func:`_falsify_lanes` starts at a time, with the stopping rule of
    :func:`minimize_slack` and angles DEFAULT_MARGIN inside the domain.
    Starts are settled in start order as if run one after another: start
    i counts only if the starts before it spent less than the budget, and
    the first certified counterexample in start order wins, so the verdict
    does not depend on the lane count.
    Any candidate with slack below -1e-8 * scale is re-evaluated in
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
    fn = _objective(entry, kind, n, alpha, k, DEFAULT_MARGIN)
    upper = GEOMETRIC_BOUND - DEFAULT_MARGIN
    lanes = _Lanes(fn, n - 1, DESCENT_XTOL, DESCENT_MAX_ITER)
    width = _falsify_lanes(budget_evals)
    finished: dict[int, _Descent] = {}
    spent = settled = launched = 0
    any_finite = False
    while spent < budget_evals:
        if settled not in finished:
            # Start ``launched`` runs only if the starts before it spend
            # less than the budget; lanes.spent bounds their spend below.
            while len(lanes) < width and lanes.spent < budget_evals:
                lanes.add(launched, _start_point(seed, launched, n, DEFAULT_MARGIN))
                launched += 1
            # A descent that overflows ends at a non-finite slack and is
            # skipped below, not warned about.
            with np.errstate(over="ignore", invalid="ignore"):
                stepped = lanes.step()
            for d in stepped:
                finished[d.start] = d
            continue
        d = finished.pop(settled)
        spent += d.evals
        settled += 1
        if not math.isfinite(d.f):
            continue  # overflowing sides; every start is feasible
        any_finite = True
        theta = _angles_from_free(d.z[None, :], n, DEFAULT_MARGIN)[0]
        if (theta >= upper).any():
            continue  # descent never left the infeasible barrier
        angles = AngleVector(values=tuple(float(v) for v in theta), total=_TOTAL)
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
    if not any_finite:
        raise catalog._overflow(entry, kind, n, alpha, k)
    return None
