"""Extremal search over the angle simplex: minimize slack, scan, falsify.

Three complementary tools around the catalog evaluators:

  * minimize_slack: multi-start derivative-free simplex descent on a
    smooth reparameterization of the constrained angle space, locating the
    slack minimum (zero, at the regular polygon, when the inequality is
    sharp).
  * grid_scan: exhaustive evaluation on an integer-composition lattice of
    the simplex; the brute-force oracle the optimizer is checked against.
  * falsify: budgeted adversarial search for slack below the violation
    threshold, with high-precision re-certification before any
    counterexample is reported.

The reparameterization maps n - 1 free reals z through a softmax with an
anchored last coordinate to positive weights, then to angles
margin + (total - n margin) * w, so iterates always satisfy the sum
constraint and the lower margin; the upper domain bound is enforced by an
infinite objective. Independent starts use seed-derived substreams and the
best result is reduced in start order, so outcomes depend only on the seed.
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
    AngleVector,
    PolygonKind,
    PolygonModel,
    seed_parts,
)

#: grid_scan refuses lattices with more evaluation points than this.
GRID_POINT_CAP = 10_000_000

#: Certified counterexamples need exact slack below -this times the scale.
COUNTEREXAMPLE_RTOL = 1e-8

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

    def describe(self) -> str:
        tail = ("no non-regular equality configuration found within tolerance"
                if self.distance_to_regular < 1e-3 else
                f"minimum located {self.distance_to_regular:.2e} from regular")
        return (f"{self.entry_id}: best slack {self.best_slack:.3e} after "
                f"{self.starts} starts ({tail})")


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


def _entry_kind(entry, kind: PolygonKind | None) -> PolygonKind:
    if kind is not None:
        if not entry.applies_to(kind):
            raise DomainViolation(
                f"entry {entry.id} does not apply to {kind.value} polygons"
            )
        return kind
    if len(entry.kinds) == 1:
        return next(iter(entry.kinds))
    # Dual-kind entry with no kind given: tangential is the wider family.
    return PolygonKind.TANGENTIAL


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
    full = np.append(z, 0.0)
    full = full - full.max()  # softmax overflow guard
    w = np.exp(full)
    w /= w.sum()
    return margin + (_TOTAL - n * margin) * w


def _free_from_angles(theta: np.ndarray, n: int, margin: float) -> np.ndarray:
    w = (theta - margin) / (_TOTAL - n * margin)
    logw = np.log(w)
    return (logw - logw[-1])[:-1]


def _nelder_mead(fn, x0: np.ndarray, xtol: float, max_iter: int):
    """Plain downhill simplex; returns (x, f, iterations, converged, evals).

    Convergence is declared when the simplex diameter (max vertex distance
    to the best vertex) drops below ``xtol``.
    """
    dim = x0.size
    refl, exp_, contr, shrink = 1.0, 2.0, 0.5, 0.5
    verts = [x0.copy()]
    for i in range(dim):
        v = x0.copy()
        v[i] += 0.1 if v[i] == 0.0 else 0.1 * abs(v[i]) + 0.05
        verts.append(v)
    verts = np.asarray(verts)
    fvals = np.asarray([fn(v) for v in verts])
    evals = dim + 1
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
        diameter = float(np.max(np.linalg.norm(verts[1:] - verts[0], axis=1)))
        if diameter < xtol:
            converged = True
            break
        centroid = verts[:-1].mean(axis=0)
        xr = centroid + refl * (centroid - verts[-1])
        fr = fn(xr)
        evals += 1
        if fr < fvals[0]:
            xe = centroid + exp_ * (xr - centroid)
            fe = fn(xe)
            evals += 1
            if fe < fr:
                verts[-1], fvals[-1] = xe, fe
            else:
                verts[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
        else:
            inside = fr >= fvals[-1]
            base = verts[-1] if inside else xr
            fbase = fvals[-1] if inside else fr
            xc = centroid + contr * (base - centroid)
            fc = fn(xc)
            evals += 1
            if fc < fbase:
                verts[-1], fvals[-1] = xc, fc
            else:
                for j in range(1, dim + 1):
                    verts[j] = verts[0] + shrink * (verts[j] - verts[0])
                    fvals[j] = fn(verts[j])
                evals += dim
    best = int(np.argmin(fvals))
    return verts[best], float(fvals[best]), it, converged, evals


def _objective(entry, kind, n, radius, alpha, k, margin):
    upper = GEOMETRIC_BOUND - margin

    def fn(z):
        theta = _angles_from_free(z, n, margin)
        if (theta >= upper).any():
            return float("inf")
        out = catalog.evaluate_batch(entry, kind, radius, theta[None, :], alpha, k)
        return float(out["slack"][0])

    return fn


def minimize_slack(
    entry_or_id,
    n: int,
    radius: float = 1.0,
    alpha: int | None = None,
    k: int | None = None,
    starts: int = 20,
    seed: int = 0,
    kind: PolygonKind | None = None,
    margin: float = DEFAULT_MARGIN,
    xtol: float = 1e-10,
    max_iter: int = 4000,
    max_starts: int = 160,
) -> SearchResult:
    """Multi-start simplex descent on an entry's slack.

    Runs ``starts`` independent descents from seeded random simplex points;
    when none converges the start count doubles, up to ``max_starts``.
    Deterministic given the seed, independent of any parallelism.
    """
    entry = catalog._resolve(entry_or_id)
    kind = _entry_kind(entry, kind)
    alpha, k = entry.params.validate(alpha, k)
    fn = _objective(entry, kind, n, radius, alpha, k, margin)
    sigma = _TOTAL / n

    best_z, best_f = None, float("inf")
    total_iters = 0
    any_converged = False
    used = 0
    batch = max(1, starts)
    while used < max_starts:
        batch = min(batch, max_starts - used)
        for idx in range(used, used + batch):
            rng = np.random.default_rng(seed_parts(seed) + [idx])
            z0 = _free_from_angles(_feasible_start(rng, n, margin), n, margin)
            zb, fb, iters, conv, _ = _nelder_mead(fn, z0, xtol, max_iter)
            total_iters += iters
            any_converged = any_converged or conv
            if fb < best_f:
                best_f, best_z = fb, zb
        used += batch
        if any_converged:
            break
        batch *= 2  # adaptive doubling on total non-convergence
    theta = _angles_from_free(best_z, n, margin)
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
    radius: float = 1.0,
    alpha: int | None = None,
    k: int | None = None,
    resolution: int = 400,
    kind: PolygonKind | None = None,
    margin: float = DEFAULT_MARGIN,
    point_cap: int = GRID_POINT_CAP,
) -> GridScanResult:
    """Exhaustive slack minimum over the simplex lattice.

    The lattice is theta_i = margin + j_i * step with step =
    (pi - n margin) / resolution and sum j_i = resolution, every
    coordinate inside the open domain. Feasible point count is computed
    in closed form first; above ``point_cap`` the scan refuses with
    BudgetExceeded rather than grinding.
    """
    entry = catalog._resolve(entry_or_id)
    kind = _entry_kind(entry, kind)
    alpha, k = entry.params.validate(alpha, k)
    if resolution < n:
        raise DomainViolation(f"resolution {resolution} < n = {n}: empty lattice")
    step, max_steps = _lattice_params(n, resolution, margin)
    count = lattice_point_count(resolution, n, max_steps)
    if count > point_cap:
        raise BudgetExceeded(
            f"lattice has {count:,} points, above the cap of {point_cap:,}"
        )
    if count == 0:
        raise DomainViolation("no feasible lattice point at this resolution")

    lo, hi = 1, max_steps
    best_slack = float("inf")
    best_j: tuple[int, ...] | None = None

    # Vectorize the last two indices; peel the leading ones off recursively.
    j2_axis = np.arange(lo, hi + 1)

    def scan_plane(prefix: list[int], remaining: int):
        nonlocal best_slack, best_j
        ja, jb = np.meshgrid(j2_axis, j2_axis, indexing="ij")
        jc = remaining - ja - jb
        mask = (jc >= lo) & (jc <= hi)
        if not mask.any():
            return
        ja, jb, jc = ja[mask], jb[mask], jc[mask]
        pts = np.empty((ja.size, n))
        for pos, val in enumerate(prefix):
            pts[:, pos] = margin + val * step
        base = len(prefix)
        pts[:, base] = margin + ja * step
        pts[:, base + 1] = margin + jb * step
        pts[:, base + 2] = margin + jc * step
        out = catalog.evaluate_batch(entry, kind, radius, pts, alpha, k)
        i = int(np.argmin(out["slack"]))
        if out["slack"][i] < best_slack:
            best_slack = float(out["slack"][i])
            best_j = tuple(prefix) + (int(ja[i]), int(jb[i]), int(jc[i]))

    def walk(prefix: list[int], remaining: int):
        depth_left = n - len(prefix)
        if depth_left == 3:
            scan_plane(prefix, remaining)
            return
        lo_j = max(lo, remaining - hi * (depth_left - 1))
        hi_j = min(hi, remaining - lo * (depth_left - 1))
        for j in range(lo_j, hi_j + 1):
            walk(prefix + [j], remaining - j)

    if n == 3:
        scan_plane([], resolution)
    else:
        walk([], resolution)

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


def falsify(
    entry_or_id,
    n: int,
    radius: float = 1.0,
    alpha: int | None = None,
    k: int | None = None,
    budget_evals: int = 100_000,
    seed: int = 0,
    kind: PolygonKind | None = None,
    margin: float = DEFAULT_MARGIN,
) -> Counterexample | None:
    """Adversarial search for a certified violation of an entry.

    Runs simplex descents until the objective-evaluation budget is spent.
    Any candidate with slack below -1e-8 * scale is re-evaluated in
    high-precision mode; only an exact negative of the same magnitude is
    returned. None means no counterexample was found within budget, i.e.
    the inequality survived falsification at this budget.
    """
    entry = catalog._resolve(entry_or_id)
    kind = _entry_kind(entry, kind)
    alpha, k = entry.params.validate(alpha, k)
    fn = _objective(entry, kind, n, radius, alpha, k, margin)
    upper = GEOMETRIC_BOUND - margin
    spent = 0
    start = 0
    while spent < budget_evals:
        rng = np.random.default_rng(seed_parts(seed) + [start])
        z0 = _free_from_angles(_feasible_start(rng, n, margin), n, margin)
        zb, fb, _, _, evals = _nelder_mead(fn, z0, 1e-10, 4000)
        spent += evals
        start += 1
        theta = _angles_from_free(zb, n, margin)
        if not math.isfinite(fb) or (theta >= upper).any():
            continue  # descent never left the infeasible barrier
        angles = AngleVector(values=tuple(float(v) for v in theta), total=_TOTAL)
        poly = PolygonModel(kind=kind, radius=radius, angles=angles)
        std = catalog.evaluate(entry, poly, alpha, k)
        if std.slack < -COUNTEREXAMPLE_RTOL * std.scale:
            exact = catalog.evaluate_exact(entry, poly, alpha, k)
            if exact.slack < -COUNTEREXAMPLE_RTOL * exact.scale:
                return Counterexample(
                    entry_id=entry.id, angles=angles,
                    slack=std.slack, slack_exact=exact.slack,
                    scale=exact.scale, alpha=alpha, k=k,
                )
    return None
