"""Work done once per sweep, cell or call, against the paths that repeated it.

certify takes h_P from one dual-number pass of a gap function's value
formula, measure_exact takes cached regular-polygon constants,
determinism_hash serializes once, evaluate_batch no longer builds a term
scale, and the sampler ANDs its column masks. The old paths are kept here
as references, and results must match them bit for bit; the dual h_P,
checked against the hand-derived dF/dP, matches it to rounding. The call
counts the benchmark's tracer reads are checked too.
"""

import dataclasses
import json
import hashlib
import math

import mpmath as mp
import numpy as np
import pytest

from bonnesen import (PolygonKind, PolygonModel, family, highprec, inequality_catalog,
                      list_entries, make_angle_vector, reporting, schur_certifier,
                      sign_flipped, verification)
from bonnesen.errors import RejectionBudgetExceeded
from bonnesen.inequality_catalog import evaluate, evaluate_batch, evaluate_exact
from bonnesen.polygon_core import (_CHUNK, Dual, EvalContext, _check_margin_window,
                                   measure_arrays, sample_simplex_batch)
from bonnesen.schur_certifier import (CERTIFY_MARGIN, NOISE_FLOOR_FACTOR, Classification,
                                      certify, power_gap_function, power_gap_reverse_function)

KINDS = (PolygonKind.TANGENTIAL, PolygonKind.CYCLIC)


# ------------------------------------------------------------------ certify

def _gradient_reference(n, alpha, k):
    """The signed terms of dF/dP of each gap function, derived by hand."""
    a = int(alpha)
    na = float(n) ** a
    if k is None:
        return lambda P, s: (2 * a * P ** (2 * a - 1), -a * (na + 1.0) * s**a * P ** (a - 1))
    kk = int(k)
    return lambda P, s: (2 * a * P ** (2 * a - 1), -a * na * s**a * P ** (a - 1),
                         -kk * a * P ** (kk * a - 1))


def _gap_cases():
    for name in ("tan", "sec", "csc"):
        for n in range(3, 9):
            for alpha in (1, 2, 3):
                yield name, n, alpha, None
                for k in (2, 3):
                    yield name, n, alpha, k


@pytest.mark.parametrize("name", ["tan", "sec", "csc"])
def test_dual_h_P_matches_hand_gradient(name):
    # At k = 2 the reverse gap's first and last terms cancel, so the
    # tolerance is relative to the largest term, not to their sum.
    for fam_name, n, alpha, k in _gap_cases():
        if fam_name != name:
            continue
        fam = family(name)
        F = (power_gap_function(fam, n, alpha) if k is None
             else power_gap_reverse_function(fam, n, alpha, k))
        pts = sample_simplex_batch(n, math.pi, 1e-4, 300, seed=[41, n, alpha, k or 0])
        P = np.asarray(fam.f(pts)).sum(axis=1)
        s = np.asarray(fam.f(pts.mean(axis=1)))
        terms = np.array(_gradient_reference(n, alpha, k)(P, s))
        dual = F.h(Dual(P, 1.0), s).d
        err = np.abs(dual - terms.sum(axis=0))
        assert (err <= 1e-13 * np.abs(terms).max(axis=0)).all(), (name, n, alpha, k)


def _two_partial_reference(fam, n, alpha, k, samples, seed):
    """certify's sample, condition values and scale, with dF/dx_1 and dF/dx_2
    built one at a time from the hand gradient as d_P f'(x_i): the chain
    term through the mean is the same for both and cancels, so it is left out."""
    pts = sample_simplex_batch(n, math.pi, CERTIFY_MARGIN, samples, seed, bound=fam.domain[1])
    P = np.asarray(fam.f(pts)).sum(axis=1)
    s = np.asarray(fam.f(pts.mean(axis=1)))
    d_P = sum(_gradient_reference(n, alpha, k)(P, s))
    d1, d2 = (d_P * fam.f_prime(pts[:, i]) for i in (0, 1))
    diff = pts[:, 0] - pts[:, 1]
    return pts, diff * (d1 - d2), float((np.abs(diff) * np.maximum(np.abs(d1), np.abs(d2))).max())


@pytest.mark.parametrize("name", ["tan", "sec", "csc"])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_certify_matches_two_partial_pass(name, n):
    fam = family(name)
    for alpha in (1, 3):
        for k in (None, 2, 3):
            F = (power_gap_function(fam, n, alpha) if k is None
                 else power_gap_reverse_function(fam, n, alpha, k))
            seed = [43, n, alpha]
            verdict = certify(F, math.pi, 500, seed)
            pts, values, scale = _two_partial_reference(fam, n, alpha, k, 500, seed)
            i = int(np.argmin(values) if k is None else np.argmax(values))
            assert verdict.classification == (Classification.SCHUR_CONVEX if k is None
                                               else Classification.SCHUR_CONCAVE)
            assert verdict.witness == tuple(pts[i]), (alpha, k)
            assert verdict.noise_floor == pytest.approx(NOISE_FLOOR_FACTOR * scale, rel=1e-14)
            assert abs(verdict.worst_value - values[i]) <= 1e-15 * scale, (alpha, k)


def test_one_sample_batch_per_certify(monkeypatch):
    calls = []
    real = schur_certifier.sample_simplex_batch

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(schur_certifier, "sample_simplex_batch", counted)
    rows, mismatches = verification.certification_grid(
        n_set=(3, 4), alpha_set=(1, 2), k_set=(2, 3), samples=200, include_probe=False)
    assert mismatches == 0
    # Per (n, alpha): 2 convex-side families + 2 k x 2 concave-side families.
    assert len(calls) == len(rows) == 2 * 2 * (2 + 2 * 2)


# --------------------------------------------------------------- exact path

def _context_reference(kind, n, R, sum_L, sum_A, tan_pin, sin_pin, cos_pin):
    """The closed form as one function of the sums, rebuilt for every row."""
    r2 = R * R
    if kind == PolygonKind.TANGENTIAL:
        Lstar, Astar = 2 * n * R * tan_pin, n * r2 * tan_pin
    else:
        Lstar, Astar = 2 * n * R * sin_pin, n * r2 * sin_pin * cos_pin
    return EvalContext(n=n, R=R, L=2 * R * sum_L, A=r2 * sum_A, L_hat=sum_L, A_hat=sum_A,
                       Lstar=Lstar, Astar=Astar, Lstar_hat=Lstar / (2 * R),
                       Astar_hat=Astar / r2, dn=n * tan_pin, tan_pin=tan_pin,
                       cos_pin=cos_pin)


def _round_trip(ctx):
    """``ctx`` with L_hat, A_hat, Lstar_hat and Astar_hat divided back out
    of L, A, L* and A*, as the context once derived them."""
    two_R, r2 = 2 * ctx.R, ctx.R * ctx.R
    return dataclasses.replace(ctx, L_hat=ctx.L / two_R, A_hat=ctx.A / r2,
                               Lstar_hat=ctx.Lstar / two_R, Astar_hat=ctx.Astar / r2,
                               memo={})


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("radius", [1.0, 0.3, 2.5])
@pytest.mark.parametrize("ambient_dps", [30, 50, 80])
def test_cached_regular_constants_match_one_closed_form(kind, radius, ambient_dps):
    """The 50-digit constants, built and cached whatever the caller's precision."""
    highprec._regular_part.cache_clear()
    for n in range(3, 13):
        with mp.workdps(ambient_dps):
            parts = [highprec._regular_part(kind, n, radius) for _ in range(2)]
        assert parts[0] is parts[1]
        part = parts[0]
        with mp.workdps(highprec.DPS):
            pin = mp.pi / n
            sums = mp.mpf(n) / 3, mp.mpf(n) / 7
            ref = _context_reference(kind, n, mp.mpf(radius), *sums,
                                     mp.tan(pin), mp.sin(pin), mp.cos(pin))
            assert part.context(*sums) == ref, (kind, n)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_float_regular_part_matches_one_closed_form(kind):
    rng = np.random.default_rng(13)
    for n in range(3, 13):
        pts = rng.dirichlet(np.ones(n), size=9) * math.pi
        terms = np.tan(pts) if kind == PolygonKind.TANGENTIAL else np.sin(pts)
        sum_L = terms.sum(axis=1)
        sum_A = sum_L if kind == PolygonKind.TANGENTIAL else (
            np.sin(pts) * np.cos(pts)).sum(axis=1)
        pin = math.pi / n
        ref = _context_reference(kind, n, 1.7, sum_L, sum_A,
                                 math.tan(pin), math.sin(pin), math.cos(pin))
        got = measure_arrays(kind, 1.7, pts)
        for field in ("R", "Lstar", "Astar", "Lstar_hat", "Astar_hat", "dn", "tan_pin",
                      "cos_pin"):
            assert getattr(got, field) == getattr(ref, field) and \
                type(getattr(got, field)) is type(getattr(ref, field)), (n, field)
        for field in ("L", "A", "L_hat", "A_hat"):
            assert getattr(got, field).tobytes() == getattr(ref, field).tobytes(), (n, field)


def test_context_keeps_its_derived_values_and_memo():
    """L_hat and A_hat are the measured sums themselves, one object when
    tangential; every context has its own memo."""
    pts = np.random.default_rng(5).dirichlet(np.ones(4), size=6) * math.pi
    a, b = (measure_arrays(PolygonKind.CYCLIC, 1.3, pts) for _ in range(2))
    sum_L, sum_A = np.sin(pts).sum(axis=1), (np.sin(pts) * np.cos(pts)).sum(axis=1)
    assert a.L_hat.tobytes() == sum_L.tobytes() and a.A_hat.tobytes() == sum_A.tobytes()
    tan = measure_arrays(PolygonKind.TANGENTIAL, 1.3, pts)
    assert tan.L_hat is tan.A_hat
    assert tan.L_hat.tobytes() == np.tan(pts).sum(axis=1).tobytes()
    a.memo["key"] = 1
    assert b.memo == {} and a.memo is not b.memo


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_normalized_values_are_exact_at_unit_radius(kind):
    """At R = 1, where every sweep and search runs, the kept sums equal
    L/2R and A/R^2 exactly, and so do L*/2R and A*/R^2, on both backends."""
    pts = sample_simplex_batch(5, math.pi, 1e-3, 8, seed=17)
    contexts = [measure_arrays(kind, 1.0, pts)]
    with mp.workdps(highprec.DPS):
        contexts += [highprec.measure_exact(kind, 1.0, row) for row in pts]
        for c in contexts:
            assert np.all(c.L_hat == c.L / (2 * c.R)) and np.all(c.A_hat == c.A / c.R**2)
            assert c.Lstar_hat == c.Lstar / (2 * c.R) and c.Astar_hat == c.Astar / c.R**2


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("radius", [0.3, 2.5, 7.0])
def test_off_unit_radius_slacks_match_the_round_trip(kind, radius):
    """Away from R = 1 the kept sums skip two roundings of L/2R and A/R^2.
    Each float slack moves by at most 1e-14 x max(1, scale), and no
    50-digit record moves at all."""
    for n in (3, 4, 6):
        pts = sample_simplex_batch(n, math.pi, 1e-3, 4, seed=[19, n])
        ctx = measure_arrays(kind, radius, pts)
        old = _round_trip(ctx)
        for entry in list_entries(kind):
            for a, k in entry.params.combos((1, 2, 3), (2, 3)):
                new = evaluate_batch(entry, kind, radius, ctx, a, k)["slack"]
                ref = evaluate_batch(entry, kind, radius, old, a, k)["slack"]
                scale = inequality_catalog._evaluate_sides(entry, ctx, a, k, np.maximum)[3]
                assert np.all(np.abs(new - ref) <= 1e-14 * scale), (entry.id, n, a, k)
        exact = highprec.measure_exact(kind, radius, pts[0])
        with mp.workdps(highprec.DPS):
            old_exact = _round_trip(exact)
            for entry in list_entries(kind):
                for a, k in entry.params.combos((1, 2, 3), (2, 3)):
                    got, ref = ([float(v) for v in inequality_catalog._evaluate_sides(
                        entry, c, a, k, max)] for c in (exact, old_exact))
                    assert got == ref, (entry.id, n, a, k)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_evaluate_is_one_pass_of_evaluate_batch(kind, radius):
    """evaluate's lhs, rhs and slack are evaluate_batch's, and its scale is
    max(1, every |factor * term|), for every entry and (alpha, k)."""
    for n in (3, 5):
        theta = sample_simplex_batch(n, math.pi, 1e-3, 1, seed=[23, n])[0]
        poly = PolygonModel(kind, radius, make_angle_vector(theta, math.pi))
        for entry in list_entries(kind):
            for a, k in entry.params.combos((1, 2, 3), (2, 3)):
                rec = evaluate(entry, poly, a, k)
                out = evaluate_batch(entry, kind, radius, theta[None, :], a, k)
                assert (rec.lhs, rec.rhs, rec.slack) == tuple(
                    out[key][0] for key in ("lhs", "rhs", "slack")), (entry.id, a, k)
                ctx = measure_arrays(kind, radius, theta[None, :])
                terms = [abs(factor * t) for factor, side in entry.sides(ctx, a, k)
                         for t in side]
                assert rec.scale == max([1.0, *(float(np.ravel(t)[0]) for t in terms)]), \
                    (entry.id, a, k)


def test_one_exact_evaluation_per_flagged_sample(monkeypatch):
    counts = {"evaluate_exact": 0, "measure_exact": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(inequality_catalog, "evaluate_exact")
    counting(highprec, "measure_exact")
    fault = sign_flipped("BASIC")
    samples = 37
    rows, confirmed = verification.verify_sweep(
        kinds=(PolygonKind.CYCLIC,), n_set=(5,), samples=samples, seed=[7, 1],
        extra_entries=(fault,), high_precision=True)
    # Every sample violates the flipped entry and only those are adjudicated.
    assert confirmed == samples
    assert counts == {"evaluate_exact": samples, "measure_exact": samples}
    assert [r["violations"] for r in rows if r["entry_id"] == fault.id] == [samples]


# ------------------------------------------------------------------- scales

def _scale_reference(entry, ctx, alpha, k, maximum):
    """max(1, every |factor * term|), as evaluate_batch used to build it."""
    scale = 1
    for factor, terms in entry.sides(ctx, alpha, k):
        if factor != 1:
            terms = [factor * t for t in terms]
        for t in terms:
            scale = maximum(scale, abs(t))
    return scale


def _random_polygons(kind, seed, count=4):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = 3 + i % 6
        while True:
            theta = rng.dirichlet(np.ones(n)) * math.pi
            if (theta > 1e-3).all() and (theta < math.pi / 2 - 1e-3).all():
                break
        theta *= math.pi / math.fsum(theta)
        yield PolygonModel(kind, 0.7 + 0.4 * i, make_angle_vector(theta, math.pi))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_record_scale_matches_term_reference(kind):
    for poly in _random_polygons(kind, [53, len(kind.value)]):
        for entry in list_entries(kind):
            for a, k in entry.params.combos((1, 2, 3), (2, 3)):
                ctx = measure_arrays(kind, poly.radius, poly.angles.to_array()[None, :])
                ref = _scale_reference(entry, ctx, a, k, np.maximum)
                assert evaluate(entry, poly, a, k).scale == float(ref[0]), entry.id
                with mp.workdps(highprec.DPS):
                    exact_ctx = highprec.measure_exact(kind, poly.radius, poly.angles.values)
                    exact_ref = _scale_reference(entry, exact_ctx, a, k, max)
                assert evaluate_exact(entry, poly, a, k).scale == float(exact_ref), entry.id


def test_evaluate_batch_returns_no_scale():
    pts = sample_simplex_batch(4, math.pi, 1e-6, 20, seed=2)
    out = evaluate_batch("T41A", PolygonKind.TANGENTIAL, 1.0, pts, 2, 3)
    assert set(out) == {"lhs", "rhs", "slack", "alpha", "k"}


# ------------------------------------------------------------------- report

def _hash_reference(doc):
    """determinism_hash through a JSON round trip of the whole document."""
    stripped = json.loads(json.dumps(doc))
    prov = stripped.get("provenance", {})
    prov.pop("timestamp", None)
    prov.pop("determinism_hash", None)
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _reports(monkeypatch):
    monkeypatch.setattr(verification, "GRID_N_MAX", 0)
    verify_rows, _ = verification.verify_sweep(n_set=(3, 4), samples=50)
    certify_rows, _ = verification.certification_grid(n_set=(3,), alpha_set=(1,),
                                                      k_set=(2,), samples=100)
    search_rows, _ = verification.search_sweep(n_set=(3,), starts=2,
                                               kinds=(PolygonKind.CYCLIC,))
    config = {"n": (3, 4), "kinds": ("tangential", "cyclic"), "margin": 1e-6,
              "nested": {"pair": (1, 2.5), "none": None}}
    for command, rows in (("verify", verify_rows), ("certify", certify_rows),
                          ("search", search_rows)):
        rows = rows + [{"entry_id": "TUPLES", "angles": (0.5, 1.0, math.pi - 1.5)}]
        yield reporting.ReportDocument(command=command, config=config, results=rows,
                                       seed=[7, 1], samples=50, precision_mode="standard")


def test_determinism_hash_matches_round_trip(monkeypatch):
    for doc in _reports(monkeypatch):
        as_dict = doc.to_dict()
        assert doc.determinism_hash == _hash_reference(as_dict)
        assert reporting.determinism_hash(as_dict) == _hash_reference(as_dict)
        # The loaded file hashes the same, and hashing leaves the input as it was.
        loaded = json.loads(reporting.render_json(doc))
        assert reporting.determinism_hash(loaded) == doc.determinism_hash
        assert loaded["provenance"]["determinism_hash"] == doc.determinism_hash
        assert "timestamp" in loaded["provenance"]


def test_determinism_hash_without_provenance_matches_round_trip():
    doc = {"command": "verify", "results": [{"x": (1, 2)}]}
    assert reporting.determinism_hash(doc) == _hash_reference(doc)


# ------------------------------------------------------------------ sampler

def _sample_reference(n, total, margin, count, seed, bound=math.pi / 2):
    """sample_simplex_batch with the row check as one .all(axis=1)."""
    _check_margin_window(n, total, margin, bound)
    rng = np.random.default_rng(seed)
    rows, have, drawn = [], 0, 0
    budget = max(10_000, 64 * count)
    while have < count:
        if drawn >= budget:
            raise RejectionBudgetExceeded("budget")
        size = min(max(_CHUNK, count - have), 65536)
        cand = rng.dirichlet(np.ones(n), size=size) * total
        ok = ((cand > margin) & (cand < bound - margin)).all(axis=1)
        good = cand[ok]
        if good.shape[0]:
            rows.append(good[: count - have])
            have += min(good.shape[0], count - have)
        drawn += size
    return np.vstack(rows)


@pytest.mark.parametrize("n", range(3, 13))
def test_sampler_matches_all_axis_reference(n):
    for margin, count, seed in ((1e-6, 700, [n, 1]), (1e-4, 129, [n, 2]), (0.05, 300, 9)):
        got = sample_simplex_batch(n, math.pi, margin, count, seed)
        assert got.tobytes() == _sample_reference(n, math.pi, margin, count, seed).tobytes()
    # The certifier's draw: total 1, the domain's own upper bound.
    got = sample_simplex_batch(n, 1.0, 1e-4, 200, [n, 3], bound=1.0)
    assert got.tobytes() == _sample_reference(n, 1.0, 1e-4, 200, [n, 3], bound=1.0).tobytes()
