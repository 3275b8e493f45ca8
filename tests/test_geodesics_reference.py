"""The scalar projected-Newton solver, kept as the slow reference for the
batched one.

`ref_distance` solves one pair at a time in pure Python lists, with one
numpy Cholesky per Newton step: the solver `geodesics.distances` replaced.
The batched solver must agree with it bit for bit (==, never approx) in
distance, iterations, residual, crossings and TRUNCATED flags, whatever
the batch, the order of its pairs or the worker count, because reports
quote the distances exactly.
"""

import json
import math
import random

import numpy as np
import pytest

from conftest import shipped
from ogm import cover
from ogm import geodesics as geo
from ogm import hexagon as hx
from ogm import verify as vf


def ref_chain_objective(segs, z: list[float], derivs: bool):
    """(length, gradient, Hessian) of the chain at z, the last two dense
    lists, or None unless `derivs`.  A segment has length
    L = sqrt(g(c) + F), g(c) = (acosh(c) / S)^2, F = |fiber difference|^2;
    one of length 0 adds no derivative terms."""
    s, kappa = hx.S, hx.KAPPA
    total, grad, hess = 0.0, None, None
    if derivs:
        grad, hess = [0.0] * len(z), [[0.0] * len(z) for _ in z]
    for m, va, vb, fibers in segs:

        def bil(p, q):
            return p[0] * (m[0] * q[0] + m[1] * q[1]) + p[1] * (m[2] * q[0] + m[3] * q[1])

        ea = (math.cosh(s * z[va]), math.sinh(s * z[va])) if va >= 0 else (1.0, 0.0)
        eb = (math.cosh(s * z[vb]), math.sinh(s * z[vb])) if vb >= 0 else (1.0, 0.0)
        c = bil(ea, eb)
        deltas = [(z[ia] if ia >= 0 else ka) - (z[ib] if ib >= 0 else kb)
                  for ia, ka, ib, kb in fibers]
        u = math.acosh(c) if c > 1.0 else 0.0
        length = math.sqrt(u * u / kappa + sum(d * d for d in deltas))
        total += length
        if not derivs or length == 0.0:
            continue
        if u < 1e-4:  # series: g' -> 2/S^2, g'' -> -2/(3 S^2) at c = 1
            g1 = 2.0 / kappa * (1.0 - u * u / 6.0)
            g2 = 2.0 / kappa * (-1.0 / 3.0 + 2.0 * u * u / 15.0)
        else:
            sh = math.sinh(u)
            g1 = 2.0 * u / (kappa * sh)
            g2 = 2.0 * (sh - u * c) / (kappa * sh ** 3)
        # Hessian (g'' dc dc' + g' d2c + d2F) / 2L - r r' / L, r = grad L
        inv = 0.5 / length
        fa, fb = ea[::-1], eb[::-1]
        dc = [(v, s * bil(p, q)) for v, p, q in ((va, fa, eb), (vb, ea, fb)) if v >= 0]
        for v, dv in dc:
            for w, dw in dc:
                d2c = kappa * (c if v == w else bil(fa, fb))
                hess[v][w] += (g2 * (dv * dw) + g1 * d2c) * inv
        r = [(v, g1 * dv * inv) for v, dv in dc]
        for (ia, _, ib, _), d in zip(fibers, deltas):
            ends = [(v, sign) for v, sign in ((ia, 1.0), (ib, -1.0)) if v >= 0]
            for v, sv in ends:
                r.append((v, 2.0 * sv * d * inv))
                for w, sw in ends:
                    hess[v][w] += 2.0 * sv * sw * inv
        for v, rv in r:
            grad[v] += rv
            for w, rw in r:
                hess[v][w] -= rv * rw / length
    return total, grad, hess


def ref_newton_step(hess, grad: list[float], free: list[int]) -> list[float]:
    """Solve H_ff d = -g_f on the free coordinates with the Cholesky factor
    of H_ff + shift*I, under the Levenberg rule of the module docstring.
    numpy returns a NaN factor without raising; the pivot test rejects it."""
    h = np.array(hess)[np.ix_(free, free)]
    scale = h.diagonal().max(initial=1.0)
    shift = 0.0
    for _ in range(40):
        try:
            low = np.linalg.cholesky(h + shift * np.eye(len(free)))
            if (low.diagonal() ** 2 > 1e-13 * scale).all():
                break
        except np.linalg.LinAlgError:
            pass
        shift = max(10.0 * shift, 1e-10 * scale)
    else:
        raise geo.ConvergenceError("no Levenberg shift makes the Hessian positive definite")
    step = np.zeros(len(grad))
    step[free] = np.linalg.solve(low.T, np.linalg.solve(low, -np.array(grad)[free]))
    return step.tolist()


def ref_projected_newton(segs, z, bounds, tol: float, max_sweeps: int):
    """Minimize the chain length over the box `bounds`; returns
    (z, value, iterations, projected-gradient infinity norm)."""
    f, grad, hess = ref_chain_objective(segs, z, True)
    for sweeps in range(1, max_sweeps + 1):
        # active: at a window edge with the gradient pointing out
        free = [v for v, (lo, hi) in enumerate(bounds)
                if not ((z[v] <= lo and grad[v] > 0.0) or (z[v] >= hi and grad[v] < 0.0))]
        step = ref_newton_step(hess, grad, free)
        decrement = -sum(g * d for g, d in zip(grad, step))
        if decrement <= 1e-10 * max(1.0, f):
            break
        alpha = 1.0
        for _ in range(60):
            trial = [min(max(zv + alpha * dv, lo), hi)
                     for zv, dv, (lo, hi) in zip(z, step, bounds)]
            ft = ref_chain_objective(segs, trial, False)[0]
            slope = sum(g * (t - zv) for g, t, zv in zip(grad, trial, z))
            if ft <= f + 1e-4 * min(slope, 0.0):
                break
            alpha *= 0.5
        else:
            if decrement <= tol * max(1.0, f):
                break
            raise geo.ConvergenceError(f"line search stalled at Newton decrement {decrement}")
        z = trial
        f, grad, hess = ref_chain_objective(segs, z, True)
    else:
        raise geo.ConvergenceError(
            f"no convergence in {max_sweeps} Newton iterations (last value {f})"
        )
    residual = max(abs(min(g, 0.0) if zv <= lo else max(g, 0.0) if zv >= hi else g)
                   for g, zv, (lo, hi) in zip(grad, z, bounds))
    return z, f, sweeps, residual


def ref_distance(
    cplx,
    x,
    y,
    tol: float = 1e-6,
    max_sweeps: int = 10_000,
):
    """Distance d(x, y) with the optimal chain configuration, one pair alone.

    `max_sweeps` caps the Newton iterations; a stalled line search is
    accepted when the Newton decrement is at most tol * max(1, d).  Flags
    TRUNCATED when any optimal crossing comes within 1 of the
    hexagon-truncation edge of its wall window.
    """
    for p in (x, y):
        if not cplx.contains(p):
            raise cover.CoverError("point outside the explored complex")
    x, y = cplx.normalize(x), cplx.normalize(y)
    chain = geo._chain_vars(cplx, x, y)
    cfg = geo.ChainConfiguration([wv.wall for wv in chain], [wv.upward for wv in chain], [])
    if not chain:
        return geo.GeodesicResult(geo.block_distance(cplx, x, y), cfg, False, 0, 0.0)

    bounds = [b for wv in chain for b in wv.bounds]
    z, value, sweeps, residual = ref_projected_newton(
        geo._segments(cplx.model, chain, x, y),
        [c for wv in chain for c in wv.coords],
        bounds, tol, max_sweeps,
    )
    truncated = any(v - lo < 1.0 or hi - v < 1.0 for v, (lo, hi) in zip(z, bounds))
    n1 = cplx.spec.n - 1
    cfg.coords = [z[i : i + n1] for i in range(0, len(z), n1)]
    return geo.GeodesicResult(value, cfg, truncated, sweeps, residual)


def key(res):
    """Everything a solve returns, floats as their exact hex form."""
    return (
        res.distance.hex(), res.sweeps, res.residual.hex(), res.truncated,
        [[c.hex() for c in coords] for coords in res.config.coords],
        [w.child for w in res.config.walls], res.config.upward,
    )


def sampled_pairs(cx, seed, count):
    return [
        (cx.sample_point(cover.make_stream(seed, 2 * i)),
         cx.sample_point(cover.make_stream(seed, 2 * i + 1)))
        for i in range(count)
    ]


# (spec, configuration, pairs): the acceptance configuration, the
# benchmark's deep complex (chains of 1-6 walls), and chains of 20-26 walls
CONFIGS = {
    "flip_n3-acceptance": ("flip_n3", dict(t0_depth=2, hex_depth=4, wall_comp_depth=0), 32),
    "cycle_n4-acceptance": ("cycle_n4", dict(t0_depth=2, hex_depth=4, wall_comp_depth=0), 32),
    "two_vertex_n5-acceptance": (
        "two_vertex_n5", dict(t0_depth=2, hex_depth=4, wall_comp_depth=0), 32),
    "flip_n3-deep": ("flip_n3", dict(t0_depth=3, hex_depth=6, wall_comp_depth=0), 24),
    "two_vertex_n5-t0-14": ("two_vertex_n5", dict(t0_depth=14, hex_depth=4, wall_comp_depth=0), 8),
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def case(request):
    name, cfg, count = CONFIGS[request.param]
    cx = cover.explore(shipped(name), fiber_range=3.0, **cfg)
    pairs = sampled_pairs(cx, 2026, count)
    return cx, pairs, [key(ref_distance(cx, x, y)) for x, y in pairs]


def test_cases_cover_their_chain_lengths(case):
    cx, pairs, _ = case
    walls = {len(cx.wall_chain(cx.normalize(x).block, cx.normalize(y).block)) for x, y in pairs}
    if cx.t0_depth == 14:
        assert min(walls) >= 20
    else:
        assert {0, 1, 2} <= walls


@pytest.mark.parametrize("batch", [1, 7, 16])
def test_batches_match_scalar_solver(case, batch):
    cx, pairs, ref = case
    got = []
    for k in range(0, len(pairs), batch):
        got += [key(res) for res in geo.distances(cx, pairs[k : k + batch])]
    assert got == ref


def test_permuted_batch_matches_scalar_solver(case):
    cx, pairs, ref = case
    order = list(range(len(pairs)))
    random.Random(3).shuffle(order)
    got = geo.distances(cx, [pairs[i] for i in order])
    assert [key(res) for res in got] == [ref[i] for i in order]


def test_objective_and_steps_match_scalar_kernel(case):
    # the stacked objective and the grouped Newton steps, bit for bit, at
    # random points of every chain of the case, all in one stack
    cx, pairs, _ = case
    rng = random.Random(11)
    problems = []
    for x, y in pairs:
        x, y = cx.normalize(x), cx.normalize(y)
        chain = geo._chain_vars(cx, x, y)
        if not chain:
            continue
        bounds = [b for wv in chain for b in wv.bounds]
        z = [rng.uniform(lo, hi) if math.isfinite(lo) else rng.uniform(-3.0, 3.0)
             for lo, hi in bounds]
        problems.append((geo._segments(cx.model, chain, x, y), bounds, z))
    stack = geo._Stack(problems)
    with np.errstate(divide="ignore", invalid="ignore"):
        f, grad, hess = stack.evaluate(stack.z0, np.ones(stack.n, bool), True)
    for p, (segs, _, z) in enumerate(problems):
        rf, rgrad, rhess = ref_chain_objective(segs, z, True)
        a, b = stack.off[p], stack.off[p] + stack.nv[p]
        assert f[p] == rf
        assert grad[a:b].tolist() == rgrad
        block = hess[stack.hrow[a] : stack.hrow[a] + len(z) ** 2]
        assert block.reshape(len(z), len(z)).tolist() == rhess
        free = [v for v in range(len(z)) if v % 2 == 0 or p % 3]
        steps, failed = geo._newton_steps(
            np.array(rhess)[np.ix_(free, free)][None], np.array(rgrad)[free][None])
        assert failed == []
        assert steps[0].tolist() == [ref_newton_step(rhess, rgrad, free)[v] for v in free]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_records_match_scalar_solver_for_any_worker_count(workers):
    spec = shipped("two_vertex_n5")
    cfg = vf.RunConfig(t0_depth=2, hex_depth=4, samples=40, seed=2026, fiber_range=3.0,
                       wall_comp_depth=0, workers=workers)
    records = vf.collect_records(spec, cfg)
    cx = cover.explore(spec, 2, 4, fiber_range=3.0, wall_comp_depth=0)
    for rec, (x, y) in zip(records, sampled_pairs(cx, cfg.seed, cfg.samples)):
        res = ref_distance(cx, x, y, tol=cfg.tol)
        assert rec["truncated"] == res.truncated
        if not res.truncated:
            assert rec["d"] == res.distance


def test_pullback_batch_matches_scalar_solver(monkeypatch):
    # the covering report solves all of the pullback's binding pairs in one
    # batch, each bit for bit the scalar solve of the pair alone
    spec = shipped("two_vertex_n5")
    cfg = vf.RunConfig(t0_depth=2, hex_depth=4, samples=120, seed=5, fiber_range=3.0,
                       wall_comp_depth=0, workers=1)
    batches = []
    distances = geo.distances

    def recording(cplx, pairs, tol):
        batches.append(len(pairs))
        return distances(cplx, pairs, tol=tol)

    monkeypatch.setattr(geo, "distances", recording)
    batched = vf.covering_report(spec, cfg, 8.0, 20)
    assert batches == [batched["pullback"]["checked_pairs"]]
    monkeypatch.setattr(
        geo, "distances",
        lambda cplx, pairs, tol: [ref_distance(cplx, x, y, tol=tol) for x, y in pairs])
    scalar = vf.covering_report(spec, cfg, 8.0, 20)
    assert json.dumps(scalar, sort_keys=True) == json.dumps(batched, sort_keys=True)


def test_zero_length_segment_adds_no_derivative_terms():
    # a hand-made chain of one wall whose first segment has length 0 at z:
    # c = cosh(S z0) = 1 and the fiber difference 0.5 - z1 = 0
    segs = [
        ((1.0, 0.0, 0.0, 1.0), -1, 0, [(-1, 0.5, 1, 0.0)]),
        ((1.0, 0.0, 0.0, 1.0), 0, -1, [(1, 0.0, -1, 2.0)]),
    ]
    for z in ([0.0, 0.5], [0.3, 0.5], [0.0, -1.0]):
        stack = geo._Stack([(segs, [(-1.0, 2.0), (-math.inf, math.inf)], z)])
        with np.errstate(divide="ignore", invalid="ignore"):
            f, grad, hess = stack.evaluate(np.array(z), np.ones(1, bool), True)
        rf, rgrad, rhess = ref_chain_objective(segs, z, True)
        assert (f[0], grad.tolist(), hess.reshape(2, 2).tolist()) == (rf, rgrad, rhess)
