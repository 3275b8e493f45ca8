import math
import random

import numpy as np
import pytest

from conftest import shipped
from ogm import cover
from ogm import geodesics as geo
from ogm import hexagon as hx
from ogm.cover import CoverPoint


@pytest.fixture(scope="module")
def cx():
    return cover.explore(shipped("flip_n3"), t0_depth=2, hex_depth=4)


@pytest.fixture(scope="module")
def cx_small():
    return cover.explore(shipped("flip_n3"), t0_depth=1, hex_depth=2)


def sample_in_block(cx, bid, i, spread=4.0):
    r = cover.make_stream(42, i)
    addr = cx.model.hexagons[int(r.integers(0, len(cx.model.hexagons)))]
    local = cx.model.sample_local(r)
    fib = tuple(float(v) for v in r.uniform(-spread, spread, cx.spec.n - 2))
    return CoverPoint(bid, hx.H0Point(addr, local), fib)


def test_block_distance_pythagoras(cx):
    base = hx.H0Point((), hx.CENTER)
    p = CoverPoint((), base, (0.0,))
    q = CoverPoint((), base, (4.0,))
    assert geo.block_distance(cx, p, q) == 4.0
    # base delta 3, fiber delta 4 -> 5
    comp = cx.model.components[0]
    b1 = cx.model.boundary_point(comp, 0.0)
    b2 = cx.model.boundary_point(comp, 3.0)
    p = CoverPoint((), b1, (1.0,))
    q = CoverPoint((), b2, (5.0,))
    assert abs(geo.block_distance(cx, p, q) - 5.0) < 1e-9
    r = CoverPoint((), b2, (1.0,))
    assert abs(geo.block_distance(cx, p, r) - 3.0) < 1e-9


def test_block_distance_requires_same_block(cx):
    p = CoverPoint((), hx.H0Point((), hx.CENTER), (0.0,))
    q = CoverPoint((1,), hx.H0Point((), hx.CENTER), (0.0,))
    with pytest.raises(cover.CoverError):
        geo.block_distance(cx, p, q)


def test_same_block_distance(cx):
    x = sample_in_block(cx, (), 0)
    y = sample_in_block(cx, (), 1)
    res = geo.distance(cx, x, y)
    assert res.distance == geo.block_distance(cx, x, y)
    assert res.config.walls == []


def test_same_point_zero(cx):
    x = sample_in_block(cx, (3,), 2)
    assert geo.distance(cx, x, x).distance == 0.0


def test_same_wall_flat(cx):
    w = cx.walls[((), 0)]
    p = cx.point_from_wall_coords(w, (0.5, -1.0), child_side=False)
    q = cx.point_from_wall_coords(w, (2.5, 2.0), child_side=True)
    res = geo.distance(cx, p, q, tol=1e-9)
    expect = math.hypot(2.5 - 0.5, 2.0 - (-1.0))
    assert abs(res.distance - expect) < 1e-9


def test_one_wall_vs_oracle(cx):
    for i in range(8):
        x = sample_in_block(cx, (), 2 * i)
        y = sample_in_block(cx, (int(2 + 3 * i) % 48,), 2 * i + 1)
        d = geo.distance(cx, x, y, tol=1e-7).distance
        bf = geo.brute_force_distance(cx, x, y, grid_step=0.002)
        assert abs(d - bf) / bf < 1e-3


def test_two_wall_vs_oracle(cx):
    for i in range(4):
        x = sample_in_block(cx, (int(5 + 7 * i) % 48,), 100 + 2 * i)
        y = sample_in_block(cx, (int(11 + 9 * i) % 48,), 101 + 2 * i)
        d = geo.distance(cx, x, y, tol=1e-7).distance
        bf = geo.brute_force_distance(cx, x, y, grid_step=0.002)
        assert abs(d - bf) / bf < 1e-3


def test_oracle_rejects_long_chains(cx):
    x = sample_in_block(cx, (0, 5), 300)
    y = sample_in_block(cx, (1, 6), 301)
    with pytest.raises(cover.CoverError):
        geo.brute_force_distance(cx, x, y)


def perpendicular_push(cx, comp, t_foot, depth):
    """Point at perpendicular distance `depth` inward from the boundary line."""
    b = cx.model.boundary_point(comp, t_foot)
    n = hx.SIDE_NORMALS[comp.side]
    arc = depth * hx.S
    local = tuple(
        b.local[i] * math.cosh(arc) - n[i] * math.sinh(arc) for i in range(3)
    )
    return hx.H0Point(b.hex, local)


def test_symmetric_instance_crosses_fixed_locus(cx):
    # both endpoints perpendicular pushes at the same foot and depth with
    # equal fibers: the one-wall objective is then invariant under the flip
    # (t, f) -> (f, t), so the unique optimal crossing sits on the diagonal
    w = cx.walls[((), 2)]
    comp_p = cx.wall_component(w, False)
    comp_c = cx.wall_component(w, True)
    t_foot, f0, q_in = 0.7, 1.9, 0.8
    x = CoverPoint((), perpendicular_push(cx, comp_p, t_foot, q_in), (f0,))
    y = CoverPoint(w.child, perpendicular_push(cx, comp_c, t_foot, q_in), (f0,))
    res = geo.distance(cx, x, y, tol=1e-9)
    (coords,) = res.config.coords
    assert abs(coords[0] - coords[1]) < 1e-7
    bf = geo.brute_force_distance(cx, x, y, grid_step=0.001)
    assert abs(res.distance - bf) / bf < 1e-3


def test_oracle_refinement_monotone(cx):
    for i in range(20):
        x = sample_in_block(cx, (), 400 + 2 * i)
        y = sample_in_block(cx, (int(7 * i + 1) % 48,), 401 + 2 * i)
        coarse = geo.brute_force_distance(cx, x, y, levels=1, npts=17)
        fine = geo.brute_force_distance(cx, x, y, levels=1, npts=33)
        assert fine <= coarse + 1e-12


def test_metric_axioms_sampled(cx_small):
    tol = 1e-5
    pts = []
    nblocks = len(cx_small.block_list)
    for i in range(30):
        bid = cx_small.block_list[(5 * i) % nblocks]
        pts.append(sample_in_block(cx_small, bid, 500 + i, spread=2.0))
    import itertools
    import random as _random

    rng = _random.Random(0)
    triples = [tuple(rng.sample(range(len(pts)), 3)) for _ in range(1000)]
    cache = {}

    def d(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            cache[key] = geo.distance(cx_small, pts[key[0]], pts[key[1]], tol=tol).distance
        return cache[key]

    for i, j, k in triples:
        assert d(i, k) <= d(i, j) + d(j, k) + 1e-9
    # symmetry on a subsample (cache stores one orientation)
    for i, j in itertools.islice(itertools.combinations(range(12), 2), 30):
        fwd = geo.distance(cx_small, pts[i], pts[j], tol=tol).distance
        rev = geo.distance(cx_small, pts[j], pts[i], tol=tol).distance
        assert abs(fwd - rev) <= 1e-9 * max(1.0, fwd)


def objective(segs, z, derivs=False):
    """The batched kernel on a batch of one chain at z: its length, and with
    `derivs` also its gradient and dense Hessian as lists."""
    stack = geo._Stack([(segs, [(-math.inf, math.inf)] * len(z), list(z))])
    with np.errstate(divide="ignore", invalid="ignore"):
        f, grad, hess = stack.evaluate(np.array(z, dtype=float), np.ones(1, bool), derivs)
    if not derivs:
        return float(f[0])
    return float(f[0]), grad.tolist(), hess.reshape(len(z), len(z)).tolist()


def test_convexity_probe(cx):
    import random as _random

    rng = _random.Random(3)
    x = sample_in_block(cx, (4,), 600)
    y = sample_in_block(cx, (9,), 601)
    x, y = cx.normalize(x), cx.normalize(y)
    chain = geo._chain_vars(cx, x, y)
    segs = geo._segments(cx.model, chain, x, y)
    k = 2 * len(chain)  # flip_n3: (arclength, fiber) per wall
    for _ in range(40):
        z1 = [rng.uniform(-2, 2) for _ in range(k)]
        z2 = [rng.uniform(-2, 2) for _ in range(k)]
        mid = [(a + b) / 2 for a, b in zip(z1, z2)]
        f1, f2, fm = (objective(segs, z) for z in (z1, z2, mid))
        assert fm <= 0.5 * (f1 + f2) + 1e-9


def test_chain_restriction_monotone(cx):
    x = sample_in_block(cx, (3, 8), 700)
    y = sample_in_block(cx, (6,), 701)
    res = geo.distance(cx, x, y, tol=1e-8)
    last_wall = res.config.walls[-1]
    upward = res.config.upward[-1]
    zk = cx.point_from_wall_coords(
        last_wall, tuple(res.config.coords[-1]), child_side=upward
    )
    partial = geo.distance(cx, x, zk, tol=1e-8)
    assert partial.distance <= res.distance + 1e-9


def test_solver_errors(cx):
    outside = CoverPoint((0, 1, 2), hx.H0Point((), hx.CENTER), (0.0,))
    x = sample_in_block(cx, (), 800)
    with pytest.raises(cover.CoverError):
        geo.distance(cx, x, outside)
    y = sample_in_block(cx, (2, 11), 801)
    with pytest.raises(geo.ConvergenceError):
        geo.distance(cx, x, y, max_sweeps=1)


def chain_pairs(cx, lengths, seed):
    """The first sampled pair of each wanted chain length."""
    found = {}
    for i in range(10_000):
        r = cover.make_stream(seed, i)
        x, y = cx.sample_point(r), cx.sample_point(r)
        k = len(cx.wall_chain(cx.normalize(x).block, cx.normalize(y).block))
        if k in lengths:
            found.setdefault(k, (x, y))
        if len(found) == len(lengths):
            break
    assert sorted(found) == sorted(lengths)
    return [found[k] for k in sorted(found)]


def boundary_point_chain_length(cx, x, y, coords):
    """Chain length from h0_distance of boundary points: an oracle that
    shares nothing with the solver's closed-form line geometry."""
    x, y = cx.normalize(x), cx.normalize(y)
    out = 0.0
    base_prev, fib_prev = x.base, x.fiber
    for wv, c in zip(geo._chain_vars(cx, x, y), coords):
        sides = []
        for comp, pos in ((wv.comp_from, wv.from_pos), (wv.comp_to, wv.to_pos)):
            vals = [0.0] * len(c)
            for j, p in enumerate(pos):
                vals[p] = c[j]
            sides.append((cx.model.boundary_point(comp, vals[0]), tuple(vals[1:])))
        (base_f, fib_f), (base_t, fib_t) = sides
        h = hx.h0_distance(base_prev, base_f)
        out += math.sqrt(h * h + sum((a - b) ** 2 for a, b in zip(fib_prev, fib_f)))
        base_prev, fib_prev = base_t, fib_t
    h = hx.h0_distance(base_prev, y.base)
    return out + math.sqrt(h * h + sum((a - b) ** 2 for a, b in zip(fib_prev, y.fiber)))


@pytest.mark.parametrize("spec", ["flip_n3", "two_vertex_n5"])
def test_chain_derivatives_match_central_differences(spec):
    cx = cover.explore(shipped(spec), t0_depth=2, hex_depth=4)
    rng = random.Random(5)
    h = 3e-4
    for x, y in chain_pairs(cx, {1, 2, 3, 4}, 31):
        x, y = cx.normalize(x), cx.normalize(y)
        chain = geo._chain_vars(cx, x, y)
        z = [
            rng.uniform(lo + 1.0, hi - 1.0) if math.isfinite(lo) else rng.uniform(-2.0, 2.0)
            for wv in chain
            for lo, hi in wv.bounds
        ]
        segs = geo._segments(cx.model, chain, x, y)
        _, grad, hess = objective(segs, z, True)

        def f(*moves):
            zz = list(z)
            for v, dv in moves:
                zz[v] += dv
            return objective(segs, zz)

        for a in range(len(z)):
            assert abs((f((a, h)) - f((a, -h))) / (2 * h) - grad[a]) < 1e-6
            for b in range(a, len(z)):
                fd = (
                    f((a, h), (b, h)) - f((a, h), (b, -h))
                    - f((a, -h), (b, h)) + f((a, -h), (b, -h))
                ) / (4 * h * h)
                assert abs(fd - hess[a][b]) < 1e-6
                assert hess[a][b] == hess[b][a]


@pytest.mark.parametrize(
    "spec,t0_depth,hex_depth,longest",
    [("flip_n3", 3, 6, 6), ("cycle_n4", 2, 4, 4), ("two_vertex_n5", 2, 4, 4)],
)
def test_solver_optimal_against_boundary_point_oracle(spec, t0_depth, hex_depth, longest):
    # the chain length is convex, so no improving step of a free coordinate
    # means the returned crossings are a global minimum
    cx = cover.explore(
        shipped(spec), t0_depth=t0_depth, hex_depth=hex_depth, wall_comp_depth=0
    )
    for x, y in chain_pairs(cx, set(range(1, longest + 1)), 41):
        res = geo.distance(cx, x, y)
        coords = res.config.coords
        value = boundary_point_chain_length(cx, x, y, coords)
        assert abs(value - res.distance) < 1e-9
        chain = geo._chain_vars(cx, cx.normalize(x), cx.normalize(y))
        for i, wv in enumerate(chain):
            for j, (lo, hi) in enumerate(wv.bounds):
                for step in (1e-4, -1e-4):
                    if not lo <= coords[i][j] + step <= hi:
                        continue
                    moved = [list(c) for c in coords]
                    moved[i][j] += step
                    assert boundary_point_chain_length(cx, x, y, moved) >= value - 1e-9


def test_truncation_flag(cx):
    # endpoints whose relevant fiber exceeds the wall window force the
    # optimal crossing against the truncation edge
    x = sample_in_block(cx, (), 900)
    x = CoverPoint(x.block, x.base, (20.0,))
    y = sample_in_block(cx, (7,), 901)
    y = CoverPoint(y.block, y.base, (20.0,))
    res = geo.distance(cx, x, y)
    assert res.truncated


# ---------------------------------------------------------------------------
# the Levenberg-shifted Newton step against the list solver it replaced


def _reference_cholesky(a, floor):
    n = len(a)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = a[i][j] - sum(low[i][k] * low[j][k] for k in range(j))
            if i > j:
                low[i][j] = v / low[j][j]
            elif v > floor:
                low[i][i] = math.sqrt(v)
            else:
                return None
    return low


def _reference_newton_step(hess, grad, free):
    """(step, factorisations tried) of the dense list Cholesky step."""
    n = len(free)
    scale = max([1.0] + [hess[v][v] for v in free])
    shift = 0.0
    for tries in range(1, 41):
        low = _reference_cholesky(
            [[hess[a][b] + (shift if a == b else 0.0) for b in free] for a in free],
            1e-13 * scale,
        )
        if low is not None:
            break
        shift = max(10.0 * shift, 1e-10 * scale)
    else:
        raise geo.ConvergenceError("no Levenberg shift makes the Hessian positive definite")
    y = []
    for i in range(n):
        y.append((-grad[free[i]] - sum(low[i][k] * y[k] for k in range(i))) / low[i][i])
    step = [0.0] * len(grad)
    for i in reversed(range(n)):
        tail = sum(low[k][i] * step[free[k]] for k in range(i + 1, n))
        step[free[i]] = (y[i] - tail) / low[i][i]
    return step, tries


def _levenberg_cases():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(7, 7))
    spd = m @ m.T + 0.1 * np.eye(7)
    sym = m + m.T  # eigenvalues of both signs
    yield "spd", spd.tolist(), rng.normal(size=7).tolist(), [0, 1, 2, 3, 4, 5, 6], False
    yield "spd-subset", spd.tolist(), rng.normal(size=7).tolist(), [0, 2, 3, 6], False
    yield "indefinite", sym.tolist(), rng.normal(size=7).tolist(), [1, 2, 4, 5, 6], True
    # factorable, but the last pivot 1.1e-15 is not above 1e-13 * scale
    yield "near-singular", [[1.0, 1.0], [1.0, 1.0 + 1e-15]], [1.0, -2.0], [0, 1], True
    yield "no-free", spd.tolist(), rng.normal(size=7).tolist(), [], False


def batched_step(hess, grad, free):
    """The batched kernel's step for one pair, scattered over every
    coordinate, and whether its Levenberg loop failed."""
    steps, failed = geo._newton_steps(
        np.array(hess)[np.ix_(free, free)][None], np.array(grad)[free][None]
    )
    step = np.zeros(len(grad))
    step[free] = steps[0]
    return step.tolist(), failed == [0]


@pytest.mark.parametrize(
    "hess, grad, free, shifted", [pytest.param(*case[1:], id=case[0]) for case in _levenberg_cases()]
)
def test_newton_step_matches_list_solver(monkeypatch, hess, grad, free, shifted):
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(a)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    step, failed = batched_step(hess, grad, free)
    ref, tries = _reference_newton_step(hess, grad, free)
    assert not failed
    assert (tries > 1) == shifted
    # one stacked factorisation, then, when it fails, the pair's own
    # Levenberg loop, the same shift schedule try for try
    assert len(calls) == (1 + tries if shifted else 1)
    size = max([abs(v) for v in ref], default=0.0)
    assert all(abs(a - b) <= 1e-12 * size for a, b in zip(step, ref))
    assert all(step[v] == 0.0 for v in range(len(grad)) if v not in free)


def test_newton_step_nan_hessian_raises(monkeypatch):
    # numpy returns a NaN factor without raising; the pivot test rejects it,
    # for that pair of a stack alone
    hess = [[math.nan, 0.0], [0.0, 1.0]]
    with pytest.raises(geo.ConvergenceError, match="no Levenberg shift"):
        _reference_newton_step(hess, [1.0, 1.0], [0, 1])
    good = [[2.0, 0.5], [0.5, 1.0]]
    steps, failed = geo._newton_steps(np.array([good, hess, good]), np.ones((3, 2)))
    assert failed == [1]
    alone, _ = geo._newton_steps(np.array([good]), np.ones((1, 2)))
    assert np.array_equal(steps[[0, 2]], np.concatenate((alone, alone)))
    # a solve whose Hessian is NaN raises the same error
    evaluate = geo._Stack.evaluate

    def nan_hessian(self, z, pairs, derivs):
        f, grad, hess = evaluate(self, z, pairs, derivs)
        return f, grad, None if hess is None else hess * math.nan

    monkeypatch.setattr(geo._Stack, "evaluate", nan_hessian)
    cx = cover.explore(shipped("flip_n3"), t0_depth=2, hex_depth=4)
    x, y = sample_in_block(cx, (), 950), sample_in_block(cx, (5,), 951)
    with pytest.raises(geo.ConvergenceError, match="no Levenberg shift"):
        geo.distance(cx, x, y)


def test_stacked_newton_steps_match_each_alone():
    # LAPACK factors and solves each matrix of a stack as it would alone;
    # failed factorisations fall back per pair
    rng = np.random.default_rng(17)
    mats, grads = [], []
    for k in range(6):
        m = rng.normal(size=(5, 5))
        mats.append(m + m.T if k % 3 == 1 else m @ m.T + 0.1 * np.eye(5))
        grads.append(rng.normal(size=5))
    steps, failed = geo._newton_steps(np.array(mats), np.array(grads))
    assert failed == []
    for h, g, step in zip(mats, grads, steps):
        alone, _ = geo._newton_steps(h[None], g[None])
        assert np.array_equal(step, alone[0])
