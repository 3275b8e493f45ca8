import collections
import functools
import math
import random
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from conftest import ball_ids, child_wall_point, counting, embed_points, point_rows, shipped
from ogm import cover
from ogm import coverings as cvg
from ogm import geodesics as geo
from ogm import hexagon as hx
from ogm import trees as tr
from ogm import verify as vf
from ogm.cover import CoverPoint


@pytest.fixture(scope="module")
def cx():
    return cover.explore(shipped("flip_n3"), t0_depth=2, hex_depth=4)


@pytest.fixture(scope="module")
def ts(cx):
    return tr.TreeSystem(cx)


def sample(cx, i):
    return cx.sample_point(cover.make_stream(99, i))


def test_class_labels_flip_parity(cx, ts):
    assert ts.class_labels == (0, 1)
    for bid in ball_ids(cx):
        assert cx.block(bid).class_label == len(bid) % 2


def test_phi0_interior_and_wall(cx, ts):
    x = CoverPoint((3,), hx.H0Point((1, 2), hx.CENTER), (0.5,))
    assert ts.phi(x).t0 == (3,)
    w = cx.parent_wall((3,))
    wp = child_wall_point(cx, w, (0.5, 1.0))
    assert ts.phi(wp).t0 == ()  # lower rank wins on walls


def test_phi0_lipschitz_sampled(cx, ts):
    for i in range(60):
        x, y = sample(cx, 2 * i), sample(cx, 2 * i + 1)
        res = geo.distance(cx, x, y, tol=1e-5)
        if res.truncated:
            continue
        t0d = ts.t0_distance(ts.phi(x).t0, ts.phi(y).t0)
        assert t0d <= res.distance + 1.0 + 1e-6


def test_phi_c_clamped_retraction(cx, ts):
    x = CoverPoint((3,), hx.H0Point((1, 2), hx.CENTER), (0.5,))
    p = ts.phi_c(1, x)
    assert p.tree == hx.tbin_vertex((1, 2))


def test_phi_c_reads_fiber_coordinate(cx, ts):
    # for the flip spec at odd depth, the line classes read the only fiber
    x = CoverPoint((3,), hx.H0Point((), hx.CENTER), (2.25,))
    p = ts.phi_c(0, x)  # block (3,) has label 1, so class 0 is a line there
    assert p.value == 2.25
    # brute-force the coordinate index: sigma maps class label to coordinate
    sigma = cx.block((3,)).sigma
    assert sigma(0) == 1


def test_phi_c_well_defined_on_walls(cx, ts):
    w = cx.parent_wall((5,))
    for lab in ts.class_labels:
        for i in range(20):
            r = cover.make_stream(17, i)
            coords = (float(r.uniform(-2, 3)), float(r.uniform(-4, 4)))
            p1 = cx.point_from_wall_coords(w, coords)
            p2 = child_wall_point(cx, w, coords)
            a, b = ts.phi_c(lab, p1), ts.phi_c(lab, p2)
            assert ts.tc_distance(lab, a, b) < 1e-9


def test_wall_push_back_exact(cx):
    comp = cx.model.components[0]
    for t in (-1.3, 0.0, 0.61, 2.5):
        x = hx.line_point_at_lambda(comp, hx.EDGE * t)
        lam = tr.gate_on_line(comp, x)[0] * hx.EDGE
        assert hx.tbin_distance(hx.line_point_at_lambda(comp, lam), x) < 1e-12
        assert abs(lam - hx.EDGE * t) < 1e-12


def test_tc_same_piece_exact(ts):
    a = tr.TcPoint(owner=(3,), tree=hx.tbin_vertex((0, 1)))
    b = tr.TcPoint(owner=(3,), tree=hx.tbin_edge_point((2,), (2, 0), 0.4))
    # collapsed quotient metric: one dual-tree edge costs one grid unit
    assert ts.tc_distance(1, a, b) == hx.tbin_distance(a.tree, b.tree) / hx.EDGE
    assert ts.tc_distance(1, a, a) == 0.0
    la = tr.TcPoint(owner=(), value=1.5)
    lb = tr.TcPoint(owner=(), value=-0.25)
    assert ts.tc_distance(1, la, lb) == 1.75


def test_tc_line_identity_through_non_c_blocks(ts):
    # both owners outside the class with no c-piece between them never occur
    # along a T0 geodesic here (classes alternate), but equal owners and the
    # same-line case are exact; crossing a c-piece costs at least the bridge
    la = tr.TcPoint(owner=(), value=1.25)
    lb = tr.TcPoint(owner=(3, 7), value=-2.0)
    d = ts.tc_distance(1, la, lb)
    assert d >= abs(1.25 - (-2.0)) - 1e-9


def test_tc_one_wall_vs_brute(cx, ts):
    lab = 1
    w = cx.parent_wall((3,))
    comp_in = cx.wall_component(w, child_side=True)
    rng = random.Random(5)
    step = 1 / 256
    for _ in range(12):
        v0 = rng.uniform(-2, 2)
        btree = hx.tbin_edge_point((1,), (1, 2), rng.uniform(0, hx.EDGE))
        a = tr.TcPoint(owner=(), value=v0)
        b = tr.TcPoint(owner=(3,), tree=btree)
        val = ts.tc_distance(lab, a, b)
        tgrid = np.arange(-6, 6, step)
        brute = min(
            abs(t - v0)
            + hx.tbin_distance(hx.line_point_at_lambda(comp_in, hx.EDGE * t), btree) / hx.EDGE
            for t in tgrid
        )
        assert abs(val - brute) <= step


def test_tc_symmetry_and_triangle(cx, ts):
    pts = [ts.phi_c(1, sample(cx, 300 + i)) for i in range(14)]
    rng = random.Random(1)
    cache = {}

    def d(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            cache[key] = ts.tc_distance(1, pts[key[0]], pts[key[1]])
        return cache[key]

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            fwd = ts.tc_distance(1, pts[i], pts[j])
            rev = ts.tc_distance(1, pts[j], pts[i])
            assert fwd == rev
    for _ in range(200):
        i, j, k = rng.sample(range(len(pts)), 3)
        assert d(i, k) <= d(i, j) + d(j, k) + 1e-9


def test_tc_four_point_condition(cx, ts):
    pts = []
    for lab in ts.class_labels:
        pts.extend(ts.phi_c(lab, sample(cx, 400 + i)) for i in range(10))
        rng = random.Random(7)
        cache = {}

        def d(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                cache[key] = ts.tc_distance(lab, pts[key[0]], pts[key[1]])
            return cache[key]

        for _ in range(120):
            a, b, c, e = rng.sample(range(len(pts)), 4)
            lhs = d(a, b) + d(c, e)
            rhs = max(d(a, c) + d(b, e), d(a, e) + d(b, c))
            assert lhs <= rhs + 1e-9
        pts.clear()


def test_grid_transport_equality():
    cx3 = cover.explore(shipped("flip_n3"), t0_depth=3, hex_depth=2)
    ts3 = tr.TreeSystem(cx3)
    u, mid, v = (3,), (3, 7), (3, 7, 9)
    assert [cx3.block(b).class_label for b in (u, mid, v)] == [1, 0, 1]
    w1 = cx3.parent_wall((3, 7))
    w2 = cx3.parent_wall((3, 7, 9))
    comp_u = cx3.wall_component(w1, child_side=False)
    comp_v = cx3.wall_component(w2, child_side=True)
    rng = random.Random(0)
    lo_u, hi_u = cx3.model.arclength_window(comp_u)
    for _ in range(100):
        t1 = rng.uniform(max(lo_u, -1.0), min(hi_u, 1.9))
        t2 = rng.uniform(max(lo_u, -1.0), min(hi_u, 1.9))
        pu1, pu2 = (hx.line_point_at_lambda(comp_u, hx.EDGE * t) for t in (t1, t2))
        pv1, pv2 = (hx.line_point_at_lambda(comp_v, hx.EDGE * t) for t in (t1, t2))
        du = hx.tbin_distance(pu1, pu2)
        dv = hx.tbin_distance(pv1, pv2)
        assert abs(du - dv) < 1e-6


def test_phi_product_zero_and_fiber_shift(cx, ts):
    x = sample(cx, 500)
    px = ts.phi(x)
    assert ts.product_distance(px, px) == 0.0
    # fiber shift: only the class reading that coordinate moves
    shift = 1.375
    y = CoverPoint(x.block, x.base, (x.fiber[0] + shift,))
    py = ts.phi(y)
    own = cx.block(x.block).class_label
    other = 1 - own
    assert ts.tc_distance(own, px.coord(own), py.coord(own)) == 0.0
    assert abs(ts.tc_distance(other, px.coord(other), py.coord(other)) - shift) < 1e-12
    assert abs(ts.product_distance(px, py) - shift) < 1e-12


def test_product_upper_bound_sampled(cx, ts):
    bound = 2 * hx.DELTA * (cx.spec.n - 1) + 1
    eps = 10 * 1e-6
    for i in range(40):
        x, y = sample(cx, 600 + 2 * i), sample(cx, 601 + 2 * i)
        res = geo.distance(cx, x, y, tol=1e-6)
        if res.truncated:
            continue
        e = ts.product_distance(ts.phi(x), ts.phi(y))
        assert e <= bound * res.distance + 1 + eps


def test_phi_c_lipschitz_sampled(cx, ts):
    eps = 10 * 1e-6
    for i in range(40):
        x, y = sample(cx, 700 + 2 * i), sample(cx, 701 + 2 * i)
        res = geo.distance(cx, x, y, tol=1e-6)
        if res.truncated:
            continue
        for lab in ts.class_labels:
            dtc = ts.tc_distance(lab, ts.phi_c(lab, x), ts.phi_c(lab, y))
            assert dtc <= 2 * hx.DELTA * res.distance + eps


def test_unexplored_owner_rejected(ts):
    with pytest.raises(cover.CoverError):
        ts.tc_distance(1, tr.TcPoint(owner=(0, 1, 2), value=0.0), tr.TcPoint(owner=(), value=0.0))
    base = hx.H0Point((), hx.CENTER)
    with pytest.raises(cover.CoverError):
        embed_points(ts, [CoverPoint((), base, (0.0,)), CoverPoint((0, 1, 2), base, (0.0,))])
    with pytest.raises(cover.CoverError):
        ts.tc_matrix(2, embed_points(ts, [CoverPoint((), base, (0.0,))]))


def pairwise_tc(ts, lab, xs):
    """tc_distance of the phi_c images of xs, one pair at a time."""
    pts = [ts.phi_c(lab, x) for x in xs]
    mat = np.zeros((len(pts), len(pts)))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            mat[i, j] = mat[j, i] = ts.tc_distance(lab, pts[i], pts[j])
    return mat


def mixed_points(cx, seed):
    """Sampled points over six blocks; on each of them a point retracting
    to a vertex and one retracting to an edge point, both at fibers 1.25;
    and repeats."""
    rng = random.Random(seed)
    blocks = rng.sample(ball_ids(cx), 6)
    fiber = (1.25,) * (cx.spec.n - 2)
    near_side = hx.embed_tree_point(hx.tbin_edge_point((2,), (2, 0), 1.0))
    xs = [CoverPoint(rng.choice(blocks), x.base, x.fiber)
          for x in cx.sample_points(seed, range(36))]
    for bid in blocks:
        xs += [CoverPoint(bid, hx.H0Point((0, 1), hx.CENTER), fiber),
               CoverPoint(bid, near_side, fiber)]
    xs += [xs[3], xs[10], xs[-1]]
    rng.shuffle(xs)
    return xs


@pytest.mark.parametrize(
    "name, wall_comp_depth",
    [("flip_n3", None), ("flip_n3", 0), ("cycle_n4", 0), ("two_vertex_n5", 0)],
)
def test_tc_matrix_equals_pairwise_tc_distance(name, wall_comp_depth):
    cx = cover.explore(
        shipped(name), t0_depth=2, hex_depth=4, fiber_range=3.0,
        wall_comp_depth=wall_comp_depth,
    )
    ts = tr.TreeSystem(cx)
    xs = mixed_points(cx, seed=31)
    emb = embed_points(ts, xs)
    kinds = set()
    for lab in ts.class_labels:
        pts = [ts.phi_c(lab, x) for x in xs]
        kinds |= {
            "fiber" if p.tree is None else "vertex" if p.tree.child is None else "edge"
            for p in pts
        }
        assert len(set(pts)) < len(pts)  # repeated points
        assert len({p.owner for p in pts}) < len(set(pts))  # same-owner pairs
        mat = ts.tc_matrix(lab, emb)
        assert mat.shape == (len(pts), len(pts))
        assert (mat == mat.T).all()
        assert (np.diag(mat) == 0.0).all()
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert mat[i, j] == ts.tc_distance(lab, pts[i], pts[j]), (lab, i, j)
        assert ts.tc_matrix(lab, embed_points(ts, [])).shape == (0, 0)
        assert ts.tc_matrix(lab, embed_points(ts, xs[:1])).tolist() == [[0.0]]
    assert kinds == {"fiber", "vertex", "edge"}


def interleaved_points(cx, blocks, rounds, seed):
    """One sampled point per block in each round, so that every pair of
    blocks holds points in both index orders."""
    xs = cx.sample_points(seed, range(rounds * len(blocks)))
    return [CoverPoint(blocks[k % len(blocks)], x.base, x.fiber) for k, x in enumerate(xs)]


def relation_kind(rel):
    if rel == tr.IDENTITY:
        return "identity"
    return "bridge" if rel.lo == rel.hi else "overlap"


def test_tc_matrix_interleaved_block_pairs():
    relation_kinds, fiber_only = set(), 0
    for name, wall_comp_depth in (("flip_n3", None), ("cycle_n4", 0), ("two_vertex_n5", 0)):
        cx = cover.explore(
            shipped(name), t0_depth=2, hex_depth=4, fiber_range=3.0,
            wall_comp_depth=wall_comp_depth,
        )
        ts = tr.TreeSystem(cx)
        blocks = random.Random(name).sample(ball_ids(cx), 8)
        xs = interleaved_points(cx, blocks, rounds=8, seed=17)
        owners = [x.block for x in xs]
        assert len(xs) >= 60 and len(set(owners)) >= 6
        emb = embed_points(ts, xs)
        perm = np.random.default_rng(len(name)).permutation(len(xs))
        permuted = embed_points(ts, [xs[k] for k in perm])
        for lab in ts.class_labels:
            pts = [ts.phi_c(lab, x) for x in xs]
            for a in set(owners):
                for o in set(owners) - {a}:
                    ia = [i for i, q in enumerate(owners) if q == a]
                    io = [j for j, q in enumerate(owners) if q == o]
                    assert min(ia) < max(io) and max(ia) > min(io)  # both orders
                    route = ts.route(lab, a, o)
                    relation_kinds.add(relation_kind(route.relation))
                    fiber_only += route.exit is None and route.line is None
            mat = ts.tc_matrix(lab, emb)
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    d = ts.tc_distance(lab, pts[i], pts[j])
                    assert type(d) is float and mat[i, j] == mat[j, i] == d, (name, lab, i, j)
                    assert ts.tc_distance(lab, pts[j], pts[i]) == d, (name, lab, j, i)
            # permuting the input permutes the matrix exactly
            assert (ts.tc_matrix(lab, permuted) == mat[np.ix_(perm, perm)]).all()
    assert relation_kinds == {"bridge", "overlap", "identity"}
    assert fiber_only > 0


def family_points(cx, seed, size=12, grand=4):
    """Sampled points on a family of blocks, 1 to `size` points each: the
    root, two children, and `grand` children of those, so that some pairs
    of blocks are an ancestor and its descendant."""
    rng = random.Random(seed)
    kids = rng.sample([b for b in ball_ids(cx) if len(b) == 1], 2)
    grandkids = [b for b in ball_ids(cx) if len(b) == 2 and b[:1] in kids]
    owners = [bid for bid in [(), *kids, *rng.sample(grandkids, grand)]
              for _ in range(rng.randint(1, size))]
    xs = [CoverPoint(bid, x.base, x.fiber)
          for bid, x in zip(owners, cx.sample_points(seed, range(len(owners))))]
    rng.shuffle(xs)
    return xs


def split_rows(emb):
    """Row blocks of tc_matrix that start inside an owner, and those that
    hold the rows of several owners."""
    blocks = tr._row_blocks(len(emb.blk), len(emb.blocks))
    inside = sum(emb.blk[lo - 1] == emb.blk[lo] for lo, _ in blocks[1:])
    return inside, sum(emb.blk[lo] != emb.blk[hi - 1] for lo, hi in blocks)


@pytest.mark.parametrize("rows", [1, 7])
def test_tc_matrix_row_blocks_match_pairwise(monkeypatch, rows):
    # the fill goes in row blocks of _BLOCK_ENTRIES // _row_width rows; n is
    # no multiple of 7, so blocks split owners and the last one is short
    toward_descendant = inside = 0
    for name, wall_comp_depth in (("flip_n3", None), ("cycle_n4", 1), ("two_vertex_n5", 0)):
        cx = cover.explore(
            shipped(name), t0_depth=2, hex_depth=4, fiber_range=3.0,
            wall_comp_depth=wall_comp_depth,
        )
        ts = tr.TreeSystem(cx)
        xs = family_points(cx, seed=len(name))
        if len(xs) % 7 == 0:
            xs.pop()
        n, emb = len(xs), embed_points(ts, xs)
        width = tr._row_width(n, len(emb.blocks))
        monkeypatch.setattr(cvg, "_BLOCK_ENTRIES", rows * width + width - 1)
        assert len(tr._row_blocks(n, len(emb.blocks))) == -(-n // rows)
        inside += split_rows(emb)[0]
        for lab in ts.class_labels:
            toward_descendant += sum(
                cx.block(a).class_label == lab and o[:len(a)] == a
                for a in emb.blocks for o in emb.blocks if o > a
            )
            mat = ts.tc_matrix(lab, emb)
            pts = [ts.phi_c(lab, x) for x in xs]
            for i in range(n):
                assert mat[i, i] == 0.0
                for j in range(i + 1, n):
                    d = ts.tc_distance(lab, pts[i], pts[j])
                    assert mat[i, j] == mat[j, i] == d, (name, lab, i, j)
    assert toward_descendant > 0 and inside > 0


@pytest.mark.parametrize(
    "name, t0_depth, wall_comp_depth",
    [("two_vertex_n5", 5, 0), ("two_vertex_n5", 5, None), ("flip_n3", 4, None)],
)
@pytest.mark.parametrize("rows", [3, 13])
def test_chunked_fill_matches_pairwise(monkeypatch, name, t0_depth, wall_comp_depth, rows):
    # deep owners with several points each, some below others; row blocks
    # (and so the pair tables of their owners) split owners and hold
    # several owners
    cx = cover.explore(
        shipped(name), t0_depth=t0_depth, hex_depth=4, fiber_range=3.0,
        wall_comp_depth=wall_comp_depth,
    )
    ts = tr.TreeSystem(cx)
    rng = random.Random(t0_depth)
    deep = [cx.block_at(rng.randrange(cx.block_count)) for _ in range(10)]
    family = sorted({b[:k] for b in deep for k in (len(b) // 2, len(b))})
    owners = [b for b in family for _ in range(rng.randint(1, 6))]
    xs = [CoverPoint(b, x.base, x.fiber)
          for b, x in zip(owners, cx.sample_points(5, range(len(owners))))]
    rng.shuffle(xs)
    emb = embed_points(ts, xs)
    width = tr._row_width(len(xs), len(emb.blocks))
    monkeypatch.setattr(cvg, "_BLOCK_ENTRIES", rows * width)
    inside, several = split_rows(emb)
    assert inside > 0 and several > 0
    assert any(o[:len(a)] == a for a in emb.blocks for o in emb.blocks if o > a)
    for lab in ts.class_labels:
        assert np.array_equal(ts.tc_matrix(lab, emb), pairwise_tc(ts, lab, xs)), lab


def test_embed_and_tc_matrix_memory_stay_near_the_result():
    # about 1500 points on a deep ball, nearly one owner per point, at hex
    # depth 8 (about 1000 distinct T_bin anchor vertices): a temporary of
    # n x n or owners x owners floats in tc_matrix would pass 1.5 n^2 * 8,
    # and one over all pairs of anchor vertices in embed would pass half of
    # it; row blocks hold several rows, within an eighth of the result
    cfg = vf.RunConfig(t0_depth=12, hex_depth=8, fiber_range=3.0, wall_comp_depth=0)
    cx, ts = vf._prepare(shipped("two_vertex_n5"), cfg)
    rows = cx.sample_rows(0, range(1500))
    n = len(rows.blocks)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        emb = ts.embed(rows)
        embed_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        mat = ts.tc_matrix(1, emb)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(emb.blocks) > 0.9 * n
    assert len(tr._row_blocks(n, len(emb.blocks))) <= n // 4  # the budget grows with n^2
    assert mat.nbytes == n * n * 8
    assert embed_peak < 0.5 * mat.nbytes, embed_peak / mat.nbytes
    assert peak < 1.5 * mat.nbytes, peak / mat.nbytes


def reference_embed(ts, xs):
    """TreeSystem.embed as a loop over points: normalize, retract and
    gate_on_line per point, and tbin_distance per same-owner pair."""
    cplx = ts.cplx
    pts = [cplx.normalize(x) for x in xs]
    n = len(pts)
    blocks = sorted({p.block for p in pts})
    index = {b: x for x, b in enumerate(blocks)}
    owner = np.array([index[p.block] for p in pts], dtype=np.intp)
    order = np.argsort(owner, kind="stable")
    pts, blk = [pts[i] for i in order], owner[order]
    start = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=len(blocks)))])
    width = 1 + max(map(len, blocks), default=0)
    ids = np.full((len(blocks), width), -1, dtype=np.int64)
    prefix_class = np.full((len(blocks), width), -1)
    meet = np.zeros(len(blocks), dtype=np.intp)
    for x, b in enumerate(blocks):
        meet[x] = hx.lcp_len(blocks[x - 1], b) if x else 0
        ids[x, :len(b)] = b
        prefix_class[x, :len(b) + 1] = [cplx.block(b[:j]).class_label for j in range(len(b) + 1)]
    # over all owner pairs a < o meeting at depth k: the child toward o of
    # an a above o, and the turn from a's child to o's child in the meet
    w = len(cplx.model.components)
    kids, codes = set(), set()
    for x, a in enumerate(blocks):
        for o in blocks[x + 1:]:
            k = hx.lcp_len(a, o)
            if k == len(a):
                kids.add((x, o[k]))
            else:
                codes.add(a[k] * w + o[k])
    dim = cplx.spec.n
    sigma = np.array([cplx.block(b).sigma.images for b in blocks],
                     dtype=np.intp).reshape(len(blocks), dim - 1) - 1
    trees = [hx.retract(p.base) for p in pts]
    comps = cplx.model.components
    kid_comps = sorted({c for _, c in kids})
    gates = np.zeros((n, 1 + len(kid_comps), 2))
    for i in range(n):
        gates[i, 0] = tr.gate_on_line(comps[0], trees[i])
    for x, c in kids:
        for i in range(start[x], start[x + 1]):
            gates[i, 1 + kid_comps.index(c)] = tr.gate_on_line(comps[c], trees[i])
    codes = sorted(codes)
    turns = np.array([tr.IDENTITY, *(ts._relation(*divmod(c, w)) for c in codes)], dtype=float)
    # the same-owner pairs, slot i-major, and where each slot's pairs start
    pairs = [(i, j) for i in range(n) for j in range(start[blk[i]], start[blk[i] + 1])]
    first = np.searchsorted([i for i, _ in pairs], np.arange(n + 1))
    own = [hx.tbin_distance(trees[i], trees[j]) / hx.EDGE for i, j in pairs]
    return tr.SampleEmbedding(
        order, blocks, blk, start, np.array([len(b) for b in blocks], dtype=np.intp), meet, ids,
        prefix_class, sigma, np.array(kid_comps, dtype=np.intp), gates,
        np.array([p.fiber for p in pts], dtype=float).reshape(n, dim - 2),
        np.array([-1, *codes], dtype=np.int64), turns.T, np.array(own, dtype=float),
        np.array(pairs, dtype=np.intp).reshape(-1, 2).T, first, np.argsort(order))


def side_points(cx, seed):
    """Sampled points, and as many on sides of their hexagons: on marked
    sides (midpoints and corners, where normalize shortens the address and
    where it does not), on unmarked sides of the root block, and on walls,
    which normalize moves from a child block to its parent."""
    rng = random.Random(seed)
    xs = cx.sample_points(seed, range(40))
    fiber = (0.75,) * (cx.spec.n - 2)
    for x in xs[:20]:
        h = x.base.hex
        xs += [CoverPoint(x.block, hx.H0Point(h, hx.MIDPOINTS[2 * rng.randrange(3)]), fiber),
               CoverPoint(x.block, hx.H0Point(h, hx.VERTICES[rng.randrange(6)]), fiber),
               CoverPoint((), hx.H0Point(h, hx.boundary_point_local(
                   rng.choice(hx.UNMARKED_SIDES), rng.random())), fiber)]
        if x.block:  # every wall coordinate within the parent side's window
            w = cx.parent_wall(x.block)
            lo, hi = cx.model.arclength_window(cx.model.components[w.parent_comp])
            xs.append(child_wall_point(cx, w, [rng.uniform(lo, hi) for _ in range(cx.spec.n - 1)]))
    rng.shuffle(xs)
    return xs


@pytest.mark.parametrize("name, hex_depth, wall_comp_depth", [
    ("flip_n3", 1, None), ("two_vertex_n5", 4, 0), ("cycle_n4", 8, 1)])
def test_embed_matches_per_point_reference(name, hex_depth, wall_comp_depth):
    cx = cover.explore(shipped(name), t0_depth=2, hex_depth=hex_depth, fiber_range=3.0,
                       wall_comp_depth=wall_comp_depth)
    ts = tr.TreeSystem(cx)
    xs = side_points(cx, seed=hex_depth)
    rows = point_rows(cx, xs)
    got, want = ts.embed(rows), reference_embed(ts, xs)
    for field, a, b in zip(tr.SampleEmbedding._fields, got, want):
        assert a == b if field == "blocks" else np.array_equal(a, b) and a.dtype == b.dtype, field
    # embed normalizes copies: the rows still hold the points as given
    again = point_rows(cx, xs)
    assert (rows.blocks, rows.hexes) == (again.blocks, again.hexes)
    assert np.array_equal(rows.local, again.local) and np.array_equal(rows.fiber, again.fiber)
    # the sample holds points that normalize moves, some of them to another
    # block, and points that retract to vertices and to edge points
    moved = [cx.normalize(x) for x in xs]
    assert sum(m != x for m, x in zip(moved, xs)) > sum(m.block != x.block for m, x in zip(moved, xs)) > 0
    trees = [hx.retract(m.base) for m in moved]
    assert {t.child is None for t in trees} == {True, False}
    assert got.gates.shape[1] > 1


def test_embed_of_interior_points_calls_no_scalar_form(monkeypatch):
    # sampled points lie inside their hexagons: embed retracts and gates them
    # in rows, and normalizes only the points on a side, once each
    cx = cover.explore(shipped("two_vertex_n5"), t0_depth=2, hex_depth=4, fiber_range=3.0,
                       wall_comp_depth=0)
    ts = tr.TreeSystem(cx)
    calls = collections.Counter()
    for owner, name in ((hx, "retract"), (tr, "gate_on_line"), (cover.CoverComplex, "normalize")):
        monkeypatch.setattr(owner, name, counting(calls, name, getattr(owner, name)))
    emb = ts.embed(cx.sample_rows(3, range(120)))
    assert len(emb.blocks) > 1 and emb.gates.shape[1] > 1
    assert calls == {}
    xs = cx.sample_points(3, range(120))
    on_side = [CoverPoint(x.block, hx.H0Point(x.base.hex, hx.VERTICES[0]), x.fiber) for x in xs[:5]]
    embed_points(ts, xs + on_side)
    assert calls == {"normalize": 5}


def test_gates_hold_only_the_child_components_in_use():
    # about 770 boundary components, and one owner above another through
    # component 524: the gates hold component 0 and that one, not a column
    # for every component up to 524
    cx = cover.explore(shipped("flip_n3"), t0_depth=2, hex_depth=8, fiber_range=3.0,
                       wall_comp_depth=None)
    ts = tr.TreeSystem(cx)
    emb = ts.embed(cx.sample_rows(0, range(300)))
    assert emb.gates.shape == (300, 1 + len(emb.kid_comps), 2)
    assert emb.kid_comps.tolist() == [524]
    xs = cx.sample_points(0, range(300))
    for lab in ts.class_labels:
        assert np.array_equal(ts.tc_matrix(lab, emb), pairwise_tc(ts, lab, xs)), lab


def test_tc_matrix_walks_no_wall_chain(monkeypatch):
    # routes come from the walk tables, not from wall chains
    cx = cover.explore(shipped("flip_n3"), t0_depth=2, hex_depth=4, fiber_range=3.0)
    ts = tr.TreeSystem(cx)
    calls = []
    wall_chain = cover.CoverComplex.wall_chain

    def counting(self, u, v):
        calls.append((u, v))
        return wall_chain(self, u, v)

    monkeypatch.setattr(cover.CoverComplex, "wall_chain", counting)
    xs = family_points(cx, seed=3)
    emb = embed_points(ts, xs)
    for lab in ts.class_labels:
        assert ts.tc_matrix(lab, emb).shape == (len(xs), len(xs))
    assert calls == []


def test_line_profile_matches_tc_distance(cx, ts):
    # dst blocks two or three walls from src; the profile ends on the line
    # through which the T0 geodesic enters dst, the child side of the last
    # wall, and is exact on it
    cases = [
        (0, tr.TcPoint(owner=(), tree=hx.tbin_edge_point((0,), (0, 1), 0.3)), (3, 7)),
        (1, tr.TcPoint(owner=(3,), tree=hx.tbin_vertex((1, 2))), (5,)),
        (1, tr.TcPoint(owner=(3, 7), value=0.8), (5,)),
    ]
    for lab, src, dst in cases:
        chain = cx.wall_chain(src.owner, dst)
        assert len(chain) >= 2
        assert cx.block(dst).class_label == lab
        g, c, line = ts.line_profile(lab, src, dst)
        assert line == cx.wall_component(chain[-1][0], child_side=True)
        assert type(g) is float and type(c) is float
        for t in (-2.5, -0.75, 0.0, 0.4, 1.3, 3.0):
            dst_pt = tr.TcPoint(owner=dst, tree=hx.line_point_at_lambda(line, hx.EDGE * t))
            assert abs(abs(t - g) + c - ts.tc_distance(lab, src, dst_pt)) <= 1e-12


# -- brute-force references for the address-arithmetic gates -----------------

GATE_SPAN = 60  # chain positions searched by the brute-force gate
RELATION_SPAN = 12  # depth-4 lines meet or bridge within |position| <= 8


def brute_gate(comp, point):
    """Point's own coordinate when it lies on the chain line, else the
    nearest chain vertex over +-GATE_SPAN positions."""
    ks = {hx.chain_address(comp, k): k for k in range(-GATE_SPAN, GATE_SPAN + 1)}
    kp = ks.get(point.parent)
    kc = ks.get(point.child) if point.child is not None else None
    if kp is not None and (point.child is None or kc is not None):
        sign = 0.0 if point.child is None else (1.0 if kc > kp else -1.0)
        return kp + 0.5 + sign * point.offset / hx.EDGE, 0.0
    best = None
    for addr, k in ks.items():
        d = hx.tbin_distance(point, hx.tbin_vertex(addr)) / hx.EDGE
        if best is None or d < best[1]:
            best = (k + 0.5, d)
    return best


def brute_relation(comp_in, comp_out):
    """Shared chain vertices, or else the closest pair of chain vertices."""
    span = range(-RELATION_SPAN, RELATION_SPAN + 1)
    in_k = {hx.chain_address(comp_in, k): k for k in span}
    out = [(m, hx.chain_address(comp_out, m)) for m in span]
    shared = sorted((in_k[a], m) for m, a in out if a in in_k)
    if shared:
        (k1, m1), (k2, m2) = shared[0], shared[-1]
        orient = -1 if len(shared) > 1 and shared[1][1] < m1 else 1
        assert m2 == m1 + orient * (k2 - k1)  # the exit coordinate of hi
        # k1 + 1/2 maps to m1 + 1/2
        return tr.LineRelation(k1 + 0.5, k2 + 0.5, orient, (m1 + 0.5) - orient * (k1 + 0.5))
    d, k, m = min(
        (hx.hex_tree_edges(a, b), k, m) for a, k in in_k.items() for m, b in out
    )
    # a bridge: every gate leaves through k + 1/2 and lands on m + 1/2
    return tr.LineRelation(k + 0.5, k + 0.5, 1, float(m - k), float(d))


def test_line_relation_matches_brute_force():
    comps = hx.HexModel(4).components
    kinds = set()
    for comp_in in comps:
        for comp_out in comps:
            if comp_in != comp_out:
                rel = tr.line_relation(comp_in, comp_out)
                assert rel == brute_relation(comp_in, comp_out)
                kinds.add(relation_kind(rel))
                assert (rel.const >= 1) == (rel.lo == rel.hi)
    assert kinds == {"overlap", "bridge"}


def test_gate_on_line_matches_brute_force():
    comps = hx.HexModel(4).components
    hexes = hx.hexagons_to_depth(6)
    rng = random.Random(3)
    on_line = 0
    for comp in comps:
        pts = [hx.tbin_vertex(rng.choice(hexes)) for _ in range(20)]
        for _ in range(20):
            child = rng.choice(hexes[1:])
            pts.append(hx.tbin_edge_point(child[:-1], child, rng.uniform(0.0, hx.EDGE)))
        # points on the line itself
        pts.extend(hx.line_point_at_lambda(comp, hx.EDGE * rng.uniform(-5, 5)) for _ in range(5))
        for p in pts:
            lam, d = tr.gate_on_line(comp, p)
            lam_b, d_b = brute_gate(comp, p)
            assert abs(lam - lam_b) <= 1e-12 and abs(d - d_b) <= 1e-12
            on_line += d == 0.0
    assert on_line >= 5 * len(comps)


def test_gate_beyond_former_window():
    # a vertex one edge off chain position 40 gates there, however far out
    comp = hx.ComponentId((), 1)
    a, b = hx.LETTERS[comp.side]
    addr = hx.chain_address(comp, 40) + (3 - a - b,)
    assert tr.gate_on_line(comp, hx.tbin_vertex(addr)) == (40.5, 1.0)
    assert brute_gate(comp, hx.tbin_vertex(addr)) == (40.5, 1.0)


# -- the composed map against the sequential walk it replaced -----------------


class StepRelation(NamedTuple):
    """One relation as the walk crossed it before routes were composed: an
    overlap clips to [lam_lo, lam_hi] and maps lam_lo onto mu_lo, a bridge
    leaves the entry line at lam_gate and lands at mu_gate."""

    kind: str
    lam_lo: float = 0.0
    lam_hi: float = 0.0
    mu_lo: float = 0.0
    orient: int = 1
    lam_gate: float = 0.0
    mu_gate: float = 0.0
    bridge: float = 0.0

    def cross(self, g, c):
        if self.kind == "bridge":
            return self.mu_gate, c + abs(self.lam_gate - g) + self.bridge
        clipped = min(max(g, self.lam_lo), self.lam_hi)
        return self.mu_lo + self.orient * (clipped - self.lam_lo), c + abs(g - clipped)

    def as_map(self):
        if self.kind == "bridge":
            return tr.LineRelation(
                self.lam_gate, self.lam_gate, 1, self.mu_gate - self.lam_gate, self.bridge
            )
        return tr.LineRelation(
            self.lam_lo, self.lam_hi, self.orient, self.mu_lo - self.orient * self.lam_lo
        )


def walk(steps, g, c):
    for step in steps:
        g, c = step.cross(g, c)
    return g, c


def compose(maps):
    return functools.reduce(tr.LineRelation.then, maps, tr.IDENTITY)


def random_step(rng):
    """Grid data as line_relation makes it: half-integer chain positions."""
    lo, mu = rng.randint(-6, 6) + 0.5, rng.randint(-6, 6) + 0.5
    if rng.random() < 0.3:
        return StepRelation("bridge", lam_gate=lo, mu_gate=mu, bridge=float(rng.randint(1, 4)))
    return StepRelation(
        "overlap", lam_lo=lo, lam_hi=lo + rng.randint(0, 3), mu_lo=mu, orient=rng.choice((1, -1))
    )


def meeting(a, b):
    """How a's interval meets the preimage under a of b's interval."""
    j_lo, j_hi = sorted(a.orient * (y - a.shift) for y in (b.lo, b.hi))
    width = min(a.hi, j_hi) - max(a.lo, j_lo)
    return "empty" if width < 0 else "point" if width == 0 else "segment"


def test_composed_map_matches_sequential_walk():
    rng = random.Random(11)
    meetings, orients = set(), set()
    for _ in range(4000):
        steps = [random_step(rng) for _ in range(rng.randint(1, 5))]
        maps = [step.as_map() for step in steps]
        composed = compose(maps)
        orients.add(composed.orient)
        meetings |= {meeting(a, b) for a, b in zip(maps, maps[1:])}
        for g in (rng.uniform(-9, 9), rng.randint(-9, 9) + 0.5, rng.choice(maps).lo):
            c = rng.uniform(0, 3)
            want = walk(steps, g, c)
            got = composed.cross(g, c)
            assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12
        assert tr.IDENTITY.then(composed) == composed == composed.then(tr.IDENTITY)
    assert meetings == {"empty", "point", "segment"}
    assert orients == {1, -1}


def sequential_route(ts, label, src, dst):
    """The route as it was walked before composition: exit line, the tuple
    of line relations crossed in order, end line."""
    chain = ts.cplx.wall_chain(src, dst)

    def side(w, bid):
        return ts.cplx.wall_component(w, child_side=(bid == w.child))

    exit_ = side(chain[0][0], src) if ts.cplx.block(src).class_label == label else None
    steps, line = [], None
    for (w, up), nxt in zip(chain, [*chain[1:], None]):
        bid = w.parent if up else w.child
        line = side(w, bid) if ts.cplx.block(bid).class_label == label else None
        if line is not None and nxt is not None and side(nxt[0], bid) != line:
            steps.append(tr.line_relation(line, side(nxt[0], bid)))
    return exit_, steps, line


@pytest.mark.parametrize(
    "name, wall_comp_depth",
    [("flip_n3", None), ("two_vertex_n5", 0), ("flip_n3", 1), ("cycle_n4", None),
     ("cycle_n4", 1), ("two_vertex_n5", 1)],
)
def test_route_matches_sequential_walk(name, wall_comp_depth):
    cx = cover.explore(
        shipped(name), t0_depth=2, hex_depth=4, fiber_range=3.0,
        wall_comp_depth=wall_comp_depth,
    )
    ts = tr.TreeSystem(cx)
    rng = random.Random(name)
    longest = 0
    for _ in range(300):
        src, dst = rng.sample(ball_ids(cx), 2)
        lab = rng.choice(ts.class_labels)
        exit_, steps, line = sequential_route(ts, lab, src, dst)
        route = ts.route(lab, src, dst)
        assert (route.exit, route.line) == (exit_, line)
        assert route.relation == compose(steps)
        longest = max(longest, len(steps))
        for _ in range(4):
            g, c = rng.uniform(-8, 8), rng.uniform(0, 4)
            want = walk(steps, g, c)
            got = route.relation.cross(g, c)
            assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12
    assert longest >= 2


def step_lists(st):
    """Hypothesis strategy: lists of one to four relations as line_relation
    makes them, half-integer positions, bridges and overlaps of either
    orientation."""
    half = st.integers(-8, 8).map(lambda k: k + 0.5)
    bridge = st.builds(
        lambda lo, mu, b: StepRelation("bridge", lam_gate=lo, mu_gate=mu, bridge=float(b)),
        half, half, st.integers(1, 4),
    )
    overlap = st.builds(
        lambda lo, w, mu, o: StepRelation("overlap", lam_lo=lo, lam_hi=lo + w, mu_lo=mu, orient=o),
        half, st.integers(0, 4), half, st.sampled_from((1, -1)),
    )
    return st.lists(st.one_of(bridge, overlap), min_size=1, max_size=4)


def test_composition_law_property():
    hypothesis = pytest.importorskip("hypothesis")
    steps = step_lists(hypothesis.strategies)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(a=steps, b=steps, g=hypothesis.strategies.floats(-12, 12),
                      c=hypothesis.strategies.floats(0, 5))
    def law(a, b, g, c):
        ab = compose([s.as_map() for s in a]).then(compose([s.as_map() for s in b]))
        want = walk(a + b, g, c)
        got = ab.cross(g, c)
        assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12

    law()


# -- the array form of then against the scalar form ---------------------------


def stacked(rels):
    """Relations as one LineRelation of arrays, field by field."""
    return tr.LineRelation(*np.array(rels, dtype=float).reshape(len(rels), 5).T)


def assert_rows_equal(got, want):
    """Field for field with ==: each row of the array relation got against
    the scalar relation want[k]."""
    fields = [np.broadcast_to(f, (len(want),)) for f in got]
    for k, rel in enumerate(want):
        assert tuple(float(f[k]) for f in fields) == tuple(rel), (k, rel)


def test_array_then_matches_scalar_on_route_triples():
    # an embedding with one point in every block at t0 3, every class: the
    # walk tables' rows are the routes to and from each owner's ancestors,
    # and every (up, turn, down) triple of table rows, composed with the
    # array form of then, is the route of its owners
    count = 0
    for name in ("flip_n3", "cycle_n4", "two_vertex_n5"):
        cx = cover.explore(shipped(name), t0_depth=3, hex_depth=4, fiber_range=3.0,
                           wall_comp_depth=0)
        ts = tr.TreeSystem(cx)
        ids = ball_ids(cx)
        xs = [CoverPoint(b, x.base, x.fiber)
              for b, x in zip(ids, cx.sample_points(0, range(len(ids))))]
        emb = embed_points(ts, xs)
        assert emb.blocks == sorted(ids)
        for lab in ts.class_labels:
            up, down = ts._walk_tables(lab, emb)
            for x, a in enumerate(emb.blocks):
                assert_rows_equal(tr.LineRelation(*up[:, x]), [
                    ts.route(lab, a, a[:k]).relation if k < len(a) else tr.IDENTITY
                    for k in range(up.shape[2])])
                assert_rows_equal(tr.LineRelation(*down[:, x]), [
                    ts.route(lab, a[:k], a).relation if k < len(a) else tr.IDENTITY
                    for k in range(down.shape[2])])
            triples, routes = [], []
            for x, a in enumerate(emb.blocks):
                for y in range(x + 1, len(emb.blocks)):
                    o = emb.blocks[y]
                    k = hx.lcp_len(a, o)
                    turn = ts._turn(lab, a[:k], a[k], o[k]) if len(a) > k else tr.IDENTITY
                    triples.append((up[:, x, k], turn, down[:, y, k]))
                    routes.append(ts.route(lab, a, o).relation)
            u, t, d = (stacked(list(col)) for col in zip(*triples))
            scalar = [(tr.LineRelation(*x), y, tr.LineRelation(*z)) for x, y, z in triples]
            got = u.then(t).then(d)
            assert_rows_equal(got, [x.then(y).then(z) for x, y, z in scalar])
            assert_rows_equal(got, routes)
            assert_rows_equal(u.then(t), [x.then(y) for x, y, _ in scalar])
            assert_rows_equal(t.then(d), [y.then(z) for _, y, z in scalar])
            count += len(triples)
    assert count > 1000


def test_array_then_identity_and_empty_meets():
    rng = random.Random(3)
    maps = [compose([s.as_map() for s in [random_step(rng) for _ in range(rng.randint(1, 3))]])
            for _ in range(200)]
    # the two empty meets: the next interval beyond self.hi, and before
    # self.lo, where the gap is negative
    seg = tr.LineRelation(0.5, 1.5, 1, 2.0, 1.0)
    flip = tr.LineRelation(0.5, 2.5, -1, 4.0, 0.0)
    beyond, before = tr.LineRelation(5.5, 5.5, 1, 1.0, 2.0), tr.LineRelation(-2.5, -2.5, -1, 3.0, 1.0)
    cases = [(seg, beyond), (seg, before), (flip, beyond), (flip, before), *zip(maps, maps[1:])]
    assert {meeting(a, b) for a, b in cases} == {"empty", "point", "segment"}
    assert {-1.0, 1.0} <= {float(a.orient) for a, _ in cases}
    branches = set()
    for a in (seg, flip):
        for b in (beyond, before):
            j_lo, j_hi = sorted(a.orient * (y - a.shift) for y in (b.lo, b.hi))
            assert max(a.lo, j_lo) > min(a.hi, j_hi)
            branches.add("above" if a.hi < j_lo else "below")
    assert branches == {"above", "below"}
    first, second = (stacked(list(col)) for col in zip(*cases))
    assert_rows_equal(first.then(second), [a.then(b) for a, b in cases])
    assert_rows_equal(second.then(first), [b.then(a) for a, b in cases])
    for side in (first, second):
        rels = [tuple(float(v) for v in row) for row in zip(*side)]
        assert_rows_equal(side.then(tr.IDENTITY), [tr.LineRelation(*r).then(tr.IDENTITY) for r in rels])
        assert_rows_equal(tr.IDENTITY.then(side), [tr.IDENTITY.then(tr.LineRelation(*r)) for r in rels])
        assert_rows_equal(side.then(tr.IDENTITY), rels)
        assert_rows_equal(tr.IDENTITY.then(side), rels)


def test_array_then_matches_scalar_property():
    hypothesis = pytest.importorskip("hypothesis")
    steps = step_lists(hypothesis.strategies)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(a=steps, b=steps)
    def law(a, b):
        x, y = compose([s.as_map() for s in a]), compose([s.as_map() for s in b])
        assert_rows_equal(stacked([x]).then(stacked([y])), [x.then(y)])
        assert_rows_equal(stacked([y]).then(stacked([x])), [y.then(x)])

    law()


# -- T0 matrices and same-owner tree blocks in numpy -------------------------


def test_t0_matrix_equals_t0_distance():
    """t0_matrix against t0_distance of the normalized points' blocks, on
    every pair and the diagonal, in input order: a sample at t0 2 with
    every wall component, some of its points moved to the root and to
    their blocks' parents, and a sample on the deep t0 12 ball.  Together
    they hold same-owner pairs, ancestor and descendant pairs, and the
    root."""
    shallow = cover.explore(shipped("flip_n3"), t0_depth=2, hex_depth=4, fiber_range=3.0)
    moved = shallow.sample_points(5, range(120))
    moved += [CoverPoint(x.block[:k], x.base, x.fiber) for x in moved[:5] for k in (0, 1)]
    deep, deep_ts = vf._prepare(shipped("two_vertex_n5"), vf.RunConfig(
        t0_depth=12, hex_depth=4, fiber_range=3.0, wall_comp_depth=0))
    kinds = set()
    for ts, xs in ((tr.TreeSystem(shallow), moved), (deep_ts, deep.sample_points(0, range(400)))):
        mat = ts.t0_matrix(embed_points(ts, xs))
        owners = [ts.cplx.normalize(x).block for x in xs]
        assert mat.shape == (len(xs), len(xs))
        for i, a in enumerate(owners):
            assert mat[i].tolist() == [ts.t0_distance(a, b) for b in owners], i
            kinds |= {"root"} if a == () else set()
            kinds |= {"same" if b == a else "ancestor" if b[:len(a)] == a else "descendant"
                      for b in owners[i + 1:] if b[:len(a)] == a or a[:len(b)] == b}
        assert ts.t0_matrix(embed_points(ts, [])).shape == (0, 0)
    assert kinds == {"root", "same", "ancestor", "descendant"}


def tbin_rows(points):
    """tbin_pair_distances' rows of T_bin points: the deepest anchor,
    padded with -1, whether the point lies on an edge, and its offset."""
    deep = [p.parent if p.child is None else p.child for p in points]
    width = 1 + max(map(len, deep), default=0)
    addr = np.array([a + (-1,) * (width - len(a)) for a in deep], dtype=np.int64)
    on_edge = np.array([p.child is not None for p in points], dtype=bool)
    return addr.reshape(len(deep), width), on_edge, np.array([p.offset for p in points], dtype=float)


def test_tbin_pair_distances_equal_pairwise():
    rng = random.Random(6)
    hexes = hx.hexagons_to_depth(5)[1:]
    pts = [hx.tbin_vertex(rng.choice(hexes)) for _ in range(20)] + [hx.tbin_vertex(())]
    for _ in range(20):
        child = rng.choice(hexes)
        pts.append(hx.tbin_edge_point(child[:-1], child, rng.uniform(0.0, hx.EDGE)))
    for _ in range(3):  # several points on one edge, and both its ends
        child = rng.choice(hexes)
        pts += [hx.tbin_edge_point(child[:-1], child, rng.uniform(0.0, hx.EDGE)) for _ in range(3)]
        pts += [hx.tbin_vertex(child[:-1]), hx.tbin_vertex(child)]
    pts += [pts[2], pts[25]]
    rng.shuffle(pts)
    i, j = (k.ravel() for k in np.indices((len(pts), len(pts))))
    dist = hx.tbin_pair_distances(*tbin_rows(pts), i, j)
    shared = 0
    for x, y, d in zip(i, j, dist):
        assert d == hx.tbin_distance(pts[x], pts[y]), (pts[x], pts[y])
        p, q = pts[x], pts[y]
        shared += x != y and p.child is not None and (p.parent, p.child) == (q.parent, q.child)
    assert shared >= 18
    assert hx.tbin_pair_distances(*tbin_rows([]), i[:0], j[:0]).shape == (0,)


def test_deep_ball_without_enumeration():
    # about 3 * 2**40 blocks: preparing, sampling, phi and T_c distances
    # touch only the sampled blocks and their ancestors
    cfg = vf.RunConfig(t0_depth=40, hex_depth=3, fiber_range=3.0, wall_comp_depth=0)
    cx, ts = vf._prepare(shipped("two_vertex_n5"), cfg)
    assert cx.block_count == 1 + 3 * (2**40 - 1)
    assert ts.class_labels == (0, 1, 2, 3)
    pts = [cx.sample_point(cover.make_stream(8, i)) for i in range(6)]
    assert cx.sample_points(8, range(6)) == pts  # past 2**32 blocks, by sample_point
    assert min(len(p.block) for p in pts) >= 30
    for x, y in zip(pts, pts[1:]):
        px, py = ts.phi(x), ts.phi(y)
        assert ts.t0_distance(px.t0, py.t0) == hx.hex_tree_edges(x.block, y.block)
        for lab in ts.class_labels:
            d = ts.tc_distance(lab, px.coord(lab), py.coord(lab))
            assert math.isfinite(d) and d == ts.tc_distance(lab, py.coord(lab), px.coord(lab))
    assert len(cx._blocks) <= 1 + 40 * len(pts)
