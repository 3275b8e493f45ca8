import collections
import json
import math
import random

import numpy as np
import pytest

from conftest import (
    ball_ids, child_wall_point, counting, off_marked_side, path_permutation, shipped, shipped_doc,
)
from ogm import cover
from ogm import geodesics as geo
from ogm import hexagon as hx
from ogm import trees as tr
from ogm.manifold import GraphManifoldSpec, class_label


def reference_ball(cx):
    """The whole T0 ball of cx by breadth-first exploration, the reference
    for the complex's address arithmetic: (blocks, walls), blocks by id as
    (labels, g_vertex, shift) and walls by (parent, component) as
    cover.Wall."""
    spec = cx.spec
    wall_comps = [
        ci
        for ci, comp in enumerate(cx.model.components)
        if cx.wall_comp_depth is None or len(comp.min_addr) <= cx.wall_comp_depth
    ]
    blocks = {(): ((), spec.root_vertex(), 0)}
    walls = {}
    frontier = [()]
    for _ in range(cx.t0_depth):
        nxt = []
        for bid in frontier:
            labels, g_vertex, shift = blocks[bid]
            for ci in wall_comps:
                if ci == 0 and bid:
                    continue  # component 0 links upward
                ring = spec.boundary(g_vertex)
                edge = ring[(shift + ci) % len(ring)]
                rev = spec.edges[edge.reverse]
                child = bid + (ci,)
                blocks[child] = (labels + (edge.id,), edge.to, spec.boundary(edge.to).index(rev))
                walls[(bid, ci)] = cover.Wall(bid, ci, child, edge.id)
                nxt.append(child)
        frontier = nxt
    return blocks, walls


@pytest.fixture(scope="module")
def flip_cx():
    return cover.explore(shipped("flip_n3"), t0_depth=1, hex_depth=2)


def test_depth_zero_single_block():
    cx = cover.explore(shipped("flip_n3"), t0_depth=0, hex_depth=2)
    assert cx.block_count == 1 and ball_ids(cx) == [()]
    assert cx.child_comps(0) == range(0)  # no walls


def test_flip_depth1_counts(flip_cx):
    # 3 * 2^2 = 12 boundary components at hexagon depth 2, one child each
    assert len(cx_components := flip_cx.model.components) == 12
    assert flip_cx.block_count == 1 + 12
    walls = [flip_cx.parent_wall(bid) for bid in ball_ids(flip_cx)[1:]]
    assert len(walls) == 12
    for w in walls:
        assert flip_cx.spec.edges[w.edge_id].perm.images == (1, 0)
    assert len(cx_components) + 1 == flip_cx.block_count


def test_tree_property():
    cx = cover.explore(shipped("cycle_n4"), t0_depth=2, hex_depth=1)
    blocks, walls = reference_ball(cx)
    assert cx.block_count == len(blocks) == len(walls) + 1


def test_wall_perms_inverse(flip_cx):
    for w in map(flip_cx.parent_wall, ball_ids(flip_cx)[1:]):
        e = flip_cx.spec.edges[w.edge_id]
        rev = flip_cx.spec.edges[e.reverse]
        assert rev.perm.after(e.perm).is_identity()


def test_round_robin_labels():
    cx = cover.explore(shipped("two_vertex_n5"), t0_depth=1, hex_depth=1)
    ncomp = len(cx.model.components)
    for bid in ball_ids(cx):
        blk = cx.block(bid)
        ring = cx.spec.boundary(blk.g_vertex)
        labels = [cx.block_label(blk, ci).id for ci in range(ncomp)]
        for start in range(ncomp - len(ring)):
            window = labels[start : start + len(ring)]
            assert sorted(window) == sorted(e.id for e in ring)
        if bid:
            # gluing component carries the reverse of the parent label
            wall = cx.parent_wall(bid)
            assert labels[0] == cx.spec.edges[wall.edge_id].reverse


def test_explore_deterministic():
    a = json.dumps(cover.explore(shipped("cycle_n4"), 2, 2).summary(), sort_keys=True)
    b = json.dumps(cover.explore(shipped("cycle_n4"), 2, 2).summary(), sort_keys=True)
    assert a == b


def test_wall_chain(flip_cx):
    root = ()
    assert flip_cx.wall_chain(root, root) == ()
    child = (3,)
    chain = flip_cx.wall_chain(root, child)
    assert len(chain) == 1 and chain[0][0].child == child and not chain[0][1]
    # two rank-1 blocks: up then down, endpoints telescoping
    chain = flip_cx.wall_chain((2,), (5,))
    assert len(chain) == 2
    assert chain[0][1] and not chain[1][1]
    assert chain[0][0].parent == chain[1][0].parent == root


def test_wall_chain_depth3():
    cx = cover.explore(shipped("flip_n3"), t0_depth=3, hex_depth=1)
    u, v = (0, 1, 2), (0, 3)
    chain = cx.wall_chain(u, v)
    assert len(chain) == 3
    blocks = [u]
    for w, up in chain:
        blocks.append(w.parent if up else w.child)
    assert blocks[-1] == v
    for (w1, u1), (w2, u2) in zip(chain, chain[1:]):
        shared = {w1.parent, w1.child} & {w2.parent, w2.child}
        assert len(shared) == 1


def test_cross_wall_flip(flip_cx):
    w = flip_cx.parent_wall((0,))
    comp = flip_cx.wall_component(w, False)
    t, f = 0.75, 1.5
    p = cover.CoverPoint((), flip_cx.model.boundary_point(comp, t), (f,))
    q = child_wall_point(flip_cx, w, (t, f))
    assert q.block == w.child
    # transposition: child arclength reads the fiber, child fiber the arclength
    bc = hx.boundary_param(q.base)
    assert bc.component == flip_cx.wall_component(w, True)
    assert abs(bc.arclength - f) < 1e-10
    assert abs(q.fiber[0] - t) < 1e-10
    back = flip_cx.normalize(q)
    assert back.block == ()
    assert hx.h0_distance(back.base, p.base) < 1e-10
    assert abs(back.fiber[0] - p.fiber[0]) < 1e-10


def test_cross_wall_grid_corner(flip_cx):
    # a grid corner of the parent side is a grid corner of the child side,
    # and normalize takes it back to the same corner
    w = flip_cx.parent_wall((1,))
    q = child_wall_point(flip_cx, w, (1.0, -2.0))
    bc = hx.boundary_param(q.base)
    assert abs(bc.arclength - round(bc.arclength)) < 1e-10
    assert abs(q.fiber[0] - round(q.fiber[0])) < 1e-10
    back = flip_cx.normalize(q)
    assert back.block == ()
    bc = hx.boundary_param(back.base)
    assert bc.component == flip_cx.wall_component(w, False)
    assert abs(bc.arclength - 1.0) < 1e-10 and abs(back.fiber[0] + 2.0) < 1e-10


@pytest.mark.parametrize("name", ["flip_n3", "cycle_n4"])
def test_normalize_crosses_every_wall(name):
    # the one wall-point constructor is the parent side; normalize reaches it
    # from the child side of every wall of the ball
    cx = cover.explore(shipped(name), t0_depth=2, hex_depth=4)
    for i, bid in enumerate(ball_ids(cx)[1:]):
        w = cx.parent_wall(bid)
        coords = tuple(float(v) for v in cover.make_stream(31, i).uniform(0, 1, cx.spec.n - 1))
        got = cx.normalize(child_wall_point(cx, w, coords))
        want = cx.point_from_wall_coords(w, coords)
        assert got.block == want.block == w.parent
        assert hx.h0_distance(got.base, want.base) < 1e-12
        assert max(abs(a - b) for a, b in zip(got.fiber, want.fiber)) < 1e-12


def test_normalize_wall_point(flip_cx):
    w = flip_cx.parent_wall((4,))
    coords = (1.25, -0.5)
    child_pt = child_wall_point(flip_cx, w, coords)
    norm = flip_cx.normalize(child_pt)
    assert norm.block == ()
    again = flip_cx.normalize(norm)
    assert again.block == () and again.fiber == norm.fiber


def test_sample_determinism(flip_cx):
    a = flip_cx.sample_point(cover.make_stream(7, 3))
    b = flip_cx.sample_point(cover.make_stream(7, 3))
    assert a == b
    c = flip_cx.sample_point(cover.make_stream(7, 4))
    assert c != a


def reference_samples(cx, seed, idx):
    return [cx.sample_point(cover.make_stream(seed, i)) for i in idx]


@pytest.mark.parametrize("name, t0_depth, hex_depth, fiber_range, seeds, count", [
    ("flip_n3", 2, 4, 3.0, 6, 300),
    ("two_vertex_n5", 2, 4, 3.0, 6, 300),
    ("cycle_n4", 0, 4, 3.0, 2, 200),  # one block: integers(0, 1) draws nothing
    ("flip_n3", 2, 1, 3.0, 2, 200),
    ("two_vertex_n5", 12, 8, 3.0, 2, 200),
    ("two_vertex_n5", 2, 4, 0.0, 2, 100),  # fibers -0.0 + 0.0 * u
], ids=["flip_n3", "two_vertex_n5", "one_block", "hex_depth_1", "deep", "zero_fiber_range"])
def test_sample_points_match_make_stream(name, t0_depth, hex_depth, fiber_range, seeds, count):
    # seeds of one to four 32-bit words: only a four-word seed such as 10**30
    # has entropy past SeedSequence's 4-word pool; repr tells the sign of a
    # zero apart
    cx = cover.explore(shipped(name), t0_depth=t0_depth, hex_depth=hex_depth,
                       fiber_range=fiber_range, wall_comp_depth=0)
    idx = [*range(count), 2**31, 2**32 - 1]
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30)[:seeds]:
        assert repr(cx.sample_points(seed, idx)) == repr(reference_samples(cx, seed, idx))


@pytest.mark.parametrize("attempts", [0, 1])
def test_sample_points_fallback_matches_make_stream(monkeypatch, attempts):
    # with words for fewer polar attempts, the streams that need more are
    # drawn again by sample_point: every stream at 0 attempts, about a third
    # at 1
    cx = cover.explore(shipped("two_vertex_n5"), t0_depth=2, hex_depth=4, fiber_range=3.0,
                       wall_comp_depth=0)
    want = reference_samples(cx, 5, range(200))
    calls = collections.Counter()
    monkeypatch.setattr(cover, "SAMPLE_ATTEMPTS", attempts)
    monkeypatch.setattr(cover.CoverComplex, "sample_point",
                        counting(calls, "sample_point", cover.CoverComplex.sample_point))
    assert repr(cx.sample_points(5, range(200))) == repr(want)
    assert calls["sample_point"] == 200 if attempts == 0 else 40 < calls["sample_point"] < 100


def test_sample_words_reject_as_lemire_does(flip_cx):
    # a uint32 of 0 for the block index (word 0's low half) or the hexagon
    # index (its high half): 0 * 13 mod 2**32 lies below 2**32 mod 13 = 9 and
    # 0 * 10 below 2**32 mod 10 = 6, so numpy would reject it; 1 passes both
    assert (flip_cx.block_count, len(flip_cx.model.hexagons)) == (13, 10)
    words = np.zeros((4, 1 + 2 * cover.SAMPLE_ATTEMPTS + 1), dtype=np.uint64)
    words[:, 0] = [0, 1, 1 << 32, 1 | 1 << 32]
    assert flip_cx._from_words(words)[-1].tolist() == [False, False, False, True]


# WordStream against the Generator it reads: 2**31 + 1 rejects about half
# its uint32s, 2**32 takes them whole, and a range of one draws nothing
WORD_RANGES = (1, 2, 3, 46, 766, 2**31 + 1, 2**32 - 5, 2**32)


def word_stream_draws(seed, ops):
    """(Generator values, WordStream values) of make_stream(seed, 0) for
    ops, each None for random() or (low, m) for integers(low, low + m)."""
    gen = cover.make_stream(seed, 0)
    words = cover.WordStream(cover.make_stream(seed, 0).bit_generator)
    want, got = [], []
    for op in ops:
        if op is None:
            want.append(gen.random())
            got.append(words.random())
        else:
            low, m = op
            want.append(int(gen.integers(low, low + m)))
            got.append(words.integers(low, low + m))
    return want, got


@pytest.mark.parametrize("block", [3, cover.WORD_BLOCK])  # 3: blocks end inside the sequences
def test_word_stream_matches_generator(monkeypatch, block):
    monkeypatch.setattr(cover, "WORD_BLOCK", block)
    pick = random.Random(block)
    for seed in (0, 1, 2027):
        ops = [None if pick.random() < 0.4 else (pick.randrange(-3, 4), pick.choice(WORD_RANGES))
               for _ in range(20_000)]
        want, got = word_stream_draws(seed, ops)
        assert got == want


def test_word_stream_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ops = st.lists(st.one_of(st.none(), st.tuples(st.integers(-2**40, 2**40),
                                                  st.sampled_from(WORD_RANGES) | st.integers(1, 2**32))),
                   max_size=60)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(seed=st.integers(0, 2**64), ops=ops, block=st.integers(1, 8))
    def check(seed, ops, block):
        monkeypatch.setattr(cover, "WORD_BLOCK", block)
        want, got = word_stream_draws(seed, ops)
        assert got == want

    check()


def test_word_stream_ranges():
    words = cover.WordStream(cover.make_stream(0, 0).bit_generator)
    for low, high in ((0, 2**32 + 1), (-5, 2**40), (5, 5), (5, 4)):
        with pytest.raises(ValueError):
            words.integers(low, high)
    assert words.integers(7, 8) == 7


def test_sample_points_index_range(flip_cx):
    assert flip_cx.sample_points(3, []) == []
    for bad in ([-1], [2**32]):
        with pytest.raises(ValueError):
            flip_cx.sample_points(3, bad)


def test_sample_membership_and_coverage(flip_cx):
    hit = set()
    for i in range(10_000):
        p = flip_cx.sample_point(cover.make_stream(123, i))
        assert flip_cx.contains(p)
        hit.add(p.block)
        if len(hit) == flip_cx.block_count:
            break
    assert hit == set(ball_ids(flip_cx))


def test_sample_coverage_depth2():
    # coupon collector at desk scale: 145 blocks, 10^4 draws
    cx = cover.explore(shipped("flip_n3"), t0_depth=2, hex_depth=2)
    hit = set()
    for i in range(10_000):
        hit.add(cx.sample_point(cover.make_stream(7, i)).block)
        if len(hit) == cx.block_count:
            break
    assert hit == set(ball_ids(cx))


def test_point_address_roundtrip(flip_cx):
    for i in range(20):
        p = flip_cx.sample_point(cover.make_stream(5, i))
        s = flip_cx.format_point(p)
        q = flip_cx.parse_point(s)
        assert q.block == p.block
        assert hx.h0_distance(q.base, p.base) < 1e-9
        assert all(abs(a - b) < 1e-12 for a, b in zip(q.fiber, p.fiber))


def test_invalid_spec_rejected():
    doc = shipped_doc("flip_n3")
    doc["edges"][0]["perm"] = [0, 1]
    doc["edges"][1]["perm"] = [0, 1]
    with pytest.raises(cover.CoverError):
        cover.explore(GraphManifoldSpec.from_dict(doc), 1, 1)


def test_depth_validation():
    with pytest.raises(ValueError):
        cover.explore(shipped("flip_n3"), -1, 2)
    with pytest.raises(ValueError):
        cover.explore(shipped("flip_n3"), 1, 0)
    with pytest.raises(ValueError, match="wall_comp_depth"):
        cover.explore(shipped("flip_n3"), 1, 2, wall_comp_depth=-1)
    for fiber_range in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="fiber_range"):
            cover.explore(shipped("flip_n3"), 1, 2, fiber_range=fiber_range)


@pytest.mark.parametrize("hexagon, local", [
    ((0, 1, 0), hx.CENTER),  # beyond the hexagon depth
    ((0, 0), hx.CENTER),  # not a reduced address
    ((3,), hx.CENTER),  # not a letter
    ((1,), off_marked_side(0, 1e-8)),  # more than 1e-9 outside a side
])
def test_base_outside_model_outside_complex(flip_cx, hexagon, local):
    p = flip_cx.sample_point(cover.make_stream(5, 0))
    bad = cover.CoverPoint(p.block, hx.H0Point(hexagon, local), p.fiber)
    assert not flip_cx.contains(bad)
    with pytest.raises(cover.CoverError, match="outside"):
        flip_cx.parse_point(flip_cx.format_point(bad))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_fiber_outside_complex(flip_cx, value):
    p = flip_cx.sample_point(cover.make_stream(5, 0))
    bad = cover.CoverPoint(p.block, p.base, (value,))
    assert flip_cx.contains(p) and not flip_cx.contains(bad)
    with pytest.raises(cover.CoverError, match="outside"):
        geo.distance(flip_cx, p, bad)
    with pytest.raises(cover.CoverError, match="outside"):
        flip_cx.parse_point(flip_cx.format_point(bad))


# every (spec, t0, wall_comp_depth), at hex depth 4, 3 and 2 for
# wall_comp_depth 0, 1 and None, and the widest ball (48 wall components)
REFERENCE_CASES = [
    pytest.param(name, t0, hexd, wcd, id=f"{name}-t0{t0}-hex{hexd}-w{wcd}")
    for name in ("flip_n3", "cycle_n4", "two_vertex_n5", "reducible_n4")
    for t0 in range(4)
    for wcd, hexd in ((0, 4), (1, 3), (None, 2))
] + [pytest.param("two_vertex_n5", 2, 4, None, id="two_vertex_n5-t02-hex4-wNone")]


@pytest.mark.parametrize("name, t0, hexd, wcd", REFERENCE_CASES)
def test_ball_matches_reference_enumeration(name, t0, hexd, wcd):
    cx = cover.explore(shipped(name), t0, hexd, wall_comp_depth=wcd)
    blocks, walls = reference_ball(cx)
    assert cx.block_count == len(blocks)
    ids = ball_ids(cx)
    assert ids == sorted(blocks)
    classes = set()
    for bid in ids:
        blk = cx.block(bid)
        assert (blk.labels, blk.g_vertex, blk.shift) == blocks[bid]
        sigma = path_permutation(cx.spec, blk.labels)
        assert (blk.sigma, blk.class_label) == (sigma, class_label(sigma))
        classes.add(blk.class_label)
        if bid:
            assert cx.parent_wall(bid) == walls[(bid[:-1], bid[-1])]
        assert [ci for b, ci in walls if b == bid] == list(cx.child_comps(len(bid)))
    assert tr.TreeSystem(cx).class_labels == tuple(sorted(classes))
    doc = cx.summary()
    assert doc["block_count"] == len(blocks)
    table = [(c["index"], tuple(c["min_hex"]), c["side"]) for c in doc["components"]]
    assert table == [(i, c.min_addr, c.side) for i, c in enumerate(cx.model.components)]
    if t0:  # the table's wall components are those the reference glues at the root
        root_walls = [ci for b, ci in walls if b == ()]
        assert [i for i, hexes, _ in table if wcd is None or len(hexes) <= wcd] == root_walls
    # ids outside the ball: component 0 below the root, an unknown
    # component, one level too deep
    base, fiber = hx.H0Point((), hx.CENTER), (0.0,) * (cx.spec.n - 2)
    outside = [(1, 0), (cx.wall_count,), (len(cx.model.components),), (0,) + (1,) * t0]
    for bid in outside + ids[:: max(1, len(ids) // 50)]:
        inside = bid in blocks
        assert cx.in_ball(bid) is inside
        assert cx.contains(cover.CoverPoint(bid, base, fiber)) is inside
        if not inside:
            with pytest.raises(cover.CoverError, match="not explored"):
                cx.block(bid)


def test_sampling_names_the_block_limit():
    # hex 4 glues 48 components, so t0 12 holds about 1.2e20 blocks, more
    # than an int64 index can draw; explicit deep points still work
    cx = cover.explore(shipped("two_vertex_n5"), t0_depth=12, hex_depth=4)
    assert cx.block_count > 2**63
    with pytest.raises(cover.CoverError, match=f"{cx.block_count} blocks"):
        cx.sample_point(cover.make_stream(1, 0))
    u, v = (1, 2) * 6, (1, 2) * 5 + (1, 1)
    x = cover.CoverPoint(u, hx.H0Point((1, 2), hx.CENTER), (0.5, -0.25, 1.0))
    y = cover.CoverPoint(v, hx.H0Point((0,), hx.CENTER), (0.0, 0.75, -1.0))
    for p in (x, y):
        q = cx.parse_point(cx.format_point(p))
        assert (q.block, q.base.hex, q.fiber) == (p.block, p.base.hex, p.fiber)
    assert len(cx.wall_chain(u, v)) == 2
    res = geo.distance(cx, x, y, tol=1e-6)
    assert res.truncated or res.distance > 0
    ts = tr.TreeSystem(cx)
    assert ts.phi(x).t0 == u
    assert ts.product_distance(ts.phi(x), ts.phi(y)) > 0
