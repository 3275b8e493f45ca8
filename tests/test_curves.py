import math

import pytest

from conftest import shipped
from ogm import cover, curves as cv
from ogm import geodesics as geo
from ogm import hexagon as hx
from ogm import trees as tr
from ogm.cover import CoverPoint


@pytest.fixture(scope="module")
def cx():
    return cover.explore(
        shipped("flip_n3"),
        t0_depth=2,
        hex_depth=4,
        fiber_range=3.0,
        wall_comp_depth=0,
    )


@pytest.fixture(scope="module")
def ts(cx):
    return tr.TreeSystem(cx)


def sample(cx, i):
    return cx.sample_point(cover.make_stream(31, i))


def usable_pairs(cx, ts, start, count):
    i = start
    found = 0
    while found < count:
        x, y = sample(cx, 2 * i), sample(cx, 2 * i + 1)
        i += 1
        try:
            path = cv.build_special_curve(cx, ts, x, y)
        except cv.CurveTruncationError:
            continue
        found += 1
        yield x, y, path


def test_same_block_single_geodesic(cx, ts):
    x, y = sample(cx, 0), sample(cx, 1)
    y = CoverPoint(x.block, y.base, y.fiber)
    path = cv.build_special_curve(cx, ts, x, y)
    assert len(path.segments) == 1
    assert path.segments[0].kind == "geodesic"
    assert cv.curve_length(cx, path) == geo.block_distance(
        cx, cx.normalize(x), cx.normalize(y)
    )


def test_endpoints_exact(cx, ts):
    for x, y, path in usable_pairs(cx, ts, 100, 20):
        xn, yn = cx.normalize(x), cx.normalize(y)
        assert path.segments[0].points[0] == xn
        pe = path.segments[-1].points[-1]
        assert pe.block == yn.block
        assert hx.h0_distance(pe.base, yn.base) < 1e-9
        assert all(abs(a - b) < 1e-9 for a, b in zip(pe.fiber, yn.fiber))


def test_segments_connected_and_single_block(cx, ts):
    for x, y, path in usable_pairs(cx, ts, 200, 15):
        for s in path.segments:
            assert cx.in_ball(s.block)
            for p in s.points:
                assert p.block == s.block
        for s1, s2 in zip(path.segments, path.segments[1:]):
            p, q = s1.points[-1], s2.points[0]
            if p.block == q.block:
                assert hx.h0_distance(p.base, q.base) < 1e-9
            else:
                # consecutive blocks share the wall point
                d = geo.distance(cx, p, q, tol=1e-8).distance
                assert d < 1e-6


def test_hops_within_delta(cx, ts):
    for x, y, path in usable_pairs(cx, ts, 300, 40):
        for s in path.segments:
            if s.role == "hop":
                d = geo.block_distance(cx, s.points[0], s.points[1])
                assert d <= hx.DELTA + 1e-9


def test_step_decrease(cx, ts):
    # every recursion crosses exactly one wall: tree_path/hop groups per
    # wall, so the number of "hop" segments is at most twice the chain length
    for x, y, path in usable_pairs(cx, ts, 420, 15):
        chain = cx.wall_chain(cx.normalize(x).block, cx.normalize(y).block)
        hops = sum(1 for s in path.segments if s.role == "hop")
        assert hops <= 2 * len(chain)
        bases = sum(1 for s in path.segments if s.role == "base")
        assert bases == 1


def test_witness_dominates_distance(cx, ts):
    for x, y, path in usable_pairs(cx, ts, 500, 30):
        L = cv.curve_length(cx, path)
        res = geo.distance(cx, x, y, tol=1e-6)
        assert res.distance <= L + 1e-9


def test_length_bound(cx, ts):
    eps = 10 * 1e-6
    for x, y, path in usable_pairs(cx, ts, 600, 60):
        L = cv.curve_length(cx, path)
        e = ts.product_distance(ts.phi(x), ts.phi(y))
        assert L <= (2 * hx.DELTA + 1) * e + 2 * hx.DELTA + eps


def test_curve_length_additive(cx, ts):
    x, y, path = next(iter(usable_pairs(cx, ts, 700, 1)))
    total = cv.curve_length(cx, path)
    parts = sum(
        cv.curve_length(cx, cv.BlockPath((s,))) for s in path.segments
    )
    assert abs(total - parts) < 1e-12
    empty = cv.BlockPath(())
    assert cv.curve_length(cx, empty) == 0.0


def test_tree_path_nodes_structure():
    a = hx.tbin_edge_point((), (0,), 0.3)
    b = hx.tbin_edge_point((1,), (1, 2), hx.EDGE - 0.2)
    nodes = cv.tree_path_nodes(a, b)
    assert nodes[0] == a and nodes[-1] == b
    # consecutive embedded nodes lie in one closed hexagon: their distance
    # realizes the full polyline (within roundoff, each arc is a geodesic)
    total = sum(
        hx.h0_distance(hx.embed_tree_point(p), hx.embed_tree_point(q))
        for p, q in zip(nodes, nodes[1:])
    )
    tree_len = hx.tbin_distance(a, b)
    assert abs(total - tree_len * hx.HALF_EDGE_EMBEDDED / hx.RHO) < 1e-9


def test_tree_path_same_edge():
    a = hx.tbin_edge_point((), (0,), 0.4)
    b = hx.tbin_edge_point((), (0,), hx.EDGE - 0.1)
    nodes = cv.tree_path_nodes(a, b)
    assert nodes[0] == a and nodes[-1] == b
    assert len(nodes) == 3  # crosses the midpoint
    c = hx.tbin_edge_point((), (0,), 0.9)
    assert cv.tree_path_nodes(a, c) == [a, c]
