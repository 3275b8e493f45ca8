import math
from collections import Counter

import pytest

from conftest import IRREDUCIBLE_NAMES, counting, shipped
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
    assert len(path) == 1
    assert path[0].role == "base"
    assert cv.curve_length(path) == (
        geo.block_distance(cx.normalize(x), cx.normalize(y)), 0.0)


def test_endpoints_exact(cx, ts):
    for x, y, path in usable_pairs(cx, ts, 100, 20):
        xn, yn = cx.normalize(x), cx.normalize(y)
        assert path[0].points[0] == xn
        pe = path[-1].points[-1]
        assert pe.block == yn.block
        assert hx.h0_distance(pe.base, yn.base) < 1e-9
        assert all(abs(a - b) < 1e-9 for a, b in zip(pe.fiber, yn.fiber))


def test_segments_connected_and_single_block(cx, ts):
    for x, y, path in usable_pairs(cx, ts, 200, 15):
        for s in path:
            block = s.points[0].block
            assert cx.in_ball(block)
            for p in s.points:
                assert p.block == block
        for s1, s2 in zip(path, path[1:]):
            p, q = s1.points[-1], s2.points[0]
            if p.block == q.block:
                assert hx.h0_distance(p.base, q.base) < 1e-9
            else:
                # consecutive blocks share the wall point
                d = geo.distance(cx, p, q, tol=1e-8).distance
                assert d < 1e-6


def test_hops_within_delta(cx, ts):
    for x, y, path in usable_pairs(cx, ts, 300, 40):
        for s in path:
            if s.role == "hop":
                d = geo.block_distance(s.points[0], s.points[1])
                assert d <= hx.DELTA + 1e-9


def test_step_decrease(cx, ts):
    # every recursion crosses exactly one wall: tree_path/hop groups per
    # wall, so the number of "hop" segments is at most twice the chain length
    for x, y, path in usable_pairs(cx, ts, 420, 15):
        chain = cx.wall_chain(cx.normalize(x).block, cx.normalize(y).block)
        hops = sum(1 for s in path if s.role == "hop")
        assert hops <= 2 * len(chain)
        bases = sum(1 for s in path if s.role == "base")
        assert bases == 1


def test_witness_dominates_distance(cx, ts):
    for x, y, path in usable_pairs(cx, ts, 500, 30):
        L, _ = cv.curve_length(path)
        res = geo.distance(cx, x, y, tol=1e-6)
        assert res.distance <= L + 1e-9


def test_length_bound(cx, ts):
    eps = 10 * 1e-6
    for x, y, path in usable_pairs(cx, ts, 600, 60):
        L, _ = cv.curve_length(path)
        e = ts.product_distance(ts.phi(x), ts.phi(y))
        assert cv.curve_bound(e) == (2 * hx.DELTA + 1) * e + 2 * hx.DELTA
        assert L <= cv.curve_bound(e) + eps


def test_curve_length_additive(cx, ts):
    x, y, path = next(iter(usable_pairs(cx, ts, 700, 1)))
    total, longest = cv.curve_length(path)
    parts = [cv.curve_length((s,)) for s in path]
    assert abs(total - sum(length for length, _ in parts)) < 1e-12
    assert longest == max(hop for _, hop in parts) > 0.0
    assert cv.curve_length(()) == (0.0, 0.0)


def test_curve_length_sums_block_distances(cx, ts):
    # a centre-to-midpoint lift step takes its length from a table; the
    # sums stay those of block_distance over every step, bit for bit
    tabled = 0
    for x, y, path in usable_pairs(cx, ts, 800, 30):
        total = longest = 0.0
        for s in path:
            for p, q in zip(s.points, s.points[1:]):
                d = geo.block_distance(p, q)
                total += d
                longest = max(longest, d) if s.role == "hop" else longest
                tabled += s.role == "lift" and (p.base.local, q.base.local) in cv._CENTER_MIDPOINT
        assert cv.curve_length(path) == (total, longest)
    assert tabled > 20


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


def _reference_tree_path_nodes(a, b):
    """tree_path_nodes with each end's rule written out in full: kept as
    the reference for curves.tree_path_nodes."""
    if a == b:
        return [a]
    if (
        a.child is not None
        and b.child is not None
        and (a.parent, a.child) == (b.parent, b.child)
    ):
        mid = hx.tbin_edge_point(a.parent, a.child, hx.RHO)
        if (a.offset - hx.RHO) * (b.offset - hx.RHO) < 0:
            return [a, mid, b]
        return [a, b]

    _, va, vb = hx.nearest_anchors(a, b)
    nodes = [a]
    if a.child is not None:
        # leave a's edge through va, crossing the midpoint if a sits on the
        # far half of the edge
        mid = hx.tbin_edge_point(a.parent, a.child, hx.RHO)
        on_parent_half = a.offset <= hx.RHO
        toward_parent = va == a.parent
        if on_parent_half != toward_parent:
            nodes.append(mid)
        nodes.append(hx.tbin_vertex(va))
    vertices = hx.tbin_path_vertices(va, vb)
    for u, v in zip(vertices, vertices[1:]):
        nodes.append(hx.tbin_edge_point(u, v, hx.RHO))
        nodes.append(hx.tbin_vertex(v))
    if b.child is not None:
        mid = hx.tbin_edge_point(b.parent, b.child, hx.RHO)
        on_parent_half = b.offset <= hx.RHO
        toward_parent = vb == b.parent
        if on_parent_half != toward_parent:
            nodes.append(mid)
        nodes.append(b)
    out = [nodes[0]]
    for n in nodes[1:]:
        if n != out[-1]:
            out.append(n)
    return out


def test_tree_path_nodes_match_reference():
    # every pair of vertices to depth 3 and points on their edges, at
    # offsets next to the ends and on both sides of the midpoint
    offsets = (1e-9, 0.3, hx.RHO - 1e-12, hx.RHO, hx.RHO + 1e-12, hx.EDGE - 0.3, hx.EDGE - 1e-9)
    vertices = hx.hexagons_to_depth(3)
    points = [hx.tbin_vertex(v) for v in vertices] + [
        hx.tbin_edge_point(v[:-1], v, t) for v in vertices[1:] for t in offsets
    ]
    assert len(points) == 169

    def fields(nodes):
        return [(n.parent, n.child, n.offset.hex()) for n in nodes]

    for a in points:
        for b in points:
            assert fields(cv.tree_path_nodes(a, b)) == fields(_reference_tree_path_nodes(a, b))


# -- the curve loop against the recursive construction -----------------------


def _recursive_build(cplx, ts, x, y):
    """The witness curve by recursion on the wall chain, as it was built
    before the loop: kept as the reference for curves.build_special_curve."""
    x = cplx.normalize(x)
    y = cplx.normalize(y)
    if x.block == y.block:
        return (cv.PathSegment("base", (x, y)),)
    chain = cplx.wall_chain(x.block, y.block)
    can_x = chain[0][1]
    can_y = not chain[-1][1]
    assert can_x or can_y
    operate_on_x = x.block <= y.block if can_x and can_y else can_x
    if not operate_on_x:
        return _reversed(_recursive_build(cplx, ts, y, x))
    v = x.block
    label = cplx.block(v).class_label
    a_tree = hx.retract(x.base)
    g_y, _, comp_exit = ts.line_profile(label, ts.phi_c(label, y), v)
    g_x, _ = tr.gate_on_line(comp_exit, a_tree)
    t_star = min(g_x, g_y)
    lo, hi = cplx.model.arclength_window(comp_exit)
    if not (lo <= t_star <= hi):
        raise cv.CurveTruncationError(
            f"curve gate at arclength {t_star} beyond the hexagon truncation"
        )
    z_star = hx.line_point_at_lambda(comp_exit, hx.EDGE * t_star)
    lifted = tuple(
        CoverPoint(v, hx.embed_tree_point(n), x.fiber) for n in cv.tree_path_nodes(a_tree, z_star)
    )
    x2 = CoverPoint(v, cplx.model.boundary_point(comp_exit, t_star), x.fiber)
    segments = [cv.PathSegment("hop", (x, lifted[0]))]
    if len(lifted) > 1:
        segments.append(cv.PathSegment("lift", lifted))
    segments.append(cv.PathSegment("hop", (lifted[-1], x2)))
    rest = _recursive_build(cplx, ts, x2, y)
    if len(cplx.wall_chain(cplx.normalize(x2).block, y.block)) >= len(chain):
        raise RuntimeError("special-curve recursion failed to shorten the chain")
    return tuple(segments) + rest


def _reversed(path):
    """The curve `path` traversed backwards."""
    return tuple(
        cv.PathSegment(s.role, tuple(reversed(s.points)))
        for s in reversed(path)
    )


def _reference_curve(cplx, ts, x, y):
    try:
        return _recursive_build(cplx, ts, x, y)
    except hx.TruncationError as exc:
        raise cv.CurveTruncationError(str(exc)) from exc


# (t0 depth, hex depth, wall_comp_depth): chains of 1 to 8 walls, and at
# wall_comp_depth None mostly truncating curves
CURVE_CONFIGS = [(2, 4, 0), (3, 6, 0), (4, 6, 1), (2, 4, None)]


@pytest.mark.parametrize("t0, hex_depth, wcd", CURVE_CONFIGS, ids=lambda v: f"{v}")
@pytest.mark.parametrize("name", IRREDUCIBLE_NAMES)
def test_loop_matches_recursive_reference(name, t0, hex_depth, wcd):
    cplx = cover.explore(shipped(name), t0, hex_depth, fiber_range=3.0, wall_comp_depth=wcd)
    ts = tr.TreeSystem(cplx)
    built = truncated = 0
    for i in range(40):
        x = cplx.sample_point(cover.make_stream(5, 2 * i))
        y = cplx.sample_point(cover.make_stream(5, 2 * i + 1))
        try:
            want = _reference_curve(cplx, ts, x, y)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                cv.build_special_curve(cplx, ts, x, y)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            truncated += 1
            continue
        path = cv.build_special_curve(cplx, ts, x, y)
        assert len(path) == len(want)
        for s, w in zip(path, want):
            assert (s.role, s.points) == (w.role, w.points)
        built += 1
    if wcd is None:
        assert truncated > 0
    else:
        assert built > 30


# -- one normalisation per point ----------------------------------------------


@pytest.mark.parametrize("t0, hex_depth, wcd", CURVE_CONFIGS[:3], ids=lambda v: f"{v}")
def test_normalize_idempotent(t0, hex_depth, wcd):
    # the curve and the records normalise each point once and then reuse it
    cplx = cover.explore(shipped("two_vertex_n5"), t0, hex_depth, fiber_range=3.0,
                         wall_comp_depth=wcd)
    ts = tr.TreeSystem(cplx)

    def once(p):
        q = cplx.normalize(p)
        assert cplx.normalize(q) == q
        return q

    points = [cplx.sample_point(cover.make_stream(9, i)) for i in range(60)]
    hop_points = 0
    for x, y in zip(points[::2], points[1::2]):
        once(x), once(y)
        try:
            path = cv.build_special_curve(cplx, ts, x, y)
        except cv.CurveTruncationError:
            continue
        for s in path:
            for p in s.points:  # the wall points x2 end or start hop segments
                once(p)
            hop_points += s.role == "hop"
    assert hop_points > 0
    # wall points at integer arclengths sit on hexagon corners, on both
    # sides of the wall
    corners = 0
    fiber = (0.5,) * (cplx.spec.n - 2)
    for bid in (cplx.block_at(i) for i in range(1, min(cplx.block_count, 40))):
        w = cplx.parent_wall(bid)
        for side_block, child_side in ((w.parent, False), (w.child, True)):
            comp = cplx.wall_component(w, child_side)
            lo, hi = cplx.model.arclength_window(comp)
            for t in range(math.ceil(lo), math.floor(hi) + 1):
                p = CoverPoint(side_block, cplx.model.boundary_point(comp, float(t)), fiber)
                assert once(p).block == w.parent
                corners += 1
    assert corners > 0


def test_curve_counts_one_chain_and_one_normalize_per_point(monkeypatch):
    # machine-independent cost of a curve of k walls: one wall chain, the
    # two ends normalised once each, and each of the k wall points x2 once
    cplx = cover.explore(shipped("cycle_n4"), 3, 6, fiber_range=3.0, wall_comp_depth=0)
    ts = tr.TreeSystem(cplx)
    calls = Counter()
    for attr in ("normalize", "wall_chain"):
        monkeypatch.setattr(cplx, attr, counting(calls, attr, getattr(cplx, attr)))
    walls = Counter()
    for i in range(30):
        x = cplx.sample_point(cover.make_stream(11, 2 * i))
        y = cplx.sample_point(cover.make_stream(11, 2 * i + 1))
        xn, yn = cplx.normalize(x), cplx.normalize(y)
        k = len(cplx.wall_chain(xn.block, yn.block)) if xn.block != yn.block else 0
        calls.clear()
        path = cv.build_special_curve(cplx, ts, x, y)
        hops = sum(s.role == "hop" for s in path)
        assert hops == 2 * k
        assert calls == Counter(normalize=2 + k, wall_chain=1 if k else 0)
        walls[k] += 1
    assert max(walls) >= 3
