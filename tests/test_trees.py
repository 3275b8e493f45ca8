import math
import random

import numpy as np
import pytest

from ogm import cover, examples
from ogm import geodesics as geo
from ogm import hexagon as hx
from ogm import trees as tr
from ogm.cover import CoverPoint


@pytest.fixture(scope="module")
def cx():
    return cover.explore(examples.load("flip_n3"), t0_depth=2, hex_depth=4)


@pytest.fixture(scope="module")
def ts(cx):
    return tr.TreeSystem(cx)


def sample(cx, i):
    return cx.sample_point(cover.make_stream(99, i))


def test_class_labels_flip_parity(cx, ts):
    assert ts.class_labels == (0, 1)
    for bid in cx.block_list:
        assert ts.labels[bid] == len(bid) % 2


def test_phi0_interior_and_wall(cx, ts):
    x = CoverPoint((3,), hx.H0Point((1, 2), hx.CENTER), (0.5,))
    assert ts.phi0(x) == (3,)
    w = cx.walls[((), 3)]
    wp = cx.point_from_wall_coords(w, (0.5, 1.0), child_side=True)
    assert ts.phi0(wp) == ()  # lower rank wins on walls


def test_phi0_lipschitz_sampled(cx, ts):
    for i in range(60):
        x, y = sample(cx, 2 * i), sample(cx, 2 * i + 1)
        res = geo.distance(cx, x, y, tol=1e-5)
        if res.truncated:
            continue
        t0d = ts.t0_distance(ts.phi0(x), ts.phi0(y))
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
    sigma = ts.sigma[(3,)]
    assert sigma(0) == 1


def test_phi_c_well_defined_on_walls(cx, ts):
    w = cx.walls[((), 5)]
    for lab in ts.class_labels:
        for i in range(20):
            r = cover.make_stream(17, i)
            coords = (float(r.uniform(-2, 3)), float(r.uniform(-4, 4)))
            p1 = cx.point_from_wall_coords(w, coords, child_side=False)
            p2 = cx.point_from_wall_coords(w, coords, child_side=True)
            a, b = ts.phi_c(lab, p1), ts.phi_c(lab, p2)
            assert ts.tc_distance(lab, a, b) < 1e-9


def test_wall_push_back_exact(cx):
    comp = cx.model.components[0]
    g = hx.boundary_retraction_profile(comp)
    for t in (-1.3, 0.0, 0.61, 2.5):
        x = g(t)
        lam = hx.line_lambda_of_point(comp, x)
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
    w = cx.walls[((), 3)]
    comp_in = cx.wall_component(w, child_side=True)
    g = hx.boundary_retraction_profile(comp_in)
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
            abs(t - v0) + hx.tbin_distance(g(t), btree) / hx.EDGE for t in tgrid
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
            assert abs(fwd - rev) <= 1e-9
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
    cx3 = cover.explore(examples.load("flip_n3"), t0_depth=3, hex_depth=2)
    ts3 = tr.TreeSystem(cx3)
    u, mid, v = (3,), (3, 7), (3, 7, 9)
    assert ts3.labels[u] == 1 and ts3.labels[mid] == 0 and ts3.labels[v] == 1
    w1 = cx3.walls[((3,), 7)]
    w2 = cx3.walls[((3, 7), 9)]
    comp_u = cx3.wall_component(w1, child_side=False)
    comp_v = cx3.wall_component(w2, child_side=True)
    gu = hx.boundary_retraction_profile(comp_u)
    gv = hx.boundary_retraction_profile(comp_v)
    rng = random.Random(0)
    lo_u, hi_u = cx3.model.arclength_window(comp_u)
    for _ in range(100):
        t1 = rng.uniform(max(lo_u, -1.0), min(hi_u, 1.9))
        t2 = rng.uniform(max(lo_u, -1.0), min(hi_u, 1.9))
        du = hx.tbin_distance(gu(t1), gu(t2))
        dv = hx.tbin_distance(gv(t1), gv(t2))
        assert abs(du - dv) < 1e-6


def test_phi_product_zero_and_fiber_shift(cx, ts):
    x = sample(cx, 500)
    px = ts.phi(x)
    assert ts.product_distance(px, px) == 0.0
    # fiber shift: only the class reading that coordinate moves
    shift = 1.375
    y = CoverPoint(x.block, x.base, (x.fiber[0] + shift,))
    py = ts.phi(y)
    own = ts.labels[x.block]
    other = 1 - own
    assert ts.tc_distance(own, px.coord(own), py.coord(own)) == 0.0
    assert abs(ts.tc_distance(other, px.coord(other), py.coord(other)) - shift) < 1e-12
    assert abs(ts.product_distance(px, py) - shift) < 1e-12


def test_product_upper_bound_sampled(cx, ts):
    g = hx.hexagon_constants()
    bound = 2 * g.delta * (cx.spec.n - 1) + 1
    eps = 10 * 1e-6
    for i in range(40):
        x, y = sample(cx, 600 + 2 * i), sample(cx, 601 + 2 * i)
        res = geo.distance(cx, x, y, tol=1e-6)
        if res.truncated:
            continue
        e = ts.product_distance(ts.phi(x), ts.phi(y))
        assert e <= bound * res.distance + 1 + eps


def test_phi_c_lipschitz_sampled(cx, ts):
    g = hx.hexagon_constants()
    eps = 10 * 1e-6
    for i in range(40):
        x, y = sample(cx, 700 + 2 * i), sample(cx, 701 + 2 * i)
        res = geo.distance(cx, x, y, tol=1e-6)
        if res.truncated:
            continue
        for lab in ts.class_labels:
            dtc = ts.tc_distance(lab, ts.phi_c(lab, x), ts.phi_c(lab, y))
            assert dtc <= 2 * g.delta * res.distance + eps


def test_unexplored_owner_rejected(ts):
    with pytest.raises(cover.CoverError):
        ts.tc_distance(1, tr.TcPoint(owner=(0, 1, 2), value=0.0), tr.TcPoint(owner=(), value=0.0))


def test_line_profile_matches_tc_distance(cx, ts):
    # dst blocks two or three walls from src, entered from above and from
    # below; the profile is exact on any chain line of the dst piece
    cases = [
        (0, tr.TcPoint(owner=(), tree=hx.tbin_edge_point((0,), (0, 1), 0.3)), (3, 7)),
        (1, tr.TcPoint(owner=(3,), tree=hx.tbin_vertex((1, 2))), (5,)),
        (1, tr.TcPoint(owner=(3, 7), value=0.8), (5,)),
    ]
    # every dst is entered through components[0]; the far line is bridged to it
    far = hx.ComponentId((0, 2), 1)
    assert tr.line_relation(cx.model.components[0], far, ts.positions).kind == "bridge"
    for lab, src, dst in cases:
        assert len(cx.wall_chain(src.owner, dst)) >= 2
        assert ts.labels[dst] == lab
        for comp in cx.model.components[:4] + [far]:
            g, c, line = ts.line_profile(lab, src, dst, comp)
            assert line == comp
            for t in (-2.5, -0.75, 0.0, 0.4, 1.3, 3.0):
                dst_pt = tr.TcPoint(owner=dst, tree=hx.line_point_at_lambda(comp, hx.EDGE * t))
                assert abs(abs(t - g) + c - ts.tc_distance(lab, src, dst_pt)) <= 1e-9
