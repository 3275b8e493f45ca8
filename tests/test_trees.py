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
    for t in (-1.3, 0.0, 0.61, 2.5):
        x = hx.line_point_at_lambda(comp, hx.EDGE * t)
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
    with pytest.raises(cover.CoverError):
        ts.tc_matrix(1, [tr.TcPoint(owner=(), value=0.0), tr.TcPoint(owner=(0, 1, 2), value=0.0)])


def mixed_tc_points(cx, ts, lab, seed):
    """Sampled phi_c images (vertex, edge and fiber points) over six blocks,
    explicit vertex, edge and fiber points on each of them, and repeats."""
    rng = random.Random(seed)
    blocks = rng.sample(cx.block_list, 6)
    pts = []
    for i in range(36):
        x = cx.sample_point(cover.make_stream(seed, i))
        pts.append(ts.phi_c(lab, CoverPoint(rng.choice(blocks), x.base, x.fiber)))
    for bid in blocks:
        if ts.labels[bid] == lab:
            pts.append(tr.TcPoint(bid, tree=hx.tbin_vertex((0, 1))))
            pts.append(tr.TcPoint(bid, tree=hx.tbin_edge_point((2,), (2, 0), 0.3)))
        else:
            pts.append(tr.TcPoint(bid, value=1.25))
    pts += [pts[3], pts[10], pts[-1]]
    rng.shuffle(pts)
    return pts


@pytest.mark.parametrize(
    "name, wall_comp_depth",
    [("flip_n3", None), ("flip_n3", 0), ("cycle_n4", 0), ("two_vertex_n5", 0)],
)
def test_tc_matrix_equals_pairwise_tc_distance(name, wall_comp_depth):
    cx = cover.explore(
        examples.load(name), t0_depth=2, hex_depth=4, fiber_range=3.0,
        wall_comp_depth=wall_comp_depth,
    )
    ts = tr.TreeSystem(cx)
    kinds = set()
    for lab in ts.class_labels:
        pts = mixed_tc_points(cx, ts, lab, seed=31 + lab)
        kinds |= {
            "fiber" if p.tree is None else "vertex" if p.tree.child is None else "edge"
            for p in pts
        }
        assert len(set(pts)) < len(pts)  # repeated points
        assert len({p.owner for p in pts}) < len(set(pts))  # same-owner pairs
        mat = ts.tc_matrix(lab, pts)
        assert mat.shape == (len(pts), len(pts))
        assert (mat == mat.T).all()
        assert (np.diag(mat) == 0.0).all()
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert mat[i, j] == ts.tc_distance(lab, pts[i], pts[j]), (lab, i, j)
    assert kinds == {"fiber", "vertex", "edge"}


def interleaved_tc_points(cx, ts, lab, blocks, rounds, seed):
    """One sampled phi_c image per block in each round, so that every pair
    of blocks holds points in both index orders."""
    pts = []
    for r in range(rounds):
        for k, bid in enumerate(blocks):
            x = cx.sample_point(cover.make_stream(seed, r * len(blocks) + k))
            pts.append(ts.phi_c(lab, CoverPoint(bid, x.base, x.fiber)))
    return pts


def test_tc_matrix_interleaved_block_pairs():
    relation_kinds, fiber_only = set(), 0
    for name, wall_comp_depth in (("flip_n3", None), ("cycle_n4", 0), ("two_vertex_n5", 0)):
        cx = cover.explore(
            examples.load(name), t0_depth=2, hex_depth=4, fiber_range=3.0,
            wall_comp_depth=wall_comp_depth,
        )
        ts = tr.TreeSystem(cx)
        blocks = random.Random(name).sample(cx.block_list, 8)
        for lab in ts.class_labels:
            pts = interleaved_tc_points(cx, ts, lab, blocks, rounds=8, seed=17 + lab)
            owners = [p.owner for p in pts]
            assert len(pts) >= 60 and len(set(owners)) >= 6
            for a in set(owners):
                for o in set(owners) - {a}:
                    ia = [i for i, q in enumerate(owners) if q == a]
                    io = [j for j, q in enumerate(owners) if q == o]
                    assert min(ia) < max(io) and max(ia) > min(io)  # both orders
                    route = ts.route(lab, a, o)
                    relation_kinds |= {rel.kind for rel in route.relations}
                    fiber_only += route.exit is None and route.line is None and not route.relations
            mat = ts.tc_matrix(lab, pts)
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    d = ts.tc_distance(lab, pts[i], pts[j])
                    assert type(d) is float and mat[i, j] == mat[j, i] == d, (name, lab, i, j)
            # permuting the input permutes the matrix
            perm = np.random.default_rng(lab).permutation(len(pts))
            permuted = ts.tc_matrix(lab, [pts[k] for k in perm])
            assert np.abs(permuted - mat[np.ix_(perm, perm)]).max() <= 1e-12
    assert relation_kinds == {"bridge", "overlap"}
    assert fiber_only > 0


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
    assert tr.line_relation(cx.model.components[0], far).kind == "bridge"
    for lab, src, dst in cases:
        assert len(cx.wall_chain(src.owner, dst)) >= 2
        assert ts.labels[dst] == lab
        for comp in cx.model.components[:4] + [far]:
            g, c, line = ts.line_profile(lab, src, dst, comp)
            assert line == comp and type(g) is float and type(c) is float
            for t in (-2.5, -0.75, 0.0, 0.4, 1.3, 3.0):
                dst_pt = tr.TcPoint(owner=dst, tree=hx.line_point_at_lambda(comp, hx.EDGE * t))
                assert abs(abs(t - g) + c - ts.tc_distance(lab, src, dst_pt)) <= 1e-9


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
        d = tr.tree_piece_distance(point, hx.tbin_vertex(addr))
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
        return tr.LineRelation("overlap", k1 + 0.5, k2 + 0.5, m1 + 0.5, m2 + 0.5, orient)
    d, k, m = min(
        (hx.hex_tree_edges(a, b), k, m) for a, k in in_k.items() for m, b in out
    )
    return tr.LineRelation("bridge", lam_gate=k + 0.5, mu_gate=m + 0.5, bridge=float(d))


def test_line_relation_matches_brute_force():
    comps = hx.HexModel(4).components
    kinds = set()
    for comp_in in comps:
        for comp_out in comps:
            if comp_in != comp_out:
                rel = tr.line_relation(comp_in, comp_out)
                assert rel == brute_relation(comp_in, comp_out)
                kinds.add(rel.kind)
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
