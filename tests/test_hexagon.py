import math
import random

import numpy as np
import pytest

from ogm import hexagon as hx


def tangent_toward(x, y):
    d = hx.dist_chart(x, y)
    sh = math.sinh(d)
    return tuple((y[i] + hx.mdot(x, y) * x[i]) / sh for i in range(3))


def test_side_length_pins_cosh_two():
    # independent oracle: u = cosh(s) solves u^2 - u - 2 = 0, positive root 2
    u = math.cosh(hx.S)
    assert abs(u - 2.0) < 1e-12
    assert abs(hx.S - math.log(2.0 + math.sqrt(3.0))) < 1e-12
    assert hx.KAPPA == hx.S ** 2


def test_vertices_realize_unit_sides():
    for j in range(6):
        d = hx.dist_chart(hx.VERTICES[(j - 1) % 6], hx.VERTICES[j]) / hx.S
        assert abs(d - 1.0) < 1e-12


def test_rho_against_saccheri_identity():
    # Saccheri quadrilateral with legs s/2, base s: summit = distance between
    # the midpoints of the two sides flanking the base
    s = hx.S
    summit = math.cosh(s / 2) ** 2 * math.cosh(s) - math.sinh(s / 2) ** 2
    assert abs(summit - 2.5) < 1e-12
    assert abs(math.cosh(hx.RHO * s) - summit) < 1e-12
    # and against the explicit chart midpoints of marked sides 0 and 2
    d = hx.dist_chart(hx.MIDPOINTS[0], hx.MIDPOINTS[2]) / s
    assert abs(d - hx.RHO) < 1e-12


def test_delta_is_max_vertex_distance():
    dm = max(hx.dist_chart(a, b) for a in hx.VERTICES for b in hx.VERTICES)
    assert abs(dm / hx.S - hx.DELTA) < 1e-12
    assert hx.DELTA >= hx.RHO > 0.0


def test_all_angles_right():
    for k in range(6):
        v = hx.VERTICES[k]
        t1 = tangent_toward(v, hx.VERTICES[(k - 1) % 6])
        t2 = tangent_toward(v, hx.VERTICES[(k + 1) % 6])
        ang = math.acos(max(-1.0, min(1.0, hx.mdot(t1, t2))))
        assert abs(ang - math.pi / 2) < 1e-9


def test_hexagon_closure_march():
    # walk six sides of chart length S turning pi/2 each time; must return
    x = np.array(hx.VERTICES[0])
    y = np.array(hx.VERTICES[1])
    v = np.array(tangent_toward(tuple(x), tuple(y)))
    eta = np.array([-1.0, 1.0, 1.0])
    for _ in range(6):
        x, v = (
            x * math.cosh(hx.S) + v * math.sinh(hx.S),
            x * math.sinh(hx.S) + v * math.cosh(hx.S),
        )
        w = eta * np.cross(x, v)
        v = v * math.cos(math.pi / 2) + w * math.sin(math.pi / 2)
    assert np.abs(x - np.array(hx.VERTICES[0])).max() < 1e-9


def test_develop_identity_and_involution():
    assert hx.develop_matrix(()) == hx._IDENTITY
    # a reflection word's inverse is the reversed word
    for word, back in (((0,), (0,)), ((0, 1), (1, 0)), ((1, 2), (2, 1))):
        prod = hx.mat_mul(hx.develop_matrix(word), hx.develop_matrix(back))
        err = max(
            abs(prod[i][j] - (1.0 if i == j else 0.0)) for i in range(3) for j in range(3)
        )
        assert err < 1e-12


def test_develop_preserves_vertex_distances():
    m = hx.develop_matrix((0, 1))
    imgs = [hx.mat_vec(m, v) for v in hx.VERTICES]
    for a in range(6):
        for b in range(6):
            d0 = hx.dist_chart(hx.VERTICES[a], hx.VERTICES[b])
            d1 = hx.dist_chart(imgs[a], imgs[b])
            assert abs(d0 - d1) < 1e-10


def test_h0_distance_basics():
    p = hx.H0Point((), hx.CENTER)
    assert hx.h0_distance(p, p) == 0.0
    a = hx.H0Point((), hx.VERTICES[5])
    b = hx.H0Point((), hx.VERTICES[0])
    assert abs(hx.h0_distance(a, b) - 1.0) < 1e-9


def test_h0_distance_path_independence():
    # same geometric point addressed through two different hexagons
    rng = random.Random(7)
    for _ in range(50):
        addr = ()
        for _ in range(3):
            letter = rng.randrange(3)
            addr = hx.extend(addr, letter)
        x = hx.H0Point(addr, hx.MIDPOINTS[2 * (addr[-1] if addr else 0)])
        # detour representation: reflect into the neighbor across that side
        letter = addr[-1] if addr else 0
        y = hx.H0Point(
            hx.extend(addr, letter), hx.mat_vec(hx.REFLECTIONS[letter], x.local)
        )
        assert hx.h0_distance(x, y) < 1e-9
        probe = hx.H0Point((), hx.CENTER)
        assert abs(hx.h0_distance(probe, x) - hx.h0_distance(probe, y)) < 1e-9


def test_h0_triangle_inequality_sampled():
    rng = random.Random(3)
    model = hx.HexModel(3)
    pts = []
    for _ in range(120):
        a = model.hexagons[rng.randrange(len(model.hexagons))]
        pts.append(hx.H0Point(a, model.sample_local(rng)))
    for _ in range(10_000):
        p, q, r = rng.sample(pts, 3)
        dpq = hx.h0_distance(p, q)
        dqr = hx.h0_distance(q, r)
        dpr = hx.h0_distance(p, r)
        assert dpr <= dpq + dqr + 1e-9
        assert abs(dpq - hx.h0_distance(q, p)) < 1e-12


def test_retract_fixes_embedded_locus():
    # hexagon centers map to their vertex, marked-side midpoints to the
    # edge midpoint, both exactly, across 1000 locus points
    addresses = hx.hexagons_to_depth(7)[:250]
    for addr in addresses:
        assert hx.retract(hx.H0Point(addr, hx.CENTER)) == hx.tbin_vertex(addr)
        for letter in range(3):
            r = hx.retract(hx.H0Point(addr, hx.MIDPOINTS[2 * letter]))
            expect = hx.tbin_edge_point(addr, hx.extend(addr, letter), hx.RHO)
            assert r == expect


def test_retract_clamps_far_points():
    # all three marked-side distances >= 1/2 at the center (they equal
    # R_IN/S ~ 0.669), so the center and nearby points clamp to the vertex
    d = hx._side_distances(hx.CENTER)
    assert all(x >= 0.5 for x in d)
    assert hx.retract(hx.H0Point((), hx.CENTER)) == hx.tbin_vertex(())


def test_retract_consistent_across_side():
    rng = random.Random(11)
    for _ in range(200):
        tau = rng.random()
        local = hx.boundary_point_local(1, tau)
        # fake: use a marked side instead - construct point on marked side 0
        arc = rng.random() * hx.S
        lo, hi = hx.VERTICES[5], hx.VERTICES[0]
        p_local = hx._geodesic_point(lo, hi, arc)
        p = hx.H0Point((), p_local)
        q = hx.H0Point((0,), hx.mat_vec(hx.REFLECTIONS[0], p_local))
        assert hx.tbin_distance(hx.retract(p), hx.retract(q)) < 1e-9


def test_retract_image_of_hexagon_within_tripod():
    rng = random.Random(5)
    model = hx.HexModel(2)
    pts = [hx.H0Point((0,), model.sample_local(rng)) for _ in range(400)]
    images = [hx.retract(p) for p in pts]
    dm = max(
        hx.tbin_distance(a, b) for a in images[:80] for b in images[:80]
    )
    assert dm <= hx.EDGE + 1e-12
    # a point and its retraction stay in one closed hexagon
    for p, t in zip(pts, images):
        assert hx.h0_distance(p, hx.embed_tree_point(t)) <= hx.DELTA + 1e-12


def test_retract_lipschitz_sampled():
    rng = random.Random(1)
    model = hx.HexModel(3)
    worst = 0.0
    for i in range(20_000):
        a = model.hexagons[rng.randrange(len(model.hexagons))]
        p = hx.H0Point(a, model.sample_local(rng))
        if i % 2 == 0:
            q = hx.H0Point(a, model.sample_local(rng))
        else:
            q = hx.H0Point(hx.extend(a, rng.randrange(3)), model.sample_local(rng))
        d = hx.h0_distance(p, q)
        if d < 1e-9:
            continue
        worst = max(worst, hx.tbin_distance(hx.retract(p), hx.retract(q)) / d)
    assert worst <= 2 * hx.DELTA


def test_tbin_distance():
    assert hx.tbin_distance(hx.tbin_vertex(()), hx.tbin_vertex(())) == 0.0
    assert hx.tbin_distance(hx.tbin_vertex(()), hx.tbin_vertex((1,))) == hx.EDGE
    # vertex -> midpoint of an edge hanging one vertex away
    mid = hx.tbin_edge_point((1,), (1, 0), hx.RHO)
    assert abs(hx.tbin_distance(hx.tbin_vertex(()), mid) - 3 * hx.RHO) < 1e-12
    # same-edge points
    a = hx.tbin_edge_point((), (2,), 0.3)
    b = hx.tbin_edge_point((), (2,), 1.1)
    assert abs(hx.tbin_distance(a, b) - 0.8) < 1e-12
    # offset 0 normalizes to the vertex
    assert hx.tbin_edge_point((), (2,), 0.0) == hx.tbin_vertex(())
    assert hx.tbin_edge_point((), (2,), hx.EDGE) == hx.tbin_vertex((2,))


def test_boundary_param_roundtrip():
    comp = hx.component_of((), 1)
    rng = random.Random(0)
    for _ in range(500):
        t = rng.uniform(-3.9, 4.9)
        p = hx.boundary_point(comp, t, depth=4)
        bc = hx.boundary_param(p)
        assert bc.component == comp
        assert abs(bc.arclength - t) < 1e-10


def test_boundary_origin_and_unit_segment():
    comp = hx.component_of((), 1)
    origin = hx.boundary_point(comp, 0.0, depth=4)
    assert origin.hex == ()
    assert hx.dist_chart(origin.local, hx.VERTICES[0]) < 1e-12
    far = hx.boundary_point(comp, 1.0, depth=4)
    assert abs(hx.h0_distance(origin, far) - 1.0) < 1e-12


def test_boundary_arclength_isometric_along_line():
    comp = hx.component_of((), 1)
    rng = random.Random(2)
    for _ in range(300):
        t1, t2 = rng.uniform(-3, 4), rng.uniform(-3, 4)
        p1 = hx.boundary_point(comp, t1, depth=4)
        p2 = hx.boundary_point(comp, t2, depth=4)
        assert abs(hx.h0_distance(p1, p2) - abs(t1 - t2)) < 1e-9


def test_line_frame_closed_form():
    # the distance from a point to a boundary line in closed form from the
    # line frame, against h0_distance of the boundary point
    rng = random.Random(6)
    for depth, roots_only in ((4, False), (6, True)):
        model = hx.HexModel(depth)
        comps = [c for c in model.components if not roots_only or c.min_addr == ()]
        for comp in comps:
            o, w = model.line_frame(comp)
            lo, hi = model.arclength_window(comp)
            for _ in range(3):
                p = hx.H0Point(rng.choice(model.hexagons), model.sample_local(rng))
                big_p = p.root_chart()
                for i in range(9):
                    t = lo + (hi - lo) * i / 8
                    c = -hx.mdot(big_p, o) * math.cosh(hx.S * t) \
                        - hx.mdot(big_p, w) * math.sinh(hx.S * t)
                    d = math.acosh(max(c, 1.0)) / hx.S
                    assert abs(d - hx.h0_distance(p, model.boundary_point(comp, t))) < 1e-9
    with pytest.raises(hx.TruncationError):
        hx.HexModel(2).line_frame(hx.component_of((0, 1, 2), 1))


def test_boundary_param_rejects_interior():
    with pytest.raises(hx.NotOnBoundaryError):
        hx.boundary_param(hx.H0Point((), hx.CENTER))


def test_boundary_profile():
    comp = hx.component_of((), 1)

    def g(t):
        return hx.line_point_at_lambda(comp, hx.EDGE * t)

    # grid corner -> midpoint of the shared marked side's edge
    assert g(0.0) == hx.tbin_edge_point((), (0,), hx.RHO)
    # equidistant point -> the hexagon's tree vertex
    assert g(0.5) == hx.tbin_vertex(())
    # matches the retraction restricted to the line
    rng = random.Random(4)
    for _ in range(500):
        t = rng.uniform(-3.9, 4.9)
        p = hx.boundary_point(comp, t, depth=4)
        assert hx.tbin_distance(hx.retract(p), g(t)) < 1e-9


def test_boundary_profile_monotone():
    comp = hx.component_of((), 1)
    rng = random.Random(9)
    for _ in range(10_000):
        t1 = rng.uniform(-3.9, 4.8)
        t2 = t1 + rng.random() * 0.5
        lam1 = hx.line_lambda_of_point(comp, hx.line_point_at_lambda(comp, hx.EDGE * t1))
        lam2 = hx.line_lambda_of_point(comp, hx.line_point_at_lambda(comp, hx.EDGE * t2))
        assert lam2 >= lam1
        assert abs((lam2 - lam1) - hx.EDGE * (t2 - t1)) < 1e-9


def test_truncation_errors():
    comp = hx.component_of((), 1)
    with pytest.raises(hx.TruncationError):
        hx.boundary_point(comp, 7.2, depth=4)
    model = hx.HexModel(2)
    with pytest.raises(hx.TruncationError):
        model.check_address((0, 1, 0))


def test_embedded_half_edge_short():
    # lifted tree paths must not exceed their tree length
    assert hx.HALF_EDGE_EMBEDDED <= hx.RHO
    mid = hx.embed_tree_point(hx.tbin_edge_point((), (0,), hx.RHO))
    assert hx.dist_chart(mid.local, hx.MIDPOINTS[0]) < 1e-12


def test_component_enumeration_count():
    # one new component per non-root hexagon plus three at the root
    for depth in (1, 2, 3, 4):
        model = hx.HexModel(depth)
        assert len(model.components) == 3 * 2 ** depth


def test_normalize_point_on_marked_side():
    p = hx.H0Point((0,), hx.mat_vec(hx.REFLECTIONS[0], hx.MIDPOINTS[0]))
    q = hx.normalize_point(p)
    assert q.hex == ()
    assert hx.dist_chart(q.local, hx.MIDPOINTS[0]) < 1e-12
