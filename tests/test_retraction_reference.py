"""Slow references for the retraction sample and the primitives it shares
with the records and the covering report.

Each reference below is the straightforward form of its primitive: polar
rejection through a generator over the side normals, retraction through a
keyed argmin and an oriented, clamped edge point, and T_bin distance as the
least anchor sum over every anchor pair with a prefix walk for each.  The fast forms
must agree with them bit for bit (==, never approx), and consume the random
stream identically, because reports quote the sampled values exactly.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from ogm import hexagon as hx
from ogm import verify as vf
from ogm.cover import make_stream


def ref_contains_local(x, tol=1e-9):
    return all(hx.mdot(x, n) <= tol for n in hx.SIDE_NORMALS)


def ref_sample_local(rng):
    peak = math.cosh(hx.R_CIRC) - 1.0
    while True:
        r = math.acosh(1.0 + rng.random() * peak)
        psi = rng.random() * 2.0 * math.pi
        x = (math.cosh(r), math.sinh(r) * math.cos(psi), math.sinh(r) * math.sin(psi))
        if ref_contains_local(x, 0.0):
            return x


def ref_marked_side_distances(p):
    out = []
    for i in range(3):
        v = -hx.mdot(p.local, hx.SIDE_NORMALS[2 * i])
        out.append(math.asinh(v) / hx.S if v > 1e-12 else 0.0)
    return tuple(out)


def ref_tbin_edge_point(a, b, offset_from_a):
    if len(b) < len(a):
        a, b, offset_from_a = b, a, hx.EDGE - offset_from_a
    if offset_from_a <= 0.0:
        return hx.TbinPoint(a)
    if offset_from_a >= hx.EDGE:
        return hx.TbinPoint(b)
    return hx.TbinPoint(a, b, offset_from_a)


def ref_retract(p):
    d = ref_marked_side_distances(p)
    i = min(range(3), key=lambda j: (d[j], j))
    f = hx.RHO * max(0.0, 1.0 - 2.0 * d[i])
    if f == 0.0:
        return hx.TbinPoint(p.hex)
    return ref_tbin_edge_point(p.hex, hx.extend(p.hex, i), f)


def ref_tree_edges(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return len(a) + len(b) - 2 * n


def ref_tbin_anchors(p):
    if p.child is None:
        return [(p.parent, 0.0)]
    return [(p.parent, p.offset), (p.child, hx.EDGE - p.offset)]


def ref_nearest_anchors(x, y):
    best = None
    for va, da in ref_tbin_anchors(x):
        for vb, db in ref_tbin_anchors(y):
            tot = da + db + hx.EDGE * ref_tree_edges(va, vb)
            if best is None or tot < best[0]:
                best = (tot, va, vb)
    return best


def ref_tbin_distance(x, y):
    if x.child is not None and y.child is not None and x.parent == y.parent \
            and x.child == y.child:
        return abs(x.offset - y.offset)
    return ref_nearest_anchors(x, y)[0]


def ref_retraction_lipschitz(model, pairs, seed):
    rng = make_stream(seed, 0)
    worst = 0.0
    nhex = len(model.hexagons)
    for i in range(pairs):
        a = model.hexagons[int(rng.integers(0, nhex))]
        p = hx.H0Point(a, ref_sample_local(rng))
        if i % 2 == 0:
            q = hx.H0Point(a, ref_sample_local(rng))
            q_local = q.local
        else:
            letter = int(rng.integers(0, 3))
            q = hx.H0Point(hx.extend(a, letter), ref_sample_local(rng))
            q_local = hx.mat_vec(hx.REFLECTIONS[letter], q.local)
        d = hx.dist_chart(p.local, q_local) / hx.S
        if d < vf.RETRACTION_MIN_SEPARATION:
            continue
        dt = ref_tbin_distance(ref_retract(p), ref_retract(q))
        worst = max(worst, dt / d)
    return worst


# ---------------------------------------------------------------------------
# the primitives


def random_locals(seed, count):
    rng = random.Random(seed)
    return [ref_sample_local(rng) for _ in range(count)]


def off_side(side, tau, t):
    """Local point at parameter tau along the geodesic of hexagon side
    `side`, moved t inward along its normal: -<x, n> = sinh(t) exactly in
    real arithmetic, so t near 1e-12 straddles the snap to the side."""
    lo, hi = hx.VERTICES[(side - 1) % 6], hx.VERTICES[side % 6]
    x = hx._geodesic_point(lo, hi, tau * hx.S)
    n = hx.SIDE_NORMALS[side]
    return tuple(math.cosh(t) * x[k] - math.sinh(t) * n[k] for k in range(3))


SNAP_OFFSETS = (0.0, -3e-13, 1e-13, 5e-13, 9.9e-13, 1e-12, 1.01e-12, 2e-12, 1e-9, 1e-6)


def case_locals():
    """Local points of every branch: on-side and near-side points of all six
    sides around the 1e-12 snap, unmarked-side midpoints (two marked sides
    at 1/2), the center and the marked midpoints, and sampled points."""
    pts = [hx.CENTER, *hx.MIDPOINTS, *hx.VERTICES]
    for side in range(6):
        for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
            pts.extend(off_side(side, tau, t) for t in SNAP_OFFSETS)
    return pts + random_locals(17, 300)


# the root, its children, and hexagons whose last letter makes the edge
# across that marked side point toward the parent
CASE_HEXAGONS = [(), (0,), (1,), (2,), (0, 1), (2, 0, 1), (1, 2, 1, 0)]


def case_points():
    return [hx.H0Point(a, x) for a in CASE_HEXAGONS for x in case_locals()]


def test_case_points_reach_every_retract_branch():
    images = [(p, ref_retract(p)) for p in case_points()]
    vertex = [t for _, t in images if t.child is None]
    toward_parent = [t for p, t in images if t.child == p.hex]
    assert vertex and toward_parent
    assert any(t.parent == () for _, t in images)
    snapped = [p for p in case_points() if 0.0 in ref_marked_side_distances(p)]
    assert snapped
    # a snap, and its absence just past 1e-12
    assert any(0.0 < min(ref_marked_side_distances(hx.H0Point((), off_side(0, 0.5, t))))
               < 1e-11 for t in (1.01e-12, 2e-12))


def test_side_distances_and_retract_match_reference():
    for p in case_points():
        assert hx._side_distances(p.local) == ref_marked_side_distances(p)
        assert hx.retract(p) == ref_retract(p)


def test_contains_local_matches_reference():
    xs = case_locals() + [hx._polar(r, psi) for r in (0.5, 0.9, 1.1, 1.3)
                          for psi in np.linspace(0.0, 2 * math.pi, 37)]
    for x in xs:
        for tol in (0.0, 1e-12, 1e-9, -1e-12):
            assert hx.contains_local(x, tol) == ref_contains_local(x, tol)
    assert hx.contains_local((math.nan, 0.0, 0.0)) == ref_contains_local((math.nan, 0.0, 0.0))


@pytest.mark.parametrize("make", [lambda: random.Random(3), lambda: make_stream(3, 0)])
def test_sample_local_matches_reference_stream(make):
    model = hx.HexModel(2)
    fast, slow = make(), make()
    assert [model.sample_local(fast) for _ in range(2000)] \
        == [ref_sample_local(slow) for _ in range(2000)]
    assert fast.random() == slow.random()  # the same number of draws


def tree_case_points():
    """Retractions of the case points and of points sampled over a deeper
    model, plus vertices and edge points with offsets at and next to the
    clamps, across several tree distances."""
    model = hx.HexModel(4)
    rng = make_stream(11, 0)
    pts = [ref_retract(p) for p in case_points()[::29]]
    pts += [ref_retract(hx.H0Point(model.hexagons[int(rng.integers(0, len(model.hexagons)))],
                                   ref_sample_local(rng))) for _ in range(60)]
    for a in CASE_HEXAGONS + [(0, 2), (0, 1, 0)]:
        pts.append(hx.TbinPoint(a))
        for letter in range(3):
            b = hx.extend(a, letter)
            for off in (1e-17, 0.25, hx.RHO, hx.EDGE - 1e-16, hx.EDGE - 0.3):
                pts.append(ref_tbin_edge_point(a, b, off))
    return pts


def test_tbin_distance_and_nearest_anchors_match_reference():
    pts = tree_case_points()
    for x in pts:
        for y in pts:
            assert hx.tbin_distance(x, y) == ref_tbin_distance(x, y)
            assert hx.nearest_anchors(x, y) == ref_nearest_anchors(x, y)


@pytest.mark.parametrize("step", [-1, 0, 1, 2])
def test_retraction_rows_match_scalar_per_pair(step):
    """The sample's row forms against the scalar ones, pair for pair: p
    over every case local and q over every 29th, in every case hexagon a
    and in q's hexagon b, a itself (step -1) or its neighbour across the
    step.  The tree distances go through the sample's own stand-in rows,
    and the case hexagons include backtracks from depth 2 and 3, which a
    one-letter stand-in gets wrong.  The case points reach every retract
    branch (the test above), and the pairs include shared edges with
    distinct offsets."""
    locs = case_locals()
    qs = locs[::29]
    p = np.repeat(locs, len(qs), axis=0)
    q = np.tile(qs, (len(locs), 1))
    steps = np.full(len(p), step)
    want_d = [hx.dist_chart(x, y if step < 0 else hx.mat_vec(hx.REFLECTIONS[step], y))
              for x in locs for y in qs]
    assert hx.dist_chart_rows(p, hx.reflect_rows(steps, q)).tolist() == want_d
    shared = 0
    for a in CASE_HEXAGONS:
        b = a if step < 0 else hx.extend(a, step)
        xs = [hx.retract(hx.H0Point(a, x)) for x in locs]
        ys = [hx.retract(hx.H0Point(b, y)) for y in qs]
        got = vf.retracted_tbin_distances(np.repeat(vf.stand_in_rows([a]), len(p)), steps, p, q)
        assert got.tolist() == [hx.tbin_distance(x, y) for x in xs for y in ys]
        shared += sum(x.child is not None and (x.parent, x.child) == (y.parent, y.child)
                      and x.offset != y.offset for x in xs for y in ys)
    assert shared


# ---------------------------------------------------------------------------
# the retraction sample


def test_retraction_separation_floor_bounds_rounding():
    """Pairs on the inward normal from marked side 0's midpoint, where the
    retraction stretches by exactly 2*rho, at 400 arclengths in [0.01, 0.4]
    and separations from 1e-9 to 1e-4.  Rounding lifts the ratio above
    2*rho + 1e-9, the lipschitz check's slack, at pairs the old floor of
    1e-9 admitted; past RETRACTION_MIN_SEPARATION it stays within 1e-10."""
    arcs = np.linspace(0.01, 0.4, 400)
    p = np.array([off_side(0, 0.5, t * hx.S) for t in arcs])
    rows, same = np.repeat(vf.stand_in_rows([()]), len(p)), np.full(len(p), -1)
    d, ratio = [], []
    for sep in (1e-9, 1e-7, 1e-6, 1e-5, 2e-5, 1e-4):
        q = np.array([off_side(0, 0.5, (t + sep) * hx.S) for t in arcs])
        dist = hx.dist_chart_rows(p, q) / hx.S
        d.extend(dist)
        ratio.extend(vf.retracted_tbin_distances(rows, same, p, q) / dist)
    d, excess = np.array(d), np.array(ratio) - hx.EDGE
    assert excess[d >= 1e-9].max() > 1e-9
    kept = d >= vf.RETRACTION_MIN_SEPARATION
    assert kept.sum() > 1000 and excess[kept].max() <= 1e-10


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 6])
def test_retraction_lipschitz_matches_reference_loop(depth):
    """Depths 1 and 2 flip the edge orientation most often; the pair counts
    around RETRACTION_CHUNK end a sample mid-chunk and on its boundary.  At
    depth 3, seed 8 and 2 pairs, a one-letter stand-in for the sample's
    hexagons would read 1.3713226214805505, one ulp above the loop's."""
    model = hx.HexModel(depth)
    chunk = vf.RETRACTION_CHUNK
    cases = [(seed, 4000) for seed in (1, 5, 2026)] \
        + [(3, n) for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3)] + [(8, 2)]
    for seed, pairs in cases:
        assert vf.measure_retraction_lipschitz(model, pairs=pairs, seed=seed) \
            == ref_retraction_lipschitz(model, pairs, seed)


def test_retraction_sample_memory_is_chunked():
    """The sample holds one chunk's arrays at a time: a traced peak of
    0.6 MB at 5000 pairs, against 2.9 MB unchunked and 1.2 MB in chunks
    of 2048."""
    model = hx.HexModel(4)
    vf.measure_retraction_lipschitz(model, pairs=1, seed=7)  # first-use allocations
    tracemalloc.start()
    try:
        vf.measure_retraction_lipschitz(model, pairs=5_000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
