import math
import random

import numpy as np
import pytest

from ogm import cover, coverings as cvg, examples
from ogm import geodesics as geo
from ogm import hexagon as hx
from ogm import trees as tr
from ogm import verify as vf


def tbin_sample(count, seed, depth=6):
    model = hx.HexModel(depth)
    pts = []
    for i in range(count):
        r = cover.make_stream(seed, i)
        addr = model.hexagons[int(r.integers(0, len(model.hexagons)))]
        if r.random() < 0.5:
            pts.append(hx.tbin_vertex(addr))
        else:
            letter = int(r.integers(0, 3))
            pts.append(
                hx.tbin_edge_point(
                    addr, hx.extend(addr, letter), float(r.uniform(0, hx.EDGE))
                )
            )
    n = len(pts)
    dmat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dmat[i, j] = dmat[j, i] = hx.tbin_distance(pts[i], pts[j])
    root = np.array([hx.tbin_distance(hx.tbin_vertex(()), p) for p in pts])
    return dmat, root


def test_path_covering_intervals():
    xs = np.arange(0, 30, 0.5)
    dmat = np.abs(xs[:, None] - xs[None, :])
    cov = cvg.tree_covering(dmat, xs, 4.0)
    assert cov.colors == 2
    # intervals of length R with alternating colors
    for i, x in enumerate(xs):
        assert cov.piece_color[cov.assignment[i]] == int(x // 4.0) % 2
    chk = cvg.check_covering(cov, dmat)
    assert chk.ok


def test_split_just_above_annulus_merges():
    # two hanging branch points just above kR with meet above kR - R/2
    f = np.array([4.2, 4.2, 4.4])
    d = np.array([[0.0, 2.4, 0.4], [2.4, 0.0, 2.6], [0.4, 2.6, 0.0]])
    cov = cvg.tree_covering(d, f, 4.0)
    assert len(set(cov.assignment)) == 1


def test_low_meet_separates():
    f = np.array([4.2, 4.2])
    d = np.array([[0.0, 5.0], [5.0, 0.0]])  # meet level 1.7 < 2.0
    cov = cvg.tree_covering(d, f, 4.0)
    assert len(set(cov.assignment)) == 2


@pytest.mark.parametrize("scale", [4.0, 16.0])
def test_tbin_covering_properties(scale):
    dmat, root = tbin_sample(200, seed=3)
    cov = cvg.tree_covering(dmat, root, scale)
    chk = cvg.check_covering(cov, dmat)
    assert cov.colors == 2
    assert chk.ok
    assert chk.min_same_color_separation >= scale
    assert chk.max_piece_diameter <= 3 * scale


def test_meet_relation_transitive_on_samples():
    dmat, root = tbin_sample(120, seed=5)
    scale = 8.0
    annulus = np.floor(root / scale).astype(int)
    rng = random.Random(0)
    idx = list(range(len(root)))
    for _ in range(4000):
        i, j, k = rng.sample(idx, 3)
        if not (annulus[i] == annulus[j] == annulus[k]):
            continue
        level = annulus[i] * scale - scale / 2
        rij = cvg.meet_level(root, dmat, i, j) >= level
        rjk = cvg.meet_level(root, dmat, j, k) >= level
        rik = cvg.meet_level(root, dmat, i, k) >= level
        if rij and rjk:
            assert rik


def test_linear_control_across_scales():
    dmat, root = tbin_sample(200, seed=7)
    for scale in (8.0, 16.0, 32.0):
        cov = cvg.tree_covering(dmat, root, scale)
        chk = cvg.check_covering(cov, dmat)
        assert chk.ok
        assert chk.max_piece_diameter <= 3.0 * scale  # CR-bounded, C = 3


def test_product_single_factor_identity():
    dmat, root = tbin_sample(60, seed=9)
    cov = cvg.tree_covering(dmat, root, 8.0)
    prod = cvg.product_covering([cov])
    assert prod.colors == 2
    assert prod.assignment == cov.assignment
    assert prod.bound == cov.bound


def test_product_brick_pattern():
    xs = np.arange(0, 25, 1.0)
    dmat = np.abs(xs[:, None] - xs[None, :])
    cov = cvg.tree_covering(dmat, xs, 4.0)
    prod = cvg.product_covering([cov, cov])
    assert prod.colors == 4
    assert prod.bound == 24.0  # 6R in the sum metric
    chk = cvg.check_covering(prod, dmat + dmat)
    assert chk.ok


def test_product_scale_mismatch():
    dmat, root = tbin_sample(30, seed=11)
    a = cvg.tree_covering(dmat, root, 4.0)
    b = cvg.tree_covering(dmat, root, 8.0)
    with pytest.raises(ValueError):
        cvg.product_covering([a, b])


def test_product_on_embedded_samples():
    # T0 x T_c covering on phi images of sampled cover points
    spec = examples.load("flip_n3")
    cx = cover.explore(spec, 2, 4, fiber_range=3.0, wall_comp_depth=0)
    ts = tr.TreeSystem(cx)
    pts = [cx.sample_point(cover.make_stream(21, i)) for i in range(60)]
    phis = [ts.phi(p) for p in pts]
    n = len(phis)
    scale = 8.0
    t0_d = np.zeros((n, n))
    tc_d = {lab: np.zeros((n, n)) for lab in ts.class_labels}
    for i in range(n):
        for j in range(i + 1, n):
            t0_d[i, j] = t0_d[j, i] = ts.t0_distance(phis[i].t0, phis[j].t0)
            for lab in ts.class_labels:
                v = ts.tc_distance(lab, phis[i].coord(lab), phis[j].coord(lab))
                tc_d[lab][i, j] = tc_d[lab][j, i] = v
    root_idx = 0
    factors = []
    sum_d = np.zeros((n, n))
    f0 = t0_d[root_idx]
    factors.append(cvg.tree_covering(t0_d, f0, scale))
    sum_d += t0_d
    for lab in ts.class_labels:
        factors.append(cvg.tree_covering(tc_d[lab], tc_d[lab][root_idx], scale))
        sum_d += tc_d[lab]
    prod = cvg.product_covering(factors)
    assert prod.colors == 2 ** len(factors)
    chk = cvg.check_covering(prod, sum_d)
    assert chk.ok


def test_pullback_trivial_large_scale():
    dmat, root = tbin_sample(40, seed=13)
    scale = 1000.0
    cov = cvg.tree_covering(dmat, root, scale)
    assert len(set(cov.assignment)) <= 2
    chk = cvg.check_covering(cov, dmat)
    assert chk.ok


def test_invalid_scale():
    dmat, root = tbin_sample(10, seed=15)
    with pytest.raises(ValueError):
        cvg.tree_covering(dmat, root, 0.0)
