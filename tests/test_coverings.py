import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from conftest import SPECS, shipped
from ogm import cover, coverings as cvg
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
        rij = cvg.meet_level(root[i], root[j], dmat[i, j]) >= level
        rjk = cvg.meet_level(root[j], root[k], dmat[j, k]) >= level
        rik = cvg.meet_level(root[i], root[k], dmat[i, k]) >= level
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


def pairwise_matrices(ts, phis):
    """T0 and T_c distance matrices of embedded samples, one pair at a time."""
    n = len(phis)
    t0_d = np.zeros((n, n))
    tc_d = {lab: np.zeros((n, n)) for lab in ts.class_labels}
    for i in range(n):
        for j in range(i + 1, n):
            t0_d[i, j] = t0_d[j, i] = ts.t0_distance(phis[i].t0, phis[j].t0)
            for lab in ts.class_labels:
                v = ts.tc_distance(lab, phis[i].coord(lab), phis[j].coord(lab))
                tc_d[lab][i, j] = tc_d[lab][j, i] = v
    return t0_d, tc_d


def test_product_on_embedded_samples():
    # T0 x T_c covering on phi images of sampled cover points
    spec = shipped("flip_n3")
    cx = cover.explore(spec, 2, 4, fiber_range=3.0, wall_comp_depth=0)
    ts = tr.TreeSystem(cx)
    pts = [cx.sample_point(cover.make_stream(21, i)) for i in range(60)]
    phis = [ts.phi(p) for p in pts]
    n = len(phis)
    scale = 8.0
    t0_d, tc_d = pairwise_matrices(ts, phis)
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
    # a NaN or infinite scale built a meaningless covering with a RuntimeWarning
    for scale in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale"):
            cvg.tree_covering(dmat, root, scale)


# -- masked pair code against the pairwise loops it replaced ------------------


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def reference_tree_covering(dmat, root_dist, scale):
    """Pairwise union-find over the merging pairs; pieces numbered in order
    of first occurrence."""
    n = len(root_dist)
    annulus = np.floor(root_dist / scale).astype(int)
    uf = UnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            if annulus[i] != annulus[j]:
                continue
            k = annulus[i]
            if 0.5 * (root_dist[i] + root_dist[j] - dmat[i, j]) >= k * scale - scale / 2.0:
                uf.union(i, j)
    roots = {}
    assignment = [0] * n
    piece_color = []
    for i in range(n):
        key = (annulus[i], uf.find(i))
        pid = roots.get(key)
        if pid is None:
            pid = len(piece_color)
            roots[key] = pid
            piece_color.append(int(annulus[i]) % 2)
        assignment[i] = pid
    return assignment, piece_color


def reference_pairs(cov, dmat):
    """(d, i, j) of the same-piece pairs and of the same-color cross pairs."""
    n = len(cov.assignment)
    same_piece, cross_color = [], []
    for i in range(n):
        for j in range(i + 1, n):
            pi, pj = cov.assignment[i], cov.assignment[j]
            if pi == pj:
                same_piece.append((float(dmat[i, j]), i, j))
            elif cov.piece_color[pi] == cov.piece_color[pj]:
                cross_color.append((float(dmat[i, j]), i, j))
    return same_piece, cross_color


def reference_check_covering(cov, dmat, slack=1e-9):
    same_piece, cross_color = reference_pairs(cov, dmat)
    min_sep = min([math.inf] + [d for d, _, _ in cross_color])
    max_diam = max([0.0] + [d for d, _, _ in same_piece])
    n = len(cov.assignment)
    return cvg.CoveringCheck(
        min_same_color_separation=min_sep,
        max_piece_diameter=max_diam,
        required_separation=cov.scale,
        allowed_diameter=cov.bound,
        ok=(min_sep >= cov.scale - slack) and (max_diam <= cov.bound + slack),
        checked_pairs=n * (n - 1) // 2,
    )


def reference_binding_order(cov, dmat, binding_pairs):
    same_piece, cross_color = reference_pairs(cov, dmat)
    same_piece.sort(reverse=True)
    cross_color.sort()
    return [(i, j) for _, i, j in cross_color[:binding_pairs] + same_piece[:binding_pairs]]


def tbin_vertex_sample(count, seed, depth=5):
    """Dual-tree vertices: integer edge counts, so distances tie often."""
    model = hx.HexModel(depth)
    rng = random.Random(seed)
    addrs = [rng.choice(model.hexagons) for _ in range(count)]
    dmat = np.array([[float(hx.hex_tree_edges(a, b)) for b in addrs] for a in addrs])
    return dmat, np.array([float(len(a)) for a in addrs])


def masked_cases():
    """(covering, metric) pairs: tree coverings of tied and untied samples
    at several scales, and a product of two tree coverings."""
    tied_a = tbin_vertex_sample(90, seed=1)
    tied_b = tbin_vertex_sample(90, seed=2)
    for dmat, root in (tied_a, tbin_sample(70, seed=4)):
        for scale in (1.0, 2.0, 3.0, 8.0):
            yield cvg.tree_covering(dmat, root, scale), dmat
    a = cvg.tree_covering(*tied_a, 2.0)
    b = cvg.tree_covering(*tied_b, 2.0)
    yield cvg.product_covering([a, b]), tied_a[0] + tied_b[0]


def test_tree_covering_matches_pairwise_reference():
    for dmat, root in (tbin_vertex_sample(90, seed=1), tbin_sample(70, seed=4)):
        for scale in (1.0, 2.0, 3.0, 8.0):
            cov = cvg.tree_covering(dmat, root, scale)
            assert (cov.assignment, cov.piece_color) == reference_tree_covering(
                dmat, root, scale
            )


def test_tree_covering_whole_annulus_is_one_piece():
    # every point in annulus 0, whose merge threshold -R/2 every pair meets
    dmat, root = tbin_sample(60, seed=4)
    scale = float(root.max()) + 1.0
    cov = cvg.tree_covering(dmat, root, scale)
    assert set(cov.assignment) == {0} and cov.piece_color == [0]
    assert (cov.assignment, cov.piece_color) == reference_tree_covering(dmat, root, scale)


def path_metric(order, spacing=36.0):
    """Points on a line at the positions `order`, distances stretched so
    that in annulus 0 at scale 16 (all root distances 10) only neighbours
    on the line merge: the merge graph is a path through the points in
    `order`'s position order, not in index order.  The root distances do
    not come from the metric, so it is not a tree metric."""
    pos = np.asarray(order, dtype=float)
    return spacing * np.abs(pos[:, None] - pos[None, :]), np.full(len(pos), 10.0)


@pytest.mark.parametrize("kind", ["sorted", "reversed", "zigzag", "shuffled", "broken"])
def test_tree_covering_long_path_matches_union_find(kind):
    n, i = 301, np.arange(301)
    shuffled = np.random.default_rng(3).permutation(n)
    order = {
        "sorted": i,
        "reversed": i[::-1],
        # the least index sits mid-path, and indices rise away from it
        "zigzag": n // 2 + (i + 1) // 2 * np.where(i % 2, 1, -1),
        "shuffled": shuffled,
        # a gap after every 37th position cuts the path into 9 pieces
        "broken": shuffled + shuffled // 37,
    }[kind]
    dmat, root = path_metric(order)
    cov = cvg.tree_covering(dmat, root, 16.0)
    ref = reference_tree_covering(dmat, root, 16.0)
    assert (cov.assignment, cov.piece_color) == ref
    assert len(cov.piece_color) == (9 if kind == "broken" else 1)


@pytest.mark.parametrize("rows", [1, 7])
def test_tree_covering_row_blocks_match_reference(monkeypatch, rows):
    # the merge mask is built in row blocks of _BLOCK_ENTRIES // n rows; the
    # sizes here do not divide n, so the last block is a short one
    cases = [tbin_vertex_sample(90, seed=1), tbin_sample(71, seed=4),
             path_metric(np.arange(61) + np.arange(61) // 13)]
    for dmat, root in cases:
        n = len(root)
        assert n % rows or rows == 1
        monkeypatch.setattr(cvg, "_BLOCK_ENTRIES", rows * n + n - 1)
        for scale in (1.0, 3.0, 8.0, 16.0):
            cov = cvg.tree_covering(dmat, root, scale)
            assert (cov.assignment, cov.piece_color) == reference_tree_covering(
                dmat, root, scale
            )


@pytest.mark.parametrize("rows", [1, 7])
def test_check_covering_matches_pairwise_reference(monkeypatch, rows):
    # the pair masks are built in row blocks of _BLOCK_ENTRIES // n rows
    for cov, dmat in masked_cases():
        n = len(cov.assignment)
        monkeypatch.setattr(cvg, "_BLOCK_ENTRIES", rows * n + n - 1)
        assert len(cvg.row_blocks(n)) == -(-n // rows)
        assert cvg.check_covering(cov, dmat) == reference_check_covering(cov, dmat)


@pytest.mark.parametrize("binding_pairs", [1, 7, 10_000])
def test_pullback_binding_order_matches_pairwise_reference(monkeypatch, binding_pairs):
    for rows, (cov, dmat) in zip([1, 7, 1000] * 3, masked_cases()):
        # binding candidates are cut in row blocks, then among the survivors
        n = len(cov.assignment)
        monkeypatch.setattr(cvg, "_BLOCK_ENTRIES", rows * n + n - 1)
        calls = []

        def stub(pairs):
            calls.extend(pairs)
            return [float(dmat[i, j]) for i, j in pairs]

        chk = cvg.pullback_check(cov, dmat, stub, 3.0, binding_pairs=binding_pairs)
        expected = reference_binding_order(cov, dmat, binding_pairs)
        assert calls == expected
        assert chk.checked_pairs == len(expected)
        same_piece, cross_color = reference_pairs(cov, dmat)
        seps = sorted(cross_color)[:binding_pairs]
        diams = sorted(same_piece, reverse=True)[:binding_pairs]
        assert chk.min_same_color_separation == min([math.inf] + [d for d, _, _ in seps])
        assert chk.max_piece_diameter == max([0.0] + [d for d, _, _ in diams])


def test_pullback_binding_keeps_ties_at_the_cut():
    # integer distances: the binding_pairs-th distance on each side is tied
    # with pairs past it, so selecting at the cut must keep all of them
    dmat, root = tbin_vertex_sample(90, seed=1)
    cov = cvg.tree_covering(dmat, root, 2.0)
    same_piece, cross_color = reference_pairs(cov, dmat)
    seps = sorted(d for d, _, _ in cross_color)
    diams = sorted((d for d, _, _ in same_piece), reverse=True)
    for k in (1, 7, 50):
        assert seps[k - 1] == seps[k] and diams[k - 1] == diams[k]
        calls = []

        def stub(pairs):
            calls.extend(pairs)
            return [float(dmat[i, j]) for i, j in pairs]

        cvg.pullback_check(cov, dmat, stub, 3.0, binding_pairs=k)
        assert calls == reference_binding_order(cov, dmat, k)


@pytest.mark.parametrize("binding_pairs", [0, -1])
def test_pullback_rejects_binding_pairs_below_one(binding_pairs):
    dmat, root = tbin_vertex_sample(20, seed=3)
    cov = cvg.tree_covering(dmat, root, 2.0)
    with pytest.raises(ValueError):
        cvg.pullback_check(cov, dmat, lambda pairs: [0.0] * len(pairs), 3.0,
                           binding_pairs=binding_pairs)


@pytest.mark.parametrize(
    "name, samples, scale, binding_pairs, seed",
    [("two_vertex_n5", 120, 8.0, 1, 5), ("flip_n3", 200, 16.0, 10, 4)],
)
def test_covering_report_matches_pairwise_reference(
    monkeypatch, name, samples, scale, binding_pairs, seed
):
    spec = shipped(name)
    cfg = vf.RunConfig(
        t0_depth=2, hex_depth=4, samples=samples, seed=seed, fiber_range=3.0,
        wall_comp_depth=0, workers=1,
    )
    cx, ts = vf._prepare(spec, cfg)
    phis = [ts.phi(cx.sample_point(cover.make_stream(seed, i))) for i in range(samples)]
    t0_d, tc_d = pairwise_matrices(ts, phis)
    # the report's factor matrices, in order: T0, then the classes
    seen = []
    tree_covering = cvg.tree_covering

    def recording(dmat, root_dist, s):
        seen.append(dmat.copy())
        return tree_covering(dmat, root_dist, s)

    monkeypatch.setattr(cvg, "tree_covering", recording)
    doc = json.dumps(vf.covering_report(spec, cfg, scale, binding_pairs), sort_keys=True)
    assert len(seen) == 1 + len(ts.class_labels)
    assert np.array_equal(seen[0], t0_d)
    for got, lab in zip(seen[1:], ts.class_labels):
        assert np.array_equal(got, tc_d[lab]), lab
    # the report built on the pairwise T_c matrices is byte-identical
    monkeypatch.setattr(tr.TreeSystem, "tc_matrix", lambda self, lab, points: tc_d[lab].copy())
    ref = json.dumps(vf.covering_report(spec, cfg, scale, binding_pairs), sort_keys=True)
    assert doc == ref


def test_covering_report_builds_each_wall_chain_once(monkeypatch):
    # once per solve of a binding pair; the T_c matrices take their routes
    # from the cached per-block maps
    spec = shipped("two_vertex_n5")
    cfg = vf.RunConfig(
        t0_depth=2, hex_depth=4, samples=120, seed=5, fiber_range=3.0,
        wall_comp_depth=0, workers=1,
    )
    calls = []
    wall_chain = cover.CoverComplex.wall_chain

    def counting(self, u, v):
        calls.append((u, v))
        return wall_chain(self, u, v)

    monkeypatch.setattr(cover.CoverComplex, "wall_chain", counting)
    binding_pairs = 1
    vf.covering_report(spec, cfg, 8.0, binding_pairs)
    cx = cover.explore(spec, 2, 4, fiber_range=3.0, wall_comp_depth=0)
    blocks = {
        cx.normalize(cx.sample_point(cover.make_stream(cfg.seed, i))).block
        for i in range(cfg.samples)
    }
    assert calls and all(u in blocks and v in blocks for u, v in calls)
    assert len(calls) <= 2 * binding_pairs


@pytest.mark.parametrize("wall_comp_depth", [0, None])
def test_covering_report_routes_once_per_block_pair(monkeypatch, wall_comp_depth):
    # same-owner tree blocks come from tbin_distance_matrix, and every
    # other pair from one route per class and unordered pair of owners
    spec = shipped("two_vertex_n5")
    cfg = vf.RunConfig(
        t0_depth=2, hex_depth=4, samples=60, seed=5, fiber_range=3.0,
        wall_comp_depth=wall_comp_depth, workers=1,
    )
    calls = {"tbin_distance": 0, "route": 0}

    def counting(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(hx, "tbin_distance")
    counting(tr.TreeSystem, "route")
    vf.covering_report(spec, cfg, 8.0, 1)
    cx = cover.explore(spec, 2, 4, fiber_range=3.0, wall_comp_depth=wall_comp_depth)
    blocks = {
        cx.normalize(cx.sample_point(cover.make_stream(cfg.seed, i))).block
        for i in range(cfg.samples)
    }
    classes = len(tr.TreeSystem(cx).class_labels)
    assert calls["tbin_distance"] == 0
    assert 0 < calls["route"] <= classes * math.comb(len(blocks), 2)


def test_covering_report_computes_each_line_relation_once(monkeypatch):
    spec = shipped("two_vertex_n5")
    cfg = vf.RunConfig(
        t0_depth=2, hex_depth=4, samples=120, seed=5, fiber_range=3.0,
        wall_comp_depth=0, workers=1,
    )
    computed = []
    relation = tr.line_relation

    def counting(comp_in, comp_out):
        computed.append((comp_in, comp_out))
        return relation(comp_in, comp_out)

    monkeypatch.setattr(tr, "line_relation", counting)
    vf.covering_report(spec, cfg, 8.0, 1)
    assert computed
    assert len(computed) == len(set(computed))


def test_covering_report_does_not_import_numpy_ma():
    # numpy.ma costs over a megabyte of resident memory once imported
    def fresh(code):
        src = os.path.dirname(os.path.dirname(vf.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return out.stdout.strip()

    probe = "import sys; print('numpy.ma' in sys.modules)"
    if fresh("import numpy; " + probe) == "True":
        pytest.skip("import numpy alone loads numpy.ma")
    report = (
        "from ogm import verify as vf; from ogm.manifold import GraphManifoldSpec; "
        f"spec = GraphManifoldSpec.from_json_file({str(SPECS / 'two_vertex_n5.json')!r}); "
        "cfg = vf.RunConfig(t0_depth=2, hex_depth=4, samples=30, seed=1, fiber_range=3.0, "
        "wall_comp_depth=0, workers=1); "
        "vf.covering_report(spec, cfg, 8.0, 1); "
    )
    assert fresh(report + probe) == "False"
