"""Acceptance suite: one test per criterion, at the stated tolerances.

Shared heavy work (the sampled pair records per shipped spec) is computed
once per session and reused by the Lipschitz, sandwich, and curve criteria.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from conftest import ball_ids, shipped
from ogm import cover, coverings as cvg
from ogm import geodesics as geo
from ogm import hexagon as hx
from ogm import trees as tr
from ogm import verify as vf
from ogm.manifold import check_irreducible
from ogm.verify import covering_report

EPS = 10.0 * 1e-6
SPECS = ("flip_n3", "cycle_n4", "two_vertex_n5")


def acceptance_cfg(samples=1100):
    return vf.RunConfig(
        t0_depth=2,
        hex_depth=4,
        samples=samples,
        seed=2026,
        tol=1e-6,
        fiber_range=3.0,
        wall_comp_depth=0,
        workers=0,
    )


@pytest.fixture(scope="session")
def records_by_spec():
    out = {}
    for name in SPECS:
        spec = shipped(name)
        cfg = acceptance_cfg()
        t0 = time.time()
        out[name] = (spec, cfg, vf.collect_records(spec, cfg), time.time() - t0)
    return out


def report(num, title, detail):
    print(f"ACCEPTANCE {num} ({title}): PASS — {detail}")


def test_criterion_01_hexagon_algebra():
    t0 = time.time()
    assert abs(math.cosh(hx.S) - 2.0) < 1e-12
    worst_angle = 0.0
    for k in range(6):
        v = hx.VERTICES[k]

        def tangent(y, x=v):
            d = hx.dist_chart(x, y)
            return tuple((y[i] + hx.mdot(x, y) * x[i]) / math.sinh(d) for i in range(3))

        t1 = tangent(hx.VERTICES[(k - 1) % 6])
        t2 = tangent(hx.VERTICES[(k + 1) % 6])
        ang = math.acos(max(-1.0, min(1.0, hx.mdot(t1, t2))))
        worst_angle = max(worst_angle, abs(ang - math.pi / 2))
    assert worst_angle < 1e-9
    # closure march
    x = np.array(hx.VERTICES[0])
    v = np.array(
        tuple(
            (hx.VERTICES[1][i] + hx.mdot(x, hx.VERTICES[1]) * x[i]) / math.sqrt(3.0)
            for i in range(3)
        )
    )
    eta = np.array([-1.0, 1.0, 1.0])
    for _ in range(6):
        x, v = (
            x * math.cosh(hx.S) + v * math.sinh(hx.S),
            x * math.sinh(hx.S) + v * math.cosh(hx.S),
        )
        w = eta * np.cross(x, v)
        v = w
    closure = float(np.abs(x - np.array(hx.VERTICES[0])).max())
    assert closure < 1e-9
    dt = time.time() - t0
    assert dt < 1.0
    report(1, "hexagon algebra", f"angle dev {worst_angle:.2e}, closure {closure:.2e}, {dt:.2f}s")


def test_criterion_02_solver_vs_oracle():
    t0 = time.time()
    cx = cover.explore(
        shipped("flip_n3"), t0_depth=2, hex_depth=4, fiber_range=3.0, wall_comp_depth=0
    )

    def sample_in(bid, i):
        r = cover.make_stream(91, i)
        addr = cx.model.hexagons[int(r.integers(0, len(cx.model.hexagons)))]
        fib = tuple(float(v) for v in r.uniform(-3, 3, 1))
        return cover.CoverPoint(bid, hx.H0Point(addr, cx.model.sample_local(r)), fib)

    worst = 0.0
    for i in range(100):
        x = sample_in((), 2 * i)
        y = sample_in((i % 3,), 2 * i + 1)
        d = geo.distance(cx, x, y, tol=1e-7).distance
        bf = geo.brute_force_distance(cx, x, y, grid_step=0.002)
        worst = max(worst, abs(d - bf) / bf)
    for i in range(50):
        a, b = i % 3, (i + 1 + i // 3) % 3
        if a == b:
            b = (b + 1) % 3
        x = sample_in((a,), 400 + 2 * i)
        y = sample_in((b,), 400 + 2 * i + 1)
        d = geo.distance(cx, x, y, tol=1e-7).distance
        bf = geo.brute_force_distance(cx, x, y, grid_step=0.002)
        worst = max(worst, abs(d - bf) / bf)
    dt = time.time() - t0
    assert worst < 1e-3
    assert dt < 120.0
    report(2, "solver vs oracle", f"worst relative error {worst:.2e} over 150 instances, {dt:.0f}s")


def test_criterion_03_retraction_constant():
    model = hx.HexModel(4)
    lip = vf.measure_retraction_lipschitz(model, pairs=100_000, seed=5)
    assert lip == 2.3794219095816294  # pinned: a refactor of the sample keeps it bit for bit
    assert lip <= 2 * hx.DELTA
    assert lip <= hx.EDGE + 1e-9  # the exact constant 2*rho
    if hx.HALF_EDGE_EMBEDDED <= hx.RHO:
        half_edge_note = f"half-edge {hx.HALF_EDGE_EMBEDDED:.4f} <= rho {hx.RHO:.4f}"
    else:  # pragma: no cover - geometry says this cannot happen
        half_edge_note = f"WARN half-edge ratio {hx.HALF_EDGE_EMBEDDED / hx.RHO:.4f}"
        print(f"ACCEPTANCE 3 WARNING: {half_edge_note}")
    report(
        3,
        "retraction constant",
        f"sampled {lip:.12f} <= 2*rho {hx.EDGE:.12f} <= 2*delta {2 * hx.DELTA:.6f}; {half_edge_note}",
    )


def test_criterion_04_class_structure():
    for name in SPECS:
        spec = shipped(name)
        cx = cover.explore(spec, 3, 2, wall_comp_depth=0)
        classes = {cx.block(bid).class_label for bid in ball_ids(cx)}
        assert len(classes) == spec.n - 1, name
        assert tr.TreeSystem(cx).class_labels == tuple(sorted(classes)), name
    red = shipped("reducible_n4")
    rep = check_irreducible(red, 10)
    assert not rep.irreducible
    assert "not reached" in rep.reason
    with pytest.raises(cover.CoverError) as err:
        vf.collect_records(red, acceptance_cfg(samples=2))
    assert "irreducible" in str(err.value)
    report(4, "class structure", "n-1 classes at depth 3 for n=3,4,5; reducible spec rejected")


def test_criterion_05_lipschitz_suite(records_by_spec):
    for name in SPECS:
        spec, cfg, records, record_time = records_by_spec[name]
        t0 = time.time()
        rep = vf.verify_lipschitz(spec, cfg, records)
        dt = record_time + (time.time() - t0)
        assert rep.usable >= 1000, name
        for key, stat in rep.inequalities.items():
            assert stat.violations == 0, (name, key, stat.witness)
        assert dt < 300.0, name
        report(
            5,
            f"lipschitz {name}",
            f"{rep.usable} pairs, worst margins "
            + ", ".join(f"{k}:{s.worst_margin:.3f}" for k, s in rep.inequalities.items())
            + f", {dt:.0f}s",
        )


def test_criterion_06_qi_sandwich(records_by_spec):
    for name in SPECS:
        spec, cfg, records, record_time = records_by_spec[name]
        t0 = time.time()
        rep = vf.verify_qi(spec, cfg, records)
        dt = record_time + (time.time() - t0)
        assert rep.usable >= 500, name
        assert rep.verdict == "PASS", name
        for key, stat in rep.inequalities.items():
            assert stat.violations == 0, (name, key, stat.witness)
        assert dt < 600.0, name
        report(
            6,
            f"qi sandwich {name}",
            f"C={rep.constants['C']:.4f}, {rep.usable} non-truncated pairs, zero violations, {dt:.0f}s",
        )


def test_criterion_07_special_curves(records_by_spec):
    for name in SPECS:
        spec, cfg, records, _ = records_by_spec[name]
        usable = [
            r for r in records if not r["truncated"] and r.get("curve_length") is not None
        ]
        assert len(usable) >= 300, name
        checked = 0
        for r in usable:
            if checked == 300:
                break
            checked += 1
            L, d, e = r["curve_length"], r["d"], r["e"]
            assert d - 10 * cfg.tol <= L, (name, r["index"])
            assert L <= (2 * hx.DELTA + 1) * e + 2 * hx.DELTA + EPS, (name, r["index"])
            assert r["curve_hop_max"] <= hx.DELTA + 1e-9, (name, r["index"])
        report(7, f"special curves {name}", f"{checked} pairs within bounds, hops <= delta")


def test_product_distance_is_the_records_e(records_by_spec):
    # `ogm curve` prints product_distance as e; on the sampled points it is
    # the record's e bit for bit (a left-to-right sum t0 + tc_0 + tc_1 + ...
    # was one ulp off on some pairs)
    for name in SPECS:
        spec, cfg, records, _ = records_by_spec[name]
        cx = cover.explore(spec, cfg.t0_depth, cfg.hex_depth, fiber_range=cfg.fiber_range,
                           wall_comp_depth=cfg.wall_comp_depth)
        ts = tr.TreeSystem(cx)
        off = []
        for r in records:
            if r["truncated"]:
                continue
            i = r["index"]
            x, y = (cx.sample_point(cover.make_stream(cfg.seed, 2 * i + k)) for k in (0, 1))
            if ts.product_distance(ts.phi(x), ts.phi(y)) != r["e"]:
                off.append(i)
        assert off == [], name


def test_criterion_08_tree_system_metrics():
    cx = cover.explore(
        shipped("flip_n3"), t0_depth=2, hex_depth=4, fiber_range=3.0, wall_comp_depth=0
    )
    ts = tr.TreeSystem(cx)
    pts = []
    for lab in ts.class_labels:
        pts.extend(
            ts.phi_c(lab, cx.sample_point(cover.make_stream(55, i))) for i in range(20)
        )
    import random

    rng = random.Random(0)
    cache = {}

    def d(lab, i, j):
        key = (lab, min(i, j), max(i, j))
        if key not in cache:
            pool = pools[lab]
            cache[key] = ts.tc_distance(lab, pool[key[1]], pool[key[2]])
        return cache[key]

    pools = {}
    for lab in ts.class_labels:
        pools[lab] = [ts.phi_c(lab, cx.sample_point(cover.make_stream(56, i))) for i in range(25)]
    worst = -math.inf
    for q in range(1000):
        lab = ts.class_labels[q % len(ts.class_labels)]
        a, b, c, e = rng.sample(range(25), 4)
        lhs = d(lab, a, b) + d(lab, c, e)
        rhs = max(d(lab, a, c) + d(lab, b, e), d(lab, a, e) + d(lab, b, c))
        worst = max(worst, lhs - rhs)
        assert lhs <= rhs + 1e-9
    # grid-matched identification preserves distances between c pieces
    cx3 = cover.explore(shipped("flip_n3"), t0_depth=3, hex_depth=2)
    w1 = cx3.parent_wall((3, 7))
    w2 = cx3.parent_wall((3, 7, 9))
    comp_u = cx3.wall_component(w1, child_side=False)
    comp_v = cx3.wall_component(w2, child_side=True)
    import random as _r

    rng2 = _r.Random(4)
    lo, hi = cx3.model.arclength_window(comp_u)
    worst_tr = 0.0
    for _ in range(100):
        t1 = rng2.uniform(max(lo, -1.0), min(hi, 1.9))
        t2 = rng2.uniform(max(lo, -1.0), min(hi, 1.9))
        pu1, pu2 = (hx.line_point_at_lambda(comp_u, hx.EDGE * t) for t in (t1, t2))
        pv1, pv2 = (hx.line_point_at_lambda(comp_v, hx.EDGE * t) for t in (t1, t2))
        du = hx.tbin_distance(pu1, pu2)
        dv = hx.tbin_distance(pv1, pv2)
        worst_tr = max(worst_tr, abs(du - dv))
    assert worst_tr < 1e-6
    report(
        8,
        "tree-system metrics",
        f"four-point worst excess {worst:.2e} <= 1e-9, transport dev {worst_tr:.2e}",
    )


def test_criterion_09_coverings():
    t0 = time.time()
    model = hx.HexModel(6)
    pts = []
    for i in range(220):
        r = cover.make_stream(3, i)
        addr = model.hexagons[int(r.integers(0, len(model.hexagons)))]
        if r.random() < 0.5:
            pts.append(hx.tbin_vertex(addr))
        else:
            letter = int(r.integers(0, 3))
            pts.append(
                hx.tbin_edge_point(addr, hx.extend(addr, letter), float(r.uniform(0, hx.EDGE)))
            )
    n = len(pts)
    dmat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dmat[i, j] = dmat[j, i] = hx.tbin_distance(pts[i], pts[j])
    root = np.array([hx.tbin_distance(hx.tbin_vertex(()), p) for p in pts])
    for scale in (4.0, 16.0, 64.0):
        covr = cvg.tree_covering(dmat, root, scale)
        chk = cvg.check_covering(covr, dmat)
        assert covr.colors == 2
        assert chk.ok, scale
        assert chk.max_piece_diameter <= 3 * scale
    pull_doc = covering_report(
        shipped("flip_n3"), acceptance_cfg(samples=160), scale=16.0, binding_pairs=60
    )
    assert pull_doc["verdict"] == "PASS"
    # pinned: a refactor of the covering report keeps the document byte for byte
    assert hashlib.sha256(json.dumps(pull_doc, sort_keys=True).encode()).hexdigest() \
        == "58690bdd0fabffabe6f68fb1aabed68fb083e7131706d45547ce6ad65ba6078c"
    assert pull_doc["product"]["check"]["ok"]
    assert pull_doc["pullback"]["ok"]
    dt = time.time() - t0
    assert dt < 180.0
    report(9, "coverings", f"trees at R=4,16,64 plus product/pullback at R=16, {dt:.0f}s")


# pinned: a refactor of the records keeps them byte for byte
RECORD_DIGESTS = {
    "flip_n3": "0f38a341deea1ed614c0cbae2aecb9dd56223530206d86a20d6418c1ffe85230",
    "cycle_n4": "f1ad3e8f933399b9f43a6ba383ee59a9a07ae6c7389deaa6a321eff4d71990b5",
    "two_vertex_n5": "42bde150d6efab9b7ec4c28c1c8e115d31ed859bc8ab8aa344fa97c28df7431f",
}


@pytest.mark.parametrize("name", SPECS)
def test_records_pinned(name):
    records = vf.collect_records(shipped(name), vf.RunConfig(samples=24, seed=2026, workers=1))
    assert hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest() \
        == RECORD_DIGESTS[name]


def test_deep_covering_pinned():
    # owners twelve blocks deep, where every walk table and turn table is
    # composed over many levels: the covering document keeps byte for byte
    cfg = vf.RunConfig(t0_depth=12, hex_depth=4, samples=300, seed=0, fiber_range=3.0,
                       wall_comp_depth=0, workers=1)
    doc = covering_report(shipped("two_vertex_n5"), cfg, scale=8.0, binding_pairs=60)
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() \
        == "9fa4280a5dcc83912b2b188ca051cb3dfa9b40ebe37f279a920535bcef3f475a"


def test_criterion_10_determinism():
    spec = shipped("flip_n3")
    cfg1 = vf.RunConfig(
        t0_depth=2, hex_depth=3, samples=24, seed=13, tol=1e-6,
        fiber_range=2.0, wall_comp_depth=0, workers=1,
    )
    cfg2 = vf.RunConfig(
        t0_depth=2, hex_depth=3, samples=24, seed=13, tol=1e-6,
        fiber_range=2.0, wall_comp_depth=0, workers=2,
    )
    a, b, c = (
        json.dumps(vf.verify_qi(spec, cfg, vf.collect_records(spec, cfg)).to_dict(), sort_keys=True)
        for cfg in (cfg1, cfg1, cfg2)
    )
    assert a == b == c
    doc = json.loads(a)
    assert doc["config"]["seed"] == 13
    report(10, "determinism", "bit-for-bit replay, worker-count independent")
