import numpy as np
import pytest

from conftest import ball_ids, child_wall_point, path_permutation, shipped
from ogm import cover
from ogm import hexagon as hx
from ogm import trees as tr


@pytest.fixture(scope="module")
def cx4():
    return cover.explore(
        shipped("cycle_n4"), t0_depth=2, hex_depth=3, fiber_range=2.0,
        wall_comp_depth=0,
    )


@pytest.fixture(scope="module")
def ts4(cx4):
    return tr.TreeSystem(cx4)


def test_three_classes_present(cx4, ts4):
    assert ts4.class_labels == (0, 1, 2)
    # depth mod 3 labeling for the 3-cycle loop
    for bid in ball_ids(cx4):
        blk = cx4.block(bid)
        assert blk.sigma == path_permutation(cx4.spec, blk.labels)
        assert blk.class_label == blk.sigma.inverse()(0)


def test_phi_c_well_defined_on_walls_all_classes(cx4, ts4):
    # the two wall representations read different coordinate indices but the
    # cocycle makes the values match for every class
    for wall_key in [((), 0), ((), 1), ((0,), 1), ((1,), 2)]:
        w = cx4.parent_wall(wall_key[0] + (wall_key[1],))
        for i in range(10):
            r = cover.make_stream(13, i)
            coords = tuple(float(v) for v in r.uniform(-1.5, 1.5, 3))
            p1 = cx4.point_from_wall_coords(w, coords)
            p2 = child_wall_point(cx4, w, coords)
            for lab in ts4.class_labels:
                a, b = ts4.phi_c(lab, p1), ts4.phi_c(lab, p2)
                assert ts4.tc_distance(lab, a, b) < 1e-9, (wall_key, lab)


def test_fiber_shift_moves_single_class(cx4, ts4):
    x = cx4.sample_point(cover.make_stream(5, 0))
    x = cover.CoverPoint(x.block, x.base, (0.25, -0.75))
    own_label = cx4.block(x.block).class_label
    for k in (1, 2):
        fib = list(x.fiber)
        fib[k - 1] += 0.5
        y = cover.CoverPoint(x.block, x.base, tuple(fib))
        px, py = ts4.phi(x), ts4.phi(y)
        moved = [
            lab
            for lab in ts4.class_labels
            if ts4.tc_distance(lab, px.coord(lab), py.coord(lab)) > 1e-12
        ]
        # exactly the class reading coordinate k moves, and never our own
        sigma = cx4.block(x.block).sigma
        expect = sigma.inverse()(k)
        assert moved == [expect]
        assert expect != own_label
        assert abs(ts4.product_distance(px, py) - 0.5) < 1e-12


def test_tc_one_wall_vs_brute_n4(cx4, ts4):
    # line piece value enters the c piece through the wall's own component
    w = cx4.parent_wall((2,))
    child = w.child
    lab = cx4.block(child).class_label
    comp_in = cx4.wall_component(w, child_side=True)
    step = 1 / 256
    for i in range(6):
        r = cover.make_stream(29, i)
        v0 = float(r.uniform(-1.5, 1.5))
        btree = hx.tbin_edge_point((1,), (1, 0), float(r.uniform(0, hx.EDGE)))
        a = tr.TcPoint(owner=(), value=v0)
        b = tr.TcPoint(owner=child, tree=btree)
        val = ts4.tc_distance(lab, a, b)
        tgrid = np.arange(-4, 4, step)
        brute = min(
            abs(t - v0)
            + hx.tbin_distance(hx.line_point_at_lambda(comp_in, hx.EDGE * t), btree) / hx.EDGE
            for t in tgrid
        )
        assert abs(val - brute) <= step
