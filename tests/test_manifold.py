import random

import pytest

from conftest import (
    IRREDUCIBLE_NAMES, SHIPPED_NAMES, ball_ids, path_permutation, shipped, shipped_doc,
)
from ogm import cover
from ogm.manifold import (
    GraphManifoldSpec,
    Permutation,
    SpecError,
    check_irreducible,
    class_label,
    validate,
)


def brute_apply(perm, values):
    """Independent elementwise application: out[perm(i)] = values[i]."""
    out = [None] * len(values)
    for i, v in enumerate(values):
        out[perm(i)] = v
    return out


def test_permutation_algebra():
    p = Permutation((1, 2, 0))
    q = p.inverse()
    assert q.images == (2, 0, 1)
    assert p.after(q).is_identity()
    assert q.after(p).is_identity()
    assert Permutation.identity(3).images == (0, 1, 2)


def test_validate_flip_ok():
    spec = shipped("flip_n3")
    assert validate(spec) == []


@pytest.mark.parametrize("name", SHIPPED_NAMES)
def test_validate_shipped(name):
    assert validate(shipped(name)) == []


def test_validate_fixed_base():
    doc = shipped_doc("flip_n3")
    doc["edges"][0]["perm"] = [0, 1]
    doc["edges"][1]["perm"] = [0, 1]
    out = validate(GraphManifoldSpec.from_dict(doc))
    assert any("fixed base coordinate" in v for v in out)


def test_validate_non_involutive():
    doc = shipped_doc("cycle_n4")
    doc["edges"][1]["perm"] = [1, 2, 0]  # same as forward, not the inverse
    out = validate(GraphManifoldSpec.from_dict(doc))
    assert any("non-involutive gluing" in v for v in out)


def test_validate_reverse_swaps_endpoints():
    doc = shipped_doc("two_vertex_n5")
    doc["edges"][3]["from"] = "a"
    doc["edges"][3]["to"] = "b"
    out = validate(GraphManifoldSpec.from_dict(doc))
    assert any("swap endpoints" in v for v in out)


def test_validate_deterministic_order():
    doc = shipped_doc("flip_n3")
    doc["edges"][0]["perm"] = [0, 1]
    doc["edges"][1]["perm"] = [0, 1]
    spec = GraphManifoldSpec.from_dict(doc)
    assert validate(spec) == validate(spec)


def test_path_permutation_empty_and_backtrack():
    spec = shipped("flip_n3")
    assert path_permutation(spec, []).is_identity()
    assert path_permutation(spec, ["w1", "w2"]).is_identity()


def test_path_permutation_against_brute_force():
    spec = shipped("cycle_n4")
    sigma = path_permutation(spec, ["w1", "w1"])
    values = ["a", "b", "c"]
    step1 = brute_apply(spec.edges["w1"].perm, values)
    step2 = brute_apply(spec.edges["w1"].perm, step1)
    assert brute_apply(sigma, values) == step2


def test_path_permutation_composability_checked():
    spec = shipped("two_vertex_n5")
    with pytest.raises(SpecError):
        path_permutation(spec, ["wa", "wa"])  # wa ends at b, not a


def test_backtracking_paths_are_identity():
    rng = random.Random(0)
    spec = shipped("two_vertex_n5")
    for _ in range(1000):
        # build a random path, then unwind it in reverse
        path = []
        cur = spec.root_vertex()
        for _ in range(rng.randrange(1, 6)):
            e = rng.choice(spec.boundary(cur))
            path.append(e.id)
            cur = e.to
        back = [spec.edges[eid].reverse for eid in reversed(path)]
        assert path_permutation(spec, path + back).is_identity()


def label_paths(spec, depth):
    """Every edge path of length <= depth out of the root vertex."""
    paths = [()]
    for path in paths:
        if len(path) < depth:
            end = spec.edges[path[-1]].to if path else spec.root_vertex()
            paths.extend(path + (e.id,) for e in spec.boundary(end))
    return paths


def explored_classes(name, depth):
    """(block, label path from the root, class) for every explored block."""
    cx = cover.explore(shipped(name), depth, 2, wall_comp_depth=0)
    return [(bid, cx.block(bid).labels, cx.block(bid).class_label) for bid in ball_ids(cx)]


def test_classes_flip_parity():
    spec = shipped("flip_n3")
    for path in label_paths(spec, 4):
        assert class_label(path_permutation(spec, path)) == len(path) % 2
    explored = explored_classes("flip_n3", 4)
    for bid, _, lab in explored:
        assert lab == len(bid) % 2
    assert len({lab for _, _, lab in explored}) == 2


def test_classes_cycle_depth_mod3():
    spec = shipped("cycle_n4")

    def brute(path):
        sigma = Permutation.identity(3)
        for eid in path:
            sigma = spec.edges[eid].perm.after(sigma)
        return sigma.inverse()(0)

    # brute force: composing the 3-cycle k times moves 0 to depth mod 3
    paths = label_paths(spec, 4)
    for path in paths:
        assert class_label(path_permutation(spec, path)) == brute(path)
    assert len({brute(path) for path in paths}) == 3
    explored = explored_classes("cycle_n4", 4)
    for _, path, lab in explored:
        assert lab == brute(path)
    assert len({lab for _, _, lab in explored}) == 3


def test_adjacent_vertices_differ():
    for name in IRREDUCIBLE_NAMES:
        spec = shipped(name)
        for path in label_paths(spec, 3)[1:]:
            lab = class_label(path_permutation(spec, path))
            assert lab != class_label(path_permutation(spec, path[:-1]))
        classes = {bid: lab for bid, _, lab in explored_classes(name, 3)}
        for bid, lab in classes.items():
            if bid:
                assert lab != classes[bid[:-1]]


def test_class_count_bounded():
    for name in SHIPPED_NAMES:
        spec = shipped(name)
        labels = {class_label(path_permutation(spec, p)) for p in label_paths(spec, 4)}
        assert len(labels) <= spec.n - 1
        assert {lab for _, _, lab in explored_classes(name, 4)} <= labels


def test_reroot_invariance():
    spec = shipped("two_vertex_n5")
    # re-root at the end of edge "wa": recompute labels relative to that
    # vertex and compare partitions up to relabeling
    rev = ("wb",)
    mapping = {}
    for path in label_paths(spec, 3):
        lab = class_label(path_permutation(spec, path))
        lab2 = class_label(path_permutation(spec, rev + path))
        assert mapping.setdefault(lab, lab2) == lab2


def test_irreducible_flip_depth1():
    rep = check_irreducible(shipped("flip_n3"), 1)
    assert rep.irreducible
    assert rep.covered == (0, 1)


def test_irreducible_cycle_depth2():
    rep = check_irreducible(shipped("cycle_n4"), 2)
    assert rep.irreducible


def test_reducible_detected():
    rep = check_irreducible(shipped("reducible_n4"), 10)
    assert not rep.irreducible
    assert rep.covered == (0, 1)
    assert rep.reason == "coordinates [2] not reached within depth 10 (inconclusive)"


def test_inconclusive_is_false():
    # depth 1 reaches labels {0, 1, 3} only; must report false, never true
    rep = check_irreducible(shipped("two_vertex_n5"), 1)
    assert not rep.irreducible
    assert rep.covered == (0, 1, 3)
    assert rep.reason == "coordinates [2] not reached within depth 1 (inconclusive)"


def test_two_vertex_n5_irreducible_depth3():
    rep = check_irreducible(shipped("two_vertex_n5"), 3)
    assert rep.irreducible
    assert rep.covered == (0, 1, 2, 3)
    assert rep.reason == "all coordinates reached"


def test_digest_stable():
    a = shipped("flip_n3").digest()
    b = GraphManifoldSpec.from_dict(shipped_doc("flip_n3")).digest()
    assert a == b and len(a) == 64


@pytest.mark.parametrize(
    "field, value, message",
    [
        # int() loaded n = 3.7 as 3, and "x" raised a ValueError naming no field
        ("n", 3.7, "field n is not a JSON integer: 3.7"),
        ("n", "x", "field n is not a JSON integer: 'x'"),
        ("n", True, "field n is not a JSON integer: True"),
        ("n", None, "field n is not a JSON integer: None"),
        # int() loaded both as (1, 0)
        ("perm", [1.9, 0.2], "edge w1: perm entry is not a JSON integer: 1.9"),
        ("perm", [True, False], "edge w1: perm entry is not a JSON integer: True"),
        ("perm", [1, "0"], "edge w1: perm entry is not a JSON integer: '0'"),
        ("perm", "10", "edge w1: perm entry is not a JSON integer: '1'"),
    ],
    ids=["n-float", "n-str", "n-bool", "n-null", "perm-float", "perm-bool", "perm-str-entry",
         "perm-str"],
)
def test_from_dict_reads_only_json_integers(field, value, message):
    doc = shipped_doc("flip_n3")
    if field == "n":
        doc["n"] = value
    else:
        assert doc["edges"][0]["id"] == "w1"
        doc["edges"][0]["perm"] = value
    with pytest.raises(SpecError) as err:
        GraphManifoldSpec.from_dict(doc)
    assert str(err.value) == message



@pytest.mark.parametrize(
    "path, value, message",
    [
        # "ab" loaded as the two vertices a and b, null as a vertex named None
        (("vertices",), "ab", "field vertices is not a JSON array: 'ab'"),
        (("vertices",), None, "field vertices is not a JSON array: None"),
        (("vertices", 0), None, "vertex name is not a JSON string: None"),
        (("vertices", 0), 7, "vertex name is not a JSON string: 7"),
        (("edges", 0, "id"), 1, "edge field id is not a JSON string: 1"),
        (("edges", 0, "from"), None, "edge w1: field from is not a JSON string: None"),
        (("edges", 0, "to"), ["v"], "edge w1: field to is not a JSON string: ['v']"),
        (("edges", 0, "reverse"), False, "edge w1: field reverse is not a JSON string: False"),
    ],
    ids=["vertices-str", "vertices-null", "vertex-null", "vertex-int", "edge-id-int",
         "edge-from-null", "edge-to-list", "edge-reverse-bool"],
)
def test_from_dict_reads_only_json_strings(path, value, message):
    doc = shipped_doc("flip_n3")
    assert doc["edges"][0]["id"] == "w1"
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SpecError) as err:
        GraphManifoldSpec.from_dict(doc)
    assert str(err.value) == message
