"""Shared test helpers: the shipped specs, read from specs/*.json, the
reference gluing permutation of an edge path, child-side wall points, and
local points just outside a hexagon."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Optional

from ogm import hexagon as hx
from ogm.cover import CoverPoint
from ogm.manifold import GraphManifoldSpec, Permutation, SpecError

SPECS = Path(__file__).resolve().parent.parent / "specs"
SHIPPED_NAMES = tuple(sorted(p.stem for p in SPECS.glob("*.json")))
IRREDUCIBLE_NAMES = ("flip_n3", "cycle_n4", "two_vertex_n5")


def shipped_doc(name: str) -> dict:
    """The shipped spec `name` as a fresh dict, safe to mutate."""
    return json.loads((SPECS / f"{name}.json").read_text(encoding="utf-8"))


def shipped(name: str) -> GraphManifoldSpec:
    return GraphManifoldSpec.from_dict(shipped_doc(name))


def ball_ids(cx) -> list:
    """Every block id of a complex's ball, in lexicographic order."""
    return [cx.block_at(i) for i in range(cx.block_count)]


def child_wall_point(cx, w, coords) -> CoverPoint:
    """The point of wall w at canonical coordinates coords (parent-side
    arclength, parent fibers), on the child side: the child reads them
    through the edge permutation s, child[s(i)] = coords[i], and child
    coordinate 0 is an arclength on its component 0."""
    perm = cx.spec.edges[w.edge_id].perm
    child = [0.0] * len(coords)
    for i, c in enumerate(coords):
        child[perm(i)] = c
    base = cx.model.boundary_point(cx.model.components[0], child[0])
    return CoverPoint(w.child, base, tuple(child[1:]))


def off_marked_side(letter: int, t: float) -> hx.Vec:
    """The midpoint of marked side `letter` moved t outward along its
    normal: <x, n> = sinh(t)."""
    x, n = hx.MIDPOINTS[2 * letter], hx.SIDE_NORMALS[2 * letter]
    return tuple(math.cosh(t) * x[k] + math.sinh(t) * n[k] for k in range(3))


def counting(calls, name: str, fn):
    """fn, counting each call in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def path_permutation(spec: GraphManifoldSpec, path: Iterable[str]) -> Permutation:
    """Composition s_{w_k} o ... o s_{w_1} along a composable edge path: the
    reference for `Block.sigma`."""
    acc = Permutation.identity(spec.n - 1)
    prev_to: Optional[str] = None
    for eid in path:
        e = spec.edges[eid]
        if prev_to is not None and e.frm != prev_to:
            raise SpecError(f"path not composable at edge {eid}")
        acc = e.perm.after(acc)
        prev_to = e.to
    return acc
