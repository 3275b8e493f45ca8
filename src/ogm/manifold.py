"""Combinatorial data of an orthogonal graph-manifold.

The input is a finite graph with involutive oriented edges; every oriented
edge w carries a permutation of the n-1 wall coordinates {0, ..., n-2} with
perm(0) != 0 and perm(-w) = perm(w)^-1.  Coordinate 0 is the boundary
arclength ("base") coordinate; crossing a wall relabels coordinates so that
the neighbor's coordinate perm(i) reads our coordinate i.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0, ..., n-2} stored as the image array."""

    images: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.images[i]

    def after(self, other: "Permutation") -> "Permutation":
        """self composed after other: (self.after(other))(i) = self(other(i))."""
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))


@dataclass(frozen=True)
class OrientedEdge:
    id: str
    frm: str
    to: str
    reverse: str
    perm: Permutation


class SpecError(ValueError):
    pass


class GraphManifoldSpec:
    """Validated-on-demand container for the gluing graph."""

    def __init__(self, n: int, vertices: list[str], edges: list[OrientedEdge]):
        self.n = n
        self.vertices = list(vertices)
        self.edges = {e.id: e for e in edges}
        self._boundary: dict[str, list[OrientedEdge]] = {v: [] for v in vertices}
        for e in edges:
            if e.frm in self._boundary:
                self._boundary[e.frm].append(e)
        for v in self._boundary:
            self._boundary[v].sort(key=lambda e: e.id)

    def boundary(self, v: str) -> list[OrientedEdge]:
        """Oriented edges out of v, canonically ordered."""
        return self._boundary[v]

    def root_vertex(self) -> str:
        return self.vertices[0]

    @staticmethod
    def from_dict(doc: dict) -> "GraphManifoldSpec":
        try:
            n = _json(doc["n"], int, "field n")
            vertices = _json(doc["vertices"], list, "field vertices")
            vertices = [_json(v, str, "vertex name") for v in vertices]
            edges = [_edge_from_dict(e) for e in doc["edges"]]
        except (KeyError, TypeError) as exc:
            raise SpecError(f"malformed spec document: {exc}") from exc
        return GraphManifoldSpec(n, vertices, edges)

    @staticmethod
    def from_json_file(path: str) -> "GraphManifoldSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return GraphManifoldSpec.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "vertices": list(self.vertices),
            "edges": [
                {
                    "id": e.id,
                    "from": e.frm,
                    "to": e.to,
                    "reverse": e.reverse,
                    "perm": list(e.perm.images),
                }
                for e in sorted(self.edges.values(), key=lambda e: e.id)
            ],
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


_JSON_KINDS = {int: "integer", str: "string", list: "array"}


def _json(value, kind: type, what: str):
    """A JSON value of one kind: int() would read 3.7 as 3 and true as 1,
    str() null as 'None', and a string would iterate as its characters."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SpecError(f"{what} is not a JSON {_JSON_KINDS[kind]}: {value!r}")
    return value


def _edge_from_dict(e: dict) -> OrientedEdge:
    eid = _json(e["id"], str, "edge field id")
    return OrientedEdge(
        id=eid,
        frm=_json(e["from"], str, f"edge {eid}: field from"),
        to=_json(e["to"], str, f"edge {eid}: field to"),
        reverse=_json(e["reverse"], str, f"edge {eid}: field reverse"),
        perm=Permutation(tuple(_json(i, int, f"edge {eid}: perm entry") for i in e["perm"])),
    )


def validate(spec: GraphManifoldSpec) -> list[str]:
    """All invariant violations, deterministically ordered; empty = valid."""
    out: list[str] = []
    if spec.n < 3:
        out.append(f"dimension n={spec.n} below 3")
    if not spec.vertices:
        out.append("no vertices")
    if len(set(spec.vertices)) != len(spec.vertices):
        out.append("duplicate vertex names")
    width = spec.n - 1
    for eid in sorted(spec.edges):
        e = spec.edges[eid]
        if e.frm not in spec._boundary or e.to not in spec._boundary:
            out.append(f"edge {eid}: endpoint not a vertex")
            continue
        imgs = e.perm.images
        if len(imgs) != width:
            out.append(f"edge {eid}: permutation length {len(imgs)} != n-1={width}")
            continue
        if sorted(imgs) != list(range(width)):
            out.append(f"edge {eid}: not a permutation of 0..{width - 1}")
            continue
        if imgs[0] == 0:
            out.append(f"edge {eid}: fixed base coordinate (perm(0) = 0)")
        rev = spec.edges.get(e.reverse)
        if rev is None:
            out.append(f"edge {eid}: reverse {e.reverse} missing")
            continue
        if rev.id == eid:
            out.append(f"edge {eid}: is its own reverse")
            continue
        if rev.reverse != eid:
            out.append(f"edge {eid}: reverse pairing not involutive")
        if rev.frm != e.to or rev.to != e.frm:
            out.append(f"edge {eid}: reverse does not swap endpoints")
        if len(rev.perm.images) == width and not rev.perm.after(e.perm).is_identity():
            out.append(f"edge {eid}: non-involutive gluing (perm(-w) != perm(w)^-1)")
    for v in sorted(set(spec.vertices)):
        if not spec._boundary.get(v):
            out.append(f"vertex {v}: no adjacent edges")
    return out


def class_label(sigma: Permutation) -> int:
    """Class of a T0 vertex whose composed gluing permutation from the root
    is sigma: the wall coordinate sigma sends to the base.  Two vertices are
    equivalent iff their labels agree (the relative permutation fixes 0)."""
    return sigma.inverse()(0)


@dataclass(frozen=True)
class IrreducibilityReport:
    irreducible: bool
    covered: tuple[int, ...]
    reason: str


def check_irreducible(spec: GraphManifoldSpec, depth: int) -> IrreducibilityReport:
    """True iff the base coordinate reaches every index within the explored
    ball; reported as inconclusive-at-depth (never true) otherwise.

    Explores (g_vertex, composed permutation) states breadth-first from the
    root vertex with deduplication, so deep balls stay cheap.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    width = spec.n - 1
    start = (spec.root_vertex(), Permutation.identity(width))
    seen = {(start[0], start[1].images)}
    frontier = [start]
    covered = {0}
    for _ in range(depth):
        nxt = []
        for gv, sigma in frontier:
            for e in spec.boundary(gv):
                sig2 = e.perm.after(sigma)
                key = (e.to, sig2.images)
                if key in seen:
                    continue
                seen.add(key)
                covered.add(class_label(sig2))
                nxt.append((e.to, sig2))
        frontier = nxt
    labels = tuple(sorted(covered))
    if len(labels) == width:
        return IrreducibilityReport(True, labels, "all coordinates reached")
    missing = sorted(set(range(width)) - covered)
    return IrreducibilityReport(
        False,
        labels,
        f"coordinates {missing} not reached within depth {depth} (inconclusive)",
    )
