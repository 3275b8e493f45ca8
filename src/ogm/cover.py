"""Finite truncation of the universal-cover model space.

Blocks are copies of H0 x R^(n-2) indexed by vertices of the dual tree T0;
adjacent blocks are glued along walls (boundary line x R^(n-2)) by the edge
permutation, zero offset, matching the integer grids.  All blocks share one
HexModel, so a block is just its tree address plus a label assignment.

Block addressing: children are created one per boundary component of the
parent; a block id is the tuple of parent component indices along the path
from the root.  Edge labels are assigned round-robin over the boundary
edges of the block's graph vertex in canonical component order; a child's
component 0 is its gluing component and carries the reverse edge label.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import hexagon as hx
from .manifold import GraphManifoldSpec, OrientedEdge, validate

BlockId = tuple[int, ...]


@dataclass(frozen=True)
class Block:
    id: BlockId
    labels: tuple[str, ...]  # oriented edge ids from the root block
    g_vertex: str
    shift: int  # round-robin offset into boundary(g_vertex)

    @property
    def rank(self) -> int:
        return len(self.id)


@dataclass(frozen=True)
class Wall:
    parent: BlockId
    parent_comp: int  # index into the shared component table
    child: BlockId
    edge_id: str  # oriented parent -> child


WallChain = tuple[tuple[Wall, bool], ...]


@dataclass(frozen=True)
class CoverPoint:
    block: BlockId
    base: hx.H0Point
    fiber: tuple[float, ...]


class CoverError(ValueError):
    pass


class CoverComplex:
    """Two-phase: explore() builds and freezes; all queries afterwards are
    pure and safe to run concurrently."""

    def __init__(
        self,
        spec: GraphManifoldSpec,
        t0_depth: int,
        hex_depth: int,
        fiber_range: float = 8.0,
        wall_comp_depth: Optional[int] = None,
    ):
        """wall_comp_depth restricts which boundary components spawn walls
        and children: only those whose minimal chain hexagon has address
        length <= wall_comp_depth.  None glues every labeled component (the
        literal construction); small values keep every wall's arclength
        window wide enough for verification sampling, since a component
        whose minimal hexagon sits at depth d spans arclengths
        [-(hex_depth-d), hex_depth-d+1] only."""
        if t0_depth < 0:
            raise ValueError("t0_depth must be >= 0")
        if hex_depth < 1:
            raise ValueError("hex_depth must be >= 1")
        if wall_comp_depth is not None and wall_comp_depth < 0:
            raise ValueError("wall_comp_depth must be >= 0 or None")
        if not (math.isfinite(fiber_range) and fiber_range >= 0):
            raise ValueError("fiber_range must be finite and >= 0")
        bad = validate(spec)
        if bad:
            raise CoverError("invalid spec: " + "; ".join(bad))
        self.spec = spec
        self.t0_depth = t0_depth
        self.hex_depth = hex_depth
        self.fiber_range = float(fiber_range)
        self.wall_comp_depth = wall_comp_depth
        self.model = hx.HexModel(hex_depth)
        self.blocks: dict[BlockId, Block] = {}
        self.walls: dict[tuple[BlockId, int], Wall] = {}
        self._build()
        self.block_list = sorted(self.blocks)  # lexicographic: a preorder of the T0 ball

    def _build(self) -> None:
        wall_comps = [
            ci
            for ci, comp in enumerate(self.model.components)
            if self.wall_comp_depth is None
            or len(comp.min_addr) <= self.wall_comp_depth
        ]
        root = Block((), (), self.spec.root_vertex(), 0)
        self.blocks[()] = root
        frontier = [root]
        for _ in range(self.t0_depth):
            nxt = []
            for blk in frontier:
                for ci in wall_comps:
                    if ci == 0 and blk.rank > 0:
                        continue  # component 0 links upward
                    edge = self.block_label(blk, ci)
                    child_g = edge.to
                    rev = self.spec.edges[edge.reverse]
                    shift = self.spec.boundary(child_g).index(rev)
                    child = Block(
                        blk.id + (ci,), blk.labels + (edge.id,), child_g, shift
                    )
                    self.blocks[child.id] = child
                    self.walls[(blk.id, ci)] = Wall(blk.id, ci, child.id, edge.id)
                    nxt.append(child)
            frontier = nxt

    # -- structure queries --------------------------------------------------

    def block_label(self, blk: Block, comp_index: int) -> OrientedEdge:
        ring = self.spec.boundary(blk.g_vertex)
        return ring[(blk.shift + comp_index) % len(ring)]

    def block(self, bid: BlockId) -> Block:
        try:
            return self.blocks[bid]
        except KeyError:
            raise CoverError(f"block {bid} not explored") from None

    def parent_wall(self, bid: BlockId) -> Wall:
        if not bid:
            raise CoverError("root block has no parent wall")
        return self.walls[(bid[:-1], bid[-1])]

    def wall_chain(self, u: BlockId, v: BlockId) -> WallChain:
        """Walls along the T0 geodesic from u to v, in order, with a flag:
        True when the step crosses from the wall's child into its parent.
        Built on each call from the common prefix of the two block ids; no
        chain is kept."""
        self.block(u), self.block(v)
        k = hx.lcp_len(u, v)
        up = tuple((self.walls[(u[: i - 1], u[i - 1])], True) for i in range(len(u), k, -1))
        down = tuple((self.walls[(v[:i], v[i])], False) for i in range(k, len(v)))
        return up + down

    def wall_component(self, w: Wall, child_side: bool) -> hx.ComponentId:
        if child_side:
            return self.model.components[0]
        return self.model.components[w.parent_comp]

    # -- coordinates on walls -------------------------------------------------
    #
    # Canonical wall coordinates: (arclength on the parent-side component,
    # parent fibers).  The child reads them through the edge permutation s:
    # child_coords[s(i)] = canonical[i]; child coordinate 0 is again an
    # arclength, of the child's gluing component.

    def wall_coords(self, p: CoverPoint, w: Wall) -> tuple[float, ...]:
        if p.block not in (w.parent, w.child):
            raise CoverError("point belongs to neither side of the wall")
        child_side = p.block == w.child
        bc = hx.boundary_param(p.base)
        if bc.component != self.wall_component(w, child_side):
            raise CoverError("point not on this wall")
        coords = (bc.arclength,) + p.fiber
        if not child_side:
            return coords
        perm = self.spec.edges[w.edge_id].perm
        return tuple(coords[perm(i)] for i in range(len(coords)))

    def point_from_wall_coords(
        self, w: Wall, coords: tuple[float, ...], child_side: bool
    ) -> CoverPoint:
        if not child_side:
            base = self.model.boundary_point(self.wall_component(w, False), coords[0])
            return CoverPoint(w.parent, base, tuple(coords[1:]))
        perm = self.spec.edges[w.edge_id].perm
        child_coords = [0.0] * len(coords)
        for i, c in enumerate(coords):
            child_coords[perm(i)] = c
        base = self.model.boundary_point(self.wall_component(w, True), child_coords[0])
        return CoverPoint(w.child, base, tuple(child_coords[1:]))

    def cross_wall(self, p: CoverPoint, w: Wall) -> CoverPoint:
        """Re-express a wall point in the block on the other side."""
        coords = self.wall_coords(p, w)
        return self.point_from_wall_coords(w, coords, child_side=(p.block == w.parent))

    def normalize(self, p: CoverPoint) -> CoverPoint:
        """Wall points resolve to the lower-rank block."""
        p = CoverPoint(p.block, hx.normalize_point(p.base), p.fiber)
        if not p.block:
            return p
        try:
            bc = hx.boundary_param(p.base)
        except hx.NotOnBoundaryError:
            return p
        if bc.component != self.model.components[0]:
            return p
        return self.cross_wall(p, self.parent_wall(p.block))

    # -- sampling -----------------------------------------------------------

    def sample_point(self, rng: np.random.Generator) -> CoverPoint:
        bid = self.block_list[int(rng.integers(0, len(self.block_list)))]
        addr = self.model.hexagons[int(rng.integers(0, len(self.model.hexagons)))]
        local = self.model.sample_local(rng)
        fiber = tuple(
            float(x) for x in rng.uniform(-self.fiber_range, self.fiber_range, self.spec.n - 2)
        )
        return CoverPoint(bid, hx.H0Point(addr, local), fiber)

    def contains(self, p: CoverPoint) -> bool:
        if p.block not in self.blocks or len(p.fiber) != self.spec.n - 2:
            return False
        if not all(math.isfinite(f) for f in p.fiber):
            return False
        try:
            self.model.check_point(p.base)
        except (hx.TruncationError, ValueError):
            return False
        return True

    # -- serialization --------------------------------------------------------

    def format_point(self, p: CoverPoint) -> str:
        blk = self.block(p.block)
        segs = [f"{lab}#{ci}" for lab, ci in zip(blk.labels, p.block)]
        hexes = "".join(str(d) for d in p.base.hex)
        pos = f"{p.base.local[1]!r},{p.base.local[2]!r}"
        fib = ",".join(repr(x) for x in p.fiber)
        return f"block={','.join(segs)};hex={hexes};pos={pos};fiber={fib}"

    def parse_point(self, text: str) -> CoverPoint:
        fields: dict[str, str] = {}
        for part in text.strip().split(";"):
            key, eq, value = part.partition("=")
            if not eq:
                raise CoverError(f"point part {part!r} has no '='")
            fields[key] = value
        if "pos" not in fields:
            raise CoverError(f"point {text!r} has no pos field")

        def numbers(key: str, conv, items) -> tuple:
            try:
                return tuple(conv(v) for v in items)
            except ValueError:
                raise CoverError(f"malformed {key} field {fields[key]!r}") from None

        bid: BlockId = ()
        if fields.get("block"):
            for seg in fields["block"].split(","):
                lab, _, ci = seg.partition("#")
                wall = self.walls.get((bid, int(ci))) if ci.isdecimal() else None
                if wall is None or wall.edge_id != lab:
                    raise CoverError(f"unknown block segment {seg!r}")
                bid = wall.child
        addr = numbers("hex", int, fields.get("hex", ""))
        pos = numbers("pos", float, fields["pos"].split(","))
        if len(pos) != 2:
            raise CoverError(f"malformed pos field {fields['pos']!r}")
        x1, x2 = pos
        local = (math.sqrt(1.0 + x1 * x1 + x2 * x2), x1, x2)
        fiber = numbers("fiber", float, fields["fiber"].split(",")) if fields.get("fiber") else ()
        p = CoverPoint(bid, hx.H0Point(addr, local), fiber)
        if not self.contains(p):
            raise CoverError(f"point outside complex: {text!r}")
        return p

    def summary(self) -> dict:
        comps = [
            {"index": i, "min_hex": list(c.min_addr), "side": c.side}
            for i, c in enumerate(self.model.components)
        ]
        blocks = []
        for bid in self.block_list:
            blk = self.blocks[bid]
            blocks.append(
                {
                    "id": list(bid),
                    "g_vertex": blk.g_vertex,
                    "labels": [
                        self.block_label(blk, ci).id
                        for ci in range(len(self.model.components))
                    ],
                }
            )
        walls = [
            {
                "parent": list(w.parent),
                "parent_comp": w.parent_comp,
                "child": list(w.child),
                "edge": w.edge_id,
            }
            for (_, _), w in sorted(self.walls.items())
        ]
        return {
            "spec_digest": self.spec.digest(),
            "n": self.spec.n,
            "t0_depth": self.t0_depth,
            "hex_depth": self.hex_depth,
            "fiber_range": self.fiber_range,
            "wall_comp_depth": self.wall_comp_depth,
            "components": comps,
            "blocks": blocks,
            "walls": walls,
        }


def explore(
    spec: GraphManifoldSpec,
    t0_depth: int,
    hex_depth: int,
    fiber_range: float = 8.0,
    wall_comp_depth: Optional[int] = None,
) -> CoverComplex:
    return CoverComplex(spec, t0_depth, hex_depth, fiber_range, wall_comp_depth)


def read_summary(spec: GraphManifoldSpec, path: str) -> CoverComplex:
    """Rebuild the complex whose summary() was dumped as JSON to `path`,
    from its depths, fiber range and wall component depth."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CoverError("complex dump is not a JSON object")
    if doc.get("spec_digest") != spec.digest():
        raise CoverError("complex dump was built from a different spec")

    def field(key: str, kind: type):
        """A JSON number: int() would read 1.9 as 1, float() "nan" as NaN."""
        if key not in doc:
            raise CoverError(f"complex dump has no {key} field")
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            raise CoverError(f"complex dump has a malformed {key} field")
        return kind(value)

    wall_comp_depth = doc.get("wall_comp_depth")  # absent or null: every component
    return explore(
        spec,
        field("t0_depth", int),
        field("hex_depth", int),
        fiber_range=field("fiber_range", float),
        wall_comp_depth=None if wall_comp_depth is None else field("wall_comp_depth", int),
    )


def make_stream(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-sample stream; order and worker independent."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))
