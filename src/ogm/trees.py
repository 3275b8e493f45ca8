"""Quotient trees T_c, the maps into them, and the product embedding.

For a class c of tree vertices, the piece over a block v is the dual tree
T_v when v is in c and a real line (one fiber coordinate) otherwise.  Wall
identifications glue the pieces: between two non-c blocks the relevant
coordinate transfers identically; at a c block the line parameter enters
through the boundary retraction profile, which maps arclength t to the
boundary chain's line in T_v at tree-arclength 2*rho*t.

Metric on the quotient.  Every boundary line of a c block is glued (in the
ideal, untruncated cover) to a line piece carrying the Euclidean parameter
metric, while the dual tree charges 2*rho per parameter unit along the same
line; the quotient pseudometric therefore travels chain lines at parameter
speed.  Since every T_bin edge lies on a chain line and lines may be
switched at shared vertices, the induced piece metric is the dual-tree
metric divided by 2*rho (each tree edge costs one grid unit), and with it
every gluing is isometric, so T_c is an honest metric tree.

Distances are exact.  The T_c distance from a fixed point to the points of
one line is a V-shape |s - g| + c in the line's grid coordinate s, kept as
the pair (gate g, offset c) and propagated along the T0 geodesic between
the owning blocks.  Within a tree piece it moves from the entry chain line
to the exit chain line by the tree-gate projection: lines in a metric tree
either share a segment or are joined by a unique bridge, and both keep the
V-shape (a bridge is crossed from one gate, and on a shared segment the
clipped gate only adds the constant |g - clip(g)|).  All profile parameters
are in grid units, where the line gluings are the identity.  Gates and line
relations come from exact arithmetic on hexagon addresses (a chain line is
its minimal hexagon followed by alternating letters, see hexagon.line_gate),
so no window of chain vertices is searched and the tree is not truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import hexagon as hx
from .cover import CoverComplex, CoverError, CoverPoint, Wall
from .manifold import Permutation, class_label, path_permutation

BlockId = tuple[int, ...]


def tree_piece_distance(a: hx.TbinPoint, b: hx.TbinPoint) -> float:
    """Distance inside a c piece (collapsed quotient metric, grid units)."""
    return hx.tbin_distance(a, b) / hx.EDGE


@dataclass(frozen=True)
class TcPoint:
    """Point of T_c: a dual-tree point when the owner block is in c, else
    the value of the coordinate the class reads off that block."""

    owner: BlockId
    tree: Optional[hx.TbinPoint] = None
    value: Optional[float] = None


@dataclass(frozen=True)
class ProductPoint:
    t0: BlockId
    coords: tuple[tuple[int, TcPoint], ...]  # (class label, T_c point), sorted

    def coord(self, label: int) -> TcPoint:
        for lab, p in self.coords:
            if lab == label:
                return p
        raise KeyError(label)


# ---------------------------------------------------------------------------
# line geometry inside one dual tree (all lengths in grid units)


@dataclass(frozen=True)
class LineRelation:
    """How the exit chain line sees the entry chain line."""

    kind: str  # "overlap" | "bridge"
    lam_lo: float = 0.0  # entry-line grid coordinates of the shared segment
    lam_hi: float = 0.0
    mu_lo: float = 0.0  # exit-line coordinate matching lam_lo
    mu_hi: float = 0.0  # exit-line coordinate matching lam_hi
    orient: int = 1
    lam_gate: float = 0.0  # bridge data
    mu_gate: float = 0.0
    bridge: float = 0.0

    def cross(self, g, c):
        """Push the V-profile |s - g| + c on the entry line through the tree
        piece onto the exit line; g and c are floats or numpy arrays."""
        if self.kind == "bridge":
            return self.mu_gate, c + abs(self.lam_gate - g) + self.bridge
        clipped = np.minimum(np.maximum(g, self.lam_lo), self.lam_hi)
        return self.mu_lo + self.orient * (clipped - self.lam_lo), c + abs(g - clipped)


@dataclass(frozen=True)
class Route:
    """The point-free part of a profile walk: the source piece's exit line,
    the relations crossed in order, and the end line (None over a fiber)."""

    exit: Optional[hx.ComponentId]
    relations: tuple[LineRelation, ...]
    line: Optional[hx.ComponentId]

    def push(self, g, c):
        for rel in self.relations:
            g, c = rel.cross(g, c)
        return g, c


# Grid coordinates: the chain vertex at position k sits at k + 1/2.


def line_relation(comp_in: hx.ComponentId, comp_out: hx.ComponentId) -> LineRelation:
    """Relation of two distinct chain lines.  comp_out lies below its
    min_addr, so every path from it to comp_in passes the gate p1 of min_addr:
    if p1 is on comp_out the lines meet, in at most one edge (an edge lies on
    exactly two chain lines), else the bridge runs from p1 to its gate on
    comp_out."""
    k1, _ = hx.line_gate(comp_in, comp_out.min_addr)
    m1, bridge = hx.line_gate(comp_out, hx.chain_address(comp_in, k1))
    if bridge:
        return LineRelation(
            "bridge", lam_gate=k1 + 0.5, mu_gate=m1 + 0.5, bridge=float(bridge)
        )
    shared = [(k1, m1)]
    for k in (k1 - 1, k1 + 1):
        m, off = hx.line_gate(comp_out, hx.chain_address(comp_in, k))
        if not off:
            shared.append((k, m))
    shared.sort()
    (k1, m1), (k2, m2) = shared[0], shared[-1]
    return LineRelation(
        "overlap",
        lam_lo=k1 + 0.5,
        lam_hi=k2 + 0.5,
        mu_lo=m1 + 0.5,
        mu_hi=m2 + 0.5,
        orient=1 if m2 >= m1 else -1,
    )


def gate_on_line(comp: hx.ComponentId, point: hx.TbinPoint) -> tuple[float, float]:
    """(grid coordinate of the gate on the line, piece distance to it).  An
    edge point off the line leaves its edge through the nearer end, and both
    ends share the gate."""
    k, d = hx.line_gate(comp, point.parent)
    if point.child is None:
        return k + 0.5, float(d)
    _, dc = hx.line_gate(comp, point.child)
    if d == dc == 0:
        return hx.line_lambda_of_point(comp, point) / hx.EDGE, 0.0
    o = point.offset / hx.EDGE
    return k + 0.5, min(o + d, 1.0 - o + dc)


def line_coords(line: Optional[hx.ComponentId], p: TcPoint) -> tuple[float, float]:
    """(gate, distance) of p on a chain line, or (value, 0) on a fiber (None)."""
    return (p.value, 0.0) if line is None else gate_on_line(line, p.tree)


# ---------------------------------------------------------------------------
# the tree system over a frozen complex


class TreeSystem:
    def __init__(self, cplx: CoverComplex):
        self.cplx = cplx
        # composed permutation and class label per explored block
        self.sigma: dict[BlockId, Permutation] = {}
        self.labels: dict[BlockId, int] = {}
        for bid in cplx.block_list:
            self.sigma[bid] = path_permutation(cplx.spec, cplx.blocks[bid].labels)
            self.labels[bid] = class_label(self.sigma[bid])
        self.class_labels: tuple[int, ...] = tuple(sorted(set(self.labels.values())))
        self.representatives: dict[int, BlockId] = {}
        for bid in cplx.block_list:
            self.representatives.setdefault(self.labels[bid], bid)
        self._relations: dict[tuple[hx.ComponentId, hx.ComponentId], LineRelation] = {}

    # -- maps ---------------------------------------------------------------

    def phi0(self, x: CoverPoint) -> BlockId:
        return self.cplx.normalize(x).block

    def t0_distance(self, u: BlockId, v: BlockId) -> float:
        """Block ids are prefix addresses of T0, as hexagon addresses are of
        T_bin, so the T0 distance is the same prefix arithmetic."""
        self.cplx.block(u), self.cplx.block(v)
        return float(hx.hex_tree_edges(u, v))

    def coordinate_index(self, label: int, bid: BlockId) -> int:
        """Block coordinate read by phi_c over a block outside c."""
        return self.sigma[bid](label)

    def phi_c(self, label: int, x: CoverPoint) -> TcPoint:
        if label not in self.representatives:
            raise CoverError(f"class {label} not present in the explored complex")
        xn = self.cplx.normalize(x)
        if self.labels[xn.block] == label:
            return TcPoint(owner=xn.block, tree=hx.retract(xn.base))
        k = self.coordinate_index(label, xn.block)
        return TcPoint(owner=xn.block, value=xn.fiber[k - 1])

    def phi(self, x: CoverPoint) -> ProductPoint:
        xn = self.cplx.normalize(x)
        return ProductPoint(
            t0=xn.block,
            coords=tuple((lab, self.phi_c(lab, xn)) for lab in self.class_labels),
        )

    # -- T_c distance ---------------------------------------------------------

    def _wall_side_comp(self, wall: Wall, bid: BlockId) -> hx.ComponentId:
        return self.cplx.wall_component(wall, child_side=(bid == wall.child))

    def route(
        self, label: int, src: BlockId, dst: BlockId, comp: Optional[hx.ComponentId] = None
    ) -> Route:
        """The profile walk from block src to block dst along the T0
        geodesic; comp as in line_profile."""
        chain = self.cplx.wall_chain(src, dst)
        exit_ = self._wall_side_comp(chain[0][0], src) if self.labels[src] == label else None
        relations, line = [], None
        for (w, up), nxt in zip(chain, [*chain[1:], None]):
            bid = w.parent if up else w.child
            if self.labels[bid] != label:
                line = None
                continue
            line = self._wall_side_comp(w, bid)
            comp_out = self._wall_side_comp(nxt[0], bid) if nxt else (comp or line)
            if comp_out != line:
                rel = self._relations.get((line, comp_out))
                if rel is None:
                    rel = self._relations[(line, comp_out)] = line_relation(line, comp_out)
                relations.append(rel)
                line = comp_out
        return Route(exit_, tuple(relations), line)

    def line_profile(
        self,
        label: int,
        src: TcPoint,
        dst: BlockId,
        comp: Optional[hx.ComponentId] = None,
    ) -> tuple[float, float, Optional[hx.ComponentId]]:
        """Exact T_c distance from src to a line over block dst, as (g, c,
        line): the line's point at grid coordinate s lies at |s - g| + c.
        Over a dst in c the line is the chain line comp, by default the one
        through which the T0 geodesic from src enters dst; over a dst outside
        c it is the fiber line, and line is None."""
        if src.owner == dst:
            return (*gate_on_line(comp, src.tree), comp)
        route = self.route(label, src.owner, dst, comp)
        g, c = route.push(*line_coords(route.exit, src))
        return float(g), float(c), route.line

    def tc_distance(self, label: int, a: TcPoint, b: TcPoint) -> float:
        for p in (a, b):
            if p.owner not in self.cplx.blocks:
                raise CoverError(f"owner {p.owner} not explored")
        if a.owner == b.owner:
            if a.tree is not None:
                return tree_piece_distance(a.tree, b.tree)
            return abs(a.value - b.value)
        g, c, line = self.line_profile(label, a, b.owner)
        lam, d = line_coords(line, b)
        return abs(lam - g) + c + d

    def tc_matrix(self, label: int, points: Sequence[TcPoint]) -> np.ndarray:
        """Symmetric matrix of tc_distance(label, points[i], points[j]),
        entry for entry equal to it.  One route per (class, source block,
        destination block) carries the source points' (g, c) as arrays, and
        numpy fills the block pair as |lam - g| + c + d; entry (i, j) with
        i > j comes from the transposed block of the reverse route."""
        for p in points:
            if p.owner not in self.cplx.blocks:
                raise CoverError(f"owner {p.owner} not explored")
        out = np.zeros((len(points), len(points)))
        members: dict[BlockId, list[int]] = {}
        for i, p in enumerate(points):
            members.setdefault(p.owner, []).append(i)
        coords: dict[tuple[Optional[hx.ComponentId], BlockId], np.ndarray] = {}

        def block_coords(line: Optional[hx.ComponentId], o: BlockId) -> np.ndarray:
            if (line, o) not in coords:
                coords[(line, o)] = np.array([line_coords(line, points[j]) for j in members[o]]).T
            return coords[(line, o)]

        def block(a: BlockId, o: BlockId) -> np.ndarray:
            route = self.route(label, a, o)
            g, c = route.push(*block_coords(route.exit, a))
            lam, d = block_coords(route.line, o)
            # after a bridge g is one scalar for all of a's points
            return np.abs(lam - np.reshape(g, (-1, 1))) + c[:, None] + d

        groups = [(o, np.array(ix)) for o, ix in members.items()]
        for x, (a, ia) in enumerate(groups):
            if self.labels[a] == label:
                for y, i in enumerate(ia):
                    for j in ia[y + 1:]:
                        out[i, j] = out[j, i] = tree_piece_distance(points[i].tree, points[j].tree)
            else:
                v = block_coords(None, a)[0]
                out[np.ix_(ia, ia)] = np.abs(v[:, None] - v)
            for o, io in groups[x + 1:]:
                fill = np.where(ia[:, None] < io, block(a, o), block(o, a).T)
                out[np.ix_(ia, io)] = fill
                out[np.ix_(io, ia)] = fill.T
        return out

    def product_distance(self, p: ProductPoint, q: ProductPoint) -> float:
        total = self.t0_distance(p.t0, q.t0)
        for lab, pc in p.coords:
            total += self.tc_distance(lab, pc, q.coord(lab))
        return total
