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

A route is one map (lo, hi, orient, shift, const): the gate g goes to
orient * clip(g, lo, hi) + shift and the offset c to c + |g - clip| + const.
A shared segment clips to itself, a bridge is lo == hi, and the identity
clips to the whole line.  Two maps compose into one, since gate projections
onto the lines of a tree compose: clipping to I1 and then to the preimage J
of I2 is clipping to I1 & J, or, when that is empty, a bridge from the end
of I1 nearest J that adds the gap to const.  The parameters are
half-integers and compose exactly; tc_distance, line_profile and tc_matrix
all push points through the composed map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import hexagon as hx
from .cover import CoverComplex, CoverError, CoverPoint, Wall
from .manifold import Permutation, class_label, path_permutation

BlockId = tuple[int, ...]


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


class LineRelation(NamedTuple):
    """How the exit chain line sees the entry chain line, as one map of
    V-profiles (see the module docstring)."""

    lo: float = -math.inf  # entry-line grid coordinates of the clip interval
    hi: float = math.inf
    orient: float = 1
    shift: float = 0.0
    const: float = 0.0

    def cross(self, g, c):
        """Push (g, c) through the map; the fields, g and c are floats or
        numpy arrays that broadcast together."""
        clipped = np.minimum(np.maximum(g, self.lo), self.hi)
        return self.orient * clipped + self.shift, c + abs(g - clipped) + self.const

    def then(self, nxt: "LineRelation") -> "LineRelation":
        """This map followed by nxt, as one map (see the module docstring)."""
        j_lo, j_hi = sorted(self.orient * (y - self.shift) for y in (nxt.lo, nxt.hi))
        lo, hi, gap = max(self.lo, j_lo), min(self.hi, j_hi), 0.0
        if lo > hi:
            lo = hi = self.hi if self.hi < j_lo else self.lo
            gap = (j_lo if lo < j_lo else j_hi) - lo
        orient = self.orient * nxt.orient
        shift = nxt.orient * self.shift + nxt.shift + orient * gap
        return LineRelation(lo, hi, orient, shift, self.const + abs(gap) + nxt.const)


IDENTITY = LineRelation()


@dataclass(frozen=True)
class Route:
    """The point-free part of a profile walk: the source piece's exit line,
    the composed relation, and the end line (None over a fiber)."""

    exit: Optional[hx.ComponentId]
    relation: LineRelation
    line: Optional[hx.ComponentId]


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
        return LineRelation(k1 + 0.5, k1 + 0.5, 1, float(m1 - k1), float(bridge))
    shared = [(k1, m1)]
    for k in (k1 - 1, k1 + 1):
        m, off = hx.line_gate(comp_out, hx.chain_address(comp_in, k))
        if not off:
            shared.append((k, m))
    shared.sort()
    (k1, m1), (k2, m2) = shared[0], shared[-1]
    orient = 1 if m2 >= m1 else -1
    return LineRelation(k1 + 0.5, k2 + 0.5, orient, m1 + 0.5 - orient * (k1 + 0.5))


def gate_on_line(comp: hx.ComponentId, point: hx.TbinPoint) -> tuple[float, float]:
    """(grid coordinate of the gate on the line, piece distance to it).  A
    point on the line is its own gate.  An edge point off the line leaves its
    edge through the nearer end, and both ends share the gate."""
    k, d = hx.line_gate(comp, point.parent)
    if point.child is None:
        return k + 0.5, float(d)
    kc, dc = hx.line_gate(comp, point.child)
    if d == dc == 0:  # an edge of the line; its vertex k sits at EDGE * (k + 1/2)
        return (hx.EDGE * (k + 0.5) + point.offset * (1.0 if kc > k else -1.0)) / hx.EDGE, 0.0
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
        self._relations: dict[tuple[hx.ComponentId, hx.ComponentId], LineRelation] = {}

    # -- maps ---------------------------------------------------------------

    def t0_distance(self, u: BlockId, v: BlockId) -> float:
        """Block ids are prefix addresses of T0, as hexagon addresses are of
        T_bin, so the T0 distance is the same prefix arithmetic."""
        self.cplx.block(u), self.cplx.block(v)
        return float(hx.hex_tree_edges(u, v))

    def phi_c(self, label: int, x: CoverPoint) -> TcPoint:
        if label not in self.class_labels:
            raise CoverError(f"class {label} not present in the explored complex")
        return self._phi_c(label, self.cplx.normalize(x))

    def _phi_c(self, label: int, xn: CoverPoint) -> TcPoint:
        """phi_c of a normalized point."""
        if self.labels[xn.block] == label:
            return TcPoint(owner=xn.block, tree=hx.retract(xn.base))
        # over a block outside c, phi_c reads block coordinate sigma(label)
        return TcPoint(owner=xn.block, value=xn.fiber[self.sigma[xn.block](label) - 1])

    def phi(self, x: CoverPoint) -> ProductPoint:
        xn = self.cplx.normalize(x)
        return ProductPoint(
            t0=xn.block,
            coords=tuple((lab, self._phi_c(lab, xn)) for lab in self.class_labels),
        )

    # -- T_c distance ---------------------------------------------------------

    def _wall_side_comp(self, wall: Wall, bid: BlockId) -> hx.ComponentId:
        return self.cplx.wall_component(wall, child_side=(bid == wall.child))

    def route(self, label: int, src: BlockId, dst: BlockId) -> Route:
        """The profile walk from block src to block dst along the T0
        geodesic.  It ends on the line through which the geodesic enters
        dst: the chain line wall_component(last wall, dst's side) over a dst
        in c, the fiber line (None) over a dst outside c."""
        chain = self.cplx.wall_chain(src, dst)
        exit_ = self._wall_side_comp(chain[0][0], src) if self.labels[src] == label else None
        rel, line = IDENTITY, None
        for (w, up), nxt in zip(chain, [*chain[1:], None]):
            bid = w.parent if up else w.child
            line = self._wall_side_comp(w, bid) if self.labels[bid] == label else None
            if line is None or nxt is None:
                continue
            comp_out = self._wall_side_comp(nxt[0], bid)
            if comp_out != line:
                step = self._relations.get((line, comp_out))
                if step is None:
                    step = self._relations[(line, comp_out)] = line_relation(line, comp_out)
                rel = rel.then(step)
        return Route(exit_, rel, line)

    def line_profile(
        self, label: int, src: TcPoint, dst: BlockId
    ) -> tuple[float, float, Optional[hx.ComponentId]]:
        """Exact T_c distance from src to the line of route(label, src.owner,
        dst), as (g, c, line): the line's point at grid coordinate s lies at
        |s - g| + c.  src.owner must differ from dst."""
        route = self.route(label, src.owner, dst)
        g, c = route.relation.cross(*line_coords(route.exit, src))
        return float(g), float(c), route.line

    def tc_distance(self, label: int, a: TcPoint, b: TcPoint) -> float:
        for p in (a, b):
            if p.owner not in self.cplx.blocks:
                raise CoverError(f"owner {p.owner} not explored")
        if a.owner == b.owner:
            if a.tree is not None:  # the collapsed piece metric, in grid units
                return hx.tbin_distance(a.tree, b.tree) / hx.EDGE
            return abs(a.value - b.value)
        if b.owner < a.owner:
            a, b = b, a  # walk from the lower block: symmetric bit for bit
        g, c, line = self.line_profile(label, a, b.owner)
        lam, d = line_coords(line, b)
        return abs(lam - g) + c + d

    def tc_matrix(self, label: int, points: Sequence[TcPoint]) -> np.ndarray:
        """Symmetric matrix of tc_distance(label, points[i], points[j]),
        entry for entry equal to it, filled one strip per owner block a: its
        own block, and its pairs with all later blocks, whose routes from a
        are stacked into one map of arrays that a's points go through at once."""
        for p in points:
            if p.owner not in self.cplx.blocks:
                raise CoverError(f"owner {p.owner} not explored")
        out = np.empty((len(points), len(points)))
        members: dict[BlockId, list[int]] = {}
        for i, p in enumerate(points):
            members.setdefault(p.owner, []).append(i)
        coords: dict[tuple[Optional[hx.ComponentId], BlockId], np.ndarray] = {}

        def block_coords(line: Optional[hx.ComponentId], o: BlockId) -> np.ndarray:
            if (line, o) not in coords:
                coords[(line, o)] = np.array([line_coords(line, points[j]) for j in members[o]]).T
            return coords[(line, o)]

        blocks = sorted(members)
        for x, a in enumerate(blocks):
            ia = members[a]
            if self.labels[a] == label:
                strip = [hx.tbin_distance_matrix([points[i].tree for i in ia]) / hx.EDGE]
            else:
                v = block_coords(None, a)[0]
                strip = [np.abs(v[:, None] - v)]
            later = blocks[x + 1:]
            cols = ia + [i for o in later for i in members[o]]
            if later:
                routes = [self.route(label, a, o) for o in later]
                rel = LineRelation(*np.array([r.relation for r in routes]).T[:, :, None])
                gc = np.array([block_coords(r.exit, a) for r in routes])
                g, c = rel.cross(gc[:, 0], gc[:, 1])  # one row per later block
                k = np.repeat(np.arange(len(later)), [len(members[o]) for o in later])
                lam, d = np.hstack([block_coords(r.line, o) for r, o in zip(routes, later)])
                strip.append(np.abs(lam - g[k].T) + c[k].T + d)
            strip = np.hstack(strip)
            out[np.ix_(ia, cols)] = strip
            out[np.ix_(cols, ia)] = strip.T
        return out

    def product_distance(self, p: ProductPoint, q: ProductPoint) -> float:
        total = self.t0_distance(p.t0, q.t0)
        for lab, pc in p.coords:
            total += self.tc_distance(lab, pc, q.coord(lab))
        return total
