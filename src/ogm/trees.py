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
of I1 nearest J that adds the gap to const.  tc_distance, line_profile and
tc_matrix all push points through the composed map.

Routes through T0.  Block ids are prefix addresses, so the T0 geodesic from
block a to block o climbs from a to the meet a[:k] (k the common prefix
length), turns inside the meet from the child a[:k+1] to the child o[:k+1],
and descends to o.  A block is left or entered upward through its parent
wall, whose line on the block's side is component 0, and downward through
the component its child names.  So a route is up(a -> a[:k]), then the turn
line_relation(components[a[k]], components[o[k]]), then down(a[:k] -> o);
a map over a block outside c is the identity.  The up and down maps are
cached per (class, block) for every ancestor, so a route costs no wall walk.
Composing in this grouping gives the same five numbers as composing wall by
wall: composition is associative, the parameters are half-integers (const
an integer) far below 2**52, so every operation in `then` is exact, and
the numbers are fixed by the map itself and the product of the
orientations.  Routes, and so tc_matrix and tc_distance, are therefore
bit for bit those of the wall-by-wall walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import hexagon as hx
from .cover import BlockId, CoverComplex, CoverError, CoverPoint
from .coverings import row_blocks


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
        numpy arrays that broadcast together.  A float g takes builtin
        min/max, which clip a float exactly as numpy does."""
        if isinstance(g, float):
            clipped = min(max(g, self.lo), self.hi)
        else:
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


def _compose(first: LineRelation, second: LineRelation) -> LineRelation:
    """first.then(second), skipping identities."""
    if first is IDENTITY:
        return second
    return first if second is IDENTITY else first.then(second)


class Route(NamedTuple):
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
        # the classes in the ball, breadth first by the child rule with one
        # block per state (g_vertex, shift, sigma): below the root, the state
        # fixes the classes of the block's subtree
        level, seen = [cplx.block(())], {}
        for _ in range(cplx.t0_depth):
            kids = [cplx.child(b, ci) for b in level for ci in cplx.child_comps(len(b.id))]
            level = [seen.setdefault(s, k) for k in kids
                     if (s := (k.g_vertex, k.shift, k.sigma)) not in seen]
        self.class_labels: tuple[int, ...] = tuple(
            sorted({b.class_label for b in [cplx.block(()), *seen.values()]}))
        # line relations by component indices, and the up and down maps of
        # _walks by (class label, block id); both filled on first use
        self._relations: dict[tuple[int, int], LineRelation] = {}
        self._walk_maps: dict[tuple[int, BlockId], tuple[tuple[LineRelation, ...], ...]] = {}

    # -- maps ---------------------------------------------------------------

    def t0_distance(self, u: BlockId, v: BlockId) -> float:
        """Block ids are prefix addresses of T0, as hexagon addresses are of
        T_bin, so the T0 distance is the same prefix arithmetic."""
        self.cplx.block(u), self.cplx.block(v)
        return float(hx.hex_tree_edges(u, v))

    def phi_c(self, label: int, x: CoverPoint, *, normalized: bool = False) -> TcPoint:
        """x is normalized first, unless `normalized` says it already is."""
        if label not in self.class_labels:
            raise CoverError(f"class {label} not present in the explored complex")
        return self._phi_c(label, x if normalized else self.cplx.normalize(x))

    def _phi_c(self, label: int, xn: CoverPoint) -> TcPoint:
        """phi_c of a normalized point."""
        blk = self.cplx.block(xn.block)
        if blk.class_label == label:
            return TcPoint(owner=xn.block, tree=hx.retract(xn.base))
        # over a block outside c, phi_c reads block coordinate sigma(label)
        return TcPoint(owner=xn.block, value=xn.fiber[blk.sigma(label) - 1])

    def phi(self, x: CoverPoint, *, normalized: bool = False) -> ProductPoint:
        """x is normalized first, unless `normalized` says it already is."""
        xn = x if normalized else self.cplx.normalize(x)
        return ProductPoint(
            t0=xn.block,
            coords=tuple((lab, self._phi_c(lab, xn)) for lab in self.class_labels),
        )

    # -- T_c distance ---------------------------------------------------------

    def _turn(self, label: int, bid: BlockId, comp_in: int, comp_out: int) -> LineRelation:
        """The map inside block bid from the line of component comp_in to the
        line of comp_out.  It is the identity when the two lines are one,
        and over a block outside c, where both read the same fiber
        coordinate."""
        if comp_in == comp_out or self.cplx.block(bid).class_label != label:
            return IDENTITY
        rel = self._relations.get((comp_in, comp_out))
        if rel is None:
            comps = self.cplx.model.components
            rel = self._relations[(comp_in, comp_out)] = line_relation(
                comps[comp_in], comps[comp_out])
        return rel

    def _walks(self, label: int, bid: BlockId) -> tuple[tuple[LineRelation, ...], ...]:
        """(up, down): for k < len(bid), up[k] is the map through the blocks
        strictly between bid and its ancestor bid[:k], walked upward from
        bid's parent wall line to the parent wall line of bid[:k+1], and
        down[k] the same blocks walked downward."""
        maps = self._walk_maps.get((label, bid))
        if maps is None:
            up = down = (IDENTITY,)
            p = bid[:-1]
            if p:
                p_up, p_down = self._walks(label, p)
                step = self._turn(label, p, bid[-1], 0)
                up = tuple(_compose(step, m) for m in p_up) + up
                step = self._turn(label, p, 0, bid[-1])
                down = tuple(_compose(m, step) for m in p_down) + down
            maps = self._walk_maps[(label, bid)] = up, down
        return maps

    def route(self, label: int, src: BlockId, dst: BlockId) -> Route:
        """The profile walk from block src to block dst != src along the T0
        geodesic, through their meet src[:k] (k the common prefix length):
        up(src -> meet), the turn inside the meet from the child toward src
        to the child toward dst, and down(meet -> dst), from the cached
        per-block maps.  A block leaves or enters upward through its parent
        wall, whose line on its side is component 0, and downward through
        the component its child names.  The walk ends on the line through
        which it enters dst: that chain line over a dst in c, the fiber
        (None) over a dst outside c."""
        k = hx.lcp_len(src, dst)
        up, down = len(src) > k, len(dst) > k
        comps = self.cplx.model.components
        exit_ = comps[0 if up else dst[k]] if self.cplx.block(src).class_label == label else None
        line = comps[0 if down else src[k]] if self.cplx.block(dst).class_label == label else None
        rel = self._walks(label, src)[0][k] if up else IDENTITY
        if up and down:
            rel = _compose(rel, self._turn(label, src[:k], src[k], dst[k]))
        if down:
            rel = _compose(rel, self._walks(label, dst)[1][k])
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
        self.cplx.block(a.owner), self.cplx.block(b.owner)
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
        entry for entry equal to it.  In owner order the points of a block
        are one slice.  Each pair of blocks is walked from the lower block,
        as tc_distance walks it, and every route from an earlier block ends
        on the later block's entry line (component 0 over a block in c, else
        the fiber), so each point's column coordinates are read once.  A
        block's rows go, in row blocks, through the stacked maps of its
        routes to all later blocks at once; that strict upper block triangle
        is mirrored, and the same-owner block comes from
        hexagon.tbin_distance_matrix or fiber differences.  Columns stay in
        owner order until one row-blocked gather at the end."""
        n = len(points)
        blocks = sorted({p.owner for p in points})
        index = {b: x for x, b in enumerate(blocks)}
        blk = np.array([index[p.owner] for p in points], dtype=np.intp)
        pos = np.argsort(blk, kind="stable")  # input index of each owner-order slot
        counts = np.bincount(blk, minlength=len(blocks))
        start = np.concatenate([[0], np.cumsum(counts)])
        comp0 = self.cplx.model.components[0]
        entry = [comp0 if self.cplx.block(b).class_label == label else None for b in blocks]
        lam, d = np.array([line_coords(entry[blk[i]], points[i]) for i in pos]).reshape(n, 2).T
        out = np.empty((n, n))  # rows in input order, columns in owner order
        for x, a in enumerate(blocks):
            s, e = start[x], start[x + 1]
            if entry[x] is None:
                own = np.abs(lam[s:e, None] - lam[s:e])
            else:
                own = hx.tbin_distance_matrix([points[i].tree for i in pos[s:e]]) / hx.EDGE
            routes = [self.route(label, a, o) for o in blocks[x + 1:]]
            if routes:
                rel = LineRelation(*np.array([r.relation for r in routes]).T[:, :, None])
                # a route leaves through the entry line but toward descendants
                exits = [(y, r.exit) for y, r in enumerate(routes) if r.exit is not entry[x]]
            for lo, hi in row_blocks(n, s, e):
                rows = pos[lo:hi]
                out[rows, s:e] = own[lo - s:hi - s]
                if not routes:
                    continue
                gc = np.empty((len(routes), 2, hi - lo))
                gc[:] = lam[lo:hi], d[lo:hi]
                coords: dict[hx.ComponentId, np.ndarray] = {}
                for y, line in exits:
                    if line not in coords:
                        coords[line] = np.array([line_coords(line, points[i]) for i in rows]).T
                    gc[y] = coords[line]
                g, c = rel.cross(gc[:, 0], gc[:, 1])  # one row per later block
                strip = lam[e:] - np.repeat(g, counts[x + 1:], axis=0).T
                np.abs(strip, out=strip)
                strip += np.repeat(c, counts[x + 1:], axis=0).T
                strip += d[e:]
                out[rows, e:] = strip
                out[pos[e:], lo:hi] = strip.T
        slot = np.empty(n, dtype=np.intp)
        slot[pos] = np.arange(n)
        for lo, hi in row_blocks(n):
            out[lo:hi] = out[lo:hi, slot]
        return out

    def product_distance(self, p: ProductPoint, q: ProductPoint) -> float:
        """The l1 sum t0 + (tc_0 + tc_1 + ...), added in the order that
        gives the records' e bit for bit."""
        return self.t0_distance(p.t0, q.t0) + sum(
            self.tc_distance(lab, pc, q.coord(lab)) for lab, pc in p.coords
        )
