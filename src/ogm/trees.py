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
of I1 nearest J that adds the gap to const.  tc_distance and line_profile
push one point through the composed map; tc_matrix pushes the points of a
sample, embedded once for every class (TreeSystem.embed: the owners, one
retraction per point with its gates, the fibers), through arrays of maps.

Routes through T0.  Block ids are prefix addresses, so the T0 geodesic from
block a to block o climbs from a to the meet a[:k] (k the common prefix
length), turns inside the meet from the child a[:k+1] to the child o[:k+1],
and descends to o.  In the sorted owners of an embedding, k is the least
common prefix length of neighbours from a to o (_meets), which tc_matrix
reads for its routes and t0_matrix for the T0 distance len(a) + len(o) - 2k.
A block is left or entered upward through its parent wall, whose line on
the block's side is component 0, and downward through the component its
child names.  So a route is up(a -> a[:k]), then the turn
line_relation(components[a[k]], components[o[k]]), then down(a[:k] -> o);
a map over a block outside c is the identity.  route composes these turns
wall by wall on each call, and nothing is cached.  tc_matrix reads the up
and down maps of every owner and ancestor from walk tables that are
composed level by level from the deepest (_walk_tables), so they group the
same turns differently.  Every grouping gives the same five numbers:
composition is associative, the parameters are half-integers (const an
integer) far below 2**52, so every operation in `then` is exact, and the
numbers are fixed by the map itself and the product of the orientations.
The routes of tc_matrix are therefore bit for bit those of route and so
of tc_distance.

Routes in bulk.  route skips identities.  _walk_tables composes, at each
level, only the rows whose block turns there, and tc_matrix gathers the
three maps of many block pairs into arrays and composes them, IDENTITY
included; both with the array form of `then`.  That gives the same five
numbers up to the sign of a zero.  IDENTITY is a unit on both sides:
IDENTITY.then(m) has j = (m.lo, m.hi) (y - 0.0 is y) and so the
interval of m, no gap, shift 0.0 * o + m.shift + 0.0 and const
0.0 + 0.0 + m.const; m.then(IDENTITY) has j the whole line and so the
interval of m, shift m.shift + 0.0 + 0.0 and const m.const + 0.0 + 0.0.
Adding a zero changes no value but can turn -0.0 into 0.0.  And every
operation in `then` and `cross` (+, -, * by +-1, min, max, abs and the
comparisons, which see -0.0 == 0.0) maps operands equal as numbers to
results equal as numbers, so a zero's sign never moves another value.  It
never reaches a distance either: g enters only |lam - g|, and c is
c0 + |g - clip| + const with c0 >= 0, which is +0.0 whatever const's
zero.  So every entry of tc_matrix is bit for bit that of tc_distance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import hexagon as hx
from .cover import BlockId, CoverComplex, CoverError, CoverPoint, SampleRows
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
        """This map followed by nxt, as one map (see the module docstring).
        Float fields take builtin arithmetic; array fields, which broadcast
        together, take the same operations elementwise in numpy."""
        if isinstance(self.lo, float) and isinstance(nxt.lo, float):
            j_lo, j_hi = sorted(self.orient * (y - self.shift) for y in (nxt.lo, nxt.hi))
            lo, hi, gap = max(self.lo, j_lo), min(self.hi, j_hi), 0.0
            if lo > hi:
                lo = hi = self.hi if self.hi < j_lo else self.lo
                gap = (j_lo if lo < j_lo else j_hi) - lo
            orient = self.orient * nxt.orient
            shift = nxt.orient * self.shift + nxt.shift + orient * gap
            return LineRelation(lo, hi, orient, shift, self.const + abs(gap) + nxt.const)
        a, b = (self.orient * (y - self.shift) for y in (nxt.lo, nxt.hi))
        j_lo, j_hi = np.minimum(a, b), np.maximum(a, b)
        lo, hi = np.maximum(self.lo, j_lo), np.minimum(self.hi, j_hi)
        empty = lo > hi
        # an empty meet has finite ends; elsewhere end is 0 and so is the gap
        end = np.where(empty, np.where(self.hi < j_lo, self.hi, self.lo), 0.0)
        gap = np.where(empty, np.where(end < j_lo, j_lo, j_hi), end) - end
        orient = self.orient * nxt.orient
        shift = nxt.orient * self.shift + nxt.shift + orient * gap
        return LineRelation(np.where(empty, end, lo), np.where(empty, end, hi), orient, shift,
                            self.const + np.abs(gap) + nxt.const)


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


def gate_on_line_rows(k: np.ndarray, d: np.ndarray, on_edge: np.ndarray,
                      offset: np.ndarray) -> np.ndarray:
    """gate_on_line per row, as rows of (gate, distance), from line_gate's
    (k, d) at each point's two anchors, parent then child (columns 0 and 1;
    a vertex is both), whether it lies on an edge, and its offset."""
    (kp, kc), (dp, dc) = k.T, d.T
    o = offset / hx.EDGE
    on_line = on_edge & (dp == 0) & (dc == 0)
    g = np.where(on_line, (hx.EDGE * (kp + 0.5) + offset * np.where(kc > kp, 1.0, -1.0)) / hx.EDGE,
                 kp + 0.5)
    dist = np.where(on_edge & ~on_line, np.minimum(o + dp, 1.0 - o + dc), dp.astype(float))
    return np.stack([g, dist], axis=1)


def line_coords(line: Optional[hx.ComponentId], p: TcPoint) -> tuple[float, float]:
    """(gate, distance) of p on a chain line, or (value, 0) on a fiber (None)."""
    return (p.value, 0.0) if line is None else gate_on_line(line, p.tree)


class SampleEmbedding(NamedTuple):
    """A normalised sample as every class's T_c matrix reads it (see
    TreeSystem.embed).  Per-point arrays are in owner order, in which the
    points of a block are one slice; `order` gives each slot's input index."""

    order: np.ndarray
    blocks: list[BlockId]  # the owners, sorted
    blk: np.ndarray  # owner index per slot
    start: np.ndarray  # slots start[x]..start[x + 1] belong to owner x
    depth: np.ndarray  # len(blocks[x])
    meet: np.ndarray  # common prefix length of blocks[x - 1] and blocks[x]; 0 at x = 0
    ids: np.ndarray  # the owner ids, padded with -1 to one column past the deepest
    prefix_class: np.ndarray  # class label of blocks[x][:k] at [x, k], k <= depth
    sigma: np.ndarray  # sigma(label) - 1 at [x, label]: the fiber a class reads
    kid_comps: np.ndarray  # the child components toward a lower owner, sorted
    # (gate, distance) per slot on a line at [slot, column]: component 0 in
    # column 0 for every slot, kid_comps[r] in column 1 + r for the slots of
    # the owners above a lower owner through it
    gates: np.ndarray
    fiber: np.ndarray
    turn_codes: np.ndarray  # comp_in * components + comp_out of the turns, -1 first
    turns: np.ndarray  # their relations, field by field, IDENTITY first
    own: np.ndarray  # T_bin distances / EDGE of the same-owner pairs
    pairs: np.ndarray  # those slot pairs, rows i and j: every j in i's owner, i-major
    first: np.ndarray  # the pairs of slot i are first[i]..first[i + 1]
    inv: np.ndarray  # the slot of each input index, the inverse of order


def _meets(emb: SampleEmbedding, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The meet depth of owners x[i] (a column) and y[j] (a run from at
    most x[0] + 1), the least `meet` from x[i] + 1 to y[j] in sorted order;
    where y[j] <= x[i], a padding column deeper than every owner."""
    return np.minimum.accumulate(np.where(y > x, emb.meet[y], emb.ids.shape[1] - 1), axis=1)


def _row_width(n: int, nb: int) -> int:
    """The row width by which tc_matrix blocks its rows over n points and
    nb owners.  A row's temporaries peak at about 3 n + 32 nb floats (the
    pair table, its composition and cross, the strip and a gathered
    column); eight times that keeps a block of rows within an eighth of
    its budget (_row_blocks)."""
    return 8 * (3 * n + 32 * nb)


def _row_blocks(n: int, nb: int) -> list[tuple[int, int]]:
    """tc_matrix's row blocks.  The budget is the larger of _BLOCK_ENTRIES
    and the n x n result's entry count, so a block's temporaries stay
    within 1 MB, or within an eighth of the result they sit beside: at
    thousands of owners a block then holds several rows, not one or two,
    and numpy's fixed cost per call is paid per block."""
    return row_blocks(_row_width(n, nb), n, entries=n * n)


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
        # line relations by component indices, filled on first use
        self._relations: dict[tuple[int, int], LineRelation] = {}

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
        return self._relation(comp_in, comp_out)

    def _relation(self, comp_in: int, comp_out: int) -> LineRelation:
        """line_relation of two components by index, computed once."""
        rel = self._relations.get((comp_in, comp_out))
        if rel is None:
            comps = self.cplx.model.components
            rel = self._relations[(comp_in, comp_out)] = line_relation(
                comps[comp_in], comps[comp_out])
        return rel

    def route(self, label: int, src: BlockId, dst: BlockId) -> Route:
        """The profile walk from block src to block dst != src along the T0
        geodesic, through their meet src[:k] (k the common prefix length),
        composed wall by wall: up from src to the meet, the turn inside the
        meet from the child toward src to the child toward dst, and down
        from the meet to dst.  A block leaves or enters upward through its
        parent wall, whose line on its side is component 0, and downward
        through the component its child names.  The walk ends on the line
        through which it enters dst: that chain line over a dst in c, the
        fiber (None) over a dst outside c."""
        k = hx.lcp_len(src, dst)
        up, down = len(src) > k, len(dst) > k
        comps = self.cplx.model.components
        exit_ = comps[0 if up else dst[k]] if self.cplx.block(src).class_label == label else None
        line = comps[0 if down else src[k]] if self.cplx.block(dst).class_label == label else None
        rel = IDENTITY
        for j in range(len(src) - 1, k, -1):
            rel = _compose(rel, self._turn(label, src[:j], src[j], 0))
        if up and down:
            rel = _compose(rel, self._turn(label, src[:k], src[k], dst[k]))
        for j in range(k + 1, len(dst)):
            rel = _compose(rel, self._turn(label, dst[:j], 0, dst[j]))
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

    # -- T_c matrices of a sample ----------------------------------------------

    def embed(self, rows: SampleRows) -> SampleEmbedding:
        """The per-point data that every class's tc_matrix reads: owners,
        one retraction per point with its gates, fibers, the turns between
        sibling subtrees and the same-owner T_bin distances, of a sample
        given as rows (CoverComplex.sample_rows).  The points are
        normalized first: normalize moves only a point on a side of its
        hexagon, found by its own test |mdot(local, normal)| <= ON_SIDE_TOL
        over all six sides, in rows, so only those points go through it.
        The retraction, the gates and the same-owner distances are row
        forms over each hexagon's anchor_table (hexagon.retract_rows,
        line_gate_rows, gate_on_line_rows and tbin_pair_distances), equal
        to the scalar forms entry for entry; a per-point reference in the
        tests checks every field.  An owner outside the ball raises CoverError."""
        n, dim = len(rows.blocks), self.cplx.spec.n
        owners, addrs = list(rows.blocks), list(rows.hexes)
        local = np.array(rows.local, dtype=float).reshape(n, 3)
        fiber = np.array(rows.fiber, dtype=float).reshape(n, dim - 2)
        on_side = np.abs(hx.mdot_rows(local, hx.SIDE_NORMAL_ROWS)) <= hx.ON_SIDE_TOL
        for i in np.flatnonzero(on_side.any(axis=1)).tolist():
            p = self.cplx.normalize(SampleRows(owners, addrs, local, fiber).point(i))
            owners[i], addrs[i], local[i], fiber[i] = p.block, p.base.hex, p.base.local, p.fiber
        blocks = sorted(set(owners))
        index = {b: x for x, b in enumerate(blocks)}
        owner = np.array([index[b] for b in owners], dtype=np.intp)
        order = np.argsort(owner, kind="stable")
        blk, local, fiber = owner[order], local[order], fiber[order]
        start = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=len(blocks)))])
        width = 1 + max(map(len, blocks), default=0)
        ids = np.full((len(blocks), width), -1, dtype=np.int64)
        prefix_class = np.full((len(blocks), width), -1)
        # the child components below each owner prefix, in sorted order: an
        # owner adds its prefixes from its meet with the previous owner on.
        # A route from an owner in c down to an owner below it leaves
        # through the child toward it, and a route from a lower owner turns,
        # inside the meet, from a lower child to a higher one
        children: dict[BlockId, list[int]] = {}
        meet = np.zeros(len(blocks), dtype=np.intp)
        for x, b in enumerate(blocks):
            k = meet[x] = hx.lcp_len(blocks[x - 1], b) if x else 0
            ids[x, :len(b)] = b
            prefix_class[x, :k] = prefix_class[x - 1, :k]
            prefix_class[x, k:len(b) + 1] = [self.cplx.block(b[:j]).class_label
                                             for j in range(k, len(b) + 1)]
            for j in range(k, len(b)):
                children.setdefault(b[:j], []).append(b[j])
        w = len(self.cplx.model.components)
        codes = sorted({c * w + o for cs in children.values()
                        for c, o in itertools.combinations(cs, 2)})
        sigma = np.array([self.cplx.block(b).sigma.images for b in blocks],
                         dtype=np.intp).reshape(len(blocks), dim - 1) - 1
        # each point's retraction from its hexagon h, whose anchors are
        # columns of h's anchor table
        hexes: dict[hx.Address, int] = {}
        hrow = np.array([hexes.setdefault(addrs[i], len(hexes)) for i in order.tolist()],
                        dtype=np.intp)
        table = hx.anchor_table(list(hexes))
        col, deep, on_edge, offset = hx.retract_rows(table, hrow, local)
        # every slot of an owner x, on each child component toward an owner below x
        kid_x, kid_c = np.array([(x, c) for x, b in enumerate(blocks) for c in children.get(b, ())],
                                dtype=np.intp).reshape(-1, 2).T
        cnt = start[kid_x + 1] - start[kid_x]
        slots = np.repeat(start[kid_x] - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
        # line_gate of every anchor address on component 0 (row 0) and on
        # the child components (row 1 + their rank)
        comps = self.cplx.model.components
        kid_comps = np.array(sorted(set(kid_c.tolist())), dtype=np.intp)
        lines = [comps[c] for c in (0, *kid_comps.tolist())]
        line_k, line_d = (a.reshape(len(lines), len(hexes), 4) for a in hx.line_gate_rows(
            lines, table.reshape(-1, table.shape[2])))

        def line_gates(row: np.ndarray, i: np.ndarray) -> np.ndarray:
            at = (row[:, None], hrow[i, None], col[i])
            return gate_on_line_rows(line_k[at], line_d[at], on_edge[i], offset[i])

        gates = np.zeros((n, len(lines), 2))
        gates[:, 0] = line_gates(np.zeros(n, dtype=np.intp), np.arange(n))
        kid_col = 1 + np.searchsorted(kid_comps, np.repeat(kid_c, cnt))
        gates[slots, kid_col] = line_gates(kid_col, slots)
        turns = np.array([IDENTITY, *(self._relation(*divmod(c, w)) for c in codes)], dtype=float)
        cnt = np.diff(start)[blk]
        first = np.concatenate([[0], np.cumsum(cnt)])
        i = np.repeat(np.arange(n), cnt)
        pairs = np.stack([i, np.arange(len(i)) + np.repeat(start[blk] - first[:-1], cnt)])
        inv = np.empty(n, dtype=np.intp)
        inv[order] = np.arange(n)
        return SampleEmbedding(
            order, blocks, blk, start, np.array([len(b) for b in blocks], dtype=np.intp), meet, ids,
            prefix_class, sigma, kid_comps, gates, fiber,
            np.array([-1, *codes], dtype=np.int64), turns.T,
            hx.tbin_pair_distances(deep, on_edge, offset, *pairs) / hx.EDGE, pairs, first, inv)

    def _walk_tables(self, label: int, emb: SampleEmbedding) -> tuple[np.ndarray, np.ndarray]:
        """(up, down): up[:, x, k] is the map through the blocks strictly
        between owner x and its ancestor x[:k], walked upward from x's
        parent wall line to the parent wall line of x[:k+1], and
        down[:, x, k] the same blocks walked downward; 5 x owners x
        (depth + 1) arrays, field by field, IDENTITY from k = len(x) - 1 on.
        Composed level by level from the deepest, on the rows whose block
        turns there (in c, toward a child other than component 0)."""
        nb, width = emb.ids.shape
        up = np.empty((5, nb, width))
        up[...] = np.array(IDENTITY, dtype=float)[:, None, None]
        down = up.copy()
        for j in range(width - 2, 0, -1):
            up[:, :, j - 1], down[:, :, j - 1] = up[:, :, j], down[:, :, j]
            rows = np.flatnonzero((emb.depth > j) & (emb.prefix_class[:, j] == label)
                                  & (emb.ids[:, j] != 0))
            if not len(rows):
                continue
            kids, inv = np.unique(emb.ids[rows, j], return_inverse=True)
            kids = kids.tolist()
            turn_up = np.array([self._relation(c, 0) for c in kids], dtype=float).T[:, inv]
            turn_down = np.array([self._relation(0, c) for c in kids], dtype=float).T[:, inv]
            up[:, rows, j - 1] = LineRelation(*up[:, rows, j]).then(LineRelation(*turn_up))
            down[:, rows, j - 1] = LineRelation(*turn_down).then(LineRelation(*down[:, rows, j]))
        return up, down

    def _pair_table(self, label: int, emb: SampleEmbedding, x0: int, x1: int,
                    walks: tuple[np.ndarray, np.ndarray]) -> tuple[LineRelation, np.ndarray]:
        """route(label, a, o).relation for every owner a = blocks[x],
        x0 <= x < x1, and every later owner o = blocks[y], x0 < y, as one
        LineRelation of (x1 - x0) x (owners - x0 - 1) arrays, with the
        column of emb.gates that holds the child component toward o where
        o lies below a (else 0).  Entries with y <= x are finite and
        unused.  With the meet depth k of a and o, the relation is
        up[a][k] . turn . down[o][k] from the walk tables, identities
        composed in."""
        x, y = np.arange(x0, x1)[:, None], np.arange(x0 + 1, len(emb.blocks))
        k = _meets(emb, x, y)
        up, down = emb.depth[x] > k, emb.depth[y] > k
        turn = np.where(up & down & (emb.prefix_class[x, k] == label),
                        emb.ids[x, k] * len(self.cplx.model.components) + emb.ids[y, k], -1)
        rel = LineRelation(*walks[0][:, x, k]).then(
            LineRelation(*emb.turns[:, np.searchsorted(emb.turn_codes, turn)])).then(
            LineRelation(*walks[1][:, y, k]))
        kid = np.where(down & ~up, 1 + np.searchsorted(emb.kid_comps, emb.ids[y, emb.depth[x]]),
                       0)
        return rel, kid

    def t0_matrix(self, emb: SampleEmbedding) -> np.ndarray:
        """Symmetric matrix of the T0 distances between the points of an
        embedding, in input order, entry for entry equal to t0_distance of
        their owners (phi's T0 point is the owner block).  Owners x < y
        meeting at depth k (_meets) lie depth[x] + depth[y] - 2k apart."""
        x = np.arange(len(emb.blocks))
        d = -2 * _meets(emb, x[:, None], x)
        d += emb.depth[:, None] + emb.depth
        d *= x[:, None] < x  # the pairs x < y hold their distance, the rest 0
        d += d.T
        d, owner = d.astype(float), emb.blk[np.argsort(emb.order)]
        return d[np.ix_(owner, owner)]

    def tc_matrix(self, label: int, emb: SampleEmbedding) -> np.ndarray:
        """Symmetric matrix of the T_c distances between the points of an
        embedding, entry for entry equal to tc_distance of their phi_c
        images.  Each pair of owners is walked from the lower one, as
        tc_distance walks it.  A point's entry coordinates, on the line
        through which a route from a lower owner enters its block, are its
        gate on component 0 over a block in c, else its fiber.  Per row
        block (in owner order), the pair table of its owners goes through
        one cross with each row's exit coordinates, which gives (g, c) for
        every row and later owner; the strip |lam - g| + c + d over the
        columns of later owners is mirrored, and the same-owner pairs of
        the rows are the embedding's T_bin distances or fiber differences.
        Columns stay in owner order until one row-blocked gather at the end."""
        if label not in self.class_labels:
            raise CoverError(f"class {label} not present in the explored complex")
        n, nb, blk, slot = len(emb.blk), len(emb.blocks), emb.blk, emb.order
        tree = (emb.prefix_class[np.arange(nb), emb.depth] == label)[blk]
        lam = np.where(tree, emb.gates[:, 0, 0], emb.fiber[np.arange(n), emb.sigma[blk, label]])
        d = np.where(tree, emb.gates[:, 0, 1], 0.0)
        walks = self._walk_tables(label, emb)
        out = np.empty((n, n))  # rows in input order, columns in owner order
        blocks = _row_blocks(n, nb)
        for lo, hi in blocks:
            x0 = blk[lo]
            rel, kid = self._pair_table(label, emb, x0, blk[hi - 1] + 1, walks)
            # exit coordinates: on the child component toward an owner below,
            # else the entry coordinates (component 0 going up, or the fiber)
            xl = blk[lo:hi] - x0
            kid = kid[xl]
            down = (kid > 0) & tree[lo:hi, None]
            ex = emb.gates[np.arange(lo, hi)[:, None], kid]
            g, c = LineRelation(*(f[xl] for f in rel)).cross(
                np.where(down, ex[..., 0], lam[lo:hi, None]),
                np.where(down, ex[..., 1], d[lo:hi, None]))
            e0 = emb.start[x0 + 1]  # the first column of a later owner
            later = blk[e0:] - x0 - 1
            strip = g[:, later]
            np.subtract(lam[e0:], strip, out=strip)
            np.abs(strip, out=strip)
            strip += c[:, later]
            strip += d[e0:]
            if e0 < hi:  # rows of several owners: the lower owner's row holds each pair
                b = blk[e0:hi]
                sq = strip[e0 - lo:, :hi - e0]
                sq[...] = np.where(b[:, None] > b, sq.T, sq)
            out[slot[lo:hi], e0:] = strip
            out[slot[e0:], lo:hi] = strip.T
            # the same-owner pairs last, over what the strips left there
            p0, p1 = emb.first[lo], emb.first[hi]
            i, j = emb.pairs[:, p0:p1]
            out[slot[i], j] = np.where(tree[i], emb.own[p0:p1], np.abs(lam[i] - lam[j]))
        for lo, hi in blocks:
            out[lo:hi] = out[lo:hi, emb.inv]
        return out

    def product_distance(self, p: ProductPoint, q: ProductPoint) -> float:
        """The l1 sum t0 + (tc_0 + tc_1 + ...), added in the order that
        gives the records' e bit for bit."""
        return self.t0_distance(p.t0, q.t0) + sum(
            self.tc_distance(lab, pc, q.coord(lab)) for lab, pc in p.coords
        )
