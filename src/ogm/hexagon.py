"""Geometry of the theta-tree H0 and its dual binary tree.

H0 is the orbit of one right-angled equilateral hexagon under the group
generated by reflections in its three alternating ("marked") sides; it is a
convex subset of the hyperbolic plane.  Regularity plus right angles pin the
side length: with u = cosh(side) the hexagon identity reduces to
u^2 - u - 2 = 0, so cosh(side) = 2 exactly.  Rescaling all lengths by
1/s (s = arccosh 2) gives the unit-side metric of curvature -kappa,
kappa = s^2.

Chart conventions
-----------------
All chart arithmetic lives in the hyperboloid model of curvature -1 with
Minkowski form <x,y> = -x0 y0 + x1 y1 + x2 y2.  Every hexagon of the tiling
carries a local chart in which it is the root hexagon: centered at (1,0,0),
side midpoints at angles j*pi/3, vertices at angles pi/6 + j*pi/3.  Hexagons
are addressed by reduced words over {0,1,2} (which marked side was crossed);
reflections are exact linear involutions, so developing charts along
addresses is numerically stable to large depth.

All public metric values are in the unit-side (curvature -kappa) metric;
helpers returning raw curvature -1 chart values say so.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

Vec = tuple[float, float, float]
Mat = tuple[Vec, Vec, Vec]
Address = tuple[int, ...]

S = math.acosh(2.0)                  # hexagon side, curvature -1
KAPPA = S * S                        # curvature magnitude of the unit-side metric
RHO = math.acosh(2.5) / S            # distance between adjacent marked-side midpoints
DELTA = math.acosh(5.0) / S          # hexagon diameter (opposite vertices)
EDGE = 2.0 * RHO                     # length of a dual-tree edge
R_CIRC = math.acosh(math.sqrt(3.0))  # center -> vertex, curvature -1
R_IN = math.acosh(math.sqrt(2.0))    # center -> side midpoint, curvature -1
HALF_EDGE_EMBEDDED = R_IN / S        # embedded tree half-edge length, unit-side metric

MARKED_SIDES = (0, 2, 4)             # hexagon side index of marked letter i is 2*i
UNMARKED_SIDES = (1, 3, 5)
# A point lies on a side when its Minkowski product with the side's unit
# normal is at most this in absolute value (normalize_point, boundary_param).
ON_SIDE_TOL = 1e-9

# Crossing the corner at the low-parameter end of unmarked side u continues the
# boundary line over marked letter LETTERS[u][0]; the far corner over LETTERS[u][1].
LETTERS = {1: (0, 1), 3: (1, 2), 5: (2, 0)}


class TruncationError(Exception):
    """A geometric query left the explored hexagon depth."""


class NotOnBoundaryError(ValueError):
    """Point expected on an unmarked (boundary) side is not."""


def mdot(x: Vec, y: Vec) -> float:
    return -x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def mat_vec(m: Mat, x: Vec) -> Vec:
    return (
        m[0][0] * x[0] + m[0][1] * x[1] + m[0][2] * x[2],
        m[1][0] * x[0] + m[1][1] * x[1] + m[1][2] * x[2],
        m[2][0] * x[0] + m[2][1] * x[1] + m[2][2] * x[2],
    )


def mat_mul(a: Mat, b: Mat) -> Mat:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )  # type: ignore[return-value]


_IDENTITY: Mat = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def dist_chart(x: Vec, y: Vec) -> float:
    """Hyperbolic distance in the curvature -1 chart.

    Uses <x-y, x-y> = 4 sinh^2(d/2); asinh stays well conditioned at small
    separations where acosh(-<x,y>) loses half the significant digits.
    """
    dx = (x[0] - y[0], x[1] - y[1], x[2] - y[2])
    q = mdot(dx, dx)
    if q <= 0.0:
        return 0.0
    return 2.0 * math.asinh(0.5 * math.sqrt(q))


def _polar(d: float, psi: float) -> Vec:
    return (math.cosh(d), math.sinh(d) * math.cos(psi), math.sinh(d) * math.sin(psi))


CENTER: Vec = (1.0, 0.0, 0.0)
# vertex k sits at angle pi/6 + k*pi/3; side j spans vertices (j-1, j) mod 6
VERTICES: tuple[Vec, ...] = tuple(
    _polar(R_CIRC, math.pi / 6.0 + k * math.pi / 3.0) for k in range(6)
)
MIDPOINTS: tuple[Vec, ...] = tuple(_polar(R_IN, j * math.pi / 3.0) for j in range(6))
# outward unit pole of the geodesic carrying side j: <x, n> = 0 on the line,
# < 0 strictly inside the hexagon
SIDE_NORMALS: tuple[Vec, ...] = tuple(
    (
        math.sinh(R_IN),
        math.cosh(R_IN) * math.cos(j * math.pi / 3.0),
        math.cosh(R_IN) * math.sin(j * math.pi / 3.0),
    )
    for j in range(6)
)


def _reflection(n: Vec) -> Mat:
    # R(x) = x - 2<x,n>n, an exact linear involution of the Minkowski form
    eta = (-1.0, 1.0, 1.0)
    return tuple(
        tuple((1.0 if a == b else 0.0) - 2.0 * n[a] * eta[b] * n[b] for b in range(3))
        for a in range(3)
    )  # type: ignore[return-value]


REFLECTIONS: tuple[Mat, Mat, Mat] = tuple(
    _reflection(SIDE_NORMALS[2 * i]) for i in range(3)
)  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# hexagon addresses


def extend(address: Address, letter: int) -> Address:
    """Cross marked side `letter`; appending cancels an immediate backtrack."""
    if address and address[-1] == letter:
        return address[:-1]
    return address + (letter,)


def hexagons_to_depth(depth: int) -> list[Address]:
    """All hexagon addresses of length <= depth, BFS order."""
    out: list[Address] = [()]
    frontier: list[Address] = [()]
    for _ in range(depth):
        nxt = []
        for addr in frontier:
            for letter in (0, 1, 2):
                if addr and addr[-1] == letter:
                    continue
                nxt.append(addr + (letter,))
        out.extend(nxt)
        frontier = nxt
    return out


_develop_cache: dict[Address, Mat] = {(): _IDENTITY}
_develop_lock = threading.Lock()


def develop_matrix(address: Address) -> Mat:
    """Isometry placing `address`'s local chart into the root chart."""
    m = _develop_cache.get(address)
    if m is not None:
        return m
    with _develop_lock:
        m = _develop_cache.get(address)
        if m is not None:
            return m
        k = len(address)
        while address[:k] not in _develop_cache:
            k -= 1
        m = _develop_cache[address[:k]]
        for i in range(k, len(address)):
            m = mat_mul(m, REFLECTIONS[address[i]])
            _develop_cache[address[: i + 1]] = m
        return m


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class H0Point:
    """A point of H0: hexagon address plus local chart coordinates."""

    hex: Address
    local: Vec

    def root_chart(self) -> Vec:
        return mat_vec(develop_matrix(self.hex), self.local)


def contains_local(x: Vec, tol: float = 1e-9) -> bool:
    x0, x1, x2 = x
    for n0, n1, n2 in SIDE_NORMALS:
        if not -x0 * n0 + x1 * n1 + x2 * n2 <= tol:
            return False
    return True


def h0_distance(p: H0Point, q: H0Point) -> float:
    """Intrinsic = ambient distance (H0 is convex), unit-side metric."""
    if p.hex == q.hex:
        return dist_chart(p.local, q.local) / S
    return dist_chart(p.root_chart(), q.root_chart()) / S


def normalize_point(p: H0Point) -> H0Point:
    """Canonical representative: marked-side points use the shorter address."""
    for letter in (0, 1, 2):
        if abs(mdot(p.local, SIDE_NORMALS[2 * letter])) <= ON_SIDE_TOL:
            other = extend(p.hex, letter)
            if len(other) < len(p.hex):
                return H0Point(other, mat_vec(REFLECTIONS[letter], p.local))
    return p


# ---------------------------------------------------------------------------
# dual tree T_bin


@dataclass(frozen=True)
class TbinPoint:
    """Vertex of T_bin, or a point along an edge at `offset` from `parent`.

    `parent` is always the shorter address of the edge; vertices have
    child None and offset 0.  Edge length is EDGE = 2*rho.
    """

    parent: Address
    child: Optional[Address] = None
    offset: float = 0.0


def tbin_vertex(address: Address) -> TbinPoint:
    return TbinPoint(address, None, 0.0)


def tbin_edge_point(a: Address, b: Address, offset_from_a: float) -> TbinPoint:
    if len(b) < len(a):
        a, b, offset_from_a = b, a, EDGE - offset_from_a
    if offset_from_a <= 0.0:
        return tbin_vertex(a)
    if offset_from_a >= EDGE:
        return tbin_vertex(b)
    return TbinPoint(a, b, offset_from_a)


def lcp_len(a: Sequence[int], b: Sequence[int]) -> int:
    """Length of the common prefix of two addresses: the depth of their
    meet, for hexagon addresses in T_bin as for block ids in T0."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def hex_tree_edges(a: Address, b: Address) -> int:
    """Edge count between hexagon addresses in T_bin."""
    return len(a) + len(b) - 2 * lcp_len(a, b)


def _anchors(t: TbinPoint) -> tuple[tuple[Address, float], ...]:
    """A point's anchors with its distance to each: the vertex it is, at 0,
    or both ends of its edge, the parent at `offset` and the child at
    EDGE - offset."""
    if t.child is None:
        return ((t.parent, 0.0),)
    return ((t.parent, t.offset), (t.child, EDGE - t.offset))


def nearest_anchors(x: TbinPoint, y: TbinPoint) -> tuple[float, Address, Address]:
    """(length, va, vb) of the shortest route from x out through anchor va
    and into y through anchor vb; anchor pairs go parent before child, and
    the first minimal pair wins ties.  The length adds da + db first, so it
    is symmetric in x and y bit for bit."""
    best = None
    for va, da in _anchors(x):
        for vb, db in _anchors(y):
            tot = da + db + EDGE * hex_tree_edges(va, vb)
            if best is None or tot < best[0]:
                best = (tot, va, vb)
    return best


def tbin_distance(x: TbinPoint, y: TbinPoint) -> float:
    """Tree metric with edge length 2*rho."""
    if x.child is not None and y.child is not None and x.parent == y.parent \
            and x.child == y.child:
        return abs(x.offset - y.offset)
    return nearest_anchors(x, y)[0]


def tbin_pair_distances(addr: np.ndarray, on_edge: np.ndarray, offset: np.ndarray,
                        i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """tbin_distance between T_bin points i[k] and j[k] per k, entry for
    entry equal to it.  Point x is given as rows: its deepest anchor
    addr[x] (the child of its edge, or the vertex it is), padded with -1,
    whether it lies on an edge, and its offset.  The distance is the least
    anchor sum da + db + EDGE * edges, added as nearest_anchors adds it (a
    vertex is both its anchors), or |offset difference| on a shared edge.
    Only the requested pairs are counted: both anchors of a point are
    prefixes of its deepest one, so two anchors' common prefix is that of
    the deepest ones, capped at the anchors' lengths, and one prefix walk
    per pair serves all four."""
    width = addr.shape[1]
    depth = (addr >= 0).sum(axis=1)
    # anchors in nearest_anchors' order, parent then child (a vertex twice)
    length = (depth - on_edge, depth)
    dist = (np.where(on_edge, offset, 0.0), np.where(on_edge, EDGE - offset, 0.0))
    lcp = np.zeros(len(i), dtype=np.int64)
    same = np.ones(len(i), dtype=bool)
    for k in range(width):  # padding only meets padding, beyond both caps
        same &= addr[i, k] == addr[j, k]
        lcp += same
    best = None
    for a in (0, 1):
        for b in (0, 1):
            la, lb = length[a][i], length[b][j]
            edges = la + lb - 2 * np.minimum(lcp, np.minimum(la, lb))
            tot = dist[a][i] + dist[b][j] + EDGE * edges
            best = tot if best is None else np.minimum(best, tot, out=best)
    shared = on_edge[i] & on_edge[j] & (depth[i] == depth[j]) & (lcp >= depth[i])
    return np.where(shared, np.abs(offset[i] - offset[j]), best)


def tbin_path_vertices(a: Address, b: Address) -> list[Address]:
    """Vertex addresses of the T_bin geodesic from a to b, inclusive."""
    k = lcp_len(a, b)
    up = [a[:i] for i in range(len(a), k, -1)]
    down = [b[:i] for i in range(k, len(b) + 1)]
    return up + down


# ---------------------------------------------------------------------------
# retraction onto the embedded tree


def _side_distances(x: Vec) -> tuple[float, float, float]:
    """Distances (unit-side metric) from the local point x to the three
    marked sides of its hexagon.  Inside the hexagon the nearest point of
    each carrying geodesic lies on the side itself, so line distance equals
    side distance."""
    out = []
    for side in MARKED_SIDES:
        # chart roundoff below 1e-12 snaps to the side itself, so that
        # on-side points give exactly 0 from both adjacent hexagons
        v = -mdot(x, SIDE_NORMALS[side])
        out.append(math.asinh(v) / S if v > 1e-12 else 0.0)
    return tuple(out)


def retract(p: H0Point) -> TbinPoint:
    """2*delta-Lipschitz retraction H0 -> T_bin (measured constant ~2*rho).

    f(d) = rho*max(0, 1-2d) applied to the nearest marked side (the first
    of equals); two marked sides of one hexagon are >= 1 apart, so at most
    one side has d < 1/2 and the clamp makes argmin ties harmless (both
    branches hit the vertex).
    """
    sides = _side_distances(p.local)
    d = min(sides)
    i = sides.index(d)  # the first of equals
    # 1 - 2d > 0 exactly when d < 1/2; otherwise f == 0, the vertex
    if d < 0.5:
        return tbin_edge_point(p.hex, extend(p.hex, i), RHO * (1.0 - 2.0 * d))
    return tbin_vertex(p.hex)


# --- the same over rows of points ------------------------------------------
#
# Row forms of reflection, dist_chart and retract, equal to the scalar forms
# entry for entry: each does the scalar float operations in the same order,
# and transcendental functions go through math (_math_rows), since numpy's
# vectorised ones need not round as libm does.  A retracted point is
# described from its own hexagon h, a row of an anchor_table: its two
# anchors, parent then child as nearest_anchors takes them, each a column of
# h's row (h itself or its neighbour across a marked letter), then the rows
# that tbin_pair_distances, the row form of tbin_distance, reads.  Every
# vertex retract returns is h itself, so a vertex is both its anchors.

_REFLECTION_ROWS = np.array(REFLECTIONS)
SIDE_NORMAL_ROWS = np.array(SIDE_NORMALS)


def _math_rows(fn, v: np.ndarray) -> np.ndarray:
    """The math function fn on every entry of v."""
    return np.fromiter(map(fn, v.ravel().tolist()), float, v.size).reshape(v.shape)


def mdot_rows(x: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """mdot(x[i], normals[k]) at [i, k], in mdot's order of operations."""
    return -x[:, :1] * normals[:, 0] + x[:, 1:2] * normals[:, 1] + x[:, 2:] * normals[:, 2]


def reflect_rows(letters: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat_vec(REFLECTIONS[letter], x) per row of x, or x where letter is -1."""
    m = _REFLECTION_ROWS[letters]
    y = m[:, :, 0] * x[:, :1] + m[:, :, 1] * x[:, 1:2] + m[:, :, 2] * x[:, 2:]
    return np.where(letters[:, None] < 0, x, y)


def dist_chart_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """dist_chart per row pair of x and y."""
    dx = x - y
    q = -dx[:, 0] * dx[:, 0] + dx[:, 1] * dx[:, 1] + dx[:, 2] * dx[:, 2]
    # clamped, q <= 0 gives 0.0, as in dist_chart
    return 2.0 * _math_rows(math.asinh, 0.5 * np.sqrt(np.maximum(q, 0.0)))


def anchor_table(hexes: Sequence[Address]) -> np.ndarray:
    """The addresses that a retract_rows anchor column 0, 1, 2, 3 names from
    each hexagon h, h itself and extend(h, 0..2), as a len(hexes) x 4 x
    width array padded with -1, one column past the deepest."""
    width = 2 + max(map(len, hexes), default=0)
    h = np.array([a + (-1,) * (width - len(a)) for a in hexes], dtype=np.int64).reshape(-1, width)
    depth = (h >= 0).sum(axis=1)
    last = np.where(depth > 0, h[np.arange(len(h)), depth - 1], -1)
    table = np.repeat(h[:, None], 4, axis=1)
    for s in range(3):  # extend(h, s): a backtrack drops the last letter
        back = last == s
        table[back, 1 + s, depth[back] - 1] = -1
        table[~back, 1 + s, depth[~back]] = s
    return table


def retract_rows(table: np.ndarray, rows: np.ndarray, x: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """retract per row of local points x in the hexagons table[rows, 0] of
    an anchor_table, as (col, addr, on_edge, offset): the n x 2 anchor
    columns, then the rows tbin_pair_distances takes, the deepest anchor's
    address, whether the point lies on an edge and its offset.

    A hexagon enters only through its last letter: the edge across marked
    side i leads toward the parent exactly when i is that letter;
    tbin_edge_point then measures the offset from the far end, and an
    offset rounding to EDGE lands on the vertex.
    """
    h = table[:, 0]
    last = h[np.arange(len(h)), np.maximum((h >= 0).sum(axis=1) - 1, 0)]  # -1 at the root
    v = -mdot_rows(x, SIDE_NORMAL_ROWS[list(MARKED_SIDES)])
    sides = np.where(v > 1e-12, _math_rows(math.asinh, v) / S, 0.0)
    i = sides.argmin(axis=1)  # the first of equals, as in retract
    d = sides.min(axis=1)
    f = RHO * (1.0 - 2.0 * d)
    toward = last[rows] == i
    off = np.where(toward, EDGE - f, f)
    edge = (d < 0.5) & (off < EDGE)
    # the neighbour across i is the parent anchor when the edge leads toward it
    col = np.where(edge[:, None] & np.stack([toward, ~toward], axis=1), i[:, None] + 1, 0)
    return col, table[rows, col[:, 1]], edge, np.where(edge, off, 0.0)


def embed_tree_point(t: TbinPoint) -> H0Point:
    """Embedded position of a tree point: vertices at hexagon centers, edges
    along center -> shared-marked-side-midpoint geodesics (proportional
    parameterization; each embedded half-edge has length R_IN/S <= rho)."""
    if t.child is None:
        return H0Point(t.parent, CENTER)
    letter = t.child[-1]
    if t.offset == RHO:
        return H0Point(t.parent, _EDGE_MIDPOINTS[letter])
    if t.offset <= RHO:
        frac = t.offset / RHO
        host = t.parent
    else:
        frac = (EDGE - t.offset) / RHO
        host = t.child
    target = MIDPOINTS[2 * letter]
    arc = frac * R_IN
    return H0Point(host, _geodesic_point(CENTER, target, arc))


def _geodesic_point(x: Vec, y: Vec, arc: float) -> Vec:
    """Point at chart distance `arc` from x along the geodesic toward y."""
    d = dist_chart(x, y)
    if d == 0.0:
        return x
    sh = math.sinh(d)
    w = tuple((y[i] + mdot(x, y) * x[i]) / sh for i in range(3))
    c, s_ = math.cosh(arc), math.sinh(arc)
    return tuple(x[i] * c + w[i] * s_ for i in range(3))  # type: ignore[return-value]


# the embedded midpoints of the three tree edges at the center, the
# offset-RHO case of embed_tree_point, computed as it would compute them
_EDGE_MIDPOINTS = tuple(_geodesic_point(CENTER, MIDPOINTS[2 * i], R_IN) for i in range(3))


# ---------------------------------------------------------------------------
# boundary components and grids


@dataclass(frozen=True)
class ComponentId:
    """Canonical id of a boundary geodesic: the lexicographic-least (shortest)
    hexagon of its chain plus the common unmarked side index."""

    min_addr: Address
    side: int


@dataclass(frozen=True)
class BoundaryCoordinate:
    component: ComponentId
    arclength: float


def chain_minimum(address: Address, side: int) -> Address:
    """Root-nearest hexagon of the boundary chain through (address, side):
    the address without its trailing run of the side's two letters."""
    letters = LETTERS[side]
    n = len(address)
    while n and address[n - 1] in letters:
        n -= 1
    return address[:n]


def component_of(address: Address, side: int) -> ComponentId:
    if side not in UNMARKED_SIDES:
        raise ValueError(f"side {side} is not an unmarked side")
    return ComponentId(chain_minimum(address, side), side)


def chain_address(comp: ComponentId, k: int) -> Address:
    """Hexagon at chain position k (position 0 = the minimal hexagon; the
    grid segment [k, k+1] lies on it).  Purely combinatorial: T_bin itself
    is not truncated.  min_addr never ends in a chain letter, so the chain
    is min_addr followed by the alternating letters (b, a, ...) for k > 0
    and (a, b, ...) for k < 0."""
    a, b = LETTERS[comp.side]
    pair = (b, a) if k > 0 else (a, b)
    return comp.min_addr + (pair * abs(k))[: abs(k)]


def line_gate(comp: ComponentId, address: Address) -> tuple[int, int]:
    """(chain position k, edge count) of the gate of a T_bin vertex on the
    chain line: the nearest chain hexagon and the distance to it.

    The line lies below min_addr, so a hexagon not below it gates at k = 0.
    Below it the gate is the longest alternating prefix of the suffix, whose
    length signed by its first letter is k; the rest of the suffix leaves
    the line.
    """
    m = len(comp.min_addr)
    if address[:m] != comp.min_addr:
        return 0, hex_tree_edges(address, comp.min_addr)
    letters = LETTERS[comp.side]
    n = m
    while n < len(address) and address[n] in letters:
        n += 1
    k = n - m
    if k and address[m] == letters[0]:
        k = -k
    return k, len(address) - n


def line_gate_rows(comps: Sequence[ComponentId], addr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """line_gate(comps[c], address) at [c, x] for the addresses of a padded
    array addr (padded with -1), as (k, edge count).  The common prefix
    with min_addr counts the leading columns that match it; an address
    whose prefix is all of min_addr is below it, and the run of the side's
    two letters that follows is the gate."""
    width = addr.shape[1]
    lengths = np.array([len(c.min_addr) for c in comps], dtype=np.int64)[:, None]
    mins = np.full((len(comps), width), -2, dtype=np.int64)  # -2 never matches
    for row, c in zip(mins, comps):
        row[:min(len(c.min_addr), width)] = c.min_addr[:width]
    a, b = (np.array([LETTERS[c.side][i] for c in comps], dtype=np.int64)[:, None, None]
            for i in (0, 1))
    lcp = np.cumprod(addr == mins[:, None], axis=2).sum(axis=2)
    # the run's columns from min_addr's length on; the columns before it pass
    run = np.cumprod((addr == a) | (addr == b) | (np.arange(width) < lengths[:, :, None]),
                     axis=2).sum(axis=2) - lengths
    below = lcp == lengths
    first = addr[:, np.minimum(lengths, width - 1).ravel()].T  # the run's first letter
    k = np.where((run > 0) & (first == a[:, :, 0]), -run, run)
    depth = (addr >= 0).sum(axis=1)
    return np.where(below, k, 0), np.where(below, depth - lengths - run, depth + lengths - 2 * lcp)


def _corners(side: int) -> tuple[Vec, Vec]:
    # low-parameter corner first (arclength origin of the minimal hexagon)
    return VERTICES[(side - 1) % 6], VERTICES[side % 6]


def _side_frame(side: int) -> tuple[Vec, Vec]:
    """Local chart (low corner, unit tangent toward the high corner) of an
    unmarked side; <hi, lo> = -cosh(S) = -2, sinh(S) = sqrt(3)."""
    lo, hi = _corners(side)
    return lo, tuple((hi[i] - 2.0 * lo[i]) / math.sqrt(3.0) for i in range(3))


def boundary_point_local(side: int, tau: float) -> Vec:
    """Local chart point at parameter tau in [0,1] along unmarked side."""
    lo, w = _side_frame(side)
    c, s_ = math.cosh(tau * S), math.sinh(tau * S)
    return tuple(lo[i] * c + w[i] * s_ for i in range(3))  # type: ignore[return-value]


def boundary_point(comp: ComponentId, t: float, depth: int) -> H0Point:
    """H0 point at arclength t on a boundary component, within hexagon depth.

    Arclength origin: low corner of the minimal hexagon's side, orientation
    with increasing local side parameter there.  Consecutive grid segments
    alternate local orientation (the gluing reflections reverse the line).
    """
    k = math.floor(t)
    tau_raw = t - k
    kmax = depth - len(comp.min_addr)
    if not (-kmax <= k <= kmax):
        if k == kmax + 1 and tau_raw == 0.0:
            k, tau_raw = kmax, 1.0
        else:
            raise TruncationError(f"arclength {t} leaves hexagon depth {depth} on {comp}")
    addr = chain_address(comp, k)
    tau = tau_raw if k % 2 == 0 else 1.0 - tau_raw
    return H0Point(addr, boundary_point_local(comp.side, tau))


def boundary_param(p: H0Point) -> BoundaryCoordinate:
    """Inverse of boundary_point; raises NotOnBoundaryError off the grid."""
    side = None
    for u in UNMARKED_SIDES:
        if abs(mdot(p.local, SIDE_NORMALS[u])) <= ON_SIDE_TOL:
            side = u
            break
    if side is None:
        raise NotOnBoundaryError("point does not lie on an unmarked side")
    comp = component_of(p.hex, side)
    k, _ = line_gate(comp, p.hex)
    lo, _ = _corners(side)
    tau = dist_chart(p.local, lo) / S
    tau = min(max(tau, 0.0), 1.0)
    t = k + tau if k % 2 == 0 else k + 1.0 - tau
    return BoundaryCoordinate(comp, t)


# --- the retraction restricted to a boundary line --------------------------
#
# On a boundary line the distances to the two adjacent marked sides are
# exactly tau and 1 - tau, so the retraction restricted to the line is the
# *affine* map t -> (point of the chain line at tree-arclength 2*rho*t).
# Line coordinate convention: lambda = EDGE * t, so the chain vertex at
# position k sits at lambda = EDGE * (k + 1/2) and integer arclengths map to
# edge midpoints.


def line_point_at_lambda(comp: ComponentId, lam: float) -> TbinPoint:
    """Point of the chain line at tree-arclength coordinate lam."""
    t = lam / EDGE
    k = math.floor(t + 0.5)  # nearest vertex position
    addr = chain_address(comp, k)
    off = lam - EDGE * (k + 0.5)
    if off == 0.0:
        return tbin_vertex(addr)
    nbr = chain_address(comp, k + 1) if off > 0 else chain_address(comp, k - 1)
    return tbin_edge_point(addr, nbr, abs(off))


# ---------------------------------------------------------------------------
# the truncated model


_PEAK = math.cosh(R_CIRC) - 1.0  # HexModel.sample_local's radial range
_TWO_PI = 2.0 * math.pi


class HexModel:
    """H0 truncated at a hexagon depth: develop matrices precomputed, the
    canonical boundary-component table, and sampling support.  Immutable
    after construction; all queries are pure."""

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("hexagon depth must be >= 1")
        self.depth = depth
        self.hexagons: list[Address] = hexagons_to_depth(depth)
        self._hexset = set(self.hexagons)
        for addr in self.hexagons:
            develop_matrix(addr)
        # each component once, at its minimal hexagon: hexagons come in BFS
        # order, so the table is sorted by (len(min_addr), min_addr, side)
        self.components: list[ComponentId] = [
            ComponentId(h, u) for h in self.hexagons for u in UNMARKED_SIDES
            if chain_minimum(h, u) == h
        ]
        self._frames: dict[ComponentId, tuple[Vec, Vec]] = {}

    def contains(self, p: H0Point) -> bool:
        """Whether p's hexagon lies within the depth and its local point
        within that hexagon, to contains_local's 1e-9."""
        return p.hex in self._hexset and contains_local(p.local)

    def arclength_window(self, comp: ComponentId) -> tuple[float, float]:
        """Geometric arclength range of a component inside the truncation."""
        kmax = self.depth - len(comp.min_addr)
        return (-float(kmax), float(kmax) + 1.0)

    def boundary_point(self, comp: ComponentId, t: float) -> H0Point:
        return boundary_point(comp, t, depth=self.depth)

    def line_frame(self, comp: ComponentId) -> tuple[Vec, Vec]:
        """Root-chart frame (o, w) of a boundary component, a unit-speed
        geodesic: boundary_point(comp, t).root_chart() equals
        o*cosh(S*t) + w*sinh(S*t).  On root components this is the local
        side frame itself; deeper ones lose digits to root-chart cancellation
        (up to 1.5e-7 off h0_distance at depth 6, 1.7e-10 at depth 4)."""
        frame = self._frames.get(comp)
        if frame is None:
            if len(comp.min_addr) > self.depth:
                raise TruncationError(f"{comp} beyond depth {self.depth}")
            m = develop_matrix(comp.min_addr)
            frame = self._frames[comp] = tuple(mat_vec(m, v) for v in _side_frame(comp.side))
        return frame

    def sample_local(self, rng) -> Vec:
        """Uniform point of the hexagon (area measure) by polar rejection."""
        while True:
            r = math.acosh(1.0 + rng.random() * _PEAK)
            psi = rng.random() * _TWO_PI
            x = _polar(r, psi)
            if contains_local(x, 0.0):
                return x


def sample_local_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HexModel.sample_local per row of uniforms u, whose columns 2a and
    2a + 1 are the two draws of attempt a, in the same float operations:
    (points, accepted attempt), the attempt -1 where the row's attempts
    all miss the hexagon.  Attempt 0 is tried on every row, and the rest
    at once on the rows it misses, about a third."""
    x = np.zeros((len(u), 3))
    took = np.full(len(u), -1)
    rows = np.arange(len(u))
    attempts = u.shape[1] // 2
    for first, stop in ((0, min(1, attempts)), (1, attempts)):
        span = stop - first
        if span <= 0:
            continue
        pair = u[rows, 2 * first:2 * stop].reshape(-1, 2)
        r = _math_rows(math.acosh, 1.0 + pair[:, 0] * _PEAK)
        psi = pair[:, 1] * _TWO_PI
        sh = _math_rows(math.sinh, r)
        cand = np.stack([_math_rows(math.cosh, r), sh * _math_rows(math.cos, psi),
                         sh * _math_rows(math.sin, psi)], axis=1).reshape(len(rows), span, 3)
        inside = (mdot_rows(cand.reshape(-1, 3), SIDE_NORMAL_ROWS) <= 0.0).all(axis=1)
        inside = inside.reshape(len(rows), span)
        hit, a = inside.any(axis=1), inside.argmax(axis=1)  # the first attempt inside
        x[rows[hit]], took[rows[hit]] = cand[hit, a[hit]], first + a[hit]
        rows = rows[~hit]
    return x, took
