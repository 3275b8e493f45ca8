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


def _lcp_len(a: Address, b: Address) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def hex_tree_edges(a: Address, b: Address) -> int:
    """Edge count between hexagon addresses in T_bin."""
    return len(a) + len(b) - 2 * _lcp_len(a, b)


def prefix_edges(a: Sequence[Address], b: Sequence[Address]) -> np.ndarray:
    """Matrix of hex_tree_edges(a[i], b[j]) on padded address arrays (a
    padded with -1, b with -2, so padding never matches): the common prefix
    grows while the letters at each position agree."""
    width = max(map(len, [*a, *b]), default=0)
    pa, pb = (np.array([x + (pad,) * (width - len(x)) for x in xs], dtype=np.int64)
              .reshape(len(xs), width) for xs, pad in ((a, -1), (b, -2)))
    same = np.ones((len(a), len(b)), dtype=bool)
    lcp = np.zeros((len(a), len(b)), dtype=np.int64)
    for k in range(width):
        same &= pa[:, None, k] == pb[None, :, k]
        lcp += same
    return np.array([len(x) for x in a])[:, None] + [len(x) for x in b] - 2 * lcp


def tbin_anchors(p: TbinPoint) -> list[tuple[Address, float]]:
    """(vertex, distance) for the vertex p is, or both ends of p's edge."""
    if p.child is None:
        return [(p.parent, 0.0)]
    return [(p.parent, p.offset), (p.child, EDGE - p.offset)]


def nearest_anchors(x: TbinPoint, y: TbinPoint) -> tuple[float, Address, Address]:
    """(length, va, vb) of the shortest route from x out through anchor va
    and into y through anchor vb; the first minimal pair wins ties.  The
    length adds da + db first, so it is symmetric in x and y bit for bit.

    Anchor pairs go in tbin_anchors order, parent before child.  Only the
    parents' edge count takes a prefix walk: a child c of parent p is one
    edge nearer than p to the vertices below c, one edge farther from all
    others."""
    xp, xc, yp, yc = x.parent, x.child, y.parent, y.child
    dx = 0.0 if xc is None else x.offset
    dy = 0.0 if yc is None else y.offset
    e = hex_tree_edges(xp, yp)
    best = (dx + dy + EDGE * e, xp, yp)
    if yc is not None:
        e_pc = e - 1 if xp[:len(yc)] == yc else e + 1
        tot = dx + (EDGE - dy) + EDGE * e_pc
        if tot < best[0]:
            best = (tot, xp, yc)
    if xc is not None:
        e = e - 1 if yp[:len(xc)] == xc else e + 1  # xc to yp
        tot = (EDGE - dx) + dy + EDGE * e
        if tot < best[0]:
            best = (tot, xc, yp)
        if yc is not None:
            e = e - 1 if xc[:len(yc)] == yc else e + 1  # xc to yc
            tot = (EDGE - dx) + (EDGE - dy) + EDGE * e
            if tot < best[0]:
                best = (tot, xc, yc)
    return best


def tbin_distance(x: TbinPoint, y: TbinPoint) -> float:
    """Tree metric with edge length 2*rho."""
    if x.child is not None and y.child is not None and x.parent == y.parent \
            and x.child == y.child:
        return abs(x.offset - y.offset)
    return nearest_anchors(x, y)[0]


def tbin_distance_matrix(points: Sequence[TbinPoint]) -> np.ndarray:
    """Matrix of tbin_distance over points, entry for entry equal to it: the
    least anchor sum da + db + EDGE * edges in nearest_anchors' order (a
    vertex is both its anchors), or |offset difference| on a shared edge."""
    ends = [tbin_anchors(p) for p in points]
    anchors = [e[0] for e in ends] + [e[-1] for e in ends]  # slot-major: 2x2 quarters
    dist = np.array([d for _, d in anchors])
    edges = prefix_edges([v for v, _ in anchors], [v for v, _ in anchors])
    n = len(points)
    best = (dist[:, None] + dist + EDGE * edges).reshape(2, n, 2, n).min(axis=(0, 2))
    edge_ids: dict[tuple[Address, Address], int] = {}
    key = np.array([-1 - i if p.child is None else edge_ids.setdefault((p.parent, p.child), i)
                    for i, p in enumerate(points)])
    off = np.array([p.offset for p in points])
    return np.where(key[:, None] == key, np.abs(off[:, None] - off), best)


def tbin_path_vertices(a: Address, b: Address) -> list[Address]:
    """Vertex addresses of the T_bin geodesic from a to b, inclusive."""
    k = _lcp_len(a, b)
    up = [a[:i] for i in range(len(a), k, -1)]
    down = [b[:i] for i in range(k, len(b) + 1)]
    return up + down


# ---------------------------------------------------------------------------
# retraction onto the embedded tree


(_M0, _M1, _M2), (_M3, _M4, _M5), (_M6, _M7, _M8) = (
    SIDE_NORMALS[s] for s in MARKED_SIDES)


def _side_distances(x: Vec) -> tuple[float, float, float]:
    """Distances (unit-side metric) from the local point x to the three
    marked sides of its hexagon.  Inside the hexagon the nearest point of
    each carrying geodesic lies on the side itself, so line distance equals
    side distance."""
    x0, x1, x2 = x
    # -<x, n> per marked side; chart roundoff below 1e-12 snaps to the side
    # itself, so that on-side points give exactly 0 from both adjacent hexagons
    v0 = -(-x0 * _M0 + x1 * _M1 + x2 * _M2)
    v1 = -(-x0 * _M3 + x1 * _M4 + x2 * _M5)
    v2 = -(-x0 * _M6 + x1 * _M7 + x2 * _M8)
    return (math.asinh(v0) / S if v0 > 1e-12 else 0.0,
            math.asinh(v1) / S if v1 > 1e-12 else 0.0,
            math.asinh(v2) / S if v2 > 1e-12 else 0.0)


def retract(p: H0Point) -> TbinPoint:
    """2*delta-Lipschitz retraction H0 -> T_bin (measured constant ~2*rho).

    f(d) = rho*max(0, 1-2d) applied to the nearest marked side (the first
    of equals); two marked sides of one hexagon are >= 1 apart, so at most
    one side has d < 1/2 and the clamp makes argmin ties harmless (both
    branches hit the vertex).
    """
    d0, d1, d2 = _side_distances(p.local)
    i, d = 0, d0
    if d1 < d:
        i, d = 1, d1
    if d2 < d:
        i, d = 2, d2
    # 1 - 2d > 0 exactly when d < 1/2; otherwise f == 0, the vertex
    if d < 0.5:
        return tbin_edge_point(p.hex, extend(p.hex, i), RHO * (1.0 - 2.0 * d))
    return tbin_vertex(p.hex)


def embed_tree_point(t: TbinPoint) -> H0Point:
    """Embedded position of a tree point: vertices at hexagon centers, edges
    along center -> shared-marked-side-midpoint geodesics (proportional
    parameterization; each embedded half-edge has length R_IN/S <= rho)."""
    if t.child is None:
        return H0Point(t.parent, CENTER)
    letter = t.child[-1]
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
    """Walk the boundary chain through (address, side) to its unique
    root-nearest hexagon."""
    a, b = LETTERS[side]
    cur = address
    while True:
        na, nb = extend(cur, a), extend(cur, b)
        if len(na) < len(cur):
            cur = na
        elif len(nb) < len(cur):
            cur = nb
        else:
            return cur


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


def chain_position(comp: ComponentId, address: Address) -> int:
    """Position of a chain hexagon; inverse of chain_address."""
    k, off = line_gate(comp, address)
    if off:
        raise ValueError("address not on this chain")
    return k


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
    k = chain_position(comp, p.hex)
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


def line_lambda_of_vertex(k: int) -> float:
    return EDGE * (k + 0.5)


def line_point_at_lambda(comp: ComponentId, lam: float) -> TbinPoint:
    """Point of the chain line at tree-arclength coordinate lam."""
    t = lam / EDGE
    k = math.floor(t + 0.5)  # nearest vertex position
    addr = chain_address(comp, k)
    off = lam - line_lambda_of_vertex(k)
    if off == 0.0:
        return tbin_vertex(addr)
    nbr = chain_address(comp, k + 1) if off > 0 else chain_address(comp, k - 1)
    return tbin_edge_point(addr, nbr, abs(off))


def line_lambda_of_point(comp: ComponentId, p: TbinPoint) -> float:
    """Inverse of line_point_at_lambda for points on the chain line."""
    if p.child is None:
        return line_lambda_of_vertex(chain_position(comp, p.parent))
    kp = chain_position(comp, p.parent)
    kc = chain_position(comp, p.child)
    if abs(kp - kc) != 1:
        raise ValueError("edge point not on this chain line")
    lp = line_lambda_of_vertex(kp)
    return lp + p.offset * (1.0 if kc > kp else -1.0)


# ---------------------------------------------------------------------------
# the truncated model


_PEAK = math.cosh(R_CIRC) - 1.0  # HexModel.sample_local's radial range
_TWO_PI = 2.0 * math.pi


class HexModel:
    """H0 truncated at a hexagon depth: develop matrices precomputed, the
    canonical boundary-component table, and sampling support.  Immutable
    after construction; all queries are pure."""

    def __init__(self, depth: int = 6):
        if depth < 1:
            raise ValueError("hexagon depth must be >= 1")
        self.depth = depth
        self.hexagons: list[Address] = hexagons_to_depth(depth)
        self._hexset = set(self.hexagons)
        for addr in self.hexagons:
            develop_matrix(addr)
        comps = {component_of(addr, u) for addr in self.hexagons for u in UNMARKED_SIDES}
        self.components: list[ComponentId] = sorted(
            comps, key=lambda c: (len(c.min_addr), c.min_addr, c.side)
        )
        self.component_index = {c: i for i, c in enumerate(self.components)}
        self._frames: dict[ComponentId, tuple[Vec, Vec]] = {}

    def check_address(self, address: Address) -> None:
        if address not in self._hexset:
            raise TruncationError(f"hexagon {address} beyond depth {self.depth}")

    def check_point(self, p: H0Point, tol: float = 1e-9) -> None:
        self.check_address(p.hex)
        if not contains_local(p.local, tol):
            raise ValueError("local coordinates outside the hexagon")

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
            if comp not in self.component_index:
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
