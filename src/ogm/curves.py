"""Constructive witness curves for the lower quasi-isometry bound.

Between any two points the curve is assembled by induction on the wall
chain: hop from x to the lifted retraction of its base (cost <= delta),
run along the lifted dual-tree path to the exit gate of the T_c geodesic
(c = class of x's block), hop to the wall point below the gate (cost <=
delta), and recurse from there one wall closer to y.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import hexagon as hx
from .cover import CoverComplex, CoverError, CoverPoint
from .geodesics import block_distance
from .trees import TreeSystem, gate_on_line


class CurveTruncationError(CoverError):
    """The curve needs a wall point beyond the hexagon truncation."""


@dataclass(frozen=True)
class PathSegment:
    kind: str  # "geodesic" | "tree_path"
    block: tuple[int, ...]
    points: tuple[CoverPoint, ...]
    role: str = "base"  # "base" | "hop" | "lift"


@dataclass(frozen=True)
class BlockPath:
    segments: tuple[PathSegment, ...]

    def reversed(self) -> "BlockPath":
        segs = tuple(
            PathSegment(s.kind, s.block, tuple(reversed(s.points)), s.role)
            for s in reversed(self.segments)
        )
        return BlockPath(segs)


def curve_length(cplx: CoverComplex, path: BlockPath) -> float:
    """Sum of the block distances between consecutive points of each
    segment (a geodesic segment is its two end points)."""
    total = 0.0
    for seg in path.segments:
        for p, q in zip(seg.points, seg.points[1:]):
            total += block_distance(cplx, p, q)
    return total


def tree_path_nodes(a: hx.TbinPoint, b: hx.TbinPoint) -> list[hx.TbinPoint]:
    """Polyline breakpoints of the tree geodesic: traversed vertices and
    edge midpoints, so consecutive embedded nodes share a closed hexagon."""
    if a == b:
        return [a]
    if (
        a.child is not None
        and b.child is not None
        and (a.parent, a.child) == (b.parent, b.child)
    ):
        mid = hx.tbin_edge_point(a.parent, a.child, hx.RHO)
        if (a.offset - hx.RHO) * (b.offset - hx.RHO) < 0:
            return [a, mid, b]
        return [a, b]

    _, va, vb = hx.nearest_anchors(a, b)
    nodes: list[hx.TbinPoint] = [a]
    if a.child is not None:
        # leave a's edge through va, crossing the midpoint if a sits on the
        # far half of the edge
        mid = hx.tbin_edge_point(a.parent, a.child, hx.RHO)
        on_parent_half = a.offset <= hx.RHO
        toward_parent = va == a.parent
        if on_parent_half != toward_parent:
            nodes.append(mid)
        nodes.append(hx.tbin_vertex(va))
    vertices = hx.tbin_path_vertices(va, vb)
    for u, v in zip(vertices, vertices[1:]):
        nodes.append(hx.tbin_edge_point(u, v, hx.RHO))
        nodes.append(hx.tbin_vertex(v))
    if b.child is not None:
        mid = hx.tbin_edge_point(b.parent, b.child, hx.RHO)
        on_parent_half = b.offset <= hx.RHO
        toward_parent = vb == b.parent
        if on_parent_half != toward_parent:
            nodes.append(mid)
        nodes.append(b)
    # drop consecutive duplicates (a or b may coincide with an anchor)
    out = [nodes[0]]
    for n in nodes[1:]:
        if n != out[-1]:
            out.append(n)
    return out


def build_special_curve(
    cplx: CoverComplex, ts: TreeSystem, x: CoverPoint, y: CoverPoint
) -> BlockPath:
    """Curve witnessing |gamma| <= (2*delta+1)|phi(x)phi(y)| + 2*delta.

    Raises CurveTruncationError when a required wall point falls beyond the
    hexagon truncation (the ideal-space curve leaves the explored complex).
    """
    try:
        return _build(cplx, ts, x, y)
    except hx.TruncationError as exc:
        raise CurveTruncationError(str(exc)) from exc


def _build(
    cplx: CoverComplex, ts: TreeSystem, x: CoverPoint, y: CoverPoint
) -> BlockPath:
    x = cplx.normalize(x)
    y = cplx.normalize(y)
    if x.block == y.block:
        return BlockPath((PathSegment("geodesic", x.block, (x, y), "base"),))
    chain = cplx.wall_chain(x.block, y.block)
    can_x = chain[0][1]  # first step ascends: x's block is the wall's child
    can_y = not chain[-1][1]
    assert can_x or can_y
    if can_x and can_y:
        operate_on_x = x.block <= y.block
    else:
        operate_on_x = can_x
    if not operate_on_x:
        return _build(cplx, ts, y, x).reversed()

    v = x.block
    label = cplx.block(v).class_label
    a_tree = hx.retract(x.base)

    # distance profiles of phi_c(x) and phi_c(y) on the exit line, the wall's
    # child-side line, through which the T0 geodesic from y enters v; the
    # T_c geodesic splits at the smallest minimiser z* of their sum
    g_y, _, comp_exit = ts.line_profile(label, ts.phi_c(label, y), v)
    g_x, _ = gate_on_line(comp_exit, a_tree)
    t_star = min(g_x, g_y)
    lo, hi = cplx.model.arclength_window(comp_exit)
    if not (lo <= t_star <= hi):
        raise CurveTruncationError(
            f"curve gate at arclength {t_star} beyond the hexagon truncation"
        )
    z_star = hx.line_point_at_lambda(comp_exit, hx.EDGE * t_star)

    nodes = tree_path_nodes(a_tree, z_star)
    lifted = tuple(
        CoverPoint(v, hx.embed_tree_point(n), x.fiber) for n in nodes
    )
    x0 = lifted[0]
    x1 = lifted[-1]
    x2 = CoverPoint(v, cplx.model.boundary_point(comp_exit, t_star), x.fiber)
    segments: list[PathSegment] = [PathSegment("geodesic", v, (x, x0), "hop")]
    if len(lifted) > 1:
        segments.append(PathSegment("tree_path", v, lifted, "lift"))
    segments.append(PathSegment("geodesic", v, (x1, x2), "hop"))
    rest = _build(cplx, ts, x2, y)
    rest_chain = cplx.wall_chain(cplx.normalize(x2).block, y.block)
    if len(rest_chain) >= len(chain):
        raise RuntimeError("special-curve recursion failed to shorten the chain")
    return BlockPath(tuple(segments) + rest.segments)

