"""Constructive witness curves for the lower quasi-isometry bound.

Between any two points the curve is built by a loop over the wall chain
of their blocks, each end normalised once.  A step moves one end across
the nearest wall of the chain: hop from the end to the lifted retraction
of its base (cost <= delta), run along the lifted dual-tree path to the
exit gate of the T_c geodesic (c = class of the end's block), and hop to
the wall point x2 below the gate (cost <= delta).  x2, normalised, lies in
the wall's parent, one wall closer to the other end, and the crossed wall
is sliced off the chain.  When the two ends share a block a geodesic joins
them; the steps taken from the far end are reversed into curve order.
A curve is the tuple of its segments, each a role and its points, all in
one block: a "lift" is a tree path, a "hop" or the "base" a geodesic
between its two points.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import hexagon as hx
from .cover import CoverComplex, CoverError, CoverPoint, Wall
from .geodesics import block_distance
from .trees import TreeSystem, gate_on_line


class CurveTruncationError(CoverError):
    """The curve needs a wall point beyond the hexagon truncation."""


@dataclass(frozen=True)
class PathSegment:
    role: str  # "base" | "hop" | "lift"
    points: tuple[CoverPoint, ...]


# A lift runs through hexagon centres and tree-edge midpoints, and about
# three in ten of a curve's steps join a centre to a midpoint of the same
# hexagon at equal fibers.  This is block_distance of those inputs, by their
# local points, computed once by block_distance itself (equal fibers add a
# zero)
_CENTER_MIDPOINT = {
    pair: block_distance(*(CoverPoint((), hx.H0Point((), x), (0.0,)) for x in pair))
    for mid in (hx.embed_tree_point(hx.tbin_edge_point((), (s,), hx.RHO)).local for s in range(3))
    for pair in ((hx.CENTER, mid), (mid, hx.CENTER))}


def curve_length(path: tuple[PathSegment, ...]) -> tuple[float, float]:
    """The sum of the block distances between consecutive points of each
    segment, and the longest hop (0.0 when there is none)."""
    total = longest = 0.0
    for seg in path:
        lift = seg.role == "lift"
        for p, q in zip(seg.points, seg.points[1:]):
            d = _CENTER_MIDPOINT.get((p.base.local, q.base.local)) if (
                lift and p.base.hex == q.base.hex and p.fiber == q.fiber) else None
            if d is None:
                d = block_distance(p, q)
            total += d
            if seg.role == "hop":
                longest = max(longest, d)
    return total, longest


def curve_bound(e: float) -> float:
    """The bound (2*delta+1) e + 2*delta on the curve between two points
    at embedded distance e."""
    return (2.0 * hx.DELTA + 1.0) * e + 2.0 * hx.DELTA


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
    nodes = [a, *_to_anchor(a, va)]
    vertices = hx.tbin_path_vertices(va, vb)
    for u, v in zip(vertices, vertices[1:]):
        nodes.append(hx.tbin_edge_point(u, v, hx.RHO))
        nodes.append(hx.tbin_vertex(v))
    nodes += [*reversed(_to_anchor(b, vb)), b]
    # drop consecutive duplicates (a or b may coincide with an anchor)
    out = [nodes[0]]
    for n in nodes[1:]:
        if n != out[-1]:
            out.append(n)
    return out


def _to_anchor(p: hx.TbinPoint, anchor: hx.Address) -> list[hx.TbinPoint]:
    """The nodes after p on its way to its anchor vertex: the midpoint of
    p's edge when p sits on the far half of it, then the anchor (p itself
    when p is a vertex)."""
    if p.child is not None and (p.offset <= hx.RHO) != (anchor == p.parent):
        return [hx.tbin_edge_point(p.parent, p.child, hx.RHO), hx.tbin_vertex(anchor)]
    return [hx.tbin_vertex(anchor)]


def build_special_curve(
    cplx: CoverComplex,
    ts: TreeSystem,
    x: CoverPoint,
    y: CoverPoint,
    *,
    normalized: bool = False,
) -> tuple[PathSegment, ...]:
    """Curve witnessing |gamma| <= curve_bound(|phi(x)phi(y)|).

    x and y are normalized first, unless `normalized` says they already
    are.  Raises CurveTruncationError when a required wall point falls
    beyond the hexagon truncation (the ideal-space curve leaves the
    explored complex).
    """
    front: list[PathSegment] = []  # built from x, in curve order
    back: list[PathSegment] = []  # built from y, in reverse curve order
    try:
        if not normalized:
            x, y = cplx.normalize(x), cplx.normalize(y)
        chain = cplx.wall_chain(x.block, y.block) if x.block != y.block else ()
        while chain:
            # an end can move when its first step ascends; if both can, the
            # one in the lower block moves
            if chain[0][1] and (chain[-1][1] or x.block < y.block):
                x = _step(cplx, ts, x, y, chain[0][0], front)
                chain = chain[1:]
            else:
                y = _step(cplx, ts, y, x, chain[-1][0], back)
                chain = chain[:-1]
    except hx.TruncationError as exc:
        raise CurveTruncationError(str(exc)) from exc
    return (*front, PathSegment("base", (x, y)),
            *(PathSegment(s.role, s.points[::-1]) for s in reversed(back)))


def _step(
    cplx: CoverComplex,
    ts: TreeSystem,
    p: CoverPoint,
    q: CoverPoint,
    wall: Wall,
    segments: list[PathSegment],
) -> CoverPoint:
    """Move the normalized end p across `wall`, whose child is p's block
    v, toward the other end q: append the hop, lift and hop segments from
    p to the wall point x2, and return x2 normalized into the wall's
    parent."""
    v = p.block
    label = cplx.block(v).class_label
    a_tree = hx.retract(p.base)

    # distance profiles of phi_c(p) and phi_c(q) on the exit line, the wall's
    # child-side line, through which the T0 geodesic from q enters v; the
    # T_c geodesic splits at the smallest minimiser z* of their sum
    g_q, _, comp_exit = ts.line_profile(label, ts.phi_c(label, q, normalized=True), v)
    g_p, _ = gate_on_line(comp_exit, a_tree)
    t_star = min(g_p, g_q)
    lo, hi = cplx.model.arclength_window(comp_exit)
    if not (lo <= t_star <= hi):
        raise CurveTruncationError(
            f"curve gate at arclength {t_star} beyond the hexagon truncation"
        )
    z_star = hx.line_point_at_lambda(comp_exit, hx.EDGE * t_star)

    lifted = tuple(
        CoverPoint(v, hx.embed_tree_point(n), p.fiber) for n in tree_path_nodes(a_tree, z_star)
    )
    x2 = CoverPoint(v, cplx.model.boundary_point(comp_exit, t_star), p.fiber)
    segments.append(PathSegment("hop", (p, lifted[0])))
    if len(lifted) > 1:
        segments.append(PathSegment("lift", lifted))
    segments.append(PathSegment("hop", (lifted[-1], x2)))
    x2 = cplx.normalize(x2)
    if x2.block != wall.parent:
        raise RuntimeError("special-curve step failed to cross the wall into its parent")
    return x2
