"""Colored coverings witnessing the dimension bounds at sampled scales.

Tree covering: slice by distance-to-root annuli of width R; within an
annulus, merge points whose rootward meet is above kR - R/2 (the Gromov
product computes the meet level from distances alone); color by annulus
parity.  Two colors suffice, same-color pieces are R-separated, and pieces
are 3R-bounded.  Products take piece tuples with tuple colors (2^m colors,
the tight coloring is out of scope), and pullbacks transfer the constants
through the verified quasi-isometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


@dataclass
class ColoredCovering:
    scale: float
    colors: int
    assignment: list[int]  # piece id per sample point
    piece_color: list[int]
    bound: float  # claimed diameter bound


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> bool:
        """Join the sets of i and j; True when they were apart."""
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)
        return ri != rj


def meet_level(fi, fj, dij):
    """Rootward meet height of two points at root distances fi, fj and
    distance dij, via the Gromov product (elementwise on arrays)."""
    return 0.5 * (fi + fj - dij)


def _pair_masks(cov: ColoredCovering) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangle masks of the pairs (i < j) in one piece, and of the
    pairs in different pieces of the same color."""
    n = len(cov.assignment)
    piece = np.asarray(cov.assignment)
    color = np.asarray(cov.piece_color)[piece]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    same_piece = upper & (piece[:, None] == piece[None, :])
    same_color = upper & ~same_piece & (color[:, None] == color[None, :])
    return same_piece, same_color


def tree_covering(dmat: np.ndarray, root_dist: np.ndarray, scale: float) -> ColoredCovering:
    """Two-colored R-disjoint 3R-bounded covering of a sampled metric tree."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError("scale must be finite and > 0")
    n = len(root_dist)
    annulus = np.floor(root_dist / scale).astype(int)
    meet = meet_level(root_dist[:, None], root_dist[None, :], dmat)
    merge = (annulus[:, None] == annulus[None, :]) & (
        meet >= (annulus * scale - scale / 2.0)[:, None]
    )
    # pieces never cross annuli: once every annulus is one piece, stop
    uf = _UnionFind(n)
    unions_left = n - len(set(annulus.tolist()))  # np.unique would import numpy.ma
    for i, j in zip(*np.nonzero(np.triu(merge, 1))):
        if unions_left == 0:
            break
        unions_left -= uf.union(int(i), int(j))
    roots: dict[tuple[int, int], int] = {}
    assignment = [0] * n
    piece_color: list[int] = []
    for i in range(n):
        key = (annulus[i], uf.find(i))
        pid = roots.get(key)
        if pid is None:
            pid = len(piece_color)
            roots[key] = pid
            piece_color.append(int(annulus[i]) % 2)
        assignment[i] = pid
    return ColoredCovering(scale, 2, assignment, piece_color, 3.0 * scale)


def product_covering(factors: Sequence[ColoredCovering]) -> ColoredCovering:
    """Pieces are tuples of factor pieces, colors are color tuples."""
    if not factors:
        raise ValueError("at least one factor")
    scale = factors[0].scale
    if any(abs(f.scale - scale) > 1e-12 for f in factors):
        raise ValueError("factor coverings must share the scale")
    n = len(factors[0].assignment)
    if any(len(f.assignment) != n for f in factors):
        raise ValueError("factor coverings must cover the same sample")
    piece_ids: dict[tuple[int, ...], int] = {}
    assignment = [0] * n
    piece_color: list[int] = []
    m = len(factors)
    for i in range(n):
        key = tuple(f.assignment[i] for f in factors)
        pid = piece_ids.get(key)
        if pid is None:
            pid = len(piece_color)
            piece_ids[key] = pid
            color = 0
            for f in factors:
                color = 2 * color + f.piece_color[f.assignment[i]]
            piece_color.append(color)
        assignment[i] = pid
    return ColoredCovering(
        scale,
        2 ** m,
        assignment,
        piece_color,
        sum(f.bound for f in factors),
    )


@dataclass
class CoveringCheck:
    covered: bool
    min_same_color_separation: float
    max_piece_diameter: float
    required_separation: float
    allowed_diameter: float
    ok: bool
    checked_pairs: int = 0
    notes: list[str] = field(default_factory=list)


def check_covering(
    cov: ColoredCovering,
    dmat: np.ndarray,
    required_separation: Optional[float] = None,
    allowed_diameter: Optional[float] = None,
    slack: float = 1e-9,
) -> CoveringCheck:
    """Exhaustive pairwise verification of the covering properties."""
    n = len(cov.assignment)
    req = cov.scale if required_separation is None else required_separation
    allow = cov.bound if allowed_diameter is None else allowed_diameter
    same_piece, same_color = _pair_masks(cov)
    max_diam = float(np.max(dmat, where=same_piece, initial=0.0))
    min_sep = float(np.min(dmat, where=same_color, initial=math.inf))
    pairs = n * (n - 1) // 2
    ok = (min_sep >= req - slack) and (max_diam <= allow + slack)
    return CoveringCheck(
        covered=True,  # assignment is total by construction
        min_same_color_separation=min_sep,
        max_piece_diameter=max_diam,
        required_separation=req,
        allowed_diameter=allow,
        ok=ok,
        checked_pairs=pairs,
    )


def pullback_check(
    cov: ColoredCovering,
    embedded_dmat: np.ndarray,
    cover_distance: Callable[[int, int], float],
    qi_constant: float,
    slack: float,
    binding_pairs: int = 120,
) -> CoveringCheck:
    """Verify the QI-transferred covering constants on sampled cover points.

    Pullback pieces are the phi-preimages of the embedded pieces.  The
    separation and diameter checks run the (expensive) cover-space distance
    on the binding pairs only: same-color cross-piece pairs with the
    smallest embedded distance and within-piece pairs with the largest.
    """
    if binding_pairs < 1:
        raise ValueError("binding_pairs must be >= 1")
    req = (cov.scale - 1.0) / qi_constant - 1.0
    allow = qi_constant * (cov.bound + 1.0) + slack
    same_piece, same_color = _pair_masks(cov)

    def binding(mask: np.ndarray, descending: bool) -> list[tuple[int, int]]:
        # order of the (d, i, j) tuples, fully reversed when descending
        i, j = np.nonzero(mask)
        order = np.lexsort((j, i, embedded_dmat[i, j]))
        if descending:
            order = order[::-1]
        return [(int(i[k]), int(j[k])) for k in order[:binding_pairs]]

    seps = [cover_distance(i, j) for i, j in binding(same_color, False)]
    diams = [cover_distance(i, j) for i, j in binding(same_piece, True)]
    min_sep = min(seps, default=math.inf)
    max_diam = max(diams, default=0.0)
    checked = len(seps) + len(diams)
    ok = (min_sep >= req - 1e-9) and (max_diam <= allow + 1e-9)
    return CoveringCheck(
        covered=True,
        min_same_color_separation=min_sep,
        max_piece_diameter=max_diam,
        required_separation=req,
        allowed_diameter=allow,
        ok=ok,
        checked_pairs=checked,
    )
