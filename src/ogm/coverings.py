"""Colored coverings witnessing the dimension bounds at sampled scales.

Tree covering: slice by distance-to-root annuli of width R; within an
annulus, merge points whose rootward meet is above kR - R/2 (the Gromov
product computes the meet level from distances alone); color by annulus
parity.  Two colors suffice, same-color pieces are R-separated, and pieces
are 3R-bounded; pieces are numbered by least member.  Products take piece
tuples with tuple colors (2^m colors, the tight coloring is out of scope),
and pullbacks transfer the constants through the verified quasi-isometry,
solving only the binding pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


@dataclass
class ColoredCovering:
    scale: float
    colors: int
    assignment: list[int]  # piece id per sample point
    piece_color: list[int]
    bound: float  # claimed diameter bound


# entries per row block of an n x n fill (8 MB of floats)
_BLOCK_ENTRIES = 1 << 20


def row_blocks(n: int, start: int = 0, stop: Optional[int] = None) -> list[tuple[int, int]]:
    """Row ranges [lo, hi) that split rows start..stop (all n by default)
    of an n-column matrix into blocks of at most _BLOCK_ENTRIES entries
    and at least one row."""
    stop = n if stop is None else stop
    rows = max(1, _BLOCK_ENTRIES // max(n, 1))
    return [(lo, min(lo + rows, stop)) for lo in range(start, stop, rows)]


def meet_level(fi, fj, dij):
    """Rootward meet height of two points at root distances fi, fj and
    distance dij, via the Gromov product (elementwise on arrays)."""
    return 0.5 * (fi + fj - dij)


def _pair_masks(cov: ColoredCovering, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks over rows lo..hi of the pairs (i < j) in one piece, and of the
    pairs in different pieces of the same color."""
    piece = np.asarray(cov.assignment)
    color = np.asarray(cov.piece_color)[piece]
    upper = np.arange(hi - lo)[:, None] + lo < np.arange(len(piece))
    same_piece = upper & (piece[lo:hi, None] == piece)
    same_color = upper & ~same_piece & (color[lo:hi, None] == color)
    return same_piece, same_color


def tree_covering(dmat: np.ndarray, root_dist: np.ndarray, scale: float) -> ColoredCovering:
    """Two-colored R-disjoint 3R-bounded covering of a sampled metric tree."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError("scale must be finite and > 0")
    n = len(root_dist)
    annulus = np.floor(root_dist / scale).astype(int)
    level = annulus * scale - scale / 2.0
    # the merge mask in row blocks, so that no n x n float temporary exists
    merge = np.empty((n, n), dtype=bool)
    for lo, hi in row_blocks(n):
        meet = meet_level(root_dist[lo:hi, None], root_dist[None, :], dmat[lo:hi])
        np.logical_and(annulus[lo:hi, None] == annulus, meet >= level[lo:hi, None],
                       out=merge[lo:hi])
    # pieces are the components of the merge mask (within one annulus): a
    # point and the point its label names take the least label among its
    # merging points, labels jump until fixed, and the least member remains
    lab = np.arange(n)
    while True:
        low = np.min(np.broadcast_to(lab, (n, n)), axis=1, where=merge, initial=n)
        nxt = np.minimum(lab, low)
        np.minimum.at(nxt, lab, low)
        while (nxt[nxt] != nxt).any():
            nxt = nxt[nxt]
        if (nxt == lab).all():
            break
        lab = nxt
    # numbered by least member: the order of first occurrence
    root = lab == np.arange(n)
    assignment = (np.cumsum(root) - 1)[lab].tolist()
    piece_color = (annulus[root] % 2).tolist()
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
    min_same_color_separation: float
    max_piece_diameter: float
    required_separation: float
    allowed_diameter: float
    ok: bool
    checked_pairs: int = 0


def check_covering(cov: ColoredCovering, dmat: np.ndarray) -> CoveringCheck:
    """Exhaustive pairwise verification of the covering properties: pieces
    of one color cov.scale apart, each of diameter at most cov.bound."""
    n = len(cov.assignment)
    diams, seps = [0.0], [math.inf]
    for lo, hi in row_blocks(n):
        same_piece, same_color = _pair_masks(cov, lo, hi)
        diams.append(np.max(dmat[lo:hi], where=same_piece, initial=0.0))
        seps.append(np.min(dmat[lo:hi], where=same_color, initial=math.inf))
    max_diam, min_sep = float(np.max(diams)), float(np.min(seps))
    pairs = n * (n - 1) // 2
    ok = (min_sep >= cov.scale - 1e-9) and (max_diam <= cov.bound + 1e-9)
    return CoveringCheck(
        min_same_color_separation=min_sep,
        max_piece_diameter=max_diam,
        required_separation=cov.scale,
        allowed_diameter=cov.bound,
        ok=ok,
        checked_pairs=pairs,
    )


def pullback_check(
    cov: ColoredCovering,
    embedded_dmat: np.ndarray,
    cover_distances: Callable[[list[tuple[int, int]]], list[float]],
    qi_constant: float,
    binding_pairs: int = 120,
) -> CoveringCheck:
    """Verify the QI-transferred covering constants on sampled cover points.

    Pullback pieces are the phi-preimages of the embedded pieces.  The
    separation and diameter checks run the (expensive) cover-space distance
    on the binding pairs only: same-color cross-piece pairs with the
    smallest embedded distance and within-piece pairs with the largest.
    `cover_distances` maps a list of sample index pairs to their distances;
    it gets the separation pairs, then the diameter pairs, in one call.
    """
    if binding_pairs < 1:
        raise ValueError("binding_pairs must be >= 1")
    req = (cov.scale - 1.0) / qi_constant - 1.0
    allow = qi_constant * (cov.bound + 1.0) + 1.0
    n = len(cov.assignment)

    def cut(i, j, d, descending):
        # the pairs up to and tied with the binding_pairs-th distance
        if len(d) > binding_pairs:
            k = len(d) - binding_pairs if descending else binding_pairs - 1
            kth = np.partition(d, k)[k]
            keep = d >= kth if descending else d <= kth
            i, j, d = i[keep], j[keep], d[keep]
        return i, j, d

    # cut in each row block, then among the survivors: a pair within the
    # global cut is within its block's
    pieces, colors = [], []
    for lo, hi in row_blocks(n):
        masks = _pair_masks(cov, lo, hi)
        for mask, kept, descending in zip(masks, (pieces, colors), (True, False)):
            i, j = np.nonzero(mask)
            kept.append(cut(i + lo, j, embedded_dmat[lo:hi][i, j], descending))

    def binding(kept, descending: bool) -> list[tuple[int, int]]:
        # order of the (d, i, j) tuples, fully reversed when descending
        if not kept:
            return []
        i, j, d = cut(*map(np.concatenate, zip(*kept)), descending)
        order = np.lexsort((j, i, d))
        if descending:
            order = order[::-1]
        return [(int(i[k]), int(j[k])) for k in order[:binding_pairs]]

    sep_pairs, diam_pairs = binding(colors, False), binding(pieces, True)
    dists = cover_distances(sep_pairs + diam_pairs)
    seps, diams = dists[: len(sep_pairs)], dists[len(sep_pairs) :]
    min_sep = min(seps, default=math.inf)
    max_diam = max(diams, default=0.0)
    checked = len(seps) + len(diams)
    ok = (min_sep >= req - 1e-9) and (max_diam <= allow + 1e-9)
    return CoveringCheck(
        min_same_color_separation=min_sep,
        max_piece_diameter=max_diam,
        required_separation=req,
        allowed_diameter=allow,
        ok=ok,
        checked_pairs=checked,
    )
