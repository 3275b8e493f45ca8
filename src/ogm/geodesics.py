"""True distances in the glued model space.

A geodesic between blocks crosses exactly the walls along the T0 geodesic;
the distance is the minimum over one crossing point per wall of the sum of
in-block product distances.  Crossing points are canonical wall coordinates
(arclength on the parent component, parent fibers), so every segment end is
a fixed point or a point o*cosh(S*t) + w*sinh(S*t) of a boundary line
(`HexModel.line_frame`) with fibers linear in the coordinates.  A segment
between ends A and B has the closed-form length

    sqrt(g(c) + |dfiber|^2),   c = -<A, B>,   g(c) = (acosh(c) / S)^2,

with closed-form gradient and Hessian; g is smooth through c = 1.  The
chain length is convex (blocks are nonpositively curved, walls are flats),
so one projected damped-Newton solve over every coordinate of the chain at
once, with an Armijo backtracking search projected onto the arclength
windows, finds the global minimum.  It stops on the Newton decrement and
returns the projected-gradient norm as its optimality certificate.

Each Newton step factors the Hessian on the free coordinates with numpy's
Cholesky.  While the factorisation fails, or a pivot diag(L)^2 is not above
1e-13 * scale (scale = max(1, largest free diagonal entry)), the diagonal
gets a Levenberg shift: 1e-10 * scale, then ten times the last, for at most
40 factorisations before ConvergenceError (the modified Cholesky of Nocedal
and Wright, Numerical Optimization, section 3.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import hexagon as hx
from .cover import CoverComplex, CoverError, CoverPoint, Wall

class ConvergenceError(RuntimeError):
    pass


def block_distance(cplx: CoverComplex, p: CoverPoint, q: CoverPoint) -> float:
    """Product distance inside one block."""
    if p.block != q.block:
        raise CoverError("block_distance requires points of one block")
    h = hx.h0_distance(p.base, q.base)
    e = sum((a - b) ** 2 for a, b in zip(p.fiber, q.fiber))
    return math.sqrt(h * h + e)


@dataclass
class ChainConfiguration:
    """Crossing points of a wall chain in canonical wall coordinates."""

    walls: list[Wall]
    upward: list[bool]
    coords: list[list[float]]  # one (arclength, fibers...) vector per wall


@dataclass
class GeodesicResult:
    """`sweeps` counts Newton iterations; `residual` is the infinity norm of
    the projected gradient of the chain length at the returned crossings."""

    distance: float
    config: ChainConfiguration
    truncated: bool
    sweeps: int
    residual: float


class _WallVars:
    """Bookkeeping for one wall of the chain."""

    def __init__(self, cplx: CoverComplex, wall: Wall, upward: bool):
        self.wall = wall
        self.upward = upward
        n1 = cplx.spec.n - 1
        perm = cplx.spec.edges[wall.edge_id].perm
        # side position of canonical coordinate j, for each side
        parent_pos = list(range(n1))
        child_pos = [perm(j) for j in range(n1)]
        # from-side = side of the block the traversal comes from
        self.from_pos = child_pos if upward else parent_pos
        self.to_pos = parent_pos if upward else child_pos
        self.jf = self.from_pos.index(0)  # canonical index of from-side arclength
        self.jt = self.to_pos.index(0)
        self.comp_from = cplx.wall_component(wall, child_side=upward)
        self.comp_to = cplx.wall_component(wall, child_side=not upward)
        self.win_f = cplx.model.arclength_window(self.comp_from)
        self.win_t = cplx.model.arclength_window(self.comp_to)
        self.bounds = [(-math.inf, math.inf)] * n1
        self.bounds[self.jf], self.bounds[self.jt] = self.win_f, self.win_t
        self.coords = [0.5 * (lo + hi) if lo > -math.inf else 0.0 for lo, hi in self.bounds]


def _chain_vars(
    cplx: CoverComplex, x: CoverPoint, y: CoverPoint
) -> list[_WallVars]:
    return [_WallVars(cplx, w, up) for w, up in cplx.wall_chain(x.block, y.block)]


def _targets(point_fibers: tuple[float, ...], pos: list[int]) -> list[Optional[float]]:
    """Canonical-indexed fiber targets; None marks the arclength slot."""
    return [None if p == 0 else point_fibers[p - 1] for p in pos]


def _segments(model: hx.HexModel, chain: list[_WallVars], x: CoverPoint, y: CoverPoint):
    """Chain segments over the flat coordinates z (z[i*(n-1) + j] is
    canonical coordinate j of wall i): (m, va, vb, fibers) with
    c = -<A, B> = sum m[2p + q] e_p(va) e_q(vb), where e(v) = (cosh, sinh)
    of S*z[v] on a line and (1, 0) at a fixed end (v = -1), and fiber
    differences (ia, ka, ib, kb) of z[i], or of the constant k when i < 0."""

    def fixed(p: CoverPoint):
        return p.base.root_chart(), (0.0, 0.0, 0.0), -1, [(-1, f) for f in p.fiber]

    def on_line(i: int, wv: _WallVars, to_side: bool):
        o, w = model.line_frame(wv.comp_to if to_side else wv.comp_from)
        var = [0] * len(wv.coords)
        for j, p in enumerate(wv.to_pos if to_side else wv.from_pos):
            var[p] = i * len(wv.coords) + j
        return o, w, var[0], [(v, 0.0) for v in var[1:]]

    ends = [fixed(x)]
    for i, wv in enumerate(chain):
        ends += [on_line(i, wv, False), on_line(i, wv, True)]
    ends.append(fixed(y))
    return [
        ((-hx.mdot(oa, ob), -hx.mdot(oa, wb), -hx.mdot(wa, ob), -hx.mdot(wa, wb)), va, vb,
         [(ia, ka, ib, kb) for (ia, ka), (ib, kb) in zip(fa, fb)])
        for (oa, wa, va, fa), (ob, wb, vb, fb) in zip(ends[::2], ends[1::2])
    ]


def _chain_objective(segs, z: list[float], derivs: bool):
    """(length, gradient, Hessian) of the chain at z, the last two dense
    lists, or None unless `derivs`.  A segment has length
    L = sqrt(g(c) + F), g(c) = (acosh(c) / S)^2, F = |fiber difference|^2;
    one of length 0 adds no derivative terms."""
    s, kappa = hx.S, hx.KAPPA
    total, grad, hess = 0.0, None, None
    if derivs:
        grad, hess = [0.0] * len(z), [[0.0] * len(z) for _ in z]
    for m, va, vb, fibers in segs:

        def bil(p, q):
            return p[0] * (m[0] * q[0] + m[1] * q[1]) + p[1] * (m[2] * q[0] + m[3] * q[1])

        ea = (math.cosh(s * z[va]), math.sinh(s * z[va])) if va >= 0 else (1.0, 0.0)
        eb = (math.cosh(s * z[vb]), math.sinh(s * z[vb])) if vb >= 0 else (1.0, 0.0)
        c = bil(ea, eb)
        deltas = [(z[ia] if ia >= 0 else ka) - (z[ib] if ib >= 0 else kb)
                  for ia, ka, ib, kb in fibers]
        u = math.acosh(c) if c > 1.0 else 0.0
        length = math.sqrt(u * u / kappa + sum(d * d for d in deltas))
        total += length
        if not derivs or length == 0.0:
            continue
        if u < 1e-4:  # series: g' -> 2/S^2, g'' -> -2/(3 S^2) at c = 1
            g1 = 2.0 / kappa * (1.0 - u * u / 6.0)
            g2 = 2.0 / kappa * (-1.0 / 3.0 + 2.0 * u * u / 15.0)
        else:
            sh = math.sinh(u)
            g1 = 2.0 * u / (kappa * sh)
            g2 = 2.0 * (sh - u * c) / (kappa * sh ** 3)
        # Hessian (g'' dc dc' + g' d2c + d2F) / 2L - r r' / L, r = grad L
        inv = 0.5 / length
        fa, fb = ea[::-1], eb[::-1]
        dc = [(v, s * bil(p, q)) for v, p, q in ((va, fa, eb), (vb, ea, fb)) if v >= 0]
        for v, dv in dc:
            for w, dw in dc:
                d2c = kappa * (c if v == w else bil(fa, fb))
                hess[v][w] += (g2 * (dv * dw) + g1 * d2c) * inv
        r = [(v, g1 * dv * inv) for v, dv in dc]
        for (ia, _, ib, _), d in zip(fibers, deltas):
            ends = [(v, sign) for v, sign in ((ia, 1.0), (ib, -1.0)) if v >= 0]
            for v, sv in ends:
                r.append((v, 2.0 * sv * d * inv))
                for w, sw in ends:
                    hess[v][w] += 2.0 * sv * sw * inv
        for v, rv in r:
            grad[v] += rv
            for w, rw in r:
                hess[v][w] -= rv * rw / length
    return total, grad, hess


def _newton_step(hess, grad: list[float], free: list[int]) -> list[float]:
    """Solve H_ff d = -g_f on the free coordinates with the Cholesky factor
    of H_ff + shift*I, under the Levenberg rule of the module docstring.
    numpy returns a NaN factor without raising; the pivot test rejects it."""
    h = np.array(hess)[np.ix_(free, free)]
    scale = h.diagonal().max(initial=1.0)
    shift = 0.0
    for _ in range(40):
        try:
            low = np.linalg.cholesky(h + shift * np.eye(len(free)))
            if (low.diagonal() ** 2 > 1e-13 * scale).all():
                break
        except np.linalg.LinAlgError:
            pass
        shift = max(10.0 * shift, 1e-10 * scale)
    else:
        raise ConvergenceError("no Levenberg shift makes the Hessian positive definite")
    step = np.zeros(len(grad))
    step[free] = np.linalg.solve(low.T, np.linalg.solve(low, -np.array(grad)[free]))
    return step.tolist()


def _projected_newton(segs, z, bounds, tol: float, max_sweeps: int):
    """Minimize the chain length over the box `bounds`; returns
    (z, value, iterations, projected-gradient infinity norm)."""
    f, grad, hess = _chain_objective(segs, z, True)
    for sweeps in range(1, max_sweeps + 1):
        # active: at a window edge with the gradient pointing out
        free = [v for v, (lo, hi) in enumerate(bounds)
                if not ((z[v] <= lo and grad[v] > 0.0) or (z[v] >= hi and grad[v] < 0.0))]
        step = _newton_step(hess, grad, free)
        decrement = -sum(g * d for g, d in zip(grad, step))
        if decrement <= 1e-10 * max(1.0, f):
            break
        alpha = 1.0
        for _ in range(60):
            trial = [min(max(zv + alpha * dv, lo), hi)
                     for zv, dv, (lo, hi) in zip(z, step, bounds)]
            ft = _chain_objective(segs, trial, False)[0]
            slope = sum(g * (t - zv) for g, t, zv in zip(grad, trial, z))
            if ft <= f + 1e-4 * min(slope, 0.0):
                break
            alpha *= 0.5
        else:
            if decrement <= tol * max(1.0, f):
                break
            raise ConvergenceError(f"line search stalled at Newton decrement {decrement}")
        z = trial
        f, grad, hess = _chain_objective(segs, z, True)
    else:
        raise ConvergenceError(
            f"no convergence in {max_sweeps} Newton iterations (last value {f})"
        )
    residual = max(abs(min(g, 0.0) if zv <= lo else max(g, 0.0) if zv >= hi else g)
                   for g, zv, (lo, hi) in zip(grad, z, bounds))
    return z, f, sweeps, residual


def distance(
    cplx: CoverComplex,
    x: CoverPoint,
    y: CoverPoint,
    tol: float = 1e-6,
    max_sweeps: int = 10_000,
) -> GeodesicResult:
    """Distance d(x, y) with the optimal chain configuration.

    `max_sweeps` caps the Newton iterations; a stalled line search is
    accepted when the Newton decrement is at most tol * max(1, d).  Flags
    TRUNCATED when any optimal crossing comes within 1 of the
    hexagon-truncation edge of its wall window.
    """
    for p in (x, y):
        if not cplx.contains(p):
            raise CoverError("point outside the explored complex")
    x, y = cplx.normalize(x), cplx.normalize(y)
    chain = _chain_vars(cplx, x, y)
    cfg = ChainConfiguration([wv.wall for wv in chain], [wv.upward for wv in chain], [])
    if not chain:
        return GeodesicResult(block_distance(cplx, x, y), cfg, False, 0, 0.0)

    bounds = [b for wv in chain for b in wv.bounds]
    z, value, sweeps, residual = _projected_newton(
        _segments(cplx.model, chain, x, y),
        [c for wv in chain for c in wv.coords],
        bounds, tol, max_sweeps,
    )
    truncated = any(v - lo < 1.0 or hi - v < 1.0 for v, (lo, hi) in zip(z, bounds))
    n1 = cplx.spec.n - 1
    cfg.coords = [z[i : i + n1] for i in range(0, len(z), n1)]
    return GeodesicResult(value, cfg, truncated, sweeps, residual)


# ---------------------------------------------------------------------------
# brute-force oracle (chains of at most two walls)


def brute_force_distance(
    cplx: CoverComplex,
    x: CoverPoint,
    y: CoverPoint,
    grid_step: float = 0.02,
    levels: Optional[int] = None,
    npts: Optional[int] = None,
) -> float:
    """Exhaustive grid minimization over wall crossing points.

    Chains of one or two walls only.  Grids shrink around the incumbent
    minimum until the step is below grid_step; values are monotone
    non-increasing under grid refinement on a fixed window.
    """
    x, y = cplx.normalize(x), cplx.normalize(y)
    chain = _chain_vars(cplx, x, y)
    if len(chain) > 2:
        raise CoverError("brute-force oracle only handles chains of <= 2 walls")
    if not chain:
        return block_distance(cplx, x, y)
    model = cplx.model

    def profile(comp: hx.ComponentId, base: hx.H0Point, grid: np.ndarray) -> np.ndarray:
        return np.array([hx.h0_distance(base, model.boundary_point(comp, t)) for t in grid])

    if len(chain) == 1:
        wv = chain[0]
        tf = _targets(x.fiber, wv.from_pos)
        tt = _targets(y.fiber, wv.to_pos)
        free = [j for j in range(cplx.spec.n - 1) if j not in (wv.jf, wv.jt)]
        d2 = sum((tf[j] - tt[j]) ** 2 for j in free)

        def value_grid(agrid: np.ndarray, bgrid: np.ndarray) -> np.ndarray:
            av = profile(wv.comp_from, x.base, agrid)[:, None]
            bv = profile(wv.comp_to, y.base, bgrid)[None, :]
            alpha = np.hypot(av, bgrid[None, :] - tf[wv.jt])
            beta = np.hypot(bv, agrid[:, None] - tt[wv.jf])
            return np.sqrt((alpha + beta) ** 2 + d2)

        return _refine(
            [wv.win_f, wv.win_t], value_grid, grid_step, levels, npts=npts or 33
        )

    wv1, wv2 = chain
    tf = _targets(x.fiber, wv1.from_pos)
    tt = _targets(y.fiber, wv2.to_pos)
    n1 = cplx.spec.n - 1
    # middle-block pairing: side position m of wall1's to-side matches side
    # position m of wall2's from-side
    mid_pairs = []
    for m in range(1, n1):
        j1 = wv1.to_pos.index(m)
        j2 = wv2.from_pos.index(m)
        mid_pairs.append((j1, j2))
    free1 = [j for j in range(n1) if j not in (wv1.jf, wv1.jt)]
    free2 = [j for j in range(n1) if j not in (wv2.jf, wv2.jt)]
    if free1 or free2:
        raise CoverError("two-wall oracle supports n = 3 only")
    # with n = 3: wall 1's free canonical index is its jf, wall 2's its jt
    ((j1m, j2m),) = mid_pairs
    if j1m != wv1.jf or j2m != wv2.jt:
        raise CoverError("unexpected wall coordinate pairing")

    def value_grid4(a1g, b1g, a2g, b2g):
        av = profile(wv1.comp_from, x.base, a1g)
        bv = profile(wv2.comp_to, y.base, b2g)
        mid = np.array(
            [profile(wv2.comp_from, model.boundary_point(wv1.comp_to, t1), a2g) for t1 in b1g]
        )
        A = np.hypot(av[:, None], b1g[None, :] - tf[wv1.jt])  # (a1, b1)
        B = np.hypot(bv[None, :], a2g[:, None] - tt[wv2.jf])  # (a2, b2)
        M = np.sqrt(
            mid[None, :, :, None] ** 2
            + (a1g[:, None, None, None] - b2g[None, None, None, :]) ** 2
        )  # (a1, b1, a2, b2)
        return A[:, :, None, None] + M + B[None, None, :, :]

    return _refine(
        [wv1.win_f, wv1.win_t, wv2.win_f, wv2.win_t],
        value_grid4,
        grid_step,
        levels,
        npts=npts or 13,
    )


def _refine(windows, value_fn, grid_step, levels, npts):
    los = [w[0] for w in windows]
    his = [w[1] for w in windows]
    best = math.inf
    level = 0
    while True:
        grids = [np.linspace(lo, hi, npts) for lo, hi in zip(los, his)]
        vals = value_fn(*grids)
        idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
        best = min(best, float(vals[idx]))
        steps = [(hi - lo) / (npts - 1) for lo, hi in zip(los, his)]
        level += 1
        if max(steps) <= grid_step or (levels is not None and level >= levels):
            return best
        centers = [g[i] for g, i in zip(grids, idx)]
        for d in range(len(windows)):
            half = max(1.5 * steps[d], grid_step * (npts - 1) / 4)
            los[d] = max(windows[d][0], centers[d] - half)
            his[d] = min(windows[d][1], centers[d] + half)
