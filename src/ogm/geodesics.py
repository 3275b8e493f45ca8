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
windows, finds the global minimum.  It stops on the Newton decrement, at
most MAX_SWEEPS steps in, and returns the optimal crossings with the
projected-gradient norm as their optimality certificate.

Each Newton step factors the Hessian on the free coordinates with numpy's
Cholesky.  While the factorisation fails, or a pivot diag(L)^2 is not above
1e-13 * scale (scale = max(1, largest free diagonal entry)), the diagonal
gets a Levenberg shift: 1e-10 * scale, then ten times the last, for at most
40 factorisations before ConvergenceError (the modified Cholesky of Nocedal
and Wright, Numerical Optimization, section 3.4).

`distances` solves a batch of pairs in lock-step (`distance` is a batch of
one).  The batch stacks the segment tables of all its chains into one
objective, evaluated once per step for every pair still running; Newton
steps are grouped by free-variable count, each group one stacked
factorisation; active sets, Levenberg shifts, line searches and stopping
are per-pair masks.  Each pair takes exactly the steps it takes alone, and
its result is bit for bit the same in any batch, order or worker count,
because:

* transcendentals (cosh, sinh, acosh, sinh(u), sh ** 3) go through `math`
  on Python lists; numpy's SIMD versions round some values differently,
  and differently again on strided and contiguous inputs;
* numpy does only elementwise +, -, *, /, sqrt, comparisons, min/max and
  `where`;
* every sum runs in the scalar order: lengths, gradient and Hessian
  accumulate segment by segment through `np.bincount` (never `np.sum`,
  which sums pairwise), a segment's Hessian terms in the order dc*dc,
  fiber ends, -r r' / L;
* LAPACK factors and solves each matrix of a stack passed to
  `np.linalg.cholesky` and `np.linalg.solve` (right-hand sides b[..., None])
  as it would alone; a pair whose factor fails runs its own Levenberg loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import hexagon as hx
from .cover import CoverComplex, CoverError, CoverPoint, Wall

MAX_SWEEPS = 10_000


class ConvergenceError(RuntimeError):
    pass


def block_distance(p: CoverPoint, q: CoverPoint) -> float:
    """Product distance inside one block."""
    if p.block != q.block:
        raise CoverError("block_distance requires points of one block")
    h = hx.h0_distance(p.base, q.base)
    e = sum((a - b) ** 2 for a, b in zip(p.fiber, q.fiber))
    return math.sqrt(h * h + e)


@dataclass
class GeodesicResult:
    """The crossings of the wall chain `walls` (ascended where `upward`)
    in canonical wall coordinates, one (arclength, fibers...) vector per
    wall.  `sweeps` counts Newton iterations; `residual` is the infinity
    norm of the projected gradient of the chain length at the crossings.
    `ends` is the pair, normalized."""

    distance: float
    walls: list[Wall]
    upward: list[bool]
    coords: list[list[float]]
    truncated: bool
    sweeps: int
    residual: float
    ends: tuple[CoverPoint, CoverPoint]


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


@functools.lru_cache(maxsize=None)
def _slot_columns(nf: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hessian terms of one segment, summed in this order, as (row, column)
    positions in its r = (a, b, fiber ends at a, fiber ends at b): the dc*dc
    terms, the fiber terms, then -r r' / L; and the fiber terms' signs."""
    rr = range(2 + 2 * nf)
    ka, kb = range(2, 2 + nf), range(2 + nf, 2 + 2 * nf)
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for rows, cols in ((ka, ka), (ka, kb), (kb, ka), (kb, kb)):
        pairs += zip(rows, cols)
    pairs += [(i, j) for i in rr for j in rr]
    rows, cols = zip(*pairs)
    signs = np.repeat([1.0, -1.0, -1.0, 1.0], nf)
    return np.array(rows), np.array(cols), signs


# The cosh and sinh rows e = (ea0, eb0, ea1, eb1) of the segment ends, taken
# as [[q0, q1], [q1, q0]] for q = eb and q = ea: bil(p, q) =
# p0 (m0 q0 + m1 q1) + p1 (m2 q0 + m3 q1) pairs them with the rows of
# (q, q reversed), so that one product and one sum give M q for q = eb, fb
# and then c = bil(ea, eb), bil(fa, eb), bil(ea, fb), bil(fa, fb).
_EB = np.array([1, 3, 3, 1])
_EA = np.array([0, 2, 2, 0])
# (kappa c, dc_a, dc_b, kappa bil(fa, fb)) from those four
_DC_SCALE = np.array([[hx.KAPPA], [hx.S], [hx.S], [hx.KAPPA]])
# (dc dc', d2c) factors of the dc*dc terms from (kappa c, dc_a, dc_b, kappa bil(fa, fb))
_DC12 = np.array([1, 1, 2, 2, 1, 2, 1, 2, 0, 3, 3, 0])


class _Stack:
    """One objective over the stacked segment tables of a batch of chains.

    Variable v of the batch is coordinate v - off[p] of its pair p =
    var_pair[v]; pair p's Hessian is the dense nv[p] x nv[p] block at
    hrow[v] + hcol[w] of one flat array.  Per segment, `lines` and `fibers`
    index z + consts at its line ends and its fiber ends (a fixed end reads
    a 0, whose cosh and sinh are exactly 1 and 0; a fixed fiber reads its
    constant), and `gbins` and `hbins` are the gradient and Hessian bins of
    its terms; a term at a fixed end goes to a bin past the last, which is
    discarded.
    """

    def __init__(self, problems):
        """`problems`: (segments, bounds, start) of each chain."""
        self.n = len(problems)
        nv = [len(z) for _, _, z in problems]
        nvar = nh = 0
        off, vp, hrow, hcol = [], [], [], []
        for p, k in enumerate(nv):
            off.append(nvar)
            vp += [p] * k
            hrow += range(nh, nh + k * k, k)
            hcol += range(k)
            nvar, nh = nvar + k, nh + k * k
        self.nvar, self.nh = nvar, nh
        self.nv, self.off, self.var_pair = np.array(nv), np.array(off), np.array(vp)
        hrow_x, hcol_x = np.array(hrow + [nh]), np.array(hcol + [nh])
        self.hrow, self.hcol = hrow_x[:-1], hcol_x[:-1]
        self.z0 = np.array([c for _, _, z in problems for c in z])
        self.lo = np.array([b[0] for _, bounds, _ in problems for b in bounds])
        self.hi = np.array([b[1] for _, bounds, _ in problems for b in bounds])
        self.nf = nf = len(problems[0][0][0][3])
        consts, ends, gbins, seg, m = [0.0], [], [], [], []
        for p, (segs, _, _) in enumerate(problems):
            o = off[p]
            for mm, va, vb, fibers in segs:
                row = [o + va if va >= 0 else nvar, o + vb if vb >= 0 else nvar]
                gb = list(row)
                for i, k in [fb[:2] for fb in fibers] + [fb[2:] for fb in fibers]:
                    if i >= 0:
                        row.append(o + i)
                        gb.append(o + i)
                    else:
                        row.append(nvar + len(consts))
                        consts.append(k)
                        gb.append(nvar)
                ends.append(row)
                gbins.append(gb)
                seg.append(p)
                m.append(mm)
        self.consts, self.seg_pair = np.array(consts), np.array(seg)
        self.m, ends, self.gbins = np.array(m), np.array(ends), np.array(gbins)
        self.lines, self.fibers = ends[:, :2], ends[:, 2:]
        si, sj, self.fiber_signs = _slot_columns(nf)
        self.hbins = hrow_x[self.gbins[:, si]] + hcol_x[self.gbins[:, sj]]
        self._key, self._rows = b"", ()

    def rows(self, pairs: np.ndarray):
        """The segment tables of the pairs in the mask `pairs`: line ends
        (all a, then all b), fiber ends and m as [[m0, m1], [m2, m3]], one
        column per segment; the pair, and the bins, segment by segment."""
        key = pairs.tobytes()
        if key != self._key:  # most steps evaluate the pairs the last one did
            sel = pairs[self.seg_pair].nonzero()[0]
            self._key, self._rows = key, (
                self.lines[sel].T.ravel(), self.fibers[sel].T.copy(),
                self.m[sel].T.reshape(2, 2, -1).copy(),
                self.seg_pair[sel], self.gbins[sel].ravel(), self.hbins[sel].ravel())
        return self._rows

    def evaluate(self, z: np.ndarray, pairs: np.ndarray, derivs: bool):
        """Chain length per pair of the mask `pairs` at z (0 elsewhere), and
        if `derivs` the gradient and the flat Hessian blocks (0 outside
        those pairs): the scalar formula, operation for operation.  A
        segment has length L = sqrt(g(c) + F), g(c) = (acosh(c) / S)^2,
        F = |fiber difference|^2; one of length 0 adds no derivative
        terms.  Quantities run along rows, one column per segment."""
        s, kappa, nf = hx.S, hx.KAPPA, self.nf
        lines, fibers, m, seg_pair, gbins, hbins = self.rows(pairs)
        zx = np.concatenate((z, self.consts))
        t = (s * zx[lines]).tolist()
        e = np.array([*map(math.cosh, t), *map(math.sinh, t)]).reshape(4, -1)
        w = m * e[_EB].reshape(2, 1, 2, -1)
        mq = w[..., 0, :] + w[..., 1, :]  # M eb, M fb
        w = e[_EA].reshape(2, 2, -1) * mq[:, None]
        bil = (w[..., 0, :] + w[..., 1, :]).reshape(4, -1)
        c = bil[0]
        fz = zx[fibers]
        delta = fz[:nf] - fz[nf:]
        sq = delta * delta
        fib = sq[0] if nf else 0.0
        for k in range(1, nf):
            fib = fib + sq[k]
        ul = [math.acosh(v) if v > 1.0 else 0.0 for v in c.tolist()]
        u = np.array(ul)
        length = np.sqrt(u * u / kappa + fib)
        f = np.bincount(seg_pair, length, minlength=self.n)
        if not derivs:
            return f, None, None
        shl = [math.sinh(v) if v >= 1e-4 else 1.0 for v in ul]
        sh = np.array([shl, [v ** 3 for v in shl]])  # sinh(u), sinh(u) ** 3
        ksh = kappa * sh
        g1, g2 = 2.0 * u / ksh[0], 2.0 * (sh[0] - u * c) / ksh[1]
        if min(ul) < 1e-4:  # series: g' -> 2/S^2, g'' -> -2/(3 S^2) at c = 1
            small = u < 1e-4
            g1 = np.where(small, 2.0 / kappa * (1.0 - u * u / 6.0), g1)
            g2 = np.where(small, 2.0 / kappa * (-1.0 / 3.0 + 2.0 * u * u / 15.0), g2)
        # Hessian (g'' dc dc' + g' d2c + d2F) / 2L - r r' / L, r = grad L
        inv = 0.5 / length
        dc = bil * _DC_SCALE  # kappa c, dc_a, dc_b, kappa bil(fa, fb)
        w = dc[_DC12].reshape(3, 4, -1)
        hdc = (g2 * (w[0] * w[1]) + g1 * w[2]) * inv
        d2 = 2.0 * delta
        # from here on one row per segment, terms along it
        r = np.concatenate(((g1 * dc[1:3]).T, d2.T, (-d2).T), axis=1) * inv[:, None]
        rr = r[:, :, None] * r[:, None, :] / -length[:, None, None]
        vals = np.concatenate(
            (hdc.T, (2.0 * inv)[:, None] * self.fiber_signs, rr.reshape(len(u), -1)), axis=1)
        if np.count_nonzero(length) < len(u):
            dead = length == 0.0
            vals[dead], r[dead] = 0.0, 0.0
        # summed segment by segment, each in the order of _slot_columns
        grad = np.bincount(gbins, r.ravel(), minlength=self.nvar + 1)[: self.nvar]
        hess = np.bincount(hbins, vals.ravel(), minlength=self.nh + 1)[: self.nh]
        return f, grad, hess


def _levenberg_factor(h: np.ndarray, scale) -> Optional[np.ndarray]:
    """Cholesky factor of h + shift*I under the Levenberg rule of the module
    docstring, or None when 40 factorisations fail.  numpy returns a NaN
    factor without raising; the pivot test rejects it."""
    shift = 0.0
    for _ in range(40):
        try:
            low = np.linalg.cholesky(h + shift * np.eye(len(h)))
            if (low.diagonal() ** 2 > 1e-13 * scale).all():
                return low
        except np.linalg.LinAlgError:
            pass
        shift = max(10.0 * shift, 1e-10 * scale)
    return None


def _newton_steps(hs: np.ndarray, gs: np.ndarray):
    """(steps, indices of failed pairs) for a stack of free Hessian blocks
    hs (k, F, F) and gradients gs (k, F): d solves H d = -g with the
    Cholesky factor of H + shift*I.  One stacked factorisation at shift 0; a pair whose factor
    fails the pivot test, or every pair when it raises, runs its own
    Levenberg loop.  LAPACK factors and solves each matrix of a stack as it
    would alone, so a step does not depend on the stack it is in."""
    k, size = gs.shape
    scale = np.maximum.reduce(hs.reshape(k, -1)[:, :: size + 1], axis=1, initial=1.0)
    try:
        low = np.linalg.cholesky(hs)
        ok = low.reshape(k, -1)[:, :: size + 1] ** 2 > 1e-13 * scale[:, None]
        bad = () if np.count_nonzero(ok) == ok.size else (~ok).any(axis=1).nonzero()[0]
    except np.linalg.LinAlgError:
        low, bad = np.empty_like(hs), range(k)
    failed = []
    for i in bad:
        factor = _levenberg_factor(hs[i], scale[i])
        if factor is None:
            failed.append(int(i))
        low[i] = np.eye(size) if factor is None else factor
    y = np.linalg.solve(low, (-gs)[..., None])
    return np.linalg.solve(low.transpose(0, 2, 1), y)[..., 0], failed


def _projected_newton(stack: _Stack, tol: float):
    """Minimize every chain of the stack over its box, all in lock-step;
    per pair (z, value, iterations, projected-gradient infinity norm), or
    the ConvergenceError it ran into.  Each pair takes exactly the steps
    of a solve on its own."""
    n, vp, lo, hi = stack.n, stack.var_pair, stack.lo, stack.hi
    out: list = [None] * n
    z = stack.z0
    active = np.ones(n, bool)
    f, grad, hess = stack.evaluate(z, active, True)

    def finish(p: int, sweeps: int, error: Optional[str] = None) -> None:
        active[p] = False
        if error:
            out[p] = ConvergenceError(error)
            return
        a, b = int(stack.off[p]), int(stack.off[p] + stack.nv[p])
        zp = z[a:b].tolist()
        residual = max(abs(min(g, 0.0) if zv <= lv else max(g, 0.0) if zv >= hv else g)
                       for g, zv, lv, hv in zip(grad[a:b].tolist(), zp, lo[a:b].tolist(),
                                                hi[a:b].tolist()))
        out[p] = (zp, float(f[p]), sweeps, residual)

    for sweeps in range(1, MAX_SWEEPS + 1):
        # free: not at a window edge with the gradient pointing out
        free = active[vp] & ~(((z <= lo) & (grad > 0.0)) | ((z >= hi) & (grad < 0.0)))
        fv = free.nonzero()[0]
        count = np.bincount(vp[fv], minlength=n)
        groups: dict = {}
        for p, size in enumerate(count.tolist()):
            if size:
                groups.setdefault(size, []).append(p)
        step = np.zeros(stack.nvar)
        for size, ps in groups.items():
            # fv runs pair by pair, so a group's free variables are its rows
            idx = (fv if len(groups) == 1 else fv[count[vp[fv]] == size]).reshape(-1, size)
            hidx = stack.hrow[idx][:, :, None] + stack.hcol[idx][:, None, :]
            step[idx], failed = _newton_steps(hess[hidx], grad[idx])
            for i in failed:
                finish(ps[i], sweeps, "no Levenberg shift makes the Hessian positive definite")
        decrement = -np.bincount(vp, grad * step, minlength=n)
        floor = np.fmax(f, 1.0)  # max(1, f)
        for p in (active & (decrement <= 1e-10 * floor)).nonzero()[0].tolist():
            finish(p, sweeps)
        # the full step usually passes: take derivatives there at once
        search, moved, late, alpha = active.copy(), z, None, 1.0
        for tries in range(60):
            if not np.count_nonzero(search):
                break
            trial = z + alpha * step if tries else z + step
            trial = np.where(lo > trial, lo, trial)
            trial = np.where(hi < trial, hi, trial)
            ft, gt, ht = stack.evaluate(trial, search, not tries)
            slope = np.bincount(vp, grad * (trial - z), minlength=n)
            accept = search & (ft <= f + 1e-4 * np.minimum(slope, 0.0))
            moved = np.where(accept[vp], trial, moved)
            if not tries:
                f_new, grad_new, hess_new = ft, gt, ht
            elif np.count_nonzero(accept):
                late = accept if late is None else late | accept
            search &= ~accept
            alpha *= 0.5
        for p in search.nonzero()[0].tolist():
            if decrement[p] <= tol * floor[p]:
                finish(p, sweeps)
            else:
                finish(p, sweeps, f"line search stalled at Newton decrement {decrement[p]}")
        if not np.count_nonzero(active):
            break
        z, f, grad, hess = moved, f_new, grad_new, hess_new
        if late is not None:
            fl, gl, hl = stack.evaluate(z, late, True)
            f, grad = np.where(late, fl, f), np.where(late[vp], gl, grad)
            hess = np.where(late[np.repeat(stack.var_pair, stack.nv[stack.var_pair])], hl, hess)
    for p in active.nonzero()[0].tolist():
        finish(p, MAX_SWEEPS,
               f"no convergence in {MAX_SWEEPS} Newton iterations (last value {f[p]})")
    return out


def distances(
    cplx: CoverComplex,
    pairs: list[tuple[CoverPoint, CoverPoint]],
    tol: float = 1e-6,
) -> list[GeodesicResult]:
    """`distance` of every pair, solved together in one lock-step batch.

    Each result is bit for bit the one the pair gets alone.  A pair that
    fails to converge raises its ConvergenceError once the batch is done;
    the first such pair in `pairs` wins.
    """
    results: list = [None] * len(pairs)
    problems, slots = [], []
    for k, (x, y) in enumerate(pairs):
        for p in (x, y):
            if not cplx.contains(p):
                raise CoverError("point outside the explored complex")
        x, y = cplx.normalize(x), cplx.normalize(y)
        chain = _chain_vars(cplx, x, y)
        if not chain:
            results[k] = GeodesicResult(
                block_distance(x, y), [], [], [], False, 0, 0.0, (x, y))
            continue
        bounds = [b for wv in chain for b in wv.bounds]
        problems.append((_segments(cplx.model, chain, x, y), bounds,
                         [c for wv in chain for c in wv.coords]))
        slots.append((k, chain, bounds, (x, y)))
    if not problems:
        return results
    with np.errstate(divide="ignore", invalid="ignore"):
        solved = _projected_newton(_Stack(problems), tol)
    for sol in solved:
        if isinstance(sol, ConvergenceError):
            raise sol
    n1 = cplx.spec.n - 1
    for (k, chain, bounds, ends), (z, value, sweeps, residual) in zip(slots, solved):
        truncated = any(v - lo < 1.0 or hi - v < 1.0 for v, (lo, hi) in zip(z, bounds))
        results[k] = GeodesicResult(
            value, [wv.wall for wv in chain], [wv.upward for wv in chain],
            [z[i : i + n1] for i in range(0, len(z), n1)], truncated, sweeps, residual, ends)
    return results


def distance(
    cplx: CoverComplex,
    x: CoverPoint,
    y: CoverPoint,
    tol: float = 1e-6,
) -> GeodesicResult:
    """Distance d(x, y) with its optimal crossings: `distances` of a batch
    of one.

    A stalled line search is accepted when the Newton decrement is at most
    tol * max(1, d).  Flags TRUNCATED when any optimal crossing comes
    within 1 of the hexagon-truncation edge of its wall window.
    """
    return distances(cplx, [(x, y)], tol)[0]


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
        return block_distance(x, y)
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

    if cplx.spec.n != 3:
        raise CoverError("two-wall oracle supports n = 3 only")
    # with n = 3 a wall's coordinates are its jf and jt (perm(0) != 0), and
    # the middle block's fiber reads wall 1's jf and wall 2's jt
    wv1, wv2 = chain
    tf = _targets(x.fiber, wv1.from_pos)
    tt = _targets(y.fiber, wv2.to_pos)

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
