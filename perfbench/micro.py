"""Micro-timings of single primitives on inputs generated from the seed.

Every input is generated and every cache warmed before the clock starts.
Timings are medians over repeats; they vary by machine and carry no bound.
"""

from __future__ import annotations

import statistics
import time

from ogm import geodesics as geo
from ogm import hexagon as hx
from ogm.cover import CoverComplex, make_stream
from ogm.trees import TreeSystem
from workloads import chain_walls, sampled_pair

PRIMITIVE_INPUTS = 2000
PHI_INPUTS = 300
REPEATS = 5
SOLVE_REPEATS = 3
MAX_CHAIN = 6


def _per_call_us(fn, inputs, repeats: int = REPEATS) -> float:
    """Median over repeats of the mean time per call, in microseconds."""
    for args in inputs:  # warm caches
        fn(*args)
    runs = []
    for _ in range(repeats):
        t = time.perf_counter()
        for args in inputs:
            fn(*args)
        runs.append((time.perf_counter() - t) / len(inputs))
    return statistics.median(runs) * 1e6


def _chain_pairs(cplx: CoverComplex, seed: int, tries: int = 10_000) -> dict:
    """First sampled pair for each chain length 1..MAX_CHAIN."""
    found: dict = {}
    for i in range(tries):
        x, y = sampled_pair(cplx, seed, i)
        walls = chain_walls(cplx, x, y)
        if 1 <= walls <= MAX_CHAIN:
            found.setdefault(walls, (x, y))
            if len(found) == MAX_CHAIN:
                return found
    raise RuntimeError(f"no pair for every chain length 1..{MAX_CHAIN} in {tries} tries")


def micro_timings(deep: CoverComplex, seed: int) -> dict:
    """Hexagon primitives, phi, and one solve per chain length 1-6, all on
    the deep (t0 3, hex 6) complex, the only one with chains of 6 walls."""
    model = deep.model
    rng = make_stream(seed, 1 << 20)

    def h0_point():
        addr = model.hexagons[int(rng.integers(0, len(model.hexagons)))]
        return hx.H0Point(addr, model.sample_local(rng))

    comps = model.components
    bp_inputs = []
    for _ in range(PRIMITIVE_INPUTS):
        comp = comps[int(rng.integers(0, len(comps)))]
        lo, hi = model.arclength_window(comp)
        bp_inputs.append((comp, float(rng.uniform(lo, hi))))
    h0_inputs = [(h0_point(), h0_point()) for _ in range(PRIMITIVE_INPUTS)]
    retract_inputs = [(p,) for p, _ in h0_inputs]
    tbin_inputs = [(hx.retract(p), hx.retract(q)) for p, q in h0_inputs]
    out = {
        "hexagon.boundary_point_us": _per_call_us(model.boundary_point, bp_inputs),
        "hexagon.h0_distance_us": _per_call_us(hx.h0_distance, h0_inputs),
        "hexagon.retract_us": _per_call_us(hx.retract, retract_inputs),
        "hexagon.tbin_distance_us": _per_call_us(hx.tbin_distance, tbin_inputs),
    }
    ts = TreeSystem(deep)
    points = [(deep.sample_point(make_stream(seed, (1 << 21) + i)),) for i in range(PHI_INPUTS)]
    out["trees.phi_us"] = _per_call_us(ts.phi, points)
    for walls, (x, y) in sorted(_chain_pairs(deep, seed).items()):
        geo.distance(deep, x, y)  # warm
        runs = []
        for _ in range(SOLVE_REPEATS):
            t = time.perf_counter()
            geo.distance(deep, x, y)
            runs.append(time.perf_counter() - t)
        out[f"geodesics.solve_ms_chain{walls}"] = statistics.median(runs) * 1e3
    return out
