"""The benchmark's workloads, their units of work and their correctness
gate.

Every workload is a closed loop with one caller: a unit starts when the
previous one has returned.  A run generates its units once, from the
benchmark seed, then executes all of them in passes until its time is up.
A unit is one call chain a user runs:

* ``certify``: per spec (flip_n3, cycle_n4, two_vertex_n5, at the
  acceptance configuration), ``collect_records`` then ``verify_lipschitz``,
  ``verify_qi`` and ``verify_curves``, serially.
* ``covering``: ``cli.covering_report`` (the ``ogm covering`` command),
  serially, on two_vertex_n5 at scale 8.

Only calls into ``ogm`` are timed; input generation and the correctness
gate run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

import configs as C
from ogm import cli
from ogm import geodesics as geo
from ogm import verify as vf
from ogm.cover import CoverComplex, explore, make_stream
from ogm.manifold import GraphManifoldSpec

clock = time.perf_counter

CANDIDATE_SEEDS = 64
# Solver cost of one pair grows about as (walls in its chain) ** 1.5,
# measured per chain length at t0 depth 2 / hex depth 4 and t0 3 / hex 6.
WALL_COST_EXPONENT = 1.5


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def sampled_pair(cplx: CoverComplex, seed: int, index: int):
    """The pair verify samples for (seed, index)."""
    x = cplx.sample_point(make_stream(seed, 2 * index))
    y = cplx.sample_point(make_stream(seed, 2 * index + 1))
    return x, y


def chain_walls(cplx: CoverComplex, x, y) -> int:
    return len(cplx.wall_chain(cplx.normalize(x).block, cplx.normalize(y).block))


def balanced_seed(cplx: CoverComplex, samples: int, *key: int) -> int:
    """Run seed for one batch of `samples` pairs.

    Of CANDIDATE_SEEDS seeds derived from `key`, take the one whose count of
    pairs per chain length is nearest the candidates' mean counts, each
    length weighted by its predicted solver cost.  Per-pair cost varies
    about twentyfold with chain length, so without this a run's figures
    would mostly measure which chain lengths its seed happened to draw.
    The choice depends on the inputs only, never on measured times.
    """
    counts = []
    for j in range(CANDIDATE_SEEDS):
        s = derive_seed(*key, j)
        walls = Counter(chain_walls(cplx, *sampled_pair(cplx, s, i)) for i in range(samples))
        counts.append((s, walls))
    lengths = set().union(*(w for _, w in counts))
    mean = {k: sum(w[k] for _, w in counts) / len(counts) for k in lengths}

    def distance(item):
        s, walls = item
        return sum(k ** WALL_COST_EXPONENT * abs(walls[k] - mean[k]) for k in lengths), s

    return min(counts, key=distance)[0]


@dataclass
class Tally:
    """Operations of one run: an operation is one sampled pair (certify) or
    one covering report (covering).  Attempted and failed operations are
    both sets of distinct keys, so an operation counts once however many
    passes execute it and whichever check fails it."""

    attempted: set = field(default_factory=set)  # keys of attempted operations
    failed: set = field(default_factory=set)     # keys of failed operations
    pairs: int = 0       # sampled pairs evaluated, over all passes
    truncated: int = 0   # of those, TRUNCATED records

    def fail(self, ops, why: str) -> None:
        self.failed.update(ops)
        print(f"correctness: {why}", file=sys.stderr)


@dataclass
class Unit:
    """One unit of work: its inputs, and once executed, its results and
    timings.  `pairs` counts what pairs_per_s counts: sampled pairs, or for
    a covering report the pairs of its distance matrices."""

    spec_name: str
    spec: GraphManifoldSpec
    cfg: vf.RunConfig
    cplx: CoverComplex
    pairs: int
    records: Optional[list] = None
    reports: list = field(default_factory=list)
    error: str = ""
    call_s: list = field(default_factory=list)  # per timed call, collect first
    scale: float = 1.0  # speed_scale around this execution

    def fresh(self) -> "Unit":
        """The same inputs with no results."""
        return replace(self, records=None, reports=[], error="", call_s=[], scale=1.0)

    def ops(self, indices=None) -> list:
        """Keys of the unit's operations (all of them by default)."""
        if indices is None:
            indices = range(self.cfg.samples)
        return [(self.spec_name, self.cfg.seed, i) for i in indices]


def _collect_and_report(u: Unit, kinds) -> None:
    t = clock()
    try:
        u.records = vf.collect_records(u.spec, u.cfg)
    except Exception:  # a raise fails every pair of the call
        u.error = traceback.format_exc()
    u.call_s.append(clock() - t)
    if u.records is not None:
        try:
            for kind in kinds():
                t = clock()
                u.reports.append(kind(u.spec, u.cfg, u.records))
                u.call_s.append(clock() - t)
        except Exception:
            u.error = traceback.format_exc()


def _check_pairs(u: Unit, tally: Tally, first: Optional[Unit]) -> bool:
    """Fails every pair of the unit on a raise, on a report that is not PASS
    with zero violations, or on records that differ from the first pass's."""
    tally.attempted.update(u.ops())
    tally.pairs += u.cfg.samples
    if u.error:
        tally.fail(u.ops(), f"{u.spec_name}: raised\n{u.error}")
        return False
    tally.truncated += sum(r["truncated"] for r in u.records)
    for rep in u.reports:
        if rep.verdict != "PASS" or any(s.violations for s in rep.inequalities.values()):
            tally.fail(u.ops(), f"{u.spec_name}: {rep.kind} report {rep.verdict}")
            return False
    if first is not None and digest(u.records) != digest(first.records):
        tally.fail(u.ops(), f"{u.spec_name}: records differ between passes")
        return False
    return True


def _check_oracle(u: Unit, tally: Tally) -> None:
    """Solver distance against brute_force_distance on the pairs of at most
    ORACLE_MAX_WALLS walls, at acceptance criterion 2's tolerance."""
    for rec in u.records:
        if rec["truncated"]:
            continue
        x, y = sampled_pair(u.cplx, u.cfg.seed, rec["index"])
        if chain_walls(u.cplx, x, y) > C.ORACLE_MAX_WALLS:
            continue
        bf = geo.brute_force_distance(u.cplx, x, y, grid_step=C.ORACLE_GRID_STEP)
        if abs(rec["d"] - bf) > C.ORACLE_RTOL * max(bf, 1e-12):
            tally.fail(u.ops([rec["index"]]),
                       f"{u.spec_name} pair {rec['index']}: d={rec['d']} oracle={bf}")


class Workload:
    name = ""
    setups = ()

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.specs = {}
        self.complexes = {}
        for name, cfg in self.setups:
            spec = GraphManifoldSpec.from_json_file(str(root / "specs" / f"{name}.json"))
            self.specs[name] = spec
            self.complexes[name] = explore(
                spec, cfg["t0_depth"], cfg["hex_depth"],
                fiber_range=cfg["fiber_range"], wall_comp_depth=cfg["wall_comp_depth"],
            )
        self.units = self.make_units()

    def balanced_unit(self, index: int, samples: int) -> Unit:
        name, cfg = self.setups[index]
        cplx = self.complexes[name]
        seed = balanced_seed(cplx, samples, self.seed, index)
        run_cfg = vf.RunConfig(samples=samples, seed=seed, workers=1, **cfg)
        return Unit(name, self.specs[name], run_cfg, cplx, samples)

    def make_units(self) -> list:
        raise NotImplementedError

    def execute(self, u: Unit) -> None:
        """Run the unit's timed calls.  Entry points are looked up at call
        time, so that a traced run reaches the wrapped ones."""
        raise NotImplementedError

    def check(self, u: Unit, tally: Tally, first: Optional[Unit]) -> None:
        """Correctness gate; `first` is the same unit's first execution."""
        raise NotImplementedError

    def operations(self, u: Unit) -> list:
        """Keys of the operations that a failure of the whole unit fails."""
        return u.ops()

    def result_digest(self, u: Unit) -> str:
        """Digest of an executed unit's results, which must not vary between
        passes, processes or hash seeds."""
        raise NotImplementedError


class Certify(Workload):
    name = "certify"
    setups = C.SETUPS["certify"]

    def make_units(self):
        return [self.balanced_unit(i, C.CERTIFY_PAIRS) for i in range(len(self.setups))]

    def execute(self, u):
        _collect_and_report(u, lambda: (vf.verify_lipschitz, vf.verify_qi, vf.verify_curves))

    def check(self, u, tally, first):
        if _check_pairs(u, tally, first) and first is None and u.spec_name == "flip_n3":
            _check_oracle(u, tally)

    def result_digest(self, u):
        return digest(u.records)


class Covering(Workload):
    name = "covering"
    setups = C.SETUPS["covering"]

    def make_units(self):
        ((name, cfg),) = self.setups
        n = C.COVERING_SAMPLES
        return [
            Unit(name, self.specs[name],
                 vf.RunConfig(samples=n, seed=derive_seed(self.seed, i), workers=1, **cfg),
                 self.complexes[name], n * (n - 1) // 2)
            for i in range(C.COVERING_REPORTS)
        ]

    def execute(self, u):
        t = clock()
        try:
            u.reports = [cli.covering_report(
                u.spec, u.cfg, C.COVERING_SCALE, C.COVERING_BINDING_PAIRS
            )]
        except Exception:
            u.error = traceback.format_exc()
        u.call_s.append(clock() - t)

    def operations(self, u):
        return u.ops([0])

    def result_digest(self, u):
        return digest(u.reports[0])

    def check(self, u, tally, first):
        op = self.operations(u)
        tally.attempted.update(op)
        if u.error:
            tally.fail(op, f"covering: raised\n{u.error}")
            return
        (doc,) = u.reports
        checks = [f["check"] for f in doc["factors"]] + [doc["product"]["check"], doc["pullback"]]
        if doc["verdict"] != "PASS" or not all(c["ok"] for c in checks):
            tally.fail(op, f"covering: verdict {doc['verdict']}")
        elif first is not None and self.result_digest(u) != self.result_digest(first):
            tally.fail(op, "covering: report differs between passes")


def deep_complex(root: Path) -> CoverComplex:
    """flip_n3 at t0 depth 3 and hex depth 6: chains of 1 to 6 walls."""
    spec = GraphManifoldSpec.from_json_file(str(root / "specs" / "flip_n3.json"))
    return explore(spec, **C.DEEP)


WORKLOADS = {w.name: w for w in (Certify, Covering)}
