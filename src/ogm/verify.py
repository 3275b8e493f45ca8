"""Sampled certification of the embedding inequalities.

Every sampled pair gets the solver distance d and the embedded distance
e = |phi(x)phi(y)| (sum metric over T0 and the T_c), and each proved
inequality is checked at its stated tolerance; TRUNCATED pairs never count.
Per-pair work is deterministic in (seed, index), so reports are bit-for-bit
reproducible regardless of worker count or scheduling.  The covering
report builds the colored coverings of the embedded samples and pulls them
back through the quasi-isometry.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import coverings as cvg
from . import curves as cv
from . import geodesics as geo
from . import hexagon as hx
from . import trees as tr
from .cover import CoverComplex, CoverError, CoverPoint, WordStream, explore, make_stream
from .manifold import GraphManifoldSpec, check_irreducible, validate


def constant_c(n: int, delta: float) -> float:
    """The quasi-isometry constant max{2*delta+1, 2*delta*(n-1)+1}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return max(2.0 * delta + 1.0, 2.0 * delta * (n - 1) + 1.0)


@dataclass
class RunConfig:
    t0_depth: int = 2
    hex_depth: int = 4
    samples: int = 500
    seed: int = 0
    tol: float = 1e-6
    fiber_range: float = 3.0
    wall_comp_depth: Optional[int] = 0
    workers: int = 0  # 0 = the CPUs this process may run on

    def __post_init__(self):
        if self.t0_depth < 1 or self.hex_depth < 1:
            raise ValueError("depths must be >= 1")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:  # numpy seed sequences take non-negative entropy only
            raise ValueError("seed must be >= 0")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and > 0")
        if not (math.isfinite(self.fiber_range) and self.fiber_range >= 0):
            raise ValueError("fiber_range must be finite and >= 0")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")

    def epsilon(self) -> float:
        return 10.0 * self.tol

    def to_dict(self) -> dict:
        """Every field but workers, which does not change a report."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "workers"}


@dataclass
class InequalityStat:
    checked: int = 0
    violations: int = 0
    worst_margin: float = -math.inf  # max of (lhs - allowed); <= 0 passes
    witness: Optional[dict] = None

    def update(self, margin: float, witness: dict) -> None:
        """A NaN margin checked nothing, so it is a violation and, the
        first time, the worst margin."""
        self.checked += 1
        if margin > self.worst_margin or (
            math.isnan(margin) and not math.isnan(self.worst_margin)
        ):
            self.worst_margin = margin
            self.witness = witness
        if not margin <= 0:
            self.violations += 1

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "violations": self.violations,
            "worst_margin": self.worst_margin if self.checked else None,
            "witness": self.witness,
        }


@dataclass
class VerificationReport:
    kind: str
    spec_digest: str
    n: int
    config: RunConfig
    constants: dict
    usable: int = 0
    truncated: int = 0
    inequalities: dict[str, InequalityStat] = field(default_factory=dict)
    retraction_lipschitz: Optional[float] = None
    retraction_lipschitz_exact: Optional[float] = None

    @property
    def verdict(self) -> str:
        if self.usable == 0:
            return "FAIL"
        if any(s.violations for s in self.inequalities.values()):
            return "FAIL"
        return "PASS"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "spec_digest": self.spec_digest,
            "n": self.n,
            "config": self.config.to_dict(),
            "constants": self.constants,
            "usable_samples": self.usable,
            "truncated_samples": self.truncated,
            "inequalities": {k: v.to_dict() for k, v in sorted(self.inequalities.items())},
            "retraction_lipschitz": self.retraction_lipschitz,
            "retraction_lipschitz_exact": self.retraction_lipschitz_exact,
            "notes": [],  # the report format's key; no check writes a note
        }


# -- per-pair evaluation ------------------------------------------------------

_STATE: dict = {}


def _pair_records(indices: range) -> list[dict]:
    """The records of a chunk of sample indices, their distances solved in
    one batch."""
    cplx: CoverComplex = _STATE["cplx"]
    cfg: RunConfig = _STATE["cfg"]
    pts = cplx.sample_points(cfg.seed, [2 * i + k for i in indices for k in (0, 1)])
    pairs = list(zip(pts[0::2], pts[1::2]))
    results = geo.distances(cplx, pairs, tol=cfg.tol)
    return [_pair_record(i, x, y, res) for i, (x, y), res in zip(indices, pairs, results)]


def _pair_record(index: int, x: CoverPoint, y: CoverPoint, res: geo.GeodesicResult) -> dict:
    """The record of sample `index`, the pair (x, y) at solved distance `res`,
    whose normalized ends serve phi and the witness curve."""
    cplx: CoverComplex = _STATE["cplx"]
    ts: tr.TreeSystem = _STATE["ts"]
    rec: dict = {"index": index}
    if res.truncated:
        rec["truncated"] = True
        return rec
    rec["truncated"] = False
    rec["d"] = res.distance
    xn, yn = res.ends
    px, py = ts.phi(xn, normalized=True), ts.phi(yn, normalized=True)
    rec["t0"] = ts.t0_distance(px.t0, py.t0)
    rec["tc"] = {}
    for lab in ts.class_labels:
        rec["tc"][lab] = ts.tc_distance(lab, px.coord(lab), py.coord(lab))
    rec["e"] = rec["t0"] + sum(rec["tc"].values())
    rec["x"] = cplx.format_point(x)
    rec["y"] = cplx.format_point(y)
    try:
        path = cv.build_special_curve(cplx, ts, xn, yn, normalized=True)
        rec["curve_length"], rec["curve_hop_max"] = cv.curve_length(cplx, path)
    except cv.CurveTruncationError:
        rec["curve_length"] = None
    return rec


def _collect_records(
    cplx: CoverComplex, ts: tr.TreeSystem, cfg: RunConfig
) -> list[dict]:
    _STATE.update(cplx=cplx, ts=ts, cfg=cfg)  # read by _pair_records, also in forked workers
    workers = cfg.workers or (  # 0: the CPUs this process may run on
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    )
    workers = min(workers, cfg.samples)  # a pool no larger than the work
    # chunks of at most 64 pairs, and at least one chunk per worker; each
    # chunk's distances are one batch solve, which pays the solver's
    # per-sweep numpy cost once per chunk
    size = max(1, min(64, math.ceil(cfg.samples / workers)))
    chunks = [range(i, min(i + size, cfg.samples)) for i in range(0, cfg.samples, size)]
    if workers > 1 and hasattr(os, "fork"):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            return [rec for chunk in pool.map(_pair_records, chunks, chunksize=1) for rec in chunk]
    return [rec for chunk in chunks for rec in _pair_records(chunk)]


def _build(spec: GraphManifoldSpec, cfg: RunConfig):
    """The explored complex and its tree system, for a spec that is valid
    and irreducible."""
    cplx = explore(
        spec,
        cfg.t0_depth,
        cfg.hex_depth,
        fiber_range=cfg.fiber_range,
        wall_comp_depth=cfg.wall_comp_depth,
    )
    ts = tr.TreeSystem(cplx)
    if len(ts.class_labels) != spec.n - 1:
        raise CoverError(
            f"explored complex has {len(ts.class_labels)} classes, expected {spec.n - 1}"
        )
    return cplx, ts


def _prepare(spec: GraphManifoldSpec, cfg: RunConfig):
    bad = validate(spec)
    if bad:
        raise CoverError("invalid spec: " + "; ".join(bad))
    irr = check_irreducible(spec, cfg.t0_depth)
    if not irr.irreducible:
        raise CoverError(f"spec rejected (not irreducible): {irr.reason}")
    return _build(spec, cfg)


# pairs drawn before the geometry runs over them as arrays: the arrays of a
# chunk, not of the whole sample, bound the sample's memory
RETRACTION_CHUNK = 1024

# the retraction sample's stand-in hexagons (retracted_tbin_distances), and
# the rows of h and of extend(h, 0..2) at [row of h] (-1 past depth 3)
_STAND_INS = hx.hexagons_to_depth(3)
_STAND_IN_TABLE = hx.anchor_table(_STAND_INS)
_STAND_IN_ROW = {h: x for x, h in enumerate(_STAND_INS)}
_STAND_IN_STEP = np.array([[x, *(_STAND_IN_ROW.get(hx.extend(h, s), -1) for s in range(3))]
                           for x, h in enumerate(_STAND_INS)])

# the least chart distance of a pair that the retraction sample measures
RETRACTION_MIN_SEPARATION = 1e-5


def stand_in_rows(hexes: list[hx.Address]) -> np.ndarray:
    """The stand-in row of each hexagon a, the row of a[-2:].  The geometry
    reads a hexagon only through its last letter, and that of extend(a, s)
    depends on a's last two: a backtrack leaves a[-2].  The tree
    automorphism that maps a to a[-2:] keeps the letters, and so every edge
    count.  A one-letter stand-in would read the root's -1 for a[-2]."""
    return np.array([_STAND_IN_ROW[a[-2:]] for a in hexes], dtype=np.intp)


def retracted_tbin_distances(rows: np.ndarray, letters: np.ndarray,
                             p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """tbin_distance(retract(H0Point(a, p)), retract(H0Point(b, q))) per
    pair, entry for entry, where rows holds a's stand-in row (stand_in_rows)
    and b = extend(a, s) for the pair's letter s (a where s is -1): b's
    stand-in is extend(a[-2:], s)."""
    m = len(rows)
    _, *pq = hx.retract_rows(_STAND_IN_TABLE,
                             np.concatenate([rows, _STAND_IN_STEP[rows, letters + 1]]),
                             np.concatenate([p, q]))
    return hx.tbin_pair_distances(*pq, np.arange(m), m + np.arange(m))


def measure_retraction_lipschitz(
    model: hx.HexModel, pairs: int = 100_000, seed: int = 1
) -> float:
    """Sampled Lipschitz constant of the retraction over same-hexagon and
    adjacent-hexagon pairs.  Distances are taken in the first point's chart,
    where its neighbour across marked side i is the reflection in that side,
    not through the root charts, which lose about 1e-9 at depth 4.

    Pair i draws, in this order: the hexagon a, the point p
    (HexModel.sample_local), for odd i the letter of q's hexagon, and q.
    That order of draws is part of the reproducibility contract: every
    lipschitz report quotes this value bit for bit.  The draws are those of
    make_stream(seed, 0), read off its raw words by a WordStream, the same
    values in the same order, and they stay a scalar loop, which only
    records each pair.  Every RETRACTION_CHUNK pairs, the reflection and
    dist_chart run over the recorded pairs in their row forms, and the tree
    distances in retracted_tbin_distances, all equal to the scalar forms
    entry for entry.

    Pairs closer than RETRACTION_MIN_SEPARATION are skipped.  The ratio's
    rounding error is about 6e-16 / d, a few ulps of the unit-scale
    distances over d: on the inward normal from a marked side, where the
    ratio attains 2*rho, it reads 5.8e-7 above 2*rho at d = 1e-9 and at
    most 4.7e-11 at d = 1e-5.  At the floor it stays below 1e-10, a tenth
    of the lipschitz check's 1e-9 slack.  The closest pair of the 20 000-pair
    samples at hex depth 4, seeds 1 to 40, is 4.6e-4 apart.
    """
    rng = WordStream(make_stream(seed, 0).bit_generator)
    stand = stand_in_rows(model.hexagons).tolist()
    nhex = len(stand)
    worst = 0.0
    for start in range(0, pairs, RETRACTION_CHUNK):
        rows, letters, ps, qs = [], [], [], []
        for i in range(start, min(start + RETRACTION_CHUNK, pairs)):
            rows.append(stand[rng.integers(0, nhex)])
            ps.append(model.sample_local(rng))
            letters.append(-1 if i % 2 == 0 else rng.integers(0, 3))
            qs.append(model.sample_local(rng))
        rows, letters, p, q = map(np.array, (rows, letters, ps, qs))
        d = hx.dist_chart_rows(p, hx.reflect_rows(letters, q)) / hx.S  # q in p's chart
        dt = retracted_tbin_distances(rows, letters, p, q)
        keep = d >= RETRACTION_MIN_SEPARATION
        if keep.any():
            worst = max(worst, float((dt[keep] / d[keep]).max()))
    return worst


def base_constants(n: int) -> dict:
    return {
        "s": hx.S,
        "kappa": hx.KAPPA,
        "rho": hx.RHO,
        "delta": hx.DELTA,
        "C": constant_c(n, hx.DELTA),
        "half_edge_embedded": hx.HALF_EDGE_EMBEDDED,
    }


def _untruncated(rec: dict) -> bool:
    return not rec["truncated"]


def _report(kind, spec, cfg, records, names, counts, checks) -> VerificationReport:
    """The skeleton of every verify_* report: one InequalityStat per name,
    records that fail `counts` counted as TRUNCATED, and every
    (name, margin, witness) that `checks(rec)` yields folded into its stat
    (a name outside `names` raises KeyError)."""
    rep = VerificationReport(kind, spec.digest(), spec.n, cfg, base_constants(spec.n))
    rep.inequalities = {name: InequalityStat() for name in names}
    for rec in records:
        if not counts(rec):
            rep.truncated += 1
            continue
        rep.usable += 1
        for name, margin, witness in checks(rec):
            rep.inequalities[name].update(margin, witness)
    return rep


def verify_qi(
    spec: GraphManifoldSpec, cfg: RunConfig, records: list[dict]
) -> VerificationReport:
    """The sandwich d/C - 1 - eps <= e <= C d + 1 + eps plus the explicit
    upper Lipschitz sub-check, over non-truncated sampled pairs."""
    big_c, eps = constant_c(spec.n, hx.DELTA), cfg.epsilon()
    sub_c = 2.0 * hx.DELTA * (spec.n - 1) + 1.0

    def checks(rec):
        d, e = rec["d"], rec["e"]
        wit = {"index": rec["index"], "d": d, "e": e, "x": rec["x"], "y": rec["y"]}
        yield "upper_sandwich", e - (big_c * d + 1.0 + eps), wit
        yield "lower_sandwich", (d / big_c - 1.0 - eps) - e, wit
        yield "upper_lipschitz_sub", e - (sub_c * d + 1.0 + eps), wit

    names = ("upper_sandwich", "lower_sandwich", "upper_lipschitz_sub")
    return _report("qi", spec, cfg, records, names, _untruncated, checks)


def verify_lipschitz(
    spec: GraphManifoldSpec, cfg: RunConfig, records: list[dict]
) -> VerificationReport:
    """Per-class 2*delta bounds, the phi0 +1 bound, and the retraction
    constant sampled on hx.HexModel(cfg.hex_depth), which must stay below
    2*delta and below its exact value 2*rho: retract is rho*max(0, 1 - 2d)
    of the distance d to the nearest marked side, d has unit gradient, and
    on a geodesic space the global constant is the supremum of the local
    ones.  The classes are range(n - 1): a class label is a coordinate
    below n - 1, and _prepare rejects any other class count."""
    eps = cfg.epsilon()

    def checks(rec):
        d = rec["d"]
        wit = {"index": rec["index"], "d": d, "x": rec["x"], "y": rec["y"]}
        for lab, dtc in rec["tc"].items():
            yield f"class_{lab}_2delta", dtc - (2.0 * hx.DELTA * d + eps), {**wit, "tc": dtc}
        yield "phi0_plus_one", rec["t0"] - (d + 1.0 + 1e-9), {**wit, "t0": rec["t0"]}

    names = (*(f"class_{lab}_2delta" for lab in range(spec.n - 1)),
             "phi0_plus_one", "retraction_2delta", "retraction_2rho")
    rep = _report("lipschitz", spec, cfg, records, names, _untruncated, checks)
    lip = measure_retraction_lipschitz(hx.HexModel(cfg.hex_depth), pairs=20_000, seed=cfg.seed + 1)
    rep.retraction_lipschitz = lip
    rep.retraction_lipschitz_exact = hx.EDGE
    rep.inequalities["retraction_2delta"].update(lip - 2.0 * hx.DELTA, {"measured": lip})
    rep.inequalities["retraction_2rho"].update(lip - (hx.EDGE + 1e-9), {"measured": lip})
    return rep


def verify_curves(
    spec: GraphManifoldSpec, cfg: RunConfig, records: list[dict]
) -> VerificationReport:
    """Witness-curve bound: length within [d - tol, curve_bound(e) + eps]
    and every inductive hop within delta."""
    delta, eps = hx.DELTA, cfg.epsilon()

    def checks(rec):
        d, e, length = rec["d"], rec["e"], rec["curve_length"]
        wit = {"index": rec["index"], "d": d, "e": e, "length": length}
        yield "curve_upper", length - (cv.curve_bound(e) + eps), wit
        yield "curve_dominates_distance", d - (length + 10.0 * cfg.tol), wit
        yield "curve_hops_delta", rec["curve_hop_max"] - (delta + 1e-9), wit

    names = ("curve_upper", "curve_dominates_distance", "curve_hops_delta")
    return _report("curves", spec, cfg, records, names,
                   lambda rec: not rec["truncated"] and rec["curve_length"] is not None, checks)


def covering_report(
    spec: GraphManifoldSpec, cfg: RunConfig, scale: float, binding_pairs: int = 60
) -> dict:
    """Tree coverings on the embedded factors, their product, and the
    pullback check with QI-transferred constants."""
    cplx, ts = _prepare(spec, cfg)
    return _covering(cplx, ts, cfg, scale, binding_pairs)


def _covering(
    cplx: CoverComplex, ts: tr.TreeSystem, cfg: RunConfig, scale: float, binding_pairs: int
) -> dict:
    """The covering report on a prepared complex and its tree system."""
    spec = cplx.spec
    pts = cplx.sample_points(cfg.seed, range(cfg.samples))
    n = len(pts)
    emb = ts.embed(pts)  # every class reads this one embedding of the sample
    t0_d = ts.t0_matrix(emb)
    factors = [cvg.tree_covering(t0_d, t0_d[0], scale)]
    factor_checks = [cvg.check_covering(factors[0], t0_d)]
    sum_d = t0_d  # summed in place: the T0 factor is done with it
    # one T_c matrix alive at a time keeps the report's peak memory down
    for lab in ts.class_labels:
        tc_d = ts.tc_matrix(lab, emb)
        cov = cvg.tree_covering(tc_d, tc_d[0], scale)
        factors.append(cov)
        factor_checks.append(cvg.check_covering(cov, tc_d))
        sum_d += tc_d
        del tc_d
    prod = cvg.product_covering(factors)
    prod_check = cvg.check_covering(prod, sum_d)
    consts = base_constants(spec.n)

    # separation pairs span two pieces and diameter pairs one: no pair repeats
    pull = cvg.pullback_check(
        prod,
        sum_d,
        lambda pairs: [res.distance for res in geo.distances(
            cplx, [(pts[i], pts[j]) for i, j in pairs], tol=cfg.tol)],
        consts["C"],
        binding_pairs=binding_pairs,
    )
    ok = all(c.ok for c in factor_checks) and prod_check.ok and pull.ok

    def chk_doc(c: cvg.CoveringCheck) -> dict:
        return {
            "ok": c.ok,
            "min_same_color_separation": None
            if c.min_same_color_separation == float("inf")
            else c.min_same_color_separation,
            "max_piece_diameter": c.max_piece_diameter,
            "required_separation": c.required_separation,
            "allowed_diameter": c.allowed_diameter,
            "checked_pairs": c.checked_pairs,
        }

    return {
        "verdict": "PASS" if ok else "FAIL",
        "spec_digest": spec.digest(),
        "scale": scale,
        "samples": n,
        "config": cfg.to_dict(),
        "factors": [
            {"colors": f.colors, "pieces": len(f.piece_color), "check": chk_doc(c)}
            for f, c in zip(factors, factor_checks)
        ],
        "product": {"colors": prod.colors, "pieces": len(prod.piece_color), "check": chk_doc(prod_check)},
        "pullback": chk_doc(pull),
    }


def dump_pairs_csv(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,truncated,d,e\n")
        for rec in records:
            if rec["truncated"]:
                fh.write(f"{rec['index']},1,,\n")
            else:
                fh.write(f"{rec['index']},0,{rec['d']!r},{rec['e']!r}\n")


def collect_records(spec: GraphManifoldSpec, cfg: RunConfig) -> list[dict]:
    """Shared sample evaluation for the verify_* reports."""
    cplx, ts = _prepare(spec, cfg)
    return _collect_records(cplx, ts, cfg)


def report(spec: GraphManifoldSpec, cfg: RunConfig, binding_pairs: int) -> dict:
    """The full certificate: the lipschitz, qi and curves reports on one set
    of records and the covering report at scale 8, all on one explored
    complex.  A spec that fails validate or the irreducibility check gets a
    FAIL document and nothing is explored."""
    violations = validate(spec)
    if violations:
        return {"verdict": "FAIL", "violations": violations}
    irr = check_irreducible(spec, cfg.t0_depth)
    doc: dict = {
        "spec_digest": spec.digest(),
        "n": spec.n,
        "config": cfg.to_dict(),
        "constants": base_constants(spec.n),
        "irreducible": irr.irreducible,
        "irreducibility_reason": irr.reason,
    }
    if not irr.irreducible:
        doc["verdict"] = "FAIL"
        return doc
    cplx, ts = _build(spec, cfg)
    records = _collect_records(cplx, ts, cfg)
    for kind, verify in (("lipschitz", verify_lipschitz), ("qi", verify_qi),
                         ("curves", verify_curves)):
        doc[kind] = verify(spec, cfg, records).to_dict()
    doc["covering"] = _covering(cplx, ts, cfg, 8.0, binding_pairs)
    passed = all(doc[k]["verdict"] == "PASS" for k in ("lipschitz", "qi", "curves", "covering"))
    doc["verdict"] = "PASS" if passed else "FAIL"
    return doc
