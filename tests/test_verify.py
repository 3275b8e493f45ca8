import ast
import importlib
import json
import math
import os
import sys
from pathlib import Path

import pytest

from conftest import shipped, shipped_doc
from ogm import hexagon as hx
from ogm import verify as vf
from ogm.cover import CoverError
from ogm.manifold import GraphManifoldSpec


def small_cfg(samples=40, seed=7, workers=1):
    return vf.RunConfig(
        t0_depth=2,
        hex_depth=3,
        samples=samples,
        seed=seed,
        tol=1e-6,
        fiber_range=2.0,
        wall_comp_depth=0,
        workers=workers,
    )


def test_constant_c():
    assert vf.constant_c(3, hx.DELTA) == 4 * hx.DELTA + 1
    # hypothetical degenerate branches
    assert vf.constant_c(2, hx.DELTA) == 2 * hx.DELTA + 1
    assert vf.constant_c(3, 0.0) == 1.0


def test_run_config_validation():
    with pytest.raises(ValueError):
        vf.RunConfig(t0_depth=0)
    with pytest.raises(ValueError):
        vf.RunConfig(samples=0)
    with pytest.raises(ValueError):
        vf.RunConfig(tol=0.0)
    # a NaN or infinite tol made every margin NaN or -inf, and reports PASSed
    for field, value in [
        ("tol", math.nan),
        ("tol", math.inf),
        ("fiber_range", -1.0),
        ("fiber_range", math.nan),
        ("fiber_range", math.inf),
        ("workers", -1),
        ("seed", -1),
    ]:
        with pytest.raises(ValueError, match=field):
            vf.RunConfig(**{field: value})
    cfg = vf.RunConfig(fiber_range=0.0, workers=0)
    assert cfg.fiber_range == 0.0 and cfg.workers == 0


def test_inequality_stat_counts_nan_margin_as_violation():
    stat = vf.InequalityStat()
    stat.update(-1.0, {"index": 0})
    stat.update(math.nan, {"index": 1})
    stat.update(-0.5, {"index": 2})
    stat.update(math.nan, {"index": 3})
    assert stat.checked == 4
    assert stat.violations == 2
    assert math.isnan(stat.worst_margin)
    assert stat.witness == {"index": 1}


def test_qi_report_passes_flip():
    spec = shipped("flip_n3")
    cfg = small_cfg()
    records = vf.collect_records(spec, cfg)
    rep = vf.verify_qi(spec, cfg, records)
    assert rep.verdict == "PASS"
    assert rep.usable > 0
    assert rep.usable + rep.truncated == cfg.samples
    for stat in rep.inequalities.values():
        assert stat.violations == 0
        assert stat.checked == rep.usable


def test_identical_pairs_trivial():
    spec = shipped("flip_n3")
    cfg = small_cfg(samples=5)
    cplx, ts = vf._prepare(spec, cfg)
    from ogm.cover import make_stream

    x = cplx.sample_point(make_stream(3, 0))
    from ogm import geodesics as geo

    d = geo.distance(cplx, x, x).distance
    e = ts.product_distance(ts.phi(x), ts.phi(x))
    assert d == 0.0 and e == 0.0


def test_lipschitz_report():
    spec = shipped("flip_n3")
    cfg = small_cfg()
    records = vf.collect_records(spec, cfg)
    rep = vf.verify_lipschitz(spec, cfg, records)
    assert rep.verdict == "PASS"
    assert rep.retraction_lipschitz is not None
    assert rep.retraction_lipschitz <= 2 * hx.DELTA
    # the exact constant 2*rho bounds the sample, which comes close to it
    assert rep.retraction_lipschitz_exact == hx.EDGE == 2 * hx.RHO
    assert rep.retraction_lipschitz <= hx.EDGE + 1e-9
    assert rep.retraction_lipschitz >= hx.EDGE - 1e-4
    assert rep.inequalities["retraction_2rho"].violations == 0
    assert rep.inequalities["retraction_2delta"].violations == 0
    assert "phi0_plus_one" in rep.inequalities
    assert rep.notes == []  # no embedded half-edge warning


def test_curves_report():
    spec = shipped("flip_n3")
    cfg = small_cfg()
    records = vf.collect_records(spec, cfg)
    rep = vf.verify_curves(spec, cfg, records)
    assert rep.verdict == "PASS"


def qi_json(spec, cfg) -> str:
    records = vf.collect_records(spec, cfg)
    return json.dumps(vf.verify_qi(spec, cfg, records).to_dict(), sort_keys=True)


def test_report_replay_bit_for_bit():
    spec = shipped("flip_n3")
    cfg = small_cfg(samples=20)
    assert qi_json(spec, cfg) == qi_json(spec, cfg)


def test_worker_count_independent():
    spec = shipped("flip_n3")
    one = qi_json(spec, small_cfg(samples=24, workers=1))
    two = qi_json(spec, small_cfg(samples=24, workers=2))
    three = qi_json(spec, small_cfg(samples=24, workers=3))
    assert one == two == three


class RecordingContext:
    """Stands in for the fork context: records each pool size asked for and
    the tasks of each map, and maps serially, so no process starts."""

    def __init__(self):
        self.sizes = []
        self.chunksizes = []
        self.tasks = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunksizes.append(chunksize)
        self.tasks.append(list(items))
        return [fn(i) for i in items]


@pytest.mark.parametrize(
    "workers, cpus, sizes",
    [
        (64, 8, [4]),  # forked 64 processes for 4 pairs
        (3, 8, [3]),
        (1, 8, []),
        (0, 64, [4]),
        (0, 3, [3]),  # the CPUs this process may run on, not os.cpu_count()
        (0, 1, []),
        (0, None, [4]),  # no sched_getaffinity: os.cpu_count()
    ],
)
def test_pool_size_capped_by_samples(monkeypatch, workers, cpus, sizes):
    import multiprocessing

    ctx = RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    spec = shipped("flip_n3")
    records = vf.collect_records(spec, small_cfg(samples=4, workers=workers))
    assert ctx.sizes == sizes
    assert records == vf.collect_records(spec, small_cfg(samples=4, workers=1))


@pytest.mark.parametrize(
    "samples, workers, chunksize",
    [
        (20, 4, 5),  # chunks of 16 fed 2 of the 4 workers
        (40, 2, 16),
        (33, 3, 11),
        (5, 8, 1),  # the pool is capped at 5
    ],
)
def test_every_worker_gets_a_chunk(monkeypatch, samples, workers, chunksize):
    # each pool task is one chunk of consecutive indices, solved as one batch
    import multiprocessing

    ctx = RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    spec = shipped("flip_n3")
    vf.collect_records(spec, small_cfg(samples=samples, workers=workers))
    assert ctx.chunksizes == [1]
    (tasks,) = ctx.tasks
    assert tasks == [range(i, min(i + chunksize, samples)) for i in range(0, samples, chunksize)]
    (pool,) = ctx.sizes
    assert math.ceil(samples / chunksize) >= pool == min(samples, workers)


def test_reducible_rejected():
    spec = shipped("reducible_n4")
    with pytest.raises(CoverError) as err:
        vf.collect_records(spec, small_cfg())
    assert "irreducible" in str(err.value)


def test_invalid_spec_rejected():
    doc = shipped_doc("flip_n3")
    doc["edges"][0]["perm"] = [0, 1]
    doc["edges"][1]["perm"] = [0, 1]
    with pytest.raises(CoverError):
        vf.collect_records(GraphManifoldSpec.from_dict(doc), small_cfg())


def test_truncated_never_counts():
    spec = shipped("flip_n3")
    cfg = vf.RunConfig(
        t0_depth=2,
        hex_depth=3,
        samples=30,
        seed=11,
        fiber_range=8.0,  # large fibers force truncations
        wall_comp_depth=0,
        workers=1,
    )
    records = vf.collect_records(spec, cfg)
    rep = vf.verify_qi(spec, cfg, records)
    assert rep.truncated > 0
    for stat in rep.inequalities.values():
        assert stat.checked == rep.usable


def test_csv_dump(tmp_path):
    spec = shipped("flip_n3")
    cfg = small_cfg(samples=10)
    records = vf.collect_records(spec, cfg)
    out = tmp_path / "pairs.csv"
    vf.dump_pairs_csv(records, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,truncated,d,e"
    assert len(lines) == 11


def test_report_json_schema():
    spec = shipped("cycle_n4")
    cfg = small_cfg(samples=15)
    rep = vf.verify_qi(spec, cfg, vf.collect_records(spec, cfg))
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["kind"] == "qi"
    assert doc["n"] == 4
    assert doc["config"]["seed"] == 7
    assert set(doc["inequalities"]) == {
        "upper_sandwich",
        "lower_sandwich",
        "upper_lipschitz_sub",
    }
    assert doc["spec_digest"] == spec.digest()


def test_all_truncated_reports_keep_every_inequality():
    spec = shipped("cycle_n4")
    cfg = small_cfg(samples=3)
    records = [{"index": i, "truncated": True} for i in range(3)]
    per_record = {
        "qi": {"upper_sandwich", "lower_sandwich", "upper_lipschitz_sub"},
        "lipschitz": {"class_0_2delta", "class_1_2delta", "class_2_2delta", "phi0_plus_one"},
        "curves": {"curve_upper", "curve_dominates_distance", "curve_hops_delta"},
    }
    for verify in (vf.verify_qi, vf.verify_lipschitz, vf.verify_curves):
        rep = verify(spec, cfg, records)
        assert (rep.usable, rep.truncated, rep.verdict) == (0, 3, "FAIL")
        # the retraction constant is sampled once, whatever the records
        sampled = {"retraction_2delta", "retraction_2rho"} if rep.kind == "lipschitz" else set()
        assert set(rep.inequalities) == per_record[rep.kind] | sampled
        for name, stat in rep.inequalities.items():
            assert stat.checked == (name in sampled)
        assert set(rep.to_dict()["inequalities"]) == set(rep.inequalities)


def test_report_skeleton_rejects_unknown_inequality():
    spec = shipped("flip_n3")
    records = [{"index": 0, "truncated": False}]
    with pytest.raises(KeyError):
        vf._report("qi", spec, small_cfg(samples=1), records, ("known",),
                   lambda rec: True, lambda rec: [("unknown", 0.0, {})])


def test_traced_entry_points_resolve(monkeypatch):
    # the benchmark's tracer wraps owner.__dict__[attr]; a renamed entry
    # point would only break the traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.modules.pop("tracing", None)
    entries = [(owner, attr) for owner, attr, *_ in tracing.SPANNED + tracing.COUNTED]
    assert entries
    missing = [f"{owner.__name__}.{attr}" for owner, attr in entries if attr not in owner.__dict__]
    assert missing == []


def _resolve(expr, aliases):
    """The object a parsed name or attribute chain denotes."""
    if isinstance(expr, ast.Name):
        return aliases[expr.id]
    return getattr(_resolve(expr.value, aliases), expr.attr)


def test_benchmark_reads_resolve():
    # perfbench/micro.py, workloads.py and tracing.py read ogm modules
    # through aliases (geo., vf., cli., hx., trees.) and import names from
    # ogm submodules, and the tracer wraps owner.__dict__[attr] for every
    # (owner, attr) of its SPANNED and COUNTED tables; a deleted or renamed
    # library name would only break the benchmark run.  The files are
    # parsed, not imported: importing them pulls in the benchmark's configs
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    reads, missing, wrapped = {}, [], set()
    for name in ("micro.py", "workloads.py", "tracing.py"):
        tree = ast.parse((bench / name).read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "ogm":
                for a in node.names:
                    aliases[a.asname or a.name] = importlib.import_module(f"ogm.{a.name}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ogm."):
                module = importlib.import_module(node.module)
                missing += [f"{node.module}.{a.name}" for a in node.names
                            if not hasattr(module, a.name)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                reads.setdefault(node.value.id, set()).add(node.attr)
                if not hasattr(aliases[node.value.id], node.attr):
                    missing.append(f"{name}: {node.value.id}.{node.attr}")
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and getattr(node.targets[0], "id", None) in ("SPANNED", "COUNTED")):
                for entry in node.value.elts:
                    owner, attr = _resolve(entry.elts[0], aliases), entry.elts[1].value
                    wrapped.add(f"{ast.unparse(entry.elts[0])}.{attr}")
                    if attr not in owner.__dict__:
                        missing.append(f"{name}: {ast.unparse(entry.elts[0])}.{attr}")
    assert set(reads) == {"geo", "vf", "cli", "hx", "trees"}
    assert {"retract", "tbin_distance", "h0_distance"} <= reads["hx"]
    assert {"distance", "brute_force_distance"} <= reads["geo"]
    assert "collect_records" in reads["vf"] and "covering_report" in reads["cli"]
    assert {"verify.collect_records", "trees.TreeSystem.tc_distance",
            "cli.covering_report", "hexagon.boundary_point"} <= wrapped
    assert sorted(missing) == []
