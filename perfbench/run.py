"""ogm benchmark: certify and covering workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; it imports ogm from ``src/`` and reads
``specs/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of untraced passes
over the workload's units, repeated for ``--seconds``; with ``--trace 1``
they are the per-layer metrics of one untraced and one traced pass.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibration import calibration_s, speed_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
DEEP_SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
REPLAY_TIMEOUT_S = 120

clock = time.perf_counter


def peak_rss_mb() -> float:
    """Peak RSS of this process; Linux reports ru_maxrss in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probes(setup: str, repeats: int = SETUP_REPEATS) -> list[dict]:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--setup", setup]
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def pct(values: list, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def result(tally, metrics: dict, units: dict) -> dict:
    attempted = len(tally.attempted)
    failed = len(tally.failed)
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def run_pass(wl, tally, first=None) -> list:
    """Execute every unit of the workload once, each checked against its
    execution in `first` (the first pass), if given."""
    done = []
    for i, unit in enumerate(wl.units):
        u = unit.fresh()
        before = calibration_s()
        wl.execute(u)
        u.scale = speed_scale(before, calibration_s())
        wl.check(u, tally, first[i] if first else None)
        done.append(u)
    return done


def replay_check(wl, first: list, tally) -> None:
    """Print the digest of every unit of the first pass, then replay one
    unit, chosen by the seed, in a fresh process under another hash seed
    (replay.py).  Its digest must equal this process's."""
    for u in first:
        if not u.error:
            print(f"digest: {wl.name} {u.spec_name} seed {u.cfg.seed} "
                  f"{wl.result_digest(u)}", file=sys.stderr)
    i = wl.seed % len(first)
    u = first[i]
    if u.error:  # already failed; there is no digest to compare
        return
    ops = wl.operations(u)
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    cmd = [sys.executable, str(HERE / "replay.py"), "--workload", wl.name,
           "--seed", str(wl.seed), "--unit", str(i)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                              capture_output=True, text=True, timeout=REPLAY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.fail(ops, f"replay of {u.spec_name}: no result in {REPLAY_TIMEOUT_S} s")
        return
    if proc.returncode:
        tally.fail(ops, f"replay of {u.spec_name}: exit {proc.returncode}\n{proc.stderr}")
        return
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if doc["error"]:
        tally.fail(ops, f"replay of {u.spec_name}: raised\n{doc['error']}")
    elif doc["digest"] != wl.result_digest(u):
        tally.fail(ops, f"{u.spec_name} seed {u.cfg.seed}: digest {doc['digest']} "
                        f"under PYTHONHASHSEED={hash_seed}")


def pass_seconds(units: list, scaled: bool = False) -> float:
    """Time of one pass: all timed calls of all its units, in measured or
    (scaled) in reference seconds."""
    return sum(sum(u.call_s) * (u.scale if scaled else 1.0) for u in units)


def untraced_run(wl, W, seconds: int) -> dict:
    """Passes while the next one is expected to end less than half a pass
    after `seconds`; at least two, so that every unit is checked against a
    replay of itself."""
    tally = W.Tally()
    passes = []
    start = clock()
    while len(passes) < 2 or (clock() - start) * (1 + 0.5 / len(passes)) <= seconds:
        passes.append(run_pass(wl, tally, passes[0] if passes else None))
    peak = peak_rss_mb()
    for p in passes:
        print(f"pass: {pass_seconds(p):.3f} s measured, "
              f"{pass_seconds(p, scaled=True):.3f} s reference", file=sys.stderr)
    replay_check(wl, passes[0], tally)
    setups = setup_probes(wl.name)
    collect_s = sum(u.call_s[0] * u.scale for p in passes for u in p)
    metrics = {
        "setup_s": median_of(setups, "setup_ref_s"),
        "wall_s": statistics.mean(pass_seconds(p, scaled=True) for p in passes),
        "pairs_per_s": len(passes) * sum(u.pairs for u in wl.units) / collect_s,
        "peak_rss_mb": peak,
        "ok_frac": 1.0 - frac(len(tally.failed), len(tally.attempted)),
        "untruncated_frac": 1.0 - frac(tally.truncated, tally.pairs),
    }
    return result(tally, metrics, metric_units("end_to_end"))


def traced_run(wl, W, seed: int) -> dict:
    """One pass untraced, then the same units traced.  Both are serial, so
    every span lands in this process."""
    from micro import micro_timings
    from tracing import Tracer

    tally = W.Tally()
    untraced = run_pass(wl, tally)
    tracer = Tracer()
    with tracer.install():
        traced = run_pass(wl, tally, untraced)
    replay_check(wl, untraced, tally)

    metrics = layer_metrics(tracer, tally)
    metrics["trace.overhead"] = (
        pass_seconds(traced, scaled=True) / pass_seconds(untraced, scaled=True)
    )
    metrics["failed_frac"] = frac(len(tally.failed), len(tally.attempted))
    setups = setup_probes(wl.name)
    metrics["hexagon.model_build_ms"] = median_of(setups, "model_build_ms")
    metrics["hexagon.model_build_ms_d6"] = median_of(
        setup_probes("deep", DEEP_SETUP_REPEATS), "model_build_ms"
    )
    metrics["manifold.check_irreducible_ms"] = median_of(setups, "check_irreducible_ms")
    metrics["cover.explore_ms"] = median_of(setups, "explore_ms")
    metrics["trees.build_ms"] = median_of(setups, "tree_build_ms")
    metrics.update(micro_timings(W.deep_complex(ROOT), seed))
    metrics["ogm.src_lines"] = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (ROOT / "src" / "ogm").glob("*.py")
    )
    return result(tally, metrics, metric_units("per_layer"))


def layer_metrics(tracer, tally) -> dict:
    solves = tracer.named("geodesics.distance")
    tc = [s.duration * 1e6 for s in tracer.named("trees.tc_distance")]
    builds = tracer.named("curves.build")
    pullbacks = tracer.named("coverings.pullback_check")
    total = tracer.root_time()
    by_layer = tracer.self_time_by_layer()

    def total_s(name: str) -> float:
        return sum(s.duration for s in tracer.named(name))

    out = {
        "hexagon.boundary_point_calls": tracer.count("hexagon.boundary_point"),
        "hexagon.h0_distance_calls": tracer.count("hexagon.h0_distance"),
        "geodesics.solve_ms_p50": pct([s.duration * 1e3 for s in solves], 50),
        "geodesics.solve_ms_p90": pct([s.duration * 1e3 for s in solves], 90),
        "geodesics.sweeps_per_solve": frac(sum(s.note for s in solves if s.note), len(solves)),
        "geodesics.evals_per_solve": frac(
            tracer.count("hexagon.boundary_point", within="geodesics.distance"), len(solves)
        ),
        "trees.tc_distance_us_p50": pct(tc, 50),
        "trees.tc_distance_us_p90": pct(tc, 90),
        "trees.tc_distance_calls": len(tc),
        "curves.build_ms_p50": pct([s.duration * 1e3 for s in builds], 50),
        "curves.build_ms_p90": pct([s.duration * 1e3 for s in builds], 90),
        "curves.truncated_frac": frac(
            sum(s.error == "CurveTruncationError" for s in builds), len(builds)
        ),
        "verify.collect_s": total_s("verify.collect_records"),
        "verify.reports_s": sum(
            total_s(f"verify.verify_{k}") for k in ("lipschitz", "qi", "curves")
        ),
        "verify.retraction_s": total_s("verify.retraction"),
        "verify.usable_frac": frac(tally.pairs - tally.truncated, tally.pairs),
        "truncated_frac": frac(tally.truncated, tally.pairs),
        "coverings.tree_covering_ms": total_s("coverings.tree_covering") * 1e3,
        "coverings.product_covering_ms": total_s("coverings.product_covering") * 1e3,
        "coverings.check_covering_ms": total_s("coverings.check_covering") * 1e3,
        "coverings.pullback_s": sum(s.duration for s in pullbacks),
        "coverings.pullback_solves": sum(
            tracer.within(s, "coverings.pullback_check") for s in solves
        ),
        "cli.covering_report_self_s": by_layer["cli"],
    }
    for layer in ("geodesics", "trees", "curves", "verify", "coverings", "cli"):
        out[f"{layer}.self_share"] = frac(by_layer[layer], total)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("certify", "covering"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    required = (ROOT / "src" / "ogm" / "__init__.py", ROOT / "specs", ROOT / "BENCHMARK.json")
    missing = [str(p.relative_to(ROOT)) for p in required if not p.exists()]
    if missing:
        print(f"error: {ROOT} is not an ogm checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W

    wl = W.WORKLOADS[args.workload](ROOT, args.seed)
    if args.trace:
        doc = traced_run(wl, W, args.seed)
    else:
        doc = untraced_run(wl, W, args.seconds)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
