"""Command-line entry point.

All structured output is JSON on stdout (or files named by flags); logs go
to stderr.  Exit codes: 0 success/PASS, 1 validation or verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Optional

from . import curves as cv
from . import geodesics as geo
from . import hexagon as hx
from . import trees as tr
from . import verify as vf
from .cover import CoverComplex, CoverError, explore
from .manifold import GraphManifoldSpec, validate
from .verify import covering_report

# the pullback's binding pairs per side, for `covering` and `report`
BINDING_PAIRS = 60


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write_or_print(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, sort_keys=True, indent=1)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _complex_from_args(args) -> CoverComplex:
    spec = GraphManifoldSpec.from_json_file(args.spec)
    return explore(spec, args.t0_depth, args.hex_depth, wall_comp_depth=args.wall_comp_depth)


def _tc_point_doc(p: tr.TcPoint) -> dict:
    if p.tree is not None:
        return {
            "kind": "tree",
            "owner": list(p.owner),
            "parent": list(p.tree.parent),
            "child": list(p.tree.child) if p.tree.child else None,
            "offset": p.tree.offset,
        }
    return {"kind": "line", "owner": list(p.owner), "value": p.value}


def cmd_validate(args) -> int:
    spec = GraphManifoldSpec.from_json_file(args.spec)
    violations = validate(spec)
    for v in violations:
        print(json.dumps({"violation": v}))
    return 1 if violations else 0


def cmd_constants(args) -> int:
    doc = {
        "s": float(f"{hx.S:.15g}"),
        "kappa": float(f"{hx.KAPPA:.15g}"),
        "rho": float(f"{hx.RHO:.15g}"),
        "delta": float(f"{hx.DELTA:.15g}"),
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_explore(args) -> int:
    cplx = _complex_from_args(args)
    _write_or_print(cplx.summary(), args.out)
    _log(f"explored {cplx.block_count} blocks, {cplx.block_count - 1} walls")
    return 0


def cmd_geodesic(args) -> int:
    cplx = _complex_from_args(args)
    x = cplx.parse_point(getattr(args, "from"))
    y = cplx.parse_point(args.to)
    res = geo.distance(cplx, x, y, tol=args.tol)
    doc = {
        "distance": res.distance,
        "truncated": res.truncated,
        "sweeps": res.sweeps,
        "residual": res.residual,
        "chain": [
            {"parent": list(w.parent), "parent_comp": w.parent_comp, "coords": c}
            for w, c in zip(res.walls, res.coords)
        ],
    }
    _write_or_print(doc, args.out)
    return 0


def cmd_phi(args) -> int:
    cplx = _complex_from_args(args)
    ts = tr.TreeSystem(cplx)
    p = cplx.parse_point(args.point)
    prod = ts.phi(p)
    doc = {
        "t0": list(prod.t0),
        "classes": {str(lab): _tc_point_doc(pt) for lab, pt in prod.coords},
    }
    _write_or_print(doc, args.out)
    return 0


def cmd_tree_dist(args) -> int:
    cplx = _complex_from_args(args)
    ts = tr.TreeSystem(cplx)
    a = cplx.parse_point(args.a)
    b = cplx.parse_point(args.b)
    labels = [args.class_label] if args.class_label is not None else list(ts.class_labels)
    doc = {
        str(lab): ts.tc_distance(lab, ts.phi_c(lab, a), ts.phi_c(lab, b))
        for lab in labels
    }
    _write_or_print(doc, args.out)
    return 0


def cmd_curve(args) -> int:
    cplx = _complex_from_args(args)
    ts = tr.TreeSystem(cplx)
    x = cplx.parse_point(getattr(args, "from"))
    y = cplx.parse_point(args.to)
    try:
        path = cv.build_special_curve(cplx, ts, x, y)
    except cv.CurveTruncationError as exc:
        _write_or_print({"error": "truncated", "detail": str(exc)}, args.out)
        return 1
    e = ts.product_distance(ts.phi(x), ts.phi(y))
    doc = {
        "length": cv.curve_length(path)[0],
        "bound": cv.curve_bound(e),
        "embedded_distance": e,
        "segments": [
            {"kind": "tree_path" if s.role == "lift" else "geodesic", "role": s.role,
             "block": list(s.points[0].block), "points": len(s.points)}
            for s in path
        ],
    }
    _write_or_print(doc, args.out)
    return 0


def _run_config(args) -> vf.RunConfig:
    return vf.RunConfig(**{f.name: getattr(args, f.name) for f in fields(vf.RunConfig)})


def cmd_verify_qi(args) -> int:
    spec = GraphManifoldSpec.from_json_file(args.spec)
    cfg = _run_config(args)
    records = vf.collect_records(spec, cfg)
    rep = vf.verify_qi(spec, cfg, records)
    if args.csv:
        vf.dump_pairs_csv(records, args.csv)
    _write_or_print(rep.to_dict(), args.out)
    _log(f"verify-qi: {rep.verdict} ({rep.usable} usable, {rep.truncated} truncated)")
    return 0 if rep.verdict == "PASS" else 1


def cmd_verify_lipschitz(args) -> int:
    spec = GraphManifoldSpec.from_json_file(args.spec)
    cfg = _run_config(args)
    records = vf.collect_records(spec, cfg)
    rep = vf.verify_lipschitz(spec, cfg, records)
    _write_or_print(rep.to_dict(), args.out)
    _log(f"verify-lipschitz: {rep.verdict}")
    return 0 if rep.verdict == "PASS" else 1


def cmd_covering(args) -> int:
    spec = GraphManifoldSpec.from_json_file(args.spec)
    cfg = _run_config(args)
    doc = covering_report(spec, cfg, args.scale, args.binding_pairs)
    _write_or_print(doc, args.out)
    _log(f"covering: {doc['verdict']}")
    return 0 if doc["verdict"] == "PASS" else 1


def cmd_report(args) -> int:
    spec = GraphManifoldSpec.from_json_file(args.spec)
    doc = vf.report(spec, _run_config(args), args.binding_pairs)
    _write_or_print(doc, args.out)
    if "covering" in doc:  # a rejected spec's FAIL document is not logged
        _log(f"report: {doc['verdict']}")
    return 0 if doc["verdict"] == "PASS" else 1


def _add_complex_args(p: argparse.ArgumentParser) -> None:
    """The flags that name a ball of the cover, one set for every command."""
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.add_argument("--t0-depth", type=int, default=2, dest="t0_depth")
    p.add_argument("--hex-depth", type=int, default=4, dest="hex_depth")
    p.add_argument("--wall-comp-depth", type=int, default=None, dest="wall_comp_depth")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field, typed and defaulted by the field's
    default (each is an int or a float, never None)."""
    p.add_argument("--spec", required=True)
    for f in fields(vf.RunConfig):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, type=type(f.default), default=f.default, dest=f.name)
    p.add_argument("--out", help="write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ogm")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a gluing-graph spec file")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("constants", help="hexagon constants as JSON")
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("explore", help="a ball's parameters, block count and components")
    _add_complex_args(p)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("geodesic", help="distance between two point addresses")
    _add_complex_args(p)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=cmd_geodesic)

    p = sub.add_parser("phi", help="embedded product coordinates of a point")
    _add_complex_args(p)
    p.add_argument("--point", required=True)
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("tree-dist", help="T_c distance between two points")
    _add_complex_args(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--class-label", type=int, default=None, dest="class_label")
    p.set_defaults(fn=cmd_tree_dist)

    p = sub.add_parser("curve", help="special witness curve between points")
    _add_complex_args(p)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("verify-qi", help="certify the quasi-isometry sandwich")
    _add_run_args(p)
    p.add_argument("--csv", help="dump (d, e) sample pairs")
    p.set_defaults(fn=cmd_verify_qi)

    p = sub.add_parser("verify-lipschitz", help="certify the Lipschitz bounds")
    _add_run_args(p)
    p.set_defaults(fn=cmd_verify_lipschitz)

    p = sub.add_parser("covering", help="colored covering checks at a scale")
    _add_run_args(p)
    p.add_argument("--scale", type=float, default=8.0)
    p.add_argument("--binding-pairs", type=int, default=BINDING_PAIRS, dest="binding_pairs")
    p.set_defaults(fn=cmd_covering)

    p = sub.add_parser("report", help="full verification pipeline")
    _add_run_args(p)
    p.add_argument("--binding-pairs", type=int, default=BINDING_PAIRS, dest="binding_pairs")
    p.set_defaults(fn=cmd_report)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (
        CoverError, geo.ConvergenceError, hx.TruncationError, OSError, ValueError
    ) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
