import json
import math

import pytest

from conftest import SPECS, shipped, shipped_doc
from ogm import cli, cover
from ogm import curves as cv
from ogm import geodesics as geo
from ogm import hexagon as hx
from ogm import trees as tr
from ogm import verify as vf
from ogm.cli import main


def _reject_constant(name):
    pytest.fail(f"CLI output holds {name}, which is not JSON")


def strict_json(text):
    """json.loads that fails the test on NaN, Infinity or -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "flip.json"
    path.write_text(json.dumps(shipped_doc("flip_n3")))
    return str(path)


@pytest.fixture(scope="module")
def bad_spec_file(tmp_path_factory):
    doc = shipped_doc("flip_n3")
    doc["edges"][0]["perm"] = [0, 1]
    doc["edges"][1]["perm"] = [0, 1]
    path = tmp_path_factory.mktemp("specs") / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_args(*extra):
    return [
        "--t0-depth",
        "2",
        "--hex-depth",
        "3",
        "--samples",
        "20",
        "--seed",
        "7",
        "--fiber-range",
        "2.0",
        "--wall-comp-depth",
        "0",
        "--workers",
        "1",
        *extra,
    ]


def test_constants_json(capsys):
    assert main(["constants"]) == 0
    doc = strict_json(capsys.readouterr().out)
    assert abs(math.cosh(doc["s"]) - 2.0) < 1e-12
    assert set(doc) == {"s", "kappa", "rho", "delta"}
    # 15 significant digits
    assert f"{doc['rho']:.15g}" == str(doc["rho"])


def test_validate_ok(spec_file, capsys):
    assert main(["validate", spec_file]) == 0
    assert capsys.readouterr().out == ""


def test_validate_bad(bad_spec_file, capsys):
    assert main(["validate", bad_spec_file]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert any("fixed base coordinate" in strict_json(ln)["violation"] for ln in lines)


@pytest.mark.parametrize(
    "n, shown", [(3.7, "3.7"), ("3", "'3'"), (True, "True")], ids=["float", "str", "bool"]
)
def test_validate_non_integer_n_exits_1(tmp_path, capsys, n, shown):
    # n = 3.7 loaded as n = 3 and validated
    doc = shipped_doc("flip_n3")
    doc["n"] = n
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: field n is not a JSON integer: {shown}\n"


def test_validate_non_string_vertex_exits_1(tmp_path, capsys):
    # "vertices": "ab" loaded as the two vertices a and b and validated
    doc = shipped_doc("two_vertex_n5")
    doc["vertices"] = "".join(doc["vertices"])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: field vertices is not a JSON array: {doc['vertices']!r}\n"


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_explore_and_geodesic_roundtrip(spec_file, tmp_path, capsys):
    # explore and geodesic name the same ball by the same flags
    flags = ["--spec", spec_file, "--t0-depth", "1", "--hex-depth", "2", "--wall-comp-depth", "0"]
    out = tmp_path / "complex.json"
    assert main(["explore", *flags, "--out", str(out)]) == 0
    doc = strict_json(out.read_text())
    assert doc["block_count"] == 4  # root + 3 shallow components
    assert "fiber_range" not in doc
    assert capsys.readouterr().err == "explored 4 blocks, 3 walls\n"

    cx = cover.explore(shipped("flip_n3"), 1, 2, wall_comp_depth=0)
    assert doc == cx.summary()
    a = cx.format_point(cx.sample_point(cover.make_stream(1, 0)))
    b = cx.format_point(cx.sample_point(cover.make_stream(1, 1)))
    assert main(["geodesic", *flags, "--from", a, "--to", b]) == 0
    res = strict_json(capsys.readouterr().out)
    assert res["distance"] > 0
    assert "truncated" in res
    assert res["sweeps"] >= 1
    assert 0.0 <= res["residual"] < 1e-3


def test_explore_defaults_to_the_default_ball(spec_file, capsys):
    # with no depth flags explore describes the ball every command builds
    assert main(["explore", "--spec", spec_file]) == 0
    default_ball = cover.explore(shipped("flip_n3"), 2, 4)
    assert strict_json(capsys.readouterr().out) == default_ball.summary()


def test_complex_commands_share_one_flag_set():
    # no command names a complex another way (a dump, a fiber range)
    shared = {"-h", "--help", "--spec", "--out", "--t0-depth", "--hex-depth", "--wall-comp-depth"}
    own = {
        "explore": set(),
        "geodesic": {"--from", "--to", "--tol"},
        "phi": {"--point"},
        "tree-dist": {"--a", "--b", "--class-label"},
        "curve": {"--from", "--to"},
    }
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    for name, extra in own.items():
        options = {o for action in commands[name]._actions for o in action.option_strings}
        assert options == shared | extra, name


def test_convergence_error_exits_1(spec_file, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise geo.ConvergenceError("no convergence after 200 sweeps")

    monkeypatch.setattr(geo, "distance", no_convergence)
    cx = cover.explore(shipped("flip_n3"), 1, 2, wall_comp_depth=0)
    a = cx.format_point(cx.sample_point(cover.make_stream(1, 0)))
    b = cx.format_point(cx.sample_point(cover.make_stream(1, 1)))
    argv = ["geodesic", "--spec", spec_file, "--t0-depth", "1", "--hex-depth", "2",
            "--wall-comp-depth", "0", "--from", a, "--to", b]
    assert main(argv) == 1
    assert "error: no convergence after 200 sweeps" in capsys.readouterr().err


def test_phi_and_tree_dist(spec_file, tmp_path, capsys):
    cx = cover.explore(shipped("flip_n3"), 1, 2, wall_comp_depth=0)
    p = cx.format_point(cx.sample_point(cover.make_stream(2, 0)))
    q = cx.format_point(cx.sample_point(cover.make_stream(2, 1)))
    common = [
        "--spec",
        spec_file,
        "--t0-depth",
        "1",
        "--hex-depth",
        "2",
        "--wall-comp-depth",
        "0",
    ]
    assert main(["phi", *common, "--point", p]) == 0
    doc = strict_json(capsys.readouterr().out)
    assert set(doc["classes"]) == {"0", "1"}
    assert main(["tree-dist", *common, "--a", p, "--b", q]) == 0
    doc = strict_json(capsys.readouterr().out)
    assert all(v >= 0 for v in doc.values())


def test_curve_cli(spec_file, capsys):
    cx = cover.explore(
        shipped("flip_n3"), 2, 3, fiber_range=2.0, wall_comp_depth=0
    )
    p = cx.format_point(cx.sample_point(cover.make_stream(3, 0)))
    q = cx.format_point(cx.sample_point(cover.make_stream(3, 1)))
    code = main(
        [
            "curve",
            "--spec",
            spec_file,
            "--t0-depth",
            "2",
            "--hex-depth",
            "3",
            "--wall-comp-depth",
            "0",
            "--from",
            p,
            "--to",
            q,
        ]
    )
    out = strict_json(capsys.readouterr().out)
    if code == 0:
        assert out["length"] <= out["bound"] + 1e-6
    else:
        assert out["error"] == "truncated"


def _curve_cli(spec_file, cx, index):
    """`ogm curve` on the sampled pair `index` (stream 3) of the flip_n3
    complex cx: the exit code and the pair as the command parsed it."""
    p = cx.format_point(cx.sample_point(cover.make_stream(3, 2 * index)))
    q = cx.format_point(cx.sample_point(cover.make_stream(3, 2 * index + 1)))
    argv = ["curve", "--spec", spec_file, "--t0-depth", str(cx.t0_depth),
            "--hex-depth", str(cx.hex_depth), "--from", p, "--to", q]
    if cx.wall_comp_depth is not None:
        argv += ["--wall-comp-depth", str(cx.wall_comp_depth)]
    return main(argv), (cx.parse_point(p), cx.parse_point(q))


def test_curve_cli_segments(spec_file, capsys):
    # a curve of four walls, with steps from both ends
    cx = cover.explore(shipped("flip_n3"), 2, 4, fiber_range=3.0, wall_comp_depth=0)
    code, (x, y) = _curve_cli(spec_file, cx, 1)
    assert code == 0
    out = strict_json(capsys.readouterr().out)
    ts = tr.TreeSystem(cx)
    path = cv.build_special_curve(cx, ts, x, y)
    assert out["length"] == cv.curve_length(path)[0]
    assert out["bound"] == cv.curve_bound(out["embedded_distance"])
    assert len(out["segments"]) == len(path) == 12
    for seg, s in zip(out["segments"], path):
        kind = "tree_path" if s.role == "lift" else "geodesic"
        assert seg == {"kind": kind, "role": s.role, "block": list(s.points[0].block),
                       "points": len(s.points)}
    assert {seg["role"] for seg in out["segments"]} == {"hop", "lift", "base"}
    assert len({tuple(seg["block"]) for seg in out["segments"]}) == 5


def test_curve_cli_truncated_exits_1(spec_file, capsys):
    # with every component glued, the curve's first gate leaves the hexagons
    cx = cover.explore(shipped("flip_n3"), 2, 4, fiber_range=3.0)
    code, _ = _curve_cli(spec_file, cx, 0)
    assert code == 1
    out = strict_json(capsys.readouterr().out)
    assert out["error"] == "truncated"
    assert "leaves hexagon depth 4" in out["detail"]


def test_verify_qi_deterministic(spec_file, tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    csv = tmp_path / "pairs.csv"
    code = main(
        ["verify-qi", "--spec", spec_file, *run_args("--out", str(out1), "--csv", str(csv))]
    )
    assert code == 0
    assert main(["verify-qi", "--spec", spec_file, *run_args("--out", str(out2))]) == 0
    assert out1.read_text() == out2.read_text()
    assert csv.read_text().startswith("index,truncated,d,e")
    rep = strict_json(out1.read_text())
    assert rep["verdict"] == "PASS"
    # stdout stayed clean (outputs went to files)
    assert capsys.readouterr().out == ""


def test_verify_lipschitz_cli(spec_file, tmp_path):
    out = tmp_path / "lip.json"
    assert (
        main(["verify-lipschitz", "--spec", spec_file, *run_args("--out", str(out))])
        == 0
    )
    rep = strict_json(out.read_text())
    assert rep["verdict"] == "PASS"
    assert rep["retraction_lipschitz"] is not None
    assert rep["retraction_lipschitz_exact"] == hx.EDGE
    assert rep["inequalities"]["retraction_2rho"]["violations"] == 0


def test_covering_cli(spec_file, tmp_path):
    # the command runs the library report under the cli name
    assert cli.covering_report is vf.covering_report
    out = tmp_path / "cov.json"
    code = main(
        [
            "covering",
            "--spec",
            spec_file,
            *run_args("--out", str(out)),
            "--scale",
            "8.0",
            "--binding-pairs",
            "10",
        ]
    )
    assert code == 0
    doc = strict_json(out.read_text())
    assert doc["verdict"] == "PASS"
    assert doc["product"]["colors"] == 8


@pytest.mark.parametrize("binding_pairs", ["0", "-1"])
def test_covering_binding_pairs_below_one_exits_1(spec_file, capsys, binding_pairs):
    argv = ["covering", "--spec", spec_file, *run_args(), "--binding-pairs", binding_pairs]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "binding_pairs" in err


@pytest.mark.parametrize(
    "option, value, field",
    [
        ("--tol", "nan", "tol"),
        ("--tol", "inf", "tol"),
        ("--fiber-range", "-1", "fiber_range"),
        ("--fiber-range", "inf", "fiber_range"),
        ("--workers", "-2", "workers"),
        # numpy's "expected non-negative integer" did not name the field
        ("--seed", "-1", "seed"),
        # said "explored complex has 1 classes, expected 2"
        ("--wall-comp-depth", "-1", "wall_comp_depth"),
    ],
)
def test_verify_qi_rejects_bad_run_config(spec_file, capsys, option, value, field):
    # a NaN or infinite tol made every margin NaN or -inf, and the report PASSed
    argv = ["verify-qi", "--spec", spec_file, *run_args("--samples", "4"), option, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_covering_non_finite_scale_exits_1(spec_file, capsys, scale):
    argv = ["covering", "--spec", spec_file, *run_args(), "--scale", scale]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "scale" in err


def test_reducible_rejected_cli(tmp_path):
    path = tmp_path / "red.json"
    path.write_text(json.dumps(shipped_doc("reducible_n4")))
    assert main(["verify-qi", "--spec", str(path), *run_args()]) == 1


def test_report_pipeline(spec_file, tmp_path):
    out = tmp_path / "full.json"
    code = main(
        [
            "report",
            "--spec",
            spec_file,
            "--t0-depth",
            "2",
            "--hex-depth",
            "3",
            "--samples",
            "16",
            "--seed",
            "3",
            "--fiber-range",
            "2.0",
            "--wall-comp-depth",
            "0",
            "--workers",
            "1",
            "--binding-pairs",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = strict_json(out.read_text())
    assert doc["verdict"] == "PASS"
    assert doc["irreducible"] is True
    assert set(doc) >= {"lipschitz", "qi", "curves", "covering", "constants"}


def test_point_without_pos_exits_1(spec_file, capsys):
    argv = ["geodesic", "--spec", spec_file, "--t0-depth", "1", "--hex-depth", "2",
            "--wall-comp-depth", "0", "--from", "hex=0;fiber=1", "--to", "hex=;fiber=0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pos" in err


@pytest.mark.parametrize("command", ["phi", "geodesic"])
def test_point_just_outside_exits_1(spec_file, capsys, command):
    # the midpoint of unmarked side 1 pushed 3e-7 along its outward normal:
    # `phi` accepted it (up to 1e-6 outside) while `geodesic` rejected it
    point = "block=;hex=;pos=0.500000212132057,0.8660257712079391;fiber=0.5"
    flags = ["--point", point] if command == "phi" else ["--from", point, "--to", point]
    assert main([command, "--spec", spec_file, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "outside" in err


def test_report_prepares_once(spec_file, tmp_path, monkeypatch):
    # one validate, irreducibility check, explore and tree system serve the
    # records, which the three verify reports share, and the covering report
    calls = {}

    def counted(owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    for attr in ("validate", "check_irreducible", "explore"):
        counted(vf, attr)
    counted(tr.TreeSystem, "__init__")
    argv = ["report", "--spec", spec_file, *run_args("--samples", "6"),
            "--binding-pairs", "2", "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    assert calls == {"validate": 1, "check_irreducible": 1, "explore": 1, "__init__": 1}


def test_report_fail_documents(tmp_path, bad_spec_file, monkeypatch, capsys):
    def no_explore(*args, **kwargs):
        pytest.fail("a rejected spec was explored")

    monkeypatch.setattr(vf, "explore", no_explore)
    assert main(["report", "--spec", bad_spec_file, *run_args()]) == 1
    assert strict_json(capsys.readouterr().out) == {
        "verdict": "FAIL",
        "violations": [
            "edge w1: fixed base coordinate (perm(0) = 0)",
            "edge w2: fixed base coordinate (perm(0) = 0)",
        ],
    }
    path = tmp_path / "red.json"
    path.write_text(json.dumps(shipped_doc("reducible_n4")))
    spec = shipped("reducible_n4")
    assert main(["report", "--spec", str(path), *run_args()]) == 1
    assert strict_json(capsys.readouterr().out) == {
        "verdict": "FAIL",
        "spec_digest": spec.digest(),
        "n": 4,
        "config": {"t0_depth": 2, "hex_depth": 3, "samples": 20, "seed": 7, "tol": 1e-6,
                   "fiber_range": 2.0, "wall_comp_depth": 0},
        "constants": vf.base_constants(4),
        "irreducible": False,
        "irreducibility_reason": "coordinates [2] not reached within depth 2 (inconclusive)",
    }


@pytest.mark.parametrize(
    "point, field",
    [
        ("hex=0;pos=0.1", "pos"),
        ("hex=0;pos", "pos"),
        ("hex=0x;pos=0,0", "hex"),
        ("block=w1#a;hex=;pos=0,0", "block"),
        ("hex=;pos=0,0;fiber=x", "fiber"),
        # a NaN fiber printed "distance": NaN, which is not JSON, and exited 0
        ("hex=;pos=0.2,0.1;fiber=nan", "fiber"),
        ("hex=;pos=0.2,0.1;fiber=inf", "fiber"),
    ],
)
def test_malformed_point_names_field(spec_file, capsys, point, field):
    argv = ["geodesic", "--spec", spec_file, "--t0-depth", "1", "--hex-depth", "2",
            "--wall-comp-depth", "0", "--from", point, "--to", "hex=;pos=0,0;fiber=0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


def test_deep_explore_dumps_the_ball(capsys):
    # two_vertex_n5 at t0 40 holds about 3.3e12 blocks; explore lists none
    # of them, and phi and geodesic print what the library computes there
    spec = str(SPECS / "two_vertex_n5.json")
    argv = ["--spec", spec, "--t0-depth", "40", "--hex-depth", "2", "--wall-comp-depth", "0"]
    assert main(["explore", *argv]) == 0
    cx = cover.explore(shipped("two_vertex_n5"), 40, 2, wall_comp_depth=0)
    assert strict_json(capsys.readouterr().out)["block_count"] == cx.block_count > 10**12
    u, v = (1, 2) * 20, (1, 2) * 19 + (2, 1)
    x = cx.format_point(cover.CoverPoint(u, hx.H0Point((1,), hx.CENTER), (0.5, -0.25, 1.0)))
    y = cx.format_point(cover.CoverPoint(v, hx.H0Point((0,), hx.CENTER), (0.0, 0.75, -1.0)))
    xp, yp = cx.parse_point(x), cx.parse_point(y)

    assert main(["phi", *argv, "--point", x]) == 0
    prod = tr.TreeSystem(cx).phi(xp)
    assert strict_json(capsys.readouterr().out) == {
        "t0": list(u), "classes": {str(lab): cli._tc_point_doc(pt) for lab, pt in prod.coords}}
    assert prod.t0 == u

    assert main(["geodesic", *argv, "--from", x, "--to", y]) == 0
    res = geo.distance(cx, xp, yp, tol=1e-6)
    doc = strict_json(capsys.readouterr().out)
    assert doc["distance"] == res.distance > 0
    assert (doc["truncated"], doc["sweeps"]) == (res.truncated, res.sweeps)
    assert doc["chain"] == [{"parent": list(w.parent), "parent_comp": w.parent_comp, "coords": c}
                            for w, c in zip(res.walls, res.coords)]
