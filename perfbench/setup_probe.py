"""Set-up time of one configuration, measured in a fresh process.

Run by ``run.py`` as a child process; prints one JSON object.  The clock
starts before ogm (and numpy) are imported, so ``setup_s`` covers the
import, spec load, ``validate``, ``check_irreducible``, ``explore`` and
``TreeSystem`` for every spec of the set-up.  ``setup_ref_s`` is the same
time in reference seconds (see calibration.py), from the calibration
kernel timed just before and just after it.  ``model_build_ms`` is the
first ``HexModel`` construction inside ``explore``, the only cold one:
later builds reuse the module-wide develop-matrix cache.

    python3 perfbench/setup_probe.py --setup certify
"""

import time

from calibration import calibration_s, speed_scale

CALIBRATION_BEFORE_S = calibration_s()
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from configs import SETUPS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup", required=True, choices=sorted(SETUPS))
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import ogm.cli  # noqa: F401  (the entry point a user runs loads every module)
    from ogm import hexagon as hx
    from ogm import trees
    from ogm.cover import explore
    from ogm.manifold import GraphManifoldSpec, check_irreducible, validate

    clock = time.perf_counter
    import_s = clock() - T0
    parts = {"validate_ms": 0.0, "check_irreducible_ms": 0.0, "explore_ms": 0.0,
             "tree_build_ms": 0.0}
    builds_ms = []
    model_cls = hx.HexModel

    def timed_model(depth):  # explore looks HexModel up in the hexagon module
        t = clock()
        model = model_cls(depth)
        builds_ms.append((clock() - t) * 1e3)
        return model

    hx.HexModel = timed_model
    for name, cfg in SETUPS[args.setup]:
        spec = GraphManifoldSpec.from_json_file(str(ROOT / "specs" / f"{name}.json"))
        t = clock()
        if validate(spec):
            raise SystemExit(f"invalid spec {name}")
        t1 = clock()
        if not check_irreducible(spec, cfg["t0_depth"]).irreducible:
            raise SystemExit(f"reducible spec {name}")
        t2 = clock()
        cplx = explore(spec, cfg["t0_depth"], cfg["hex_depth"],
                       fiber_range=cfg["fiber_range"], wall_comp_depth=cfg["wall_comp_depth"])
        t3 = clock()
        trees.TreeSystem(cplx)
        t4 = clock()
        parts["validate_ms"] += (t1 - t) * 1e3
        parts["check_irreducible_ms"] += (t2 - t1) * 1e3
        parts["explore_ms"] += (t3 - t2) * 1e3
        parts["tree_build_ms"] += (t4 - t3) * 1e3
    setup_s = clock() - T0
    scale = speed_scale(CALIBRATION_BEFORE_S, calibration_s())
    print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_s * scale,
                      "import_s": import_s, "model_build_ms": builds_ms[0], **parts}))


if __name__ == "__main__":
    main()
