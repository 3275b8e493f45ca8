"""Replay one unit of a workload in a fresh process and print the digest of
its results as one JSON object.

``run.py`` starts it with a ``PYTHONHASHSEED`` other than its own and
compares the digest with that of its own first pass.  Inside one process
the hash seed and the order of set iteration never change, so only a
second process can show results that depend on them.

    PYTHONHASHSEED=1 python3 perfbench/replay.py --workload certify --seed 1 --unit 0
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--unit", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W

    wl = W.WORKLOADS[args.workload](ROOT, args.seed)
    u = wl.units[args.unit].fresh()
    wl.execute(u)
    print(json.dumps({"error": u.error, "digest": "" if u.error else wl.result_digest(u)}))


if __name__ == "__main__":
    main()
