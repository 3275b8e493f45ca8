"""The benchmark's correctness gates, run at its own configurations.

perfbench/run.py fails a covering run unless every report has verdict PASS
and every factor, product and pullback check is ok, and it fails a unit
whose results differ between passes or in a fresh process under another
PYTHONHASHSEED.  These tests apply the same gates to the same calls, with
the configurations read from perfbench/configs.py (never edited), so a
change that would trip them fails here first.
"""

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ogm import cli
from ogm import verify as vf
from ogm.manifold import GraphManifoldSpec

ROOT = Path(__file__).resolve().parent.parent
C = runpy.run_path(str(ROOT / "perfbench" / "configs.py"))

# A fresh interpreter prints the digest of one call; argv[1] is the JSON of
# (spec name, run configuration, covering scale and binding pairs or None
# for the records).
REPLAY = """
import hashlib, json, sys
from ogm import cli, verify as vf
from ogm.manifold import GraphManifoldSpec
name, cfg, covering = json.loads(sys.argv[1])
spec = GraphManifoldSpec.from_json_file(f"specs/{name}.json")
run = vf.RunConfig(**cfg)
doc = cli.covering_report(spec, run, *covering) if covering else vf.collect_records(spec, run)
print(hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest())
"""


def derive_seed(*parts: int) -> int:
    """The benchmark's per-unit seed derivation (perfbench/workloads.py)."""
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def spec_of(name: str) -> GraphManifoldSpec:
    return GraphManifoldSpec.from_json_file(str(ROOT / "specs" / f"{name}.json"))


def fresh_digest(name: str, cfg: vf.RunConfig, covering=None) -> str:
    """The digest of the same call in a new process under another hash seed,
    as perfbench/run.py replays a unit."""
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
    args = json.dumps([name, {**cfg.to_dict(), "workers": cfg.workers}, covering])
    proc = subprocess.run([sys.executable, "-c", REPLAY, args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("unit", [0, 1])
def test_covering_gate(unit):
    ((name, setup),) = C["SETUPS"]["covering"]
    cfg = vf.RunConfig(samples=C["COVERING_SAMPLES"], seed=derive_seed(1, unit), workers=1,
                       **setup)
    covering = [C["COVERING_SCALE"], C["COVERING_BINDING_PAIRS"]]

    def report():
        return cli.covering_report(spec_of(name), cfg, *covering)

    doc = report()
    checks = [f["check"] for f in doc["factors"]] + [doc["product"]["check"], doc["pullback"]]
    assert doc["verdict"] == "PASS"
    assert all(c["ok"] for c in checks)
    assert digest(report()) == digest(doc)
    assert fresh_digest(name, cfg, covering) == digest(doc)


def test_certify_records_gate():
    name, setup = C["SETUPS"]["certify"][-1]
    cfg = vf.RunConfig(samples=C["CERTIFY_PAIRS"], seed=derive_seed(1, 2), workers=1, **setup)
    records = vf.collect_records(spec_of(name), cfg)
    assert digest(vf.collect_records(spec_of(name), cfg)) == digest(records)
    assert fresh_digest(name, cfg) == digest(records)
