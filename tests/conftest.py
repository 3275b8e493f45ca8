"""Shared test helpers: the shipped specs, read from specs/*.json."""

from __future__ import annotations

import json
from pathlib import Path

from ogm.manifold import GraphManifoldSpec

SPECS = Path(__file__).resolve().parent.parent / "specs"
SHIPPED_NAMES = tuple(sorted(p.stem for p in SPECS.glob("*.json")))
IRREDUCIBLE_NAMES = ("flip_n3", "cycle_n4", "two_vertex_n5")


def shipped_doc(name: str) -> dict:
    """The shipped spec `name` as a fresh dict, safe to mutate."""
    return json.loads((SPECS / f"{name}.json").read_text(encoding="utf-8"))


def shipped(name: str) -> GraphManifoldSpec:
    return GraphManifoldSpec.from_dict(shipped_doc(name))


def ball_ids(cx) -> list:
    """Every block id of a complex's ball, in lexicographic order."""
    return [cx.block_at(i) for i in range(cx.block_count)]


def counting(calls, name: str, fn):
    """fn, counting each call in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper
