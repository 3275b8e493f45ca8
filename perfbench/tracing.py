"""In-memory span tracer that wraps ogm's public functions from outside.

Each wrapped call records a span: name, layer, start, end, parent span and
the exception it raised, if any.  Leaf primitives (``boundary_point``,
``h0_distance``) are counted, attributed to the innermost open span, and
get no span of their own.  Wrappers replace the attribute at the place
the caller looks it up, and `Tracer.install` restores every attribute on
exit, so an untraced run executes the unmodified program.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ogm import cli, coverings, curves, geodesics, hexagon, trees, verify


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    error: Optional[str] = None
    note: Any = None
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _sweeps(result) -> int:
    return result.sweeps


# (owner, attribute, span name, layer, note extracted from the result).
# verify imports explore/check_irreducible/validate by name, so they are
# wrapped in verify's namespace, where _prepare looks them up.
SPANNED = (
    (verify, "collect_records", "verify.collect_records", "verify", None),
    (verify, "_pair_record", "verify.pair", "verify", None),
    (verify, "_prepare", "verify.prepare", "verify", None),
    (verify, "verify_lipschitz", "verify.verify_lipschitz", "verify", None),
    (verify, "verify_qi", "verify.verify_qi", "verify", None),
    (verify, "verify_curves", "verify.verify_curves", "verify", None),
    (verify, "measure_retraction_lipschitz", "verify.retraction", "verify", None),
    (verify, "validate", "manifold.validate", "manifold", None),
    (verify, "check_irreducible", "manifold.check_irreducible", "manifold", None),
    (verify, "explore", "cover.explore", "cover", None),
    (geodesics, "distance", "geodesics.distance", "geodesics", _sweeps),
    (trees.TreeSystem, "__init__", "trees.build", "trees", None),
    (trees.TreeSystem, "tc_distance", "trees.tc_distance", "trees", None),
    (trees.TreeSystem, "t0_distance", "trees.t0_distance", "trees", None),
    (trees.TreeSystem, "phi", "trees.phi", "trees", None),
    (trees.TreeSystem, "phi_c", "trees.phi_c", "trees", None),
    (curves, "build_special_curve", "curves.build", "curves", None),
    (curves, "curve_length", "curves.length", "curves", None),
    (coverings, "tree_covering", "coverings.tree_covering", "coverings", None),
    (coverings, "product_covering", "coverings.product_covering", "coverings", None),
    (coverings, "check_covering", "coverings.check_covering", "coverings", None),
    (coverings, "pullback_check", "coverings.pullback_check", "coverings", None),
    (cli, "covering_report", "cli.covering_report", "cli", None),
)

# HexModel.boundary_point resolves the module-level function at call time.
COUNTED = (
    (hexagon, "boundary_point", "hexagon.boundary_point"),
    (hexagon, "h0_distance", "hexagon.h0_distance"),
)

LAYERS = (
    "hexagon", "manifold", "cover", "geodesics", "trees",
    "curves", "verify", "coverings", "cli",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        # (leaf name, name of the innermost open span or "") -> calls
        self.counts: Counter = Counter()

    def _spanned(self, fn: Callable, name: str, layer: str, note) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, layer, clock(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_time += span.end - span.start
            if note is not None:
                span.note = note(result)
            return result

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            counts[(name, spans[stack[-1]].name if stack else "")] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Wrap every traced entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, layer, note in SPANNED:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._spanned(fn, name, layer, note))
            for owner, attr, name in COUNTED:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._counted(fn, name))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- queries --------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def count(self, leaf: str, within: Optional[str] = None) -> int:
        return sum(
            n for (lf, w), n in self.counts.items()
            if lf == leaf and (within is None or w == within)
        )

    def self_time_by_layer(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            out[s.layer] += s.self_time
        return out

    def root_time(self) -> float:
        return sum(s.duration for s in self.spans if s.parent < 0)

    def within(self, span: Span, name: str) -> bool:
        """Whether a span called `name` encloses `span`."""
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False
