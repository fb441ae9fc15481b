"""Timing spans recorded around rroc's public functions, from outside the program.

``install`` replaces each traced function with a wrapper in every ``rroc``
namespace that binds it (``convex_hull`` is bound in ``rroc.analysis`` and
``rroc.report``, ``over_under`` in ``rroc.core`` and ``rroc.shift``), and
methods on their class. Nothing under ``src/`` changes.

A span records its name, start, end, thread and parent. Inside one thread the
parent is the enclosing span; a span opened in a pool worker thread, whose own
stack is empty, takes the open ``report.run`` span as parent. Spans stay in
memory until ``Totals.add`` folds them into per-layer sums.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
import tracemalloc
from typing import Dict, List, Optional

RROC_MODULES = ("rroc", "rroc.core", "rroc.curve", "rroc.analysis", "rroc.shift",
                "rroc.data", "rroc.report", "rroc.svg", "rroc.cli")

# The span whose open instance parents spans of the threads it starts.
POOL_PARENT = "report.run"


class Span:
    __slots__ = ("name", "start", "end", "thread", "parent", "attrs")

    def __init__(self, name, start, end=None, thread=None, parent=None):
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread
        self.parent = parent
        self.attrs = {}


class Recorder:
    """Collects spans from every thread; ``memory`` turns on tracemalloc peaks."""

    def __init__(self, memory: bool = False):
        self.spans: List[Span] = []
        self.memory = memory
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pool_parent: Optional[Span] = None
        self._memory_open: List[Span] = []
        if memory:
            # Started once, before any pool thread exists, and never stopped:
            # CPython 3.11 can crash when tracemalloc starts or stops while
            # other threads allocate.
            tracemalloc.start()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, tracks_memory: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_parent
        span = Span(name, 0.0, thread=threading.get_ident(), parent=parent)
        with self._lock:
            self.spans.append(span)
            if name == POOL_PARENT and self._pool_parent is None:
                self._pool_parent = span
            if self.memory and tracks_memory:
                if self._memory_open:
                    # One process-wide peak: overlapping spans share it.
                    for s in self._memory_open + [span]:
                        s.attrs["overlapped"] = 1
                else:
                    tracemalloc.reset_peak()
                span.attrs["base_bytes"] = tracemalloc.get_traced_memory()[0]
                self._memory_open.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            if span is self._pool_parent:
                self._pool_parent = None
            if span in self._memory_open:
                peak = tracemalloc.get_traced_memory()[1]
                span.attrs["peak_bytes"] = peak - span.attrs.pop("base_bytes")
                self._memory_open.remove(span)

    def wrap(self, fn, name: str, measure=None, tracks_memory: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, tracks_memory)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if measure is not None:
                span.attrs.update(measure(args, kwargs, result))
            return result

        return wrapper


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _text_bytes(text: str) -> int:
    return len(text.encode("utf-8"))


# (module, attribute, span name, counters from (args, kwargs, result), tracks memory)
TARGETS = (
    ("rroc.data", "load_predictions", "data.load_predictions",
     lambda a, k, ds: {"cells": ds.n * (len(ds.model_ids) + 1),
                       "input_bytes": os.path.getsize(_first_arg(a, k, "path"))}, False),
    ("rroc.core", "error_vector", "core.error_vector", None, False),
    ("rroc.core", "over_under", "core.over_under", None, False),
    ("rroc.core", "metrics", "core.metrics", None, False),
    ("rroc.curve", "rroc_curve", "curve.rroc_curve",
     lambda a, k, c: {"vertices": len(c.vertices)}, False),
    ("rroc.curve", "RrocCurve.distinct_vertices", "curve.distinct_vertices",
     lambda a, k, v: {"distinct": len(v)}, False),
    ("rroc.curve", "aoc", "curve.aoc", None, False),
    ("rroc.curve", "normalized_curve", "curve.normalized_curve", None, False),
    ("rroc.analysis", "convex_hull", "analysis.convex_hull",
     lambda a, k, h: {"point_inputs": sum(not hasattr(v, "distinct_vertices")
                                          for v in _first_arg(a, k, "inputs").values()),
                      "hull_points": len(h.finite_points)}, False),
    ("rroc.analysis", "dominance_map", "analysis.dominance_map",
     lambda a, k, d: {"regions": len(d.regions)}, False),
    ("rroc.shift", "cost_curve", "shift.cost_curve", None, False),
    ("rroc.shift", "optimal_constant_shift", "shift.optimal_constant_shift", None, False),
    ("rroc.report", "run", "report.run", None, False),
    ("rroc.report", "error_density", "report.error_density", None, True),
    ("rroc.report", "EvaluationReport.to_json", "report.to_json",
     lambda a, k, s: {"bytes": _text_bytes(s)}, True),
    ("rroc.svg", "render_svg", "svg.render_svg",
     lambda a, k, s: {"bytes": _text_bytes(s), "elements": s.count("<") - s.count("</")}, True),
    ("rroc.cli", "main", "cli.main", None, False),
)


def install(recorder: Recorder) -> List[str]:
    """Wrap every target in every rroc namespace; return the targets not found."""
    modules = [importlib.import_module(name) for name in RROC_MODULES]
    missing = []
    for module_name, attr, span_name, measure, tracks_memory in TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = recorder.wrap(original, span_name, measure, tracks_memory)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for name in [n for n, v in vars(module).items() if v is original]:
                setattr(module, name, wrapper)
    return missing


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_mb", ".mb")):
        return "MB"
    if name.endswith(("_yield", "_overlap")):
        return "ratio"
    return "count"


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def children_of(spans: List[Span]) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(id(s.parent), []).append(s)
    return kids


def self_time(span: Span, kids: List[Span]) -> float:
    """Duration minus the union of the child intervals, clipped to the span."""
    covered = union_length(
        (max(c.start, span.start), min(c.end, span.end)) for c in kids if c.end > span.start and c.start < span.end
    )
    return (span.end - span.start) - covered


class Totals:
    """Per-layer sums over the spans of many cases."""

    def __init__(self, sums: Optional[Dict[str, float]] = None):
        self.sums: Dict[str, float] = dict(sums or {})

    def _fold(self, key: str, value: float) -> None:
        if key.endswith((".peak_bytes", ".overlapped")):
            self.sums[key] = max(self.sums.get(key, 0.0), value)
        else:
            self.sums[key] = self.sums.get(key, 0.0) + value

    def merge(self, sums: Dict[str, float]) -> None:
        for key, value in sums.items():
            self._fold(key, value)

    def add(self, spans: List[Span]) -> None:
        kids = children_of(spans)
        for s in spans:
            mine = kids.get(id(s), [])
            self._fold(s.name + ".self", self_time(s, mine))
            self._fold(s.name + ".calls", 1)
            for key, value in s.attrs.items():
                self._fold(s.name + "." + key, value)
            if s.name == "curve.distinct_vertices" and s.parent is not None \
                    and s.parent.name == "analysis.convex_hull":
                self._fold("analysis.hull_candidates", s.attrs.get("distinct", 0))
            if s.name == POOL_PARENT:
                self._fold("report.run.time", s.end - s.start)
                self._fold("report.pool.time", sum(c.end - c.start for c in mine if c.thread != s.thread))

    def metrics(self, cases: int) -> Dict[str, float]:
        """Per-layer metrics per case; the name and unit table is PER_LAYER."""
        t = self.sums

        def per(key: str) -> float:
            return t.get(key, 0.0) / cases

        candidates = t.get("analysis.hull_candidates", 0.0) + t.get("analysis.convex_hull.point_inputs", 0.0)
        hull_points = t.get("analysis.convex_hull.hull_points", 0.0)
        run_time = t.get("report.run.time", 0.0)
        return {
            "data.load_predictions.s": per("data.load_predictions.self"),
            "data.cells": per("data.load_predictions.cells"),
            "data.input_mb": per("data.load_predictions.input_bytes") / 1e6,
            "core.s": sum(per(f"core.{f}.self") for f in ("error_vector", "over_under", "metrics")),
            "core.over_under.calls": per("core.over_under.calls"),
            "curve.rroc_curve.s": per("curve.rroc_curve.self"),
            "curve.rroc_curve.calls": per("curve.rroc_curve.calls"),
            "curve.vertices_built": per("curve.rroc_curve.vertices"),
            "curve.distinct_vertices.s": per("curve.distinct_vertices.self"),
            "curve.distinct_vertices.calls": per("curve.distinct_vertices.calls"),
            "curve.aoc.s": per("curve.aoc.self"),
            "curve.aoc.calls": per("curve.aoc.calls"),
            "curve.normalized_curve.s": per("curve.normalized_curve.self"),
            "analysis.convex_hull.s": per("analysis.convex_hull.self"),
            "analysis.convex_hull.calls": per("analysis.convex_hull.calls"),
            "analysis.hull_candidates": candidates / cases,
            "analysis.hull_points": hull_points / cases,
            "analysis.hull_yield": hull_points / candidates if candidates else 0.0,
            "analysis.dominance_map.s": per("analysis.dominance_map.self"),
            "analysis.dominance_regions": per("analysis.dominance_map.regions"),
            "shift.cost_curve.s": per("shift.cost_curve.self"),
            "shift.cost_curve.calls": per("shift.cost_curve.calls"),
            "shift.optimal_constant_shift.s": per("shift.optimal_constant_shift.self"),
            "shift.optimal_constant_shift.calls": per("shift.optimal_constant_shift.calls"),
            "report.run.s": per("report.run.self"),
            "report.pool_overlap": t.get("report.pool.time", 0.0) / run_time if run_time else 0.0,
            "report.error_density.s": per("report.error_density.self"),
            "report.error_density.peak_mb": t.get("report.error_density.peak_bytes", 0.0) / 1e6,
            "report.to_json.s": per("report.to_json.self"),
            "report.to_json.peak_mb": t.get("report.to_json.peak_bytes", 0.0) / 1e6,
            "report.json_mb": per("report.to_json.bytes") / 1e6,
            "svg.render_svg.s": per("svg.render_svg.self"),
            "svg.render_svg.peak_mb": t.get("svg.render_svg.peak_bytes", 0.0) / 1e6,
            "svg.mb": per("svg.render_svg.bytes") / 1e6,
            "svg.elements": per("svg.render_svg.elements"),
            "cli.main.s": per("cli.main.self"),
        }

    def upper_bounds(self) -> List[str]:
        """Peak-memory metrics whose spans overlapped in pool threads."""
        return [k[: -len(".overlapped")] + ".peak_mb" for k, v in self.sums.items()
                if k.endswith(".overlapped") and v]
