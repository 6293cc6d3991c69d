"""Layer spans recorded from outside the package.

The package is not edited.  Instead, each layer function listed in
``LAYERS`` is replaced, for the length of a traced pass, by a wrapper in
every ``gridirr`` module attribute that holds it: that is the name through
which callers look it up (``gridirr.cli.enumerate_windows``,
``gridirr.verify.weight_profile``, ...).  A wrapper records one span per
call: its name, start, end and parent span, plus exact counts taken from
the call's arguments and result.  Spans stay in memory; the runner reads
their totals when the traced pass ends.

A span's self time is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


def _members(args, result) -> dict:
    return {"members": len(result.members)}


def _profile_members(args, result) -> dict:
    return {"members": len(result)}


def _labels(args, result) -> dict:
    return {"labels": len(result.labels)}


def _verdict(args, result) -> dict:
    return {"rejects": int(not result.accepted)}


def _file_bytes(args, result) -> dict:
    """Size of the open file a loader was handed."""
    return {"bytes": os.fstat(args[0].fileno()).st_size}


def _nodes(args, result) -> dict:
    below = result.nodes_explored if result.minimal_k is None else 0
    return {"nodes": result.nodes_explored, "nodes_below_min": below}


# (module, function) -> (span name, counts taken from arguments and result)
LAYERS: dict[tuple[str, str], tuple[str, Optional[Callable]]] = {
    ("gridirr.grid", "make_grid"): ("grid.make_grid", None),
    ("gridirr.covering", "enumerate_windows"): ("covering.enumerate_windows", _members),
    ("gridirr.covering", "is_edge_covering"): ("covering.is_edge_covering", None),
    ("gridirr.construct", "construct_vertex_labeling"): ("construct", _labels),
    ("gridirr.construct", "construct_edge_labeling"): ("construct", _labels),
    ("gridirr.construct", "construct_total_labeling"): ("construct", _labels),
    ("gridirr.bounds", "lower_bound"): ("bounds", None),
    ("gridirr.bounds", "upper_bound_exponent"): ("bounds", None),
    ("gridirr.bounds", "closed_form_strength"): ("bounds", None),
    ("gridirr.bounds", "grid_bound_report"): ("bounds", None),
    ("gridirr.verify", "weight_profile"): ("verify.weight_profile", _profile_members),
    ("gridirr.verify", "verify_irregular"): ("verify.verify_irregular", _verdict),
    ("gridirr.io", "load_labeling"): ("io.load_labeling", _file_bytes),
    ("gridirr.io", "load_family"): ("io.load_family", _file_bytes),
    ("gridirr.search", "min_strength"): ("search.min_strength", _nodes),
    ("gridirr.cli", "main"): ("cli.main", None),
}


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans of one traced pass, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.enabled = True

    def _wrap(self, name: str, fn, count):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            span = Span(name, open_[-1] if open_ else None, 0)
            spans.append(span)
            open_.append(index)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                open_.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every module attribute that holds a layer function."""
        modules = [
            module
            for mod_name, module in list(sys.modules.items())
            if mod_name == "gridirr" or mod_name.startswith("gridirr.")
        ]
        for (mod_name, fn_name), (span_name, count) in LAYERS.items():
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(span_name, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    @contextmanager
    def paused(self):
        """Record no spans inside the block (the benchmark's own checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, self_ns, and the summed counts."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end_ns - span.start_ns
        out: dict[str, dict[str, int]] = {}
        for span, children in zip(self.spans, child_ns):
            agg = out.setdefault(span.name, {"calls": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["self_ns"] += span.end_ns - span.start_ns - children
            for key, value in span.counts.items():
                agg[key] = agg.get(key, 0) + value
        return out
