"""Spans recorded from outside the program, at the public functions of each layer.

The tracer replaces module-level names that circgraph's own call path looks
up (for example `circgraph.circular.all_pairs_distances`, which the checks
call) with wrappers that record a span: name, start, end and the enclosing
span. Per-call hot helpers such as `common_neighbors` and `_bfs` are left
alone, and nothing uses cProfile, whose per-call cost would swamp the
census. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import time
from statistics import median

# (module, attribute, span name, size of the result or None). Several
# bindings of one function share a span name, so the layer total holds
# every caller.
WRAPPED = (
    ("cli", "main", "cli", None),
    ("cli", "_read_input", "fileio.read", lambda text: len(text.encode("utf-8"))),
    ("cli", "parse_payload", "fileio.parse_payload", None),
    ("cli", "report_obj", "fileio.emit", None),
    ("cli", "certificate_to_obj", "fileio.emit", None),
    ("cli", "_emit", "fileio.emit", None),
    ("cli", "classify", "circular.classify", None),
    ("cli", "are_isomorphic", "canonical.are_isomorphic", None),
    ("cli", "enumerate_circular", "census.enumerate_circular", len),
    ("cli", "enumerate_circular_trees", "census.enumerate_circular_trees", len),
    ("fileio", "from_design", "constructions.from_design", None),
    ("circular", "verify_w_pair_bound", "circular.w_pair_bound", None),
    ("circular", "verify_point_degrees", "circular.point_degrees", None),
    ("circular", "verify_distance_profile", "circular.distance_profile", None),
    ("circular", "verify_metric_bounds", "circular.metric_bounds", None),
    ("circular", "all_pairs_distances", "graphs.all_pairs_distances", None),
    ("circular", "metric_summary", "graphs.metric_summary", None),
    ("canonical", "canonical_form", "canonical.canonical_form", None),
    ("census", "canonical_form", "canonical.canonical_form", None),
    ("census", "classify", "circular.classify", None),
    ("census", "metric_summary", "graphs.metric_summary", None),
    ("census", "from_design", "constructions.from_design", None),
)


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent index, size]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self, modules: dict) -> None:
        for module, attr, name, size in WRAPPED:
            mod = modules[module]
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, size))

    def _wrap(self, fn, name, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if size is not None:
                rec[4] = size(result)
            return result

        return traced


# Per-layer metric name -> unit; the values come from `layer_metrics`.
LAYER_UNITS = {
    "graphs.metric_summary.ms": "ms",
    "graphs.metric_summary.calls": "count",
    "graphs.all_pairs_distances.ms": "ms",
    "circular.classify.ms": "ms",
    "circular.classify.calls": "count",
    "circular.w_pair_bound.ms": "ms",
    "circular.point_degrees.ms": "ms",
    "circular.distance_profile.ms": "ms",
    "circular.metric_bounds.ms": "ms",
    "canonical.canonical_form.ms": "ms",
    "canonical.canonical_form.calls": "count",
    "canonical.canonical_form.max_ms": "ms",
    "canonical.replay.ms": "ms",
    "census.enumerate_circular.self_ms": "ms",
    "census.families": "count",
    "census.classes": "count",
    "census.enumerate_circular_trees.self_ms": "ms",
    "constructions.from_design.ms": "ms",
    "constructions.from_design.calls": "count",
    "fileio.parse_payload.ms": "ms",
    "fileio.emit.ms": "ms",
    "fileio.bytes_in": "bytes",
    "fileio.bytes_out": "bytes",
    "cli.self_ms": "ms",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[list], bytes_out: int) -> dict[str, float]:
    """Totals over one pass. Self time is a span's duration minus the
    durations of its direct children."""
    dur = [(s[2] - s[1]) / 1e6 for s in spans]
    child_ms = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_ms[s[3]] += dur[i]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    longest: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[0]
        total[name] = total.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + dur[i] - child_ms[i]
        longest[name] = max(longest.get(name, 0.0), dur[i])
    families = sum(
        1
        for s in spans
        if s[0] == "constructions.from_design"
        and s[3] >= 0
        and spans[s[3]][0] == "census.enumerate_circular"
    )
    return {
        "graphs.metric_summary.ms": total.get("graphs.metric_summary", 0.0),
        "graphs.metric_summary.calls": calls.get("graphs.metric_summary", 0),
        "graphs.all_pairs_distances.ms": total.get("graphs.all_pairs_distances", 0.0),
        "circular.classify.ms": total.get("circular.classify", 0.0),
        "circular.classify.calls": calls.get("circular.classify", 0),
        "circular.w_pair_bound.ms": total.get("circular.w_pair_bound", 0.0),
        "circular.point_degrees.ms": total.get("circular.point_degrees", 0.0),
        "circular.distance_profile.ms": total.get("circular.distance_profile", 0.0),
        "circular.metric_bounds.ms": total.get("circular.metric_bounds", 0.0),
        "canonical.canonical_form.ms": total.get("canonical.canonical_form", 0.0),
        "canonical.canonical_form.calls": calls.get("canonical.canonical_form", 0),
        "canonical.canonical_form.max_ms": longest.get("canonical.canonical_form", 0.0),
        "canonical.replay.ms": self_ms.get("canonical.are_isomorphic", 0.0),
        "census.enumerate_circular.self_ms": self_ms.get("census.enumerate_circular", 0.0),
        "census.families": families,
        "census.classes": sum(s[4] or 0 for s in spans if s[0] == "census.enumerate_circular"),
        "census.enumerate_circular_trees.self_ms": self_ms.get(
            "census.enumerate_circular_trees", 0.0
        ),
        "constructions.from_design.ms": total.get("constructions.from_design", 0.0),
        "constructions.from_design.calls": calls.get("constructions.from_design", 0),
        "fileio.parse_payload.ms": total.get("fileio.parse_payload", 0.0),
        "fileio.emit.ms": total.get("fileio.emit", 0.0),
        "fileio.bytes_in": sum(s[4] or 0 for s in spans if s[0] == "fileio.read"),
        "fileio.bytes_out": bytes_out,
        "cli.self_ms": self_ms.get("cli", 0.0),
    }


def median_layers(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(p[k] for p in per_pass) for k in per_pass[0]}


def combine_groups(per_group: list[dict[str, float]]) -> dict[str, float]:
    """One round from its groups' medians: totals add, longest spans do not."""
    return {k: (max if k.endswith(".max_ms") else sum)(g[k] for g in per_group)
            for k in per_group[0]}
