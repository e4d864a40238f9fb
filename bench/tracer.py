"""Per-layer tracing from outside the library.

`Tracer.install` rebinds public ribboncalc functions, in every ribboncalc
module namespace that holds them, to wrappers that record spans (name,
start, end, parent) or bump counters; `Tracer.remove` puts the originals
back.  Nothing private is named: functions are found through the package's
public names and rebound wherever the same object is bound, so calls
between library modules (``words`` calling ``trajectory_counts``, ``cli``
calling ``parse_graph``) are seen too.  ``RibbonGraph.__hash__`` is
wrapped as a counter.

Spans stay in memory; `layer_metrics` turns one round's spans and counters
into the per-layer metrics listed in `LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import ribboncalc
import ribboncalc.cli
import ribboncalc.serialization

# span name -> the public object it wraps
SPANS = {
    "graph.validate": ribboncalc.validate_graph,
    "graph.boundary_walks": ribboncalc.boundary_walks,
    "graph.surface_invariants": ribboncalc.surface_invariants,
    "trajectory.itinerary": ribboncalc.itinerary,
    "trajectory.counts": ribboncalc.trajectory_counts,
    "words.decompose": ribboncalc.decompose,
    "words.decompose_subgraph": ribboncalc.decompose_subgraph,
    "words.twist_rotation": ribboncalc.twist_rotation_check,
    "serialization.parse_graph": ribboncalc.parse_graph,
    "serialization.parse_assignments": ribboncalc.parse_assignments,
    "serialization.parse_choices": ribboncalc.parse_choices,
    "serialization.graph_build": ribboncalc.serialization.graph_from_jsonable,
    "serialization.serialize": ribboncalc.serialize,
    "serialization.graph_dot": ribboncalc.graph_dot,
    "assembly.diagram": ribboncalc.assembly_diagram,
    "assembly.tagged": ribboncalc.tagged_triangulation,
    "quiver.amalgamate": ribboncalc.amalgamate,
    "quiver.validate_morphism": ribboncalc.validate_morphism,
    "quiver.export_dot": ribboncalc.export_dot,
    "cli.main": ribboncalc.cli.main,
}

# counter name -> the public object it wraps (counted, no span)
COUNTED = {
    "graph.require_valid.calls": ribboncalc.require_valid,
    "assembly.builtin_template.calls": ribboncalc.builtin_template,
    "assembly.validate_template.calls": ribboncalc.validate_template,
}

PARSERS = (
    "serialization.parse_graph",
    "serialization.parse_assignments",
    "serialization.parse_choices",
)

# metric -> (unit, how it is computed); "incl" is the summed duration of
# the outermost spans of that name, "self" subtracts child spans
LAYER_METRICS = {
    "trajectory.itinerary_s": ("s", "incl", "trajectory.itinerary"),
    "trajectory.itinerary.calls": ("count", "calls", "trajectory.itinerary"),
    "trajectory.steps": ("count", "counter", "trajectory.steps"),
    "graph.hash.calls": ("count", "counter", "graph.hash.calls"),
    "trajectory.counts_s": ("s", "incl", "trajectory.counts"),
    "trajectory.counts.calls": ("count", "calls", "trajectory.counts"),
    "trajectory.counts.empty_ratio": ("ratio", "empty_ratio", "trajectory.counts"),
    "words.decompose_s": ("s", "incl", "words.decompose"),
    "words.decompose.calls": ("count", "calls", "words.decompose"),
    "words.summands": ("count", "counter", "words.summands"),
    "words.decompose_subgraph_s": ("s", "incl", "words.decompose_subgraph"),
    "words.twist_rotation_s": ("s", "incl", "words.twist_rotation"),
    "serialization.json_decode_s": ("s", "counter", "serialization.json_decode_s"),
    "serialization.graph_build_s": ("s", "self", "serialization.graph_build"),
    "serialization.bytes_in": ("bytes", "counter", "serialization.bytes_in"),
    "graph.validate_s": ("s", "incl", "graph.validate"),
    "graph.validate.calls": ("count", "calls", "graph.validate"),
    "graph.require_valid.calls": ("count", "counter", "graph.require_valid.calls"),
    "assembly.diagram_s": ("s", "incl", "assembly.diagram"),
    "assembly.builtin_template.calls": (
        "count", "counter", "assembly.builtin_template.calls"),
    "assembly.validate_template.calls": (
        "count", "counter", "assembly.validate_template.calls"),
    "assembly.tagged_s": ("s", "incl", "assembly.tagged"),
    "quiver.amalgamate_s": ("s", "incl", "quiver.amalgamate"),
    "quiver.validate_morphism.calls": ("count", "calls", "quiver.validate_morphism"),
    "quiver.validate_morphism_s": ("s", "incl", "quiver.validate_morphism"),
    "serialization.serialize_s": ("s", "incl", "serialization.serialize"),
    "serialization.bytes_out": ("bytes", "counter", "serialization.bytes_out"),
    "serialization.graph_dot_s": ("s", "incl", "serialization.graph_dot"),
    "quiver.export_dot_s": ("s", "incl", "quiver.export_dot"),
    "quiver.arrows_out": ("count", "counter", "quiver.arrows_out"),
    "graph.boundary_walks_s": ("s", "incl", "graph.boundary_walks"),
    "graph.surface_invariants_s": ("s", "incl", "graph.surface_invariants"),
    "cli.main_s": ("s", "self", "cli.main"),
    "cli.calls": ("count", "calls", "cli.main"),
    "cli.nonzero_exits": ("count", "counter", "cli.nonzero_exits"),
}


def _ribboncalc_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "ribboncalc" or name.startswith("ribboncalc."))
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self.texts: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, name):
        c = self.counters
        if name == "trajectory.itinerary":
            def after(args, itin):
                c["trajectory.steps"] += itin.length
        elif name == "trajectory.counts":
            def after(args, hits):
                if not hits:
                    c["trajectory.counts.empty"] += 1
        elif name == "words.decompose":
            def after(args, dec):
                c["words.summands"] += len(dec.summands)
        elif name == "serialization.serialize":
            def after(args, text):
                c["serialization.bytes_out"] += len(text.encode())
        elif name == "quiver.export_dot":
            def after(args, text):
                c["quiver.arrows_out"] += len(args[0].arrows)
        elif name == "cli.main":
            def after(args, code):
                if code != 0:
                    c["cli.nonzero_exits"] += 1
        elif name in PARSERS:
            def after(args, value):
                self.texts.append(args[0])
        else:
            after = None
        return after

    # -- install / remove -------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod in _ribboncalc_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        for name, fn in SPANS.items():
            self._rebind(fn, self._span(name, fn, self._after(name)))
        for name, fn in COUNTED.items():
            self._rebind(fn, self._count(name, fn))
        graph_cls = ribboncalc.RibbonGraph
        self._undo.append((graph_cls, "__hash__", graph_cls.__hash__))
        graph_cls.__hash__ = self._count("graph.hash.calls", graph_cls.__hash__)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def replay_json_decode(self) -> None:
        """Time ``json.loads`` on the texts the parsers received."""
        total = 0.0
        for text in self.texts:
            t0 = time.perf_counter()
            json.loads(text)
            total += time.perf_counter() - t0
            self.counters["serialization.bytes_in"] += len(text.encode())
        self.counters["serialization.json_decode_s"] += total
        self.texts.clear()

    def dump(self) -> dict:
        """Spans as [name index, start us, end us, parent index], times
        relative to the first span."""
        names: dict[str, int] = {}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [names.setdefault(name, len(names)), round((start - t0) * 1e6, 1),
             round((end - t0) * 1e6, 1), parent]
            for name, start, end, parent in self.spans
        ]
        return {"names": list(names), "spans": rows, "counters": dict(self.counters)}

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for name, start, end, parent in spans:
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        selft: defaultdict = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            selft[name] += end - start - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:  # outermost span of its name
                incl[name] += end - start
        out = {}
        for metric, (_, how, key) in LAYER_METRICS.items():
            if how == "incl":
                out[metric] = incl[key]
            elif how == "self":
                out[metric] = selft[key]
            elif how == "calls":
                out[metric] = calls[key]
            elif how == "empty_ratio":
                out[metric] = (
                    self.counters["trajectory.counts.empty"] / calls[key]
                    if calls[key] else 0.0
                )
            else:
                out[metric] = self.counters[key]
        return out
