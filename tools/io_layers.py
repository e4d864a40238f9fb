"""Time the graph I/O layers against the JSON decoder that feeds them.

    python3 tools/io_layers.py

For one graph of each `bench/gen.py` family, at V=4000 and seed 1, it
times `json.loads`, `graph_from_jsonable`, `validate_graph`,
`surface_invariants`, `serialize` and `graph_dot`, interleaved in one
process over 40 repeats: each repeat runs every stage once on every graph,
so a change of host speed touches all stages alike.  Validation is timed
through `RibbonGraph.validation_report`, which keeps the report as
`require_valid` does, so `surface_invariants` times itself alone, as in
``cli info``.  A graph sorts `vertices` and `halfedges` on first read and
keeps them, and sorts its edge tables on each call, so the stages pay for
the sorts in this order: the build, validation and `surface_invariants`
read none; `serialize` sorts `vertices` and `halfedges`; `graph_dot` sorts
`edges()`, in one sort over the internal and the external edges.  On the
`trivalent_punctured` graph it then times `edges()` alone,
the sort each later reader repeats; `subgraph` of a fixed 40-vertex ball,
grown breadth-first from the smallest vertex, which restricts the graph's
tables and validates the piece; and `assemble_global`, with every
singular vertex on ``punctured_2gon_T1`` and every other on
``rank1_trivalent``.  The assembly sorts `edges()` once, to build the
diagram, and glues in one pass over the diagram's edge table, which it
does not sort.  Beside it, ``amalgamate`` times
``amalgamate(assembly_diagram(g, assign))``, which builds the same
diagram and checks it in full before it glues, so the difference is what
the check costs.  The diagram shares its two template quivers and their
slot morphisms, and the check runs once per distinct quiver and ring of
incidences, not once per vertex.  Last it times the quiver writers,
`serialize(q)` and `export_dot(q)`, on the glued quiver.  On the
`higher_genus` graph it times `assembly_diagram` and `assemble_global`
with star templates, taken as given: ``shared`` is one `star_template`
per valency, shared by the vertices of that valency, and ``copies`` is a
new `star_template` at every vertex, each assignment built outside the
clock, once per repeat, for both stages.  It prints,
per family and stage, the best and the median time and the best time as
a ratio to the best `json.loads`.  Each repeat decodes, builds and
assembles afresh, so no stage meets a graph, quiver or string an earlier
repeat has used.

It then times the writers of values that hold a quiver, where the JSON
encoder writes the nested quiver: `serialize` of each built-in template
and of the ``four_gon`` diagram that `assembly_diagram` builds from the
``four_gon_a2_templates`` assignment, interleaved over 2000 repeats, and
prints the best and the median time of each.

The library is imported from ``src/`` next to this directory and the
generator loaded from ``bench/gen.py`` by path; neither is changed.
Standard library only.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ribboncalc.assembly import (  # noqa: E402
    BUILTIN_TEMPLATE_NAMES,
    assemble_global,
    assembly_diagram,
    builtin_template,
    star_template,
)
from ribboncalc.graph import RibbonGraph, subgraph, surface_invariants  # noqa: E402
from ribboncalc.quiver import amalgamate  # noqa: E402
from ribboncalc.serialization import (  # noqa: E402
    export_dot,
    graph_dot,
    graph_from_jsonable,
    parse_assignments,
    parse_graph,
    serialize,
)

VERTICES, REPEATS, SEED = 4000, 40, 1
STAGES = (
    "json.loads", "graph_from_jsonable", "validate_graph", "surface_invariants", "serialize",
    "graph_dot",
)
QUIVER_FAMILY = "trivalent_punctured"
QUIVER_STAGES = (
    "edges()", "subgraph", "assemble_global", "amalgamate", "serialize(q)", "export_dot(q)",
)
STAR_FAMILY = "higher_genus"
STAR_STAGES = (
    "assembly_diagram shared", "assemble_global shared",
    "assembly_diagram copies", "assemble_global copies",
)
BALL = 40
NESTED_REPEATS = 2000
FIXTURES = ROOT / "src" / "ribboncalc" / "fixtures"


def _load_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it builds `Spec`
    sys.modules[spec.name] = gen
    spec.loader.exec_module(gen)
    return gen


def _timed(times: dict, stage: str, fn, arg):
    """``fn(arg)``, its time recorded under ``stage``; the result is freed
    by the caller, after the clock has stopped."""
    start = time.perf_counter()
    result = fn(arg)
    times[stage] = time.perf_counter() - start
    return result


def _assignment(g) -> dict[str, str]:
    """Every singular vertex on a punctured 2-gon, every other on the
    rank-one trivalent template."""
    return {
        v: "punctured_2gon_T1" if g.kind(v) == "singular" else "rank1_trivalent"
        for v in g.vertices
    }


def _stars(g, shared: bool) -> dict:
    """A `star_template` at every vertex: one per valency when ``shared``,
    otherwise a new one at each vertex."""
    if not shared:
        return {v: star_template(g.valency(v)) for v in g.vertices}
    stars = {n: star_template(n) for n in {g.valency(v) for v in g.vertices}}
    return {v: stars[g.valency(v)] for v in g.vertices}


def _ball(g) -> list[str]:
    """The first `BALL` vertices that a breadth-first search from the
    smallest vertex meets, neighbours in ring order."""
    ball = [g.vertices[0]]
    for v in ball:  # grows as it is read
        for h in g.cyclic(v):
            t = g.twin_of(h)
            if t is not None and g.at_vertex(t) not in ball and len(ball) < BALL:
                ball.append(g.at_vertex(t))
    return ball


def measure(text: str, quiver: bool, stars: bool) -> dict[str, float]:
    """One time per stage for the graph written as ``text``, each stage fed
    by the one before, as a command line call feeds them; with ``quiver``,
    also its edge sort, its restriction to `_ball`, its assembly, checked
    and unchecked, and the quiver stages on that; with ``stars``, its
    diagram and assembly from shared and from copied star templates."""
    times: dict[str, float] = {}
    obj = _timed(times, "json.loads", json.loads, text)
    g = _timed(times, "graph_from_jsonable", graph_from_jsonable, obj)
    _timed(times, "validate_graph", RibbonGraph.validation_report, g)
    _timed(times, "surface_invariants", surface_invariants, g)
    _timed(times, "serialize", serialize, g)
    _timed(times, "graph_dot", graph_dot, g)
    if quiver:
        _timed(times, "edges()", RibbonGraph.edges, g)
        _timed(times, "subgraph", partial(subgraph, g), _ball(g))
        q = _timed(times, "assemble_global", partial(assemble_global, g), _assignment(g))
        _timed(times, "amalgamate", lambda a: amalgamate(assembly_diagram(g, a)), _assignment(g))
        _timed(times, "serialize(q)", serialize, q)
        _timed(times, "export_dot(q)", export_dot, q)
    if stars:
        for kind in ("shared", "copies"):
            assign = _stars(g, kind == "shared")
            _timed(times, "assembly_diagram " + kind, partial(assembly_diagram, g), assign)
            _timed(times, "assemble_global " + kind, partial(assemble_global, g), assign)
    return times


def main() -> int:
    gen = _load_gen()
    texts = {
        family: gen.to_text(gen.generate(family, VERTICES, "{}/io".format(SEED)))
        for family in gen.FAMILIES
    }
    for text in texts.values():
        if serialize(graph_from_jsonable(json.loads(text))) != text:
            raise SystemExit("serialize does not reproduce the generated text")
    extra = {QUIVER_FAMILY: QUIVER_STAGES, STAR_FAMILY: STAR_STAGES}
    times = {
        family: {stage: [] for stage in STAGES + extra.get(family, ())} for family in texts
    }
    for _ in range(REPEATS):
        for family, text in texts.items():
            measured = measure(text, family == QUIVER_FAMILY, family == STAR_FAMILY)
            for stage, t in measured.items():
                times[family][stage].append(t)

    print("V={} repeats={} seed={} python={}".format(
        VERTICES, REPEATS, SEED, sys.version.split()[0]))
    print("{:<20} {:<24} {:>9} {:>9} {:>7}".format(
        "family", "stage", "best ms", "p50 ms", "ratio"))
    for family, stages in times.items():
        base = min(stages["json.loads"])
        for stage, ts in stages.items():
            print("{:<20} {:<24} {:>9.2f} {:>9.2f} {:>7.2f}".format(
                family, stage, 1e3 * min(ts), 1e3 * statistics.median(ts), min(ts) / base))
    measure_nested()
    return 0


def measure_nested() -> None:
    """Time `serialize` of each built-in template and of the ``four_gon``
    diagram, interleaved, and print the best and the median time."""
    g = parse_graph((FIXTURES / "four_gon.json").read_text())
    assign = parse_assignments((FIXTURES / "four_gon_a2_templates.json").read_text())
    values = {name: builtin_template(name) for name in BUILTIN_TEMPLATE_NAMES}
    values["four_gon diagram"] = assembly_diagram(g, assign)
    times: dict[str, list[float]] = {name: [] for name in values}
    for _ in range(NESTED_REPEATS):
        for name, value in values.items():
            start = time.perf_counter()
            serialize(value)
            times[name].append(time.perf_counter() - start)
    print()
    print("serialize of nested quivers, repeats={}".format(NESTED_REPEATS))
    print("{:<20} {:>9} {:>9}".format("value", "best us", "p50 us"))
    for name, ts in times.items():
        print("{:<20} {:>9.1f} {:>9.1f}".format(name, 1e6 * min(ts), 1e6 * statistics.median(ts)))


if __name__ == "__main__":
    sys.exit(main())
