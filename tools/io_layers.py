"""Time the graph I/O layers against the JSON decoder that feeds them.

    python3 tools/io_layers.py

It takes no arguments: given any, it prints its usage line and exits 2.
For one graph of each `bench/gen.py` family, at V=4000 and seed 1, it
times `json.loads`, `graph_from_jsonable`, the checking `RibbonGraph`
constructor, `validate_graph`, `surface_invariants`, `serialize` and
`graph_dot`, interleaved in one process over 40 repeats: each repeat runs
every stage once on every graph, so a change of host speed touches all
stages alike.  The constructor is given the rings, twins, kinds and
labels of the decoded object, in input order, as the parser's located
pass hands them over; they are read outside the clock, and the graph it
builds is dropped.  `validate_graph` keeps its report on the graph, as
`require_valid` reads it, so `surface_invariants` times itself alone, as
in ``cli info``.
A graph sorts `vertices` and `halfedges` on first read and keeps them,
and sorts its edge tables on each call, so the stages pay for the sorts
in this order: the builds, validation and `surface_invariants` read
none; `serialize` sorts `vertices` and `halfedges`; `graph_dot` sorts
`edges()`, in one sort over the internal and the external edges.  On the
`trivalent_punctured` graph it then times `edges()` alone,
the sort each later reader repeats; `subgraph` of a fixed 40-vertex ball,
grown breadth-first from the smallest vertex, which restricts the graph's
tables and validates the piece; and `assemble_global`, with every
singular vertex on ``punctured_2gon_T1`` and every other on
``rank1_trivalent``.  The assembly sorts `edges()` once, to build the
diagram, and glues in one pass over the diagram's edge table, which it
does not sort.  Beside it, ``amalgamate`` times
``amalgamate(assembly_diagram(g, assign))``, the same work by the public
steps: the diagram is built without a check, and gluing checks only the
qualified ids and builds its quiver from the indexes it fills.
``IceQuiver(q)`` times the checking constructor on the vertices and
arrows of the glued quiver, ``IceQuiver(q.vertices, q.arrows)``: the
pass over every glued vertex and arrow that gluing no longer makes.
A diagram checks itself when it is built, so ``AmalgamationDiagram``
times the constructor on the tables of that diagram, built outside the
clock: it checks every vertex and every incidence, although the diagram
shares its two template quivers and their slots.  ``copy.copy(d)`` times
a shallow copy of that diagram, and ``pickle d`` a `pickle.dumps` and
`pickle.loads` round trip of it at the default protocol; a copy stores
the diagram's field values and runs no check, so neither stage should
cost what the constructor does.  ``json.loads diagram``
times the decode of that diagram's canonical text, written outside the
clock, and ``parse_diagram`` its parse, which decodes it, builds each
distinct quiver once and a morphism per incidence, and checks the
diagram; before any timing, the parse of that text must serialize back
to it.  Last it times the quiver writers, `serialize(q)`
and `export_dot(q)`, on the glued quiver; between them, ``json.loads
quiver`` times the decode of the text `serialize(q)` wrote and
``parse_quiver`` its parse, which must serialize back to it before any
timing.  On the
`higher_genus` graph it times `assembly_diagram` and `assemble_global`
with star templates, taken as given: ``shared`` is one `star_template`
per valency, shared by the vertices of that valency, and ``copies`` is a
new `star_template` at every vertex, each assignment built once per
repeat, for both stages.  ``shared`` is built outside the clock, and
``star_template`` times building ``copies``, which checks every template
it builds, each slot morphism once.  A copy brings its own slot
morphisms, so ``copies`` differs from ``shared`` in the reversal
identifications, one per distinct pair of slots across an edge.  It prints,
per family and stage, the best and the median time, the best time as a
ratio to the best `json.loads` of the stage's own text: the graph's, for
``parse_diagram`` the diagram's and for ``parse_quiver`` the quiver's, and
the stage's total of the
collector's generation-2 passes over all repeats, read from
`gc.get_stats` before the clock starts and after it stops; the collector
is only read, never called.  A generation-2 pass walks the whole live
heap, and one that falls inside a timed call lands in that call's time,
so the p50 column compares across stages or runs only where the gen2
column reads alike; the best-of column is mostly free of such passes.
Each repeat decodes, builds and assembles afresh, so no stage meets a
graph, quiver or string an earlier repeat has used.

It then times the writers of values that hold a quiver, where the JSON
encoder writes the nested quiver: `serialize` of each built-in template
and of the ``four_gon`` diagram that `assembly_diagram` builds from the
``four_gon_a2_templates`` assignment, interleaved over 2000 repeats, and
prints the best and the median time of each.

After those it times ``cli.main(["assemble", ...])`` in process, over 15
repeats, on the V=2000 `higher_genus` graph of seed ``probe/1`` with the
`serialize`d `star_template` of its valency inline at every vertex of a
templates file: 10 distinct templates in 2000 copies, about 1.5 MB.  Both
files are written to a temporary directory, and the command's output is
kept in memory.  It prints the best and the median time.

The library is imported from ``src/`` next to this directory and the
generator loaded from ``bench/gen.py`` by path; neither is changed.
Standard library only.
"""

from __future__ import annotations

import copy
import gc
import importlib.util
import json
import pickle
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ribboncalc import cli  # noqa: E402
from ribboncalc.assembly import (  # noqa: E402
    BUILTIN_TEMPLATE_NAMES,
    assemble_global,
    assembly_diagram,
    builtin_template,
    star_template,
)
from ribboncalc.graph import (  # noqa: E402
    RibbonGraph,
    subgraph,
    surface_invariants,
    validate_graph,
)
from ribboncalc.quiver import AmalgamationDiagram, IceQuiver, amalgamate  # noqa: E402
from ribboncalc.serialization import (  # noqa: E402
    export_dot,
    graph_dot,
    graph_from_jsonable,
    parse_assignments,
    parse_diagram,
    parse_graph,
    parse_quiver,
    serialize,
)

VERTICES, REPEATS, SEED = 4000, 40, 1
STAGES = (
    "json.loads", "graph_from_jsonable", "RibbonGraph", "validate_graph", "surface_invariants",
    "serialize", "graph_dot",
)
QUIVER_FAMILY = "trivalent_punctured"
QUIVER_STAGES = (
    "edges()", "subgraph", "assemble_global", "amalgamate", "IceQuiver(q)",
    "AmalgamationDiagram", "copy.copy(d)", "pickle d", "json.loads diagram", "parse_diagram",
    "serialize(q)", "json.loads quiver", "parse_quiver", "export_dot(q)",
)
# the decode each stage's ratio is taken to, when it is not the graph's
RATIO_BASE = {"parse_diagram": "json.loads diagram", "parse_quiver": "json.loads quiver"}
STAR_FAMILY = "higher_genus"
STAR_STAGES = (
    "assembly_diagram shared", "assemble_global shared",
    "star_template", "assembly_diagram copies", "assemble_global copies",
)
BALL = 40
NESTED_REPEATS = 2000
CLI_VERTICES, CLI_SEED, CLI_REPEATS = 2000, "probe/1", 15
FIXTURES = ROOT / "src" / "ribboncalc" / "fixtures"


def _load_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it builds `Spec`
    sys.modules[spec.name] = gen
    spec.loader.exec_module(gen)
    return gen


def _timed(times: dict, stage: str, fn, arg):
    """``fn(arg)``, its time and the collector's generation-2 passes during
    it recorded under ``stage``; the result is freed by the caller, after
    the clock has stopped."""
    passes = gc.get_stats()[2]["collections"]
    start = time.perf_counter()
    result = fn(arg)
    elapsed = time.perf_counter() - start
    times[stage] = elapsed, gc.get_stats()[2]["collections"] - passes
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


def _tables(obj: dict) -> tuple:
    """The rings, twins, kinds and labels of a decoded graph object."""
    vertices, halfedges = obj["vertices"], obj["halfedges"]
    return (
        {e["id"]: e["cyclic"] for e in vertices},
        {e["id"]: e["twin"] for e in halfedges if e["twin"] is not None},
        {e["id"]: e["kind"] for e in vertices},
        {e["id"]: e["label"] for e in vertices if "label" in e},
    )


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


def measure(text: str, quiver: bool, stars: bool) -> dict[str, tuple[float, int]]:
    """One time and count of generation-2 passes per stage for the graph
    written as ``text``, each stage fed
    by the one before, as a command line call feeds them; with ``quiver``,
    also its edge sort, its restriction to `_ball`, its assembly, the
    checked rebuild of the glued quiver, its diagram built and parsed,
    each with the check, its copy and pickle round trip, the decode of
    the diagram's text, and the quiver stages on that, the glued quiver's
    text decoded and parsed among them; with ``stars``,
    its diagram and assembly from shared and from copied star templates,
    and the build of the copies."""
    times: dict[str, tuple[float, int]] = {}
    obj = _timed(times, "json.loads", json.loads, text)
    g = _timed(times, "graph_from_jsonable", graph_from_jsonable, obj)
    _timed(times, "RibbonGraph", lambda tables: RibbonGraph(*tables), _tables(obj))
    _timed(times, "validate_graph", validate_graph, g)
    _timed(times, "surface_invariants", surface_invariants, g)
    _timed(times, "serialize", serialize, g)
    _timed(times, "graph_dot", graph_dot, g)
    if quiver:
        _timed(times, "edges()", RibbonGraph.edges, g)
        _timed(times, "subgraph", partial(subgraph, g), _ball(g))
        q = _timed(times, "assemble_global", partial(assemble_global, g), _assignment(g))
        _timed(times, "amalgamate", lambda a: amalgamate(assembly_diagram(g, a)), _assignment(g))
        _timed(times, "IceQuiver(q)", lambda q: IceQuiver(q.vertices, q.arrows), q)
        d = assembly_diagram(g, _assignment(g))
        tables = d.graph, d.vertex_quivers, d.edge_quivers, d.incidences
        _timed(times, "AmalgamationDiagram", lambda t: AmalgamationDiagram(*t), tables)
        _timed(times, "copy.copy(d)", copy.copy, d)
        _timed(times, "pickle d", lambda d: pickle.loads(pickle.dumps(d)), d)
        diagram = serialize(d)
        _timed(times, "json.loads diagram", json.loads, diagram)
        _timed(times, "parse_diagram", parse_diagram, diagram)
        quiver_text = _timed(times, "serialize(q)", serialize, q)
        _timed(times, "json.loads quiver", json.loads, quiver_text)
        _timed(times, "parse_quiver", parse_quiver, quiver_text)
        _timed(times, "export_dot(q)", export_dot, q)
    if stars:
        for kind in ("shared", "copies"):
            if kind == "shared":
                assign = _stars(g, True)
            else:
                assign = _timed(times, "star_template", partial(_stars, g), False)
            _timed(times, "assembly_diagram " + kind, partial(assembly_diagram, g), assign)
            _timed(times, "assemble_global " + kind, partial(assemble_global, g), assign)
    return times


def main(argv: list[str]) -> int:
    if argv:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    gen = _load_gen()
    texts = {
        family: gen.to_text(gen.generate(family, VERTICES, "{}/io".format(SEED)))
        for family in gen.FAMILIES
    }
    for family, text in texts.items():
        obj = json.loads(text)
        g = graph_from_jsonable(obj)
        if serialize(g) != text:
            raise SystemExit("serialize does not reproduce the generated text")
        if RibbonGraph(*_tables(obj)) != g:
            raise SystemExit("the constructor does not build the parsed graph")
        if family == QUIVER_FAMILY:
            diagram = serialize(assembly_diagram(g, _assignment(g)))
            if serialize(parse_diagram(diagram)) != diagram:
                raise SystemExit("serialize does not reproduce the parsed diagram")
            quiver = serialize(assemble_global(g, _assignment(g)))
            if serialize(parse_quiver(quiver)) != quiver:
                raise SystemExit("serialize does not reproduce the parsed quiver")
    extra = {QUIVER_FAMILY: QUIVER_STAGES, STAR_FAMILY: STAR_STAGES}
    times = {
        family: {stage: [] for stage in STAGES + extra.get(family, ())} for family in texts
    }
    gen2 = {family: dict.fromkeys(stages, 0) for family, stages in times.items()}
    for _ in range(REPEATS):
        for family, text in texts.items():
            measured = measure(text, family == QUIVER_FAMILY, family == STAR_FAMILY)
            for stage, (t, passes) in measured.items():
                times[family][stage].append(t)
                gen2[family][stage] += passes

    print("V={} repeats={} seed={} python={}".format(
        VERTICES, REPEATS, SEED, sys.version.split()[0]))
    print("{:<20} {:<24} {:>9} {:>9} {:>7} {:>5}".format(
        "family", "stage", "best ms", "p50 ms", "ratio", "gen2"))
    for family, stages in times.items():
        for stage, ts in stages.items():
            base = min(stages[RATIO_BASE.get(stage, "json.loads")])
            print("{:<20} {:<24} {:>9.2f} {:>9.2f} {:>7.2f} {:>5}".format(
                family, stage, 1e3 * min(ts), 1e3 * statistics.median(ts), min(ts) / base,
                gen2[family][stage]))
    measure_nested()
    measure_cli_assemble(gen)
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


def measure_cli_assemble(gen) -> None:
    """Time in-process ``cli assemble`` with an inline star template at
    every vertex, and print the best and the median time."""
    text = gen.to_text(gen.generate(STAR_FAMILY, CLI_VERTICES, CLI_SEED))
    g = parse_graph(text)
    stars = {n: json.loads(serialize(star_template(n))) for n in set(map(g.valency, g.vertices))}
    templates = json.dumps({"assignments": {v: stars[g.valency(v)] for v in g.vertices}})
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        graph_file, templates_file = Path(tmp, "graph.json"), Path(tmp, "templates.json")
        graph_file.write_text(text)
        templates_file.write_text(templates)
        argv = ["assemble", "--graph", str(graph_file), "--templates", str(templates_file)]
        for _ in range(CLI_REPEATS):
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                start = time.perf_counter()
                code = cli.main(argv)
                times.append(time.perf_counter() - start)
            if code != 0:
                raise SystemExit("cli assemble exited with {}".format(code))
    print()
    print("cli assemble, {} V={} seed={}, {} distinct inline templates, {} bytes, "
          "repeats={}".format(STAR_FAMILY, CLI_VERTICES, CLI_SEED, len(stars),
                              len(templates), CLI_REPEATS))
    print("{:<20} {:>9} {:>9}".format("stage", "best ms", "p50 ms"))
    print("{:<20} {:>9.1f} {:>9.1f}".format(
        "cli assemble", 1e3 * min(times), 1e3 * statistics.median(times)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
