"""Work counted, not timed: each stage's count of Python line events in
the package's own code, at two sizes four times apart, grows by at most
4**1.1.  A count does not depend on the host's speed, so this gates how a
stage scales where a timing could not.  It cannot see work done in C,
such as `json`, `sorted` or the dict and set builtins, nor the record
methods that `_Record` writes by `exec`; it gates slopes and never backs a
claimed speed-up.

A second counter sees one kind of that C work: comparisons of ids.  Built
from `CountedId`, a `str` subclass whose ``==`` counts its calls, a
graph's ids count each comparison made in C as well, such as an `in` test
on a tuple of ids, which compares against every entry it passes.  A
container compares identical objects without calling ``==``, so a set or
dict lookup of an id the graph holds counts nothing; ``!=``, ``<`` and
hashing stay those of `str` and count nothing either.  On the star of
`shapes`, a decomposition at the centre counts the ids its hit reader
compares, which grows with the centre's valency per hit candidate when
the reader scans the centre's ring."""

import json
import os
import sys

import pytest

import ribboncalc
from conftest import bench_gen
from shapes import star
from ribboncalc import (
    CCW,
    CW,
    IceQuiver,
    QuiverArrow,
    QuiverVertex,
    VertexRef,
    assemble_global,
    assembly_diagram,
    boundary_walks,
    decompose,
    decompose_subgraph,
    parse_diagram,
    parse_graph,
    quivers_isomorphic,
    serialize,
    subgraph,
    tagged_triangulation,
    validate_graph,
    web_trajectory,
)
from ribboncalc.serialization import graph_from_jsonable

# the package's directory, as its code objects name their files
PACKAGE = os.path.dirname(ribboncalc.__file__) + os.sep
SIZES = (100, 400)
BOUND = 4 ** 1.1


def line_events(fn, *args) -> int:
    """The line events of ``fn(*args)`` in code under the package; the
    tracer in place before, if any, is restored afterwards."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


class CountedId(str):
    """An id whose ``==`` counts its calls in `CountedId.calls`."""

    calls = 0
    __hash__ = str.__hash__

    # no ``__ne__``: one written as ``not self.__eq__(other)`` negates the
    # ``NotImplemented`` that a non-string gives, which is true, so
    # ``cut != None`` would read false
    def __eq__(self, other):
        CountedId.calls += 1
        return str.__eq__(self, other)


def comparisons(fn, *args) -> int:
    """The calls of `CountedId`'s ``==`` made by ``fn(*args)``."""
    before = CountedId.calls
    fn(*args)
    return CountedId.calls - before


def _validated(text: str):
    g = parse_graph(text)
    validate_graph(g)
    return g


def _assignment(g) -> dict:
    """T1 at every puncture, the rank-one trivalent template elsewhere."""
    return {
        v: "punctured_2gon_T1" if g.kind(v) == "singular" else "rank1_trivalent"
        for v in g.vertices
    }


def _every_web(g) -> None:
    for v in g.vertices:
        for orient in (CW, CCW):
            web_trajectory(g, v, orient)


def _stages(n: int) -> dict:
    """Each stage on the ``trivalent_punctured`` graph of about ``n``
    vertices, as a function and its arguments, built outside the count;
    every graph is parsed afresh, so no stage reads another's memo."""
    gen = bench_gen()
    text = gen.to_text(gen.generate("trivalent_punctured", n, "1/io"))
    g = _validated(text)
    assign = _assignment(g)
    punctures = {v: "T1" for v in g.vertices if g.valency(v) == 2}
    q = assemble_global(g, assign)
    return {
        "graph_from_jsonable": (graph_from_jsonable, json.loads(text)),
        "validate_graph": (validate_graph, parse_graph(text)),
        "boundary_walks": (boundary_walks, _validated(text)),
        "web_trajectory": (_every_web, _validated(text)),
        "assemble_global": (assemble_global, _validated(text), assign),
        "parse_diagram": (parse_diagram, serialize(assembly_diagram(g, assign))),
        "tagged_triangulation": (tagged_triangulation, _validated(text), punctures),
        "quivers_isomorphic": (quivers_isomorphic, q, q),
    }


def _path(n: int) -> IceQuiver:
    vertices = [QuiverVertex("p{}".format(i)) for i in range(n)]
    arrows = [
        QuiverArrow("a{}".format(i), "p{}".format(i), "p{}".format(i + 1)) for i in range(n - 1)
    ]
    return IceQuiver(vertices, arrows)


@pytest.fixture(scope="module")
def counts() -> dict:
    """Each stage's line events at each of `SIZES`."""
    counts = {}
    for n in SIZES:
        for stage, (fn, *args) in _stages(n).items():
            counts.setdefault(stage, []).append(line_events(fn, *args))
    return counts


STAGES = (
    "graph_from_jsonable", "validate_graph", "boundary_walks", "web_trajectory",
    "assemble_global", "parse_diagram", "tagged_triangulation", "quivers_isomorphic",
)


@pytest.mark.parametrize("stage", STAGES)
def test_each_stage_scales_close_to_linearly(counts, stage):
    small, large = counts[stage]
    assert small > 0 and large / small <= BOUND, (stage, small, large)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: colour refinement re-signs every vertex in every round, "
    "so the path takes about n/2 rounds"
))
def test_isomorphism_of_a_directed_path_scales_close_to_linearly():
    small, large = (line_events(quivers_isomorphic, q, q) for q in map(_path, (25, 100)))
    assert large / small <= BOUND, (small, large)


def _star_queries(n: int) -> dict:
    """Two decompositions at the centre of the star of valency ``n``, with
    `CountedId` ids, each as a function and its arguments, on a graph
    already walked by a first call of each."""
    g = star(n, CountedId)
    c = VertexRef(g.vertices[0])  # the centre, ``c``, sorts first
    queries = {
        "decompose": (decompose, g, c, c),
        "decompose_subgraph": (decompose_subgraph, g, subgraph(g, [c.id]), c),
    }
    for fn, *args in queries.values():
        fn(*args)
    return queries


@pytest.mark.parametrize("query", ("decompose", "decompose_subgraph"))
def test_a_decomposition_at_a_star_centre_compares_ids_close_to_linearly(query):
    small, large = (comparisons(*_star_queries(n)[query]) for n in SIZES)
    assert large <= BOUND * small, (query, small, large)


def test_a_count_does_not_change_between_runs(counts):
    fn, *args = _stages(SIZES[0])["assemble_global"]
    assert line_events(fn, *args) == counts["assemble_global"][0]


def test_the_previous_tracer_is_restored():
    def tracer(frame, event, arg):
        return None

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        line_events(_path, 3)
        assert sys.gettrace() is tracer
    finally:
        sys.settrace(outer)
