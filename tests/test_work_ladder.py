"""Work counted, not timed: each stage's count of Python line events in
the package's own code, at two sizes four times apart, grows by at most
4**1.1.  A count does not depend on the host's speed, so this gates how a
stage scales where a timing could not.  It cannot see work done in C,
such as `json`, `sorted` or the dict and set builtins, nor the record
methods that `_Record` writes by `exec`; it gates slopes and never backs a
claimed speed-up."""

import json
import os
import sys

import pytest

import ribboncalc
from conftest import bench_gen
from ribboncalc import (
    CCW,
    CW,
    IceQuiver,
    QuiverArrow,
    QuiverVertex,
    assemble_global,
    assembly_diagram,
    boundary_walks,
    parse_diagram,
    parse_graph,
    quivers_isomorphic,
    serialize,
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
