"""Loading graphs whose input is not in canonical order.

`serialize` writes every ring from its smallest halfedge and every list
sorted, and the graph builder keeps such rings and orders as they are, so
tests that parse serialized text never reach its rotation of a ring or
its sort of unsorted ids.  Here every sample graph is written with its
rings rotated off their smallest halfedge and its lists shuffled, and the
parsed graph must be the one the public constructor builds from the same
tables.  The predecessor table is built on the first counterclockwise
use, so a graph walked only clockwise never builds it.  Valid JSON, in
canonical order or not, never reaches the element-by-element pass that
locates parse errors.  Every presentation of a graph, the keys of each
entry and of the constructor's tables shuffled too, builds the same
tables through the parser, the constructor and the located pass, and a
dual has the tables the constructor builds from the reversed rings.
"""

import json
import random

from ribboncalc import (
    CCW,
    CW,
    RibbonGraph,
    dual,
    itinerary,
    parse_graph,
    serialize,
    to_jsonable,
)
from ribboncalc import serialization

from conftest import GRAPH_FIXTURES, fixture_text, sample_graphs


def _scrambled(g: RibbonGraph, rng: random.Random) -> dict:
    """The graph object of ``g`` with each ring of two or more halfedges
    rotated off its smallest one and both lists shuffled."""
    obj = to_jsonable(g)
    for entry in obj["vertices"]:
        ring = entry["cyclic"]
        if len(ring) > 1:
            k = rng.randrange(1, len(ring))
            entry["cyclic"] = ring[k:] + ring[:k]
    rng.shuffle(obj["halfedges"])
    rng.shuffle(obj["vertices"])
    return obj


def _constructed(obj: dict) -> RibbonGraph:
    vertices = obj["vertices"]
    return RibbonGraph(
        {e["id"]: e["cyclic"] for e in vertices},
        {e["id"]: e["twin"] for e in obj["halfedges"] if e["twin"] is not None},
        {e["id"]: e["kind"] for e in vertices},
        {e["id"]: e["label"] for e in vertices if "label" in e},
    )


def test_scrambled_input_parses_to_the_constructed_graph():
    rng = random.Random(9)
    rotated = shuffled = 0
    for g in sample_graphs():
        obj = _scrambled(g, rng)
        rotated += sum(e["cyclic"][0] != min(e["cyclic"]) for e in obj["vertices"])
        shuffled += [e["id"] for e in obj["halfedges"]] != list(g.halfedges)
        parsed = parse_graph(json.dumps(obj))
        built = _constructed(obj)
        assert parsed == built == g
        assert parsed.vertices == built.vertices == g.vertices
        assert parsed.halfedges == built.halfedges == g.halfedges
        assert parsed.edges() == built.edges()
        assert parsed.internal_edges() == built.internal_edges()
        assert parsed.external_edges() == built.external_edges()
        for v in g.vertices:
            assert parsed.cyclic(v) == built.cyclic(v) == g.cyclic(v)
        for h in g.halfedges:
            assert parsed.ccw_next(h) == built.ccw_next(h)
            assert parsed.cw_next(h) == built.cw_next(h)
        assert parsed.validation_report() == built.validation_report()
        assert serialize(parsed) == serialize(g)
    # the rotation and the sort of unsorted ids were both reached
    assert rotated and shuffled


def test_the_predecessor_table_is_built_on_first_counterclockwise_use():
    for g in sample_graphs():
        parsed = parse_graph(serialize(g))
        built = _constructed(to_jsonable(g))
        for h in g.halfedges:
            assert itinerary(parsed, h, CW) == itinerary(built, h, CW)
        assert parsed._prev is None
        for h in g.halfedges:
            assert itinerary(parsed, h, CCW) == itinerary(built, h, CCW)
        assert parsed._prev is not None
        flipped, flipped_built = dual(parse_graph(serialize(g))), dual(built)
        assert flipped == flipped_built
        for h in g.halfedges:
            assert flipped.ccw_next(h) == parsed.cw_next(h)
            assert itinerary(flipped, h, CW) == itinerary(flipped_built, h, CW)


def test_valid_json_never_reaches_the_located_pass(monkeypatch):
    located = []
    locate = serialization._locate_graph_error
    monkeypatch.setattr(
        serialization,
        "_locate_graph_error",
        lambda obj, pointer: located.append(pointer) or locate(obj, pointer),
    )
    rng = random.Random(9)
    texts = [fixture_text(name) for name in GRAPH_FIXTURES]
    for g in sample_graphs():
        texts += [serialize(g), json.dumps(_scrambled(g, rng))]
    for text in texts:
        parse_graph(text)
    assert len(texts) > 200 and located == []


class _Str(str):
    pass


def _presented(g: RibbonGraph, rng: random.Random) -> tuple[dict, tuple]:
    """Another presentation of ``g``: its graph object with every ring of
    two or more halfedges rotated off its smallest one, both lists and the
    keys of every entry shuffled, and the public constructor's arguments
    with the keys of ``cyclic`` and ``twin`` shuffled too."""
    obj = _scrambled(g, rng)
    obj["vertices"] = [dict(rng.sample(list(e.items()), len(e))) for e in obj["vertices"]]
    obj["halfedges"] = [dict(rng.sample(list(e.items()), len(e))) for e in obj["halfedges"]]
    vertices = rng.sample(obj["vertices"], len(obj["vertices"]))
    halfedges = rng.sample(obj["halfedges"], len(obj["halfedges"]))
    args = (
        {e["id"]: e["cyclic"] for e in vertices},
        {e["id"]: e["twin"] for e in halfedges if e["twin"] is not None},
        {e["id"]: e["kind"] for e in vertices},
        {e["id"]: e["label"] for e in vertices if "label" in e},
    )
    return obj, args


def _tables(g: RibbonGraph) -> tuple:
    return (
        g._cyclic, g._next, g._at, g._twin, g._kind, g._label, g.vertices, g.halfedges,
        g.edges(), g.internal_edges(), g.external_edges(),
    )


def test_every_presentation_builds_the_same_tables(monkeypatch):
    located = []
    locate = serialization._locate_graph_error
    monkeypatch.setattr(
        serialization,
        "_locate_graph_error",
        lambda obj, pointer: located.append(pointer) or locate(obj, pointer),
    )
    rng = random.Random(21)
    for g in sample_graphs():
        text = serialize(g)
        for _ in range(3):
            obj, args = _presented(g, rng)
            parsed, built = parse_graph(json.dumps(obj)), RibbonGraph(*args)
            assert parsed == built == g
            assert _tables(parsed) == _tables(built) == _tables(g)
            assert serialize(parsed) == serialize(built) == text
            # the reversed rings of the dual, given to the constructor
            flipped = RibbonGraph({v: ring[::-1] for v, ring in args[0].items()}, *args[1:])
            assert _tables(dual(parsed)) == _tables(flipped)
        assert located == []
        # exact types only on the fast path: a `str` subclass is located
        sub = serialization.graph_from_jsonable(
            dict(obj, vertices=[dict(e, id=_Str(e["id"])) for e in obj["vertices"]])
        )
        assert located == [""]
        located.clear()
        assert _tables(sub) == _tables(g) and serialize(sub) == text


def test_a_parsed_graph_holds_one_string_object_per_halfedge_id():
    rng = random.Random(5)
    for g in sample_graphs():
        for text in (serialize(g), json.dumps(_scrambled(g, rng))):
            parsed = parse_graph(text)
            entries = {h: h for ring in parsed._cyclic.values() for h in ring}
            for table in (
                parsed.halfedges, parsed.edges(), parsed._at, parsed._next,
                parsed._next.values(), parsed._twin, parsed._twin.values(),
            ):
                assert all(h is entries[h] for h in table)
