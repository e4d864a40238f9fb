import importlib.util
import os
import random
import subprocess
import sys
from importlib import resources
from operator import attrgetter
from pathlib import Path

import pytest

from randgraphs import random_graph
import ribboncalc
from ribboncalc import (
    AmalgamationDiagram,
    IceQuiver,
    LocalTemplate,
    QuiverArrow,
    QuiverMorphism,
    QuiverVertex,
    RibbonGraph,
    dual,
    parse_graph,
    star_template,
)
from ribboncalc.quiver import _refine

GRAPH_FIXTURES = ("two_spider", "three_spider", "four_gon", "annulus", "once_punctured_4gon")


def fixture_path(name: str) -> str:
    return str(resources.files("ribboncalc").joinpath("fixtures", name + ".json"))


def fixture_text(name: str) -> str:
    return Path(fixture_path(name)).read_text()


def fixture_graph(name: str) -> RibbonGraph:
    return parse_graph(fixture_text(name))


def bench_gen():
    """The benchmark's graph generator, ``bench/gen.py``, loaded by path
    once per session."""
    gen = sys.modules.get("bench_gen")
    if gen is None:
        path = Path(__file__).parent.parent / "bench" / "gen.py"
        spec = importlib.util.spec_from_file_location("bench_gen", path)
        gen = importlib.util.module_from_spec(spec)
        # dataclasses looks the module up by name while it builds `Spec`
        sys.modules[spec.name] = gen
        spec.loader.exec_module(gen)
    return gen


def bench_graph(family: str, n: int, seed) -> RibbonGraph:
    """The ``bench/gen.py`` graph of ``family`` with about ``n`` vertices,
    drawn with ``seed`` and parsed from its canonical text."""
    gen = bench_gen()
    return parse_graph(gen.to_text(gen.generate(family, n, seed)))


def ring_steps(g: RibbonGraph) -> tuple[dict[str, str], dict[str, str]]:
    """Each halfedge's successor and predecessor in the counterclockwise
    order of its vertex, read once off the public rings of ``g``, for an
    oracle that steps the graph many times."""
    succ, pred = {}, {}
    for v in g.vertices:
        ring = g.cyclic(v)
        for p, h in zip(ring[-1:] + ring[:-1], ring):
            succ[p], pred[h] = h, p
    return succ, pred


def ext_twin(g: RibbonGraph, h: str) -> str:
    """The twin involution of ``g`` extended to fix external halfedges."""
    t = g.twin_of(h)
    return h if t is None else t


def external_edges(g: RibbonGraph) -> tuple[str, ...]:
    """The external edges of ``g``, sorted: its edges that are external
    halfedges."""
    return tuple(e for e in g.edges() if g.is_external(e))


def vertex_ids(q: IceQuiver) -> tuple[str, ...]:
    """The vertex ids of ``q``, sorted."""
    return tuple(v.id for v in q.vertices)


def frozen_ids(q: IceQuiver) -> tuple[str, ...]:
    """The ids of the frozen vertices of ``q``, sorted."""
    return tuple(v.id for v in q.vertices if v.frozen)


def run_python(code: str, *args: str, options: tuple = ()) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this package,
    started with the interpreter ``options``."""
    src = str(Path(ribboncalc.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *options, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def sample_graphs() -> list[RibbonGraph]:
    """Every graph fixture and 60 seeded random graphs, each followed by
    its dual."""
    rng = random.Random(4)
    graphs = [fixture_graph(name) for name in GRAPH_FIXTURES]
    graphs += [random_graph(rng) for _ in range(60)]
    return [h for g in graphs for h in (g, dual(g))]


def shuffled_diagram(d: AmalgamationDiagram, rng: random.Random) -> AmalgamationDiagram:
    """``d`` with its edge quivers and incidences listed in a seeded order."""
    edges, incidences = list(d.edge_quivers.items()), list(d.incidences.items())
    rng.shuffle(edges)
    rng.shuffle(incidences)
    return AmalgamationDiagram(d.graph, d.vertex_quivers, dict(edges), dict(incidences))


def extra_key_tables() -> dict:
    """The fields of a diagram that `AmalgamationDiagram` refuses, by name.
    Vertices ``v`` and ``w`` are joined by the edge ``h``/``k``, each with a
    stub, and carry one quiver: mutable ``m`` and frozen ``a``, ``b`` and
    ``c``, with the frozen arrow ``a -> b``.  Every interface is the frozen
    point ``u``.  A stub maps ``u`` to ``c``; ``h`` and ``k`` map it to ``a``
    and also send a key ``extra``, which the point lacks, to ``b``, so the
    map's values are the component {a, b}."""
    g = RibbonGraph({"v": ("h", "x"), "w": ("k", "y")}, {"h": "k", "k": "h"})
    q = IceQuiver(
        [QuiverVertex("m")] + [QuiverVertex(x, frozen=True) for x in "abc"],
        [QuiverArrow("ab", "a", "b", frozen=True)],
    )
    point = IceQuiver([QuiverVertex("u", frozen=True)], [])
    maps = {"h": {"u": "a", "extra": "b"}, "x": {"u": "c"}}
    maps.update(k=maps["h"], y=maps["x"])
    incidences = {h: QuiverMorphism(point, q, m, {}) for h, m in maps.items()}
    return {
        "graph": g,
        "vertex_quivers": {"v": q, "w": q},
        "edge_quivers": dict.fromkeys(g.edges(), point),
        "incidences": incidences,
    }


def colliding_assembly(part: str = "hub") -> tuple[RibbonGraph, dict[str, LocalTemplate]]:
    """Vertices ``a`` and ``a.b`` joined by one edge, with 2-valent star
    templates whose ``part``, the hub or the arrow ``s0``, is named ``b.c``
    at ``a`` and ``c`` at ``a.b``: both qualify to ``a.b.c``."""
    g = RibbonGraph({"a": ("x", "s"), "a.b": ("y", "r")}, {"x": "y", "y": "x"})
    return g, {"a": _two_star(part, "b.c"), "a.b": _two_star(part, "c")}


def _two_star(part: str, name: str) -> LocalTemplate:
    """`star_template(2)` with its vertex ``hub`` or its arrow ``s0``
    renamed ``name``."""
    star = star_template(2)
    hub = name if part == "hub" else "hub"
    quiver = IceQuiver(
        [QuiverVertex(hub) if v.id == "hub" else v for v in star.quiver.vertices],
        [QuiverArrow(name if a.id == part else a.id, hub, a.dst) for a in star.quiver.arrows],
    )
    slots = tuple(QuiverMorphism(s.source, quiver, s.vertex_map, s.arrow_map) for s in star.slots)
    return LocalTemplate("two_star", quiver, slots)


def same_labelled_quiver(nx, q1: IceQuiver, q2: IceQuiver) -> bool:
    """Whether ``q1`` and ``q2`` are isomorphic with frozen flags and labels
    of vertices and frozen flags of arrows kept.  Unless `quiver._refine`
    from frozen flags and labels tells them apart, networkx decides, and
    matches a vertex only to one of its colour, which every such
    isomorphism keeps, so it does not try every order of alike vertices."""
    refined = _refine((q1, q2), attrgetter("frozen", "label"))
    if refined is None:
        return False
    g1, g2 = _labelled_quiver(nx, q1), _labelled_quiver(nx, q2)
    for g, (colour, _) in zip((g1, g2), refined):
        nx.set_node_attributes(g, colour, "colour")
    return nx.is_isomorphic(g1, g2, node_match=lambda a, b: a == b, edge_match=_same_arrows)


def _labelled_quiver(nx, q: IceQuiver):
    """``q`` as a networkx multigraph whose nodes carry ``frozen`` and
    ``label`` and whose edges carry ``frozen``."""
    out = nx.MultiDiGraph()
    for v in q.vertices:
        out.add_node(v.id, frozen=v.frozen, label=v.label)
    for a in q.arrows:
        out.add_edge(a.src, a.dst, frozen=a.frozen)
    return out


def _same_arrows(a: dict, b: dict) -> bool:
    return sorted(d["frozen"] for d in a.values()) == sorted(d["frozen"] for d in b.values())


@pytest.fixture
def two_spider() -> RibbonGraph:
    return fixture_graph("two_spider")


@pytest.fixture
def three_spider() -> RibbonGraph:
    return fixture_graph("three_spider")


@pytest.fixture
def four_gon() -> RibbonGraph:
    return fixture_graph("four_gon")


@pytest.fixture
def annulus() -> RibbonGraph:
    return fixture_graph("annulus")


@pytest.fixture
def once_punctured_4gon() -> RibbonGraph:
    return fixture_graph("once_punctured_4gon")


@pytest.fixture
def a2_triangle_figure() -> IceQuiver:
    """The published A2 triangle quiver: one mutable center, three frozen
    pairs on the boundary, three frozen connecting arrows."""
    verts = [QuiverVertex(str(i), frozen=(i != 4)) for i in (1, 2, 3, 4, 5, 7, 8)]
    arrows = [
        QuiverArrow("x1", "2", "1"),
        QuiverArrow("x2", "1", "4"),
        QuiverArrow("x3", "4", "2"),
        QuiverArrow("x4", "4", "8"),
        QuiverArrow("x5", "7", "4"),
        QuiverArrow("x6", "5", "4"),
        QuiverArrow("x7", "4", "3"),
        QuiverArrow("x8", "3", "7"),
        QuiverArrow("x9", "8", "7", frozen=True),
        QuiverArrow("x10", "8", "5"),
        QuiverArrow("x11", "3", "1", frozen=True),
        QuiverArrow("x12", "2", "5", frozen=True),
    ]
    return IceQuiver(verts, arrows)


@pytest.fixture
def a2_four_gon_figure() -> IceQuiver:
    """The published 4-gon quiver obtained by gluing two A2 triangles."""
    frozen = {1, 3, 6, 7, 8, 9, 10, 11}
    verts = [QuiverVertex(str(i), frozen=(i in frozen)) for i in range(1, 13)]
    specs = [
        ("2", "1", False),
        ("1", "4", False),
        ("4", "2", False),
        ("4", "8", False),
        ("7", "4", False),
        ("5", "4", False),
        ("4", "3", False),
        ("3", "7", False),
        ("8", "7", True),
        ("8", "5", False),
        ("3", "1", True),
        ("2", "12", False),
        ("12", "5", False),
        ("10", "2", False),
        ("10", "11", True),
        ("12", "10", False),
        ("11", "12", False),
        ("12", "9", False),
        ("6", "12", False),
        ("9", "11", False),
        ("9", "6", True),
        ("5", "6", False),
    ]
    arrows = [
        QuiverArrow("y{}".format(i), s, d, frozen=f)
        for i, (s, d, f) in enumerate(specs, 1)
    ]
    return IceQuiver(verts, arrows)
