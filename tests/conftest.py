import copy
import functools
import importlib.util
import json
import os
import random
import subprocess
import sys
from importlib import resources
from operator import attrgetter
from pathlib import Path

import pytest

from randgraphs import random_graph, trivalent_graph
import ribboncalc
from ribboncalc import (
    BUILTIN_TEMPLATE_NAMES,
    AmalgamationDiagram,
    IceQuiver,
    LocalTemplate,
    QuiverArrow,
    QuiverMorphism,
    QuiverVertex,
    RibbonGraph,
    assemble_global,
    assembly_diagram,
    builtin_template,
    dual,
    parse_assignments,
    parse_graph,
    star_template,
    to_jsonable,
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


def ball(g: RibbonGraph, centre: str, size: int) -> list[str]:
    """The first ``size`` vertices that a breadth-first search of ``g``
    from ``centre`` meets, neighbours in ring order."""
    out = [centre]
    for v in out:  # grows as it is read
        for h in g.cyclic(v):
            t = g.twin_of(h)
            if t is not None and g.at_vertex(t) not in out:
                out.append(g.at_vertex(t))
                if len(out) == size:
                    return out
    return out


def _punctured_path(n: int) -> RibbonGraph:
    """n trivalent vertices in a row, each with a stub and the ends with
    two, with a singular 2-valent puncture on every third link."""
    cyclic, twin, kinds = {}, {}, {}

    def join(a, b):
        twin[a], twin[b] = b, a

    for i in range(n):
        ring = ["s{}".format(i)]
        if i > 0:
            ring.append("l{}".format(i))
        ring.append("r{}".format(i) if i < n - 1 else "t")
        if i == 0:
            ring.append("u")
        cyclic["v{}".format(i)] = ring
    for i in range(1, n):
        if i % 3:
            join("r{}".format(i - 1), "l{}".format(i))
        else:
            p = "p{}".format(i)
            cyclic[p] = [p + "a", p + "b"]
            kinds[p] = "singular"
            join("r{}".format(i - 1), p + "a")
            join(p + "b", "l{}".format(i))
    return RibbonGraph(cyclic, twin, kinds)


def _builtin_assignments(g: RibbonGraph, rng: random.Random) -> list[dict]:
    """Built-in assignments that fit ``g``'s valencies: rank1 on trivalent
    vertices with a random punctured 2-gon on 2-valent ones, and each
    built-in alone where it fits every vertex."""
    valencies = {g.valency(v) for v in g.vertices}
    out = []
    if valencies <= {2, 3}:
        out.append({
            v: "rank1_trivalent" if g.valency(v) == 3
            else "punctured_2gon_T{}".format(rng.randint(1, 4))
            for v in g.vertices
        })
    for name in BUILTIN_TEMPLATE_NAMES:
        if valencies == {builtin_template(name).valency}:
            out.append({v: name for v in g.vertices})
    return out


def _punctured_assignment(g: RibbonGraph, rng: random.Random) -> dict[str, str]:
    """A random punctured 2-gon on every singular vertex and rank 1 on every
    other, as the benchmark's command line rounds assign them."""
    return {
        v: "punctured_2gon_T{}".format(rng.randint(1, 4)) if g.kind(v) == "singular"
        else "rank1_trivalent"
        for v in g.vertices
    }


@functools.cache
def _builtin_assemblies() -> tuple:
    """The pairs of `_draw_builtin_assemblies`, drawn once per session:
    ``tests/test_flips.py``, ``tests/test_gluing.py`` and
    ``tests/test_surface.py`` read them, and none changes a graph or an
    assignment."""
    return tuple(_draw_builtin_assemblies())


def _draw_builtin_assemblies():
    """Star templates on seeded random graphs, the trivalent built-ins on
    seeded trivalent graphs, and the punctured 2-gons, with rank 1 around
    them, on punctured paths, on the once-punctured 4-gon and on the
    benchmark's punctured trivalent graphs."""
    rng = random.Random(28)
    for _ in range(100):
        g = random_graph(rng)
        yield g, {v: star_template(g.valency(v)) for v in g.vertices}
    for _ in range(50):
        g = trivalent_graph(rng, rng.randint(1, 12))
        for name in ("rank1_trivalent", "a2_trivalent"):
            yield g, {v: name for v in g.vertices}
    for n in range(2, 12):
        g = _punctured_path(n)
        for assign in _builtin_assignments(g, rng):
            yield g, assign
    g = fixture_graph("once_punctured_4gon")
    base = parse_assignments(fixture_text("once_punctured_4gon_templates"))
    for k in range(1, 5):
        yield g, dict(base, p="punctured_2gon_T{}".format(k))
    for n in (24, 60, 150):
        for seed in range(40):
            g = bench_graph("trivalent_punctured", n, "{}/flip".format(seed))
            yield g, _punctured_assignment(g, rng)


def _bench_assemblies(t34_marks=()):
    """A ``bench/gen.py`` graph of V=1000 and its assignment: a star at
    every vertex of a higher-genus graph, and the built-ins on a punctured
    trivalent one, each puncture with a seeded choice of T1/T2 or of
    T3/T4, the latter marked with ``t34_marks``."""
    g = bench_graph("higher_genus", 1000, "1/assembly")
    stars = {n: star_template(n) for n in {g.valency(v) for v in g.vertices}}
    yield pytest.param(g, {v: stars[g.valency(v)] for v in g.vertices}, id="higher_genus stars")
    g = bench_graph("trivalent_punctured", 1000, "1/assembly")
    for choices, marks in (("12", ()), ("34", t34_marks)):
        rng = random.Random(35)
        assign = {
            v: "punctured_2gon_T" + rng.choice(choices) if g.valency(v) == 2
            else "rank1_trivalent"
            for v in g.vertices
        }
        yield pytest.param(
            g, assign, marks=marks, id="trivalent_punctured T{}".format("/T".join(choices))
        )


def _neighbours(g: RibbonGraph, v: str) -> list[str]:
    return sorted({g.at_vertex(g.twin_of(h)) for h in g.cyclic(v) if not g.is_external(h)})


def _partitions(g: RibbonGraph, rng: random.Random, k: int, tries: int = 20):
    """Up to ``tries`` seeded partitions of ``g``'s vertices into ``k``
    connected pieces: each grown from its own random vertex, one random
    edge from a piece to a vertex of none at a time."""
    for _ in range(tries):
        owner = {v: i for i, v in enumerate(rng.sample(g.vertices, k))}
        frontier = [(v, w) for v in owner for w in _neighbours(g, v)]
        while frontier:
            j = rng.randrange(len(frontier))
            frontier[j], frontier[-1] = frontier[-1], frontier[j]
            v, w = frontier.pop()
            if w not in owner:
                owner[w] = owner[v]
                frontier += [(w, u) for u in _neighbours(g, w) if u not in owner]
        pieces = [set() for _ in range(k)]
        for v, i in owner.items():
            pieces[i].add(v)
        yield pieces


_ODD_VALUES = (
    None, 0, -1, 1.5, True, False, "", "a", "v1", "a2_trivalent", "T2", [], [None], {},
    {"id": "a"}, "a/b~c",
)
_KEYS = ("id", "frozen", "label", "src", "dst", "vertices", "arrows", "slots", "extra")


def _descend(obj, rng: random.Random) -> tuple:
    """The path of a random node: from the root, step into a random child
    until a coin says stop, so that a small subtree, such as one
    incidence's vertex map, is hit about as often as a large one."""
    path = ()
    while isinstance(obj, (dict, list)) and obj and rng.random() < 0.8:
        key = rng.choice(list(obj)) if isinstance(obj, dict) else rng.randrange(len(obj))
        obj, path = obj[key], path + (key,)
    return path


def _paths(obj, path=()):
    """The path of every node of a JSON tree, the root first."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, path + (i,))


def _get(obj, path):
    for token in path:
        obj = obj[token]
    return obj


def _put(obj, path, value):
    """``obj`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    _get(obj, path[:-1])[path[-1]] = value
    return obj


def _mutate(obj, rng: random.Random):
    """One random edit of a JSON tree: delete a key, add a key, duplicate
    a list entry, swap two disjoint subtrees or, where the drawn edit does
    not apply, replace a value."""
    op = rng.choice(("replace", "delete", "add", "duplicate", "swap"))
    path = _descend(obj, rng)
    node = _get(obj, path)
    parent = _get(obj, path[:-1]) if path else None
    if op == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    elif op == "add" and isinstance(node, dict):
        node[rng.choice(_KEYS)] = copy.deepcopy(rng.choice(_ODD_VALUES))
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(rng.randrange(len(parent) + 1), copy.deepcopy(node))
    elif op == "swap" and path:
        other = _descend(obj, rng)
        if other and path[: len(other)] != other and other[: len(path)] != path:
            _put(obj, path, _get(obj, other))
            _put(obj, other, node)
    else:
        obj = _put(obj, path, copy.deepcopy(rng.choice(_ODD_VALUES)))
    return obj


def _bases():
    """``(argv, option, document)``: a subcommand line and the document it
    reads through ``option``, in valid form."""
    four_gon = fixture_graph("four_gon")
    named = json.loads(fixture_text("four_gon_a2_templates"))
    inline = to_jsonable(builtin_template("a2_trivalent"))
    mixed = {"assignments": {"v1": "a2_trivalent", "v2": inline}}
    assign = {"v1": "a2_trivalent", "v2": "a2_trivalent"}
    diagram = to_jsonable(assembly_diagram(four_gon, assign))
    quiver = to_jsonable(assemble_global(four_gon, assign))
    four_gon_path = fixture_path("four_gon")
    punctured_path = fixture_path("once_punctured_4gon")
    return [
        (["assemble", "--graph", four_gon_path], "--templates", named),
        (["assemble", "--graph", four_gon_path], "--templates", mixed),
        (
            ["assemble", "--graph", punctured_path],
            "--templates",
            json.loads(fixture_text("once_punctured_4gon_templates")),
        ),
        (
            ["tagged", "--graph", punctured_path],
            "--choices",
            json.loads(fixture_text("once_punctured_4gon_choices")),
        ),
        (["amalgamate"], "--diagram", diagram),
        (["amalgamate", "--format", "dot"], "--diagram", diagram),
        (["export"], "--quiver", quiver),
        (["export", "--format", "dot"], "--quiver", quiver),
    ]


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
