"""Gluing commutes with cutting.

The paper assembles a global object from local pieces along restriction
and induction functors; here that is amalgamation, a colimit.  So gluing
a whole assembly diagram at once must give the quiver that gluing each
piece of a cut first, and then the pieces, gives.  `cut` splits a
graph's vertices into two pieces, glues each piece's part of the
diagram, and builds the diagram of the pieces over the graph with each
piece contracted to one vertex.  The two quivers are compared up to
isomorphism, frozen flags and labels included.
"""

import random

import pytest

from ribboncalc import (
    AmalgamationDiagram,
    InvalidGraphError,
    QuiverMorphism,
    RibbonGraph,
    amalgamate,
    assembly_diagram,
    boundary_walks,
    parse_assignments,
    star_template,
    subgraph,
)

from conftest import fixture_graph, fixture_text, same_labelled_quiver
from randgraphs import random_graph, trivalent_graph


def _restricted(d: AmalgamationDiagram, sub) -> AmalgamationDiagram:
    """The part of ``d`` over the induced subgraph ``sub``; a cut halfedge's
    edge quiver is its incidence's source."""
    g = sub.graph
    return AmalgamationDiagram(
        g,
        {v: d.vertex_quivers[v] for v in g.vertices},
        {e: d.incidences[e].source for e in g.edges()},
        {h: d.incidences[h] for h in g.halfedges},
    )


def _lifted(m: QuiverMorphism, v: str, q) -> QuiverMorphism:
    """The incidence ``m`` into the quiver of vertex ``v``, lifted into the
    piece quiver ``q`` that glued it, where each image is named ``v.`` and
    its local id."""
    return QuiverMorphism(
        m.source,
        q,
        {x: v + "." + y for x, y in m.vertex_map.items()},
        {a: None if b is None else v + "." + b for a, b in m.arrow_map.items()},
    )


def cut(d: AmalgamationDiagram, piece, names) -> AmalgamationDiagram:
    """The diagram of the glued pieces of ``d``: the vertex set ``piece`` and
    the rest of the graph, each contracted to one vertex named by
    ``names``, with the quiver that gluing that piece's part of ``d``
    gives.  A contracted vertex's ring lists its piece's external
    halfedges in `boundary_walks` order, cut halfedges keep their twins,
    and each incidence is lifted into its piece quiver.  A piece, or the
    contracted graph, that is not a valid graph raises
    `InvalidGraphError`."""
    g = d.graph
    rings, quivers, incidences = {}, {}, {}
    for name, vertices in zip(names, (piece, set(g.vertices) - set(piece))):
        sub = subgraph(g, vertices)
        q = quivers[name] = amalgamate(_restricted(d, sub))
        ring = rings[name] = [h for walk in boundary_walks(sub.graph) for h in walk.externals]
        for h in ring:
            incidences[h] = _lifted(d.incidences[h], g.at_vertex(h), q)
    twin = {h: g.twin_of(h) for ring in rings.values() for h in ring if not g.is_external(h)}
    contracted = RibbonGraph(rings, twin)
    edges = {e: d.edge_quivers[e] for e in contracted.edges()}
    return AmalgamationDiagram(contracted, quivers, edges, incidences)


def _neighbours(g: RibbonGraph, v: str) -> list[str]:
    return sorted({g.at_vertex(g.twin_of(h)) for h in g.cyclic(v) if not g.is_external(h)})


def _pieces(g: RibbonGraph, rng: random.Random, tries: int = 20):
    """Up to ``tries`` seeded connected proper vertex sets of ``g``, each
    grown from a random vertex to a random size."""
    for _ in range(tries):
        piece = {rng.choice(g.vertices)}
        size = rng.randint(1, len(g.vertices) - 1)
        while len(piece) < size:
            piece.add(rng.choice([w for v in sorted(piece) for w in _neighbours(g, v)]))
        yield piece


def _check(g: RibbonGraph, assign, pieces, rng: random.Random, most: int = 1) -> int:
    """Compare gluing at once with gluing by the first ``most`` valid cuts
    along ``pieces``, the contracted vertices named in a seeded order; the
    number of cuts compared."""
    nx = pytest.importorskip("networkx")
    d = assembly_diagram(g, assign)
    whole = amalgamate(d)
    compared = 0
    for piece in pieces:
        try:
            by_pieces = amalgamate(cut(d, piece, rng.sample(("x", "y"), 2)))
        except InvalidGraphError:
            continue
        assert same_labelled_quiver(nx, whole, by_pieces), sorted(piece)
        compared += 1
        if compared == most:
            break
    return compared


def _stars(g: RibbonGraph) -> dict:
    return {v: star_template(g.valency(v)) for v in g.vertices}


@pytest.mark.parametrize("name", ["four_gon_a2", "once_punctured_4gon"])
def test_fixture_assemblies_glue_by_every_cut(name):
    g = fixture_graph(name.replace("_a2", ""))
    assign = parse_assignments(fixture_text(name + "_templates"))
    # every proper vertex set, so each piece is cut off under both names
    pieces = [{v for i, v in enumerate(g.vertices) if mask >> i & 1}
              for mask in range(1, 2 ** len(g.vertices) - 1)]
    assert _check(g, assign, pieces, random.Random(name), len(pieces)) >= 2


def test_star_assemblies_glue_by_cuts():
    rng = random.Random(25)
    compared = draws = 0
    while draws < 60:
        g = random_graph(rng)
        if len(g.vertices) < 2:
            continue
        draws += 1
        compared += _check(g, _stars(g), _pieces(g, rng), rng)
    # a draw with no valid cut among its tries is rare
    assert compared >= 55


def test_a2_assemblies_glue_by_cuts():
    rng = random.Random(26)
    compared = 0
    for _ in range(12):
        g = trivalent_graph(rng, rng.randint(2, 9))
        assign = {v: "a2_trivalent" for v in g.vertices}
        compared += _check(g, assign, _pieces(g, rng), rng)
    assert compared >= 10
