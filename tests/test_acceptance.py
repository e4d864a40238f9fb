"""Acceptance suite.

One test per shipped guarantee, so ``pytest -v`` prints one pass/fail
line for each.  Exact quivers and counts come from the bundled built-in
templates and fixture graphs; the randomized test draws a fixed seed
and therefore runs the same ≥1000 graphs on every machine.
"""

import random

from conftest import external_edges, frozen_ids, vertex_ids
from randgraphs import random_graph

from ribboncalc import (
    AmalgamationDiagram,
    EdgeRef,
    IceQuiver,
    QuiverArrow,
    QuiverVertex,
    VertexRef,
    amalgamate,
    assemble_global,
    assembly_diagram,
    boundary_walks,
    builtin_template,
    check_unit_split,
    dual,
    itinerary,
    parse_graph,
    quivers_isomorphic,
    serialize,
    star_template,
    surface_invariants,
    tagged_triangulation,
    trajectory_counts,
)


def test_a2_triangle_template(a2_triangle_figure):
    q = builtin_template("a2_trivalent").quiver
    assert len(q.vertices) == 7
    assert len(frozen_ids(q)) == 6
    assert len(q.frozen_components()) == 3
    assert all(len(c) == 2 for c in q.frozen_components())
    assert len(q.arrows) == 12
    assert sum(1 for a in q.arrows if a.frozen) == 3
    assert quivers_isomorphic(q, a2_triangle_figure)


def test_a2_four_gon_assembly(four_gon, a2_four_gon_figure):
    q = assemble_global(
        four_gon, {"v1": "a2_trivalent", "v2": "a2_trivalent"}
    )
    assert len(q.vertices) == 12
    assert len(frozen_ids(q)) == 8
    assert len(q.arrows) == 22
    assert sum(1 for a in q.arrows if a.frozen) == 4
    glued = {"v1.f0", "v1.r0"}  # the diagonal's identified interface pair
    assert not any(
        a.src in glued and a.dst in glued for a in q.arrows
    ), "no arrows may connect the two glued-edge vertices"
    assert quivers_isomorphic(q, a2_four_gon_figure)


def test_rank1_triangle_and_four_gon(four_gon):
    q = builtin_template("rank1_trivalent").quiver
    assert q == IceQuiver(
        [
            QuiverVertex("1", frozen=True),
            QuiverVertex("2", frozen=True),
            QuiverVertex("3", frozen=True),
        ],
        [
            QuiverArrow("c1", "2", "1"),
            QuiverArrow("c2", "3", "2"),
            QuiverArrow("c3", "1", "3"),
        ],
    )
    glued = assemble_global(
        four_gon, {"v1": "rank1_trivalent", "v2": "rank1_trivalent"}
    )
    assert len(glued.vertices) == 5
    assert len(frozen_ids(glued)) == 4
    assert len(glued.arrows) == 6


def test_punctured_2gon_templates_and_taggings(two_spider):
    cycle = IceQuiver(
        [
            QuiverVertex("1", frozen=True),
            QuiverVertex("2"),
            QuiverVertex("3"),
            QuiverVertex("4", frozen=True),
        ],
        [
            QuiverArrow("a1", "1", "2"),
            QuiverArrow("a2", "2", "4"),
            QuiverArrow("a3", "4", "3"),
            QuiverArrow("a4", "3", "1"),
        ],
    )
    flip = IceQuiver(
        [
            QuiverVertex("1", frozen=True),
            QuiverVertex("2"),
            QuiverVertex("3"),
            QuiverVertex("4", frozen=True),
        ],
        [
            QuiverArrow("a1", "1", "4"),
            QuiverArrow("a2", "4", "2"),
            QuiverArrow("a3", "2", "1"),
            QuiverArrow("a4", "4", "3"),
            QuiverArrow("a5", "3", "1"),
        ],
    )
    assert builtin_template("punctured_2gon_T1").quiver == cycle
    assert builtin_template("punctured_2gon_T2").quiver == cycle
    assert builtin_template("punctured_2gon_T3").quiver == flip
    assert builtin_template("punctured_2gon_T4").quiver == flip

    taggings = [
        tuple(tagged_triangulation(two_spider, {"v": choice}))
        for choice in ("T1", "T2", "T3", "T4")
    ]
    assert len(set(taggings)) == 4
    assert all(len(t) == 2 for t in taggings)


def test_annulus_inner_edge_loops_back(annulus):
    it = itinerary(annulus, "wi", "cw")
    # hand trace: in at w, around the core through b, d, c, a, back out at w
    assert it.edges == ("wi", "bw", "bd", "cd", "ac", "aw", "wi")
    assert it.length == 7
    assert it.terminal == "wi"
    assert it.terminal == it.edges[0]


def test_randomized_property_suite():
    rng = random.Random(108)
    runs = 1000
    violations = {
        "duality mirror": [],
        "termination bound": [],
        "hit-count bounds": [],
        "unit splits": [],
        "external support": [],
        "amalgamation order": [],
        "Euler characteristic": [],
        "round trip": [],
    }

    def record(name, g, detail):
        if len(violations[name]) < 3:
            violations[name].append("{}: {}".format(detail, serialize(g)))

    for _ in range(runs):
        g = random_graph(rng, max_vertices=12)
        assert len(g.vertices) <= 12
        d = dual(g)
        edges = g.edges()
        bound = 2 * len(edges)

        # reversing orientation mirrors through the dual, verbatim
        for h in g.halfedges:
            a = itinerary(g, h, "ccw")
            b = itinerary(d, h, "cw")
            if (a.out_halfedges, a.edges, a.turns, a.entries) != (
                b.out_halfedges,
                b.edges,
                b.turns,
                b.entries,
            ):
                record("duality mirror", g, h)
            if a.length > bound or itinerary(g, h, "cw").length > bound:
                record("termination bound", g, h)

        # each curve meets an edge at most twice, each n-web at most 2n-1 times
        for f in edges:
            target = EdgeRef(f)
            for e in edges:
                if len(trajectory_counts(g, EdgeRef(e), target, "cw")) > 2:
                    record("hit-count bounds", g, "curve {} on {}".format(e, f))
            for v in g.vertices:
                hits = trajectory_counts(g, VertexRef(v), target, "cw")
                if len(hits) > 2 * g.valency(v) - 1:
                    record("hit-count bounds", g, "web {} on {}".format(v, f))

        # unit splits: the identity appears exactly once, on both sides
        for x in [EdgeRef(e) for e in edges] + [VertexRef(v) for v in g.vertices]:
            if not (check_unit_split(g, x, "L") and check_unit_split(g, x, "R")):
                record("unit splits", g, x)

        # an external edge hits exactly itself and its boundary successor
        succ = {}
        for walk in boundary_walks(g):
            ext = walk.externals
            for i, h in enumerate(ext):
                succ[h] = ext[(i + 1) % len(ext)]
        stubs = external_edges(g)
        for e in stubs:
            support = {
                f
                for f in stubs
                if trajectory_counts(g, EdgeRef(e), EdgeRef(f), "cw")
            }
            if support != {e, succ[e]}:
                record("external support", g, e)

        # amalgamation does not depend on the edge order
        assign = {v: star_template(g.valency(v)) for v in g.vertices}
        diagram = assembly_diagram(g, assign)
        reference = amalgamate(diagram)
        order = list(g.internal_edges())
        rng.shuffle(order)
        ordered = AmalgamationDiagram(
            g, diagram.vertex_quivers,
            {e: diagram.edge_quivers[e] for e in order + list(stubs)},
            diagram.incidences,
        )
        if amalgamate(ordered) != reference:
            record("amalgamation order", g, tuple(order))

        # Euler characteristic stays consistent with the walk count
        inv = surface_invariants(g)
        chi = len(g.vertices) - len(g.internal_edges())
        if inv.genus < 0 or 2 - 2 * inv.genus - len(inv.boundary) != chi:
            record("Euler characteristic", g, inv)

        # serialization round-trips
        if parse_graph(serialize(g)) != g:
            record("round trip", g, "")

    failed = {k: v for k, v in violations.items() if v}
    assert not failed, "properties violated over {} graphs:\n{}".format(
        runs,
        "\n".join(
            "- {} ({} shown):\n  {}".format(k, len(v), "\n  ".join(v))
            for k, v in failed.items()
        ),
    )


def test_once_punctured_4gon(once_punctured_4gon):
    g = once_punctured_4gon
    q = assemble_global(
        g,
        {
            "p": "punctured_2gon_T1",
            "w1": "rank1_trivalent",
            "w2": "rank1_trivalent",
        },
    )
    mutable = set(vertex_ids(q)) - set(frozen_ids(q))
    assert len(mutable) == 4
    assert len(frozen_ids(q)) == 4
    assert len(q.arrows) == 10

    arcs = tagged_triangulation(g, {"p": "T1"})
    assert len(arcs) == 4
    punctures = [v for v in g.vertices if g.valency(v) == 2]
    assert len(arcs) == len(g.internal_edges()) + 2 * len(punctures)
