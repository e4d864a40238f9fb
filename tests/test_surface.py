"""The assembled quiver against the surface: the matrices that Fomin,
Shapiro & Thurston (2008) and Fock & Goncharov (2006) give a
triangulation, as absolute oracles for the rank 1 and the SL3 templates.

A trivalent vertex is a triangle whose sides are the arcs dual to its
three edges, and each oracle sums one block of arrows per triangle
through `signed_matrix`, with the points on an external edge frozen.
For rank 1 each triangle adds an arrow between each two of its sides,
here from the side at ``ring[k + 1]`` to the side at ``ring[k]``.  This
unpunctured part fixes that orientation convention against the assembly
more than it tests it: the independent part is at punctures, where FST's
map π gives a self-folded triangle's radius the row of its loop.  That
part waits until the built-in T3 and T4 templates differ (ROADMAP item
2).  For SL3 the two points on each side are placed by the surface, by
`side_points`, so the pairing of the points across an edge is checked
against the gluing, not taken from it.
"""

from ribboncalc import parse_assignments

from conftest import (
    _builtin_assemblies, external_edges, fixture_graph, fixture_text, large_trivalent_graph
)
from surface import exchange, side_points, signed_matrix, triangles


def _rank1_arrows(g):
    """FST's arrows of the triangulation dual to the unpunctured trivalent
    ``g``, each arc named ``(edge, "u")`` as `exchange` names the vertex
    glued on it."""
    for sides in triangles(g).values():
        for k in range(3):
            yield (sides[(k + 1) % 3], "u"), (sides[k], "u")


def _pgl3_arrows(g, opposite: bool = False):
    """FG's arrows of the 3-triangulation dual to the trivalent ``g``: a
    triangle with ring ``(h0, h1, h2)`` and centre ``(v, "m")`` gives, for
    each ``k``, ``p(h_k) -> centre -> p'(h_k)`` and the arrow across the
    corner, ``p'(h_{k+1}) -> p(h_k)``.  The side arrows of weight ½ are
    left out: those of a shared side run opposite ways in its two
    triangles and cancel, and those of an external side join two frozen
    points.  The ``opposite`` convention swaps the two points of each
    side."""
    for v in triangles(g):
        m = (v, "m")
        points = [side_points(g, h)[::-1 if opposite else 1] for h in g.cyclic(v)]
        for k, (p, q) in enumerate(points):
            yield from ((p, m), (m, q), (points[(k + 1) % 3][1], p))


def _single_template_cases(name: str) -> list:
    return [g for g, assign in _builtin_assemblies() if all(t == name for t in assign.values())]


def test_unpunctured_rank1_assemblies_are_the_signed_adjacency_matrix():
    cases = _single_template_cases("rank1_trivalent")
    assert len(cases) == 54
    for g in cases:
        assert all(g.valency(v) == 3 for v in g.vertices)
        b, frozen = exchange(g, dict.fromkeys(g.vertices, "rank1_trivalent"))
        assert frozen == {(e, "u") for e in external_edges(g)}
        assert b == signed_matrix(_rank1_arrows(g), frozen)


def test_sl3_assemblies_are_the_quiver_of_the_3_triangulation():
    four_gon = fixture_graph("four_gon")
    assert parse_assignments(fixture_text("four_gon_a2_templates")) == dict.fromkeys(
        four_gon.vertices, "a2_trivalent"
    )
    cases = _single_template_cases("a2_trivalent")
    assert len(cases) == 52
    cases += [four_gon, large_trivalent_graph()]
    for g in cases:
        b, frozen = exchange(g, dict.fromkeys(g.vertices, "a2_trivalent"))
        assert frozen == {(e, x) for e in external_edges(g) for x in ("u1", "u2")}
        assert b == signed_matrix(_pgl3_arrows(g), frozen)
        assert b != signed_matrix(_pgl3_arrows(g, opposite=True), frozen)
