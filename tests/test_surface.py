"""The assembled quiver against the surface: the signed adjacency matrix
of Fomin, Shapiro & Thurston (2008) as an oracle for the rank 1 template.

A trivalent vertex is a triangle whose sides are the arcs dual to its
three edges.  Each triangle adds one arrow between each two of its sides,
here from the side at ``ring[k + 1]`` to the side at ``ring[k]``, and an
arc on an external edge is frozen.  This unpunctured part fixes that
orientation convention against the assembly more than it tests it: the
independent part is at punctures, where FST's map π gives a self-folded
triangle's radius the row of its loop.  That part waits until the
built-in T3 and T4 templates differ (ROADMAP item 2).
"""

from collections import Counter

from conftest import _builtin_assemblies, external_edges
from surface import exchange, triangles


def _signed_adjacency(g, frozen: set) -> dict:
    """FST's matrix of the triangulation dual to the unpunctured trivalent
    ``g``, each arc named ``(edge, "u")`` as `exchange` names the vertex
    glued on it, over its non-zero entries that are not between two of
    the ``frozen`` arcs."""
    b = Counter()
    for sides in triangles(g).values():
        for k in range(3):
            i, j = (sides[(k + 1) % 3], "u"), (sides[k], "u")
            b[i, j] += 1
            b[j, i] -= 1
    return {(i, j): n for (i, j), n in b.items() if n and (i not in frozen or j not in frozen)}


def test_unpunctured_rank1_assemblies_are_the_signed_adjacency_matrix():
    cases = [
        g for g, assign in _builtin_assemblies()
        if all(t == "rank1_trivalent" for t in assign.values())
    ]
    assert len(cases) == 54
    for g in cases:
        assert all(g.valency(v) == 3 for v in g.vertices)
        b, frozen = exchange(g, dict.fromkeys(g.vertices, "rank1_trivalent"))
        assert frozen == {(e, "u") for e in external_edges(g)}
        assert b == _signed_adjacency(g, frozen)
