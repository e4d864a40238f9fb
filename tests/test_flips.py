"""A flip of the graph mutates the assembled quiver, and every built-in
assembly is 2-acyclic.

A trivalent ribbon graph is dual to a triangulation of its surface, and
a flip of the triangulation is a Whitehead move at an internal edge
between two distinct vertices.  For the paper's examples a flip changes
the glued quiver by mutation: one mutation at the flipped arc for the
rank 1 template (Fomin, Shapiro & Thurston 2008), four for the SL3
template (Fock & Goncharov 2006).  Quivers are compared by their signed
exchange matrices, frozen-frozen entries left out, with each vertex
named by where it sits, so no isomorphism search is needed.

Cluster structures also need quivers with no loop and no 2-cycle
outside frozen-frozen pairs (Buan, Iyama, Reiten & Scott 2009).

At a puncture the local choice T1 to T4 of `tagged_triangulation` picks
two tagged arcs.  Changing every tag at a puncture keeps the quiver, and
flipping a puncture arc is one mutation at its local vertex, which lands
on the choice the flipped arcs make (Fomin, Shapiro & Thurston 2008).
A flip of a dual arc next to a puncture is one mutation too.
"""

import random

import pytest

from ribboncalc import (
    RibbonGraph,
    assemble_global,
    builtin_template,
    parse_assignments,
    surface_invariants,
    tagged_triangulation,
    validate_graph,
)

from conftest import (
    _builtin_assemblies, _punctured_assignment, bench_graph, fixture_graph, fixture_text, frozen_ids
)
from randgraphs import trivalent_graph
from surface import _arc_vertex, exchange, flip, mutate


def _flipped(g: RibbonGraph, e: str, template: str, b: dict, frozen: set) -> dict:
    """``b`` mutated as the flip at ``e`` predicts, in the names of the
    flipped graph.  For SL3 the two points of ``e`` and then the centres
    of its two triangles are mutated; then the mutated points are the new
    centres and the mutated centres the new points, in opposite order."""
    u, w = g.at_vertex(e), g.at_vertex(g.twin_of(e))
    if template == "rank1_trivalent":
        order, moved = [(e, "u")], {}
    else:
        order = [(e, "u1"), (e, "u2"), (u, "m"), (w, "m")]
        moved = dict(zip(order, [(u, "m"), (w, "m"), (e, "u2"), (e, "u1")]))
    for k in order:
        b = mutate(b, k)
    return {
        (moved.get(i, i), moved.get(j, j)): n
        for (i, j), n in b.items()
        if i not in frozen or j not in frozen
    }


def _compare_flips(template: str, seed: int, draws: int, wrong: bool = False):
    """Flip each of ``draws`` seeded trivalent graphs at every internal
    edge where the move gives a valid graph; the number of flips and of
    those whose assembly is not the predicted mutation."""
    rng = random.Random(seed)
    flips = mismatches = 0
    for _ in range(draws):
        g = trivalent_graph(rng, rng.randint(2, 8))
        assign = {v: template for v in g.vertices}
        b, frozen = exchange(g, assign)
        for e in g.internal_edges():
            h = flip(g, e, wrong)
            if not validate_graph(h).ok:
                continue
            if not wrong:
                assert surface_invariants(h) == surface_invariants(g)
            flips += 1
            mismatches += exchange(h, assign)[0] != _flipped(g, e, template, b, frozen)
    return flips, mismatches


def test_a_flip_is_one_mutation_for_rank_1():
    flips, mismatches = _compare_flips("rank1_trivalent", 7, 60)
    assert flips > 200 and mismatches == 0


def test_a_flip_is_four_mutations_for_sl3():
    flips, mismatches = _compare_flips("a2_trivalent", 11, 30)
    assert flips > 100 and mismatches == 0


def test_the_wrong_rewiring_is_no_mutation():
    for template in ("rank1_trivalent", "a2_trivalent"):
        flips, mismatches = _compare_flips(template, 5, 20, wrong=True)
        assert flips and mismatches


def _two_acyclic(q) -> bool:
    """No loop, and no 2-cycle but between two frozen vertices."""
    frozen = set(frozen_ids(q))
    ends = {(a.src, a.dst) for a in q.arrows}
    return all(
        i != j and ((j, i) not in ends or i in frozen and j in frozen) for i, j in ends
    )


def test_every_builtin_assembly_is_two_acyclic():
    kinds = set()
    for g, assign in _builtin_assemblies():
        q = assemble_global(g, assign)
        assert _two_acyclic(q), sorted(set(assign.values()), key=str)
        kinds.update(t if isinstance(t, str) else "star" for t in assign.values())
    assert kinds == {
        "star", "rank1_trivalent", "a2_trivalent",
        *("punctured_2gon_T{}".format(k) for k in range(1, 5)),
    }


def _puncture_cases():
    """Graphs, each with a puncture ``p`` and an assignment of the other
    vertices: the once-punctured 4-gon, and three punctures each of two
    benchmark graphs, with rank 1 at every trivalent vertex and a random
    choice at every other puncture."""
    g = fixture_graph("once_punctured_4gon")
    yield g, "p", parse_assignments(fixture_text("once_punctured_4gon_templates"))
    rng = random.Random(32)
    for n, seed in ((60, "x/2"), (40, "f/3")):
        g = bench_graph("trivalent_punctured", n, seed)
        assign = _punctured_assignment(g, rng)
        for p in [v for v in g.vertices if g.kind(v) == "singular"][:3]:
            yield g, p, assign


def _flip_landing(choice: str, i: int) -> str:
    """The choice that flipping the arc through ``ring[i]`` gives, read off
    the arcs `tagged_triangulation` takes at the once-punctured 4-gon's
    puncture for each choice.  In a punctured 2-gon the arc to one marked
    point flips to the loop around the puncture at the other, which is the
    arc of the other tagging there."""
    g = fixture_graph("once_punctured_4gon")
    ring = g.cyclic("p")
    arcs = {
        c: {(a.via, a.tagging) for a in tagged_triangulation(g, {"p": c}) if a.kind == "puncture"}
        for c in ("T1", "T2", "T3", "T4")
    }
    (tag,) = [t for via, t in arcs[choice] if via == ring[i]]
    (other,) = {t for picks in arcs.values() for _, t in picks} - {tag}
    flipped = arcs[choice] - {(ring[i], tag)} | {(ring[1 - i], other)}
    (landing,) = [c for c, picks in arcs.items() if picks == flipped]
    return landing


def test_switching_every_tag_at_a_puncture_keeps_the_assembly():
    for g, p, assign in _puncture_cases():
        t1, t2 = (
            assemble_global(g, {**assign, p: "punctured_2gon_" + c}) for c in ("T1", "T2")
        )
        assert t1 == t2, p


@pytest.mark.parametrize("choice", ("T1", "T2"))
@pytest.mark.parametrize("i", (
    0,
    pytest.param(1, marks=pytest.mark.xfail(strict=True, reason=(
        "flipping the arc through ring[1] should give T3; it gives T3 with its "
        "slots swapped, and the built-in T3 equals T4"
    ))),
))
def test_flipping_a_puncture_arc_is_one_mutation(choice, i):
    template = builtin_template("punctured_2gon_" + choice)
    landing = "punctured_2gon_" + _flip_landing(choice, i)
    for g, p, assign in _puncture_cases():
        b, frozen = exchange(g, {**assign, p: template})
        mutated = mutate(b, (p, _arc_vertex(template, i)))
        kept = {k: n for k, n in mutated.items() if k[0] not in frozen or k[1] not in frozen}
        assert kept == exchange(g, {**assign, p: landing})[0], p


def test_a_dual_flip_on_a_punctured_graph_is_one_mutation():
    flips = near = 0
    for seed in range(4):
        g = bench_graph("trivalent_punctured", 40, "f/{}".format(seed))
        # every puncture on one choice, each choice on one graph
        choice = "punctured_2gon_T{}".format(seed + 1)
        assign = {v: choice if g.kind(v) == "singular" else "rank1_trivalent" for v in g.vertices}
        b, frozen = exchange(g, assign)
        for e in g.internal_edges():
            u, w = g.at_vertex(e), g.at_vertex(g.twin_of(e))
            if u == w or g.valency(u) != 3 or g.valency(w) != 3:
                continue
            h = flip(g, e)
            if not validate_graph(h).ok:
                continue
            flips += 1
            near += any(
                g.kind(g.at_vertex(g.twin_of(x))) == "singular"
                for x in g.cyclic(u) + g.cyclic(w) if not g.is_external(x)
            )
            assert exchange(h, assign)[0] == _flipped(g, e, "rank1_trivalent", b, frozen), e
    assert flips > 100 and near > 30, (flips, near)
