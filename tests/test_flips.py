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

import functools
import random
from collections import Counter

import pytest

from ribboncalc import (
    RibbonGraph,
    assemble_global,
    assembly_diagram,
    builtin_template,
    parse_assignments,
    star_template,
    surface_invariants,
    validate_graph,
)
from ribboncalc.assembly import _PUNCTURE_ARCS, NOTCHED_TAG, PLAIN_TAG

from conftest import bench_graph, fixture_graph, fixture_text, frozen_ids, vertex_ids
from randgraphs import random_graph, trivalent_graph
from test_assembly import _builtin_assignments, _punctured_path


def _from(ring: tuple, h: str) -> tuple:
    k = ring.index(h)
    return ring[k:] + ring[:k]


def flip(g: RibbonGraph, e: str, wrong: bool = False) -> RibbonGraph:
    """The Whitehead move at the internal edge ``e`` between trivalent
    vertices ``u = (e, x1, x2)`` and ``w = (t, y1, y2)``, ``t`` the twin of
    ``e``: they become ``(e, x2, y1)`` and ``(t, y2, x1)``.  The ``wrong``
    rewiring, ``(e, y1, x2)`` and ``(t, x1, y2)``, is the negative control.
    Vertex kinds and labels are kept.  The result may be invalid: a loop
    appears when ``x1`` and ``y2``, or ``x2`` and ``y1``, are twins."""
    t = g.twin_of(e)
    u, w = g.at_vertex(e), g.at_vertex(t)
    _, x1, x2 = _from(g.cyclic(u), e)
    _, y1, y2 = _from(g.cyclic(w), t)
    rings = {v: g.cyclic(v) for v in g.vertices}
    rings[u], rings[w] = ((e, y1, x2), (t, x1, y2)) if wrong else ((e, x2, y1), (t, y2, x1))
    return RibbonGraph(
        rings,
        {h: g.twin_of(h) for h in g.halfedges if not g.is_external(h)},
        {v: g.kind(v) for v in g.vertices},
        {v: g.label(v) for v in g.vertices if g.label(v) is not None},
    )


def _exchange(g: RibbonGraph, assign) -> tuple[dict, set]:
    """The signed exchange matrix of the assembly, ``{(i, j): b_ij}`` over
    its non-zero entries that are not frozen-frozen, and the frozen names.
    ``b_ij`` counts arrows i -> j less arrows j -> i.  A vertex glued, or
    frozen, on the edge ``E`` from its interface vertex ``x`` is named
    ``(E, x)``, one inside the template at ``v`` is named ``(v, local id)``:
    a flip keeps the names of all edges and vertices."""
    d = assembly_diagram(g, assign)
    names = {v + "." + x: (v, x) for v in g.vertices for x in vertex_ids(d.vertex_quivers[v])}
    for h in g.halfedges:
        for x, y in d.incidences[h].vertex_map.items():
            names[g.at_vertex(h) + "." + y] = (g.edge_of(h), x)
    q = assemble_global(g, assign)
    frozen = {names[v.id] for v in q.vertices if v.frozen}
    b = Counter()
    for a in q.arrows:
        i, j = names[a.src], names[a.dst]
        if i not in frozen or j not in frozen:
            b[i, j] += 1
            b[j, i] -= 1
    return {k: n for k, n in b.items() if n}, frozen


def mutate(b: dict, k) -> dict:
    """Matrix mutation at ``k`` (Fomin & Zelevinsky 2002): the entries of
    ``k``'s row and column change sign, and every other ``b_ij`` gains
    ``(|b_ik| b_kj + b_ik |b_kj|) / 2``, which is non-zero only when
    ``b_ik`` and ``b_kj`` have the same sign."""
    out = Counter({(i, j): -n if k in (i, j) else n for (i, j), n in b.items()})
    into = [(i, n) for (i, j), n in b.items() if j == k]
    for i, bik in into:
        for (kk, j), bkj in b.items():
            if kk == k and (bik > 0) == (bkj > 0):
                out[i, j] += bik * abs(bkj)
    return {key: n for key, n in out.items() if n}


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
        b, frozen = _exchange(g, assign)
        for e in g.internal_edges():
            h = flip(g, e, wrong)
            if not validate_graph(h).ok:
                continue
            if not wrong:
                assert surface_invariants(h) == surface_invariants(g)
            flips += 1
            mismatches += _exchange(h, assign)[0] != _flipped(g, e, template, b, frozen)
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
    this test and ``tests/test_gluing.py`` read them, and neither changes
    a graph or an assignment."""
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


def _arc_vertex(template, i: int) -> str:
    """The local vertex of the puncture arc through ``ring[i]``: the one
    mutable vertex that slot ``i``'s frozen image has an arrow to.  Read
    each of the 2-gon's two triangles as `rank1_trivalent` reads one, with
    an arrow from the side at ``ring[k + 1]`` to the side at ``ring[k]``:
    the side at ``ring[i]`` then has an arrow to the arc to the marked
    point in the corner from ``ring[i - 1]`` to ``ring[i]``.  The arc's
    path, the clockwise walk from ``ring[i]``, runs along that corner's
    boundary walk."""
    q = template.quiver
    side = template.slots[i].vertex_map["u"]
    mutable = {v.id for v in q.vertices if not v.frozen}
    (x,) = [a.dst for a in q.arrows if a.src == side and a.dst in mutable]
    return x


def _flip_landing(choice: str, i: int) -> str:
    """The choice that flipping the arc through ``ring[i]`` gives.  In a
    punctured 2-gon the arc to one marked point flips to the loop around
    the puncture at the other, which is the arc of the other tagging
    there."""
    arcs = set(_PUNCTURE_ARCS[choice])
    (tag,) = [t for j, t in arcs if j == i]
    arcs = arcs - {(i, tag)} | {(1 - i, NOTCHED_TAG if tag == PLAIN_TAG else PLAIN_TAG)}
    (landing,) = [c for c, picks in _PUNCTURE_ARCS.items() if set(picks) == arcs]
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
        b, frozen = _exchange(g, {**assign, p: template})
        mutated = mutate(b, (p, _arc_vertex(template, i)))
        kept = {k: n for k, n in mutated.items() if k[0] not in frozen or k[1] not in frozen}
        assert kept == _exchange(g, {**assign, p: landing})[0], p


def test_a_dual_flip_on_a_punctured_graph_is_one_mutation():
    flips = near = 0
    for seed in range(4):
        g = bench_graph("trivalent_punctured", 40, "f/{}".format(seed))
        # every puncture on one choice, each choice on one graph
        choice = "punctured_2gon_T{}".format(seed + 1)
        assign = {v: choice if g.kind(v) == "singular" else "rank1_trivalent" for v in g.vertices}
        b, frozen = _exchange(g, assign)
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
            assert _exchange(h, assign)[0] == _flipped(g, e, "rank1_trivalent", b, frozen), e
    assert flips > 100 and near > 30, (flips, near)
