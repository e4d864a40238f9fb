"""Property-based checks over randomly generated graphs.

Each test draws an integer seed, builds a pseudo-random valid graph
from it, and asserts an invariant that should hold for every graph.
Failures reproduce from the printed seed.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shuffled_diagram
from randgraphs import random_graph

from ribboncalc import (
    EdgeRef,
    HalfedgeRef,
    VertexRef,
    amalgamate,
    assembly_diagram,
    boundary_walks,
    check_unit_split,
    dual,
    itinerary,
    parse_graph,
    serialize,
    star_template,
    surface_invariants,
    trajectory_counts,
    twist_rotation_check,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def make(seed: int):
    return random_graph(random.Random(seed))


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_serialization_round_trip(seed):
    g = make(seed)
    assert parse_graph(serialize(g)) == g


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_dual_is_an_involution(seed):
    g = make(seed)
    assert dual(dual(g)) == g


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_dual_reverses_every_cyclic_order(seed):
    g = make(seed)
    d = dual(g)
    for v in g.vertices:
        assert sorted(d.cyclic(v)) == sorted(g.cyclic(v))
        if g.valency(v) > 2:
            assert d.cyclic(v) != g.cyclic(v) or len(set(g.cyclic(v))) == 1


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_boundary_walks_partition_the_halfedges(seed):
    g = make(seed)
    seen = [h for walk in boundary_walks(g) for h in walk.halfedges]
    assert sorted(seen) == sorted(g.halfedges)
    assert all(walk.externals for walk in boundary_walks(g))


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_surface_invariants_are_consistent(seed):
    g = make(seed)
    inv = surface_invariants(g)
    assert inv.genus >= 0
    chi = len(g.vertices) - len(g.internal_edges())
    assert 2 - 2 * inv.genus - len(inv.boundary) == chi
    assert sum(inv.boundary) == len([h for h in g.halfedges if g.is_external(h)])


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_reversing_orientation_mirrors_through_the_dual(seed):
    g = make(seed)
    d = dual(g)
    for h in g.halfedges:
        a = itinerary(g, h, "ccw")
        b = itinerary(d, h, "cw")
        assert a.out_halfedges == b.out_halfedges
        assert a.edges == b.edges
        assert a.turns == b.turns
        assert a.entries == b.entries
        assert a.terminal == b.terminal


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_trajectory_length_is_bounded(seed):
    g = make(seed)
    bound = 2 * len(g.edges())
    for h in g.halfedges:
        for orient in ("cw", "ccw"):
            assert itinerary(g, h, orient).length <= bound


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_unit_splits_have_multiplicity_one(seed):
    g = make(seed)
    objects = [EdgeRef(e) for e in g.edges()]
    objects += [VertexRef(v) for v in g.vertices]
    for x in objects:
        for side in ("L", "R"):
            assert check_unit_split(g, x, side)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_twist_rotation_holds_for_every_edge(seed):
    # vertex webs may fail this at asymmetric vertices; edges never do
    g = make(seed)
    for e in g.edges():
        assert twist_rotation_check(g, EdgeRef(e))


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_each_trajectory_ray_meets_an_edge_at_most_twice(seed):
    g = make(seed)
    for f in g.edges():
        target = EdgeRef(f)
        for h in g.halfedges:
            assert len(trajectory_counts(g, HalfedgeRef(h), target, "cw")) <= 2


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_hit_counts_sharpen_with_the_topology(seed):
    # two rays per curve and 2 per ray bound every count; the sharper
    # bounds of 2 per curve and 2n-1 per web need genus 0, resp. a disc
    g = make(seed)
    inv = surface_invariants(g)
    disc = inv.genus == 0 and len(inv.boundary) == 1
    for f in g.edges():
        target = EdgeRef(f)
        for e in g.edges():
            n = len(trajectory_counts(g, EdgeRef(e), target, "cw"))
            assert n <= 4
            if inv.genus == 0:
                assert n <= 2
        for v in g.vertices:
            n = len(trajectory_counts(g, VertexRef(v), target, "cw"))
            assert n <= 2 * g.valency(v)
            if disc:
                assert n <= 2 * g.valency(v) - 1


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_amalgamation_ignores_the_order_of_the_tables(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    assign = {v: star_template(g.valency(v)) for v in g.vertices}
    d = assembly_diagram(g, assign)
    reference = amalgamate(d)
    assert amalgamate(shuffled_diagram(d, rng)) == reference
