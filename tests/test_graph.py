import copy
import itertools
import pickle
import random

import pytest

import ribboncalc.graph
from conftest import bench_gen, bench_graph, ext_twin, external_edges, fixture_graph, sample_graphs
from ribboncalc.graph import _Record, _corner_orbits, _predecessors
from ribboncalc import (
    AmalgamationDiagram,
    Atom,
    BoundaryWalk,
    Decomposition,
    EdgeRef,
    FunctorWord,
    HalfedgeRef,
    IceQuiver,
    InvalidGraphError,
    LocalTemplate,
    Marker,
    QuiverArrow,
    QuiverMorphism,
    QuiverVertex,
    RibbonGraph,
    Subgraph,
    Summand,
    SurfaceInvariants,
    TaggedArc,
    TrajectoryHit,
    ValidationReport,
    VertexRef,
    boundary_walks,
    corner_permutation,
    decompose,
    dual,
    graph_dot,
    itinerary,
    parse_graph,
    require_valid,
    rotate_to_min,
    serialize,
    star_template,
    subgraph,
    surface_invariants,
    twist_rotation_check,
    validate_graph,
    web_trajectory,
)


def test_rotate_to_min():
    assert rotate_to_min(("b", "a", "c")) == ("a", "c", "b")
    assert rotate_to_min(()) == ()
    assert rotate_to_min(("z",)) == ("z",)


class TestConstruction:
    def test_cyclic_order_is_canonically_rotated(self):
        g = RibbonGraph({"v": ("b", "a", "c")}, {})
        assert g.cyclic("v") == ("a", "c", "b")

    def test_a_none_label_is_no_label(self):
        assert RibbonGraph({"1": ("a", "b")}, {}, None, {"1": None}).label("1") is None

    # A table that names one id both as 1 and as "1" is still rejected: nothing
    # merges the two, and the fault sits at the non-string key.
    def test_colliding_vertex_ids_rejected(self):
        with pytest.raises(ValueError, match="^vertex id 1 is not a string$") as info:
            RibbonGraph(
                {1: ["a", "b"], "1": ["c", "d"]}, {"a": "c", "c": "a", "b": "d", "d": "b"}
            )
        assert info.value.location == ("cyclic", 1)

    def test_colliding_kind_keys_rejected(self):
        with pytest.raises(ValueError, match="^vertex kind given for unknown vertex 1$") as info:
            RibbonGraph({"1": ("a", "b")}, {}, {1: "plain", "1": "singular"})
        assert info.value.location == ("vertex_kind", 1)

    def test_colliding_label_keys_rejected(self):
        with pytest.raises(ValueError, match="^label given for unknown vertex 1$") as info:
            RibbonGraph({"1": ("a", "b")}, {}, None, {"1": "y", 1: "x"})
        assert info.value.location == ("vertex_label", 1)

    def test_colliding_twin_keys_rejected(self):
        # merged, the table would pass as the pairing of "1" and "a"
        with pytest.raises(ValueError, match="^twin table mentions unknown halfedge 1$") as info:
            RibbonGraph({"v": ["1", "x"], "w": ["a", "y"]}, {"1": "a", 1: "a", "a": "1"})
        assert info.value.location == ("twin", 1)

    def test_the_callers_tables_are_copied(self):
        cyclic = {"v": ["a", "b"], "w": ["c", "d"]}
        twin, kinds, labels = {}, {"v": "singular"}, {"v": "x"}
        g = RibbonGraph(cyclic, twin, kinds, labels)
        cyclic["v"].append("e")
        twin["a"] = "c"
        labels["v"] = "y"
        assert kinds == {"v": "singular"}
        assert (g.cyclic("v"), g.twin_of("a"), g.kind("w"), g.label("v")) == (
            ("a", "b"), None, "plain", "x"
        )

    @pytest.mark.parametrize(
        "args, message, location",
        [
            (({1: ("a", "b")}, {}), "vertex id 1 is not a string", ("cyclic", 1)),
            (({"v": ("a", 2)}, {}), "halfedge id 2 is not a string", ("cyclic", "v", 1)),
            # checked before it is hashed
            (
                ({"v": (["a"], "b")}, {}),
                "halfedge id ['a'] is not a string",
                ("cyclic", "v", 0),
            ),
            # read as "1", this table would pair "1" and "a"
            (
                ({"v": ("1", "x"), "w": ("a", "y")}, {1: "a", "a": "1"}),
                "twin table mentions unknown halfedge 1",
                ("twin", 1),
            ),
            (
                ({"v": ("1", "x"), "w": ("a", "y")}, {"a": 1}),
                "twin table mentions unknown halfedge 1",
                ("twin", "a"),
            ),
            (
                ({"v": ("a", "b")}, {"a": ["b"]}),
                "twin table mentions unknown halfedge ['b']",
                ("twin", "a"),
            ),
            (
                ({"1": ("a", "b")}, {}, {1: "singular"}),
                "vertex kind given for unknown vertex 1",
                ("vertex_kind", 1),
            ),
            (
                ({"1": ("a", "b")}, {}, None, {1: "x"}),
                "label given for unknown vertex 1",
                ("vertex_label", 1),
            ),
        ],
        ids=[
            "cyclic key", "ring entry", "unhashable ring entry", "twin key", "twin value",
            "unhashable twin value", "vertex_kind key", "vertex_label key",
        ],
    )
    def test_a_non_string_id_is_rejected(self, args, message, location):
        with pytest.raises(ValueError) as info:
            RibbonGraph(*args)
        assert (str(info.value), info.value.location) == (message, location)

    @pytest.mark.parametrize(
        "args, message, location",
        [
            (
                ({"v": ("a", "b")}, {"a": "zzz", "zzz": "a"}),
                "twin table mentions unknown halfedge 'zzz'",
                ("twin", "a"),
            ),
            (
                ({"v": ("a", "b")}, {"zzz": "a", "a": "zzz"}),
                "twin table mentions unknown halfedge 'zzz'",
                ("twin", "zzz"),
            ),
            (
                ({"v": ("a", "b", "c")}, {"a": "b", "b": "c", "c": "a"}),
                "twin of 'a' does not point back",
                ("twin", "a"),
            ),
            (
                ({"u": ("h", "k"), "w": ("j", "h")}, {}),
                "halfedge 'h' already attached",
                ("cyclic", "w", 1),
            ),
            (
                ({"u": ("h", "k"), "w": ("h",)}, {}),
                "halfedge 'h' already attached",
                ("cyclic", "w", 0),
            ),
            (({"v": ("a", "b", "a")}, {}), "halfedge 'a' already attached", ("cyclic", "v", 2)),
            (
                ({"v": ("a", "b")}, {}, {"v": "spicy"}),
                "unknown vertex kind 'spicy'",
                ("vertex_kind", "v"),
            ),
            (({"1": ("a", "b")}, {}, {"1": 5}), "unknown vertex kind 5", ("vertex_kind", "1")),
            (
                ({"v": ("a", "b")}, {}, None, {"v": 5}),
                "label of vertex 'v' is not a string",
                ("vertex_label", "v"),
            ),
            (
                ({"1": ("a", "b")}, {}, None, {"1": 5}),
                "label of vertex '1' is not a string",
                ("vertex_label", "1"),
            ),
            (
                ({"v": ("a", "b")}, {}, {"ghost": "plain"}),
                "vertex kind given for unknown vertex 'ghost'",
                ("vertex_kind", "ghost"),
            ),
            (
                ({"v": ("a", "b")}, {}, None, {"ghost": "x"}),
                "label given for unknown vertex 'ghost'",
                ("vertex_label", "ghost"),
            ),
            # the twin table before the vertices, then each vertex in order:
            # its ring, its kind, its label
            (
                ({"u": ("a", "b"), "w": ("a",)}, {"a": "b"}),
                "twin of 'a' does not point back",
                ("twin", "a"),
            ),
            (
                ({"u": ("a", "b"), "w": ("c", "a")}, {}, {"u": "spicy"}, {"u": 5}),
                "unknown vertex kind 'spicy'",
                ("vertex_kind", "u"),
            ),
            (
                ({"u": ("a", "b"), "w": ("c", "a")}, {}, None, {"u": 5}),
                "label of vertex 'u' is not a string",
                ("vertex_label", "u"),
            ),
        ],
        ids=[
            "unknown twin", "unknown twin key", "twin not pointing back",
            "halfedge in two rings", "duplicate halfedge", "halfedge twice in a ring",
            "unknown kind", "kind not a string", "label not a string",
            "label of vertex 1 not a string", "kind of unknown vertex",
            "label of unknown vertex", "twin before ring", "kind before label",
            "vertex before vertex",
        ],
    )
    def test_a_value_fault_keeps_its_location(self, args, message, location):
        with pytest.raises(ValueError) as info:
            RibbonGraph(*args)
        assert (str(info.value), info.value.location) == (message, location)

    def test_equality_and_hash(self):
        g1 = RibbonGraph({"v": ("b", "a")}, {})
        g2 = RibbonGraph({"v": ("a", "b")}, {})
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != RibbonGraph({"v": ("a", "b", "c")}, {})


class TestAccessors:
    def test_basic_queries(self, four_gon):
        assert four_gon.vertices == ("v1", "v2")
        assert four_gon.at_vertex("q1") == "v1"
        assert four_gon.valency("v2") == 3
        assert four_gon.twin_of("m1") == "m2"
        assert four_gon.twin_of("q1") is None
        assert four_gon.is_external("q1")
        assert not four_gon.is_external("m1")

    def test_cyclic_navigation(self, four_gon):
        # stored order at v1 is (m1, q1, p1)
        assert four_gon.cyclic("v1") == ("m1", "q1", "p1")
        assert four_gon._next["m1"] == "q1"
        assert _predecessors(four_gon)["m1"] == "p1"
        assert four_gon._next["p1"] == "m1"

    def test_edges(self, four_gon):
        assert four_gon.edge_of("m2") == "m1"
        assert four_gon.halfedges_of("m1") == ("m1", "m2")
        assert four_gon.halfedges_of("q1") == ("q1",)
        assert four_gon.internal_edges() == ("m1",)
        assert external_edges(four_gon) == ("p1", "q1", "r2", "s2")
        assert four_gon.is_edge("m1")
        assert not four_gon.is_edge("m2")

    def test_repr(self, four_gon):
        assert repr(four_gon) == "RibbonGraph(2 vertices, 5 edges)"

    def test_unknown_edge(self, four_gon):
        with pytest.raises(ValueError, match="unknown edge"):
            four_gon.halfedges_of("m2")

    def test_kind_and_label(self, two_spider):
        assert two_spider.kind("v") == "singular"
        assert two_spider.label("v") == "puncture"


class TestSortedTables:
    """The sorted vertex and halfedge tables are built on first read, and
    only then."""

    TABLES = ("_vertices", "_halfedges")

    def test_validation_walks_and_decompositions_build_none(self):
        for name in ("four_gon", "annulus", "once_punctured_4gon", "two_spider"):
            g = parse_graph(serialize(fixture_graph(name)))
            v = next(iter(g._cyclic))
            e = EdgeRef(g.edge_of(g.cyclic(v)[0]))
            assert validate_graph(g).ok
            require_valid(g)
            surface_invariants(g)
            web_trajectory(g, v)
            for target, source in ((e, e), (VertexRef(v), e), (e, VertexRef(v))):
                decompose(g, target, source, "L")
            assert [getattr(g, t) for t in self.TABLES] == [None] * len(self.TABLES)
            g.vertices
            assert g._vertices is not None  # the check sees a built table

    def test_writers_do_not_depend_on_which_table_was_read_first(self):
        readers = (
            lambda g: g.vertices,
            lambda g: g.halfedges,
            lambda g: g.edges(),
            lambda g: g.internal_edges(),
        )
        for g in sample_graphs():
            text = serialize(g)
            for make in (parse_graph, lambda t: dual(parse_graph(t))):
                want = {serialize: serialize(make(text)), graph_dot: graph_dot(make(text))}
                for read in readers:
                    for writers in ((serialize, graph_dot), (graph_dot, serialize)):
                        fresh = make(text)
                        read(fresh)
                        assert {write: write(fresh) for write in writers} == want


def _tables_from_twins(g):
    """The edge tables and corner orbits of ``g`` derived afresh from its
    twin table, its external halfedges and its successor map: an edge is
    named by its smaller halfedge, and an orbit starts at its smallest."""
    twin, external = g._twin, set(g._external)
    internal = tuple(sorted({min(h, t) for h, t in twin.items()}))
    left = set(twin) | external
    walks = []
    while left:
        start = h = min(left)
        orbit = []
        while not orbit or h != start:
            orbit.append(h)
            left.remove(h)
            h = g._next[twin.get(h, h)]
        walks.append(BoundaryWalk(tuple(orbit), tuple(x for x in orbit if x in external)))
    return {
        "edges": tuple(sorted(internal + tuple(external))),
        "internal_edges": internal,
        "walks": walks,
    }


def _fixed_point_graphs():
    """Graphs whose twin fixes a halfedge: a one-vertex one, then each
    seeded random graph with the two halfedges of its first internal edge
    made fixed points."""
    yield RibbonGraph({"v": ("x", "y", "z")}, {"y": "y"})
    for g in sample_graphs()[::8]:
        e = g.internal_edges()[:1]
        if e:
            broken = {h: t for h, t in g._twin.items() if g.edge_of(h) != e[0]}
            broken.update((h, h) for h in g.halfedges_of(e[0]))
            yield RibbonGraph({v: g.cyclic(v) for v in g.vertices}, broken)


class TestEdgeTables:
    """The edge tables sort, and the corner orbits are walked, on each call,
    so every read agrees with the twin table whatever was read before."""

    READERS = {
        "edges": RibbonGraph.edges,
        "internal_edges": RibbonGraph.internal_edges,
        "walks": boundary_walks,
    }

    def test_every_read_order_matches_the_twin_table(self):
        orders = list(itertools.permutations(self.READERS))
        for i, g in enumerate(sample_graphs()):
            want = _tables_from_twins(g)
            fresh = parse_graph(serialize(g))
            for order in orders[i % len(orders)], orders[-1 - i % len(orders)]:
                for name in order * 2:
                    assert self.READERS[name](fresh) == want[name], name

    def test_graphs_with_twin_fixed_points(self):
        graphs = list(_fixed_point_graphs())
        assert len(graphs) > 5
        for g in graphs:
            want = _tables_from_twins(g)
            for _ in range(2):
                for name in ("internal_edges", "edges"):
                    assert self.READERS[name](g) == want[name], name
                assert _corner_orbits(g) == [w.halfedges for w in want["walks"]]
            assert any("fixed point" in m for m in validate_graph(g).violations)
            with pytest.raises(InvalidGraphError, match="fixed point"):
                boundary_walks(g)

    def test_repr_counts_every_edge_unsorted(self):
        graphs = [*sample_graphs(), *_fixed_point_graphs()]
        for g in graphs:
            text = "RibbonGraph({} vertices, {} edges)".format(len(g.vertices), len(g.edges()))
            assert repr(g) == text


class TestValidation:
    def test_valid_fixtures(
        self, two_spider, three_spider, four_gon, annulus, once_punctured_4gon
    ):
        for g in (two_spider, three_spider, four_gon, annulus, once_punctured_4gon):
            assert validate_graph(g).ok

    def test_loop(self):
        g = RibbonGraph({"v": ("x", "y", "z")}, {"x": "y", "y": "x"})
        assert "loop: edge x has both halfedges at vertex v" in validate_graph(g).violations

    def test_valency_one(self):
        g = RibbonGraph({"u": ("a", "s"), "w": ("b",)}, {"a": "b", "b": "a"})
        assert validate_graph(g).violations == ("valency-1 vertex: w",)

    def test_isolated_vertex(self):
        g = RibbonGraph({"v": (), "u": ("p", "q")}, {})
        assert "isolated vertex: v" in validate_graph(g).violations

    def test_disconnected(self):
        g = RibbonGraph({"u": ("h1", "h2"), "w": ("k1", "k2")}, {})
        assert validate_graph(g).violations == ("graph is not connected",)

    def test_empty(self):
        assert validate_graph(RibbonGraph({}, {})).violations == ("graph is empty",)

    def test_walk_without_external(self):
        g = RibbonGraph(
            {"u": ("a1", "b1"), "w": ("b2", "a2")},
            {"a1": "a2", "a2": "a1", "b1": "b2", "b2": "b1"},
        )
        assert validate_graph(g).violations == (
            "boundary walk without external halfedge (through a1)",
            "boundary walk without external halfedge (through a2)",
        )

    def test_require_valid_raises(self):
        g = RibbonGraph({"u": ("h1", "h2"), "w": ("k1", "k2")}, {})
        with pytest.raises(InvalidGraphError, match="not connected"):
            require_valid(g)

    def test_a_graph_is_validated_once(self, monkeypatch, once_punctured_4gon):
        # validate_graph keeps its report, which every later check reads
        g = parse_graph(serialize(once_punctured_4gon))
        calls = []
        original = ribboncalc.graph.validate_graph

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(ribboncalc.graph, "validate_graph", counting)
        assert ribboncalc.graph.validate_graph(g).ok
        require_valid(g)
        itinerary(g, g.halfedges[0], "ccw")
        surface_invariants(g)
        boundary_walks(g)
        assert len(calls) == 1 and calls[0] is g
        sub = subgraph(g, {"p"})
        assert len(calls) == 2 and calls[1] is sub.graph


class TestBoundaryWalks:
    def test_corner_permutation(self, four_gon):
        assert corner_permutation(four_gon) == {
            "m1": "s2",
            "m2": "q1",
            "p1": "m1",
            "q1": "p1",
            "r2": "m2",
            "s2": "r2",
        }

    def test_four_gon_single_walk(self, four_gon):
        walks = boundary_walks(four_gon)
        assert len(walks) == 1
        assert walks[0].halfedges == ("m1", "s2", "r2", "m2", "q1", "p1")
        assert walks[0].externals == ("s2", "r2", "q1", "p1")
        assert walks[0].marked_points == 4

    def test_each_halfedge_in_exactly_one_walk(self, annulus):
        seen = [h for w in boundary_walks(annulus) for h in w.halfedges]
        assert sorted(seen) == sorted(annulus.halfedges)
        assert len(seen) == len(set(seen))

    def test_annulus_two_circles(self, annulus):
        walks = boundary_walks(annulus)
        assert sorted(w.marked_points for w in walks) == [1, 4]

    def test_orbits_are_computed_once_per_graph(self, monkeypatch, once_punctured_4gon):
        g = once_punctured_4gon
        calls = []
        original = ribboncalc.graph.corner_permutation

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(ribboncalc.graph, "corner_permutation", counting)
        assert validate_graph(g).ok
        surface_invariants(g)
        boundary_walks(g)
        twist_rotation_check(g, EdgeRef(g.internal_edges()[0]))
        twist_rotation_check(g, VertexRef(g.vertices[0]))
        assert calls == [g]


class TestSurfaceInvariants:
    def test_disc_like_fixtures(self, two_spider, four_gon):
        assert surface_invariants(two_spider).genus == 0
        assert surface_invariants(two_spider).boundary == (2,)
        assert surface_invariants(four_gon).boundary == (4,)

    def test_annulus(self, annulus):
        inv = surface_invariants(annulus)
        assert inv.genus == 0
        assert inv.boundary == (4, 1)

    def test_genus_one(self):
        g = RibbonGraph(
            {"u": ("a1", "b1", "c1", "s"), "w": ("a2", "b2", "c2", "t")},
            {"a1": "a2", "a2": "a1", "b1": "b2", "b2": "b1", "c1": "c2", "c2": "c1"},
        )
        inv = surface_invariants(g)
        assert inv.genus == 1
        assert inv.boundary == (2,)

    def test_agrees_with_the_boundary_walks(self):
        # the invariants read the cycles of the next-marked-point map that
        # validation keeps; the boundary walks are the corner orbits
        for g in sample_graphs():
            for x in (g, dual(g)):
                walks = boundary_walks(x)
                inv = surface_invariants(x)
                counts = sorted((w.marked_points for w in walks), reverse=True)
                assert inv.boundary == tuple(counts)
                chi = len(x.vertices) - len(x.internal_edges())
                assert 2 * inv.genus == 2 - len(walks) - chi

    def test_boundary_sorted_descending(self, annulus):
        assert surface_invariants(annulus).boundary == tuple(
            sorted(surface_invariants(annulus).boundary, reverse=True)
        )


class TestDual:
    def test_reverses_cyclic_orders(self, four_gon):
        d = dual(four_gon)
        assert d.cyclic("v1") == rotate_to_min(tuple(reversed(four_gon.cyclic("v1"))))

    def test_involution(self, four_gon, annulus, once_punctured_4gon):
        for g in (four_gon, annulus, once_punctured_4gon):
            assert dual(dual(g)) == g

    def test_preserves_kind_and_label(self, two_spider):
        d = dual(two_spider)
        assert d.kind("v") == "singular"
        assert d.label("v") == "puncture"

    def test_matches_the_checked_constructor(self):
        for g in sample_graphs():
            expected = RibbonGraph(
                {v: tuple(reversed(g.cyclic(v))) for v in g.vertices},
                {h: g.twin_of(h) for h in g.halfedges if not g.is_external(h)},
                {v: g.kind(v) for v in g.vertices},
                {v: g.label(v) for v in g.vertices if g.label(v) is not None},
            )
            d = dual(g)
            assert d == expected
            assert serialize(d) == serialize(expected)
            assert d._next == expected._next
            assert _predecessors(d) == _predecessors(expected)


def _subgraph_by_constructor(g, vertices):
    """The oracle for `subgraph`: the same piece built by the checking
    constructor from the restricted rings, twins, kinds and labels, its
    cuts found by a scan of the kept rings."""
    keep = sorted(set(vertices))
    kept = set(keep)
    cyclic = {v: g.cyclic(v) for v in keep}
    twin, cuts = {}, []
    for ring in cyclic.values():
        for h in ring:
            t = g.twin_of(h)
            if t is not None:
                if g.at_vertex(t) in kept:
                    twin[h] = t
                else:
                    cuts.append(h)
    sub = RibbonGraph(
        cyclic,
        twin,
        {v: g.kind(v) for v in keep},
        {v: g.label(v) for v in keep if g.label(v) is not None},
    )
    report = validate_graph(sub)
    if not report.ok:
        raise InvalidGraphError(
            "induced subgraph is not a valid ribbon graph: " + "; ".join(report.violations)
        )
    return Subgraph(sub, g, tuple(keep), tuple(sorted(cuts)))


def _same_restriction(g, vertices) -> bool:
    """Assert that `subgraph` and its oracle build the same piece, table by
    table, with the external halfedges in the same order, or raise the
    same error; whether the piece is valid."""
    try:
        want = _subgraph_by_constructor(g, vertices)
    except InvalidGraphError as exc:
        with pytest.raises(InvalidGraphError) as got:
            subgraph(g, vertices)
        assert str(got.value) == str(exc)
        return False
    sub = subgraph(g, vertices)
    for table in ("_cyclic", "_at", "_next", "_twin", "_kind", "_label", "_external"):
        assert getattr(sub.graph, table) == getattr(want.graph, table), table
    assert validate_graph(sub.graph) == validate_graph(want.graph)
    assert sub == want and sub.ambient is g
    return True


def _ball(g, size: int, centre) -> set:
    """The first ``size`` vertices that a breadth-first search of ``g``
    from ``centre`` meets, neighbours in ring order."""
    ball = [centre]
    for v in ball:  # grows as it is read
        for h in g.cyclic(v):
            t = g.twin_of(h)
            if t is not None and g.at_vertex(t) not in ball:
                ball.append(g.at_vertex(t))
                if len(ball) == size:
                    return set(ball)
    return set(ball)


class TestSubgraph:
    def test_restriction_matches_the_checking_constructor(self):
        rng = random.Random(30)
        valid = invalid = 0
        for g in sample_graphs():
            for _ in range(6):
                vertices = rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
                if _same_restriction(g, vertices):
                    valid += 1
                else:
                    invalid += 1
        assert valid > 300 and invalid > 100

    @pytest.mark.parametrize("family", sorted(bench_gen().FAMILIES))
    def test_restriction_of_balls_in_benchmark_graphs(self, family):
        g = bench_graph(family, 1000, "1/restrict")
        rng = random.Random(family)
        for centre in [g.vertices[0], *rng.sample(g.vertices, 9)]:
            assert _same_restriction(g, _ball(g, 40, centre))
        # a ball and a vertex off it and its neighbours make a disconnected piece
        ball = _ball(g, 40, g.vertices[0])
        far = next(
            v for v in g.vertices
            if v not in ball and all(g.at_vertex(ext_twin(g, h)) not in ball for h in g.cyclic(v))
        )
        assert not _same_restriction(g, ball | {far})

    def test_induced_single_vertex(self, once_punctured_4gon):
        sub = subgraph(once_punctured_4gon, {"p"})
        assert sub.vertices == ("p",)
        assert sub.cut_halfedges == ("pw1", "pw2")
        assert sub.graph.is_external("pw1")
        assert sub.ambient.edge_of("pw1") == "pw1"

    def test_induced_keeps_internal_edges(self, four_gon):
        sub = subgraph(four_gon, {"v1", "v2"})
        assert sub.cut_halfedges == ()
        assert sub.graph == four_gon

    def test_empty_vertex_set(self, four_gon):
        with pytest.raises(ValueError, match="non-empty"):
            subgraph(four_gon, set())

    def test_unknown_vertex(self, four_gon):
        with pytest.raises(ValueError, match="unknown vertex"):
            subgraph(four_gon, {"v1", "nope"})

    def test_induced_piece_keeps_its_validation(self, monkeypatch, once_punctured_4gon):
        sub = subgraph(once_punctured_4gon, {"p"})
        calls = []
        original = ribboncalc.graph.validate_graph

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(ribboncalc.graph, "validate_graph", counting)
        require_valid(sub.graph)
        assert calls == []

    def test_invalid_induced_subgraph(self, once_punctured_4gon):
        # w1 and w2 only touch through p, so dropping p disconnects them
        with pytest.raises(InvalidGraphError, match="not connected"):
            subgraph(once_punctured_4gon, {"w1", "w2"})

    def test_hand_built_two_sided_cut(self):
        g = RibbonGraph(
            {"u": ("uz", "ua", "ux", "ub"), "w": ("wy", "wa", "wb")},
            {"ua": "wa", "wa": "ua", "ub": "wb", "wb": "ub"},
        )
        h = RibbonGraph(
            {"u": ("uz", "ua", "ux", "ub"), "w": ("wy", "wa", "wb")},
            {"ua": "wa", "wa": "ua"},
        )
        sub = Subgraph(h, g, ("u", "w"), ("ub", "wb"))
        assert sub.ambient.edge_of("ub") == "ub"
        assert sub.ambient.edge_of("wb") == "ub"


def _records():
    """A value of each of the package's record types: the value, its field
    names and values in order, and its repr."""
    sub = subgraph(fixture_graph("once_punctured_4gon"), {"p"})
    itin = itinerary(fixture_graph("four_gon"), "m1", "cw")
    itin_text = (
        "Itinerary(start='m1', orient='cw', out_halfedges=('m1', 's2'), edges=('m1', 's2'), "
        "turns=('v2',), entries=('m2',), terminal='s2')"
    )
    point = IceQuiver([QuiverVertex("u", True)], [])
    tip = IceQuiver([QuiverVertex("t0", True)], [])
    point_text = "IceQuiver(1 vertices, 0 arrows)"
    slot = QuiverMorphism(point, tip, {"u": "t0"}, {})
    slot_text = (
        "QuiverMorphism(source={0}, target={0}, vertex_map={{'u': 't0'}}, "
        "arrow_map={{}})".format(point_text)
    )
    # a diagram over the piece at ``p``: a 2-valent star, its slots on
    # ``pw1`` and ``pw2``
    star = star_template(2)
    incidences = dict(zip(sub.graph.cyclic("p"), star.slots))
    edges = {h: m.source for h, m in incidences.items()}
    star_text = "IceQuiver(3 vertices, 2 arrows)"
    star_slot_texts = [
        "QuiverMorphism(source={}, target={}, vertex_map={{'u': '{}'}}, "
        "arrow_map={{}})".format(point_text, star_text, tip)
        for tip in ("t0", "t1")
    ]
    word = FunctorWord((Atom("gen", "h"),), EdgeRef("e"), VertexRef("v"))
    word_text = (
        "FunctorWord(atoms=(Atom(kind='gen', halfedge='h'),), source=EdgeRef(id='e'), "
        "target=VertexRef(id='v'))"
    )
    summand = Summand(word, "h", 2, False, Marker("ev", "h"), True)
    summand_text = (
        "Summand(word={}, source_halfedge='h', index=2, constant=False, "
        "marker=Marker(kind='ev', ref='h'), possibly_zero=True)".format(word_text)
    )
    return [
        (
            ValidationReport(("graph is empty",)),
            {"violations": ("graph is empty",)},
            "ValidationReport(violations=('graph is empty',))",
        ),
        (
            BoundaryWalk(("a", "b", "c"), ("b",)),
            {"halfedges": ("a", "b", "c"), "externals": ("b",)},
            "BoundaryWalk(halfedges=('a', 'b', 'c'), externals=('b',))",
        ),
        (
            SurfaceInvariants(1, (2,)),
            {"genus": 1, "boundary": (2,)},
            "SurfaceInvariants(genus=1, boundary=(2,))",
        ),
        (
            sub,
            {
                "graph": sub.graph,
                "ambient": sub.ambient,
                "vertices": ("p",),
                "cut_halfedges": ("pw1", "pw2"),
            },
            "Subgraph(graph=RibbonGraph(1 vertices, 2 edges), ambient=RibbonGraph(3 "
            "vertices, 6 edges), vertices=('p',), cut_halfedges=('pw1', 'pw2'))",
        ),
        (HalfedgeRef("h"), {"id": "h"}, "HalfedgeRef(id='h')"),
        (EdgeRef("e"), {"id": "e"}, "EdgeRef(id='e')"),
        (VertexRef("v"), {"id": "v"}, "VertexRef(id='v')"),
        (
            itin,
            {
                "start": "m1",
                "orient": "cw",
                "out_halfedges": ("m1", "s2"),
                "edges": ("m1", "s2"),
                "turns": ("v2",),
                "entries": ("m2",),
                "terminal": "s2",
            },
            itin_text,
        ),
        (
            TrajectoryHit("m1", 2, "edge", "s2", False, itin),
            {
                "source": "m1",
                "index": 2,
                "target_kind": "edge",
                "target": "s2",
                "constant": False,
                "itinerary": itin,
            },
            # the itinerary is left out
            "TrajectoryHit(source='m1', index=2, target_kind='edge', target='s2', constant=False)",
        ),
        (Atom("genL", "h"), {"kind": "genL", "halfedge": "h"}, "Atom(kind='genL', halfedge='h')"),
        (
            word,
            {"atoms": (Atom("gen", "h"),), "source": EdgeRef("e"), "target": VertexRef("v")},
            word_text,
        ),
        (Marker("ev", "h"), {"kind": "ev", "ref": "h"}, "Marker(kind='ev', ref='h')"),
        (
            summand,
            {
                "word": word,
                "source_halfedge": "h",
                "index": 2,
                "constant": False,
                "marker": Marker("ev", "h"),
                "possibly_zero": True,
            },
            summand_text,
        ),
        (
            Decomposition(None, VertexRef("v"), "L", (summand,)),
            {"source": None, "target": VertexRef("v"), "side": "L", "summands": (summand,)},
            "Decomposition(source=None, target=VertexRef(id='v'), side='L', summands=({},))".format(
                summand_text
            ),
        ),
        (
            QuiverVertex("u", True, "x"),
            {"id": "u", "frozen": True, "label": "x"},
            "QuiverVertex(id='u', frozen=True, label='x')",
        ),
        (
            QuiverArrow("a", "u", "w", True),
            {"id": "a", "src": "u", "dst": "w", "frozen": True},
            "QuiverArrow(id='a', src='u', dst='w', frozen=True)",
        ),
        (
            slot,
            {"source": point, "target": tip, "vertex_map": {"u": "t0"}, "arrow_map": {}},
            slot_text,
        ),
        (
            AmalgamationDiagram(sub.graph, {"p": star.quiver}, edges, incidences),
            {
                "graph": sub.graph,
                "vertex_quivers": {"p": star.quiver},
                "edge_quivers": edges,
                "incidences": incidences,
            },
            "AmalgamationDiagram(graph=RibbonGraph(1 vertices, 2 edges), "
            "vertex_quivers={{'p': {0}}}, edge_quivers={{'pw1': {1}, 'pw2': {1}}}, "
            "incidences={{'pw1': {2}, 'pw2': {3}}})".format(
                star_text, point_text, *star_slot_texts
            ),
        ),
        (
            LocalTemplate("t", tip, (slot,), "s"),
            {"name": "t", "quiver": tip, "slots": (slot,), "stalk": "s"},
            "LocalTemplate(name='t', quiver={}, slots=({},), stalk='s')".format(
                point_text, slot_text
            ),
        ),
        (
            TaggedArc("puncture", None, "p", "m1", "plain", itin),
            {
                "kind": "puncture",
                "edge": None,
                "puncture": "p",
                "via": "m1",
                "tagging": "plain",
                "path": itin,
            },
            "TaggedArc(kind='puncture', edge=None, puncture='p', via='m1', tagging='plain', "
            "path={})".format(itin_text),
        ),
    ]


def _template_slot_record():
    """A slot of a built-in star template, as `_records` gives its values: a
    QuiverMorphism from the slot's interface quiver into the template's own
    quiver."""
    star = star_template(2)
    slot = star.slots[0]
    fields = {
        "source": slot.source,
        "target": star.quiver,
        "vertex_map": {"u": "t0"},
        "arrow_map": {},
    }
    text = (
        "QuiverMorphism(source=IceQuiver(1 vertices, 0 arrows), "
        "target=IceQuiver(3 vertices, 2 arrows), vertex_map={'u': 't0'}, arrow_map={})"
    )
    return slot, fields, text


RECORDS = _records() + [_template_slot_record()]
# A template slot is a QuiverMorphism; its case is named for that role.
RECORD_IDS = [type(r[0]).__name__ for r in RECORDS[:-1]] + ["TemplateSlot"]


def _hash_or_error(value):
    """The hash of ``value``, or TypeError if it holds an unhashable field."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize(
    "value, fields, text", RECORDS, ids=RECORD_IDS
)
class TestValueTypes:
    """The value types compare, hash, print, copy and refuse changes as
    frozen dataclasses would, without importing `dataclasses`."""

    def test_repr(self, value, fields, text):
        assert repr(value) == text

    def test_equality_needs_the_same_type(self, value, fields, text):
        values = tuple(fields.values())
        assert value == type(value)(*values)
        assert not value != type(value)(*values)
        assert value != values and not value == values
        assert value.__eq__(values) is NotImplemented
        subclass = type("Sub", (type(value),), {"__slots__": ()})
        assert value != subclass(*values) and not value == subclass(*values)
        assert subclass(*values) == subclass(**fields)
        assert repr(subclass(*values)) == "Sub" + text[len(type(value).__name__):]

    def test_hash_is_the_hash_of_the_field_values(self, value, fields, text):
        # a mapping field makes both unhashable
        assert _hash_or_error(value) == _hash_or_error(tuple(fields.values()))

    def test_fields_cannot_be_assigned_or_deleted(self, value, fields, text):
        for name in [*fields, "other"]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert [getattr(value, name) for name in fields] == list(fields.values())
        assert not hasattr(value, "__dict__")

    def test_fields_are_read_only_properties_over_private_slots(self, value, fields, text):
        cls = type(value)
        assert cls._fields == tuple(fields)
        assert vars(cls)["__slots__"] == tuple("_" + f for f in cls._fields)
        for name in cls._fields:
            field = vars(cls)[name]
            assert isinstance(field, property)
            assert field.fset is None and field.fdel is None
            assert getattr(value, "_" + name) is getattr(value, name)
        subclass = type("Sub", (cls,), {"__slots__": ()})
        assert not hasattr(subclass(**fields), "__dict__")

    def test_keyword_construction(self, value, fields, text):
        assert type(value)(**fields) == value
        first, *rest = fields
        assert type(value)(fields[first], **{n: fields[n] for n in rest}) == value

    def test_wrong_arguments(self, value, fields, text):
        cls, values = type(value), tuple(fields.values())
        for args, kwargs in [
            (values + (None,), {}),
            (values, {"other": None}),
            (values, {next(iter(fields)): None}),
        ]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
        if list(fields)[-1] not in cls._defaults:
            with pytest.raises(TypeError):
                cls(*values[:-1])

    def test_copies_are_equal(self, value, fields, text):
        for other in (
            copy.copy(value),
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ):
            assert type(other) is type(value)
            assert other == value
            assert _hash_or_error(other) == _hash_or_error(value)


def test_every_exported_record_type_is_covered():
    exported = {getattr(ribboncalc, name) for name in ribboncalc.__all__}
    records = {x for x in exported if isinstance(x, type) and issubclass(x, _Record)}
    assert len(records) == 20
    assert {type(r[0]) for r in RECORDS} == records


def test_value_type_defaults_and_properties():
    assert ValidationReport() == ValidationReport(()) == ValidationReport(violations=())
    assert ValidationReport().violations == ()
    assert ValidationReport().ok and not ValidationReport(("x",)).ok
    assert BoundaryWalk(("a", "b", "c"), ("b",)).marked_points == 1
    assert BoundaryWalk(halfedges=("a",), externals=()).marked_points == 0
    with pytest.raises(TypeError):
        SurfaceInvariants()
    assert Atom("id") == Atom("id", None)
    assert FunctorWord(()) == FunctorWord((), None, None)
    assert QuiverVertex("u") == QuiverVertex("u", False, None)
    assert QuiverArrow("a", "u", "w") == QuiverArrow("a", "u", "w", False)
    assert TaggedArc("dual", edge="e") == TaggedArc("dual", "e", None, None, None, None)
    template = next(r[0] for r in RECORDS if type(r[0]) is LocalTemplate)
    assert LocalTemplate(template.name, template.quiver, template.slots).stalk is None
    assert template.valency == 1
