import copy
import itertools
import json
import pickle
import random
import sys
from collections import Counter
from operator import attrgetter

import pytest

from ribboncalc import (
    AmalgamationDiagram,
    IceQuiver,
    ParseError,
    QuiverArrow,
    QuiverMorphism,
    QuiverVertex,
    RibbonGraph,
    amalgamate,
    assemble_global,
    assembly_diagram,
    export_dot,
    parse_diagram,
    quivers_isomorphic,
    serialize,
    star_template,
    to_jsonable,
    validate_morphism,
)
from ribboncalc import assembly, quiver
from ribboncalc.quiver import _refine
from ribboncalc.serialization import diagram_from_jsonable

from conftest import (
    _labelled_quiver,
    _same_arrows,
    bench_graph,
    extra_key_tables,
    frozen_ids,
    shuffled_diagram,
)


def star(n: int) -> IceQuiver:
    return star_template(n).quiver


class TestIceQuiver:
    def test_sorted_and_queryable(self):
        q = IceQuiver(
            [QuiverVertex("b"), QuiverVertex("a", frozen=True)],
            [QuiverArrow("z", "a", "b"), QuiverArrow("y", "b", "a")],
        )
        assert [v.id for v in q.vertices] == ["a", "b"]
        assert [a.id for a in q.arrows] == ["y", "z"]
        assert [v.frozen for v in q.vertices] == [True, False]

    def test_duplicate_vertex_id(self):
        with pytest.raises(ValueError, match="duplicate vertex id 'a'"):
            IceQuiver([QuiverVertex("a"), QuiverVertex("a")], [])

    @pytest.mark.parametrize(
        "vertices, arrows, message",
        [
            ([QuiverVertex(1)], [], "vertex id 1 is not a string"),
            ([QuiverVertex("a", frozen=1)], [], "frozen flag of vertex 'a' is not a boolean"),
            ([QuiverVertex("a", label=5)], [], "label of vertex 'a' is not a string"),
            (
                [QuiverVertex("a")],
                [QuiverArrow(2, "a", "a")],
                "arrow id 2 is not a string",
            ),
            (
                [QuiverVertex("a")],
                [QuiverArrow("x", "a", "a", frozen=0)],
                "frozen flag of arrow 'x' is not a boolean",
            ),
            # ids are checked before they are sorted
            ([QuiverVertex(1), QuiverVertex("a")], [], "^vertex id 1 is not a string$"),
            ([QuiverVertex(None), QuiverVertex("a")], [], "^vertex id None is not a string$"),
            (
                [QuiverVertex("a"), QuiverVertex("b")],
                [QuiverArrow(1, "a", "b"), QuiverArrow("b", "b", "a")],
                "^arrow id 1 is not a string$",
            ),
            # of two faults, the first in input order is reported
            (
                [QuiverVertex("b", frozen=1), QuiverVertex("a", label=5)],
                [],
                "^frozen flag of vertex 'b' is not a boolean$",
            ),
            (
                [QuiverVertex("a", frozen=True), QuiverVertex("m")],
                [QuiverArrow("z", "a", "m", True), QuiverArrow("a", "m", "a", True)],
                "^frozen arrow 'z' must join frozen vertices$",
            ),
            # an end that is no string names no vertex, hashable or not
            (
                [QuiverVertex("a")],
                [QuiverArrow("x", ["a"], "a")],
                r"^arrow 'x' uses unknown vertex \['a'\]$",
            ),
            (
                [QuiverVertex("a")],
                [QuiverArrow("x", "a", {})],
                r"^arrow 'x' uses unknown vertex \{\}$",
            ),
            (
                [QuiverVertex("a")],
                [QuiverArrow("x", 1, "a")],
                "^arrow 'x' uses unknown vertex 1$",
            ),
        ],
        ids=[
            "vertex id", "vertex frozen", "vertex label", "arrow id", "arrow frozen",
            "vertex id beside a string", "vertex id None", "arrow id beside a string",
            "first vertex fault in input order", "first arrow fault in input order",
            "list as source", "object as target", "number as source",
        ],
    )
    def test_rejects_what_the_parser_rejects(self, vertices, arrows, message):
        with pytest.raises(ValueError, match=message):
            IceQuiver(vertices, arrows)

    @pytest.mark.parametrize(
        "vertices, arrows, location",
        [
            ([QuiverVertex("a"), QuiverVertex(1)], [], ("vertices", 1, "id")),
            ([QuiverVertex("a"), QuiverVertex("a")], [], ("vertices", 1, "id")),
            ([QuiverVertex("b"), QuiverVertex("a", frozen=0)], [], ("vertices", 1, "frozen")),
            ([QuiverVertex("a", label=[])], [], ("vertices", 0, "label")),
            (
                [QuiverVertex("a")],
                [QuiverArrow("x", "a", "a"), QuiverArrow(None, "a", "a")],
                ("arrows", 1, "id"),
            ),
            (
                [QuiverVertex("a")],
                [QuiverArrow("y", "a", "a"), QuiverArrow("y", "a", "a")],
                ("arrows", 1, "id"),
            ),
            ([QuiverVertex("a")], [QuiverArrow("x", "ghost", "ghost")], ("arrows", 0, "src")),
            ([QuiverVertex("a")], [QuiverArrow("x", "a", ["a"])], ("arrows", 0, "dst")),
            ([QuiverVertex("a")], [QuiverArrow("x", "a", "a", None)], ("arrows", 0, "frozen")),
            # a frozen arrow that joins a mutable vertex is at its frozen flag
            (
                [QuiverVertex("a", frozen=True), QuiverVertex("b")],
                [QuiverArrow("x", "a", "b", frozen=True)],
                ("arrows", 0, "frozen"),
            ),
        ],
    )
    def test_a_fault_keeps_the_location_of_its_item(self, vertices, arrows, location):
        with pytest.raises(ValueError) as info:
            IceQuiver(vertices, arrows)
        assert getattr(info.value, "location", None) == location

    def test_duplicate_arrow_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            IceQuiver(
                [QuiverVertex("a"), QuiverVertex("b")],
                [QuiverArrow("x", "a", "b"), QuiverArrow("x", "b", "a")],
            )

    def test_arrow_endpoint_must_exist(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            IceQuiver([QuiverVertex("a")], [QuiverArrow("x", "a", "ghost")])

    def test_frozen_arrow_needs_frozen_ends(self):
        with pytest.raises(ValueError, match="frozen arrow"):
            IceQuiver(
                [QuiverVertex("a", frozen=True), QuiverVertex("b")],
                [QuiverArrow("x", "a", "b", frozen=True)],
            )

    def test_frozen_components(self):
        q = IceQuiver(
            [
                QuiverVertex("a", frozen=True),
                QuiverVertex("b", frozen=True),
                QuiverVertex("c", frozen=True),
                QuiverVertex("m"),
            ],
            [QuiverArrow("f", "a", "b", frozen=True), QuiverArrow("g", "m", "c")],
        )
        assert q.frozen_components() == (
            frozenset({"a", "b"}),
            frozenset({"c"}),
        )

    def test_repr(self):
        q = IceQuiver([QuiverVertex("a"), QuiverVertex("b")], [QuiverArrow("x", "a", "b")])
        assert repr(q) == "IceQuiver(2 vertices, 1 arrows)"

    def test_equality(self):
        q1 = IceQuiver([QuiverVertex("a")], [])
        q2 = IceQuiver([QuiverVertex("a")], [])
        assert q1 == q2 and hash(q1) == hash(q2)
        assert q1 != IceQuiver([QuiverVertex("a", frozen=True)], [])


class TestMorphism:
    def setup_method(self):
        self.point = IceQuiver([QuiverVertex("u", frozen=True)], [])
        self.target = star(2)

    def test_valid(self):
        m = QuiverMorphism(self.point, self.target, {"u": "t0"}, {})
        assert validate_morphism(m).ok

    def test_missing_vertex_image(self):
        m = QuiverMorphism(self.point, self.target, {}, {})
        assert "vertex u has no image" in validate_morphism(m).violations

    def test_unknown_image(self):
        # an image that is no string, hashable or not, is no vertex
        for image in ("ghost", 5, {}, ["t0"]):
            m = QuiverMorphism(self.point, self.target, {"u": image}, {})
            violations = validate_morphism(m).violations
            assert violations == ("vertex u maps to unknown vertex {}".format(image),)
        src = IceQuiver(
            [QuiverVertex("u1", frozen=True), QuiverVertex("u2", frozen=True)],
            [QuiverArrow("a", "u1", "u2", frozen=True)],
        )
        for image in ("ghost", 5, {}, ["s0"]):
            m = QuiverMorphism(src, self.target, {"u1": "t0", "u2": "t1"}, {"a": image})
            violations = validate_morphism(m).violations
            assert violations == ("arrow a maps to unknown arrow {}".format(image),)

    def test_non_injective(self):
        two = IceQuiver(
            [QuiverVertex("u1", frozen=True), QuiverVertex("u2", frozen=True)], []
        )
        m = QuiverMorphism(two, self.target, {"u1": "t0", "u2": "t0"}, {})
        assert any("not injective" in v for v in validate_morphism(m).violations)

    def test_arrow_respects_endpoints(self):
        src = IceQuiver(
            [QuiverVertex("u1", frozen=True), QuiverVertex("u2", frozen=True)],
            [QuiverArrow("a", "u1", "u2", frozen=True)],
        )
        tgt = IceQuiver(
            [QuiverVertex("x", frozen=True), QuiverVertex("y", frozen=True)],
            [QuiverArrow("b", "y", "x", frozen=True)],
        )
        m = QuiverMorphism(src, tgt, {"u1": "x", "u2": "y"}, {"a": "b"})
        assert any("does not respect endpoints" in v for v in validate_morphism(m).violations)
        ok = QuiverMorphism(src, tgt, {"u1": "y", "u2": "x"}, {"a": "b"})
        assert validate_morphism(ok).ok

    def test_a_map_key_the_source_lacks(self):
        # its value would join the image that the slot check reads
        m = QuiverMorphism(self.point, self.target, {"u": "t0", "ghost": "t1"}, {})
        assert validate_morphism(m).violations == ("vertex map names unknown vertex ghost",)
        m = QuiverMorphism(self.point, self.target, {"u": "t0"}, {"ghost": None})
        assert validate_morphism(m).violations == ("arrow map names unknown arrow ghost",)

    def test_the_maps_are_read_only_copies(self):
        vmap, amap = {"u": "t0"}, {}
        m = QuiverMorphism(self.point, self.target, vmap, amap)
        vmap["u"], amap["s0"] = "t1", None
        assert (m.vertex_map, m.arrow_map) == ({"u": "t0"}, {})
        with pytest.raises(TypeError, match="read-only"):
            m.vertex_map["u"] = "t1"
        with pytest.raises(TypeError, match="read-only"):
            m.arrow_map.update(s0=None)
        assert validate_morphism(m).ok
        # it prints as its maps, and copies and pickles to read-only maps
        assert repr(m.vertex_map) == "{'u': 't0'}"
        for c in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert c == m and type(c.vertex_map) is type(m.vertex_map)
            with pytest.raises(TypeError):
                del c.vertex_map["u"]

    def test_zero_arrow_image_allowed(self):
        src = IceQuiver(
            [QuiverVertex("u1", frozen=True), QuiverVertex("u2", frozen=True)],
            [QuiverArrow("a", "u1", "u2", frozen=True)],
        )
        m = QuiverMorphism(src, self.target, {"u1": "t0", "u2": "t1"}, {"a": None})
        assert validate_morphism(m).ok


def star_assignment(g: RibbonGraph) -> dict:
    """One `star_template` per valency, shared by the vertices of that
    valency, so they share its quiver and slot morphisms."""
    stars = {n: star_template(n) for n in {g.valency(v) for v in g.vertices}}
    return {v: stars[g.valency(v)] for v in g.vertices}


class TestAmalgamate:
    def test_point_glue_counts(self, four_gon):
        d = assembly_diagram(four_gon, star_assignment(four_gon))
        q = amalgamate(d)
        # |result| = sum of locals minus one per internal edge interface
        assert len(q.vertices) == 4 + 4 - 1
        assert len(q.arrows) == 3 + 3
        # the glued tip is shared, hence no longer an external image
        assert len(frozen_ids(q)) == 4

    def test_labels_survive(self, four_gon):
        d = assembly_diagram(
            four_gon, {"v1": "a2_trivalent", "v2": "a2_trivalent"}
        )
        q = amalgamate(d)
        labels = {v.id: v.label for v in q.vertices}
        assert labels["v1.r1"] == "1"
        assert labels["v1.f1"] == "2"

    def test_the_order_of_the_tables_is_irrelevant(self, annulus):
        d = assembly_diagram(annulus, star_assignment(annulus))
        base = amalgamate(d)
        rng = random.Random(7)
        for _ in range(4):
            assert amalgamate(shuffled_diagram(d, rng)) == base

    def test_dotted_vertex_ids(self):
        g = RibbonGraph(
            {"a.b": ("h1", "h2", "x1"), "c.d": ("k1", "k2", "x2")},
            {"h1": "k1", "k1": "h1", "h2": "k2", "k2": "h2"},
        )
        d = assembly_diagram(g, star_assignment(g))
        q = amalgamate(d)
        assert len(q.vertices) == 4 + 4 - 2
        assert any(v.id.startswith("a.b.") for v in q.vertices)

    def test_dangling_incidence_rejected(self, four_gon):
        d = assembly_diagram(four_gon, star_assignment(four_gon))
        with pytest.raises(ValueError, match="dangling incidence"):
            AmalgamationDiagram(
                d.graph,
                d.vertex_quivers,
                d.edge_quivers,
                {h: m for h, m in d.incidences.items() if h != "q1"},
            )

    def test_diagram_faults(self, four_gon):
        d = assembly_diagram(four_gon, star_assignment(four_gon))
        m = d.incidences["m1"]
        point = IceQuiver([QuiverVertex("w", True)], [])
        from_point = QuiverMorphism(point, m.target, {"w": "t0"}, {})
        into_star4 = QuiverMorphism(m.source, star(4), m.vertex_map, {})
        without_p1 = {e: q for e, q in d.edge_quivers.items() if e != "p1"}
        # v1's ring is m1, q1, p1; p1 lands on t2
        p1 = d.incidences["p1"]
        unmapped = QuiverMorphism(p1.source, p1.target, {}, p1.arrow_map)
        onto_hub = QuiverMorphism(p1.source, p1.target, {"u": "hub"}, p1.arrow_map)
        # v1's quiver with one more frozen vertex, which no incidence covers
        q = m.target
        wider = IceQuiver(q.vertices + (QuiverVertex("x", True),), q.arrows)
        widened = {
            h: QuiverMorphism(i.source, wider, i.vertex_map, i.arrow_map)
            for h, i in d.incidences.items()
            if h in ("m1", "q1", "p1")
        }
        cases = [
            ({"vertex_quivers": {"v1": d.vertex_quivers["v1"]}}, "vertex v2 has no quiver"),
            ({"edge_quivers": without_p1}, "edge p1 has no interface quiver"),
            (
                {"incidences": dict(d.incidences, m1=from_point)},
                "incidence at m1 does not start from the edge quiver",
            ),
            (
                {"incidences": dict(d.incidences, m1=into_star4)},
                "incidence at m1 does not land in the vertex quiver",
            ),
            (
                {"vertex_quivers": dict(d.vertex_quivers, ghost=q)},
                "quiver given for unknown vertex 'ghost'",
            ),
            (
                # m2 is a halfedge, but its edge is named m1
                {"edge_quivers": dict(d.edge_quivers, m2=m.source)},
                "interface quiver given for unknown edge 'm2'",
            ),
            (
                {"incidences": dict(d.incidences, ghost=m)},
                "incidence given for unknown halfedge 'ghost'",
            ),
            (
                {"incidences": dict(d.incidences, p1=unmapped)},
                "vertex v1: incidence p1 morphism invalid: vertex u has no image",
            ),
            (
                {"incidences": dict(d.incidences, p1=onto_hub)},
                "vertex v1: incidence p1 image is not a frozen component",
            ),
            (
                {
                    "vertex_quivers": dict(d.vertex_quivers, v1=wider),
                    "incidences": dict(d.incidences, **widened),
                },
                "vertex v1: frozen vertices ['x'] belong to no incidence",
            ),
        ]
        whole = {
            "graph": d.graph,
            "vertex_quivers": d.vertex_quivers,
            "edge_quivers": d.edge_quivers,
            "incidences": d.incidences,
        }
        for parts, message in cases:
            with pytest.raises(ValueError) as info:
                AmalgamationDiagram(**dict(whole, **parts))
            assert str(info.value) == message

    def test_an_incidence_key_the_interface_lacks_is_rejected(self):
        # without the check, {a, b} passes as h's image and only a is glued
        with pytest.raises(ValueError) as info:
            AmalgamationDiagram(**extra_key_tables())
        assert str(info.value) == (
            "vertex v: incidence h morphism invalid: vertex map names unknown vertex extra"
        )

    def test_frozen_coverage_enforced(self, four_gon):
        d = assembly_diagram(four_gon, star_assignment(four_gon))
        # rewire two incidences at v1 onto the same tip: overlap plus a gap
        bad = dict(d.incidences)
        m = bad["q1"]
        bad["p1"] = QuiverMorphism(
            bad["p1"].source, m.target, dict(m.vertex_map), dict(m.arrow_map)
        )
        with pytest.raises(ValueError) as info:
            AmalgamationDiagram(d.graph, d.vertex_quivers, d.edge_quivers, bad)
        # the overlap is met first: p1 comes after q1 in v1's ring
        assert str(info.value) == "vertex v1: incidence p1 overlaps another incidence"


class TestSlotCheckCost:
    """A diagram is checked once, when it is built: each vertex with its
    incidences, and each incidence's morphism, once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of `_check_slots`, from templates or diagrams, and of
        `validate_morphism`, by name; a test clears the count before the
        calls it counts."""
        calls = Counter()

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(assembly, "_check_slots")
        counting(quiver, "_check_slots")
        counting(quiver, "validate_morphism")
        return calls

    def test_the_check_lists_no_arrows_per_incidence(self, monkeypatch):
        # k external stubs at one vertex: construction validates k
        # morphisms into one quiver, and must not list its arrows once for
        # each.  Reads of the stored arrows, which the `arrows` property
        # reads too: a property on the class comes before the instance's
        # own attribute
        reads = Counter()

        def counting(self):
            reads[id(self)] += 1
            return vars(self)["_arrows"]

        def storing(self, arrows):
            vars(self)["_arrows"] = arrows

        monkeypatch.setattr(IceQuiver, "_arrows", property(counting, storing), raising=False)
        counts = []
        for k in (10, 100):
            reads.clear()
            d = assembly_diagram(
                RibbonGraph({"v": tuple("s{}".format(i) for i in range(k))}, {}),
                {"v": star_template(k)},
            )
            AmalgamationDiagram(d.graph, d.vertex_quivers, d.edge_quivers, d.incidences)
            counts.append(reads[id(d.vertex_quivers["v"])])
        # once, by the template check's `frozen_components`, which the
        # quiver keeps for the diagram check
        assert counts == [1, 1]

    def test_assembly_checks_only_the_templates_it_builds(self, calls):
        g = bench_graph("trivalent_punctured", 200, "x/1")
        named = {
            v: "punctured_2gon_T1" if g.valency(v) == 2 else "rank1_trivalent"
            for v in g.vertices
        }
        assert set(named.values()) == {"punctured_2gon_T1", "rank1_trivalent"}
        for assign, checks in ((star_assignment(g), (0, 0)), (named, (2, 2 + 3))):
            for glue in (assemble_global, lambda g, a: amalgamate(assembly_diagram(g, a))):
                calls.clear()
                glue(g, assign)
                # a built-in name is parsed, and its template checked, once
                # per call: one `_check_slots` per template, one
                # `validate_morphism` per slot
                assert (calls["_check_slots"], calls["validate_morphism"]) == checks

    def test_construction_checks_each_vertex_and_incidence_once(self, calls):
        g = bench_graph("higher_genus", 400, "x/1")
        d = assembly_diagram(g, star_assignment(g))
        text = serialize(d)
        # a parsed diagram shares its quivers, as the assembled one does
        for build in (
            lambda: AmalgamationDiagram(d.graph, d.vertex_quivers, d.edge_quivers, d.incidences),
            lambda: parse_diagram(text),
        ):
            calls.clear()
            build()
            assert calls == {
                "_check_slots": len(g.vertices), "validate_morphism": len(g.halfedges)
            }

    def test_a_shared_quiver_is_checked_with_each_vertex_incidences(self, four_gon):
        # v1 and v2 carry one star quiver; v2, checked after v1, sends r2
        # onto s2's frozen component, so v1 passing must not pass v2
        d = assembly_diagram(four_gon, star_assignment(four_gon))
        assert d.vertex_quivers["v1"] is d.vertex_quivers["v2"]
        bad = dict(d.incidences)
        m = bad["s2"]
        bad["r2"] = QuiverMorphism(
            bad["r2"].source, m.target, dict(m.vertex_map), dict(m.arrow_map)
        )
        message = "vertex v2: incidence r2 overlaps another incidence"
        with pytest.raises(ValueError) as info:
            AmalgamationDiagram(d.graph, d.vertex_quivers, d.edge_quivers, bad)
        assert str(info.value) == message
        # parsed, v1 and v2 share one quiver object too
        obj = to_jsonable(d)
        obj["incidences"]["r2"] = obj["incidences"]["s2"]
        with pytest.raises(ParseError) as info:
            parse_diagram(json.dumps(obj))
        assert str(info.value) == "at /: " + message


class TestDiagramConstruction:
    def test_later_edits_of_the_callers_tables_leave_the_diagram_alone(self, four_gon):
        d = assembly_diagram(four_gon, star_assignment(four_gon))
        tables = {
            "vertex_quivers": dict(d.vertex_quivers),
            "edge_quivers": dict(d.edge_quivers),
            "incidences": dict(d.incidences),
        }
        built = AmalgamationDiagram(d.graph, **tables)
        for table in tables.values():
            table.clear()
        assert built == d
        assert amalgamate(built) == amalgamate(d)

    def test_copies_of_an_assembled_diagram_are_equal(self, four_gon):
        d = assembly_diagram(four_gon, {"v1": "a2_trivalent", "v2": "a2_trivalent"})
        for c in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert type(c) is AmalgamationDiagram and c == d
            assert serialize(amalgamate(c)) == serialize(amalgamate(d))

    def test_a_checked_diagram_refuses_edits(self):
        g = bench_graph("higher_genus", 30, "s")
        assembled = assembly_diagram(g, star_assignment(g))
        checked = AmalgamationDiagram(
            g, assembled.vertex_quivers, assembled.edge_quivers, assembled.incidences
        )
        v, e = g.vertices[0], g.edges()[0]
        for d in (assembled, checked):
            glued = amalgamate(d)
            for table, key in (
                (d.vertex_quivers, v), (d.edge_quivers, e), (d.incidences, e)
            ):
                other = star(5) if table is d.vertex_quivers else table[key]
                edits = (
                    lambda: table.__setitem__(key, other),
                    lambda: table.__delitem__(key),
                    lambda: table.__ior__({key: other}),
                    lambda: table.update({key: other}),
                    lambda: table.setdefault("ghost", other),
                    lambda: table.pop(key),
                    table.popitem,
                    table.clear,
                )
                for edit in edits:
                    with pytest.raises(TypeError, match="read-only"):
                        edit()
            assert d == assembled
            assert amalgamate(d) == glued
            assert serialize(amalgamate(d)) == serialize(glued)

    def test_copies_of_a_diagram_keep_its_tables_read_only(self):
        g = bench_graph("higher_genus", 30, "s")
        d = assembly_diagram(g, star_assignment(g))
        v = g.vertices[0]
        for c in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert c == d
            assert serialize(amalgamate(c)) == serialize(amalgamate(d))
            with pytest.raises(TypeError):
                c.vertex_quivers[v] = star(5)
            with pytest.raises(TypeError):
                c.incidences[g.halfedges[0]].vertex_map["u"] = "hub"

    def test_copies_store_what_the_diagram_holds_without_a_check(self, monkeypatch):
        g = bench_graph("higher_genus", 30, "s")
        d = assembly_diagram(g, star_assignment(g))
        glued = serialize(amalgamate(d))
        calls = Counter()
        for name in ("_validate_diagram", "_check_slots", "validate_morphism"):
            monkeypatch.setattr(quiver, name, lambda *args, name=name: calls.update([name]))
        copies = [copy.copy(d), copy.deepcopy(d)] + [
            pickle.loads(pickle.dumps(d, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        assert calls == Counter()
        # a shallow copy holds the very tables the diagram holds
        assert all(getattr(copies[0], t) is getattr(d, t) for t in d._fields)
        monkeypatch.undo()
        v, h = g.vertices[0], g.halfedges[0]
        for c in copies:
            assert type(c) is AmalgamationDiagram and c == d
            assert serialize(amalgamate(c)) == glued
            with pytest.raises(TypeError, match="read-only"):
                c.vertex_quivers[v] = star(5)
            with pytest.raises(TypeError, match="read-only"):
                c.incidences[h].vertex_map["u"] = "hub"

    def test_a_parsed_diagram_reports_a_fault_of_the_whole_at_its_pointer(self, four_gon):
        d = assembly_diagram(four_gon, star_assignment(four_gon))
        obj = to_jsonable(d)
        obj["vertex_quivers"]["ghost"] = obj["vertex_quivers"]["v1"]
        message = "quiver given for unknown vertex 'ghost'"
        with pytest.raises(ParseError) as info:
            parse_diagram(json.dumps(obj))
        assert (info.value.pointer, str(info.value)) == ("/", "at /: " + message)
        with pytest.raises(ParseError) as info:
            diagram_from_jsonable(obj, "/d")
        assert (info.value.pointer, str(info.value)) == ("/d", "at /d: " + message)
        with pytest.raises(ParseError) as info:
            parse_diagram(serialize(extra_key_tables()))
        assert str(info.value) == (
            "at /: vertex v: incidence h morphism invalid: vertex map names unknown vertex extra"
        )


class TestIsomorphism:
    def test_relabeled_copy(self, a2_triangle_figure):
        q = a2_triangle_figure
        relabeled = IceQuiver(
            [QuiverVertex("n" + v.id, v.frozen, v.label) for v in q.vertices],
            [
                QuiverArrow("z" + a.id, "n" + a.src, "n" + a.dst, a.frozen)
                for a in q.arrows
            ],
        )
        assert quivers_isomorphic(q, relabeled)

    def test_frozen_flags_matter(self):
        q1 = IceQuiver([QuiverVertex("a"), QuiverVertex("b")], [QuiverArrow("x", "a", "b")])
        q2 = IceQuiver(
            [QuiverVertex("a", frozen=True), QuiverVertex("b", frozen=True)],
            [QuiverArrow("x", "a", "b", frozen=True)],
        )
        assert not quivers_isomorphic(q1, q2)

    def test_orientation_matters(self):
        q1 = IceQuiver(
            [QuiverVertex("a"), QuiverVertex("b"), QuiverVertex("c")],
            [QuiverArrow("x", "a", "b"), QuiverArrow("y", "b", "c")],
        )
        q2 = IceQuiver(
            [QuiverVertex("a"), QuiverVertex("b"), QuiverVertex("c")],
            [QuiverArrow("x", "a", "b"), QuiverArrow("y", "c", "b")],
        )
        assert not quivers_isomorphic(q1, q2)

    def test_multiplicity_matters(self):
        q1 = IceQuiver(
            [QuiverVertex("a"), QuiverVertex("b")],
            [QuiverArrow("x", "a", "b"), QuiverArrow("y", "a", "b")],
        )
        q2 = IceQuiver(
            [QuiverVertex("a"), QuiverVertex("b")],
            [QuiverArrow("x", "a", "b"), QuiverArrow("y", "b", "a")],
        )
        assert not quivers_isomorphic(q1, q2)

    def test_labels_are_ignored(self):
        q1 = IceQuiver([QuiverVertex("a", label="1")], [])
        q2 = IceQuiver([QuiverVertex("b", label="2")], [])
        assert quivers_isomorphic(q1, q2)

    def test_empty_quivers(self):
        assert quivers_isomorphic(IceQuiver([], []), IceQuiver([], []))

    def test_self_loops_against_a_two_cycle(self):
        # every vertex has the same degrees, so only the loops tell them apart
        ab = [QuiverVertex("a"), QuiverVertex("b")]
        loops = IceQuiver(ab, [QuiverArrow("x", "a", "a"), QuiverArrow("y", "b", "b")])
        cycle = IceQuiver(ab, [QuiverArrow("x", "a", "b"), QuiverArrow("y", "b", "a")])
        assert not quivers_isomorphic(loops, cycle)
        assert not quivers_isomorphic(cycle, loops)

    def test_self_loops(self):
        q1 = IceQuiver([QuiverVertex("a"), QuiverVertex("b")], [QuiverArrow("x", "a", "a")])
        q2 = IceQuiver([QuiverVertex("a"), QuiverVertex("b")], [QuiverArrow("x", "a", "b")])
        assert not quivers_isomorphic(q1, q2)

    def test_agrees_with_brute_force_on_small_quivers(self):
        def arrows_under(q, image):
            return Counter((image[a.src], image[a.dst], a.frozen) for a in q.arrows)

        def brute_force(q1, q2):
            ids1, ids2 = [v.id for v in q1.vertices], [v.id for v in q2.vertices]
            frozen1 = {v.id: v.frozen for v in q1.vertices}
            frozen2 = {v.id: v.frozen for v in q2.vertices}
            target = arrows_under(q2, {v: v for v in ids2})
            return len(ids1) == len(ids2) and any(
                all(frozen1[v] == frozen2[w] for v, w in zip(ids1, perm))
                and arrows_under(q1, dict(zip(ids1, perm))) == target
                for perm in itertools.permutations(ids2)
            )

        rng = random.Random(3)
        answers = Counter()
        for _ in range(300):
            n = rng.randint(1, 5)
            q1 = _random_quiver(rng, n, rng.randint(0, 2 * n))
            if rng.random() < 0.5:
                q2 = _random_quiver(rng, n, rng.randint(0, 2 * n))
            else:  # a relabelled copy, sometimes with one arrow reversed
                q2 = _relabelled(q1, rng)
                if q2.arrows and rng.random() < 0.5:
                    a = q2.arrows[0]
                    q2 = IceQuiver(
                        q2.vertices, [QuiverArrow(a.id, a.dst, a.src, a.frozen), *q2.arrows[1:]]
                    )
            answer = quivers_isomorphic(q1, q2)
            assert answer == brute_force(q1, q2)
            answers[answer] += 1
        assert min(answers[True], answers[False]) > 50
        q1, q2 = _frozen_loop_pair()
        assert not brute_force(q1, q2)
        assert not quivers_isomorphic(q1, q2) and not quivers_isomorphic(q2, q1)

    def test_the_search_decides_what_colour_refinement_cannot_see(self):
        def quiver(n, ends):
            return IceQuiver(
                [QuiverVertex(str(i)) for i in range(n)],
                [QuiverArrow("a{}".format(k), str(s), str(d)) for k, (s, d) in enumerate(ends)],
            )

        def bipartite(doubled):  # every row to every column, twice on ``doubled``
            return quiver(8, [(i, 4 + j) for i in range(4) for j in range(4)] + doubled)

        hexagon = quiver(6, [(i, (i + 1) % 6) for i in range(6)])
        triangles = quiver(6, [(i, i + 1 - 3 * (i % 3 == 2)) for i in range(6)])
        # the doubled arrows form one 8-cycle, or two 4-cycles: each vertex
        # meets two either way, so only their multiplicities tell them apart
        cycle = bipartite([(i, 4 + (i + k) % 4) for i in range(4) for k in (0, 1)])
        squares = bipartite([(i, 4 + (i ^ k)) for i in range(4) for k in (0, 1)])
        for q1, q2 in ((hexagon, triangles), (cycle, squares)):
            assert _refine((q1, q2), attrgetter("frozen")) is not None
            assert not quivers_isomorphic(q1, q2)
            assert not quivers_isomorphic(q2, q1)
            assert quivers_isomorphic(q1, _relabelled(q1, random.Random(5)))

    def test_agrees_with_networkx_on_small_quivers(self):
        nx = pytest.importorskip("networkx")

        def networkx_isomorphic(q1, q2):
            return nx.is_isomorphic(
                _labelled_quiver(nx, q1), _labelled_quiver(nx, q2),
                node_match=lambda a, b: a["frozen"] == b["frozen"], edge_match=_same_arrows,
            )

        rng = random.Random(27)
        answers = Counter()
        pairs = [_frozen_loop_pair()]
        for _ in range(600):
            q1 = _random_quiver(rng, rng.randint(1, 8), rng.randint(0, 12))
            kind = rng.randrange(3)
            if kind == 0:
                q2 = _random_quiver(rng, len(q1.vertices), len(q1.arrows))
            else:
                q2 = _relabelled(q1, rng)
            if kind == 2 and q2.arrows:  # a near-miss: one arrow drawn again
                arrows = list(q2.arrows)
                a = arrows.pop(rng.randrange(len(arrows)))
                ends = [v.id for v in q2.vertices if v.frozen or not a.frozen]
                arrows.append(QuiverArrow(a.id, rng.choice(ends), rng.choice(ends), a.frozen))
                q2 = IceQuiver(q2.vertices, arrows)
            pairs.append((q1, q2))
        for q1, q2 in pairs:
            answer = quivers_isomorphic(q1, q2)
            assert answer == networkx_isomorphic(q1, q2)
            answers[answer] += 1
        assert min(answers[True], answers[False]) > 150

    def test_quiver_larger_than_the_recursion_limit(self):
        # trivalent vertices in a row, each with a stub, the ends with two
        n = sys.getrecursionlimit() // 5 + 1
        cyclic, twin = {}, {}
        for i in range(n):
            ring = ["s{}".format(i)]
            if i > 0:
                ring.append("l{}".format(i))
                twin["l{}".format(i)] = "r{}".format(i - 1)
                twin["r{}".format(i - 1)] = "l{}".format(i)
            ring.append("r{}".format(i) if i < n - 1 else "t")
            if i == 0:
                ring.append("u")
            cyclic["v{}".format(i)] = ring
        g = RibbonGraph(cyclic, twin)
        q = assemble_global(g, {v: "a2_trivalent" for v in g.vertices})
        assert len(q.vertices) > sys.getrecursionlimit()
        assert quivers_isomorphic(q, q)


def _random_quiver(rng: random.Random, n: int, m: int) -> IceQuiver:
    """``n`` vertices, each frozen with chance 0.3, and ``m`` arrows with
    random ends; when there are frozen vertices, an arrow is a frozen one
    between two of them with chance 0.3, loops included."""
    ids = ["v{}".format(i) for i in range(n)]
    verts = [QuiverVertex(v, rng.random() < 0.3) for v in ids]
    frozen = [v.id for v in verts if v.frozen]
    arrows = []
    for j in range(m):
        ends = frozen if frozen and rng.random() < 0.3 else ids
        src, dst = rng.choice(ends), rng.choice(ends)
        arrows.append(QuiverArrow("a{}".format(j), src, dst, ends is frozen))
    return IceQuiver(verts, arrows)


def _relabelled(q: IceQuiver, rng: random.Random) -> IceQuiver:
    """``q`` with its vertices renamed by a seeded shuffle of fresh names."""
    fresh = ["w{}".format(k) for k in range(len(q.vertices))]
    rng.shuffle(fresh)
    names = dict(zip((v.id for v in q.vertices), fresh))
    return IceQuiver(
        [QuiverVertex(names[v.id], v.frozen) for v in q.vertices],
        [QuiverArrow(a.id, names[a.src], names[a.dst], a.frozen) for a in q.arrows],
    )


def _frozen_loop_pair() -> tuple[IceQuiver, IceQuiver]:
    """A frozen vertex with three frozen loops and one mutable loop, and
    one with two of each, the other arrows equal: the same loops as a
    set of flags, different as a multiset."""
    verts = [QuiverVertex("f", frozen=True), QuiverVertex("m")]
    pair = []
    for flags in ((True, True, True, False), (True, True, False, False)):
        loops = [QuiverArrow("l{}".format(i), "f", "f", flag) for i, flag in enumerate(flags)]
        pair.append(IceQuiver(verts, [*loops, QuiverArrow("x", "f", "m")]))
    return pair[0], pair[1]


class TestExportDot:
    def test_exact_text(self):
        q = IceQuiver(
            [
                QuiverVertex("m"),
                QuiverVertex("r", frozen=True, label="1"),
                QuiverVertex("f", frozen=True),
            ],
            [QuiverArrow("a", "m", "r"), QuiverArrow("b", "r", "f", frozen=True)],
        )
        assert export_dot(q) == (
            "digraph {\n"
            '  "f" [shape=box];\n'
            '  "m" [shape=ellipse];\n'
            '  "r" [shape=box label="r (1)"];\n'
            '  "m" -> "r";\n'
            '  "r" -> "f" [style=dashed];\n'
            "}\n"
        )

    def test_quoting(self):
        q = IceQuiver([QuiverVertex('we"ird')], [])
        assert '\\"' in export_dot(q)
