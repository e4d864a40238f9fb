import copy
import pickle
import random
from collections import Counter

import pytest

from conftest import (
    bench_graph, colliding_assembly, extra_key_tables, frozen_ids, sample_graphs, vertex_ids,
)
from randgraphs import _attempt
from test_naturality import _bench_assemblies
from ribboncalc import (
    BUILTIN_TEMPLATE_NAMES,
    AmalgamationDiagram,
    IceQuiver,
    LocalTemplate,
    QuiverArrow,
    QuiverMorphism,
    QuiverVertex,
    RibbonGraph,
    amalgamate,
    assemble_global,
    assembly_diagram,
    basicness_check,
    builtin_template,
    export_dot,
    parse_template,
    quivers_isomorphic,
    serialize,
    star_template,
    tagged_triangulation,
    to_jsonable,
    validate_morphism,
    validate_template,
)
from ribboncalc import assembly, quiver


def _one_arrow_a2() -> LocalTemplate:
    """Three frozen pairs joined r -> f, each a slot whose interface keeps
    only the arrow u1 -> u2 of the a2 interface."""
    boundary = IceQuiver(
        [QuiverVertex("u1", True), QuiverVertex("u2", True)],
        [QuiverArrow("a12", "u1", "u2", True)],
    )
    verts, arrows, maps = [], [], []
    for s in range(3):
        r, f = "r{}".format(s), "f{}".format(s)
        verts += [QuiverVertex(r, True), QuiverVertex(f, True)]
        arrows.append(QuiverArrow("fr{}".format(s), r, f, True))
        maps.append(({"u1": r, "u2": f}, {"a12": "fr{}".format(s)}))
    q = IceQuiver(verts, arrows)
    slots = tuple(QuiverMorphism(boundary, q, vmap, amap) for vmap, amap in maps)
    return LocalTemplate("one_arrow_a2", q, slots)


def _kept_arrows_a2() -> LocalTemplate:
    """`a2_trivalent` with a frozen arrow ``gr<i>: f<i> -> r<i>`` as the
    image of each slot's ``a21``, so that an interface glued from two of
    its slots keeps both of its arrows."""
    t = builtin_template("a2_trivalent")
    grs = tuple(
        QuiverArrow("gr{}".format(i), "f{}".format(i), "r{}".format(i), True) for i in range(3)
    )
    q = IceQuiver(t.quiver.vertices, t.quiver.arrows + grs)
    slots = tuple(
        QuiverMorphism(s.source, q, s.vertex_map, dict(s.arrow_map, a21=gr.id))
        for s, gr in zip(t.slots, grs)
    )
    return LocalTemplate(t.name, q, slots, t.stalk)


def _mutable_point_star() -> LocalTemplate:
    """`star_template(3)` with a mutable interface vertex in every slot."""
    star = star_template(3)
    point = IceQuiver([QuiverVertex("u", False)], [])
    slots = tuple(QuiverMorphism(point, s.target, s.vertex_map, s.arrow_map) for s in star.slots)
    return LocalTemplate("mutable_point_star", star.quiver, slots)


def _parallel_arrows_template(*zero: str) -> LocalTemplate:
    """Two slots on one interface: frozen u1 and u2 with arrows p, q:
    u1 -> u2 and r, s: u2 -> u1.  Slot k sends u1 and u2 to frozen i<k>
    and o<k>, and p, q to the frozen arrow x<k>: i<k> -> o<k> and r, s to
    y<k>: o<k> -> i<k>, the arrows ``zero`` to zero."""
    ends = {"p": ("u1", "u2"), "q": ("u1", "u2"), "r": ("u2", "u1"), "s": ("u2", "u1")}
    boundary = IceQuiver(
        [QuiverVertex("u1", True), QuiverVertex("u2", True)],
        [QuiverArrow(a, src, dst, True) for a, (src, dst) in ends.items()],
    )
    verts, arrows, maps = [], [], []
    for k in range(2):
        i, o, x, y = ("{}{}".format(c, k) for c in "ioxy")
        verts += [QuiverVertex(i, True), QuiverVertex(o, True)]
        arrows += [QuiverArrow(x, i, o, True), QuiverArrow(y, o, i, True)]
        images = {"p": x, "q": x, "r": y, "s": y}
        images.update(dict.fromkeys(zero))
        maps.append(({"u1": i, "u2": o}, images))
    q = IceQuiver(verts, arrows)
    slots = tuple(QuiverMorphism(boundary, q, vmap, amap) for vmap, amap in maps)
    return LocalTemplate("parallel", q, slots)


class TestBuiltinTemplates:
    def test_registry(self):
        assert BUILTIN_TEMPLATE_NAMES == (
            "a2_trivalent",
            "punctured_2gon_T1",
            "punctured_2gon_T2",
            "punctured_2gon_T3",
            "punctured_2gon_T4",
            "rank1_trivalent",
        )

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown template"):
            builtin_template("rank9000")

    # graph fixtures and path-like names are unknown too: the name is
    # checked before any file is looked for
    @pytest.mark.parametrize(
        "name",
        ["rank9000", "annulus", "../fixtures/annulus", "a2_trivalent.json", "", ["a2_trivalent"]],
    )
    def test_unknown_name_message(self, name):
        message = "unknown template {!r}; built in: {}".format(
            name, ", ".join(BUILTIN_TEMPLATE_NAMES)
        )
        with pytest.raises(ValueError) as info:
            builtin_template(name)
        assert str(info.value) == message

    @pytest.mark.parametrize("name", BUILTIN_TEMPLATE_NAMES)
    def test_each_call_returns_a_fresh_copy(self, name):
        first, second = builtin_template(name), builtin_template(name)
        assert first == second
        assert first is not second
        assert first.name == name

    def test_rank1_exact(self):
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

    def test_a2_counts(self):
        q = builtin_template("a2_trivalent").quiver
        assert len(q.vertices) == 7
        assert len(frozen_ids(q)) == 6
        assert len(q.frozen_components()) == 3
        assert len(q.arrows) == 12
        assert sum(1 for a in q.arrows if a.frozen) == 3

    def test_a2_matches_figure(self, a2_triangle_figure):
        q = builtin_template("a2_trivalent").quiver
        assert quivers_isomorphic(q, a2_triangle_figure)

    def test_punctured_cycle_pair(self):
        t1 = builtin_template("punctured_2gon_T1").quiver
        t2 = builtin_template("punctured_2gon_T2").quiver
        expect = IceQuiver(
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
        assert t1 == expect
        assert t2 == expect

    def test_punctured_flip_pair(self):
        t3 = builtin_template("punctured_2gon_T3").quiver
        t4 = builtin_template("punctured_2gon_T4").quiver
        expect = IceQuiver(
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
        assert t3 == expect
        assert t4 == expect

    def test_all_templates_validate(self):
        for name in BUILTIN_TEMPLATE_NAMES:
            validate_template(builtin_template(name))

    def test_star_template(self):
        t = star_template(5)
        assert t.valency == 5
        assert len(t.quiver.vertices) == 6
        with pytest.raises(ValueError, match="at least 2"):
            star_template(1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_star_slots_share_their_interface(self, n):
        # one interface quiver for every slot: the template equals, and
        # writes as, a star with an interface of its own at each slot
        t = star_template(n)
        assert len({id(m.source) for m in t.slots}) == 1
        apart = [
            QuiverMorphism(IceQuiver([QuiverVertex("u", True)], []), m.target, m.vertex_map, {})
            for m in t.slots
        ]
        own = LocalTemplate(t.name, t.quiver, apart)
        assert len({id(m.source) for m in own.slots}) == n
        assert own == t and serialize(own) == serialize(t)

    def test_slot_morphisms_are_valid(self):
        t = builtin_template("a2_trivalent")
        for m in t.slots:
            assert m.target == t.quiver
            assert validate_morphism(m).ok


class TestValidateTemplate:
    @pytest.mark.parametrize(
        "name, frozen_arrow, images, message",
        [
            ("bad", False, ["z"],
             "template bad: slot 0 morphism invalid: vertex u maps to unknown vertex z"),
            ("half", True, ["x"], "template half: slot 0 image is not a frozen component"),
            ("dup", False, ["x", "x"], "template dup: slot 1 overlaps another slot"),
            ("gap", False, ["x"], "template gap: frozen vertices ['y'] belong to no slot"),
            ("list", False, [["x"], "y"],
             "template list: slot 0 morphism invalid: vertex u maps to unknown vertex ['x']"),
        ],
        ids=["morphism", "component", "overlap", "cover", "unhashable image"],
    )
    def test_construction_checks_the_template(self, name, frozen_arrow, images, message):
        # with the frozen arrow x -> y, {x} alone is not a frozen component
        quiver = IceQuiver(
            [QuiverVertex("m"), QuiverVertex("x", frozen=True), QuiverVertex("y", frozen=True)],
            [QuiverArrow("xy", "x", "y", True)] if frozen_arrow else [],
        )
        point = IceQuiver([QuiverVertex("u", frozen=True)], [])
        slots = tuple(QuiverMorphism(point, quiver, {"u": x}, {}) for x in images)
        with pytest.raises(ValueError) as info:
            LocalTemplate(name, quiver, slots)
        assert str(info.value) == message

    def test_a_slot_key_the_interface_lacks_is_rejected(self):
        d = extra_key_tables()
        point, q = d["edge_quivers"]["h"], d["vertex_quivers"]["v"]
        slots = (
            QuiverMorphism(point, q, d["incidences"]["h"].vertex_map, {}),
            QuiverMorphism(point, q, {"u": "c"}, {}),
        )
        with pytest.raises(ValueError) as info:
            LocalTemplate("t", q, slots)
        assert str(info.value) == (
            "template t: slot 0 morphism invalid: vertex map names unknown vertex extra"
        )

    @pytest.mark.parametrize(
        "arrow_map, fault",
        [
            ({"a12": "fr0"}, "arrow a12 does not respect endpoints under the vertex map"),
            ({"a12": "zz"}, "arrow a12 maps to unknown arrow zz"),
            ({"a12": "fr2", "b": None}, "arrow map names unknown arrow b"),
        ],
        ids=["endpoints", "unknown image", "unknown key"],
    )
    def test_a_later_slot_morphism_is_validated(self, arrow_map, fault):
        # each slot is its own morphism, and every one is checked
        t = _one_arrow_a2()
        s = t.slots[2]
        slots = t.slots[:2] + (QuiverMorphism(s.source, t.quiver, s.vertex_map, arrow_map),)
        with pytest.raises(ValueError) as info:
            LocalTemplate(t.name, t.quiver, slots)
        assert str(info.value) == "template one_arrow_a2: slot 2 morphism invalid: " + fault

    def test_each_slot_lands_in_the_template_quiver(self):
        star = star_template(3)
        q = star.quiver
        other = IceQuiver(q.vertices + (QuiverVertex("extra"),), q.arrows)
        equal = IceQuiver(q.vertices, q.arrows)
        for i, s in enumerate(star.slots):
            for target in (other, equal):
                slots = list(star.slots)
                slots[i] = QuiverMorphism(s.source, target, s.vertex_map, s.arrow_map)
                if target is equal:
                    assert LocalTemplate(star.name, q, tuple(slots)) == star
                    continue
                with pytest.raises(ValueError) as info:
                    LocalTemplate(star.name, q, tuple(slots))
                assert info.value.location == ("slots", i)
                assert str(info.value) == (
                    "template star_3: slot {} lands outside the template quiver".format(i)
                )

    def test_built_and_parsed_slots_target_their_own_quiver(self):
        templates = [builtin_template(name) for name in BUILTIN_TEMPLATE_NAMES]
        templates += [star_template(n) for n in range(2, 6)]
        templates += [parse_template(serialize(t)) for t in templates]
        for t in templates:
            assert all(m.target is t.quiver for m in t.slots), t.name

    def test_name_and_stalk_must_be_strings(self):
        star = star_template(2)
        with pytest.raises(ValueError, match="template name 5 is not a string") as info:
            LocalTemplate(5, star.quiver, star.slots)
        assert info.value.location == ("name",)
        with pytest.raises(ValueError, match="template stalk 5 is not a string") as info:
            LocalTemplate("star", star.quiver, star.slots, 5)
        assert info.value.location == ("stalk",)
        unnamed = LocalTemplate(None, star.quiver, star.slots)
        assert parse_template(serialize(unnamed)) == unnamed

    def test_image_must_be_a_frozen_component(self):
        quiver = IceQuiver(
            [QuiverVertex("m"), QuiverVertex("x", frozen=True), QuiverVertex("y", frozen=True)],
            [],
        )
        point = IceQuiver([QuiverVertex("u", frozen=True)], [])
        slots = (
            QuiverMorphism(point, quiver, {"u": "x"}, {}),
            QuiverMorphism(point, quiver, {"u": "y"}, {}),
        )
        validate_template(LocalTemplate("ok", quiver, slots))
        with pytest.raises(ValueError, match="slot 1"):
            validate_template(
                LocalTemplate("dup", quiver, (slots[0], slots[0]))
            )

    def test_uncovered_frozen_vertex(self):
        quiver = IceQuiver(
            [QuiverVertex("m"), QuiverVertex("x", frozen=True), QuiverVertex("y", frozen=True)],
            [],
        )
        point = IceQuiver([QuiverVertex("u", frozen=True)], [])
        with pytest.raises(ValueError, match="belong to no slot"):
            validate_template(
                LocalTemplate("gap", quiver, (QuiverMorphism(point, quiver, {"u": "x"}, {}),))
            )


def _shared_stars(g: RibbonGraph, three: LocalTemplate) -> dict:
    """One `star_template` per valency, shared by the vertices of that
    valency, with ``three`` at the trivalent ones."""
    stars = {n: star_template(n) for n in {g.valency(v) for v in g.vertices}}
    stars[3] = three
    return {v: stars[g.valency(v)] for v in g.vertices}


class TestTemplatesStayChecked:
    """A template keeps its slots as a tuple of morphisms whose maps are
    read-only, so no edit after its check reaches the assembly."""

    def test_a_slot_map_refuses_an_edit(self):
        g = bench_graph("higher_genus", 30, "s")
        t = star_template(3)
        assign = _shared_stars(g, t)
        glued = assemble_global(g, assign)
        # slot 0 would land on slot 1's tip, which the check refuses
        with pytest.raises(ValueError, match="slot 1 overlaps another slot"):
            LocalTemplate(t.name, t.quiver, (t.slots[1], *t.slots[1:]))
        with pytest.raises(TypeError, match="read-only"):
            t.slots[0].vertex_map["u"] = t.slots[1].vertex_map["u"]
        with pytest.raises(TypeError, match="read-only"):
            t.slots[0].arrow_map["ghost"] = None
        assert t == star_template(3)
        assert assemble_global(g, assign) == glued
        assert serialize(assemble_global(g, assign)) == serialize(glued)

    def test_slots_given_as_a_list_are_kept_as_a_tuple(self):
        g = bench_graph("higher_genus", 30, "s")
        star = star_template(3)
        slots = list(star.slots)
        t = LocalTemplate(star.name, star.quiver, slots)
        assert type(t.slots) is tuple and t == star
        glued = assemble_global(g, _shared_stars(g, t))
        slots.append(slots[0])
        with pytest.raises(AttributeError):
            t.slots.append(t.slots[0])
        with pytest.raises(TypeError):
            t.slots[0] = t.slots[1]
        assert t.valency == 3
        assert assemble_global(g, _shared_stars(g, t)) == glued

    def test_copies_of_a_template_glue_alike(self):
        g = bench_graph("higher_genus", 30, "s")
        t = star_template(3)
        glued = serialize(assemble_global(g, _shared_stars(g, t)))
        for c in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert c == t and type(c.slots) is tuple
            assert serialize(assemble_global(g, _shared_stars(g, c))) == glued
            with pytest.raises(TypeError):
                c.slots[0].vertex_map["u"] = "t1"

    def test_copies_store_what_the_template_holds_without_a_check(self, monkeypatch):
        g = bench_graph("higher_genus", 30, "s")
        t = star_template(3)
        glued = serialize(assemble_global(g, _shared_stars(g, t)))
        calls = Counter()
        for module, name in (
            (assembly, "validate_template"), (assembly, "_check_slots"),
            (quiver, "_check_slots"), (quiver, "validate_morphism"),
        ):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.update([name]))
        copies = [copy.copy(t), copy.deepcopy(t)] + [
            pickle.loads(pickle.dumps(t, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        assert calls == Counter()
        # a shallow copy holds the very slots and maps the template holds
        assert copies[0].slots is t.slots
        monkeypatch.undo()
        for c in copies:
            assert type(c) is LocalTemplate and c == t and type(c.slots) is tuple
            assert serialize(assemble_global(g, _shared_stars(g, c))) == glued
            for m in c.slots:
                with pytest.raises(TypeError, match="read-only"):
                    m.vertex_map["u"] = "hub"
                with pytest.raises(TypeError, match="read-only"):
                    m.arrow_map["ghost"] = None


class TestAssemble:
    def test_two_triangles_rank1(self):
        g = RibbonGraph(
            {"u": ("u1", "u2", "u3"), "w": ("w1", "w2", "w3")},
            {"u1": "w1", "w1": "u1"},
        )
        q = assemble_global(g, {"u": "rank1_trivalent", "w": "rank1_trivalent"})
        assert len(q.vertices) == 5
        assert len(frozen_ids(q)) == 4
        assert len(q.arrows) == 6
        assert not any(a.frozen for a in q.arrows)

    def test_four_gon_a2(self, four_gon, a2_four_gon_figure):
        q = assemble_global(four_gon, {"v1": "a2_trivalent", "v2": "a2_trivalent"})
        assert len(q.vertices) == 12
        assert len(frozen_ids(q)) == 8
        assert len(q.arrows) == 22
        assert sum(1 for a in q.arrows if a.frozen) == 4
        assert quivers_isomorphic(q, a2_four_gon_figure)

    def test_four_gon_glued_pair_is_unlinked(self, four_gon):
        # the two interface identifications leave no arrow between them
        q = assemble_global(four_gon, {"v1": "a2_trivalent", "v2": "a2_trivalent"})
        glued = {"v1.f0", "v1.r0"}
        assert glued <= set(vertex_ids(q))
        between = [
            a for a in q.arrows if {a.src, a.dst} == glued
        ]
        assert between == []

    def test_interface_arrows_kept_by_both_sides(self, four_gon):
        t = _kept_arrows_a2()
        assign = {"v1": t, "v2": t}
        kept = [
            QuiverArrow("m1.a12", "v1.r0", "v1.f0"),
            QuiverArrow("m1.a21", "v1.f0", "v1.r0"),
        ]
        validated = amalgamate(assembly_diagram(four_gon, assign))
        for q in assemble_global(four_gon, assign), validated:
            assert [a for a in q.arrows if a.id.startswith("m1.")] == kept

    def test_once_punctured_4gon(self, once_punctured_4gon):
        q = assemble_global(
            once_punctured_4gon,
            {"w1": "rank1_trivalent", "p": "punctured_2gon_T1", "w2": "rank1_trivalent"},
        )
        assert len(q.vertices) == 8
        assert len(frozen_ids(q)) == 4
        assert len(q.arrows) == 10
        assert not any(a.frozen for a in q.arrows)

    def test_single_vertex_keeps_its_template(self, two_spider):
        # nothing to glue: the result is the local quiver, names qualified
        q = assemble_global(two_spider, {"v": "punctured_2gon_T2"})
        assert vertex_ids(q) == ("v.1", "v.2", "v.3", "v.4")
        assert frozen_ids(q) == ("v.1", "v.4")
        assert quivers_isomorphic(q, builtin_template("punctured_2gon_T2").quiver)

    def test_missing_template(self, four_gon):
        with pytest.raises(ValueError, match="has no template"):
            assemble_global(four_gon, {"v1": "a2_trivalent"})

    @pytest.mark.parametrize("name", ["a2_trivalent", "no_such_template"])
    def test_template_for_unknown_vertex(self, four_gon, name):
        assign = {"v1": "a2_trivalent", "v2": "a2_trivalent", "nope": name}
        for build in assemble_global, assembly_diagram:
            with pytest.raises(ValueError) as info:
                build(four_gon, assign)
            assert str(info.value) == "template given for unknown vertex 'nope'"

    def test_valency_mismatch(self, two_spider):
        with pytest.raises(ValueError, match="valency"):
            assemble_global(two_spider, {"v": "rank1_trivalent"})

    def test_interface_mismatch(self, four_gon):
        with pytest.raises(ValueError) as info:
            assemble_global(four_gon, {"v1": "a2_trivalent", "v2": star_template(3)})
        assert str(info.value) == (
            "interface quivers across edge m1 do not match: "
            "vertex counts 2 against 1 (m1 against m2)"
        )

    def test_interface_mismatch_names_an_arrow_group(self, four_gon):
        with pytest.raises(ValueError) as info:
            assemble_global(four_gon, {"v1": "a2_trivalent", "v2": _one_arrow_a2()})
        assert str(info.value) == (
            "interface quivers across edge m1 do not match: "
            "arrow group (u2, u1, frozen) has multiplicity 1 against 0 (m1 against m2)"
        )

    def test_interface_mismatch_names_a_frozen_flag(self, four_gon):
        with pytest.raises(ValueError) as info:
            assemble_global(four_gon, {"v1": star_template(3), "v2": _mutable_point_star()})
        assert str(info.value) == (
            "interface quivers across edge m1 do not match: "
            "frozen vertex u against mutable vertex u (m1 against m2)"
        )

    def test_parallel_interface_arrows_pair_in_id_order(self):
        # a1 -> b1 is the one internal edge; both ends are slot 0.  Across
        # it p, q: u1 -> u2 meet r, s: u2 -> u1, so p pairs with r and q
        # with s, which b's slot sends to zero: q alone is dropped
        g = RibbonGraph({"a": ("a1", "a2"), "b": ("b1", "b2")}, {"a1": "b1", "b1": "a1"})
        assign = {"a": _parallel_arrows_template(), "b": _parallel_arrows_template("s")}
        d = assembly_diagram(g, assign)
        assert d.incidences["b1"].arrow_map == {"p": "y0", "q": None, "r": "x0", "s": "x0"}
        for q in assemble_global(g, assign), amalgamate(d):
            assert [a.id for a in q.arrows if a.id.startswith("a1.")] == ["a1.p", "a1.r", "a1.s"]

    def test_inline_template_assignment(self, four_gon):
        q = assemble_global(four_gon, {v: star_template(3) for v in four_gon.vertices})
        assert len(q.vertices) == 7

    def test_colliding_qualified_ids_rejected(self):
        g, assign = colliding_assembly()
        for glue in (assemble_global, lambda g, a: amalgamate(assembly_diagram(g, a))):
            with pytest.raises(ValueError) as info:
                glue(g, assign)
            assert str(info.value) == "two vertices have qualified id 'a.b.c'"
        # with distinct qualified ids the same gluing keeps all five classes
        assign["a"] = star_template(2)
        assert len(assemble_global(g, assign).vertices) == 5

    def test_colliding_glued_arrow_ids_rejected(self):
        # glued arrows are named "vertex.arrow": a.(b.c) and (a.b).c collide
        g, assign = colliding_assembly("s0")
        for glue in (assemble_global, lambda g, a: amalgamate(assembly_diagram(g, a))):
            with pytest.raises(ValueError) as info:
                glue(g, assign)
            assert str(info.value) == "duplicate arrow id 'a.b.c'"

    def test_an_edge_arrow_id_colliding_with_a_vertex_arrow_id_rejected(self):
        # the internal edge e keeps its interface arrows as "e.p" and so on;
        # the vertex e keeps its external frozen arrow x1, renamed p, as "e.p"
        t = _parallel_arrows_template()
        name = {"x1": "p"}
        q = IceQuiver(
            t.quiver.vertices,
            [QuiverArrow(name.get(a.id, a.id), a.src, a.dst, a.frozen) for a in t.quiver.arrows],
        )
        maps = [{a: name.get(b, b) for a, b in s.arrow_map.items()} for s in t.slots]
        slots = [QuiverMorphism(s.source, q, s.vertex_map, m) for s, m in zip(t.slots, maps)]
        g = RibbonGraph({"a": ("a2", "e"), "e": ("f", "f2")}, {"e": "f", "f": "e"})
        assign = {"a": t, "e": LocalTemplate("renamed", q, slots)}
        for glue in (assemble_global, lambda g, a: amalgamate(assembly_diagram(g, a))):
            with pytest.raises(ValueError) as info:
                glue(g, assign)
            assert str(info.value) == "duplicate arrow id 'e.p'"
        # without the rename, the two ids are "e.p" and "e.x1"
        assign["e"] = t
        ids = {a.id for a in assemble_global(g, assign).arrows}
        assert {"e.p", "e.q", "e.r", "e.s", "e.x1"} <= ids


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


class TestTrustedAssembly:
    """`assembly_diagram` builds its diagram unchecked, and `amalgamate`
    checks nothing but qualified ids and builds its quiver unchecked: only
    the templates are checked, when they are built."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"validate_morphism": 0, "validate_template": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(quiver, "validate_morphism")
        counting(assembly, "validate_template")
        return calls

    @pytest.mark.parametrize("n", [200, 400])
    def test_builtin_checks_scale_with_distinct_templates(self, counts, n):
        g = _punctured_path(n)
        assign = _builtin_assignments(g, random.Random(n))[0]
        assert len(g.vertices) >= 200 and len(set(assign.values())) == 5
        counts.update(validate_morphism=0, validate_template=0)
        assemble_global(g, assign)
        # one check per distinct template, one per slot of each
        assert counts == {"validate_morphism": 3 + 4 * 2, "validate_template": 5}

    def test_star_templates_are_checked_when_built(self, counts):
        g = _attempt(random.Random(7), 250)
        assign = {v: star_template(g.valency(v)) for v in g.vertices}
        # one check per template built, one morphism check per slot
        assert counts == {
            "validate_morphism": sum(g.valency(v) for v in g.vertices),
            "validate_template": len(g.vertices),
        }
        counts.update(validate_morphism=0, validate_template=0)
        assemble_global(g, assign)
        assert counts == {"validate_morphism": 0, "validate_template": 0}

    def test_templates_are_taken_as_given(self, monkeypatch):
        # per-vertex copies, and one object per valency: no template quiver
        # is hashed and no two templates are compared
        g = _attempt(random.Random(7), 250)
        stars = {n: star_template(n) for n in {g.valency(v) for v in g.vertices}}
        assigns = (
            {v: star_template(g.valency(v)) for v in g.vertices},
            {v: stars[g.valency(v)] for v in g.vertices},
        )
        calls = []
        for cls, name in ((IceQuiver, "__hash__"), (LocalTemplate, "__eq__")):

            def counting(self, *args, original=getattr(cls, name), name=name):
                calls.append(name)
                return original(self, *args)

            monkeypatch.setattr(cls, name, counting)
        for assign in assigns:
            assemble_global(g, assign)
        assert calls == []
        v = g.vertices[0]
        hash(assigns[1][v].quiver)
        assert assigns[1][v] == assigns[0][v]
        assert calls == ["__hash__", "__eq__"]

    @pytest.mark.parametrize("n", [100, 400])
    def test_gluing_builds_its_quiver_unchecked(self, monkeypatch, n):
        g = bench_graph("trivalent_punctured", n, "1/io")
        d = assembly_diagram(g, {
            v: "punctured_2gon_T1" if g.kind(v) == "singular" else "rank1_trivalent"
            for v in g.vertices
        })
        calls = []

        def counting(self, *args, original=IceQuiver.__init__):
            calls.append(len(args))
            original(self, *args)

        monkeypatch.setattr(IceQuiver, "__init__", counting)
        q = amalgamate(d)
        assert calls == []
        # the checking constructor still counts, and finds the same quiver
        assert IceQuiver(q.vertices, q.arrows) == q and calls == [2]

    def test_matches_the_validated_path(self):
        # the unchecked diagram passes the constructor's check, and a
        # diagram built, and so checked, from its tables glues alike; the
        # V=1000 punctured bench assemblies, T1 to T4, are among the cases
        rng = random.Random(11)
        graphs = sample_graphs()
        cases = []
        for g in graphs:
            assigns = _builtin_assignments(g, rng)
            assigns.append({v: star_template(g.valency(v)) for v in g.vertices})
            cases += [(g, assign) for assign in assigns]
        bench = [p.values for p in _bench_assemblies() if p.id.startswith("trivalent_punctured")]
        assert len(bench) == 2
        for g, assign in cases + bench:
            d = assembly_diagram(g, assign)
            quiver._validate_diagram(d)
            checked = AmalgamationDiagram(d.graph, d.vertex_quivers, d.edge_quivers, d.incidences)
            trusted, validated = assemble_global(g, assign), amalgamate(checked)
            assert trusted == validated
            assert serialize(trusted) == serialize(validated)
            assert export_dot(trusted) == export_dot(validated)
        assert len(cases) > len(graphs)


class TestBasicness:
    def test_flags_plain_2_valent(self):
        g = RibbonGraph(
            {"w1": ("w1p", "w1a", "w1b"), "p": ("pw2", "pw1"), "w2": ("w2a", "w2p", "w2b")},
            {"w1p": "pw1", "pw1": "w1p", "pw2": "w2p", "w2p": "pw2"},
        )
        warnings = basicness_check(g)
        assert warnings == [
            "vertex p is 2-valent and plain: the objects induced along "
            "its two edges may coincide"
        ]

    def test_silent_on_punctures_and_trivalents(self, once_punctured_4gon, four_gon):
        assert basicness_check(once_punctured_4gon) == []
        assert basicness_check(four_gon) == []


class TestTaggedTriangulation:
    def test_two_spider_all_choices_distinct(self, two_spider):
        seen = set()
        for choice in ("T1", "T2", "T3", "T4"):
            arcs = tagged_triangulation(two_spider, {"v": choice})
            assert len(arcs) == 2
            seen.add(serialize([to_jsonable(a) for a in arcs]))
        assert len(seen) == 4

    def test_two_spider_taggings(self, two_spider):
        picks = {
            "T1": [("h1", "plain"), ("h2", "plain")],
            "T2": [("h1", "notched"), ("h2", "notched")],
            "T3": [("h1", "notched"), ("h1", "plain")],
            "T4": [("h2", "notched"), ("h2", "plain")],
        }
        for choice, expect in picks.items():
            arcs = tagged_triangulation(two_spider, {"v": choice})
            assert [(a.via, a.tagging) for a in arcs] == expect

    def test_once_punctured_4gon_arcs(self, once_punctured_4gon):
        arcs = tagged_triangulation(once_punctured_4gon, {"p": "T1"})
        assert len(arcs) == 4
        duals = [a for a in arcs if a.kind == "dual"]
        assert sorted(a.edge for a in duals) == ["pw1", "pw2"]
        punct = [a for a in arcs if a.kind == "puncture"]
        assert [(a.via, a.tagging) for a in punct] == [
            ("pw1", "plain"),
            ("pw2", "plain"),
        ]
        # puncture arcs leave the puncture clockwise
        assert punct[0].path.edges == ("pw1", "w1a")
        assert punct[1].path.edges == ("pw2", "w2b")

    def test_arc_count_identity(self, once_punctured_4gon, two_spider):
        for g, choices in (
            (once_punctured_4gon, {"p": "T1"}),
            (two_spider, {"v": "T3"}),
        ):
            punctures = [v for v in g.vertices if g.valency(v) == 2]
            arcs = tagged_triangulation(g, choices)
            assert len(arcs) == len(g.internal_edges()) + 2 * len(punctures)

    def test_plain_2_valent_vertex_rejected(self):
        g = RibbonGraph(
            {"w1": ("w1p", "w1a", "w1b"), "p": ("pw2", "pw1"), "w2": ("w2a", "w2p", "w2b")},
            {"w1p": "pw1", "pw1": "w1p", "pw2": "w2p", "w2p": "pw2"},
        )
        with pytest.raises(ValueError, match="must be singular"):
            tagged_triangulation(g, {"p": "T1"})

    def test_missing_choice(self, once_punctured_4gon):
        with pytest.raises(ValueError, match="has no T1..T4 choice"):
            tagged_triangulation(once_punctured_4gon, {})

    def test_all_trivalent_needs_no_choices(self, annulus):
        arcs = tagged_triangulation(annulus, {})
        assert [a.kind for a in arcs] == ["dual"] * 5

    def test_wrong_valency(self):
        g = RibbonGraph(
            {"u": ("uz", "ua", "ux", "ub"), "w": ("wy", "wa", "wb")},
            {"ua": "wa", "wa": "ua", "ub": "wb", "wb": "ub"},
        )
        with pytest.raises(ValueError, match="trivalent"):
            tagged_triangulation(g, {})

    def test_choice_for_non_puncture(self, once_punctured_4gon):
        with pytest.raises(ValueError, match="non-puncture"):
            tagged_triangulation(once_punctured_4gon, {"p": "T1", "w1": "T2"})

    def test_unknown_choice(self, once_punctured_4gon):
        with pytest.raises(ValueError, match="unknown puncture choice"):
            tagged_triangulation(once_punctured_4gon, {"p": "T9"})

    @pytest.mark.parametrize("choice", ["T9", "t1", "", None, 1, ["T1"]])
    def test_unknown_choice_message(self, once_punctured_4gon, choice):
        with pytest.raises(ValueError) as info:
            tagged_triangulation(once_punctured_4gon, {"p": choice})
        assert str(info.value) == "unknown puncture choice {!r}".format(choice)
