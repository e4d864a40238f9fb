import itertools
import json
from types import MappingProxyType

import pytest

from ribboncalc import (
    BUILTIN_TEMPLATE_NAMES,
    AmalgamationDiagram,
    Atom,
    BoundaryWalk,
    Decomposition,
    EdgeRef,
    FunctorWord,
    HalfedgeRef,
    IceQuiver,
    Itinerary,
    LocalTemplate,
    Marker,
    ParseError,
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
    assemble_global,
    assembly_diagram,
    amalgamate,
    boundary_walks,
    builtin_template,
    curve_trajectory,
    decompose,
    decompose_subgraph,
    export_dot,
    graph_dot,
    itinerary,
    parse_choices,
    parse_diagram,
    parse_graph,
    parse_quiver,
    parse_template,
    serialize,
    star_template,
    subgraph,
    surface_invariants,
    tagged_triangulation,
    to_jsonable,
    trajectory_counts,
    validate_graph,
    web_trajectory,
)
import ribboncalc
from ribboncalc import serialization
from ribboncalc.serialization import _LAYOUTS, parse_assignments

from conftest import fixture_graph, fixture_text, sample_graphs


ALL_GRAPH_FIXTURES = (
    "two_spider",
    "three_spider",
    "four_gon",
    "annulus",
    "once_punctured_4gon",
)


class TestGraphRoundTrip:
    @pytest.mark.parametrize("name", ALL_GRAPH_FIXTURES)
    def test_fixture_bytes_are_canonical(self, name):
        text = fixture_text(name)
        g = parse_graph(text)
        assert serialize(to_jsonable(g)) + "\n" == text

    def test_non_canonical_input_comes_out_canonical(self):
        scrambled = json.dumps(
            {
                "vertices": [{"kind": "plain", "cyclic": ["h2", "h1"], "id": "v"}],
                "halfedges": [
                    {"twin": None, "id": "h2"},
                    {"twin": None, "id": "h1"},
                ],
            },
            indent=3,
        )
        g = parse_graph(scrambled)
        assert serialize(to_jsonable(g)) == (
            '{"halfedges":[{"id":"h1","twin":null},{"id":"h2","twin":null}],'
            '"vertices":[{"cyclic":["h1","h2"],"id":"v","kind":"plain"}]}'
        )

    def test_serialize_is_deterministic(self, annulus):
        assert serialize(to_jsonable(annulus)) == serialize(to_jsonable(annulus))

    def test_label_key_only_when_set(self, two_spider, three_spider):
        assert '"label":"puncture"' in serialize(to_jsonable(two_spider))
        assert '"label"' not in serialize(to_jsonable(three_spider))


def _encoded(value) -> str:
    """The canonical text of `oracle`'s tree for ``value``."""
    return json.dumps(oracle(value), sort_keys=True, separators=(",", ":"))


# ids the encoder escapes: a quote, a backslash, control characters, a
# line separator, non-ASCII and an astral character (a surrogate pair)
_ESCAPED_IDS = ('"', "\\", "a\x00b", "\x1f\n\t", "\u00e9t\u00e9", "\u2028", "\U0001d538", "~/")


def _escaped_graph() -> RibbonGraph:
    """A path through one vertex per id of `_ESCAPED_IDS`, each named by its
    id with a stub of that name, labelled by the id of another vertex."""
    names = _ESCAPED_IDS
    cyclic = {v: [v] for v in names}
    twin = {}
    for i, (u, w) in enumerate(zip(names, names[1:])):
        a, b = "{}<{}".format(u, i), "{}>{}".format(w, i)
        cyclic[u].append(a)
        cyclic[w].insert(0, b)
        twin.update({a: b, b: a})
    labels = dict(zip(names, reversed(names)))
    return RibbonGraph(cyclic, twin, {names[0]: "singular"}, labels)


class TestGraphWriter:
    """`serialize` writes a bare `RibbonGraph` itself; every byte is the one
    the encoder writes for `oracle`'s tree of the graph."""

    def test_sample_graphs_and_fixtures(self):
        graphs = sample_graphs() + [parse_graph(fixture_text(n)) for n in ALL_GRAPH_FIXTURES]
        for g in graphs:
            assert serialize(g) == _encoded(g)

    def test_labels_empty_rings_and_fixed_points(self):
        graphs = [
            RibbonGraph({}, {}),
            RibbonGraph({"v": ()}, {}, {"v": "singular"}, {"v": "lonely"}),
            RibbonGraph(
                {"u": (), "w": ("b", "a", "c"), "x": ("d",)},
                {"a": "d", "d": "a", "c": "c"},
                {"w": "singular"},
                {"w": "puncture", "x": "", "u": None},
            ),
        ]
        for g in graphs:
            assert serialize(g) == _encoded(g)
        assert '"cyclic":[],"id":"u","kind":"plain"}' in serialize(graphs[2])
        assert '"label":""' in serialize(graphs[2])

    def test_escaped_ids(self):
        g = _escaped_graph()
        text = serialize(g)
        assert text == _encoded(g)
        assert text.isascii() and "\\ud835\\udd38" in text
        assert parse_graph(text) == g and serialize(parse_graph(text)) == text

    def test_a_nested_graph_goes_through_the_encoder(self, monkeypatch, four_gon):
        hooked = []
        hook = serialization._encode
        monkeypatch.setattr(
            serialization, "_encode", lambda v: hooked.append(type(v).__name__) or hook(v)
        )
        g = _escaped_graph()
        serialize(g)
        assert hooked == []
        nested = [
            subgraph(g, _ESCAPED_IDS[:3]),
            subgraph(four_gon, ["v1"]),
            assembly_diagram(four_gon, {"v1": "a2_trivalent", "v2": "a2_trivalent"}),
        ]
        for value in nested:
            text = serialize(value)
            assert text == _encoded(value)
            assert '"graph":' + serialize(value.graph) in text
            assert "RibbonGraph" in hooked
            hooked.clear()


def _escaped_quiver() -> IceQuiver:
    """One vertex per id of `_ESCAPED_IDS`, every other one frozen, every
    third one unlabelled and the rest labelled by another id or the empty
    string; an arrow from each vertex to the next two, named by its ends,
    frozen where both ends are."""
    names = _ESCAPED_IDS
    labels = [None if i % 3 == 0 else w for i, w in enumerate(reversed(names))]
    labels[-1] = ""
    vertices = [QuiverVertex(v, i % 2 == 0, lab) for i, (v, lab) in enumerate(zip(names, labels))]
    frozen = {v.id: v.frozen for v in vertices}
    arrows = [
        QuiverArrow("{}->{}".format(u, w), u, w, frozen[u] and frozen[w])
        for i, u in enumerate(names)
        for w in names[i + 1:i + 3]
    ]
    return IceQuiver(vertices, arrows)


def _quivers() -> list[IceQuiver]:
    """The quiver and slot boundaries of every builtin template, star
    templates, assemblies of the fixture assignments and of star templates
    on the sample graphs, the empty quiver and `_escaped_quiver`."""
    templates = [builtin_template(n) for n in BUILTIN_TEMPLATE_NAMES]
    templates += [star_template(n) for n in range(2, 6)]
    quivers = [q for t in templates for q in (t.quiver, *(s.source for s in t.slots))]
    for name, assignment in (
        ("four_gon", "four_gon_a2_templates"),
        ("once_punctured_4gon", "once_punctured_4gon_templates"),
    ):
        assign = parse_assignments(fixture_text(assignment))
        quivers.append(assemble_global(fixture_graph(name), assign))
    for g in sample_graphs()[::7]:
        quivers.append(assemble_global(g, {v: star_template(g.valency(v)) for v in g.vertices}))
    return quivers + [IceQuiver([], []), _escaped_quiver()]


class TestQuiverWriter:
    """`serialize` writes a bare `IceQuiver` itself; every byte is the one
    the encoder writes for `oracle`'s tree of the quiver."""

    def test_templates_and_assemblies(self):
        for q in _quivers():
            assert serialize(q) == _encoded(q)

    def test_labels_frozen_arrows_and_escaped_ids(self):
        q = _escaped_quiver()
        text = serialize(q)
        assert text == _encoded(q)
        assert text.isascii() and "\\ud835\\udd38" in text
        assert '"label":null' in text and '"label":""' in text
        assert any(a.frozen for a in q.arrows) and any(not a.frozen for a in q.arrows)
        assert parse_quiver(text) == q and serialize(parse_quiver(text)) == text

    def test_a_nested_quiver_goes_through_the_encoder(self, monkeypatch, four_gon):
        hooked = []
        hook = serialization._encode
        monkeypatch.setattr(
            serialization, "_encode", lambda v: hooked.append(type(v).__name__) or hook(v)
        )
        q = _escaped_quiver()
        serialize(q)
        assert hooked == []
        template = builtin_template("a2_trivalent")
        diagram = assembly_diagram(four_gon, {"v1": "a2_trivalent", "v2": "a2_trivalent"})
        for value in (template, diagram, {"quiver": q}):
            text = serialize(value)
            assert text == _encoded(value)
            assert "IceQuiver" in hooked
            hooked.clear()
        assert '"quiver":' + serialize(q) in serialize({"quiver": q})
        for vq in diagram.vertex_quivers.values():
            assert serialize(vq) in serialize(diagram)


class TestGraphParseErrors:
    def test_invalid_json(self):
        with pytest.raises(ParseError, match="at /: invalid JSON"):
            parse_graph('{"vertices": [')

    def test_missing_key(self):
        with pytest.raises(ParseError, match="missing key 'vertices'"):
            parse_graph('{"halfedges": []}')

    def test_unknown_key(self):
        with pytest.raises(ParseError, match="at /vertices/0/extra: unknown key"):
            parse_graph(
                '{"halfedges": [{"id": "a", "twin": "b"}, {"id": "b", "twin": "a"},'
                ' {"id": "c", "twin": null}],'
                ' "vertices": [{"id": "v", "cyclic": ["a", "b", "c"],'
                ' "kind": "plain", "extra": 1}]}'
            )

    def test_unknown_twin_id(self):
        with pytest.raises(
            ParseError, match="at /halfedges/0/twin: twin table mentions unknown halfedge 'zzz'"
        ):
            parse_graph(
                '{"halfedges": [{"id": "a", "twin": "zzz"}],'
                ' "vertices": [{"id": "v", "cyclic": ["a"], "kind": "plain"}]}'
            )

    def test_twin_not_pointing_back(self):
        with pytest.raises(ParseError, match="twin of 'a' does not point back"):
            parse_graph(
                '{"halfedges": [{"id": "a", "twin": "b"}, {"id": "b", "twin": "c"},'
                ' {"id": "c", "twin": "b"}],'
                ' "vertices": [{"id": "v", "cyclic": ["a","b","c"], "kind": "plain"}]}'
            )

    def test_duplicate_halfedge(self):
        with pytest.raises(ParseError, match="at /halfedges/1/id: duplicate halfedge id 'a'"):
            parse_graph(
                '{"halfedges": [{"id": "a", "twin": null}, {"id": "a", "twin": null}],'
                ' "vertices": []}'
            )

    def test_unknown_vertex_kind(self):
        with pytest.raises(ParseError, match="unknown vertex kind 'sparkly'"):
            parse_graph(
                '{"halfedges": [{"id": "a", "twin": null}],'
                ' "vertices": [{"id": "v", "cyclic": ["a"], "kind": "sparkly"}]}'
            )

    def test_unattached_halfedge(self):
        with pytest.raises(ParseError, match="halfedge 'b' is attached to no vertex"):
            parse_graph(
                '{"halfedges": [{"id": "a", "twin": null}, {"id": "b", "twin": null}],'
                ' "vertices": [{"id": "v", "cyclic": ["a"], "kind": "plain"}]}'
            )

    def test_unknown_cyclic_entry(self):
        with pytest.raises(ParseError, match="at /vertices/0/cyclic/0: unknown halfedge id 'h'"):
            parse_graph(
                '{"halfedges": [], "vertices": [{"id": "v", "cyclic": ["h"], "kind": "plain"}]}'
            )

    def test_pointer_attribute(self):
        try:
            parse_graph('{"halfedges": []}')
        except ParseError as e:
            assert e.pointer == "/"
            assert str(e).startswith("at /:")


class TestQuiverAndTemplates:
    @pytest.mark.parametrize("name", BUILTIN_TEMPLATE_NAMES)
    def test_template_fixture_bytes_are_canonical(self, name):
        text = fixture_text(name)
        t = parse_template(text)
        assert serialize(to_jsonable(t)) + "\n" == text
        assert t.name == name

    def test_quiver_round_trip(self):
        q = builtin_template("a2_trivalent").quiver
        text = serialize(to_jsonable(q))
        assert parse_quiver(text) == q

    def test_quiver_semantic_error_becomes_parse_error(self):
        with pytest.raises(ParseError, match="frozen arrow"):
            parse_quiver(
                '{"vertices": [{"id": "a", "frozen": false, "label": null},'
                ' {"id": "b", "frozen": true, "label": null}],'
                ' "arrows": [{"id": "x", "src": "a", "dst": "b", "frozen": true}]}'
            )

    def test_template_slot_errors_point_at_slots(self):
        t = to_jsonable(star_template(2))
        t["slots"] = t["slots"][:1]
        with pytest.raises(ParseError, match="at /slots"):
            parse_template(json.dumps(t))

    def test_assignments_inline_and_named(self):
        text = json.dumps(
            {
                "assignments": {
                    "v1": "rank1_trivalent",
                    "v2": to_jsonable(star_template(3)),
                }
            }
        )
        assign = parse_assignments(text)
        assert assign["v1"] == "rank1_trivalent"
        assert assign["v2"].valency == 3

    def test_each_distinct_inline_template_is_parsed_once(self, four_gon, monkeypatch):
        """A templates file parses each distinct inline template once, and a
        diagram file each distinct vertex and edge quiver: at the first key
        that carries it, shared by every key that carries it.  Only a value
        that parsed is kept, so a faulty copy raises at its own pointer,
        before or after a good copy."""
        calls = {"template_from_jsonable": [], "quiver_from_jsonable": []}

        def counting(name):
            original = getattr(serialization, name)

            def wrapper(obj, pointer=""):
                calls[name].append(pointer)
                return original(obj, pointer)

            monkeypatch.setattr(serialization, name, wrapper)

        counting("template_from_jsonable")
        counting("quiver_from_jsonable")
        star3, star2 = to_jsonable(star_template(3)), to_jsonable(star_template(2))
        assignments = {"a": star3, "b": star2, "c": "rank1_trivalent", "d": star3, "e": star2}
        assign = parse_assignments(json.dumps({"assignments": assignments}))
        assert calls["template_from_jsonable"] == ["/assignments/a", "/assignments/b"]
        assert assign["a"] is assign["d"] and assign["b"] is assign["e"]
        assert (assign["a"], assign["b"]) == (star_template(3), star_template(2))
        bad = dict(star3, vertices=5)
        for order in (("g", "a", "h"), ("a", "g", "h")):
            text = json.dumps({"assignments": {v: bad if v != "a" else star3 for v in order}})
            with pytest.raises(ParseError, match="^at /assignments/g/vertices: expected a list$"):
                parse_assignments(text)

        # two vertices carry one star quiver, and five edges one interface
        star = star_template(3)
        obj = to_jsonable(assembly_diagram(four_gon, {v: star for v in four_gon.vertices}))
        calls["quiver_from_jsonable"].clear()
        d = parse_diagram(json.dumps(obj))
        assert calls["quiver_from_jsonable"] == ["/vertex_quivers/v1", "/edge_quivers/m1"]
        assert d.vertex_quivers["v1"] is d.vertex_quivers["v2"]
        assert all(q is d.edge_quivers["m1"] for q in d.edge_quivers.values())
        assert to_jsonable(d) == obj
        for table, i in itertools.product(("vertex_quivers", "edge_quivers"), (0, 1)):
            # the first key's faulty copy comes before a good copy, the second's after
            k = list(obj[table])[i]
            faulty = json.loads(json.dumps(obj))
            faulty[table][k]["vertices"] = 5
            message = "^at /{}/{}/vertices: expected a list$".format(table, k)
            with pytest.raises(ParseError, match=message):
                parse_diagram(json.dumps(faulty))

    def test_choices(self):
        assert parse_choices('{"choices": {"p": "T1"}}') == {"p": "T1"}
        with pytest.raises(ParseError, match="missing key 'choices'"):
            parse_choices('{"p": "T1"}')


class TestDiagram:
    def test_round_trip(self, four_gon):
        d = assembly_diagram(
            four_gon, {v: star_template(3) for v in four_gon.vertices}
        )
        text = serialize(to_jsonable(d))
        d2 = parse_diagram(text)
        assert serialize(to_jsonable(d2)) == text
        assert amalgamate(d2) == amalgamate(d)

    def test_unknown_halfedge_in_incidences(self, four_gon):
        d = assembly_diagram(
            four_gon, {v: star_template(3) for v in four_gon.vertices}
        )
        obj = to_jsonable(d)
        obj["incidences"]["ghost"] = next(iter(obj["incidences"].values()))
        with pytest.raises(ParseError, match="ghost"):
            parse_diagram(json.dumps(obj))


class TestDomainJsonables:
    def test_itinerary(self, annulus):
        it = itinerary(annulus, "wi", "cw")
        obj = to_jsonable(it)
        assert obj == {
            "start": "wi",
            "orient": "cw",
            "edges": ["wi", "bw", "bd", "cd", "ac", "aw", "wi"],
            "turns": ["w", "b", "d", "c", "a", "w"],
            "entries": ["wi", "bw", "db", "cd", "ac", "wa"],
            "terminal": "wi",
            "length": 7,
        }

    def test_decomposition(self, two_spider):
        dec = decompose(two_spider, VertexRef("v"), EdgeRef("h2"))
        obj = to_jsonable(dec)
        assert obj["side"] == "L"
        assert obj["source"] == {"kind": "edge", "id": "h2"}
        assert obj["target"] == {"kind": "vertex", "id": "v"}
        assert [s["word"]["atoms"] for s in obj["summands"]] == [
            [{"kind": "genL", "halfedge": "h2"}],
            [{"kind": "genL", "halfedge": "h2"}],
        ]

    def test_invariants_and_reports(self, annulus):
        assert to_jsonable(surface_invariants(annulus)) == {
            "genus": 0,
            "boundary": [4, 1],
        }
        assert to_jsonable(validate_graph(annulus)) == {"ok": True, "violations": []}
        walk = boundary_walks(annulus)[0]
        assert to_jsonable(walk)["marked_points"] == walk.marked_points

    def test_subgraph(self, once_punctured_4gon):
        sub = subgraph(once_punctured_4gon, {"p"})
        obj = to_jsonable(sub)
        assert obj["vertices"] == ["p"]
        assert obj["cut_halfedges"] == ["pw1", "pw2"]

    def test_unhandled_type(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestGraphDot:
    def test_exact_text(self, two_spider):
        assert graph_dot(two_spider) == (
            "graph {\n"
            '  "v" [shape=doublecircle];\n'
            '  "stub:h1" [shape=point];\n'
            '  "v" -- "stub:h1" [label="h1"];\n'
            '  "stub:h2" [shape=point];\n'
            '  "v" -- "stub:h2" [label="h2"];\n'
            "}\n"
        )

    def test_internal_edge_drawn_once(self, four_gon):
        text = graph_dot(four_gon)
        assert text.count('"v1" -- "v2"') == 1


def _oracle_gvquote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _oracle_graph_dot(g: RibbonGraph) -> str:
    """The library's `graph_dot` before it wrote a line from one template,
    verbatim but for its name and its quoting helper's."""
    twin, at = g._twin, g._at
    quoted = {v: _oracle_gvquote(v) for v in g.vertices}
    lines = ["graph {"]
    for v in g.vertices:
        shape = "doublecircle" if g.kind(v) == "singular" else "circle"
        lines.append("  {} [shape={}];".format(quoted[v], shape))
    for e in g.edges():
        t = twin.get(e, e)
        if t != e:
            lines.append(
                "  {} -- {} [label={}];".format(quoted[at[e]], quoted[at[t]], _oracle_gvquote(e))
            )
        else:
            stub = _oracle_gvquote("stub:{}".format(e))
            lines.append("  {} [shape=point];".format(stub))
            lines.append(
                "  {} -- {} [label={}];".format(quoted[at[e]], stub, _oracle_gvquote(e))
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _oracle_export_dot(q: IceQuiver) -> str:
    """The library's `export_dot` before it wrote a line from one template,
    verbatim but for its name and its quoting helper's."""
    lines = ["digraph {"]
    for v in q.vertices:
        shape = "box" if v.frozen else "ellipse"
        attrs = "shape={}".format(shape)
        if v.label is not None:
            attrs += ' label={}'.format(_oracle_gvquote("{} ({})".format(v.id, v.label)))
        lines.append("  {} [{}];".format(_oracle_gvquote(v.id), attrs))
    for a in q.arrows:
        suffix = " [style=dashed]" if a.frozen else ""
        lines.append(
            "  {} -> {}{};".format(_oracle_gvquote(a.src), _oracle_gvquote(a.dst), suffix)
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


class TestDotWriters:
    """The DOT writers against their earlier versions, kept as oracles."""

    def test_graph_dot_matches_the_oracle(self):
        graphs = sample_graphs() + [_escaped_graph(), RibbonGraph({}, {})]
        graphs.append(RibbonGraph({"v": ()}, {}, {"v": "singular"}, {"v": "lonely"}))
        for g in graphs:
            assert graph_dot(g) == _oracle_graph_dot(g)
        text = graph_dot(_escaped_graph())
        assert '"\\""' in text and '"\\\\"' in text and "\u00e9t\u00e9" in text

    def test_export_dot_matches_the_oracle(self):
        for q in _quivers():
            assert export_dot(q) == _oracle_export_dot(q)
        text = export_dot(_escaped_quiver())
        assert '"\\""' in text and '"\\\\"' in text and "\u00e9t\u00e9" in text
        assert "label=" in text and "[style=dashed]" in text


# -- differential oracle ------------------------------------------------


def _oracle_ref(ref):
    if ref is None:
        return None
    kind = {EdgeRef: "edge", VertexRef: "vertex", HalfedgeRef: "halfedge"}[type(ref)]
    return {"kind": kind, "id": ref.id}


def oracle(value):
    """The library's `to_jsonable` when it built the JSON tree by hand,
    one isinstance branch per type, verbatim but for its name and the
    branches of the four types it could not write: quiver vertices,
    arrows and morphisms, and trajectory hits."""
    if isinstance(value, RibbonGraph):
        cyclic, kind, label, twin = value._cyclic, value._kind, value._label, value._twin
        vertices = []
        for v in value.vertices:
            lab = label.get(v)
            if lab is None:
                vertices.append({"id": v, "cyclic": list(cyclic[v]), "kind": kind[v]})
            else:
                vertices.append(
                    {"id": v, "cyclic": list(cyclic[v]), "kind": kind[v], "label": lab}
                )
        return {
            "vertices": vertices,
            "halfedges": [{"id": h, "twin": twin.get(h)} for h in value.halfedges],
        }
    if isinstance(value, IceQuiver):
        return {
            "vertices": [
                {"id": v.id, "frozen": v.frozen, "label": v.label}
                for v in value.vertices
            ],
            "arrows": [
                {"id": a.id, "src": a.src, "dst": a.dst, "frozen": a.frozen}
                for a in value.arrows
            ],
        }
    if isinstance(value, LocalTemplate):
        base = oracle(value.quiver)
        base["name"] = value.name
        base["stalk"] = value.stalk
        base["slots"] = [
            {
                "quiver": oracle(s.source),
                "vertex_map": dict(sorted(s.vertex_map.items())),
                "arrow_map": dict(sorted(s.arrow_map.items())),
            }
            for s in value.slots
        ]
        return base
    if isinstance(value, AmalgamationDiagram):
        return {
            "graph": oracle(value.graph),
            "vertex_quivers": {
                v: oracle(q) for v, q in sorted(value.vertex_quivers.items())
            },
            "edge_quivers": {
                e: oracle(q) for e, q in sorted(value.edge_quivers.items())
            },
            "incidences": {
                h: {
                    "vertex_map": dict(sorted(m.vertex_map.items())),
                    "arrow_map": dict(sorted(m.arrow_map.items())),
                }
                for h, m in sorted(value.incidences.items())
            },
        }
    if isinstance(value, Itinerary):
        return {
            "start": value.start,
            "orient": value.orient,
            "edges": list(value.edges),
            "turns": list(value.turns),
            "entries": list(value.entries),
            "terminal": value.terminal,
            "length": value.length,
        }
    if isinstance(value, FunctorWord):
        return {
            "atoms": [{"kind": a.kind, "halfedge": a.halfedge} for a in value.atoms],
            "source": _oracle_ref(value.source),
            "target": _oracle_ref(value.target),
        }
    if isinstance(value, Marker):
        return {"kind": value.kind, "ref": value.ref}
    if isinstance(value, Summand):
        return {
            "word": oracle(value.word),
            "source_halfedge": value.source_halfedge,
            "index": value.index,
            "constant": value.constant,
            "marker": oracle(value.marker) if value.marker else None,
            "possibly_zero": value.possibly_zero,
        }
    if isinstance(value, Decomposition):
        return {
            "source": _oracle_ref(value.source),
            "target": _oracle_ref(value.target),
            "side": value.side,
            "summands": [oracle(s) for s in value.summands],
        }
    if isinstance(value, ValidationReport):
        return {"ok": value.ok, "violations": list(value.violations)}
    if isinstance(value, SurfaceInvariants):
        return {"genus": value.genus, "boundary": list(value.boundary)}
    if isinstance(value, BoundaryWalk):
        return {
            "halfedges": list(value.halfedges),
            "externals": list(value.externals),
            "marked_points": value.marked_points,
        }
    if isinstance(value, Subgraph):
        return {
            "graph": oracle(value.graph),
            "vertices": list(value.vertices),
            "cut_halfedges": list(value.cut_halfedges),
        }
    if isinstance(value, TaggedArc):
        return {
            "kind": value.kind,
            "edge": value.edge,
            "puncture": value.puncture,
            "via": value.via,
            "tagging": value.tagging,
            "path": oracle(value.path) if value.path else None,
        }
    if isinstance(value, QuiverVertex):
        return {"id": value.id, "frozen": value.frozen, "label": value.label}
    if isinstance(value, QuiverArrow):
        return {"id": value.id, "src": value.src, "dst": value.dst, "frozen": value.frozen}
    if isinstance(value, QuiverMorphism):
        return {
            "vertex_map": dict(sorted(value.vertex_map.items())),
            "arrow_map": dict(sorted(value.arrow_map.items())),
        }
    if isinstance(value, TrajectoryHit):
        return {
            "source": value.source,
            "index": value.index,
            "target_kind": value.target_kind,
            "target": value.target,
            "constant": value.constant,
        }
    if isinstance(value, (list, tuple)):
        return [oracle(v) for v in value]
    if isinstance(value, dict):
        return {k: oracle(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError("cannot serialize {!r}".format(type(value)))


def _graph_values(g):
    """Every serializable value computed from one graph: a few vertices and
    edges stand for all of them."""
    yield "report", validate_graph(g)
    if not validate_graph(g).ok:
        return
    yield "graph", g
    yield "invariants", surface_invariants(g)
    yield "walks", boundary_walks(g)
    vertices, edges = g.vertices[:3], g.edges()[:3]
    for orient in ("cw", "ccw"):
        yield "web", {"web": web_trajectory(g, vertices[0], orient)}
        for e in g.internal_edges()[:2]:
            yield "curve", {"curve": list(curve_trajectory(g, e, orient))}
        for e in edges:
            yield "hits", trajectory_counts(g, VertexRef(vertices[0]), EdgeRef(e), orient)
    for side in ("L", "R"):
        for v in vertices:
            source = VertexRef(vertices[0])
            yield "vertex decomposition", decompose(g, VertexRef(v), source, side)
        for e in edges:
            source = EdgeRef(edges[0])
            yield "edge decomposition", decompose(g, EdgeRef(e), source, side)
    for v in g.vertices:
        try:
            sub = subgraph(g, [v])
        except ValueError:
            continue
        yield "subgraph", sub
        for target in [EdgeRef(e) for e in edges] + [VertexRef(v)]:
            yield "subgraph decomposition", decompose_subgraph(g, sub, target)
        break
    stars = {v: star_template(g.valency(v)) for v in g.vertices}
    yield "star assembly", assemble_global(g, stars)
    yield "star diagram", assembly_diagram(g, stars)
    # tagged triangulations need trivalent vertices and singular 2-valent ones
    punctures = [v for v in g.vertices if g.valency(v) == 2]
    if all(g.valency(v) in (2, 3) for v in g.vertices) and all(
        g.kind(p) == "singular" for p in punctures
    ):
        for i in range(4):
            choices = {p: "T{}".format(1 + (i + j) % 4) for j, p in enumerate(punctures)}
            yield "tagged arcs", {"arcs": tagged_triangulation(g, choices)}


def _values():
    invalid = [
        RibbonGraph({"v": ("x", "y", "z")}, {"x": "y", "y": "x"}),
        RibbonGraph({"u": ("a", "s"), "w": ("b",)}, {"a": "b", "b": "a"}),
        RibbonGraph({"u": ("h1", "h2"), "w": ("k1", "k2")}, {}),
        RibbonGraph({}, {}),
    ]
    for i, g in enumerate(sample_graphs() + invalid):
        for what, value in _graph_values(g):
            yield "graph {} {}".format(i, what), value
    for name in BUILTIN_TEMPLATE_NAMES:
        t = builtin_template(name)
        yield name, t
        yield name + " slots", t.slots
        yield name + " quiver items", {"vertices": t.quiver.vertices, "arrows": t.quiver.arrows}
        yield name + " fixture", parse_template(fixture_text(name))
    for n in range(2, 6):
        yield "star {}".format(n), star_template(n)
    for name, templates in (
        ("four_gon", "four_gon_a2_templates"),
        ("once_punctured_4gon", "once_punctured_4gon_templates"),
    ):
        g, assign = fixture_graph(name), parse_assignments(fixture_text(templates))
        yield templates + " assembly", assemble_global(g, assign)
        yield templates + " diagram", assembly_diagram(g, assign)
    choices = parse_choices(fixture_text("once_punctured_4gon_choices"))
    arcs = tagged_triangulation(fixture_graph("once_punctured_4gon"), choices)
    yield "choices fixture", {"arcs": arcs}


def test_serialize_agrees_with_the_oracle(monkeypatch):
    encoded = set()

    def encode(value):
        encoded.add(type(value).__name__)
        return hook(value)

    hook = serialization._encode
    monkeypatch.setattr(serialization, "_encode", encode)
    for label, value in _values():
        expected = oracle(value)
        assert serialize(value) == json.dumps(
            expected, sort_keys=True, separators=(",", ":")
        ), label
        assert to_jsonable(value) == expected, label
    # the values reach every type the hook encodes but `HalfedgeRef`, which
    # no domain value holds
    assert encoded == set(_LAYOUTS) - {"HalfedgeRef"}


@pytest.mark.parametrize("name", BUILTIN_TEMPLATE_NAMES)
def test_quiver_items_are_written_as_in_a_quiver(name):
    q = builtin_template(name).quiver
    items = {"vertices": list(q.vertices), "arrows": list(q.arrows)}
    assert serialize(q) == serialize(items)


def test_attribute_names_are_fields_or_properties():
    for cls_name, names in _LAYOUTS.items():
        if type(names) is not tuple:
            continue
        cls = getattr(ribboncalc, cls_name)
        for name in names:
            assert name in cls._fields or isinstance(getattr(cls, name, None), property), (
                cls.__name__,
                name,
            )


def test_encoder_edge_cases():
    # every domain value encodes, bare or nested, but only its exact type
    assert serialize(HalfedgeRef("h")) == '{"id":"h","kind":"halfedge"}'
    assert serialize(Atom("genL", "h")) == '{"halfedge":"h","kind":"genL"}'
    m = star_template(2).slots[0]
    assert serialize(m) == '{"arrow_map":{},"vertex_map":{"u":"t0"}}'
    # a mapping that is not a dict is written as one
    proxy = QuiverMorphism(m.source, m.target, MappingProxyType(m.vertex_map), {})
    assert serialize(proxy) == serialize(m)

    class SubRef(EdgeRef):
        pass

    class SubMarker(Marker):
        pass

    # a class from outside the package that has a domain type's name
    foreign_atom = type("Atom", (), {"kind": "genL", "halfedge": "h"})()
    for value in (SubRef("e"), SubMarker("ev", "e"), foreign_atom):
        with pytest.raises(TypeError, match="cannot serialize"):
            serialize(value)
    # as JSON does, dict keys come back as strings
    assert to_jsonable({1: [EdgeRef("e")]}) == {"1": [{"kind": "edge", "id": "e"}]}
