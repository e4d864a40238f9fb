"""Results do not depend on how an input is presented.

The order of a quiver's vertices and arrows, of a graph's vertices and
halfedges, and of the keys of any object carries no meaning, so a
shuffled document must parse to an equal object with the same canonical
JSON, and the constructors must build that object from shuffled lists.
Nor do the ids of a graph's halfedges and vertices, so renaming them
renames every decomposition and changes nothing else, and an assembled
quiver, frozen flags and labels included, only up to isomorphism.
"""

import json
import random
from collections import Counter

import pytest

from ribboncalc import (
    BUILTIN_TEMPLATE_NAMES,
    EdgeRef,
    IceQuiver,
    LocalTemplate,
    QuiverArrow,
    QuiverVertex,
    RibbonGraph,
    TemplateSlot,
    VertexRef,
    assemble_global,
    assembly_diagram,
    decompose,
    parse_assignments,
    parse_diagram,
    parse_quiver,
    parse_template,
    quivers_isomorphic,
    serialize,
    star_template,
    to_jsonable,
)

from conftest import GRAPH_FIXTURES, fixture_graph, fixture_text, same_labelled_quiver
from randgraphs import random_graph, trivalent_graph

# the lists whose order carries no meaning
_UNORDERED = ("vertices", "arrows", "halfedges")


def _shuffled(obj, rng: random.Random, key=None):
    """``obj`` with the keys of every object and the entries of every
    unordered list in random order."""
    if isinstance(obj, dict):
        items = list(obj.items())
        rng.shuffle(items)
        return {k: _shuffled(v, rng, k) for k, v in items}
    if isinstance(obj, list):
        out = [_shuffled(v, rng) for v in obj]
        if key in _UNORDERED:
            rng.shuffle(out)
        return out
    return obj


def _documents():
    """``(kind, name, document)`` in canonical form."""
    for name in BUILTIN_TEMPLATE_NAMES:
        document = json.loads(fixture_text(name))
        yield "template", name, document
        yield "quiver", name, {"vertices": document["vertices"], "arrows": document["arrows"]}
    yield "template", "star_4", to_jsonable(star_template(4))
    for graph, templates in (
        ("four_gon", "four_gon_a2_templates"),
        ("once_punctured_4gon", "once_punctured_4gon_templates"),
    ):
        g, assign = fixture_graph(graph), parse_assignments(fixture_text(templates))
        yield "quiver", templates, to_jsonable(assemble_global(g, assign))
        yield "diagram", templates, to_jsonable(assembly_diagram(g, assign))


_PARSE = {"quiver": parse_quiver, "template": parse_template, "diagram": parse_diagram}


def _quiver(document) -> IceQuiver:
    return IceQuiver(
        [QuiverVertex(**entry) for entry in document["vertices"]],
        [QuiverArrow(**entry) for entry in document["arrows"]],
    )


def _template(document) -> LocalTemplate:
    slots = tuple(
        TemplateSlot(_quiver(slot["quiver"]), slot["vertex_map"], slot["arrow_map"])
        for slot in document["slots"]
    )
    return LocalTemplate(document["name"], _quiver(document), slots, document["stalk"])


@pytest.mark.parametrize(
    "kind, document",
    [(kind, document) for kind, _, document in _documents()],
    ids=["{} {}".format(kind, name) for kind, name, _ in _documents()],
)
def test_a_shuffled_document_gives_the_same_object(kind, document):
    parse = _PARSE[kind]
    text = json.dumps(document)
    expected = parse(text)
    assert serialize(expected) == serialize(document)
    rng = random.Random(kind + text)
    texts = set()
    for _ in range(5):
        shuffled = _shuffled(document, rng)
        texts.add(json.dumps(shuffled))
        result = parse(json.dumps(shuffled))
        assert result == expected
        assert serialize(result) == serialize(expected)
        # the constructors take the shuffled lists as they are
        if kind == "quiver":
            assert _quiver(shuffled) == expected
        elif kind == "template":
            assert _template(shuffled) == expected
        else:
            for v, q in shuffled["vertex_quivers"].items():
                assert _quiver(q) == expected.vertex_quivers[v]
            for e, q in shuffled["edge_quivers"].items():
                assert _quiver(q) == expected.edge_quivers[e]
    assert texts - {text}, "no shuffle changed the document"


def _renamings(ids, prefix, rng):
    """A seeded random bijection of ``ids`` onto fresh names, and one that
    reverses their order."""
    ordered = sorted(ids)
    names = ["{}{:04d}".format(prefix, i) for i in range(len(ordered))]
    shuffled = names[:]
    rng.shuffle(shuffled)
    return dict(zip(ordered, shuffled)), dict(zip(ordered, reversed(names)))


def _renamed(g, hmap, vmap) -> RibbonGraph:
    return RibbonGraph(
        {vmap[v]: [hmap[h] for h in g.cyclic(v)] for v in g.vertices},
        {hmap[h]: hmap[g.twin_of(h)] for h in g.halfedges if not g.is_external(h)},
        {vmap[v]: g.kind(v) for v in g.vertices},
        {vmap[v]: g.label(v) for v in g.vertices if g.label(v) is not None},
    )


def _image(x, r, hmap, vmap):
    """The reference in the renamed graph ``r`` to what ``x`` names."""
    if isinstance(x, VertexRef):
        return VertexRef(vmap[x.id])
    return EdgeRef(r.edge_of(hmap[x.id]))


def _summands(dec, r, hmap, vmap) -> dict:
    """The summands of ``dec`` as a multiset over the ids of ``r``, into
    which ``hmap`` and ``vmap`` carry its halfedge and vertex ids."""
    # the one constant visit a curve keeps is labelled by its edge's
    # smaller halfedge, which a renaming may make the other one
    curve = isinstance(dec.source, EdgeRef) and dec.source == dec.target
    out = Counter()
    for s in dec.summands:
        start = s.source_halfedge and hmap[s.source_halfedge]
        if curve and s.constant:
            start = r.edge_of(start)
        atoms = tuple((a.kind, a.halfedge and hmap[a.halfedge]) for a in s.word.atoms)
        ends = (_image(s.word.source, r, hmap, vmap), _image(s.word.target, r, hmap, vmap))
        out[atoms, ends, start, s.index, s.constant, s.marker, s.possibly_zero] += 1
    return dict(out)  # compared as a dict, which is faster than a Counter


def _naturality_graphs():
    rng = random.Random(20)
    graphs = [fixture_graph(name) for name in GRAPH_FIXTURES]
    return graphs + [random_graph(rng, max_vertices=5) for _ in range(20)]


@pytest.mark.parametrize("seed, g", list(enumerate(_naturality_graphs())))
def test_decompositions_commute_with_renaming(seed, g):
    rng = random.Random(seed)
    renamings = []
    for hmap, vmap in zip(_renamings(g.halfedges, "h", rng), _renamings(g.vertices, "v", rng)):
        r = _renamed(g, hmap, vmap)
        renamings.append((r, hmap, vmap, {h: h for h in r.halfedges}, {v: v for v in r.vertices}))
    objects = [EdgeRef(e) for e in g.edges()] + [VertexRef(v) for v in g.vertices]
    for source in objects:
        for target in objects:
            for side in ("L", "R"):
                dec = decompose(g, target, source, side)
                for r, hmap, vmap, same_h, same_v in renamings:
                    image = (_image(target, r, hmap, vmap), _image(source, r, hmap, vmap))
                    renamed = decompose(r, *image, side)
                    assert _summands(dec, r, hmap, vmap) == _summands(renamed, r, same_h, same_v)


def _glued_label_cases():
    rng = random.Random(31)
    for name in ("four_gon_a2", "once_punctured_4gon"):
        g = fixture_graph(name.replace("_a2", ""))
        yield name + " templates", g, parse_assignments(fixture_text(name + "_templates"))
    for i in range(12):
        g = trivalent_graph(rng, rng.randint(2, 9))
        yield "trivalent {} a2".format(i), g, {v: "a2_trivalent" for v in g.vertices}
    for name in ("four_gon", "annulus", "once_punctured_4gon"):
        g = fixture_graph(name)
        yield name + " stars", g, {v: star_template(g.valency(v)) for v in g.vertices}


@pytest.mark.parametrize("case", list(_glued_label_cases()), ids=lambda case: case[0])
def test_glued_labels_commute_with_renaming(case):
    nx = pytest.importorskip("networkx")
    name, g, assign = case
    q = assemble_global(g, assign)
    rng = random.Random(name)
    for hmap, vmap in zip(_renamings(g.halfedges, "h", rng), _renamings(g.vertices, "v", rng)):
        r = _renamed(g, hmap, vmap)
        renamed = assemble_global(r, {vmap[v]: t for v, t in assign.items()})
        assert same_labelled_quiver(nx, q, renamed), name


def test_a_large_assembly_commutes_with_renaming():
    # networkx takes minutes at this size, so the library's own test decides
    g = trivalent_graph(random.Random(31), 1000)
    rng = random.Random(31)
    (hmap, _), (vmap, _) = _renamings(g.halfedges, "h", rng), _renamings(g.vertices, "v", rng)
    r = _renamed(g, hmap, vmap)
    q = assemble_global(g, {v: "a2_trivalent" for v in g.vertices})
    renamed = assemble_global(r, {v: "a2_trivalent" for v in r.vertices})
    assert len(q.vertices) == 4800
    assert quivers_isomorphic(q, renamed)
    # a near-miss: two mutable arrows swap targets, so every degree is kept,
    # and the first lands beside an arrow with its new ends; fewer distinct
    # pairs of ends prove that no isomorphism is left
    arrows = list(renamed.arrows)
    ends = {(a.src, a.dst) for a in arrows}
    i, j = next(
        (i, j)
        for i, a in enumerate(arrows)
        for j, b in enumerate(arrows)
        if not (a.frozen or b.frozen) and a.src != b.src and a.dst != b.dst
        and (a.src, b.dst) in ends
    )
    a, b = arrows[i], arrows[j]
    arrows[i], arrows[j] = QuiverArrow(a.id, a.src, b.dst), QuiverArrow(b.id, b.src, a.dst)
    assert len({(a.src, a.dst) for a in arrows}) < len(ends)
    assert not quivers_isomorphic(q, IceQuiver(renamed.vertices, arrows))
