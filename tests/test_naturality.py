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
    InvalidGraphError,
    Itinerary,
    LocalTemplate,
    Marker,
    QuiverArrow,
    QuiverMorphism,
    QuiverVertex,
    RibbonGraph,
    VertexRef,
    assemble_global,
    assembly_diagram,
    boundary_walks,
    builtin_template,
    decompose,
    decompose_subgraph,
    itinerary,
    parse_assignments,
    parse_diagram,
    parse_quiver,
    parse_template,
    quivers_isomorphic,
    rotate_to_min,
    serialize,
    star_template,
    subgraph,
    tagged_triangulation,
    to_jsonable,
)

from conftest import (
    GRAPH_FIXTURES,
    bench_gen,
    bench_graph,
    ext_twin,
    external_edges,
    fixture_graph,
    fixture_text,
    same_labelled_quiver,
    vertex_ids,
)
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
    quiver = _quiver(document)
    slots = tuple(
        QuiverMorphism(_quiver(slot["quiver"]), quiver, slot["vertex_map"], slot["arrow_map"])
        for slot in document["slots"]
    )
    return LocalTemplate(document["name"], quiver, slots, document["stalk"])


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
    if x is None:
        return None
    if isinstance(x, VertexRef):
        return VertexRef(vmap[x.id])
    return EdgeRef(r.edge_of(hmap[x.id]))


def _marker_image(m, target, r, hmap, vmap):
    """The marker ``m`` of a summand evaluated at ``target``, over the ids
    of ``r``: a cut by its halfedge, a restriction by its vertex or by its
    edge's name in ``r``, as a renaming may swap which halfedge names it."""
    if m is None:
        return None
    if m.kind == "ev":
        return Marker("ev", hmap[m.ref])
    if isinstance(target, VertexRef):
        return Marker("res", vmap[m.ref])
    return Marker("res", r.edge_of(hmap[m.ref]))


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
        marker = _marker_image(s.marker, dec.target, r, hmap, vmap)
        out[atoms, ends, start, s.index, s.constant, marker, s.possibly_zero] += 1
    return dict(out)  # compared as a dict, which is faster than a Counter


def _renamed_copies(g, rng):
    """``g`` under a random and under an order-reversing renaming, each
    with the maps of its halfedge and vertex ids into the copy, and the
    identity maps of the copy's ids."""
    copies = []
    for hmap, vmap in zip(_renamings(g.halfedges, "h", rng), _renamings(g.vertices, "v", rng)):
        r = _renamed(g, hmap, vmap)
        same_h, same_v = {h: h for h in r.halfedges}, {v: v for v in r.vertices}
        copies.append((r, hmap, vmap, same_h, same_v))
    return copies


def _naturality_graphs():
    rng = random.Random(20)
    graphs = [fixture_graph(name) for name in GRAPH_FIXTURES]
    return graphs + [random_graph(rng, max_vertices=5) for _ in range(20)]


@pytest.mark.parametrize("seed, g", list(enumerate(_naturality_graphs())))
def test_decompositions_commute_with_renaming(seed, g):
    renamings = _renamed_copies(g, random.Random(seed))
    objects = [EdgeRef(e) for e in g.edges()] + [VertexRef(v) for v in g.vertices]
    for source in objects:
        for target in objects:
            for side in ("L", "R"):
                dec = decompose(g, target, source, side)
                for r, hmap, vmap, same_h, same_v in renamings:
                    image = (_image(target, r, hmap, vmap), _image(source, r, hmap, vmap))
                    renamed = decompose(r, *image, side)
                    assert _summands(dec, r, hmap, vmap) == _summands(renamed, r, same_h, same_v)


def _walk_graphs():
    """The naturality graphs, then one ``bench/gen.py`` graph of each family
    at V=1000."""
    graphs = [(str(i), g) for i, g in enumerate(_naturality_graphs())]
    graphs += [(f, bench_graph(f, 1000, "1/naturality")) for f in bench_gen().FAMILIES]
    return [pytest.param(name, g, id=name) for name, g in graphs]


def _itinerary_image(it, r, hmap, vmap) -> Itinerary:
    return Itinerary(
        hmap[it.start],
        it.orient,
        tuple(hmap[h] for h in it.out_halfedges),
        tuple(r.edge_of(hmap[e]) for e in it.edges),
        tuple(vmap[v] for v in it.turns),
        tuple(hmap[h] for h in it.entries),
        hmap[it.terminal],
    )


def _walk_set(walks, hmap):
    """Boundary walks as a set of cyclic words, of halfedges and of marked
    points, each rotated to its smallest id after ``hmap``."""
    return {
        (rotate_to_min(map(hmap.get, w.halfedges)), rotate_to_min(map(hmap.get, w.externals)))
        for w in walks
    }


def _edge_pairs(g, hmap) -> dict:
    """Each edge of ``g`` by name, as the set of its halfedges after ``hmap``."""
    return {e: frozenset(hmap[h] for h in g.halfedges_of(e)) for e in g.edges()}


@pytest.mark.parametrize("name, g", _walk_graphs())
def test_edges_commute_with_renaming(name, g):
    for r, hmap, _, same_h, _ in _renamed_copies(g, random.Random(name)):
        got, want = _edge_pairs(r, same_h), _edge_pairs(g, hmap)
        for part in (RibbonGraph.edges, RibbonGraph.internal_edges, external_edges):
            assert {got[e] for e in part(r)} == {want[e] for e in part(g)}
        for h in g.halfedges:
            # a KeyError here is an edge name that is no edge
            pair = got[r.edge_of(hmap[h])]
            assert hmap[h] in pair and pair == want[g.edge_of(h)]


def _balls(g, rng):
    """Connected vertex sets grown breadth first from random vertices: one
    vertex, two, three and half the graph."""
    for size in (1, 2, 3, max(1, len(g.vertices) // 2)):
        ball = [rng.choice(g.vertices)]
        kept = set(ball)
        for v in ball:
            for h in g.cyclic(v):
                w = g.at_vertex(ext_twin(g, h))
                if len(ball) < size and w not in kept:
                    ball.append(w)
                    kept.add(w)
        yield ball


@pytest.mark.parametrize("name, g", _walk_graphs())
def test_walks_and_restriction_commute_with_renaming(name, g):
    rng = random.Random(name)
    copies = _renamed_copies(g, rng)
    for r, hmap, vmap, same_h, _ in copies:
        for h in g.halfedges:
            for orient in ("cw", "ccw"):
                want = _itinerary_image(itinerary(g, h, orient), r, hmap, vmap)
                assert itinerary(r, hmap[h], orient) == want
        assert _walk_set(boundary_walks(r), same_h) == _walk_set(boundary_walks(g), hmap)
    objects = [EdgeRef(e) for e in g.edges()] + [VertexRef(v) for v in g.vertices]
    pieces = 0
    for ball in _balls(g, rng):
        try:
            sub = subgraph(g, ball)
        except InvalidGraphError:
            continue
        pieces += 1
        images = [
            (subgraph(r, [vmap[v] for v in ball]), r, hmap, vmap, same_h, same_v)
            for r, hmap, vmap, same_h, same_v in copies
        ]
        # random objects, and some of the piece's vertices and cut edges
        targets = rng.sample(objects, min(len(objects), 24)) + [VertexRef(v) for v in ball[:3]]
        targets += [EdgeRef(g.edge_of(h)) for h in sub.cut_halfedges[:3]]
        for target in targets:
            for side in ("L", "R"):
                dec = decompose_subgraph(g, sub, target, side)
                for image, r, hmap, vmap, same_h, same_v in images:
                    renamed = decompose_subgraph(r, image, _image(target, r, hmap, vmap), side)
                    assert _summands(dec, r, hmap, vmap) == _summands(renamed, r, same_h, same_v)
    assert pieces


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


def _bench_assemblies():
    """A ``bench/gen.py`` graph of V=1000 and its assignment: a star at
    every vertex of a higher-genus graph, and the built-ins on a punctured
    trivalent one, each puncture with a seeded choice of T1/T2 or of
    T3/T4."""
    g = bench_graph("higher_genus", 1000, "1/assembly")
    stars = {n: star_template(n) for n in {g.valency(v) for v in g.vertices}}
    yield pytest.param(g, {v: stars[g.valency(v)] for v in g.vertices}, id="higher_genus stars")
    g = bench_graph("trivalent_punctured", 1000, "1/assembly")
    for choices, marks in (
        ("12", ()),
        # T3 and T4 take a puncture's two arcs through ring[0], resp.
        # ring[1], and a ring starts at its smallest halfedge, so a renaming
        # that makes the other halfedge the smallest swaps them (as in
        # `test_tagged_arcs_commute_with_renaming`).  The built-in T3 and T4
        # are equal, slots included, so the swap changes nothing; with T4
        # built as T3 with its two slots swapped, both renamings hold
        (
            "34",
            pytest.mark.xfail(
                strict=True, reason="the built-in punctured_2gon_T3 and _T4 are equal"
            ),
        ),
    ):
        rng = random.Random(35)
        assign = {
            v: "punctured_2gon_T" + rng.choice(choices) if g.valency(v) == 2
            else "rank1_trivalent"
            for v in g.vertices
        }
        yield pytest.param(
            g, assign, marks=marks, id="trivalent_punctured T{}".format("/T".join(choices))
        )


@pytest.mark.parametrize("g, assign", list(_bench_assemblies()))
def test_bench_assemblies_commute_with_renaming(g, assign):
    q = assemble_global(g, assign)
    swap = {"punctured_2gon_T3": "punctured_2gon_T4", "punctured_2gon_T4": "punctured_2gon_T3"}
    for r, hmap, vmap, _, _ in _renamed_copies(g, random.Random(len(g.vertices))):
        renamed = {vmap[v]: t for v, t in assign.items()}
        for v, t in assign.items():
            if isinstance(t, str) and t in swap and hmap[g.cyclic(v)[0]] != r.cyclic(vmap[v])[0]:
                renamed[vmap[v]] = swap[t]
        assert quivers_isomorphic(q, assemble_global(r, renamed))


def _arc_set(g, arcs, hmap, vmap) -> set:
    """The arcs of ``g`` over the ids ``hmap`` and ``vmap`` give: a dual arc
    by its edge's halfedges, a puncture arc by its puncture, via halfedge,
    tagging and path, so that no edge name is compared."""
    return {
        ("dual", frozenset(hmap[h] for h in g.halfedges_of(a.edge))) if a.kind == "dual"
        else (
            "puncture", vmap[a.puncture], hmap[a.via], a.tagging,
            tuple(hmap[h] for h in a.path.out_halfedges),
        )
        for a in arcs
    }


def _tagged_cases():
    yield pytest.param(fixture_graph("once_punctured_4gon"), id="once_punctured_4gon")
    for seed in ("1/arcs", "2/arcs", "3/arcs"):
        yield pytest.param(bench_graph("trivalent_punctured", 200, seed), id=seed)


@pytest.mark.parametrize("g", list(_tagged_cases()))
def test_tagged_arcs_commute_with_renaming(g):
    # T3 and T4 take a puncture's two arcs through ring[0], resp. ring[1],
    # and a ring starts at its smallest halfedge: where a renaming makes
    # the other halfedge the smallest, T3 and T4 trade places
    punctures = [v for v in g.vertices if g.valency(v) == 2]
    swap = {"T1": "T1", "T2": "T2", "T3": "T4", "T4": "T3"}
    flips = []
    for r, hmap, vmap, same_h, same_v in _renamed_copies(g, random.Random(len(g.vertices))):
        flipped = {p for p in punctures if hmap[g.cyclic(p)[0]] != r.cyclic(vmap[p])[0]}
        flips.append(len(flipped))
        for choice in swap:
            arcs = tagged_triangulation(g, dict.fromkeys(punctures, choice))
            expected = _arc_set(g, arcs, hmap, vmap)
            choices = {vmap[p]: swap[choice] if p in flipped else choice for p in punctures}
            assert _arc_set(r, tagged_triangulation(r, choices), same_h, same_v) == expected
            if choice != swap[choice] and flipped:
                unswapped = tagged_triangulation(r, dict.fromkeys(choices, choice))
                assert _arc_set(r, unswapped, same_h, same_v) != expected
    # the random renaming keeps some punctures' order, the order-reversing
    # one flips every puncture
    assert flips[0] < len(punctures) == flips[1]


def _renamed_template(t: LocalTemplate, rng: random.Random) -> LocalTemplate:
    """``t`` with its quiver's vertex and arrow ids renamed by a seeded
    bijection.  Its slots keep their interface ids: the reversal across
    an edge reads their order."""
    q = t.quiver
    vmap = _renamings(vertex_ids(q), "x", rng)[0]
    amap = _renamings([a.id for a in q.arrows], "y", rng)[0]
    quiver = IceQuiver(
        [QuiverVertex(vmap[v.id], v.frozen, v.label) for v in q.vertices],
        [QuiverArrow(amap[a.id], vmap[a.src], vmap[a.dst], a.frozen) for a in q.arrows],
    )
    slots = tuple(
        QuiverMorphism(
            s.source,
            quiver,
            {u: vmap[x] for u, x in s.vertex_map.items()},
            {b: None if x is None else amap[x] for b, x in s.arrow_map.items()},
        )
        for s in t.slots
    )
    return LocalTemplate(t.name, quiver, slots, t.stalk)


def _template_cases():
    rng = random.Random(33)
    for name in ("rank1_trivalent", "a2_trivalent"):
        for i in range(3):
            g = trivalent_graph(rng, rng.randint(4, 40))
            yield pytest.param(g, dict.fromkeys(g.vertices, name), id="{} {}".format(name, i))
    g = fixture_graph("once_punctured_4gon")
    for k in range(1, 5):
        assign = {
            v: "punctured_2gon_T{}".format(k) if g.kind(v) == "singular" else "rank1_trivalent"
            for v in g.vertices
        }
        yield pytest.param(g, assign, id="once_punctured_4gon T{}".format(k))


@pytest.mark.parametrize("g, assign", list(_template_cases()))
def test_assembly_commutes_with_renaming_template_ids(g, assign):
    rng = random.Random(len(g.halfedges))
    names = sorted(set(assign.values()))
    renamed = {name: _renamed_template(builtin_template(name), rng) for name in names}
    q = assemble_global(g, assign)
    r = assemble_global(g, {v: renamed[name] for v, name in assign.items()})
    assert quivers_isomorphic(q, r)
