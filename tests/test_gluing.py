"""Gluing commutes with cutting.

The paper assembles a global object from local pieces along restriction
and induction functors; here that is amalgamation, a colimit.  So gluing
a whole assembly diagram at once must give the quiver that gluing each
piece of a cut first, and then the pieces, gives.  `cut` splits a
graph's vertices into two or more connected pieces, glues each piece's
part of the diagram, and builds the diagram of the pieces over the graph
with each piece contracted to one vertex.  The two quivers are compared
up to isomorphism, frozen flags and labels included.  Gluing reads the
diagram's tables in their own order, so it must also not depend on that
order.  Gluing joins pairs, so the glued quiver's vertices are counted
by the local and interface quivers, and for the built-in templates by
the surface.  Assembly takes templates as given, so a new copy of each
template per vertex, one object per distinct template and built-in names
must glue to the same output.  Gluing builds its quiver unchecked, so the
checking constructor must build the same quiver from its vertices and
arrows.
"""

import json
import random

import pytest

from ribboncalc import (
    AmalgamationDiagram,
    IceQuiver,
    InvalidGraphError,
    QuiverMorphism,
    RibbonGraph,
    amalgamate,
    assemble_global,
    assembly_diagram,
    boundary_walks,
    builtin_template,
    export_dot,
    parse_assignments,
    serialize,
    star_template,
    subgraph,
    surface_invariants,
    to_jsonable,
)
from ribboncalc import assembly
from ribboncalc.serialization import template_from_jsonable

from conftest import (
    _builtin_assemblies, _neighbours, _partitions, _punctured_assignment, bench_graph,
    fixture_graph, fixture_text, same_labelled_quiver, sample_graphs, frozen_ids, shuffled_diagram,
)
from randgraphs import random_graph, trivalent_graph


def _restricted(d: AmalgamationDiagram, sub) -> AmalgamationDiagram:
    """The part of ``d`` over the induced subgraph ``sub``; a cut halfedge's
    edge quiver is its incidence's source."""
    g = sub.graph
    return AmalgamationDiagram(
        g,
        {v: d.vertex_quivers[v] for v in g.vertices},
        {e: d.incidences[e].source for e in g.edges()},
        {h: d.incidences[h] for h in g.halfedges},
    )


def _lifted(m: QuiverMorphism, v: str, q) -> QuiverMorphism:
    """The incidence ``m`` into the quiver of vertex ``v``, lifted into the
    piece quiver ``q`` that glued it, where each image is named ``v.`` and
    its local id."""
    return QuiverMorphism(
        m.source,
        q,
        {x: v + "." + y for x, y in m.vertex_map.items()},
        {a: None if b is None else v + "." + b for a, b in m.arrow_map.items()},
    )


def cut(d: AmalgamationDiagram, pieces, names) -> AmalgamationDiagram:
    """The diagram of the glued pieces of ``d``: each vertex set of the
    partition ``pieces`` contracted to one vertex, named by the matching
    entry of ``names``, with the quiver that gluing that piece's part of
    ``d`` gives.  A contracted vertex's ring lists its piece's external
    halfedges in `boundary_walks` order, cut halfedges keep their twins,
    and each incidence is lifted into its piece quiver.  A piece, or the
    contracted graph, that is not a valid graph raises
    `InvalidGraphError`."""
    g = d.graph
    rings, quivers, incidences = {}, {}, {}
    for name, vertices in zip(names, pieces):
        sub = subgraph(g, vertices)
        q = quivers[name] = amalgamate(_restricted(d, sub))
        ring = rings[name] = [h for walk in boundary_walks(sub.graph) for h in walk.externals]
        for h in ring:
            incidences[h] = _lifted(d.incidences[h], g.at_vertex(h), q)
    twin = {h: g.twin_of(h) for ring in rings.values() for h in ring if not g.is_external(h)}
    contracted = RibbonGraph(rings, twin)
    edges = {e: d.edge_quivers[e] for e in contracted.edges()}
    return AmalgamationDiagram(contracted, quivers, edges, incidences)


def _pieces(g: RibbonGraph, rng: random.Random, tries: int = 20):
    """Up to ``tries`` seeded cuts of ``g`` into two pieces: a connected
    proper vertex set, grown from a random vertex to a random size, and
    the rest."""
    for _ in range(tries):
        piece = {rng.choice(g.vertices)}
        size = rng.randint(1, len(g.vertices) - 1)
        while len(piece) < size:
            piece.add(rng.choice([w for v in sorted(piece) for w in _neighbours(g, v)]))
        yield [piece, set(g.vertices) - piece]


def _glued_by_pieces(d: AmalgamationDiagram, pieces, rng: random.Random):
    """The quiver that gluing along the cut ``pieces`` gives, the contracted
    vertices named ``@0``, ``@1``, ... in a seeded order, or None when a
    piece or the contracted graph is not valid."""
    names = ["@{}".format(i) for i in range(len(pieces))]
    try:
        return amalgamate(cut(d, pieces, rng.sample(names, len(names))))
    except InvalidGraphError:
        return None


def _check(g: RibbonGraph, assign, cuts, rng: random.Random, most: int = 1) -> int:
    """Compare gluing at once with gluing by the first ``most`` valid cuts
    among ``cuts``; the number of cuts compared."""
    nx = pytest.importorskip("networkx")
    d = assembly_diagram(g, assign)
    whole = amalgamate(d)
    compared = 0
    for pieces in cuts:
        by_pieces = _glued_by_pieces(d, pieces, rng)
        if by_pieces is None:
            continue
        assert same_labelled_quiver(nx, whole, by_pieces), [sorted(p) for p in pieces]
        assert _follows_arrow_ids(whole, by_pieces), [sorted(p) for p in pieces]
        compared += 1
        if compared == most:
            break
    return compared


def _follows_arrow_ids(whole, by_pieces) -> bool:
    """Whether the map that the arrow ids give is an isomorphism from
    ``by_pieces`` onto ``whole``, frozen flags and labels kept.  Gluing by
    pieces names an arrow as gluing at once does, with the contracted
    vertex's name ``@i.`` in front when it comes from a piece; the ends of
    matched arrows give the vertex map, and vertices on no arrow are
    matched by their flags and labels.  This is an isomorphism test that
    needs no search, for quivers where networkx's search is too slow."""
    arrows = {a.id: a for a in whole.arrows}
    image = {}
    for a in by_pieces.arrows:
        head, _, rest = a.id.partition(".")
        b = arrows.pop(rest if head.startswith("@") else a.id, None)
        if b is None or b.frozen != a.frozen:
            return False
        for x, y in ((a.src, b.src), (a.dst, b.dst)):
            if image.setdefault(x, y) != y:
                return False
    if arrows or len(set(image.values())) != len(image):
        return False
    ours = {v.id: (v.frozen, v.label) for v in by_pieces.vertices}
    theirs = {v.id: (v.frozen, v.label) for v in whole.vertices}
    if any(ours.pop(x) != theirs.pop(y) for x, y in image.items()):
        return False
    # what is left lies on no arrow
    return sorted(map(repr, ours.values())) == sorted(map(repr, theirs.values()))


def _stars(g: RibbonGraph) -> dict:
    return {v: star_template(g.valency(v)) for v in g.vertices}


def _assemblies(rng: random.Random):
    """Seeded assemblies of every kind the cuts below cover: star templates
    on random graphs, ``rank1_trivalent`` and ``a2_trivalent`` on trivalent
    graphs, and the punctured 2-gons on the benchmark's punctured
    trivalent graphs."""
    for _ in range(15):
        g = random_graph(rng)
        yield g, _stars(g)
    for name in ("rank1_trivalent", "a2_trivalent"):
        for _ in range(8):
            g = trivalent_graph(rng, rng.randint(3, 12))
            yield g, {v: name for v in g.vertices}
    for n in (24, 60):
        for seed in range(4):
            g = bench_graph("trivalent_punctured", n, "{}/glue".format(seed))
            yield g, _punctured_assignment(g, rng)


@pytest.mark.parametrize("name", ["four_gon_a2", "once_punctured_4gon"])
def test_fixture_assemblies_glue_by_every_cut(name):
    g = fixture_graph(name.replace("_a2", ""))
    assign = parse_assignments(fixture_text(name + "_templates"))
    # every proper vertex set, so each piece is cut off under both names
    pieces = [{v for i, v in enumerate(g.vertices) if mask >> i & 1}
              for mask in range(1, 2 ** len(g.vertices) - 1)]
    cuts = [[piece, set(g.vertices) - piece] for piece in pieces]
    assert _check(g, assign, cuts, random.Random(name), len(cuts)) >= 2


def test_star_assemblies_glue_by_cuts():
    rng = random.Random(25)
    compared = draws = 0
    while draws < 60:
        g = random_graph(rng)
        if len(g.vertices) < 2:
            continue
        draws += 1
        compared += _check(g, _stars(g), _pieces(g, rng), rng)
    # a draw with no valid cut among its tries is rare
    assert compared >= 55


def test_a2_assemblies_glue_by_cuts():
    rng = random.Random(26)
    compared = 0
    for _ in range(12):
        g = trivalent_graph(rng, rng.randint(2, 9))
        assign = {v: "a2_trivalent" for v in g.vertices}
        compared += _check(g, assign, _pieces(g, rng), rng)
    assert compared >= 10


def test_rank1_assemblies_glue_by_cuts():
    rng = random.Random(30)
    compared = 0
    for _ in range(12):
        g = trivalent_graph(rng, rng.randint(2, 12))
        assign = {v: "rank1_trivalent" for v in g.vertices}
        compared += _check(g, assign, _pieces(g, rng), rng)
    assert compared >= 10


def test_punctured_assemblies_glue_by_cuts():
    rng = random.Random(31)
    compared = 0
    for n in (24, 36):
        for seed in range(4):
            g = bench_graph("trivalent_punctured", n, "{}/cut".format(seed))
            compared += _check(g, _punctured_assignment(g, rng), _pieces(g, rng), rng)
    assert compared >= 7


def test_assemblies_glue_by_cuts_into_many_pieces():
    rng = random.Random(32)
    compared = drawn = 0
    for g, assign in _assemblies(rng):
        if len(g.vertices) < 3:
            continue
        drawn += 1
        k = rng.randint(3, min(6, len(g.vertices)))
        compared += _check(g, assign, _partitions(g, rng, k), rng)
    # a small graph may have no valid cut into k pieces among its tries
    assert drawn > 30 and compared >= drawn - 3


def test_large_a2_assembly_glues_by_cuts():
    rng = random.Random(33)
    g = trivalent_graph(rng, 1000)
    d = assembly_diagram(g, {v: "a2_trivalent" for v in g.vertices})
    whole = amalgamate(d)
    for k in (2, 7):
        cuts = (_glued_by_pieces(d, pieces, rng) for pieces in _partitions(g, rng, k))
        assert _follows_arrow_ids(whole, next(filter(None, cuts))), k


def _order_cases(rng: random.Random):
    """`_assemblies`, the fixture assemblies, and the once-punctured 4-gon
    with each punctured 2-gon on its puncture."""
    yield from _assemblies(rng)
    for name in ("four_gon_a2", "once_punctured_4gon"):
        g = fixture_graph(name.replace("_a2", ""))
        base = parse_assignments(fixture_text(name + "_templates"))
        yield g, base
    for k in range(1, 5):
        yield g, dict(base, p="punctured_2gon_T{}".format(k))


def test_gluing_does_not_depend_on_the_order_of_the_tables():
    rng = random.Random(34)
    for g, assign in _order_cases(rng):
        d = assembly_diagram(g, assign)
        want = amalgamate(d)
        for _ in range(3):
            assert amalgamate(shuffled_diagram(d, rng)) == want


def test_a_glued_vertex_is_named_by_the_smaller_of_its_two_members():
    # the slots at a vertex are disjoint, so a class of glued vertices is
    # one interface vertex's two images across one internal edge
    for g, assign in _order_cases(random.Random(35)):
        d = assembly_diagram(g, assign)
        ids = {v.id for v in amalgamate(d).vertices}
        for e in g.internal_edges():
            ends = [(g.at_vertex(h), d.incidences[h].vertex_map) for h in g.halfedges_of(e)]
            for x in d.edge_quivers[e].vertices:
                pair = sorted(v + "." + vmap[x.id] for v, vmap in ends)
                assert pair[0] in ids and pair[1] not in ids, pair


def _bench_family_assemblies(rng: random.Random):
    """Stars on a graph of each ``bench/gen.py`` family, and the built-ins
    on the punctured trivalent ones, at V=30 and V=200."""
    for family in ("disc_tree", "higher_genus", "trivalent_punctured"):
        for n in (30, 200):
            g = bench_graph(family, n, "{}/rebuild".format(n))
            yield g, _stars(g)
            if family == "trivalent_punctured":
                yield g, _punctured_assignment(g, rng)


def test_a_glued_quiver_is_the_one_the_check_builds():
    # gluing files its quiver's vertices and arrows and builds it
    # unchecked: the checking constructor finds no fault in them and
    # builds the same quiver, indexes, attribute order and frozen
    # components included, whatever the order of the diagram's tables
    rng = random.Random(36)
    cases = [*_assemblies(rng), *_builtin_assemblies(), *_bench_family_assemblies(rng)]
    for g, assign in cases:
        d = assembly_diagram(g, assign)
        for glued in amalgamate(d), amalgamate(shuffled_diagram(d, rng)):
            checked = IceQuiver(glued.vertices, glued.arrows)
            assert glued == checked
            assert list(vars(glued)) == list(vars(checked))
            assert (glued._by_id, glued._arrow_by_id) == (checked._by_id, checked._arrow_by_id)
            assert glued.frozen_components() == checked.frozen_components()
    assert len(cases) > 300


def _counted_assemblies():
    """`conftest._builtin_assemblies`, and the assemblies that
    `test_quiver.TestAmalgamate` glues: stars on the 4-gon, on the annulus
    and on a graph with dotted vertex ids, and ``a2_trivalent`` on the
    4-gon."""
    yield from _builtin_assemblies()
    dotted = RibbonGraph(
        {"a.b": ("h1", "h2", "x1"), "c.d": ("k1", "k2", "x2")},
        {"h1": "k1", "k1": "h1", "h2": "k2", "k2": "h2"},
    )
    for g in (fixture_graph("four_gon"), fixture_graph("annulus"), dotted):
        yield g, _stars(g)
    yield fixture_graph("four_gon"), {"v1": "a2_trivalent", "v2": "a2_trivalent"}


_RANK1 = {"rank1_trivalent", *("punctured_2gon_T{}".format(k) for k in range(1, 5))}


def test_gluing_joins_pairs_and_counts_the_surface():
    # each internal interface vertex glues its two images into one vertex,
    # and each external one stays frozen.  On the surface, with g, b, c the
    # genus, boundary circles and marked points and p the punctures, rank 1
    # with any puncture choice glues FST's 6g + 3b + 3p + c - 6 arcs and c
    # boundary segments; a2_trivalent glues two vertices per arc and one
    # per triangle, 16g + 8b + 3c - 16, and two per boundary segment
    kinds = set()
    for g, assign in _counted_assemblies():
        d = assembly_diagram(g, assign)
        q = amalgamate(d)
        interface = {e: len(d.edge_quivers[e].vertices) for e in g.edges()}
        internal = sum(interface[e] for e in g.internal_edges())
        local = sum(len(d.vertex_quivers[v].vertices) for v in g.vertices)
        frozen = len(frozen_ids(q))
        assert (len(q.vertices), frozen) == (local - internal, sum(interface.values()) - internal)
        names = {t if isinstance(t, str) else "star" for t in assign.values()}
        s = surface_invariants(g)
        b, c = len(s.boundary), sum(s.boundary)
        p = sum(g.kind(v) == "singular" for v in g.vertices)
        mutable = len(q.vertices) - frozen
        if names <= _RANK1:
            assert (mutable, frozen) == (6 * s.genus + 3 * b + 3 * p + c - 6, c), names
        elif names == {"a2_trivalent"}:
            assert (mutable, frozen) == (16 * s.genus + 8 * b + 3 * c - 16, 2 * c)
        kinds |= names
    assert kinds == {"star", "a2_trivalent", *_RANK1}, kinds


def _assignment_forms(assign: dict) -> list[dict]:
    """``assign`` four ways: a new copy of the template at each vertex, each
    parsed from its JSON form; as an assignments file parses it, one object
    per distinct template; with the one object of each name; and, when it
    names built-ins only, as given.  Templates with one name must be
    equal, as built-ins and stars are."""
    keys = {v: t if isinstance(t, str) else t.name for v, t in assign.items()}
    shared = {}  # the one object of each name
    for v, key in keys.items():
        if key not in shared:
            t = assign[v]
            shared[key] = builtin_template(t) if isinstance(t, str) else t
        assert isinstance(assign[v], str) or assign[v] == shared[key]
    jsonable = {key: to_jsonable(t) for key, t in shared.items()}
    copies = {v: template_from_jsonable(jsonable[key]) for v, key in keys.items()}
    assert len({id(t) for t in copies.values()}) == len(assign)
    text = json.dumps({"assignments": {v: jsonable[key] for v, key in keys.items()}})
    parsed = parse_assignments(text)
    assert len({id(t) for t in parsed.values()}) == len(shared)
    forms = [copies, parsed, {v: shared[key] for v, key in keys.items()}]
    if all(isinstance(t, str) for t in assign.values()):
        forms.append(assign)
    return forms


def test_copied_shared_and_named_templates_assemble_alike():
    cases = list(_builtin_assemblies())
    cases += [(g, _stars(g)) for g in sample_graphs()]
    named = 0
    for g, assign in cases:
        forms = _assignment_forms(assign)
        outputs = {(serialize(q), export_dot(q)) for q in (assemble_global(g, a) for a in forms)}
        assert len(outputs) == 1, sorted(set(map(str, assign.values())))
        named += len(forms) == 4
    assert 0 < named < len(cases)


def test_assembly_wires_each_template_slot(monkeypatch):
    # an edge's first halfedge takes its template's own slot object, and
    # its twin one reversal identification per distinct pair of slots
    built, calls = {}, []

    def building(name, original=assembly.builtin_template):
        t = built[name] = original(name)
        return t

    def reversing(*args, original=assembly._reversal_identification):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(assembly, "builtin_template", building)
    monkeypatch.setattr(assembly, "_reversal_identification", reversing)
    cases = list(_builtin_assemblies())
    for g in sample_graphs():
        stars = {n: star_template(n) for n in {g.valency(v) for v in g.vertices}}
        cases.append((g, {v: stars[g.valency(v)] for v in g.vertices}))
    shared = 0
    for g, assign in cases:
        built.clear()
        calls.clear()
        d = assembly_diagram(g, assign)
        slot_at = {}
        for v in g.vertices:
            t = built[assign[v]] if isinstance(assign[v], str) else assign[v]
            slot_at.update(zip(g.cyclic(v), t.slots))
        pairs = set()
        for e in g.edges():
            assert d.incidences[e] is slot_at[e]
            if not g.is_external(e):
                pairs.add((id(slot_at[e]), id(slot_at[g.twin_of(e)])))
        assert len(calls) == len(pairs)
        shared += len(pairs) < len(g.internal_edges())
    assert shared > 0
