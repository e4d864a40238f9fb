import hashlib
import itertools
import random
from collections import Counter

import pytest

from ribboncalc import (
    Atom,
    Decomposition,
    EdgeRef,
    FunctorWord,
    HalfedgeRef,
    InvalidGraphError,
    Marker,
    RibbonGraph,
    Subgraph,
    Summand,
    VertexRef,
    check_unit_split,
    decompose,
    decompose_subgraph,
    dual,
    parse_graph,
    serialize,
    subgraph,
    trajectory_counts,
    transport_word,
    twist_rotation_check,
    word_typechecks,
)

from ribboncalc import trajectory, words
from ribboncalc.graph import boundary_walks, require_valid
from ribboncalc.trajectory import CW, _itinerary, _source_halfedges
from ribboncalc.words import ID_ATOM, _decompose, _external_support, _summand_key

from conftest import bench_graph, external_edges, fixture_graph, sample_graphs


def words_of(dec):
    return sorted(str(s.word) for s in dec.summands)


class TestTransportWord:
    def test_constant_hit_gives_identity(self, two_spider):
        hits = trajectory_counts(two_spider, HalfedgeRef("h1"), EdgeRef("h1"), "cw")
        w = transport_word(hits[0])
        assert w.is_identity
        assert str(w) == "Id"

    def test_one_turning_step(self, two_spider):
        hits = trajectory_counts(two_spider, HalfedgeRef("h1"), EdgeRef("h2"), "cw")
        w = transport_word(hits[0])
        assert str(w) == "F[h2] F[h1]^L"
        assert w.source == EdgeRef("h1")
        assert w.target == EdgeRef("h2")

    def test_ccw_uses_right_adjoints(self, two_spider):
        hits = trajectory_counts(two_spider, HalfedgeRef("h2"), EdgeRef("h1"), "ccw")
        w = transport_word(hits[0])
        assert all(a.kind in ("gen", "genR") for a in w.atoms)
        assert str(w) == "F[h1] F[h2]^R"

    def test_word_length_is_twice_the_steps(self, annulus):
        for h in annulus.halfedges:
            for f in annulus.edges():
                for hit in trajectory_counts(annulus, HalfedgeRef(h), EdgeRef(f), "cw"):
                    w = transport_word(hit)
                    expect = 1 if hit.index == 1 else 2 * (hit.index - 1)
                    assert len(w.atoms) == expect


class TestDecompose:
    def test_vertex_source_edge_target(self, two_spider):
        dec = decompose(two_spider, EdgeRef("h2"), VertexRef("v"), side="L")
        assert words_of(dec) == ["F[h2]", "F[h2] F[h1]^L F[h1]"]

    def test_self_decomposition_of_vertex(self, two_spider):
        dec = decompose(two_spider, VertexRef("v"), VertexRef("v"), side="L")
        assert words_of(dec) == ["F[h1]^L F[h1]", "F[h2]^L F[h2]", "Id"]

    def test_diagonal_identity_sorts_first(self, two_spider):
        dec = decompose(two_spider, VertexRef("v"), VertexRef("v"), side="L")
        assert dec.summands[0].word.is_identity
        assert dec.summands[0].source_halfedge is None

    def test_edge_source_vertex_target(self, two_spider):
        dec = decompose(two_spider, VertexRef("v"), EdgeRef("h2"), side="L")
        assert words_of(dec) == ["F[h2]^L", "F[h2]^L"]
        assert [s.constant for s in dec.summands] == [True, False]

    def test_edge_to_edge_across_the_square(self, four_gon):
        dec = decompose(four_gon, EdgeRef("s2"), EdgeRef("m1"), side="L")
        assert words_of(dec) == ["F[s2] F[m2]^L"]
        dec = decompose(four_gon, EdgeRef("q1"), EdgeRef("m1"), side="L")
        assert words_of(dec) == ["F[q1] F[m1]^L"]

    def test_summand_count_matches_hit_count(self, annulus):
        for e in annulus.internal_edges():
            for f in annulus.edges():
                dec = decompose(annulus, EdgeRef(f), EdgeRef(e), side="L")
                hits = trajectory_counts(annulus, EdgeRef(e), EdgeRef(f), "cw")
                assert len(dec.summands) == len(hits)

    def test_side_r_mirrors_side_l_on_the_dual(self, four_gon):
        from ribboncalc import dual

        swap = {"genL": "genR", "genR": "genL"}
        refs = [EdgeRef(e) for e in four_gon.edges()] + [
            VertexRef(v) for v in four_gon.vertices
        ]
        gd = dual(four_gon)
        for src in refs:
            for tgt in refs:
                right = decompose(four_gon, tgt, src, side="R")
                left = decompose(gd, tgt, src, side="L")
                m_right = Counter(s.word.atoms for s in right.summands)
                m_left = Counter(
                    tuple(Atom(swap.get(a.kind, a.kind), a.halfedge) for a in s.word.atoms)
                    for s in left.summands
                )
                assert m_right == m_left

    def test_possibly_zero_marks_singular_vertices(self, two_spider):
        dec = decompose(two_spider, VertexRef("v"), VertexRef("v"), side="L")
        flags = {str(s.word): s.possibly_zero for s in dec.summands}
        assert flags == {
            "Id": False,
            "F[h1]^L F[h1]": True,
            "F[h2]^L F[h2]": True,
        }

    def test_plain_vertices_are_never_possibly_zero(self, four_gon):
        dec = decompose(four_gon, VertexRef("v1"), VertexRef("v1"), side="L")
        assert not any(s.possibly_zero for s in dec.summands)

    def test_every_emitted_word_typechecks(self, four_gon, annulus):
        for g in (four_gon, annulus):
            refs = [EdgeRef(e) for e in g.edges()] + [VertexRef(v) for v in g.vertices]
            for src in refs:
                for tgt in refs:
                    for side in ("L", "R"):
                        for s in decompose(g, tgt, src, side).summands:
                            assert word_typechecks(g, s.word)

    def test_word_multiset(self, two_spider):
        dec = decompose(two_spider, VertexRef("v"), EdgeRef("h2"), side="L")
        ms = Counter(s.word.atoms for s in dec.summands)
        assert list(ms.values()) == [2]

    def test_one_valent_graph_rejected(self):
        g = RibbonGraph({"u": ("a", "s"), "w": ("b",)}, {"a": "b", "b": "a"})
        with pytest.raises(Exception, match="valency-1"):
            decompose(g, EdgeRef("s"), EdgeRef("s"))

    def test_bad_side(self, two_spider):
        with pytest.raises(ValueError, match="side"):
            decompose(two_spider, EdgeRef("h1"), EdgeRef("h1"), side="Q")

    def test_unknown_targets(self, two_spider):
        with pytest.raises(ValueError, match="^unknown vertex 'zzz'$"):
            decompose(two_spider, VertexRef("zzz"), EdgeRef("h1"))
        with pytest.raises(ValueError, match="^unknown edge 'zzz'$"):
            decompose(two_spider, EdgeRef("zzz"), VertexRef("v"))

    def test_source_and_target_must_be_edge_or_vertex_references(self, two_spider):
        with pytest.raises(TypeError, match="^source must be an edge or vertex reference$"):
            decompose(two_spider, EdgeRef("h1"), HalfedgeRef("h1"))
        with pytest.raises(TypeError, match="^target must be an edge or vertex reference$"):
            decompose(two_spider, HalfedgeRef("h1"), EdgeRef("h1"))
        # the source's type is checked before the target's
        with pytest.raises(TypeError, match="^source must be an edge or vertex reference$"):
            decompose(two_spider, HalfedgeRef("h1"), HalfedgeRef("h1"))

    @pytest.mark.parametrize("source_kind", [EdgeRef, VertexRef])
    @pytest.mark.parametrize(
        "target_kind, message",
        [(EdgeRef, "^unknown edge 'tt'$"), (VertexRef, "^unknown vertex 'tt'$")],
    )
    def test_an_unknown_target_is_reported_before_an_unknown_source(
        self, four_gon, source_kind, target_kind, message
    ):
        with pytest.raises(ValueError, match=message):
            decompose(four_gon, target_kind("tt"), source_kind("ss"))

    def test_each_atom_is_built_once(self, two_spider, four_gon, annulus, monkeypatch):
        # a summand's atoms are built straight into its word: as many
        # constructions as atoms, the identity word's one shared atom aside
        built = []
        init = Atom.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(Atom, "__init__", counting)
        counted = Counter()
        for g in (two_spider, four_gon, annulus):
            objects = [EdgeRef(e) for e in g.edges()] + [VertexRef(v) for v in g.vertices]
            pieces = [subgraph(g, g.vertices[:1]), subgraph(g, g.vertices)]
            calls = [(decompose, g, t, x, side) for t in objects for x in objects for side in "LR"]
            calls += [(decompose_subgraph, g, sub, t, side)
                      for sub in pieces for t in objects for side in "LR"]
            for fn, *args in calls:
                built.clear()
                dec = fn(*args)
                atoms = [a for s in dec.summands for a in s.word.atoms]
                assert all(a is ID_ATOM for a in atoms if a.kind == "id")
                assert sorted(map(id, built)) == sorted(id(a) for a in atoms if a.kind != "id")
                counted[len(built) > 0] += 1
        # both kinds occur: words of atoms, and calls with none to build
        assert counted[True] and counted[False], counted

    def test_each_start_walk_is_read_once(self, four_gon, annulus, monkeypatch):
        reads = []

        def counting(g, h, orient):
            reads.append(h)
            return _itinerary(g, h, orient)

        monkeypatch.setattr(trajectory, "_itinerary", counting)
        for g in (four_gon, annulus):
            for v in g.vertices:
                for w in g.vertices:
                    for side in ("L", "R"):
                        reads.clear()
                        decompose(g, VertexRef(w), VertexRef(v), side)
                        assert sorted(reads) == sorted(g.cyclic(v))
            for e in g.internal_edges():
                for w in g.vertices:
                    reads.clear()
                    decompose(g, VertexRef(w), EdgeRef(e))
                    assert sorted(reads) == sorted(g.halfedges_of(e))

    def test_every_walk_is_read_by_one_hit_call(self, four_gon, annulus, monkeypatch):
        # a decomposition from a source or from a piece's cuts, and a count,
        # read all their walks in one `_hits` call
        calls = []
        hits = trajectory._hits

        def counting(*args):
            calls.append(args)
            return hits(*args)

        monkeypatch.setattr(trajectory, "_hits", counting)
        monkeypatch.setattr(words, "_hits", counting)
        for g in (four_gon, annulus):
            objects = [EdgeRef(e) for e in g.edges()] + [VertexRef(v) for v in g.vertices]
            pieces = [subgraph(g, g.vertices[:1]), subgraph(g, g.vertices)]
            targets = [HalfedgeRef(h) for h in g.halfedges] + [EdgeRef(e) for e in g.edges()]
            queries = [(decompose, g, t, x) for t in objects for x in objects]
            queries += [(decompose_subgraph, g, sub, t) for sub in pieces for t in objects]
            queries += [(trajectory_counts, g, x, t) for x in objects for t in targets]
            for fn, *args in queries:
                calls.clear()
                fn(*args)
                assert len(calls) == 1, (fn.__name__, args)


def _chain(*groups):
    """The atoms of ``groups`` in order, identities dropped, or the
    identity word's one atom when nothing is left."""
    atoms = tuple(a for group in groups for a in group if a.kind != "id")
    return atoms or (Atom("id"),)


def identified_multiset(dec, target):
    """Word multiset with each marker folded back into a generator
    atom, matching the vertex-source form of the same summand."""
    out = Counter()
    for s in dec.summands:
        atoms = s.word.atoms
        if s.marker is not None and (s.marker.kind == "ev" or isinstance(target, EdgeRef)):
            atoms = _chain(atoms, (Atom("gen", s.marker.ref),))
        out[atoms] += 1
    return out


class TestDecomposeSubgraph:
    def test_whole_graph_is_a_bare_restriction(self, four_gon):
        whole = subgraph(four_gon, four_gon.vertices)
        dec = decompose_subgraph(four_gon, whole, EdgeRef("q1"))
        assert [(str(s.word), s.marker.kind, s.marker.ref) for s in dec.summands] == [
            ("Id", "res", "q1")
        ]
        dec = decompose_subgraph(four_gon, whole, VertexRef("v1"))
        assert [(str(s.word), s.marker.kind) for s in dec.summands] == [("Id", "res")]

    def test_single_vertex_matches_vertex_source(self, once_punctured_4gon):
        g = once_punctured_4gon
        sub = subgraph(g, {"p"})
        refs = [EdgeRef(e) for e in g.edges()] + [VertexRef(v) for v in g.vertices]
        for side in ("L", "R"):
            for target in refs:
                through_sub = decompose_subgraph(g, sub, target, side)
                through_vertex = decompose(g, target, VertexRef("p"), side)
                assert identified_multiset(through_sub, target) == Counter(
                    s.word.atoms for s in through_vertex.summands
                )

    def test_triangle_to_far_external_edge(self, four_gon):
        tri = subgraph(four_gon, {"v1"})
        dec = decompose_subgraph(four_gon, tri, EdgeRef("s2"))
        assert len(dec.summands) == 1
        s = dec.summands[0]
        assert str(s.word) == "F[s2] F[m2]^L"
        assert (s.marker.kind, s.marker.ref) == ("ev", "m1")

    def test_unique_preimage_skips_its_own_cut(self, four_gon):
        tri = subgraph(four_gon, {"v1"})
        dec = decompose_subgraph(four_gon, tri, EdgeRef("m1"))
        kinds = [(s.marker.kind, s.marker.ref, str(s.word)) for s in dec.summands]
        assert kinds == [("res", "m1", "Id")]

    def test_severed_edge_gives_two_constants(self):
        g = RibbonGraph(
            {"u": ("uz", "ua", "ux", "ub"), "w": ("wy", "wa", "wb")},
            {"ua": "wa", "wa": "ua", "ub": "wb", "wb": "ub"},
        )
        h = RibbonGraph(
            {"u": ("uz", "ua", "ux", "ub"), "w": ("wy", "wa", "wb")},
            {"ua": "wa", "wa": "ua"},
        )
        sub = Subgraph(h, g, ("u", "w"), ("ub", "wb"))
        dec = decompose_subgraph(g, sub, EdgeRef("ub"))
        assert [(str(s.word), s.constant, s.marker.ref) for s in dec.summands] == [
            ("Id", True, "ub"),
            ("Id", True, "wb"),
        ]

    def test_unkept_vertex_target_has_no_restriction(self, once_punctured_4gon):
        sub = subgraph(once_punctured_4gon, {"p"})
        dec = decompose_subgraph(once_punctured_4gon, sub, VertexRef("w1"))
        assert all(s.marker.kind == "ev" for s in dec.summands)

    def test_kept_vertex_target_drops_constants(self, four_gon):
        tri = subgraph(four_gon, {"v1"})
        dec = decompose_subgraph(four_gon, tri, VertexRef("v1"))
        res = [s for s in dec.summands if s.marker.kind == "res"]
        assert len(res) == 1 and res[0].word.is_identity
        assert not any(s.constant for s in dec.summands if s.marker.kind == "ev")

    def test_only_a_separate_ambient_is_compared(self, four_gon, monkeypatch):
        tri = subgraph(four_gon, {"v1"})
        equal = parse_graph(serialize(four_gon))
        calls = []
        eq = RibbonGraph.__eq__
        monkeypatch.setattr(RibbonGraph, "__eq__", lambda g, h: calls.append(g) or eq(g, h))
        # the graph's own subgraph is known by identity
        dec = decompose_subgraph(four_gon, tri, EdgeRef("s2"))
        assert calls == []
        # an equal ambient graph that is another object is compared once
        other = decompose_subgraph(equal, tri, EdgeRef("s2"))
        assert len(calls) == 1
        assert other == dec

    def test_foreign_subgraph_rejected(self, four_gon, annulus):
        sub = subgraph(annulus, {"w"})
        with pytest.raises(ValueError, match="different ambient graph"):
            decompose_subgraph(four_gon, sub, EdgeRef("m1"))

    def test_unknown_targets(self, four_gon, annulus):
        tri = subgraph(four_gon, {"v1"})
        # the whole graph has no cut, so no walk would meet the target
        whole = subgraph(four_gon, four_gon.vertices)
        for sub in (tri, whole):
            # m2 is a halfedge of four_gon but not the name of its edge
            for name in ("zzz", "m2"):
                with pytest.raises(ValueError, match="^unknown edge '{}'$".format(name)):
                    decompose_subgraph(four_gon, sub, EdgeRef(name))
            with pytest.raises(ValueError, match="^unknown vertex 'zzz'$"):
                decompose_subgraph(four_gon, sub, VertexRef("zzz"))
        # the ambient graph is checked first
        with pytest.raises(ValueError, match="different ambient graph"):
            decompose_subgraph(annulus, tri, EdgeRef("zzz"))


class TestChecks:
    def test_unit_split_everywhere(self, four_gon, annulus):
        for g in (four_gon, annulus):
            for side in ("L", "R"):
                for e in g.edges():
                    assert check_unit_split(g, EdgeRef(e), side)
                for v in g.vertices:
                    assert check_unit_split(g, VertexRef(v), side)

    def test_unit_split_on_the_spider(self, two_spider):
        assert check_unit_split(two_spider, VertexRef("v"), "L")
        assert check_unit_split(two_spider, VertexRef("v"), "R")

    def test_twist_for_external_edges(self, four_gon, annulus, once_punctured_4gon):
        for g in (four_gon, annulus, once_punctured_4gon):
            for e in external_edges(g):
                assert twist_rotation_check(g, EdgeRef(e))

    def test_twist_for_internal_edges(self, annulus):
        for e in annulus.internal_edges():
            assert twist_rotation_check(annulus, EdgeRef(e))

    def test_twist_at_the_spider_vertex(self, two_spider):
        assert twist_rotation_check(two_spider, VertexRef("v"))

    def test_annulus_inner_edge_terminals_coincide(self, annulus):
        from ribboncalc import itinerary

        assert itinerary(annulus, "wi", "cw").terminal == "wi"
        assert itinerary(annulus, "wi", "ccw").terminal == "wi"
        assert twist_rotation_check(annulus, EdgeRef("wi"))


class TestWordTypechecks:
    def test_identity(self, two_spider, four_gon):
        assert word_typechecks(two_spider, FunctorWord((Atom("id"),)))
        # either end unknown: the same answer on each side
        assert word_typechecks(four_gon, FunctorWord((ID_ATOM,), None, EdgeRef("m1")))
        assert word_typechecks(four_gon, FunctorWord((ID_ATOM,), EdgeRef("m1")))

    def test_mismatched_composition(self, four_gon):
        # two generators in a row never compose: edge out, vertex in
        bad = FunctorWord(
            (Atom("gen", "m1"), Atom("gen", "q1")),
            VertexRef("v1"),
            EdgeRef("m1"),
        )
        assert not word_typechecks(four_gon, bad)

    def test_identity_atom_inside_a_composite(self, four_gon):
        word = FunctorWord((Atom("gen", "m1"), Atom("id")), VertexRef("v1"), EdgeRef("m1"))
        assert not word_typechecks(four_gon, word)

    def test_unknown_halfedge(self, four_gon):
        word = FunctorWord((Atom("gen", "zzz"),), VertexRef("v1"), EdgeRef("m1"))
        with pytest.raises(ValueError, match="^unknown halfedge 'zzz'$"):
            word_typechecks(four_gon, word)

    def test_str_forms(self):
        assert str(Atom("gen", "h")) == "F[h]"
        assert str(Atom("genL", "h")) == "F[h]^L"
        assert str(Atom("genR", "h")) == "F[h]^R"
        assert str(Atom("id")) == "Id"


GOLDEN_FIXTURES = ("annulus", "four_gon", "once_punctured_4gon", "three_spider", "two_spider")


def _golden_items(g):
    objects = [EdgeRef(e) for e in g.edges()] + [VertexRef(v) for v in g.vertices]
    for source in objects:
        for target in objects:
            for side in ("L", "R"):
                yield serialize(decompose(g, target, source, side))
    for size in range(1, len(g.vertices) + 1):
        for kept in itertools.combinations(g.vertices, size):
            try:
                sub = subgraph(g, kept)
            except InvalidGraphError:
                continue
            for target in objects:
                for side in ("L", "R"):
                    yield serialize(decompose_subgraph(g, sub, target, side))
    for x in objects:
        yield serialize(
            [check_unit_split(g, x, "L"), check_unit_split(g, x, "R"), twist_rotation_check(g, x)]
        )


def test_decompositions_match_the_golden_digest():
    """Every decomposition, subgraph decomposition and unit/twist check
    on the fixtures and their duals, pinned byte for byte."""
    graphs = [fixture_graph(name) for name in GOLDEN_FIXTURES]
    digest = hashlib.sha256()
    count = 0
    for g in graphs + [dual(g) for g in graphs]:
        for item in _golden_items(g):
            digest.update((item + "\n").encode())
            count += 1
    assert count == 3184
    assert digest.hexdigest() == (
        "230b4937dae185cb1379718fd633b441abdd0823af92a861ba9164b538a881f2"
    )


def _external_support_per_edge(g, x, orient):
    """One `trajectory_counts` call per external edge: the formulation
    that `_external_support` replaces, kept as its oracle."""
    counts = Counter()
    for f in external_edges(g):
        hits = trajectory_counts(g, x, EdgeRef(f), orient)
        if hits:
            counts[f] = len(hits)
    return counts


def test_external_support_matches_per_edge_counts():
    for g in sample_graphs():
        objects = [EdgeRef(e) for e in g.edges()] + [VertexRef(v) for v in g.vertices]
        for x in objects:
            for orient in ("cw", "ccw"):
                assert dict(_external_support(g, x, orient)) == dict(
                    _external_support_per_edge(g, x, orient)
                )


def _twist_rotation_check_by_boundary_walks(g, x):
    """The twist check that reading walk terminals replaced, kept as its
    oracle: the marked-point successor map is built from every boundary
    walk, and every visited edge of every walk is scanned for externals."""

    def support(orient):
        return Counter(
            e
            for h in _source_halfedges(g, x)
            for e in _itinerary(g, h, orient).edges
            if g.is_external(e)
        )

    succ = {}
    for walk in boundary_walks(g):
        ext = walk.externals
        for i, h in enumerate(ext):
            succ[h] = ext[(i + 1) % len(ext)]
    rotated = Counter()
    for f, n in support("ccw").items():
        rotated[succ[f]] += n
    return rotated == support("cw")


def test_twist_rotation_check_matches_the_boundary_walk_oracle():
    answers = Counter()
    for g in sample_graphs():
        objects = [EdgeRef(e) for e in g.edges()] + [VertexRef(v) for v in g.vertices]
        for x in objects:
            answer = twist_rotation_check(g, x)
            assert answer == _twist_rotation_check_by_boundary_walks(g, x)
            answers[answer] += 1
    # both answers occur, so the comparison is not vacuous
    assert answers[True] and answers[False]


def test_the_kept_next_marked_point_is_where_the_clockwise_walk_ends():
    # the twist check reads the map validation keeps; the walk is its oracle
    for g in sample_graphs():
        require_valid(g)
        assert g._marked == {f: _itinerary(g, f, CW).terminal for f in external_edges(g)}


def _possibly_zero(g, atoms):
    """The possibly-zero flag read through the graph's public methods."""
    return any(
        a.halfedge is not None and g.kind(g.at_vertex(a.halfedge)) == "singular"
        for a in atoms
    )


def _decompose_per_ring_halfedge(g, target, side, starts, source=None, unit=None):
    """The decomposition loop that one read per start replaced, kept as
    its oracle: a vertex target is met through one public
    `trajectory_counts` call per start and ring halfedge."""
    orient = "cw" if side == "L" else "ccw"
    from_vertex = isinstance(source, VertexRef)
    diagonal = unit is not None or (from_vertex and source == target)
    if isinstance(target, EdgeRef):
        ring = ((target, ()),)
    else:
        adj = "genL" if orient == "cw" else "genR"
        ring = [(HalfedgeRef(hp), (Atom(adj, hp),)) for hp in g.cyclic(target.id)]
    summands = []
    for start, marker in starts:
        for ref, prefix in ring:
            for hit in trajectory_counts(g, start, ref, orient):
                if diagonal and hit.constant:
                    continue
                suffix = (Atom("gen", hit.source),) if from_vertex else ()
                atoms = _chain(prefix, transport_word(hit).atoms, suffix)
                word = FunctorWord(atoms, source, target)
                summands.append(Summand(
                    word, hit.source, hit.index, hit.constant, marker,
                    _possibly_zero(g, atoms),
                ))
    if diagonal:
        word = FunctorWord((Atom("id"),), source, target)
        summands.append(Summand(word, None, 0, False, unit, False))
    summands.sort(key=_summand_key)
    return Decomposition(source, target, side, tuple(summands))


def _decompose_subgraph_per_ring_halfedge(g, sub, target, side):
    unit = skip = None
    if isinstance(target, EdgeRef):
        preimages = [k for k in sub.graph.edges() if sub.ambient.edge_of(k) == target.id]
        if len(preimages) == 1:
            skip = preimages[0]
            unit = Marker("res", skip)
    elif target.id in sub.vertices:
        unit = Marker("res", target.id)
    starts = [
        (HalfedgeRef(cut), Marker("ev", cut)) for cut in sub.cut_halfedges if cut != skip
    ]
    return _decompose_per_ring_halfedge(g, target, side, starts, unit=unit)


# the graphs the per-ring-halfedge oracle runs on: its calls cost about
# valency(target) times one read per start, so larger graphs are left to
# the golden digest and the naturality suite
_ORACLE_MAX_VERTICES = 3


def test_decompositions_match_the_per_ring_halfedge_loop():
    graphs = sample_graphs()
    small = [g for g in graphs if len(g.vertices) <= _ORACLE_MAX_VERTICES]
    # most of the fixtures and random draws
    assert len(small) > len(graphs) // 2
    for g in small:
        objects = [EdgeRef(e) for e in g.edges()] + [VertexRef(v) for v in g.vertices]
        for side in ("L", "R"):
            for source in objects:
                for target in objects:
                    expected = _decompose_per_ring_halfedge(
                        g, target, side, ((source, None),), source
                    )
                    assert serialize(decompose(g, target, source, side)) == serialize(expected)
        for size in range(1, len(g.vertices) + 1):
            for kept in itertools.combinations(g.vertices, size):
                try:
                    sub = subgraph(g, kept)
                except InvalidGraphError:
                    continue
                for target in objects:
                    for side in ("L", "R"):
                        expected = _decompose_subgraph_per_ring_halfedge(g, sub, target, side)
                        assert serialize(decompose_subgraph(g, sub, target, side)) == (
                            serialize(expected)
                        )


def _ball(g, centre, size):
    """The first ``size`` vertices of a breadth-first search from ``centre``."""
    ball, todo = [centre], [centre]
    while todo and len(ball) < size:
        v = todo.pop(0)
        for t in filter(None, map(g.twin_of, g.cyclic(v))):
            w = g.at_vertex(t)
            if w not in ball and len(ball) < size:
                ball.append(w)
                todo.append(w)
    return ball


def test_decompositions_match_the_per_ring_halfedge_loop_at_bench_size():
    # the benchmark's graph, with a seeded tenth of its vertices made
    # singular so that the possibly-zero flags are compared too; each
    # target lies on a walk from its source, so most samples have summands
    rng = random.Random(37)
    plain = bench_graph("higher_genus", 1000, "oracle/1")
    twin = {h: plain.twin_of(h) for h in plain.halfedges if not plain.is_external(h)}
    singular = rng.sample(plain.vertices, len(plain.vertices) // 10)
    g = RibbonGraph(
        {v: plain.cyclic(v) for v in plain.vertices}, twin, dict.fromkeys(singular, "singular")
    )
    edges, sizes, zero = g.internal_edges(), Counter(), Counter()
    for kinds in ("ee", "ev", "ve", "vv"):
        for side in ("L", "R"):
            for _ in range(8):
                source = EdgeRef(rng.choice(edges)) if kinds[0] == "e" else (
                    VertexRef(rng.choice(g.vertices)))
                start = rng.choice(_source_halfedges(g, source))
                h = rng.choice(_itinerary(g, start, "cw" if side == "L" else "ccw").entries)
                target = EdgeRef(g.edge_of(h)) if kinds[1] == "e" else VertexRef(g.at_vertex(h))
                dec = decompose(g, target, source, side)
                expected = _decompose_per_ring_halfedge(g, target, side, ((source, None),), source)
                assert serialize(dec) == serialize(expected)
                sizes[len(dec.summands) > 0] += 1
                zero.update(s.possibly_zero for s in dec.summands)
    centre = rng.choice(g.vertices)
    sub = subgraph(g, _ball(g, centre, 40))
    assert len(sub.vertices) == 40
    for target in (VertexRef(centre), VertexRef(rng.choice(g.vertices)), *(
            EdgeRef(rng.choice(edges)) for _ in range(2))):
        for side in ("L", "R"):
            dec = decompose_subgraph(g, sub, target, side)
            expected = _decompose_subgraph_per_ring_halfedge(g, sub, target, side)
            assert serialize(dec) == serialize(expected)
            sizes[len(dec.summands) > 0] += 1
            zero.update(s.possibly_zero for s in dec.summands)
    # the comparison is not vacuous: most samples have summands, and both
    # flags occur
    assert sizes[True] > 3 * sizes[False], sizes
    assert zero[True] and zero[False], zero


def _decompose_subgraph_by_scan(g, sub, target, side):
    """`decompose_subgraph` past its checks, finding an edge target's
    preimages by the scan it once ran over every edge of the piece; kept as
    the oracle of the read of the target's own halfedges."""
    unit = skip = None
    if isinstance(target, EdgeRef):
        preimages = [k for k in sub.graph.edges() if sub.ambient.edge_of(k) == target.id]
        if len(preimages) == 1:
            skip = preimages[0]
            unit = Marker("res", skip)
    elif target.id in sub.vertices:
        unit = Marker("res", target.id)
    cuts = [cut for cut in sub.cut_halfedges if cut != skip]
    return _decompose(g, target, side, cuts=cuts, unit=unit)


def _pieces(g):
    """The pieces of ``g`` that `subgraph` accepts among these: each vertex,
    the two ends of each internal edge, all vertices but one, and all."""
    kept = {(v,) for v in g.vertices} | {g.vertices}
    kept |= {tuple(sorted({g.at_vertex(e), g.at_vertex(g.twin_of(e))})) for e in g.internal_edges()}
    kept |= {tuple(w for w in g.vertices if w != v) for v in g.vertices}
    for vertices in sorted(kept - {()}):
        try:
            yield subgraph(g, vertices)
        except InvalidGraphError:
            pass


def test_edge_preimages_match_the_scan_over_the_piece():
    severed = RibbonGraph(
        {"u": ("uz", "ua", "ux", "ub"), "w": ("wy", "wa", "wb")},
        {"ua": "wa", "wa": "ua", "ub": "wb", "wb": "ub"},
    )
    piece = RibbonGraph(
        {"u": ("uz", "ua", "ux", "ub"), "w": ("wy", "wa", "wb")},
        {"ua": "wa", "wa": "ua"},
    )
    cases = [(g, sub) for g in sample_graphs() for sub in _pieces(g)]
    # a hand-built cut on both sides of one edge gives it two preimages
    cases.append((severed, Subgraph(piece, severed, ("u", "w"), ("ub", "wb"))))
    preimages = Counter()
    for g, sub in cases:
        for e in g.edges():
            target = EdgeRef(e)
            preimages[sum(map(sub.graph.is_edge, g.halfedges_of(e)))] += 1
            # the preimages do not depend on the side
            assert decompose_subgraph(g, sub, target) == (
                _decompose_subgraph_by_scan(g, sub, target, "L")
            )
        # a halfedge that does not name its edge, and an id of no halfedge
        for name in [*(g.twin_of(e) for e in g.internal_edges()[:1]), "zzz"]:
            with pytest.raises(ValueError) as scanned:
                _decompose_subgraph_by_scan(g, sub, EdgeRef(name), "L")
            with pytest.raises(ValueError, match="^unknown edge ") as read:
                decompose_subgraph(g, sub, EdgeRef(name))
            assert str(read.value) == str(scanned.value)
    # targets with no preimage, with one and with two all occur
    assert sorted(preimages) == [0, 1, 2]
