import copy
import gc
import itertools
import pickle
import random
import re
import weakref
from collections import Counter
from pathlib import Path

import pytest

import ribboncalc
from ribboncalc import (
    EdgeRef,
    HalfedgeRef,
    InvalidGraphError,
    ParseError,
    RibbonGraph,
    VertexRef,
    boundary_walks,
    check_unit_split,
    curve_trajectory,
    decompose,
    decompose_subgraph,
    dual,
    itinerary,
    parse_graph,
    serialize,
    subgraph,
    surface_invariants,
    trajectory_counts,
    twist_rotation_check,
    validate_graph,
    web_trajectory,
)
from ribboncalc.trajectory import CW, Itinerary

from conftest import bench_gen, bench_graph, ext_twin, fixture_graph, ring_steps, sample_graphs
from randgraphs import random_graph, trivalent_graph
from test_gluing import _partitions
from test_graph import _ball


class TestItinerary:
    def test_two_spider(self, two_spider):
        it = itinerary(two_spider, "h1", "cw")
        assert it.out_halfedges == ("h1", "h2")
        assert it.edges == ("h1", "h2")
        assert it.turns == ("v",)
        assert it.entries == ("h1",)
        assert it.terminal == "h2"
        assert it.length == 2

    def test_four_gon_all_starts(self, four_gon):
        expected = {
            "m1": ("m1", "s2"),
            "m2": ("m1", "q1"),
            "p1": ("p1", "m1", "s2"),
            "q1": ("q1", "p1"),
            "r2": ("r2", "m1", "q1"),
            "s2": ("s2", "r2"),
        }
        for h, edges in expected.items():
            assert itinerary(four_gon, h, "cw").edges == edges

    def test_internal_start_heads_across_its_edge(self, four_gon):
        # the first turn of m1 happens at the far vertex
        it = itinerary(four_gon, "m1", "cw")
        assert it.turns == ("v2",)
        assert it.entries == ("m2",)

    def test_annulus_inner_loop(self, annulus):
        it = itinerary(annulus, "wi", "cw")
        assert it.edges == ("wi", "bw", "bd", "cd", "ac", "aw", "wi")
        assert it.length == 7
        assert it.terminal == "wi"

    def test_termination_bound(self, annulus, four_gon, once_punctured_4gon):
        for g in (annulus, four_gon, once_punctured_4gon):
            bound = 2 * len(g.edges())
            for h in g.halfedges:
                for orient in ("cw", "ccw"):
                    assert itinerary(g, h, orient).length <= bound

    def test_ccw_is_the_other_way_round(self, two_spider):
        cw = itinerary(two_spider, "h1", "cw")
        ccw = itinerary(two_spider, "h1", "ccw")
        assert cw.edges == ccw.edges == ("h1", "h2")
        assert cw.orient == "cw" and ccw.orient == "ccw"

    def test_default_orientation_is_cw(self, two_spider):
        assert itinerary(two_spider, "h1").orient == "cw"

    def test_bad_orientation(self, two_spider):
        with pytest.raises(ValueError, match="orientation must be"):
            itinerary(two_spider, "h1", "widdershins")

    def test_unknown_halfedge(self, two_spider):
        with pytest.raises(ValueError, match="unknown halfedge"):
            itinerary(two_spider, "nope")

    def test_invalid_graph_rejected(self):
        g = RibbonGraph({"u": ("a", "s"), "w": ("b",)}, {"a": "b", "b": "a"})
        with pytest.raises(Exception, match="valency-1"):
            itinerary(g, "a")


class TestBundles:
    def test_web_keyed_in_cyclic_order(self, four_gon):
        web = web_trajectory(four_gon, "v1", "cw")
        assert tuple(web) == four_gon.cyclic("v1")
        assert web["p1"].edges == ("p1", "m1", "s2")

    def test_web_unknown_vertex(self, four_gon):
        with pytest.raises(ValueError, match="unknown vertex"):
            web_trajectory(four_gon, "nope", "cw")

    def test_curve_pair(self, four_gon):
        pair = curve_trajectory(four_gon, "m1", "cw")
        assert tuple(p.start for p in pair) == ("m1", "m2")

    def test_curve_requires_internal_edge(self, four_gon):
        with pytest.raises(ValueError, match="internal edge"):
            curve_trajectory(four_gon, "q1", "cw")

    def test_curve_unknown_edge(self, four_gon):
        with pytest.raises(ValueError, match="unknown edge"):
            curve_trajectory(four_gon, "m2", "cw")


class TestHitCounting:
    def test_halfedge_source_edge_target(self, two_spider):
        hits = trajectory_counts(two_spider, HalfedgeRef("h1"), EdgeRef("h2"), "cw")
        assert len(hits) == 1
        assert hits[0].index == 2
        assert not hits[0].constant

    def test_designated_constant_on_halfedge_target(self, two_spider):
        hits = trajectory_counts(two_spider, HalfedgeRef("h1"), HalfedgeRef("h1"), "cw")
        assert [(h.index, h.constant) for h in hits] == [(1, True), (1, False)]

    def test_halfedge_target_skips_final_entry(self, two_spider):
        # the itinerary ends at an external edge whose entry is not a turn
        hits = trajectory_counts(two_spider, HalfedgeRef("h1"), HalfedgeRef("h2"), "cw")
        assert hits == ()

    def test_edge_source_launches_both_halfedges(self, four_gon):
        hits = trajectory_counts(four_gon, EdgeRef("m1"), EdgeRef("s2"), "cw")
        assert [(h.source, h.index) for h in hits] == [("m1", 2)]
        hits = trajectory_counts(four_gon, EdgeRef("m1"), EdgeRef("q1"), "cw")
        assert [(h.source, h.index) for h in hits] == [("m2", 2)]

    def test_same_edge_shares_one_constant(self, four_gon):
        hits = trajectory_counts(four_gon, EdgeRef("m1"), EdgeRef("m1"), "cw")
        assert len(hits) == 1
        assert hits[0].constant and hits[0].index == 1

    def test_external_self_hit_is_single(self, four_gon):
        hits = trajectory_counts(four_gon, EdgeRef("q1"), EdgeRef("q1"), "cw")
        assert [(h.index, h.constant) for h in hits] == [(1, True)]

    def test_vertex_source_web_hits(self, four_gon):
        hits = trajectory_counts(four_gon, VertexRef("v1"), EdgeRef("s2"), "cw")
        assert sorted(h.source for h in hits) == ["m1", "p1"]

    def test_curve_hit_bound(self, annulus):
        for e in annulus.internal_edges():
            for f in annulus.edges():
                assert len(trajectory_counts(annulus, EdgeRef(e), EdgeRef(f), "cw")) <= 2

    def test_web_hit_bound(self, annulus):
        for v in annulus.vertices:
            n = annulus.valency(v)
            for f in annulus.edges():
                hits = trajectory_counts(annulus, VertexRef(v), EdgeRef(f), "cw")
                assert len(hits) <= 2 * n - 1

    def test_unknown_source(self, four_gon):
        with pytest.raises(ValueError):
            trajectory_counts(four_gon, EdgeRef("zzz"), EdgeRef("m1"), "cw")
        with pytest.raises(ValueError):
            trajectory_counts(four_gon, VertexRef("zzz"), EdgeRef("m1"), "cw")

    def test_unknown_targets(self, four_gon):
        with pytest.raises(ValueError, match="^unknown edge 'm2'$"):
            trajectory_counts(four_gon, EdgeRef("m1"), EdgeRef("m2"), "cw")
        with pytest.raises(ValueError, match="^unknown halfedge 'zzz'$"):
            trajectory_counts(four_gon, EdgeRef("m1"), HalfedgeRef("zzz"), "cw")

    @pytest.mark.parametrize("target", ["m1", VertexRef("v1")], ids=["str", "vertex"])
    def test_target_must_be_an_edge_or_halfedge_reference(self, four_gon, target):
        with pytest.raises(TypeError, match="^target must be an edge or halfedge reference$"):
            trajectory_counts(four_gon, EdgeRef("m1"), target, "cw")

    def test_source_must_be_a_reference(self, four_gon):
        message = "^source must be a halfedge, edge or vertex reference$"
        with pytest.raises(TypeError, match=message):
            trajectory_counts(four_gon, "m1", EdgeRef("m1"), "cw")

    def test_genus_one_curve_meets_an_edge_three_times(self):
        # on a handle the two rays of one curve can pass the same edge
        # three times in total, even though each single ray stays <= 2
        g = RibbonGraph(
            {
                "a": ("e0a", "e2a", "e1a", "e4a"),
                "b": ("e0b", "e3a"),
                "c": ("e1b", "e4b", "e3b"),
                "d": ("e2b", "s6", "s5"),
            },
            {
                "e0a": "e0b",
                "e0b": "e0a",
                "e1a": "e1b",
                "e1b": "e1a",
                "e2a": "e2b",
                "e2b": "e2a",
                "e3a": "e3b",
                "e3b": "e3a",
                "e4a": "e4b",
                "e4b": "e4a",
            },
        )
        assert surface_invariants(g).genus == 1

        it = itinerary(g, "e1a", "cw")
        assert it.out_halfedges == (
            "e1a",
            "e4b",
            "e0a",
            "e3a",
            "e1b",
            "e4a",
            "e3b",
            "e0b",
            "e2a",
            "s6",
        )
        assert it.edges == (
            "e1a",
            "e4a",
            "e0a",
            "e3a",
            "e1a",
            "e4a",
            "e3a",
            "e0a",
            "e2a",
            "s6",
        )

        hits = trajectory_counts(g, EdgeRef("e1a"), EdgeRef("e0a"), "cw")
        assert [(h.source, h.index) for h in hits] == [
            ("e1a", 3),
            ("e1a", 8),
            ("e1b", 4),
        ]
        for h in ("e1a", "e1b"):
            per_ray = trajectory_counts(g, HalfedgeRef(h), EdgeRef("e0a"), "cw")
            assert len(per_ray) <= 2

    def test_genus_zero_curve_meets_an_edge_four_times(self):
        # `randgraphs.random_graph(Random(1618398467))`, written out: on a
        # sphere with three boundary circles a curve can pass the same edge
        # four times, so the sharpening to 2 at genus 0 asserted by
        # `test_hit_counts_sharpen_with_the_topology` does not hold
        g = RibbonGraph(
            {
                "v0": ("e0a", "e1a", "s6"),
                "v1": ("e0b", "e4a", "s8", "e3a"),
                "v2": ("e1b", "e5a", "s7", "e2a"),
                "v3": ("e2b", "e5b"),
                "v4": ("e3b", "e4b"),
            },
            {
                "e0a": "e0b",
                "e0b": "e0a",
                "e1a": "e1b",
                "e1b": "e1a",
                "e2a": "e2b",
                "e2b": "e2a",
                "e3a": "e3b",
                "e3b": "e3a",
                "e4a": "e4b",
                "e4b": "e4a",
                "e5a": "e5b",
                "e5b": "e5a",
            },
            {"v2": "singular"},
            {"v2": "puncture"},
        )
        inv = surface_invariants(g)
        assert (inv.genus, inv.boundary) == (0, (1, 1, 1))

        hits = trajectory_counts(g, EdgeRef("e0a"), EdgeRef("e1a"), "cw")
        assert [(h.source, h.index) for h in hits] == [
            ("e0a", 5),
            ("e0a", 8),
            ("e0b", 2),
            ("e0b", 5),
        ]
        # each ray still stays within its bound of 2
        for h in ("e0a", "e0b"):
            per_ray = trajectory_counts(g, HalfedgeRef(h), EdgeRef("e1a"), "cw")
            assert len(per_ray) == 2

    def test_a_second_genus_zero_curve_meets_an_edge_four_times(self):
        # `randgraphs.random_graph(Random(26857))`, written out: a draw of
        # `test_hit_counts_sharpen_with_the_topology` that breaks its bound
        # of 2 per curve at genus 0, here on a sphere with boundary (2, 1, 1)
        g = RibbonGraph(
            {
                "v0": ("e0a", "e4a", "e1a"),
                "v1": ("e0b", "e3a", "e5a"),
                "v2": ("e1b", "e6a", "e2a"),
                "v3": ("e2b", "s8", "e6b"),
                "v4": ("e3b", "e5b", "s10"),
                "v5": ("e4b", "s9", "s7"),
            },
            {
                "e0a": "e0b",
                "e0b": "e0a",
                "e1a": "e1b",
                "e1b": "e1a",
                "e2a": "e2b",
                "e2b": "e2a",
                "e3a": "e3b",
                "e3b": "e3a",
                "e4a": "e4b",
                "e4b": "e4a",
                "e5a": "e5b",
                "e5b": "e5a",
                "e6a": "e6b",
                "e6b": "e6a",
            },
            {"v1": "singular", "v4": "singular"},
            {"v1": "puncture", "v4": "puncture"},
        )
        inv = surface_invariants(g)
        assert (inv.genus, inv.boundary) == (0, (2, 1, 1))
        assert (len(g.vertices), len(g.halfedges)) == (6, 18)

        hits = trajectory_counts(g, EdgeRef("e1a"), EdgeRef("e0a"), "cw")
        assert [(h.source, h.index) for h in hits] == [
            ("e1a", 5),
            ("e1a", 8),
            ("e1b", 2),
            ("e1b", 5),
        ]
        for h in ("e1a", "e1b"):
            per_ray = trajectory_counts(g, HalfedgeRef(h), EdgeRef("e0a"), "cw")
            assert len(per_ray) == 2


BAD_ORIENTATIONS = ("up", None, ["cw"])
BAD_SIDES = ("up", None, ["L"])


def _each_rejects(g: RibbonGraph, calls, expected: str) -> None:
    """Every call raises a plain ``ValueError`` with the whole message
    ``expected`` and leaves the walk memo of ``g`` as it was."""
    before = {o: dict(walks) for o, walks in g._walks.items()}
    for call in calls:
        with pytest.raises(ValueError, match="^{}$".format(re.escape(expected))) as raised:
            call()
        assert type(raised.value) is ValueError
    assert g._walks == before


class TestWalkMemo:
    def test_warm_memo_matches_a_fresh_copy(self):
        for g in sample_graphs():
            warm = {(h, o): itinerary(g, h, o) for h in g.halfedges for o in ("cw", "ccw")}
            fresh = parse_graph(serialize(g))
            for (h, o), itin in warm.items():
                assert itinerary(g, h, o) is itin
                assert itinerary(fresh, h, o) == itin

    @pytest.mark.parametrize("orient", BAD_ORIENTATIONS, ids=repr)
    def test_a_bad_orientation_fails_the_same_way_everywhere(self, four_gon, orient):
        # every public entry checks the orientation before the memo, which
        # has one table per orientation, is read or written
        itinerary(four_gon, "m1", "cw")
        calls = (
            lambda: itinerary(four_gon, "m1", orient),
            lambda: web_trajectory(four_gon, "v1", orient),
            lambda: curve_trajectory(four_gon, "m1", orient),
            lambda: trajectory_counts(four_gon, EdgeRef("m1"), EdgeRef("q1"), orient),
        )
        expected = "orientation must be 'cw' or 'ccw', got {!r}".format(orient)
        _each_rejects(four_gon, calls, expected)

    @pytest.mark.parametrize("side", BAD_SIDES, ids=repr)
    def test_a_bad_side_fails_the_same_way_everywhere(self, four_gon, side):
        v1, m1 = VertexRef("v1"), EdgeRef("m1")
        calls = (
            lambda: decompose(four_gon, v1, m1, side),
            lambda: decompose_subgraph(four_gon, subgraph(four_gon, ["v1"]), v1, side),
            lambda: check_unit_split(four_gon, m1, side),
        )
        _each_rejects(four_gon, calls, "side must be 'L' or 'R', got {!r}".format(side))

    def test_dropped_graph_is_freed(self):
        # ids no other test uses, so no equal graph was walked before
        g = RibbonGraph(
            {"drop-u": ("drop-a", "drop-s"), "drop-w": ("drop-b", "drop-t")},
            {"drop-a": "drop-b", "drop-b": "drop-a"},
        )
        itinerary(g, "drop-s", "cw")
        assert twist_rotation_check(g, EdgeRef("drop-a"))
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None

    def test_walk_path_never_hashes_a_graph(self, monkeypatch):
        calls = []
        original = RibbonGraph.__hash__

        def counting_hash(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(RibbonGraph, "__hash__", counting_hash)
        g = fixture_graph("once_punctured_4gon")
        for h in g.halfedges:
            for orient in ("cw", "ccw"):
                itinerary(g, h, orient)
        e, v = EdgeRef(g.internal_edges()[0]), VertexRef(g.vertices[0])
        for target, source in ((e, e), (v, e), (e, v), (v, v)):
            decompose(g, target, source, "L")
        decompose_subgraph(g, subgraph(g, [v.id]), v, "R")
        twist_rotation_check(g, e)
        twist_rotation_check(g, v)
        assert calls == []
        hash(g)  # the counter does see a hash
        assert calls == [g]


def _ring_orders(rings: tuple, orient: str) -> tuple[dict, dict]:
    """The next and the previous halfedge in a ring for a walk in
    ``orient``, from ``rings``, the successor and predecessor tables of
    `ring_steps`: a clockwise walk turns counterclockwise around each
    vertex, and a counterclockwise one clockwise."""
    succ, pred = rings
    return (succ, pred) if orient == CW else (pred, succ)


def _oracle_itinerary(g: RibbonGraph, h: str, orient: str, rings: tuple) -> Itinerary:
    """The walk engine that stepping the graph's tables replaced, kept
    as its oracle: the extended twin, then one step in a ring of
    ``rings`` (see `_ring_orders`), with a termination guard.  It neither
    reads nor fills the graph's walk memo."""
    ahead, _ = _ring_orders(rings, orient)
    out = [h]
    limit = 2 * len(g.halfedges) + 2
    while True:
        nxt = ahead[ext_twin(g, out[-1])]
        out.append(nxt)
        if g.is_external(nxt):
            break
        if len(out) > limit:  # unreachable on a valid graph
            raise RuntimeError("trajectory from {} did not terminate".format(h))
    edges = tuple(g.edge_of(x) for x in out)
    turns = tuple(g.at_vertex(x) for x in out[1:])
    entries = tuple(ext_twin(g, x) for x in out[:-1])
    return Itinerary(h, orient, tuple(out), edges, turns, entries, edges[-1])


def _fixture_graphs() -> list[RibbonGraph]:
    """Every fixture file the package ships that parses as a graph."""
    graphs = []
    for path in sorted((Path(ribboncalc.__file__).parent / "fixtures").glob("*.json")):
        try:
            graphs.append(parse_graph(path.read_text(encoding="utf-8")))
        except ParseError:
            pass
    return graphs


def _run_itineraries(g: RibbonGraph) -> dict[tuple[str, str], Itinerary]:
    """Every ray of ``g``, read off its runs and stepped by neither walk
    engine.  With ``τ`` the twin extended to fix external halfedges and
    ``σ(x)`` the counterclockwise successor of ``τx``, the run
    of an external halfedge ``e`` is ``e, σe, σ²e, …`` up to the next
    external halfedge, and every halfedge is a non-final member of
    exactly one run.  The clockwise ray from position ``i`` of its run
    ``R`` has out halfedges ``R[i:]`` and entries ``τ`` of ``R[i:-1]``.
    The counterclockwise step is ``ρ = τσ⁻¹τ``, so the ray from ``h`` reads
    backwards the run through ``τh``, at position ``j`` (the run ending
    at ``τh`` when it is external): out halfedges ``τR[j], τR[j-1], …,
    R[0]`` and entries ``R[j:0:-1]``.  A ray turns at its entries'
    vertices, and its edges are its out halfedges' edges."""
    succ, _ = ring_steps(g)

    def tau(x):
        return ext_twin(g, x)

    place, ending = {}, {}
    for e in g.halfedges:
        if g.is_external(e):
            run = [e, succ[tau(e)]]
            while not g.is_external(run[-1]):
                run.append(succ[tau(run[-1])])
            for i, x in enumerate(run[:-1]):
                assert x not in place, x
                place[x] = run, i
            ending[run[-1]] = run
    assert place.keys() == set(g.halfedges)

    def ray(h, orient, out, entries):
        return Itinerary(
            h, orient, tuple(out), tuple(map(g.edge_of, out)),
            tuple(map(g.at_vertex, entries)), tuple(entries), out[-1],
        )

    rays = {}
    for h in g.halfedges:
        run, i = place[h]
        rays[h, "cw"] = ray(h, "cw", run[i:], [tau(x) for x in run[i:-1]])
        t = tau(h)
        run, j = (ending[t], len(ending[t]) - 1) if g.is_external(t) else place[t]
        rays[h, "ccw"] = ray(h, "ccw", [tau(x) for x in run[j::-1]], run[j:0:-1])
    return rays


@pytest.fixture(scope="module")
def engine_cases() -> list[tuple[str, dict]]:
    """The text of every fixture graph, every sample graph and its dual,
    each with the oracle's ray for every (halfedge, orientation)."""
    samples = sample_graphs()
    cases = []
    for g in _fixture_graphs() + samples + [dual(g) for g in samples]:
        rings = ring_steps(g)
        oracle = {
            (h, o): _oracle_itinerary(g, h, o, rings) for h in g.halfedges for o in ("cw", "ccw")
        }
        cases.append((serialize(g), oracle))
    return cases


# (halfedge order, whether both orientations of a halfedge come in turn)
REQUEST_ORDERS = [
    (order, interleaved)
    for order in ("sorted", "reversed", "shuffled-1", "shuffled-2", "shuffled-3")
    for interleaved in (False, True)
]


def _requests(g: RibbonGraph, order: str, interleaved: bool) -> list[tuple[str, str]]:
    """Every (halfedge, orientation) of ``g``, halfedges in the named order,
    either both orientations of one halfedge in turn or one orientation
    after the other.  Sorted and shuffled requests splice many walks onto
    earlier rays; reverse-sorted ones mostly slice their ray out of one."""
    hs = sorted(g.halfedges, reverse=order == "reversed")
    if order.startswith("shuffled"):
        random.Random(order).shuffle(hs)
    if interleaved:
        return [(h, o) for h in hs for o in ("cw", "ccw")]
    return [(h, o) for o in ("cw", "ccw") for h in hs]


class _CountingTwin(dict):
    """A twin table that counts, per orientation and halfedge, the lookups
    of the walk's step loop, which makes exactly one per step."""

    def __init__(self, table):
        super().__init__(table)
        self.orient = None
        self.steps = Counter()

    def get(self, key, default=None):
        self.steps[self.orient, key] += 1
        return dict.get(self, key, default)


def _memo_faults(g: RibbonGraph, checked: dict, rings: tuple) -> list[tuple[str, str, str]]:
    """The entries ``y -> itin`` of the walk memo of ``g`` that break what
    the engine's splice relies on: ``itin`` is one run along its orbit,
    ``y`` is one of its non-terminal out halfedges, each of which is
    memoised too, and ``itin`` starts at ``y`` unless the halfedge that
    steps to ``y`` is memoised.  An entry found in ``checked`` as it is
    was checked before and still holds, as rays never change and the
    memo only gains keys; every other entry is checked and noted there.
    ``rings`` are the tables of `ring_steps`."""
    faults = []
    for orient, walks in g._walks.items():
        ahead, back = _ring_orders(rings, orient)
        rays = set()
        for y, itin in walks.items():
            if checked.get((orient, y)) is itin:
                continue
            checked[orient, y] = itin
            out = itin.out_halfedges
            if id(itin) not in rays:
                rays.add(id(itin))
                if out[0] != itin.start or any(
                    ahead[ext_twin(g, a)] != b for a, b in zip(out, out[1:])
                ):
                    faults.append((orient, y, "not a ray"))
                if any(z not in walks for z in out[:-1]):
                    faults.append((orient, y, "an out halfedge of its ray is not memoised"))
            if y not in out[:-1]:
                faults.append((orient, y, "not a non-terminal out halfedge of its ray"))
            elif itin.start != y and ext_twin(g, back[y]) not in walks:
                faults.append((orient, y, "its ray starts elsewhere"))
    return faults


class TestOneWalkEngine:
    def test_matches_the_stepwise_oracle(self, engine_cases):
        # a fresh graph per order, so that each order fills an empty memo
        for order, interleaved in REQUEST_ORDERS:
            for text, oracle in engine_cases:
                g = parse_graph(text)
                first = {}
                for h, orient in _requests(g, order, interleaved):
                    it = first[h, orient] = itinerary(g, h, orient)
                    expected = oracle[h, orient]
                    assert it.start == h
                    assert it == expected
                    assert repr(it) == repr(expected)
                    assert hash(it) == hash(expected)
                    assert serialize(it) == serialize(expected)
                for (h, orient), it in first.items():
                    assert itinerary(g, h, orient) is it

    def test_matches_the_rays_read_off_the_runs(self):
        # fresh graphs, each asked for every ray in a shuffled order
        rng = random.Random("runs")
        graphs = _fixture_graphs()
        graphs += [bench_graph(f, 300, "1/runs") for f in bench_gen().FAMILIES]
        graphs += [random_graph(rng) for _ in range(200)]
        for g in graphs:
            rays = _run_itineraries(g)
            requests = list(rays)
            rng.shuffle(requests)
            for h, orient in requests:
                assert itinerary(g, h, orient) == rays[h, orient], (h, orient)

    def test_each_halfedge_is_stepped_at_most_once_per_orientation(self, engine_cases):
        for order, interleaved in REQUEST_ORDERS:
            for text, _ in engine_cases:
                g = parse_graph(text)
                validate_graph(g)
                g._twin = counting = _CountingTwin(g._twin)
                for h, orient in _requests(g, order, interleaved):
                    counting.orient = orient
                    itinerary(g, h, orient)
                for orient in ("cw", "ccw"):
                    steps = [n for (o, _), n in counting.steps.items() if o == orient]
                    assert max(steps) == 1, (order, interleaved, orient)
                    assert sum(steps) <= len(g.halfedges)

    def test_the_memo_holds_what_the_splice_relies_on(self, engine_cases):
        # a walk reaches its first memoised halfedge from one it stepped,
        # which is not memoised, so the ray memoised there starts there
        rng = random.Random("memo")
        texts = [text for text, _ in engine_cases]
        texts += [serialize(random_graph(rng)) for _ in range(60)]
        for order, interleaved in REQUEST_ORDERS:
            for text in texts:
                g, checked = parse_graph(text), {}
                rings = ring_steps(g)
                for h, orient in _requests(g, order, interleaved):
                    itinerary(g, h, orient)
                    assert _memo_faults(g, checked, rings) == [], (order, interleaved, h, orient)

    def test_an_engine_built_itinerary_is_a_plain_value(self, annulus):
        for order in ("sorted", "reversed"):
            # each order builds records by walking, splicing and slicing
            g = parse_graph(serialize(annulus))
            for h, orient in _requests(g, order, False):
                it = itinerary(g, h, orient)
                assert not hasattr(it, "__dict__")
                for twin in (pickle.loads(pickle.dumps(it)), copy.deepcopy(it)):
                    assert type(twin) is Itinerary
                    assert twin == it and hash(twin) == hash(it)
                    assert repr(twin) == repr(it)

    def test_an_engine_built_itinerary_is_frozen(self, four_gon):
        it = itinerary(four_gon, "m1", "cw")
        with pytest.raises(AttributeError):
            it.terminal = "q1"
        fields = it.start, it.orient, it.out_halfedges, it.edges, it.turns, it.entries
        moved = Itinerary(*fields, "q1")
        assert type(moved) is Itinerary
        assert moved.terminal == "q1" and it.terminal != "q1"
        assert Itinerary(*fields, terminal=it.terminal) == it

    def test_terminal_is_the_next_marked_point_on_the_boundary_walk(self):
        for g in sample_graphs():
            for walk in boundary_walks(g):
                ext = walk.externals
                for i, f in enumerate(ext):
                    assert itinerary(g, f, "cw").terminal == ext[(i + 1) % len(ext)]

    def test_a_ray_is_one_run_along_its_orbit(self):
        # no halfedge twice, except an external start that is its own
        # terminal, so at most one edge more than the orbit has halfedges
        for g in sample_graphs():
            orbit_size = {h: len(w.halfedges) for w in boundary_walks(g) for h in w.halfedges}
            for h in g.halfedges:
                it = itinerary(g, h, "cw")
                assert it.length <= orbit_size[h] + 1
                repeated = len(it.out_halfedges) - len(set(it.out_halfedges))
                assert repeated == (1 if it.terminal == h else 0)


def _check_restriction(g: RibbonGraph, piece, orient: str) -> int:
    """Restriction commutes with walks.  Every time an itinerary of ``g``
    enters the piece along a cut halfedge ``c``, its stretch up to the
    first out halfedge that is a cut of the piece or external in ``g`` is
    the piece's itinerary from ``c``: the same out halfedges after ``c``
    and the same entries.  So is every walk of the piece's webs and
    curves, read off the ambient walk from its start, or from the start's
    twin for a cut.  Halfedges are compared, since a cut's edge has
    another name in the piece.  And restriction commutes with hits: from
    every start of the piece, `trajectory_counts` on an edge of the piece
    whose halfedges are twinned there lists the indices, and constancy,
    at which that ambient walk's edges are the target, up to the
    stretch's length.  Cut targets are left out: the piece names their
    edge by the cut.  Returns the number of entries along cuts."""
    cuts, p = set(piece.cut_halfedges), piece.graph
    ambient = {h: itinerary(g, h, orient) for h in g.halfedges}

    def stretch(itin: Itinerary, j: int) -> tuple:
        out = itin.out_halfedges
        stop = next(i for i in range(j + 1, len(out)) if out[i] in cuts or g.is_external(out[i]))
        return out[j + 1:stop + 1], itin.entries[j:stop]

    def local(itin: Itinerary) -> tuple:
        return itin.out_halfedges[1:], itin.entries

    entered = 0
    for itin in ambient.values():
        for j, c in enumerate(itin.entries):
            if c in cuts:
                assert local(itinerary(p, c, orient)) == stretch(itin, j), (itin.start, c)
                entered += 1
    for v in p.vertices:
        for h, itin in web_trajectory(p, v, orient).items():
            assert local(itin) == stretch(ambient[g.twin_of(h) if h in cuts else h], 0), h
    for e in p.internal_edges():
        for itin in curve_trajectory(p, e, orient):
            assert local(itin) == stretch(ambient[itin.start], 0), itin.start
    targets = p.internal_edges()
    for s in p.halfedges:
        itin = ambient[g.twin_of(s) if s in cuts else s]
        edges = itin.edges[:len(stretch(itin, 0)[0]) + 1]
        for e in targets:
            hits = trajectory_counts(p, HalfedgeRef(s), EdgeRef(e), orient)
            expected = [(i, i == 1) for i, f in enumerate(edges, start=1) if f == e]
            assert [(h.index, h.constant) for h in hits] == expected, (s, e)
    return entered


class TestRestriction:
    def test_walks_of_sample_pieces(self):
        rng = random.Random(10)
        pieces = entered = 0
        for g in sample_graphs():
            for _ in range(6):
                try:
                    piece = subgraph(g, rng.sample(g.vertices, rng.randint(1, len(g.vertices))))
                except InvalidGraphError:
                    continue
                pieces += 1
                entered += sum(_check_restriction(g, piece, o) for o in ("cw", "ccw"))
        assert pieces > 600 and entered > 5000

    @pytest.mark.parametrize("family", sorted(bench_gen().FAMILIES))
    def test_walks_of_balls_in_benchmark_graphs(self, family):
        g = bench_graph(family, 1000, "1/restrict")
        rng = random.Random(family)
        for centre in rng.sample(g.vertices, 3):
            piece = subgraph(g, _ball(g, 40, centre))
            assert sum(_check_restriction(g, piece, o) for o in ("cw", "ccw")) > 0

    def test_walks_of_gluing_partitions(self):
        rng = random.Random(12)
        checked = 0
        for _ in range(6):
            g = trivalent_graph(rng, rng.randint(6, 14))
            for pieces in itertools.islice(_partitions(g, rng, rng.randint(2, 4)), 3):
                for vertices in pieces:
                    try:
                        piece = subgraph(g, vertices)
                    except InvalidGraphError:
                        continue
                    checked += 1
                    for orient in ("cw", "ccw"):
                        _check_restriction(g, piece, orient)
        assert checked > 40
