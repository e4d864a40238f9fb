"""Clockwise and counterclockwise trajectories.

A trajectory enters the graph along an edge, repeatedly turns onto the
neighbouring edge at the vertex it is heading into, and stops as soon
as it runs out along an external edge.  The whole engine is one rule,
read from the graph's own tables: follow the extended twin, then step
around the vertex.  Stepping counterclockwise is the corner permutation
of `ribboncalc.graph`, whose iterates are the out halfedges of clockwise
trajectories; stepping clockwise is the dual's corner permutation, which
counterclockwise trajectories iterate.  So reversing every cyclic order
swaps the two orientations.  The dual's orbits are the extended-twin
images of the graph's boundary walks, so on a valid graph every orbit
of either permutation meets an external halfedge and every walk ends.

A ray, the walk from one start halfedge, is one run along one orbit to
the next external halfedge.  It passes each halfedge at most once,
except an external start that is also its own terminal; an edge has at
most two halfedges, so a ray meets any edge at most twice.

The ray from an internal out halfedge ``out[k]`` of a ray is that ray's
suffix from ``k``: the same out halfedges, edges, turns and entries from
``k`` on, and the same terminal.  So each halfedge is stepped at most once
per orientation.  The step loop notes each edge, turn and entry as it
goes, and stops at the terminal or at the first halfedge that an earlier
ray already stepped.  The new ray is memoised under every halfedge it
stepped, in one table per orientation on its graph.  A lookup that finds
a ray with another start slices out the suffix that is its own ray and
memoises that in its place; suffixes are built only when asked for.

So every out halfedge of a memoised ray but its terminal is memoised,
and a ray memoised under a halfedge it does not start at reaches that
halfedge from another memoised one.  The step loop reaches its first
memoised halfedge from one it stepped, which is not memoised, so that
halfedge starts the ray memoised there, and the loop appends that ray
whole.  The memo is freed with the graph; there is no global cache.
This is sound because a `RibbonGraph` never changes after construction,
and every public entry checks the orientation before the memo is read.
"""

from __future__ import annotations

from .graph import RibbonGraph, _Record, _predecessors, require_valid

CW = "cw"
CCW = "ccw"
ORIENTATIONS = (CW, CCW)


class HalfedgeRef(_Record):
    __slots__ = ("_id",)


class EdgeRef(_Record):
    __slots__ = ("_id",)


class VertexRef(_Record):
    __slots__ = ("_id",)


TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Union

    SourceRef = Union[HalfedgeRef, EdgeRef, VertexRef]
    TargetRef = Union[HalfedgeRef, EdgeRef]


class Itinerary(_Record):
    """One directed trajectory.

    ``edges`` is the visited edge sequence e_1 .. e_m with e_1 the edge
    of the start halfedge and e_m the terminal external edge.  The walk
    turns at ``turns[i-1]`` when moving from e_i to e_(i+1), entering
    that vertex along ``entries[i-1]`` and leaving along
    ``out_halfedges[i]``.  Every field but ``orient`` holds halfedge,
    edge or vertex ids, the sequences as tuples.
    """

    __slots__ = (
        "_start", "_orient", "_out_halfedges", "_edges", "_turns", "_entries", "_terminal"
    )

    @property
    def length(self) -> int:
        return len(self.edges)


def _require_walk(g: RibbonGraph, orient: str) -> None:
    """The first checks of every public walk entry: a valid graph, then a
    known orientation.  A memoised walk costs less than a call, so the
    kept report is read here and `require_valid` runs only on a graph not
    yet validated or invalid."""
    report = g._report
    if report is None or report._violations:
        require_valid(g)
    if orient not in ORIENTATIONS:
        raise ValueError("orientation must be 'cw' or 'ccw', got {!r}".format(orient))


def _itinerary(g: RibbonGraph, h: str, orient: str) -> Itinerary:
    walks = g._walks[orient]
    itin = walks.get(h)
    if itin is not None:
        if itin._start != h:
            # ``h`` is an internal out halfedge of the memoised ray: its suffix
            k = itin._out_halfedges.index(h)
            itin = walks[h] = Itinerary(
                h, orient, itin._out_halfedges[k:], itin._edges[k:], itin._turns[k:],
                itin._entries[k:], itin._terminal,
            )
        return itin
    twin, at = g._twin, g._at
    turn = g._next if orient == CW else g._prev or _predecessors(g)
    out, edges, turns, entries = [h], [], [], []
    x = h
    # ends on a valid graph: every orbit meets an external halfedge
    while True:
        t = twin.get(x, x)
        # an edge is named by the smaller of its halfedges; the walk turns
        # at the vertex of ``t``, which is also the vertex of the next ``x``
        edges.append(x if x < t else t)
        turns.append(at[t])
        entries.append(t)
        x = turn[t]
        if x not in twin:  # the terminal external edge
            itin = Itinerary(
                h, orient, (*out, x), (*edges, x), tuple(turns), tuple(entries), x
            )
            break
        rest = walks.get(x)
        if rest is not None:
            # an earlier ray stepped ``x``; the halfedge before it is not
            # memoised, so ``rest`` is the ray from ``x``: splice it on whole,
            # extending the step lists in place; ``out`` stays the halfedges
            # stepped here, which the memo takes
            edges += rest._edges
            turns += rest._turns
            entries += rest._entries
            itin = Itinerary(
                h, orient, (*out, *rest._out_halfedges), tuple(edges), tuple(turns),
                tuple(entries), rest._terminal,
            )
            break
        out.append(x)
    for y in out:
        walks[y] = itin
    return itin


def itinerary(g: RibbonGraph, h: str, orient: str = CW) -> Itinerary:
    """Walk from halfedge ``h`` until the first outward external edge.

    An internal start heads toward the vertex of its twin; an external
    start heads inward, toward its own vertex.  The result always has
    at least two edges and at most one more than the corner orbit it
    runs along has halfedges.
    """
    _require_walk(g, orient)
    if h not in g._at:
        raise ValueError("unknown halfedge {!r}".format(h))
    return _itinerary(g, h, orient)


def web_trajectory(g: RibbonGraph, v: str, orient: str = CW) -> dict[str, Itinerary]:
    """One trajectory per halfedge at ``v``, keyed in cyclic order."""
    _require_walk(g, orient)
    if v not in g._cyclic:
        raise ValueError("unknown vertex {!r}".format(v))
    return {h: _itinerary(g, h, orient) for h in g._cyclic[v]}


def curve_trajectory(g: RibbonGraph, e: str, orient: str = CW) -> tuple[Itinerary, Itinerary]:
    """The two trajectories leaving an internal edge, in halfedge order."""
    _require_walk(g, orient)
    pair = g.halfedges_of(e)
    if len(pair) != 2:
        raise ValueError("curve trajectory needs internal edge, got {!r}".format(e))
    return _itinerary(g, pair[0], orient), _itinerary(g, pair[1], orient)


class TrajectoryHit(_Record):
    """One visit of a trajectory prefix to the target.

    ``source`` is the start halfedge and ``target_kind``, ``"edge"`` or
    ``"halfedge"``, says what ``target`` names.  ``index`` is the 1-based
    prefix length; index 1 with ``constant`` set is the degenerate visit
    that never leaves the source.  The full itinerary rides along, left
    out of the repr, so that transport words can be built without walking
    the graph again.
    """

    __slots__ = ("_source", "_index", "_target_kind", "_target", "_constant", "_itinerary")
    _unprinted = ("itinerary",)


def _hit_key(hit: TrajectoryHit):
    return (hit.source, hit.index, not hit.constant)


def _hits_on_edge(itin: Itinerary, f: str) -> list[TrajectoryHit]:
    return [
        TrajectoryHit(itin._start, i, "edge", f, i == 1, itin)
        for i, e in enumerate(itin._edges, start=1)
        if e == f
    ]


def _hits_on_halfedges(itin: Itinerary, ring: tuple[str, ...]) -> list[TrajectoryHit]:
    hits = []
    if itin._start in ring:
        # the constant visit: stand on the source and apply nothing
        hits.append(TrajectoryHit(itin._start, 1, "halfedge", itin._start, True, itin))
    for i, t in enumerate(itin._entries, start=1):
        if t in ring:
            hits.append(TrajectoryHit(itin._start, i, "halfedge", t, False, itin))
    return hits


def _source_halfedges(g: RibbonGraph, source: SourceRef) -> tuple[str, ...]:
    if isinstance(source, HalfedgeRef):
        if not g.has_halfedge(source.id):
            raise ValueError("unknown halfedge {!r}".format(source.id))
        return (source.id,)
    if isinstance(source, EdgeRef):
        return g.halfedges_of(source.id)
    if isinstance(source, VertexRef):
        if not g.has_vertex(source.id):
            raise ValueError("unknown vertex {!r}".format(source.id))
        return g.cyclic(source.id)
    raise TypeError("source must be a halfedge, edge or vertex reference")


def _hits(g: RibbonGraph, starts, target, orient: str, curve: bool) -> list[TrajectoryHit]:
    """The hits of the walks from the halfedges ``starts`` on the checked
    ``target``, each start's walk read once; a vertex target's hits name
    the halfedge met.  A ``curve``, an internal edge that is its own
    target, makes one constant visit, so only its first start keeps one."""
    if isinstance(target, EdgeRef):
        hits = [h for s in starts for h in _hits_on_edge(_itinerary(g, s, orient), target.id)]
    else:
        ring = g.cyclic(target.id) if isinstance(target, VertexRef) else (target.id,)
        hits = [h for s in starts for h in _hits_on_halfedges(_itinerary(g, s, orient), ring)]
    if curve:
        hits = [h for h in hits if not h.constant or h.source == starts[0]]
    return hits


def trajectory_counts(
    g: RibbonGraph, source: SourceRef, target: TargetRef, orient: str = CW
) -> tuple[TrajectoryHit, ...]:
    """All prefix indices at which trajectories from ``source`` meet ``target``.

    Edge targets are hit whenever the visited edge matches, the terminal
    index included.  Halfedge targets are hit when the walk enters the
    target's vertex along it, terminal index excluded, plus the constant
    visit when the target is the source halfedge itself.  An internal
    source edge that is its own target keeps one of its two constant
    visits, which are the same curve.  Each start's walk is read once,
    by `_hits`, the one hit reader.
    """
    _require_walk(g, orient)
    starts = _source_halfedges(g, source)  # a bad source is reported before a bad target
    if not isinstance(target, (EdgeRef, HalfedgeRef)):
        raise TypeError("target must be an edge or halfedge reference")
    _source_halfedges(g, target)
    hits = _hits(g, starts, target, orient, source == target)
    hits.sort(key=_hit_key)
    return tuple(hits)
