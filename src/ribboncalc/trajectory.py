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

Each walk is memoised on its graph, keyed by start halfedge and
orientation, and is freed with the graph; there is no global cache.
This is sound because a `RibbonGraph` never changes after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .graph import RibbonGraph, _predecessors, require_valid

CW = "cw"
CCW = "ccw"
ORIENTATIONS = (CW, CCW)


@dataclass(frozen=True)
class HalfedgeRef:
    id: str


@dataclass(frozen=True)
class EdgeRef:
    id: str


@dataclass(frozen=True)
class VertexRef:
    id: str


SourceRef = Union[HalfedgeRef, EdgeRef, VertexRef]
TargetRef = Union[HalfedgeRef, EdgeRef]


@dataclass(frozen=True)
class Itinerary:
    """One directed trajectory.

    ``edges`` is the visited edge sequence e_1 .. e_m with e_1 the edge
    of the start halfedge and e_m the terminal external edge.  The walk
    turns at ``turns[i-1]`` when moving from e_i to e_(i+1), entering
    that vertex along ``entries[i-1]`` and leaving along
    ``out_halfedges[i]``.
    """

    start: str
    orient: str
    out_halfedges: tuple[str, ...]
    edges: tuple[str, ...]
    turns: tuple[str, ...]
    entries: tuple[str, ...]
    terminal: str

    @property
    def length(self) -> int:
        return len(self.edges)


def _require_orient(orient: str) -> None:
    if orient not in ORIENTATIONS:
        raise ValueError("orientation must be 'cw' or 'ccw', got {!r}".format(orient))


def _itinerary(g: RibbonGraph, h: str, orient: str) -> Itinerary:
    itin = g._walks.get((h, orient))
    if itin is not None:
        return itin
    twin, at = g._twin, g._at
    turn = g._next if orient == CW else _predecessors(g)
    out, entries = [h], []
    x = h
    # ends on a valid graph: every orbit meets an external halfedge
    while True:
        t = twin.get(x, x)
        x = turn[t]
        entries.append(t)
        out.append(x)
        if x not in twin:
            break
    # an edge is named by the smaller of its halfedges; ``x`` is the terminal
    edges = tuple(map(min, out, entries)) + (x,)
    turns = tuple(at[y] for y in out[1:])
    itin = Itinerary(h, orient, tuple(out), edges, turns, tuple(entries), x)
    g._walks[(h, orient)] = itin
    return itin


def itinerary(g: RibbonGraph, h: str, orient: str = CW) -> Itinerary:
    """Walk from halfedge ``h`` until the first outward external edge.

    An internal start heads toward the vertex of its twin; an external
    start heads inward, toward its own vertex.  The result always has
    at least two edges and at most one more than the corner orbit it
    runs along has halfedges.
    """
    require_valid(g)
    _require_orient(orient)
    # checked inline: a memoised walk costs less than the HalfedgeRef
    # that `_source_halfedges` would need
    if not g.has_halfedge(h):
        raise ValueError("unknown halfedge {!r}".format(h))
    return _itinerary(g, h, orient)


def terminal_external(g: RibbonGraph, h: str, orient: str = CW) -> str:
    return itinerary(g, h, orient).terminal


def web_trajectory(g: RibbonGraph, v: str, orient: str = CW) -> dict[str, Itinerary]:
    """One trajectory per halfedge at ``v``, keyed in cyclic order."""
    require_valid(g)
    _require_orient(orient)
    return {h: _itinerary(g, h, orient) for h in _source_halfedges(g, VertexRef(v))}


def curve_trajectory(g: RibbonGraph, e: str, orient: str = CW) -> tuple[Itinerary, Itinerary]:
    """The two trajectories leaving an internal edge, in halfedge order."""
    require_valid(g)
    _require_orient(orient)
    pair = g.halfedges_of(e)
    if len(pair) != 2:
        raise ValueError("curve trajectory needs internal edge, got {!r}".format(e))
    return _itinerary(g, pair[0], orient), _itinerary(g, pair[1], orient)


@dataclass(frozen=True)
class TrajectoryHit:
    """One visit of a trajectory prefix to the target.

    ``index`` is the 1-based prefix length; index 1 with ``constant``
    set is the degenerate visit that never leaves the source.  The full
    itinerary rides along so that transport words can be built without
    walking the graph again.
    """

    source: str
    index: int
    target_kind: str  # "edge" or "halfedge"
    target: str
    constant: bool
    itinerary: Itinerary = field(repr=False)


def _hit_key(hit: TrajectoryHit):
    return (hit.source, hit.index, not hit.constant)


def _hits_on_edge(itin: Itinerary, f: str) -> list[TrajectoryHit]:
    return [
        TrajectoryHit(itin.start, i, "edge", f, i == 1, itin)
        for i, e in enumerate(itin.edges, start=1)
        if e == f
    ]


def _hits_on_halfedge(itin: Itinerary, hp: str) -> list[TrajectoryHit]:
    hits = []
    if hp == itin.start:
        # the constant visit: stand on the source and apply nothing
        hits.append(TrajectoryHit(itin.start, 1, "halfedge", hp, True, itin))
    for i in range(1, itin.length):
        if itin.entries[i - 1] == hp:
            hits.append(TrajectoryHit(itin.start, i, "halfedge", hp, False, itin))
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


def trajectory_counts(
    g: RibbonGraph, source: SourceRef, target: TargetRef, orient: str = CW
) -> tuple[TrajectoryHit, ...]:
    """All prefix indices at which trajectories from ``source`` meet ``target``.

    Edge targets are hit whenever the visited edge matches, the terminal
    index included.  Halfedge targets are hit when the walk enters the
    target's vertex along it, terminal index excluded, plus the constant
    visit when the target is the source halfedge itself.  For an
    internal source edge and the same edge as target, the two constant
    visits are one and the same curve, so only one is kept.
    """
    require_valid(g)
    _require_orient(orient)
    starts = _source_halfedges(g, source)
    if isinstance(target, EdgeRef):
        hits_on = _hits_on_edge
    elif isinstance(target, HalfedgeRef):
        hits_on = _hits_on_halfedge
    else:
        raise TypeError("target must be an edge or halfedge reference")
    _source_halfedges(g, target)
    hits = [h for s in starts for h in hits_on(_itinerary(g, s, orient), target.id)]
    if (
        isinstance(source, EdgeRef)
        and isinstance(target, EdgeRef)
        and source.id == target.id
        and len(starts) == 2
    ):
        hits = [h for h in hits if not (h.constant and h.source == starts[1])]
    hits.sort(key=_hit_key)
    return tuple(hits)
