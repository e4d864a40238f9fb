"""Ribbon graphs with boundary stubs.

A ribbon graph here is a graph together with a counterclockwise cyclic
order of the halfedges around every vertex.  Edges come in two kinds:
internal edges are twin pairs of halfedges, external edges are single
unpaired halfedges (boundary stubs).  The thickening of such a graph is
an oriented surface with boundary; `boundary_walks` computes its
boundary circles and `surface_invariants` its genus.
"""

from __future__ import annotations

from itertools import filterfalse

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Mapping, Optional

PLAIN = "plain"
SINGULAR = "singular"
VERTEX_KINDS = (PLAIN, SINGULAR)


class InvalidGraphError(ValueError):
    """An operation was handed a graph that fails validation."""


class _Record:
    """A frozen value like ``@dataclass(frozen=True)`` makes, without importing
    `dataclasses`: a subclass sets ``__slots__ = _fields`` to its field names,
    with defaults in ``_defaults``; ``repr``, ``==`` (within one class), hash,
    copy and pickle use the field values."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        # a field given twice is a TypeError from dict()
        values = dict(self._defaults, **dict(zip(self._fields, args)), **kwargs)
        if len(args) > len(self._fields) or values.keys() != set(self._fields):
            raise TypeError("{}() takes {}".format(type(self).__name__, self._fields))
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        same = type(other) is type(self)
        return self.__reduce__() == other.__reduce__() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._fields, self.__reduce__()[1])
        return "{}({})".format(type(self).__qualname__, ", ".join(fields))

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to or delete field {!r}".format(name))

    __delattr__ = __setattr__


class ValidationReport(_Record):
    __slots__ = _fields = ("violations",)  # tuple of messages, empty when valid
    _defaults = {"violations": ()}

    @property
    def ok(self) -> bool:
        return not self.violations


def rotate_to_min(seq: Iterable[str]) -> tuple[str, ...]:
    """Canonical representative of a cyclic word: start at the smallest entry."""
    seq = tuple(seq)
    if not seq:
        return seq
    k = seq.index(min(seq))
    return seq[k:] + seq[:k]


def _by_string_key(table: Mapping, name: str, what: str = "vertex") -> dict:
    """``table`` with string keys; two keys with the same string are an error."""
    out = {}
    for k, x in table.items():
        key = str(k)
        if key in out:
            raise ValueError("{} names {} {!r} twice".format(name, what, key))
        out[key] = x
    return out


def _build_tables(rings, at, twin, kinds, labels) -> tuple:
    """The tables `RibbonGraph._from_tables` takes, from checked tables
    whose rings may start anywhere: the rotated rings, the successor table
    and the internal and external edges are derived here.
    `serialization._graph_tables` derives the same tables in its own fused
    loops, which must agree with these."""
    cyclic = {v: rotate_to_min(ring) for v, ring in rings.items()}
    nxt = {p: h for ring in cyclic.values() for p, h in zip(ring[-1:] + ring[:-1], ring)}
    internal = [h for h, t in twin.items() if h <= t]
    external = [h for h in at if h not in twin]
    return cyclic, at, nxt, twin, internal, external, kinds, labels


class RibbonGraph:
    """Immutable halfedge structure with a cyclic order at each vertex.

    ``cyclic`` maps each vertex id to the counterclockwise ordering of
    its incident halfedges; membership in a cyclic list is what assigns
    a halfedge to its vertex.  ``twin`` pairs the two halfedges of every
    internal edge and omits external halfedges entirely.

    The constructor turns ids, the keys of ``twin``, ``vertex_kind`` and
    ``vertex_label`` included, into strings and rejects structurally
    meaningless input (two keys of one table with the same string, a
    halfedge listed twice, an asymmetric twin table, a kind or label for an
    unknown vertex, an unknown kind, a label that is not a string).
    `ribboncalc.serialization.graph_from_jsonable` checks a superset of
    these facts itself and hands its tables straight to `_from_tables`; both
    paths end in `_build`, which only sorts and stores.  `_from_tables`
    receives the tables a graph keeps: each ring rotated to start at its
    smallest halfedge, the vertex and successor of each halfedge, the twin
    table, the internal and external edges in any order, kinds and
    labels.  The parser fills them while it reads each entry; the
    constructor and the located parse pass derive them in
    `_build_tables`, and `dual` takes them from its argument.  Semantic
    rules, loops, valency-1 vertices, connectivity and the marked-point
    condition, are reported by `validate_graph` instead so that callers can
    inspect broken graphs.

    A graph keeps its rings, twin table and successor table; the
    predecessor table, which only counterclockwise walks and `cw_next`
    read, is built on first use.
    """

    def __init__(
        self,
        cyclic: Mapping[str, Iterable[str]],
        twin: Mapping[str, str],
        vertex_kind: Optional[Mapping[str, str]] = None,
        vertex_label: Optional[Mapping[str, str]] = None,
    ):
        cyclic = _by_string_key(cyclic, "cyclic")
        vertex_kind = _by_string_key(vertex_kind or {}, "vertex_kind")
        vertex_label = _by_string_key(vertex_label or {}, "vertex_label")
        rings: dict[str, list[str]] = {}
        at: dict[str, str] = {}
        for v, hs in cyclic.items():
            ring = [str(h) for h in hs]
            for h in ring:
                if h in at:
                    raise ValueError("halfedge {!r} listed more than once".format(h))
                at[h] = v
            rings[v] = ring
        twin = {h: str(t) for h, t in _by_string_key(twin, "twin", "halfedge").items()}
        for h, t in twin.items():
            if h not in at:
                raise ValueError("twin table mentions unknown halfedge {!r}".format(h))
            if t not in at:
                raise ValueError("twin table mentions unknown halfedge {!r}".format(t))
            if twin.get(t) != h:
                raise ValueError("twin table is not symmetric at {!r}".format(h))
        for v, kind in vertex_kind.items():
            if v not in rings:
                raise ValueError("vertex kind given for unknown vertex {!r}".format(v))
            if kind not in VERTEX_KINDS:
                raise ValueError("unknown vertex kind {!r}".format(kind))
        for v, label in vertex_label.items():
            if v not in rings:
                raise ValueError("label given for unknown vertex {!r}".format(v))
            if label is not None and not isinstance(label, str):
                raise ValueError("label of vertex {!r} is not a string".format(v))
        kinds = {v: vertex_kind.get(v, PLAIN) for v in rings}
        self._build(*_build_tables(rings, at, twin, kinds, vertex_label))

    @classmethod
    def _from_tables(
        cls,
        cyclic: dict[str, tuple[str, ...]],
        at: dict[str, str],
        nxt: dict[str, str],
        twin: dict[str, str],
        internal: Iterable[str],
        external: Iterable[str],
        kinds: dict[str, str],
        labels: dict[str, str],
    ) -> "RibbonGraph":
        """A graph from tables already checked as `__init__` checks them:
        string ids, each ring a tuple that starts at its smallest halfedge,
        every halfedge in exactly one ring, mapped by ``at`` to its vertex
        and by ``nxt`` to its successor in that ring, a symmetric ``twin``
        on known halfedges, the edges that ``internal`` (twinned, named by
        the smaller halfedge) and ``external`` (every untwinned halfedge)
        list, a known kind for every vertex and labels only on known
        vertices.  The halfedges are the keys of ``twin`` and the external
        edges.  Edges and ``twin`` may come in any order; sorting is fastest
        when they are already sorted, as in canonical input.  The dicts are
        kept, not copied."""
        g = cls.__new__(cls)
        g._build(cyclic, at, nxt, twin, internal, external, kinds, labels)
        return g

    def _build(self, cyclic, at, nxt, twin, internal, external, kinds, labels) -> None:
        self._cyclic: dict[str, tuple[str, ...]] = cyclic
        self._at = at
        # successor in the cyclic order; the predecessor is built on first
        # use by `_predecessors`
        self._next = nxt
        self._twin = twin
        self._kind = kinds
        self._label = labels
        self._vertices = tuple(sorted(cyclic))
        self._internal_edges = tuple(sorted(internal))
        self._external_edges = tuple(sorted(external))
        # each of these lists is made of sorted runs, which the sort merges
        self._halfedges = tuple(sorted([*twin, *self._external_edges]))
        self._edges = tuple(sorted(self._internal_edges + self._external_edges))
        self._key: Optional[tuple] = None
        self._hash: Optional[int] = None
        self._report: Optional[ValidationReport] = None
        self._orbits: Optional[tuple[tuple[str, ...], ...]] = None
        self._prev: Optional[dict[str, str]] = None
        # itineraries, one table per orientation, filled by
        # `ribboncalc.trajectory`: each halfedge a ray stepped maps to that
        # ray, which starts there or runs through it; sound because the
        # graph never changes
        self._walks: dict = {"cw": {}, "ccw": {}}

    # -- basic accessors ------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def halfedges(self) -> tuple[str, ...]:
        return self._halfedges

    def has_vertex(self, v: str) -> bool:
        return v in self._cyclic

    def has_halfedge(self, h: str) -> bool:
        return h in self._at

    def cyclic(self, v: str) -> tuple[str, ...]:
        return self._cyclic[v]

    def at_vertex(self, h: str) -> str:
        return self._at[h]

    def valency(self, v: str) -> int:
        return len(self._cyclic[v])

    def kind(self, v: str) -> str:
        return self._kind[v]

    def label(self, v: str) -> Optional[str]:
        return self._label.get(v)

    def twin_of(self, h: str) -> Optional[str]:
        return self._twin.get(h)

    def is_external(self, h: str) -> bool:
        return h not in self._twin

    def ext_twin(self, h: str) -> str:
        """The twin involution extended to fix external halfedges."""
        return self._twin.get(h, h)

    def ccw_next(self, h: str) -> str:
        return self._next[h]

    def cw_next(self, h: str) -> str:
        return _predecessors(self)[h]

    # -- edges ------------------------------------------------------------

    def edge_of(self, h: str) -> str:
        # the edge key is the smaller of the (at most two) halfedge ids
        t = self._twin.get(h)
        return h if t is None or h <= t else t

    def halfedges_of(self, e: str) -> tuple[str, ...]:
        if e not in self._at or self.edge_of(e) != e:
            raise ValueError("unknown edge {!r}".format(e))
        t = self._twin.get(e)
        return (e,) if t is None or t == e else (e, t)

    def edges(self) -> tuple[str, ...]:
        return self._edges

    def internal_edges(self) -> tuple[str, ...]:
        return self._internal_edges

    def external_edges(self) -> tuple[str, ...]:
        return self._external_edges

    def is_edge(self, e: str) -> bool:
        return e in self._at and self.edge_of(e) == e

    # -- equality ---------------------------------------------------------

    def _equality_key(self) -> tuple:
        if self._key is None:
            self._key = (
                tuple(
                    (v, self._cyclic[v], self._kind[v], self._label.get(v))
                    for v in self._vertices
                ),
                tuple(sorted(self._twin.items())),
            )
        return self._key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RibbonGraph)
            and self._equality_key() == other._equality_key()
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._equality_key())
        return self._hash

    def __repr__(self) -> str:
        return "RibbonGraph({} vertices, {} edges)".format(
            len(self._vertices), len(self.edges())
        )

    # -- validation (cached) -----------------------------------------------

    def validation_report(self) -> ValidationReport:
        if self._report is None:
            self._report = validate_graph(self)
        return self._report


def corner_permutation(g: RibbonGraph) -> dict[str, str]:
    """The face-traversal permutation: follow the extended twin, then
    take one counterclockwise step.  Its orbits are the boundary walks."""
    twin, nxt = g._twin, g._next
    return {h: nxt[twin.get(h, h)] for h in g._halfedges}


def _predecessors(g: RibbonGraph) -> dict[str, str]:
    """The predecessor in the cyclic order.  Only counterclockwise walks and
    `RibbonGraph.cw_next` read it, so it is built on the first of those, not
    on load, and kept on the graph."""
    if g._prev is None:
        g._prev = {h: p for p, h in g._next.items()}
    return g._prev


def _corner_orbits(g: RibbonGraph) -> tuple[tuple[str, ...], ...]:
    """The orbits of `corner_permutation`, each starting at its smallest
    halfedge, in order of those; computed once per graph and kept on it."""
    if g._orbits is None:
        perm = corner_permutation(g)
        orbits = []
        for start in g._halfedges:
            h = perm.pop(start, None)
            if h is None:
                continue
            orbit = [start]
            while h != start:
                orbit.append(h)
                h = perm.pop(h)
            orbits.append(tuple(orbit))
        g._orbits = tuple(orbits)
    return g._orbits


def _connected(g: RibbonGraph) -> bool:
    cyclic, twin, at = g._cyclic, g._twin, g._at
    todo = [g._vertices[0]]
    seen = {g._vertices[0]}
    while todo:
        for h in cyclic[todo.pop()]:
            t = twin.get(h)
            if t is None:
                continue
            w = at[t]
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(g._vertices)


def validate_graph(g: RibbonGraph) -> ValidationReport:
    """Report every violated graph invariant; an empty report means valid.

    Downstream operations refuse graphs whose report is non-empty.
    """
    twin, at = g._twin, g._at
    violations = []
    if not g._vertices:
        violations.append("graph is empty")
    for h in sorted(h for h, t in twin.items() if h == t):
        violations.append("twin has a fixed point: {}".format(h))
    for e in g._internal_edges:
        t = twin[e]
        if t != e and at[e] == at[t]:
            violations.append(
                "loop: edge {} has both halfedges at vertex {}".format(e, at[e])
            )
    for v in g._vertices:
        n = len(g._cyclic[v])
        if n == 0:
            violations.append("isolated vertex: {}".format(v))
        elif n == 1:
            violations.append("valency-1 vertex: {}".format(v))
    if g._vertices and not _connected(g):
        violations.append("graph is not connected")
    for orbit in _corner_orbits(g):
        if all(h in twin for h in orbit):
            violations.append(
                "boundary walk without external halfedge (through {})".format(
                    orbit[0]
                )
            )
    return ValidationReport(tuple(violations))


def require_valid(g: RibbonGraph) -> None:
    # every public walk call comes here, so read the kept report directly
    report = g._report or g.validation_report()
    if report.violations:
        raise InvalidGraphError("; ".join(report.violations))


class BoundaryWalk(_Record):
    """One boundary circle of the thickened surface.

    ``halfedges`` is the orbit of the corner permutation, rotated to
    start at its smallest member.  Every visit of an external halfedge
    is one marked point on this circle.
    """

    __slots__ = _fields = ("halfedges", "externals")

    @property
    def marked_points(self) -> int:
        return len(self.externals)


def boundary_walks(g: RibbonGraph) -> list[BoundaryWalk]:
    require_valid(g)
    twin = g._twin
    # orbits start at their smallest halfedge and come sorted by it
    return [
        BoundaryWalk(orbit, tuple(filterfalse(twin.__contains__, orbit)))
        for orbit in _corner_orbits(g)
    ]


class SurfaceInvariants(_Record):
    __slots__ = _fields = ("genus", "boundary")  # boundary: marked-point counts, largest first


def surface_invariants(g: RibbonGraph) -> SurfaceInvariants:
    walks = boundary_walks(g)
    # external stubs retract onto their vertex, so the homotopy type is
    # carried by the internal edges alone
    chi = len(g.vertices) - len(g.internal_edges())
    b = len(walks)
    doubled_genus = 2 - b - chi
    if doubled_genus < 0 or doubled_genus % 2 != 0:
        raise RuntimeError(
            "internal consistency failure: 2g = {} for V - E = {}, b = {}".format(
                doubled_genus, chi, b
            )
        )
    counts = tuple(sorted((w.marked_points for w in walks), reverse=True))
    return SurfaceInvariants(doubled_genus // 2, counts)


def dual(g: RibbonGraph) -> RibbonGraph:
    """The same graph with every cyclic order reversed.  Involutive."""
    require_valid(g)
    # a reversed ring, rotated to its smallest halfedge, keeps that one first
    return RibbonGraph._from_tables(
        {v: ring[:1] + ring[:0:-1] for v, ring in g._cyclic.items()},
        g._at, _predecessors(g), g._twin, g._internal_edges, g._external_edges,
        g._kind, g._label,
    )


class Subgraph(_Record):
    """A vertex-induced piece ``graph`` of an ``ambient`` graph.

    Halfedge ids are shared with the ambient graph, so the ambient map
    is the identity on ids.  ``cut_halfedges`` lists, in sorted order,
    the halfedges whose edge is external here but internal in the
    ambient graph; these are exactly the gluing sites.
    """

    __slots__ = _fields = ("graph", "ambient", "vertices", "cut_halfedges")

    def ambient_edge_of(self, sub_edge: str) -> str:
        return self.ambient.edge_of(sub_edge)


def subgraph(g: RibbonGraph, vertices: Iterable[str]) -> Subgraph:
    require_valid(g)
    keep = sorted(set(vertices))
    if not keep:
        raise ValueError("vertex set must be non-empty")
    for v in keep:
        if not g.has_vertex(v):
            raise ValueError("unknown vertex {!r}".format(v))
    kept_set = set(keep)
    cyclic = {v: g.cyclic(v) for v in keep}
    kept_halfedges = {h for v in keep for h in g.cyclic(v)}
    twin = {}
    for h in kept_halfedges:
        t = g.twin_of(h)
        if t is not None and g.at_vertex(t) in kept_set:
            twin[h] = t
    sub = RibbonGraph(
        cyclic,
        twin,
        {v: g.kind(v) for v in keep},
        {v: g.label(v) for v in keep if g.label(v) is not None},
    )
    report = sub.validation_report()
    if not report.ok:
        raise InvalidGraphError(
            "induced subgraph is not a valid ribbon graph: "
            + "; ".join(report.violations)
        )
    cuts = tuple(
        sorted(h for h in kept_halfedges if sub.is_external(h) and not g.is_external(h))
    )
    return Subgraph(sub, g, tuple(keep), cuts)
