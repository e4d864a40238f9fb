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
from operator import attrgetter

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Mapping, Optional

PLAIN = "plain"
SINGULAR = "singular"
VERTEX_KINDS = (PLAIN, SINGULAR)


class InvalidGraphError(ValueError):
    """An operation was handed a graph that fails validation."""


class _Record:
    """The base of every value type of the package: a frozen value like
    ``@dataclass(frozen=True)`` makes, without importing `dataclasses`.

    A subclass sets ``__slots__`` to its field names, each prefixed with
    ``_``, with defaults in ``_defaults`` and the fields its repr leaves
    out in ``_unprinted``; a ``__post_init__`` it defines runs at the end
    of construction.  For each class that names fields,
    `__init_subclass__` derives ``_fields`` from its slots, makes each
    field a read-only property over its slot, and writes ``__init__``,
    ``==`` (within one class) and hash once, by `exec`, as `dataclasses`
    and `namedtuple` do.  ``__init__`` stores each value in its slot, and
    ``==`` and hash read the slots.  A field has no setter or deleter, so
    it cannot be assigned or deleted; the package's loops read the slots,
    which costs less than the property.  ``repr`` uses the field values;
    a copy or a pickle stores them by `_unchecked`, not ``__post_init__``."""

    __slots__ = ()
    _defaults: dict = {}
    _unprinted = ()

    def __init_subclass__(cls):
        slots = vars(cls).get("__slots__")
        if not slots:
            return  # a subclass without fields of its own keeps its parent's
        fields = cls._fields = tuple(s[1:] for s in slots)
        for f, s in zip(fields, slots):
            setattr(cls, f, property(attrgetter(s)))
        scope = {"_default_" + f: v for f, v in cls._defaults.items()}
        params = (f + "=_default_" + f if f in cls._defaults else f for f in fields)
        # the slot values of "{0}" as a tuple display
        values = "({})".format("".join("{{0}}._{},".format(f) for f in fields))
        source = [
            "def __init__(self, {}):".format(", ".join(params)),
            *("    self._{0} = {0}".format(f) for f in fields),
            "    self.__post_init__()" if hasattr(cls, "__post_init__") else "",
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            "        return {} == {}".format(values.format("self"), values.format("other")),
            "    return NotImplemented",
            "def __hash__(self):",
            "    return hash({})".format(values.format("self")),
        ]
        exec("\n".join(source), scope)
        for name in ("__init__", "__eq__", "__hash__"):
            scope[name].__qualname__ = "{}.{}".format(cls.__qualname__, name)
            setattr(cls, name, scope[name])

    @classmethod
    def _unchecked(cls, *values):
        """A record of ``values``, one per field, without ``__post_init__``."""
        self = cls.__new__(cls)
        for f, value in zip(cls._fields, values):  # a subclass may add no slots
            setattr(self, "_" + f, value)
        return self

    def __reduce__(self):
        # the default reduction of a slotted class fails under protocols 0 and 1
        return self._unchecked, tuple(map(self.__getattribute__, self._fields))

    def __repr__(self) -> str:
        shown = [f for f in self._fields if f not in self._unprinted]
        fields = map("{}={!r}".format, shown, map(self.__getattribute__, shown))
        return "{}({})".format(type(self).__qualname__, ", ".join(fields))


def _fault(location: tuple, message: str, *args) -> ValueError:
    """A ValueError whose text is ``message.format(*args)`` and which keeps
    the ``location`` of the input at fault, such as ``("arrows", 3, "src")``."""
    exc = ValueError(message.format(*args))
    exc.location = location
    return exc


class ValidationReport(_Record):
    __slots__ = ("_violations",)  # tuple of messages, empty when valid
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


class RibbonGraph:
    """Immutable halfedge structure with a cyclic order at each vertex.

    ``cyclic`` maps each vertex id to the counterclockwise ordering of
    its incident halfedges; membership in a cyclic list is what assigns
    a halfedge to its vertex.  ``twin`` pairs the two halfedges of every
    internal edge and omits external halfedges entirely.

    Ids are strings.  The constructor copies the tables it is given and
    checks every value: a kind or label for an unknown vertex, then the
    type of each vertex id and ring entry, before any entry is hashed,
    then a twin that names no halfedge of a ring or does not point back,
    then, vertex by vertex, a halfedge already in a ring, an unknown kind
    and a label that is not a string; it keeps no label given as None.
    A fault keeps its location (see `_fault`), such as ``("cyclic", v, j)``,
    ``("twin", h)``, ``("vertex_kind", v)`` or ``("vertex_label", v)``.
    `_from_tables` takes the tables a graph keeps, already checked.
    Semantic rules, loops, valency-1 vertices, connectivity and the
    marked-point condition, are reported by `validate_graph` instead so
    that callers can inspect broken graphs.

    On load a graph keeps only the tables the parser fills: its rings,
    each halfedge's vertex, successor and twin, the kinds, the labels and
    the unsorted external halfedges.  Beyond those it keeps only what is
    read again: the sorted `vertices` and `halfedges`, built on first
    read, the report `validate_graph` leaves with its next-marked-point
    map, and what walks grow, which a copy or a pickle leaves out: the
    predecessor table, read by counterclockwise walks and `dual` only,
    and the itineraries.  `edges` and `internal_edges` sort on each call,
    and the corner orbits are walked on each call of `_corner_orbits`; a
    caller that reads one twice holds it.  Validation reads no sorted
    table: it walks the rings once and the boundary once.
    """

    def __init__(
        self,
        cyclic: Mapping[str, Iterable[str]],
        twin: Mapping[str, str],
        vertex_kind: Optional[Mapping[str, str]] = None,
        vertex_label: Optional[Mapping[str, str]] = None,
    ):
        rings = {v: tuple(ring) for v, ring in cyclic.items()}
        vertex_kind = dict(vertex_kind or {})
        labels = dict(vertex_label or {})
        for v in vertex_kind:
            if v not in rings:
                raise _fault(("vertex_kind", v), "vertex kind given for unknown vertex {!r}", v)
        for v in labels:
            if v not in rings:
                raise _fault(("vertex_label", v), "label given for unknown vertex {!r}", v)
        at = {}
        for v, ring in rings.items():
            if not isinstance(v, str):
                raise _fault(("cyclic", v), "vertex id {!r} is not a string", v)
            for h in ring:
                if not isinstance(h, str):
                    # no string before it equals it, so `index` finds this entry
                    j = ring.index(h)
                    raise _fault(("cyclic", v, j), "halfedge id {!r} is not a string", h)
                at[h] = v
        twin = dict(twin)
        for h, t in twin.items():
            # halfedge ids are strings: a twin of another type names no halfedge
            if h not in at or not isinstance(t, str) or t not in at:
                unknown = t if h in at else h
                raise _fault(("twin", h), "twin table mentions unknown halfedge {!r}", unknown)
            if twin.get(t) != h:
                raise _fault(("twin", h), "twin of {!r} does not point back", h)
        seen = set()
        for v, ring in rings.items():
            for j, h in enumerate(ring):
                if h in seen:
                    raise _fault(("cyclic", v, j), "halfedge {!r} already attached", h)
                seen.add(h)
            kind = vertex_kind.setdefault(v, PLAIN)
            if kind not in VERTEX_KINDS:
                raise _fault(("vertex_kind", v), "unknown vertex kind {!r}", kind)
            label = labels.get(v)
            if label is None:
                labels.pop(v, None)  # a label given as None is no label
            elif not isinstance(label, str):
                raise _fault(("vertex_label", v), "label of vertex {!r} is not a string", v)
        cyclic = {v: rotate_to_min(ring) for v, ring in rings.items()}
        nxt = {p: h for ring in cyclic.values() for p, h in zip(ring[-1:] + ring[:-1], ring)}
        external = [h for h in at if h not in twin]
        self._build(cyclic, at, nxt, twin, external, vertex_kind, labels)

    @classmethod
    def _from_tables(
        cls,
        cyclic: dict[str, tuple[str, ...]],
        at: dict[str, str],
        nxt: dict[str, str],
        twin: dict[str, str],
        external: list[str],
        kinds: dict[str, str],
        labels: dict[str, str],
    ) -> "RibbonGraph":
        """A graph from tables already checked as `__init__` checks them:
        string ids, each ring a tuple that starts at its smallest halfedge,
        every halfedge in exactly one ring, mapped by ``at`` to its vertex
        and by ``nxt`` to its successor in that ring, a symmetric ``twin``
        on known halfedges, ``external`` listing every untwinned halfedge,
        a known kind for every vertex and string labels only on known vertices.
        The halfedges are the keys of ``twin`` and the external ones.
        ``twin`` and ``external`` may come in any order; the sorted id
        tables sort fastest when they are already sorted, as in canonical
        input.  The dicts and the list are kept, not copied.  The parser's
        fast pass fills them as it reads, `dual` takes its argument's and
        `subgraph` restricts its ambient's."""
        g = cls.__new__(cls)
        g._build(cyclic, at, nxt, twin, external, kinds, labels)
        return g

    def _build(self, cyclic, at, nxt, twin, external, kinds, labels) -> None:
        """Set the 13 attributes of a graph: the seven tables it is given,
        then the slots, empty at first, of what is built on use and kept."""
        self._cyclic: dict[str, tuple[str, ...]] = cyclic
        self._at = at
        # successor in the cyclic order; the predecessor is built on first
        # use by `_predecessors`
        self._next = nxt
        self._twin = twin
        self._kind = kinds
        self._label = labels
        self._external = external
        # the sorted vertex and halfedge ids, built on first read by their
        # properties
        self._vertices: Optional[tuple[str, ...]] = None
        self._halfedges: Optional[tuple[str, ...]] = None
        # the report of `validate_graph` and each external halfedge's next
        # marked point along its boundary circle, both kept by it
        self._report: Optional[ValidationReport] = None
        self._marked: Optional[dict[str, str]] = None
        self._prev: Optional[dict[str, str]] = None
        # itineraries, one table per orientation, filled by
        # `ribboncalc.trajectory`: each halfedge a ray stepped maps to that
        # ray, which starts there or runs through it; sound because the
        # graph never changes
        self._walks: dict = {"cw": {}, "ccw": {}}

    def __getstate__(self) -> dict:
        return dict(self.__dict__, _prev=None, _walks={"cw": {}, "ccw": {}})

    # -- basic accessors ------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        if self._vertices is None:
            self._vertices = tuple(sorted(self._cyclic))
        return self._vertices

    @property
    def halfedges(self) -> tuple[str, ...]:
        if self._halfedges is None:
            # two runs, sorted in canonical input, which the sort merges
            self._halfedges = tuple(sorted([*self._twin, *self._external]))
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
        return tuple(sorted([h for h, t in self._twin.items() if h <= t] + self._external))

    def internal_edges(self) -> tuple[str, ...]:
        # an edge is named by its smaller halfedge
        return tuple(sorted(h for h, t in self._twin.items() if h <= t))

    def is_edge(self, e: str) -> bool:
        return e in self._at and self.edge_of(e) == e

    # -- equality ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        # a graph is its four tables; each ring starts at its smallest halfedge
        return isinstance(other, RibbonGraph) and (
            self._cyclic == other._cyclic and self._twin == other._twin
            and self._kind == other._kind and self._label == other._label
        )

    def __hash__(self) -> int:
        return hash(frozenset(self._cyclic.items()))

    def __repr__(self) -> str:
        # counts what `edges()` lists, twin fixed points included, unsorted
        edges = sum(h <= t for h, t in self._twin.items()) + len(self._external)
        return "RibbonGraph({} vertices, {} edges)".format(len(self._cyclic), edges)


def corner_permutation(g: RibbonGraph) -> dict[str, str]:
    """The face-traversal permutation: follow the extended twin, then
    take one counterclockwise step.  Its orbits are the boundary walks."""
    twin, nxt = g._twin, g._next
    return {h: nxt[twin.get(h, h)] for h in g.halfedges}


def _predecessors(g: RibbonGraph) -> dict[str, str]:
    """The predecessor in the cyclic order.  Only counterclockwise walks and
    `dual` read it, so it is built on the first of those, not on load, and
    kept on the graph."""
    if g._prev is None:
        g._prev = {h: p for p, h in g._next.items()}
    return g._prev


def _corner_orbits(g: RibbonGraph) -> list[tuple[str, ...]]:
    """The orbits of `corner_permutation`, each starting at its smallest
    halfedge, in order of those; computed on each call, as nothing reads
    them twice: `boundary_walks` reads them, and `validate_graph` only to
    name the orbits that meet no external halfedge."""
    perm = corner_permutation(g)
    orbits = []
    for start in g.halfedges:
        h = perm.pop(start, None)
        if h is None:
            continue
        orbit = [start]
        while h != start:
            orbit.append(h)
            h = perm.pop(h)
        orbits.append(tuple(orbit))
    return orbits


def validate_graph(g: RibbonGraph) -> ValidationReport:
    """Report every violated graph invariant; an empty report means valid.

    Two walks over the tables a graph builds on load find every fault, and
    neither reads a sorted id table.  The ring walk starts a traversal from
    each vertex not yet seen and counts the components; it collects the
    halfedges whose twin sits at their own vertex, which are the fixed
    points and the loops, and the vertices of valency below 2.  The
    boundary walk follows `corner_permutation` from each external halfedge
    to the next and keeps that next marked point on the graph.  Its steps
    cover exactly the corner orbits that meet an external halfedge, so
    every boundary circle carries a marked point exactly when they number
    all the halfedges; only when they do not are the orbits computed, to
    name those without one.  Each kind of message comes sorted by the id
    it names.

    The report is kept on the graph, so `require_valid` validates a graph
    once.  Downstream operations refuse graphs whose report is non-empty.
    """
    cyclic, twin, at, nxt = g._cyclic, g._twin, g._at, g._next
    violations = []
    if not cyclic:
        violations.append("graph is empty")
    seen = set()
    components = 0
    own = []  # halfedges whose twin sits at their own vertex
    low = []  # vertices of valency below 2
    for root in cyclic:
        if root in seen:
            continue
        components += 1
        seen.add(root)
        todo = [root]
        while todo:
            v = todo.pop()
            ring = cyclic[v]
            if len(ring) < 2:
                low.append(v)
            for h in ring:
                t = twin.get(h)
                if t is None:
                    continue
                w = at[t]
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
                elif w == v:
                    own.append(h)
    own.sort()
    violations += ["twin has a fixed point: {}".format(h) for h in own if twin[h] == h]
    violations += [
        "loop: edge {} has both halfedges at vertex {}".format(h, at[h])
        for h in own
        if h < twin[h]
    ]
    low.sort()
    violations += [
        ("valency-1 vertex: {}" if cyclic[v] else "isolated vertex: {}").format(v)
        for v in low
    ]
    if components > 1:
        violations.append("graph is not connected")

    marked = {}
    steps = len(g._external)
    for x in g._external:
        h = nxt[x]
        t = twin.get(h)
        while t is not None:
            h = nxt[t]
            t = twin.get(h)
            steps += 1
        marked[x] = h
    g._marked = marked
    if steps != len(at):
        for orbit in _corner_orbits(g):
            if all(h in twin for h in orbit):
                violations.append(
                    "boundary walk without external halfedge (through {})".format(
                        orbit[0]
                    )
                )
    g._report = ValidationReport(tuple(violations))
    return g._report


def require_valid(g: RibbonGraph) -> None:
    # every public walk call comes here, so read the kept report directly
    report = g._report or validate_graph(g)
    if report._violations:
        raise InvalidGraphError("; ".join(report._violations))


class BoundaryWalk(_Record):
    """One boundary circle of the thickened surface.

    ``halfedges`` is the orbit of the corner permutation, rotated to
    start at its smallest member.  Every visit of an external halfedge
    is one marked point on this circle.
    """

    __slots__ = ("_halfedges", "_externals")

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
    __slots__ = ("_genus", "_boundary")  # boundary: marked-point counts, largest first


def surface_invariants(g: RibbonGraph) -> SurfaceInvariants:
    """The genus and the number of marked points on each boundary circle.

    On a valid graph every boundary circle carries a marked point, so the
    circles are the cycles of the next-marked-point map that
    `validate_graph` keeps on the graph, and each cycle's length is its
    circle's count of marked points; no sorted id table is read."""
    require_valid(g)
    marked = g._marked
    left = marked.copy()
    counts = []
    for x in marked:
        y = left.pop(x, None)
        if y is None:
            continue
        n = 1
        while y != x:
            y = left.pop(y)
            n += 1
        counts.append(n)
    # external stubs retract onto their vertex, so the homotopy type is
    # carried by the internal edges alone, and a valid twin has no fixed point
    chi = len(g._cyclic) - len(g._twin) // 2
    b = len(counts)
    doubled_genus = 2 - b - chi
    if doubled_genus < 0 or doubled_genus % 2 != 0:
        raise RuntimeError(
            "internal consistency failure: 2g = {} for V - E = {}, b = {}".format(
                doubled_genus, chi, b
            )
        )
    counts.sort(reverse=True)
    return SurfaceInvariants(doubled_genus // 2, tuple(counts))


def dual(g: RibbonGraph) -> RibbonGraph:
    """The same graph with every cyclic order reversed.  Involutive."""
    require_valid(g)
    # a reversed ring, rotated to its smallest halfedge, keeps that one first
    return RibbonGraph._from_tables(
        {v: ring[:1] + ring[:0:-1] for v, ring in g._cyclic.items()},
        g._at, _predecessors(g), g._twin, g._external, g._kind, g._label,
    )


class Subgraph(_Record):
    """A vertex-induced piece ``graph`` of an ``ambient`` graph.

    Halfedge ids are shared with the ambient graph, so the ambient map
    is the identity on ids.  ``cut_halfedges`` lists, in sorted order,
    the halfedges whose edge is external here but internal in the
    ambient graph; these are exactly the gluing sites.
    """

    __slots__ = ("_graph", "_ambient", "_vertices", "_cut_halfedges")


def subgraph(g: RibbonGraph, vertices: Iterable[str]) -> Subgraph:
    """The piece of ``g`` induced by ``vertices``, built, as `dual` builds
    its graph, from the tables of ``g``, here restricted to the piece.  A
    restriction can disconnect, so the piece is validated; an invalid one
    raises `InvalidGraphError`."""
    require_valid(g)
    keep = sorted(set(vertices))
    if not keep:
        raise ValueError("vertex set must be non-empty")
    for v in keep:
        if not g.has_vertex(v):
            raise ValueError("unknown vertex {!r}".format(v))
    cyclic = {v: g._cyclic[v] for v in keep}
    at = {h: v for v, ring in cyclic.items() for h in ring}
    # a kept halfedge keeps its twin when that is kept too; a stub or a cut
    # is external, listed as the checking constructor lists it
    twin = {h: g._twin[h] for h in at if g._twin.get(h) in at}
    external = [h for h in at if h not in twin]
    sub = RibbonGraph._from_tables(
        cyclic, at, {h: g._next[h] for h in at}, twin, external,
        {v: g._kind[v] for v in keep},
        {v: g._label[v] for v in keep if v in g._label},
    )
    report = validate_graph(sub)
    if not report.ok:
        raise InvalidGraphError(
            "induced subgraph is not a valid ribbon graph: "
            + "; ".join(report.violations)
        )
    cuts = sorted(h for h in external if h in g._twin)
    return Subgraph(sub, g, tuple(keep), tuple(cuts))
