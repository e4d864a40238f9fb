"""Ice quivers, quiver morphisms and amalgamation along a ribbon graph.

An ice quiver is a finite quiver with a frozen flag on vertices and
arrows.  Frozen arrows must join frozen vertices; the frozen arrows
split the frozen vertices into frozen components, and those components
are the gluing interfaces of the amalgamation.
"""

from __future__ import annotations

from operator import attrgetter

from .graph import ValidationReport, _Record, _fault, require_valid

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Callable, Iterable, Iterator, Optional, Sequence


class _ReadOnlyDict(dict):
    """A dict that refuses every change, so a checked record that keeps
    one stays as it was checked.  It prints, compares and encodes as a
    dict, and copies and pickles as its items."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a checked table is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class QuiverVertex(_Record):
    """A vertex and its frozen flag; its label is a string or None."""

    __slots__ = ("_id", "_frozen", "_label")
    _defaults = {"frozen": False, "label": None}


class QuiverArrow(_Record):
    """An arrow from the vertex id ``src`` to ``dst``, and its frozen flag."""

    __slots__ = ("_id", "_src", "_dst", "_frozen")
    _defaults = {"frozen": False}


class IceQuiver:
    """An ice quiver, its vertices and arrows in id order.  Construction
    checks each vertex, then each arrow, once and in input order, and
    raises ValueError at the first fault; only checked ids are sorted.
    A fault of one vertex or arrow is located (see `_fault`).  The check
    files each vertex and arrow by id and ends in the build step `_build`,
    which keeps both indexes, so `validate_morphism` looks an image up in
    them; `_from_tables` runs only `_build`, on indexes `amalgamate` fills."""

    def __init__(self, vertices: Iterable[QuiverVertex], arrows: Iterable[QuiverArrow]):
        # the items checked so far fill `by_id`, then `arrow_by_id`: its size indexes a fault
        by_id = {}
        for v in vertices:
            if not isinstance(v._id, str):
                field, message = "id", "vertex id {!r} is not a string"
            elif v._id in by_id:
                field, message = "id", "duplicate vertex id {!r}"
            elif not isinstance(v._frozen, bool):
                field, message = "frozen", "frozen flag of vertex {!r} is not a boolean"
            elif v._label is not None and not isinstance(v._label, str):
                field, message = "label", "label of vertex {!r} is not a string"
            else:
                by_id[v._id] = v
                continue
            raise _fault(("vertices", len(by_id), field), message, v.id)
        arrow_by_id = {}
        for a in arrows:
            if not isinstance(a._id, str):
                field, message = "id", "arrow id {!r} is not a string"
            elif a._id in arrow_by_id:
                field, message = "id", "duplicate arrow id {!r}"
            # vertex ids are strings: an end of another type names no vertex
            elif not isinstance(a._src, str) or a._src not in by_id:
                field, message = "src", "arrow {!r} uses unknown vertex {!r}"
            elif not isinstance(a._dst, str) or a._dst not in by_id:
                field, message = "dst", "arrow {!r} uses unknown vertex {!r}"
            elif not isinstance(a._frozen, bool):
                field, message = "frozen", "frozen flag of arrow {!r} is not a boolean"
            elif a._frozen and not (by_id[a._src]._frozen and by_id[a._dst]._frozen):
                field, message = "frozen", "frozen arrow {!r} must join frozen vertices"
            else:
                arrow_by_id[a._id] = a
                continue
            # the value at fault fills the message's second field, if any
            raise _fault(("arrows", len(arrow_by_id), field), message, a.id, getattr(a, field))
        self._build(by_id, arrow_by_id)

    @classmethod
    def _from_tables(cls, by_id: dict, arrow_by_id: dict) -> "IceQuiver":
        """A quiver of indexes checked as `__init__` checks them, not copied."""
        q = cls.__new__(cls)
        q._build(by_id, arrow_by_id)
        return q

    def _build(self, by_id: dict, arrow_by_id: dict) -> None:
        # in this order, so that every quiver's attributes share one key table
        self._by_id, self._arrow_by_id = by_id, arrow_by_id
        self._vertices = tuple(sorted(by_id.values(), key=attrgetter("_id")))
        self._arrows = tuple(sorted(arrow_by_id.values(), key=attrgetter("_id")))
        self._components = None

    @property
    def vertices(self) -> tuple[QuiverVertex, ...]:
        return self._vertices

    @property
    def arrows(self) -> tuple[QuiverArrow, ...]:
        return self._arrows

    def frozen_components(self) -> tuple[frozenset[str], ...]:
        """Connected components of the frozen vertices under frozen arrows,
        in the order of their smallest ids.  This is the package's one
        union-find: the smaller root wins each union, so each root is the
        smallest id of its component.  It runs on the first call, and the
        quiver keeps its result for every later one."""
        if self._components is not None:
            return self._components
        parent = {v._id: v._id for v in self._vertices if v._frozen}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in self._arrows:
            if a._frozen:
                ra, rb = find(a._src), find(a._dst)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        groups: dict[str, set[str]] = {}
        for x in parent:
            groups.setdefault(find(x), set()).add(x)
        self._components = tuple(frozenset(groups[r]) for r in sorted(groups))
        return self._components

    def __eq__(self, other) -> bool:
        # a diagram's incidences mostly share their quivers' objects
        return self is other or (
            isinstance(other, IceQuiver)
            and self._vertices == other._vertices
            and self._arrows == other._arrows
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._arrows))

    def __repr__(self) -> str:
        return "IceQuiver({} vertices, {} arrows)".format(
            len(self._vertices), len(self._arrows)
        )


class QuiverMorphism(_Record):
    """A vertex-injective quiver map that may send arrows to zero.

    ``vertex_map`` and ``arrow_map`` are mappings from the ids of
    ``source`` to those of ``target``.  ``arrow_map`` values are target
    arrow ids, or None for zero.  Distinct arrows may share a non-zero
    image.  The morphism keeps read-only copies of both maps, so a
    morphism that a check has passed stays as it was checked.
    """

    __slots__ = ("_source", "_target", "_vertex_map", "_arrow_map")

    def __post_init__(self) -> None:
        self._vertex_map = _ReadOnlyDict(self._vertex_map)
        self._arrow_map = _ReadOnlyDict(self._arrow_map)


def validate_morphism(m: QuiverMorphism) -> ValidationReport:
    """Every fault of ``m``.  The maps are read in place, and the source's
    ids and the images are looked up in the quivers' own indexes, which
    their constructors built, so the check costs the size of the source,
    whatever the size of the target."""
    violations = []
    source, vmap, amap = m._source, m._vertex_map, m._arrow_map
    target_vertices, target_arrows = m._target._by_id, m._target._arrow_by_id
    for x in source._vertices:
        v = x._id
        if v not in vmap:
            violations.append("vertex {} has no image".format(v))
        elif not (isinstance(vmap[v], str) and vmap[v] in target_vertices):
            violations.append("vertex {} maps to unknown vertex {}".format(v, vmap[v]))
    # a key the source lacks would add its value to the image
    for v in vmap:
        if v not in source._by_id:
            violations.append("vertex map names unknown vertex {}".format(v))
    for a in amap:
        if a not in source._arrow_by_id:
            violations.append("arrow map names unknown arrow {}".format(a))
    images = [x for x in vmap.values() if isinstance(x, str) and x in target_vertices]
    if len(set(images)) != len(images):
        violations.append("vertex map is not injective")
    for a in source._arrows:
        if a._id not in amap:
            violations.append("arrow {} has no image".format(a._id))
            continue
        image = amap[a._id]
        if image is None:
            continue
        if not isinstance(image, str) or image not in target_arrows:
            violations.append("arrow {} maps to unknown arrow {}".format(a._id, image))
            continue
        ta = target_arrows[image]
        if ta._src != vmap.get(a._src) or ta._dst != vmap.get(a._dst):
            violations.append(
                "arrow {} does not respect endpoints under the vertex map".format(a._id)
            )
    return ValidationReport(tuple(violations))


def _check_slots(
    q: IceQuiver, slots: Iterable[tuple[Any, QuiverMorphism]], owner: str, part: str
) -> None:
    """Check the local data at a vertex: a quiver ``q`` and its ``(place,
    morphism)`` slots, such as a template's slot morphisms or a diagram's
    incidences at one vertex.  Each morphism, in order, must be valid, with
    as image a frozen component of ``q`` that no earlier one claimed;
    together the images must claim every frozen component, which the quiver
    keeps (`IceQuiver.frozen_components`).  The first fault raises
    ValueError, its message starting ``owner:`` and naming the ``part``."""
    components = set(q.frozen_components())
    claimed: set[frozenset[str]] = set()
    for place, m in slots:
        violations = validate_morphism(m).violations
        if violations:
            message = "{}: {} {} morphism invalid: {}"
            raise ValueError(message.format(owner, part, place, "; ".join(violations)))
        image = frozenset(m._vertex_map.values())
        if image not in components:
            raise ValueError(
                "{}: {} {} image is not a frozen component".format(owner, part, place)
            )
        # distinct components are disjoint
        if image in claimed:
            raise ValueError("{}: {} {} overlaps another {}".format(owner, part, place, part))
        claimed.add(image)
    leftover = sorted(x for c in components - claimed for x in c)
    if leftover:
        raise ValueError("{}: frozen vertices {} belong to no {}".format(owner, leftover, part))


class AmalgamationDiagram(_Record):
    """Gluing data over a ribbon graph.

    Each vertex carries a local quiver, each edge an interface quiver,
    and each halfedge a morphism from its edge's interface into its
    vertex's quiver: ``vertex_quivers``, ``edge_quivers`` and
    ``incidences`` map ids of ``graph`` to them.  At every vertex the
    incident interfaces must land on pairwise disjoint frozen components,
    one per halfedge.  Construction keeps read-only copies of the tables
    and checks them (`_validate_diagram`), so every diagram is valid, as
    every template is, and stays as it was checked.
    """

    __slots__ = ("_graph", "_vertex_quivers", "_edge_quivers", "_incidences")

    def __post_init__(self) -> None:
        tables = self._vertex_quivers, self._edge_quivers, self._incidences
        self._vertex_quivers, self._edge_quivers, self._incidences = map(_ReadOnlyDict, tables)
        _validate_diagram(self)


def _validate_diagram(d: AmalgamationDiagram) -> None:
    """`AmalgamationDiagram`'s check: the graph, one quiver per vertex and
    edge and one incidence per halfedge, from its edge's quiver into its
    vertex's, with no entry for anything the graph lacks, then at every
    vertex its incidences, in ring order, as `LocalTemplate` checks its
    slots (`_check_slots`).  The first fault raises ValueError."""
    g = d.graph
    require_valid(g)
    for v in g.vertices:
        if v not in d.vertex_quivers:
            raise ValueError("vertex {} has no quiver".format(v))
    edges = g.edges()
    for e in edges:
        if e not in d.edge_quivers:
            raise ValueError("edge {} has no interface quiver".format(e))
    for h in g.halfedges:
        if h not in d.incidences:
            raise ValueError("dangling incidence: halfedge {} has no morphism".format(h))
        m = d.incidences[h]
        if m.source != d.edge_quivers[g.edge_of(h)]:
            raise ValueError(
                "incidence at {} does not start from the edge quiver".format(h)
            )
        if m.target != d.vertex_quivers[g.at_vertex(h)]:
            raise ValueError(
                "incidence at {} does not land in the vertex quiver".format(h)
            )
    # every id has its entry, so a table with more entries names something
    # the graph lacks, which the gluing would ignore
    for table, ids, has, what in (
        (d.vertex_quivers, g.vertices, g.has_vertex, "quiver given for unknown vertex {!r}"),
        (d.edge_quivers, edges, g.is_edge, "interface quiver given for unknown edge {!r}"),
        (d.incidences, g.halfedges, g.has_halfedge, "incidence given for unknown halfedge {!r}"),
    ):
        if len(table) > len(ids):
            raise ValueError(what.format(next(k for k in table if not has(k))))
    for v in g.vertices:
        incidences = ((h, d.incidences[h]) for h in g.cyclic(v))
        _check_slots(d.vertex_quivers[v], incidences, "vertex {}".format(v), "incidence")


def amalgamate(d: AmalgamationDiagram) -> IceQuiver:
    """Glue the vertex quivers along the interface quivers.

    A diagram is valid once built: its incidences are vertex-injective,
    their images at a vertex are disjoint frozen components that cover
    its frozen vertices, and no edge is a loop.  So across an internal
    edge the two images of each interface vertex melt into one mutable
    vertex, no vertex lies in two pairs, and a pair is named by the
    smaller of its qualified ids ``vertex.local``; it keeps a label only
    when both members carry that same label, so labels do not depend on
    how the graph's vertices are named.  Interfaces on external edges
    stay frozen, frozen arrows included.  Interface arrows of an
    internal edge survive, unfrozen, between the images of their ends,
    exactly when both incidences keep them non-zero.  One pass over
    ``d.edge_quivers`` glues or freezes each interface; the result does
    not depend on the order of the diagram's tables, as the table-order
    tests in ``tests/test_gluing.py``, ``tests/test_quiver.py`` and
    ``tests/test_properties.py`` check.  Gluing checks only the
    qualified ids: two vertices or arrows with one, as ``a.(b.c)`` and
    ``(a.b).c``, raise ValueError.  Nothing else can fail, so the result
    is built unchecked (`IceQuiver._from_tables`): ids are joined
    strings, flags and labels come from checked quivers, every arrow end
    is a filed qualified id, and a kept frozen arrow lies in an external
    frozen component, so both of its ends are frozen."""
    g, vertex_quivers, incidences = d._graph, d._vertex_quivers, d._incidences
    # each local vertex's qualified id "vertex.local", and its label; the
    # edge pass renames both members of a glued pair to the smaller one
    names: dict[str, dict[str, str]] = {}
    labels: dict[str, Optional[str]] = {}
    for v in g.vertices:
        local = names[v] = {}
        for x in vertex_quivers[v]._vertices:
            local[x._id] = qualified = v + "." + x._id
            if qualified in labels:
                raise ValueError("two vertices have qualified id {!r}".format(qualified))
            labels[qualified] = x._label
    frozen_ids: set[str] = set()
    arrows = []
    for e, interface in d._edge_quivers.items():
        m1, t = incidences[e], g.twin_of(e)
        local, map1 = names[g.at_vertex(e)], m1._vertex_map
        if t is None:
            frozen_ids.update(local[x] for x in map1.values())
            continue
        names2, m2 = names[g.at_vertex(t)], incidences[t]
        for x in interface._vertices:
            i, j = map1[x._id], m2._vertex_map[x._id]
            keep, drop = sorted((local[i], names2[j]))
            local[i] = names2[j] = keep  # no other edge pairs either member
            if labels.pop(drop) != labels[keep]:
                labels[keep] = None
        for a in interface._arrows:
            if m1._arrow_map.get(a._id) is not None and m2._arrow_map.get(a._id) is not None:
                src, dst = local[map1[a._src]], local[map1[a._dst]]
                arrows.append(QuiverArrow(e + "." + a._id, src, dst))

    # external images are in no pair, so they keep their ids and stay frozen
    by_id = {x: QuiverVertex(x, x in frozen_ids, label) for x, label in labels.items()}
    for v in g.vertices:
        local = names[v]
        for a in vertex_quivers[v]._arrows:
            src = local[a._src]
            # frozen arrows live inside one frozen component, so the source
            # tells whether the component is an external one
            if not a._frozen or src in frozen_ids:
                arrows.append(QuiverArrow(v + "." + a._id, src, local[a._dst], a._frozen))
    arrow_by_id = {a._id: a for a in arrows}
    if len(arrow_by_id) < len(arrows):  # the check names the first repeated id
        return IceQuiver(by_id.values(), arrows)
    return IceQuiver._from_tables(by_id, arrow_by_id)


def _refine(
    quivers: Sequence[IceQuiver], start: Callable[[QuiverVertex], Any]
) -> Optional[list]:
    """Colour refinement (1-dimensional Weisfeiler-Leman) of ``quivers``
    together.  A vertex starts from the colour ``start(vertex)``; each
    round adds the multiset of its neighbours' colours, each with the
    direction and frozen flag of the arrow, until the number of colours
    stops growing.  One table numbers the colours of all quivers, so
    every isomorphism that keeps ``start`` keeps colours.

    Returns None at the first round after which two quivers differ in
    their multisets of colours; otherwise, per quiver, its colours and
    its arrows by vertex as ``(other end, tag)`` pairs, the tag being
    ``2 + frozen`` at the source and ``frozen`` at the target, so a loop
    is listed twice at its vertex."""
    arrows = []
    for q in quivers:
        ends: dict[str, list[tuple[str, int]]] = {v.id: [] for v in q.vertices}
        for a in q.arrows:
            ends[a.src].append((a.dst, 2 + a.frozen))
            ends[a.dst].append((a.src, a.frozen))
        arrows.append(ends)
    numbers: dict = {}
    colours = [
        {v.id: numbers.setdefault(start(v), len(numbers)) for v in q.vertices}
        for q in quivers
    ]
    count = 0
    while True:
        first = sorted(colours[0].values())
        if any(sorted(c.values()) != first for c in colours[1:]):
            return None
        if len(numbers) == count:
            return list(zip(colours, arrows))
        count, numbers, old = len(numbers), {}, colours
        colours = []
        for c, ends in zip(old, arrows):
            colours.append({
                v: numbers.setdefault(
                    (c[v], *sorted([(c[u], tag) for u, tag in ends[v]])), len(numbers)
                )
                for v in c
            })


def quivers_isomorphic(q1: IceQuiver, q2: IceQuiver) -> bool:
    """Exact isomorphism test respecting frozen flags and multiplicities.

    Labels are decoration and do not constrain the matching.  Colour
    refinement (`_refine`) from the frozen flags first; quivers whose
    colours differ are not isomorphic.  Then a depth-first search in the
    style of VF2 (Cordella et al. 2004) maps the vertices of ``q1`` in
    breadth-first order, each component from a vertex of its rarest
    colour.  A vertex may go only to an unused vertex of its colour among
    the neighbours of its parent's image, and a component's first vertex
    to any unused vertex of its colour.  It is kept when its arrows to
    the vertices mapped so far, itself included, are the arrows of its
    image to their images, so each step costs its degree.
    """
    refined = _refine((q1, q2), attrgetter("frozen"))
    if refined is None:
        return False
    (colour1, arrows1), (colour2, arrows2) = refined
    classes: dict[int, list[str]] = {}
    for w, c in colour2.items():
        classes.setdefault(c, []).append(w)
    order, parent = [], {}
    for root in sorted(colour1, key=lambda v: len(classes[colour1[v]])):
        if root in parent:
            continue
        parent[root] = None
        component = [root]
        for v in component:  # grows as it is read: breadth-first
            for u, _ in arrows1[v]:
                if u not in parent:
                    parent[u] = v
                    component.append(u)
        order += component
    image, used = {}, set()

    def candidates(v: str) -> Iterator[str]:
        p = parent[v]
        pool = classes[colour1[v]] if p is None else dict.fromkeys(x for x, _ in arrows2[image[p]])
        return (w for w in pool if colour2[w] == colour1[v] and w not in used)

    def fits(v: str, w: str) -> bool:
        mine = [(w if u == v else image[u], tag) for u, tag in arrows1[v] if u == v or u in image]
        theirs = [(x, tag) for x, tag in arrows2[w] if x == w or x in used]
        return sorted(mine) == sorted(theirs)

    if not order:
        return True
    # depth-first search with one iterator of candidates per vertex on an
    # explicit stack, so its depth is not bounded by the interpreter's
    # recursion limit
    stack = [candidates(order[0])]
    while stack:
        v = order[len(stack) - 1]
        if v in image:  # back from a dead end: free its image, try the next
            used.remove(image.pop(v))
        w = next((w for w in stack[-1] if fits(v, w)), None)
        if w is None:
            stack.pop()
            continue
        image[v] = w
        used.add(w)
        if len(stack) == len(order):
            return True
        stack.append(candidates(order[len(stack)]))
    return False
