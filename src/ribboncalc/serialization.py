"""Canonical JSON for every domain value, located parse errors, and DOT.

Serialization is canonical: ids are sorted, cyclic orders are rotated
to start at their smallest halfedge, keys are sorted and the encoding
is compact.  Parsing canonical text and serializing again returns the
same bytes, and the serializer never emits anything the parser
rejects.

`serialize` writes a bare `RibbonGraph` or `IceQuiver` itself, filling
templates whose keys are in sorted order with ids quoted as the encoder
quotes them.  Any other value is one call of the JSON encoder, which
hands each domain value to one hook, `_encode`, for a plain object to
write in its place.  One table, `_LAYOUTS`, says how each domain type is
written: most types by the attributes it names, so their JSON keys are
attribute names, which for quiver vertices and arrows are the keys of
the quiver format; graphs, quivers, templates (each slot morphism with
its interface quiver) and references by a function of their own, and a
graph or quiver inside another value decodes the text written for a
bare one.  The hook knows domain types by class name, so this module
imports only `ribboncalc.graph`; each parser imports the constructors
it calls.

`graph_dot` and `export_dot` write graphs and quivers as Graphviz DOT.
"""

from __future__ import annotations

import json
import marshal
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from .graph import RibbonGraph, VERTEX_KINDS, rotate_to_min

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Optional

    from .assembly import LocalTemplate
    from .quiver import AmalgamationDiagram, IceQuiver


class ParseError(ValueError):
    """Invalid input, located by a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        super().__init__("at {}: {}".format(self.pointer, message))


def _ptr(*tokens) -> str:
    return "".join("/" + str(t).replace("~", "~0").replace("/", "~1") for t in tokens)


def _loc(where) -> str:
    """The pointer of a location ``(pointer, token, ...)``.  Locations stay
    tuples until an error is raised, so valid input builds no pointers."""
    return where[0] + _ptr(*where[1:])


def _want(obj, typ, where, what):
    if not isinstance(obj, typ):
        raise ParseError(_loc(where), "expected {}".format(what))
    return obj


def _want_keys(obj, where, required, optional=()):
    _want(obj, dict, where, "an object")
    for key in required:
        if key not in obj:
            raise ParseError(_loc(where), "missing key {!r}".format(key))
    # with every required key present, only a larger object has an unknown key
    if len(obj) > len(required):
        for key in obj:
            if key not in required and key not in optional:
                raise ParseError(_loc(where + (key,)), "unknown key")
    return obj


def _want_str(obj, where):
    return _want(obj, str, where, "a string")


# -- graphs -------------------------------------------------------------


def graph_from_jsonable(obj: Any, pointer: str = "") -> RibbonGraph:
    """Check a graph object and build the graph.

    `_graph_tables` proves a well-formed graph fast and builds the graph's
    tables as it reads; when it declines, `_locate_graph_error` checks the
    structure and builds the graph with `RibbonGraph`, which checks the
    values."""
    try:
        tables = _graph_tables(obj)
    except (KeyError, TypeError):
        tables = None
    if tables is None:
        return _locate_graph_error(obj, pointer)
    return RibbonGraph._from_tables(*tables)


def _graph_tables(obj: Any):
    """The tables `RibbonGraph._from_tables` takes, built while a
    well-formed graph object is proved fast: exact types and sizes per
    entry, uniqueness and membership on whole tables, and each halfedge id
    struck off the ring entries once.  None when a check fails; a missing
    key, an unknown or repeated halfedge id, an unhashable value or ids
    that do not compare raise."""
    if type(obj) is not dict or len(obj) != 2:
        return None
    vertices, halfedges = obj["vertices"], obj["halfedges"]
    if type(vertices) is not list or type(halfedges) is not list:
        return None
    cyclic: dict[str, tuple[str, ...]] = {}
    kinds: dict[str, str] = {}
    labels: dict[str, str] = {}
    at: dict[str, str] = {}
    nxt: dict[str, str] = {}
    for entry in vertices:
        if type(entry) is not dict:
            return None
        vid, ring, kind = entry["id"], entry["cyclic"], entry["kind"]
        if len(entry) != 3:
            if len(entry) != 4:
                return None
            labels[vid] = entry["label"]
        if type(ring) is not list or kind not in VERTEX_KINDS:
            return None
        kinds[vid] = kind
        ring = tuple(ring)
        if ring:
            first = p = ring[-1]
            for h in ring:
                at[h] = vid
                nxt[p] = h
                p = h
                if h < first:
                    first = h
            # every ring of canonical input already starts at its smallest
            if ring[0] is not first:
                ring = rotate_to_min(ring)
        cyclic[vid] = ring
    if (
        len(cyclic) != len(vertices)
        or not set(map(type, cyclic)) <= {str}
        or not set(map(type, labels.values())) <= {str}
        or not set(map(type, at)) <= {str}
        or sum(map(len, cyclic.values())) != len(at)
    ):
        return None

    # every table holds one string object per id, the ring entry's, so
    # lookups across tables stop at identity; `undeclared` keeps each ring
    # entry until a halfedge entry declares it
    ids = dict(zip(at, at))
    undeclared = ids.copy()
    twin: dict[str, str] = {}
    external: list[str] = []
    for entry in halfedges:
        if type(entry) is not dict or len(entry) != 2:
            return None
        h = undeclared.pop(entry["id"])
        t = entry["twin"]
        if t is None:
            external.append(h)
        else:
            twin[h] = ids[t]
    # an involution, the twin table maps declared ids to declared ids
    if undeclared or list(map(twin.get, twin.values())) != list(twin):
        return None
    return cyclic, at, nxt, twin, external, kinds, labels


def _locate_graph_error(obj: Any, pointer: str) -> RibbonGraph:
    """Check a graph object's structure entry by entry, in input order, then
    build the graph with `RibbonGraph`, which checks the values, twins
    among them; the first fault, structure before value, raises a located
    `ParseError`."""
    _want_keys(obj, (pointer,), ("vertices", "halfedges"))
    vertices = _want(obj["vertices"], list, (pointer, "vertices"), "a list")
    halfedges = _want(obj["halfedges"], list, (pointer, "halfedges"), "a list")

    declared: dict[str, Optional[str]] = {}
    for i, entry in enumerate(halfedges):
        p = (pointer, "halfedges", i)
        _want_keys(entry, p, ("id", "twin"))
        hid = _want_str(entry["id"], p + ("id",))
        if hid in declared:
            raise ParseError(_loc(p + ("id",)), "duplicate halfedge id {!r}".format(hid))
        twin = entry["twin"]
        if twin is not None:
            twin = _want_str(twin, p + ("twin",))
        declared[hid] = twin

    rings: dict[str, list[str]] = {}
    kinds: dict[str, Any] = {}
    labels: dict[str, str] = {}
    for i, entry in enumerate(vertices):
        p = (pointer, "vertices", i)
        _want_keys(entry, p, ("id", "cyclic", "kind"), optional=("label",))
        vid = _want_str(entry["id"], p + ("id",))
        if vid in rings:
            raise ParseError(_loc(p + ("id",)), "duplicate vertex id {!r}".format(vid))
        ring = rings[vid] = _want(entry["cyclic"], list, p + ("cyclic",), "a list")
        for j, h in enumerate(ring):
            if _want_str(h, p + ("cyclic", j)) not in declared:
                raise ParseError(_loc(p + ("cyclic", j)), "unknown halfedge id {!r}".format(h))
        kinds[vid] = entry["kind"]
        if "label" in entry:
            labels[vid] = _want_str(entry["label"], p + ("label",))
    attached = {h for ring in rings.values() for h in ring}
    for hid in declared:
        if hid not in attached:
            raise ParseError(
                pointer + _ptr("halfedges"),
                "halfedge {!r} is attached to no vertex".format(hid),
            )
    twins = {h: t for h, t in declared.items() if t is not None}
    try:
        return RibbonGraph(rings, twins, kinds, labels)
    except ValueError as exc:
        # a halfedge of ``twin``, or a vertex of ``cyclic``, ``vertex_kind``
        # or ``vertex_label`` and the field of its entry
        table, key, *rest = exc.location
        if table == "twin":
            where = ("halfedges", list(declared).index(key), "twin")
        else:
            where = ("vertices", list(rings).index(key), table.replace("vertex_", ""), *rest)
        raise ParseError(pointer + _ptr(*where), str(exc)) from exc


def parse_graph(text: str) -> RibbonGraph:
    return graph_from_jsonable(_loads(text))


# -- quivers ------------------------------------------------------------


def quiver_from_jsonable(obj: Any, pointer: str = "") -> IceQuiver:
    """Check the structure of a quiver object and build each vertex and
    arrow straight from its entry; `IceQuiver` checks the values."""
    from .quiver import IceQuiver, QuiverArrow, QuiverVertex

    _want_keys(obj, (pointer,), ("vertices", "arrows"))
    vlist = _want(obj["vertices"], list, (pointer, "vertices"), "a list")
    alist = _want(obj["arrows"], list, (pointer, "arrows"), "a list")
    vertices = [
        QuiverVertex(**_want_keys(entry, (pointer, "vertices", i), ("id", "frozen", "label")))
        for i, entry in enumerate(vlist)
    ]
    arrows = [
        QuiverArrow(**_want_keys(entry, (pointer, "arrows", i), ("id", "src", "dst", "frozen")))
        for i, entry in enumerate(alist)
    ]
    try:
        return IceQuiver(vertices, arrows)
    except ValueError as exc:
        raise _located(exc, pointer) from exc


def _located(exc: ValueError, pointer: str, default: tuple = ()) -> ParseError:
    """A constructor's fault, at the location it keeps or else ``default``."""
    return ParseError(pointer + _ptr(*getattr(exc, "location", default)), str(exc))


def parse_quiver(text: str) -> IceQuiver:
    return quiver_from_jsonable(_loads(text))


def _morphism_maps(obj: Any, where):
    """The maps of an object whose keys are checked: the vertex map's
    values are strings, the arrow map's strings or nulls."""
    vmap = _want(obj["vertex_map"], dict, where + ("vertex_map",), "an object")
    amap = _want(obj["arrow_map"], dict, where + ("arrow_map",), "an object")
    for k, v in vmap.items():
        _want_str(v, where + ("vertex_map", k))
    for k, v in amap.items():
        if v is not None:
            _want_str(v, where + ("arrow_map", k))
    return vmap, amap


def template_from_jsonable(obj: Any, pointer: str = "") -> LocalTemplate:
    """Check a template object's structure and build the template, which
    checks the values; a fault of the slots as a whole points at them."""
    from .assembly import LocalTemplate
    from .quiver import QuiverMorphism

    _want_keys(
        obj, (pointer,), ("vertices", "arrows", "slots"), optional=("name", "stalk")
    )
    quiver = quiver_from_jsonable(
        {"vertices": obj["vertices"], "arrows": obj["arrows"]}, pointer
    )
    slots = []
    for i, entry in enumerate(_want(obj["slots"], list, (pointer, "slots"), "a list")):
        p = (pointer, "slots", i)
        _want_keys(entry, p, ("quiver", "vertex_map", "arrow_map"))
        boundary = quiver_from_jsonable(entry["quiver"], _loc(p + ("quiver",)))
        slots.append(QuiverMorphism(boundary, quiver, *_morphism_maps(entry, p)))
    try:
        return LocalTemplate(obj.get("name", "template"), quiver, tuple(slots), obj.get("stalk"))
    except ValueError as exc:
        raise _located(exc, pointer, ("slots",)) from exc


def parse_template(text: str) -> LocalTemplate:
    return template_from_jsonable(_loads(text))


def diagram_from_jsonable(obj: Any, pointer: str = "") -> AmalgamationDiagram:
    from .quiver import AmalgamationDiagram, QuiverMorphism

    _want_keys(
        obj, (pointer,), ("graph", "vertex_quivers", "edge_quivers", "incidences")
    )
    g = graph_from_jsonable(obj["graph"], pointer + _ptr("graph"))
    vq, eq = (
        _parse_once(quiver_from_jsonable, obj[key], (pointer, key))
        for key in ("vertex_quivers", "edge_quivers")
    )
    incidences = {}
    for h, m in _want(
        obj["incidences"], dict, (pointer, "incidences"), "an object"
    ).items():
        p = (pointer, "incidences", h)
        if not g.has_halfedge(h):
            raise ParseError(_loc(p), "unknown halfedge id {!r}".format(h))
        _want_keys(m, p, ("vertex_map", "arrow_map"))
        vmap, amap = _morphism_maps(m, p)
        e = g.edge_of(h)
        v = g.at_vertex(h)
        if e not in eq:
            raise ParseError(_loc(p), "no interface quiver for edge {!r}".format(e))
        if v not in vq:
            raise ParseError(_loc(p), "no quiver for vertex {!r}".format(v))
        incidences[h] = QuiverMorphism(eq[e], vq[v], vmap, amap)
    try:
        return AmalgamationDiagram(g, vq, eq, incidences)
    except ValueError as exc:
        raise _located(exc, pointer) from exc


def parse_diagram(text: str) -> AmalgamationDiagram:
    return diagram_from_jsonable(_loads(text))


def parse_choices(text: str) -> dict[str, str]:
    obj = _loads(text)
    _want_keys(obj, ("",), ("choices",))
    raw = _want(obj["choices"], dict, ("", "choices"), "an object")
    return {k: _want_str(v, ("", "choices", k)) for k, v in raw.items()}


def parse_assignments(text: str):
    """Template assignments: vertex to built-in name or inline template,
    each distinct inline template parsed once by `_parse_once`."""
    obj = _loads(text)
    _want_keys(obj, ("",), ("assignments",))
    raw = _want(obj["assignments"], dict, ("", "assignments"), "an object")
    inline = {v: t for v, t in raw.items() if not isinstance(t, str)}
    return {**raw, **_parse_once(template_from_jsonable, inline, ("", "assignments"))}


def _parse_once(parse, obj: Any, where) -> dict:
    """The object at ``where`` with each value parsed by ``parse`` at its own
    pointer: each distinct value once, at its first key, and that one result
    shared by every key that carries it.  Only a value that parsed is kept,
    so the first faulty copy raises at its own pointer.  `marshal` version 2
    writes no references, so its equal bytes mean equal decoded values."""
    keys = {k: marshal.dumps(v, 2) for k, v in _want(obj, dict, where, "an object").items()}
    parsed = {}  # the bytes of each value parsed so far: its result
    for k, key in keys.items():
        if key not in parsed:
            parsed[key] = parse(obj[k], _loc(where + (k,)))
    return {k: parsed[key] for k, key in keys.items()}


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("/", "invalid JSON: {}".format(exc)) from exc
    except RecursionError as exc:
        raise ParseError("/", "invalid JSON: nested too deeply") from exc


# -- serialization ------------------------------------------------------

# How each domain type is written, by class name: a tuple names the
# attributes that are the keys of a plain object, each a stored field or
# a property; a function builds the object.
_LAYOUTS: dict[str, Any] = {
    "Itinerary": ("start", "orient", "edges", "turns", "entries", "terminal", "length"),
    "Atom": ("kind", "halfedge"),
    "FunctorWord": ("atoms", "source", "target"),
    "Marker": ("kind", "ref"),
    "Summand": ("word", "source_halfedge", "index", "constant", "marker", "possibly_zero"),
    "Decomposition": ("source", "target", "side", "summands"),
    "ValidationReport": ("ok", "violations"),
    "SurfaceInvariants": ("genus", "boundary"),
    "BoundaryWalk": ("halfedges", "externals", "marked_points"),
    "Subgraph": ("graph", "vertices", "cut_halfedges"),
    "TaggedArc": ("kind", "edge", "puncture", "via", "tagging", "path"),
    "TrajectoryHit": ("source", "index", "target_kind", "target", "constant"),
    "QuiverVertex": ("id", "frozen", "label"),
    "QuiverArrow": ("id", "src", "dst", "frozen"),
    "QuiverMorphism": ("vertex_map", "arrow_map"),
    "AmalgamationDiagram": ("graph", "vertex_quivers", "edge_quivers", "incidences"),
    "RibbonGraph": lambda g: json.loads(_graph_text(g)),
    "IceQuiver": lambda q: json.loads(_quiver_text(q)),
    "LocalTemplate": lambda t: dict(
        json.loads(_quiver_text(t.quiver)), name=t.name, stalk=t.stalk,
        slots=[dict(_encode(m), quiver=m.source) for m in t.slots],
    ),
    "EdgeRef": lambda r: {"kind": "edge", "id": r.id},
    "VertexRef": lambda r: {"kind": "vertex", "id": r.id},
    "HalfedgeRef": lambda r: {"kind": "halfedge", "id": r.id},
}


class _Writers(dict):
    """Each domain class `_encode` has met, to the function that writes it,
    matched by name on first use and then found by one lookup.  Only a class
    a ``ribboncalc`` module defines matches; one that matches no entry
    raises and is not kept.  A tuple entry becomes one attribute getter,
    reading each field from its slot and each other property by name."""

    def __missing__(self, cls: type) -> Any:
        how = _LAYOUTS.get(cls.__name__) if cls.__module__.startswith("ribboncalc.") else None
        if how is None:
            raise TypeError("cannot serialize {!r}".format(cls))
        if type(how) is tuple:
            names = how
            get = attrgetter(*("_" + n if n in cls._fields else n for n in names))
            how = lambda value: dict(zip(names, get(value)))
        self[cls] = how
        return how


_WRITERS = _Writers()


def _encode(value: Any) -> Any:
    """The encoder's hook for a value it cannot write itself: a JSON
    object whose members the encoder then writes, calling back here for
    each domain value among them.  Dispatch is on the exact class."""
    return _WRITERS[type(value)](value)


def serialize(value: Any) -> str:
    """Canonical JSON text: sorted keys, compact separators, ASCII."""
    cls = type(value)
    if cls is RibbonGraph:
        return _graph_text(value)
    if cls.__name__ == "IceQuiver" and cls.__module__ == "ribboncalc.quiver":
        return _quiver_text(value)
    # domain values hold no cycles and each object `_encode` returns is
    # fresh, so there is no cycle to find
    return json.dumps(
        value, default=_encode, sort_keys=True, separators=(",", ":"), check_circular=False
    )


def _graph_text(g: RibbonGraph) -> str:
    """The canonical text of ``g``, the one writer of the graph layout:
    ids are quoted as the JSON encoder quotes them and each template lists
    its keys in sorted order."""
    quote = encode_basestring_ascii
    twin, cyclic, kind, label = g._twin, g._cyclic, g._kind, g._label
    halfedges = [
        '{"id":%s,"twin":%s}' % (quote(h), quote(twin[h]) if h in twin else "null")
        for h in g.halfedges
    ]
    vertices = []
    for v in g.vertices:
        lab = label.get(v)
        ring = ",".join(map(quote, cyclic[v]))
        if lab is None:
            vertices.append('{"cyclic":[%s],"id":%s,"kind":%s}' % (ring, quote(v), quote(kind[v])))
        else:
            vertices.append(
                '{"cyclic":[%s],"id":%s,"kind":%s,"label":%s}'
                % (ring, quote(v), quote(kind[v]), quote(lab))
            )
    return '{"halfedges":[%s],"vertices":[%s]}' % (",".join(halfedges), ",".join(vertices))


def _quiver_text(q: IceQuiver) -> str:
    """The canonical text of ``q``, the one writer of the quiver layout,
    quoted and ordered as `_graph_text` writes a graph."""
    quote = encode_basestring_ascii
    vertices = [
        '{"frozen":%s,"id":%s,"label":%s}'
        % ("true" if v._frozen else "false", quote(v._id),
           "null" if v._label is None else quote(v._label))
        for v in q._vertices
    ]
    arrows = [
        '{"dst":%s,"frozen":%s,"id":%s,"src":%s}'
        % (quote(a._dst), "true" if a._frozen else "false", quote(a._id), quote(a._src))
        for a in q._arrows
    ]
    return '{"arrows":[%s],"vertices":[%s]}' % (",".join(arrows), ",".join(vertices))


def to_jsonable(value: Any) -> Any:
    """The plain JSON value that `serialize` writes for ``value``: dicts,
    lists, strings, numbers, booleans and None, every dict key a string."""
    return json.loads(serialize(value))


# -- DOT ----------------------------------------------------------------


def _gvquote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_dot(g: RibbonGraph) -> str:
    """A plain undirected rendering: vertices as nodes, external stubs
    as points."""
    twin, at, kind = g._twin, g._at, g._kind
    quoted = {v: _gvquote(v) for v in g.vertices}
    lines = ["graph {"]
    lines += [
        "  %s [shape=%s];" % (q, "doublecircle" if kind[v] == "singular" else "circle")
        for v, q in quoted.items()
    ]
    for e in g.edges():
        t = twin.get(e, e)
        if t != e:
            lines.append("  %s -- %s [label=%s];" % (quoted[at[e]], quoted[at[t]], _gvquote(e)))
        else:
            stub = _gvquote("stub:" + e)
            lines.append("  %s [shape=point];" % stub)
            lines.append("  %s -- %s [label=%s];" % (quoted[at[e]], stub, _gvquote(e)))
    lines.append("}\n")
    return "\n".join(lines)


def export_dot(q: IceQuiver) -> str:
    """Deterministic DOT text: frozen vertices are boxes, frozen arrows
    are dashed."""
    quoted = {v._id: _gvquote(v._id) for v in q._vertices}
    lines = ["digraph {"]
    for v in q._vertices:
        shape = "box" if v._frozen else "ellipse"
        if v._label is None:
            lines.append("  %s [shape=%s];" % (quoted[v._id], shape))
        else:
            label = _gvquote(v._id + " (" + v._label + ")")
            lines.append("  %s [shape=%s label=%s];" % (quoted[v._id], shape, label))
    lines += [
        "  %s -> %s%s;" % (quoted[a._src], quoted[a._dst], " [style=dashed]" if a._frozen else "")
        for a in q._arrows
    ]
    lines.append("}\n")
    return "\n".join(lines)
