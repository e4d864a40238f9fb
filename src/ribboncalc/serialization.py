"""Canonical JSON for every domain value, located parse errors, and DOT.

Serialization is canonical: ids are sorted, cyclic orders are rotated
to start at their smallest halfedge, keys are sorted and the encoding
is compact.  Parsing canonical text and serializing again returns the
same bytes, and the serializer never emits anything the parser
rejects.

`serialize` is one call of the JSON encoder, which hands each domain
value to one hook, `_encode`, for a plain object to write in its place.
The hook knows domain types by class name, so this module imports only
`ribboncalc.graph`; each parser imports the constructors it calls.  Most
types are written as the attributes `_ATTRIBUTES` names, so their JSON
keys are attribute names, which for quiver vertices and arrows are the
keys of the quiver format.  Graphs, quivers, templates, template slots
and references have their own branch.

`graph_dot` and `export_dot` write graphs and quivers as Graphviz DOT.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

from .graph import RibbonGraph, VERTEX_KINDS

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
    """Check a graph object and build the graph from the checked tables.

    `_graph_tables` proves a well-formed graph fast; when it declines,
    `_locate_graph_error` finds the fault."""
    try:
        tables = _graph_tables(obj)
    except (KeyError, TypeError):
        tables = None
    if tables is None:
        tables = _locate_graph_error(obj, pointer)
    return RibbonGraph._from_tables(*tables)


def _graph_tables(obj: Any):
    """The tables of a well-formed graph object, proved fast: exact types
    and sizes per entry, uniqueness and membership on whole tables.  None
    when a check fails; a missing key or an unhashable value raises."""
    if type(obj) is not dict or len(obj) != 2:
        return None
    vertices, halfedges = obj["vertices"], obj["halfedges"]
    if type(vertices) is not list or type(halfedges) is not list:
        return None
    declared: dict[str, Optional[str]] = {}
    for entry in halfedges:
        if type(entry) is not dict or len(entry) != 2:
            return None
        declared[entry["id"]] = entry["twin"]
    if len(declared) != len(halfedges) or not set(map(type, declared)) <= {str}:
        return None
    # equal to its inverse, the twin table maps declared ids to declared ids
    twins = {h: t for h, t in declared.items() if t is not None}
    if {t: h for h, t in twins.items()} != twins:
        return None

    rings: dict[str, list[str]] = {}
    kinds: dict[str, str] = {}
    labels: dict[str, str] = {}
    attached: dict[str, str] = {}
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
        rings[vid] = ring
        kinds[vid] = kind
        for h in ring:
            attached[h] = vid
    if (
        len(rings) != len(vertices)
        or not set(map(type, rings)) <= {str}
        or not set(map(type, labels.values())) <= {str}
        or sum(map(len, rings.values())) != len(attached)
        or attached.keys() != declared.keys()
    ):
        return None
    return rings, attached, twins, kinds, labels, declared


def _locate_graph_error(obj: Any, pointer: str):
    """Check a graph object element by element, in input order, and raise
    the located `ParseError` of its first fault.  Returns the tables of
    input that only the exact-type checks of `_graph_tables` declined,
    such as ``str`` or ``dict`` subclasses."""
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
    twins: dict[str, str] = {}
    for i, (hid, twin) in enumerate(declared.items()):
        if twin is None:
            continue
        p = (pointer, "halfedges", i, "twin")
        if twin not in declared:
            raise ParseError(_loc(p), "unknown halfedge id {!r}".format(twin))
        if declared[twin] != hid:
            raise ParseError(_loc(p), "twin of {!r} does not point back".format(hid))
        twins[hid] = twin

    rings: dict[str, list[str]] = {}
    kinds: dict[str, str] = {}
    labels: dict[str, str] = {}
    attached: dict[str, str] = {}
    for i, entry in enumerate(vertices):
        p = (pointer, "vertices", i)
        _want_keys(entry, p, ("id", "cyclic", "kind"), optional=("label",))
        vid = _want_str(entry["id"], p + ("id",))
        if vid in rings:
            raise ParseError(_loc(p + ("id",)), "duplicate vertex id {!r}".format(vid))
        ring = rings[vid] = _want(entry["cyclic"], list, p + ("cyclic",), "a list")
        for j, h in enumerate(ring):
            hp = p + ("cyclic", j)
            _want_str(h, hp)
            if h not in declared:
                raise ParseError(_loc(hp), "unknown halfedge id {!r}".format(h))
            if h in attached:
                raise ParseError(_loc(hp), "halfedge {!r} already attached".format(h))
            attached[h] = vid
        kind = _want_str(entry["kind"], p + ("kind",))
        if kind not in VERTEX_KINDS:
            raise ParseError(_loc(p + ("kind",)), "unknown vertex kind {!r}".format(kind))
        kinds[vid] = kind
        if "label" in entry:
            labels[vid] = _want_str(entry["label"], p + ("label",))
    for hid in declared:
        if hid not in attached:
            raise ParseError(
                pointer + _ptr("halfedges"),
                "halfedge {!r} is attached to no vertex".format(hid),
            )
    return rings, attached, twins, kinds, labels, declared


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
    """Copies of the maps of an object whose keys are checked: the vertex
    map's values are strings, the arrow map's strings or nulls."""
    vmap = _want(obj["vertex_map"], dict, where + ("vertex_map",), "an object")
    amap = _want(obj["arrow_map"], dict, where + ("arrow_map",), "an object")
    for k, v in vmap.items():
        _want_str(v, where + ("vertex_map", k))
    for k, v in amap.items():
        if v is not None:
            _want_str(v, where + ("arrow_map", k))
    return dict(vmap), dict(amap)


def template_from_jsonable(obj: Any, pointer: str = "") -> LocalTemplate:
    """Check a template object's structure and build the template, which
    checks the values; a fault of the slots as a whole points at them."""
    from .assembly import LocalTemplate, TemplateSlot

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
        slots.append(TemplateSlot(boundary, *_morphism_maps(entry, p)))
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
        {
            k: quiver_from_jsonable(q, pointer + _ptr(key, k))
            for k, q in _want(obj[key], dict, (pointer, key), "an object").items()
        }
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
    return AmalgamationDiagram(g, vq, eq, incidences)


def parse_diagram(text: str) -> AmalgamationDiagram:
    return diagram_from_jsonable(_loads(text))


def parse_choices(text: str) -> dict[str, str]:
    obj = _loads(text)
    _want_keys(obj, ("",), ("choices",))
    raw = _want(obj["choices"], dict, ("", "choices"), "an object")
    return {k: _want_str(v, ("", "choices", k)) for k, v in raw.items()}


def parse_assignments(text: str):
    """Template assignments: vertex to built-in name or inline template."""
    obj = _loads(text)
    _want_keys(obj, ("",), ("assignments",))
    raw = _want(obj["assignments"], dict, ("", "assignments"), "an object")
    return {
        v: t if isinstance(t, str) else template_from_jsonable(t, _ptr("assignments", v))
        for v, t in raw.items()
    }


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("/", "invalid JSON: {}".format(exc)) from exc
    except RecursionError as exc:
        raise ParseError("/", "invalid JSON: nested too deeply") from exc


# -- serialization ------------------------------------------------------

# The JSON keys of each type written as a plain object of its attributes,
# by class name; each key is an attribute name, a stored field or a
# property.
_ATTRIBUTES = {
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
}

# The types with a branch of their own in `_encode`, by class name; a
# reference's branch is its kind.
_BRANCHES = {
    "RibbonGraph": "graph",
    "IceQuiver": "quiver",
    "LocalTemplate": "template",
    "TemplateSlot": "slot",
    "EdgeRef": "edge",
    "VertexRef": "vertex",
    "HalfedgeRef": "halfedge",
}

# Each domain class `_encode` has met, to its entry in one of the tables
# above: a class is matched by name once, then found by one lookup.
_BY_CLASS: dict[type, Any] = {}


def _encode(value: Any) -> Any:
    """The encoder's hook for a value it cannot write itself: a JSON
    object whose members the encoder then writes, calling back here for
    each domain value among them.  Dispatch is on the exact class, which
    matches a table entry only if a ``ribboncalc`` module defines it."""
    cls = type(value)
    how = _BY_CLASS.get(cls)
    if how is None:
        if cls.__module__.startswith("ribboncalc."):
            how = _ATTRIBUTES.get(cls.__name__) or _BRANCHES.get(cls.__name__)
        if how is None:
            if isinstance(value, Mapping):
                return dict(value)
            raise TypeError("cannot serialize {!r}".format(cls))
        _BY_CLASS[cls] = how
    if type(how) is tuple:
        return {name: getattr(value, name) for name in how}
    if how == "graph":
        cyclic, kind, label, twin = value._cyclic, value._kind, value._label, value._twin
        vertices = []
        for v in value._vertices:
            entry = {"id": v, "cyclic": cyclic[v], "kind": kind[v]}
            lab = label.get(v)
            if lab is not None:
                entry["label"] = lab
            vertices.append(entry)
        return {
            "vertices": vertices,
            "halfedges": [{"id": h, "twin": twin.get(h)} for h in value._halfedges],
        }
    if how == "quiver":
        # literal dicts: a hook call per vertex and arrow is about 40% slower
        return {
            "vertices": [
                {"id": v.id, "frozen": v.frozen, "label": v.label}
                for v in value.vertices
            ],
            "arrows": [
                {"id": a.id, "src": a.src, "dst": a.dst, "frozen": a.frozen}
                for a in value.arrows
            ],
        }
    if how == "template":
        out = _encode(value.quiver)
        out.update(name=value.name, stalk=value.stalk, slots=value.slots)
        return out
    if how == "slot":
        return dict(quiver=value.boundary, vertex_map=value.vertex_map, arrow_map=value.arrow_map)
    return {"kind": how, "id": value.id}


def serialize(value: Any) -> str:
    """Canonical JSON text: sorted keys, compact separators, ASCII."""
    # domain values hold no cycles and each object `_encode` returns is
    # fresh, so there is no cycle to find
    return json.dumps(
        value, default=_encode, sort_keys=True, separators=(",", ":"), check_circular=False
    )


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
    twin, at = g._twin, g._at
    quoted = {v: _gvquote(v) for v in g.vertices}
    lines = ["graph {"]
    for v in g.vertices:
        shape = "doublecircle" if g.kind(v) == "singular" else "circle"
        lines.append("  {} [shape={}];".format(quoted[v], shape))
    for e in g.edges():
        t = twin.get(e, e)
        if t != e:
            lines.append(
                "  {} -- {} [label={}];".format(quoted[at[e]], quoted[at[t]], _gvquote(e))
            )
        else:
            stub = _gvquote("stub:{}".format(e))
            lines.append("  {} [shape=point];".format(stub))
            lines.append(
                "  {} -- {} [label={}];".format(quoted[at[e]], stub, _gvquote(e))
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(q: IceQuiver) -> str:
    """Deterministic DOT text: frozen vertices are boxes, frozen arrows
    are dashed."""
    lines = ["digraph {"]
    for v in q.vertices:
        shape = "box" if v.frozen else "ellipse"
        attrs = "shape={}".format(shape)
        if v.label is not None:
            attrs += ' label={}'.format(_gvquote("{} ({})".format(v.id, v.label)))
        lines.append("  {} [{}];".format(_gvquote(v.id), attrs))
    for a in q.arrows:
        suffix = " [style=dashed]" if a.frozen else ""
        lines.append(
            "  {} -> {}{};".format(_gvquote(a.src), _gvquote(a.dst), suffix)
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
