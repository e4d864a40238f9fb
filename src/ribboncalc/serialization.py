"""Canonical JSON for every domain value, with located parse errors.

Serialization is canonical: ids are sorted, cyclic orders are rotated
to start at their smallest halfedge, keys are sorted and the encoding
is compact.  Parsing canonical text and serializing again returns the
same bytes, and the serializer never emits anything the parser
rejects.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional

from .assembly import LocalTemplate, TaggedArc, TemplateSlot, validate_template
from .graph import (
    BoundaryWalk,
    RibbonGraph,
    Subgraph,
    SurfaceInvariants,
    ValidationReport,
    VERTEX_KINDS,
)
from .quiver import (
    AmalgamationDiagram,
    IceQuiver,
    QuiverArrow,
    QuiverMorphism,
    QuiverVertex,
    _gvquote,
)
from .trajectory import EdgeRef, HalfedgeRef, Itinerary, VertexRef
from .words import Decomposition, FunctorWord, Marker, Summand


class ParseError(ValueError):
    """Invalid input, located by a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        super().__init__("at {}: {}".format(self.pointer, message))


def _ptr(*tokens) -> str:
    out = []
    for t in tokens:
        t = str(t).replace("~", "~0").replace("/", "~1")
        out.append(t)
    return "/" + "/".join(out) if out else ""


def _want(obj, typ, pointer, what):
    if not isinstance(obj, typ):
        raise ParseError(pointer, "expected {}".format(what))
    return obj


def _want_keys(obj, pointer, required, optional=()):
    _want(obj, dict, pointer, "an object")
    for key in required:
        if key not in obj:
            raise ParseError(pointer, "missing key {!r}".format(key))
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError(pointer + _ptr(key), "unknown key")
    return obj


def _want_str(obj, pointer):
    return _want(obj, str, pointer, "a string")


# -- graphs -------------------------------------------------------------


def graph_from_jsonable(obj: Any, pointer: str = "") -> RibbonGraph:
    _want_keys(obj, pointer, ("vertices", "halfedges"))
    vertices = _want(obj["vertices"], list, pointer + _ptr("vertices"), "a list")
    halfedges = _want(obj["halfedges"], list, pointer + _ptr("halfedges"), "a list")

    declared: dict[str, Optional[str]] = {}
    for i, entry in enumerate(halfedges):
        p = pointer + _ptr("halfedges", i)
        _want_keys(entry, p, ("id", "twin"))
        hid = _want_str(entry["id"], p + _ptr("id"))
        if hid in declared:
            raise ParseError(p + _ptr("id"), "duplicate halfedge id {!r}".format(hid))
        twin = entry["twin"]
        if twin is not None:
            twin = _want_str(twin, p + _ptr("twin"))
        declared[hid] = twin
    for i, entry in enumerate(halfedges):
        hid, twin = entry["id"], entry["twin"]
        if twin is None:
            continue
        p = pointer + _ptr("halfedges", i, "twin")
        if twin not in declared:
            raise ParseError(p, "unknown halfedge id {!r}".format(twin))
        if declared[twin] != hid:
            raise ParseError(p, "twin of {!r} does not point back".format(hid))

    cyclic: dict[str, list[str]] = {}
    kinds: dict[str, str] = {}
    labels: dict[str, str] = {}
    attached: dict[str, str] = {}
    for i, entry in enumerate(vertices):
        p = pointer + _ptr("vertices", i)
        _want_keys(entry, p, ("id", "cyclic", "kind"), optional=("label",))
        vid = _want_str(entry["id"], p + _ptr("id"))
        if vid in cyclic:
            raise ParseError(p + _ptr("id"), "duplicate vertex id {!r}".format(vid))
        ring = _want(entry["cyclic"], list, p + _ptr("cyclic"), "a list")
        cyclic[vid] = []
        for j, h in enumerate(ring):
            hp = p + _ptr("cyclic", j)
            h = _want_str(h, hp)
            if h not in declared:
                raise ParseError(hp, "unknown halfedge id {!r}".format(h))
            if h in attached:
                raise ParseError(hp, "halfedge {!r} already attached".format(h))
            attached[h] = vid
            cyclic[vid].append(h)
        kind = _want_str(entry["kind"], p + _ptr("kind"))
        if kind not in VERTEX_KINDS:
            raise ParseError(p + _ptr("kind"), "unknown vertex kind {!r}".format(kind))
        kinds[vid] = kind
        if "label" in entry:
            labels[vid] = _want_str(entry["label"], p + _ptr("label"))
    for hid in declared:
        if hid not in attached:
            raise ParseError(
                pointer + _ptr("halfedges"),
                "halfedge {!r} is attached to no vertex".format(hid),
            )
    twin = {h: t for h, t in declared.items() if t is not None}
    return RibbonGraph(cyclic, twin, kinds, labels)


def parse_graph(text: str) -> RibbonGraph:
    return graph_from_jsonable(_loads(text))


# -- quivers ------------------------------------------------------------


def quiver_from_jsonable(obj: Any, pointer: str = "") -> IceQuiver:
    _want_keys(obj, pointer, ("vertices", "arrows"))
    vlist = _want(obj["vertices"], list, pointer + _ptr("vertices"), "a list")
    alist = _want(obj["arrows"], list, pointer + _ptr("arrows"), "a list")
    vertices = []
    ids = set()
    for i, entry in enumerate(vlist):
        p = pointer + _ptr("vertices", i)
        _want_keys(entry, p, ("id", "frozen", "label"))
        vid = _want_str(entry["id"], p + _ptr("id"))
        if vid in ids:
            raise ParseError(p + _ptr("id"), "duplicate vertex id {!r}".format(vid))
        ids.add(vid)
        frozen = _want(entry["frozen"], bool, p + _ptr("frozen"), "a boolean")
        label = entry["label"]
        if label is not None:
            label = _want_str(label, p + _ptr("label"))
        vertices.append(QuiverVertex(vid, frozen, label))
    arrows = []
    aids = set()
    for i, entry in enumerate(alist):
        p = pointer + _ptr("arrows", i)
        _want_keys(entry, p, ("id", "src", "dst", "frozen"))
        aid = _want_str(entry["id"], p + _ptr("id"))
        if aid in aids:
            raise ParseError(p + _ptr("id"), "duplicate arrow id {!r}".format(aid))
        aids.add(aid)
        src = _want_str(entry["src"], p + _ptr("src"))
        dst = _want_str(entry["dst"], p + _ptr("dst"))
        for end, key in ((src, "src"), (dst, "dst")):
            if end not in ids:
                raise ParseError(p + _ptr(key), "unknown vertex id {!r}".format(end))
        frozen = _want(entry["frozen"], bool, p + _ptr("frozen"), "a boolean")
        arrows.append(QuiverArrow(aid, src, dst, frozen))
    try:
        return IceQuiver(vertices, arrows)
    except ValueError as exc:
        raise ParseError(pointer or "/", str(exc)) from exc


def parse_quiver(text: str) -> IceQuiver:
    return quiver_from_jsonable(_loads(text))


def _morphism_maps_from_jsonable(obj: Any, pointer: str):
    _want_keys(obj, pointer, ("vertex_map", "arrow_map"))
    vmap_obj = _want(obj["vertex_map"], dict, pointer + _ptr("vertex_map"), "an object")
    amap_obj = _want(obj["arrow_map"], dict, pointer + _ptr("arrow_map"), "an object")
    vmap = {}
    for k, v in vmap_obj.items():
        vmap[k] = _want_str(v, pointer + _ptr("vertex_map", k))
    amap = {}
    for k, v in amap_obj.items():
        if v is not None:
            v = _want_str(v, pointer + _ptr("arrow_map", k))
        amap[k] = v
    return vmap, amap


def template_from_jsonable(obj: Any, pointer: str = "") -> LocalTemplate:
    _want_keys(
        obj, pointer, ("vertices", "arrows", "slots"), optional=("name", "stalk")
    )
    quiver = quiver_from_jsonable(
        {"vertices": obj["vertices"], "arrows": obj["arrows"]}, pointer
    )
    slots = []
    slot_list = _want(obj["slots"], list, pointer + _ptr("slots"), "a list")
    for i, entry in enumerate(slot_list):
        p = pointer + _ptr("slots", i)
        _want_keys(entry, p, ("quiver", "vertex_map", "arrow_map"))
        boundary = quiver_from_jsonable(entry["quiver"], p + _ptr("quiver"))
        vmap, amap = _morphism_maps_from_jsonable(
            {"vertex_map": entry["vertex_map"], "arrow_map": entry["arrow_map"]}, p
        )
        slots.append(TemplateSlot(boundary, vmap, amap))
    name = obj.get("name", "template")
    if name is not None:
        name = _want_str(name, pointer + _ptr("name"))
    stalk = obj.get("stalk")
    if stalk is not None:
        stalk = _want_str(stalk, pointer + _ptr("stalk"))
    t = LocalTemplate(name, quiver, tuple(slots), stalk)
    try:
        validate_template(t)
    except ValueError as exc:
        raise ParseError(pointer + _ptr("slots"), str(exc)) from exc
    return t


def parse_template(text: str) -> LocalTemplate:
    return template_from_jsonable(_loads(text))


def diagram_from_jsonable(obj: Any, pointer: str = "") -> AmalgamationDiagram:
    _want_keys(
        obj, pointer, ("graph", "vertex_quivers", "edge_quivers", "incidences")
    )
    g = graph_from_jsonable(obj["graph"], pointer + _ptr("graph"))
    vq = {}
    for v, q in _want(
        obj["vertex_quivers"], dict, pointer + _ptr("vertex_quivers"), "an object"
    ).items():
        vq[v] = quiver_from_jsonable(q, pointer + _ptr("vertex_quivers", v))
    eq = {}
    for e, q in _want(
        obj["edge_quivers"], dict, pointer + _ptr("edge_quivers"), "an object"
    ).items():
        eq[e] = quiver_from_jsonable(q, pointer + _ptr("edge_quivers", e))
    incidences = {}
    for h, m in _want(
        obj["incidences"], dict, pointer + _ptr("incidences"), "an object"
    ).items():
        p = pointer + _ptr("incidences", h)
        if not g.has_halfedge(h):
            raise ParseError(p, "unknown halfedge id {!r}".format(h))
        vmap, amap = _morphism_maps_from_jsonable(m, p)
        e = g.edge_of(h)
        v = g.at_vertex(h)
        if e not in eq:
            raise ParseError(p, "no interface quiver for edge {!r}".format(e))
        if v not in vq:
            raise ParseError(p, "no quiver for vertex {!r}".format(v))
        incidences[h] = QuiverMorphism(eq[e], vq[v], vmap, amap)
    return AmalgamationDiagram(g, vq, eq, incidences)


def parse_diagram(text: str) -> AmalgamationDiagram:
    return diagram_from_jsonable(_loads(text))


def parse_choices(text: str) -> dict[str, str]:
    obj = _loads(text)
    _want_keys(obj, "", ("choices",))
    raw = _want(obj["choices"], dict, _ptr("choices"), "an object")
    return {k: _want_str(v, _ptr("choices", k)) for k, v in raw.items()}


def parse_assignments(text: str):
    """Template assignments: vertex to built-in name or inline template."""
    obj = _loads(text)
    _want_keys(obj, "", ("assignments",))
    raw = _want(obj["assignments"], dict, _ptr("assignments"), "an object")
    out = {}
    for v, t in raw.items():
        if isinstance(t, str):
            out[v] = t
        else:
            out[v] = template_from_jsonable(t, _ptr("assignments", v))
    return out


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("/", "invalid JSON: {}".format(exc)) from exc
    except RecursionError as exc:
        raise ParseError("/", "invalid JSON: nested too deeply") from exc


# -- serialization ------------------------------------------------------


def _ref_jsonable(ref) -> Any:
    if ref is None:
        return None
    kind = {EdgeRef: "edge", VertexRef: "vertex", HalfedgeRef: "halfedge"}[type(ref)]
    return {"kind": kind, "id": ref.id}


def to_jsonable(value: Any) -> Any:
    if isinstance(value, RibbonGraph):
        return {
            "vertices": [
                dict(
                    [("id", v), ("cyclic", list(value.cyclic(v))), ("kind", value.kind(v))]
                    + ([("label", value.label(v))] if value.label(v) is not None else [])
                )
                for v in value.vertices
            ],
            "halfedges": [
                {"id": h, "twin": value.twin_of(h)} for h in value.halfedges
            ],
        }
    if isinstance(value, IceQuiver):
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
    if isinstance(value, LocalTemplate):
        base = to_jsonable(value.quiver)
        base["name"] = value.name
        base["stalk"] = value.stalk
        base["slots"] = [
            {
                "quiver": to_jsonable(s.boundary),
                "vertex_map": dict(sorted(s.vertex_map.items())),
                "arrow_map": dict(sorted(s.arrow_map.items())),
            }
            for s in value.slots
        ]
        return base
    if isinstance(value, AmalgamationDiagram):
        return {
            "graph": to_jsonable(value.graph),
            "vertex_quivers": {
                v: to_jsonable(q) for v, q in sorted(value.vertex_quivers.items())
            },
            "edge_quivers": {
                e: to_jsonable(q) for e, q in sorted(value.edge_quivers.items())
            },
            "incidences": {
                h: {
                    "vertex_map": dict(sorted(m.vertex_map.items())),
                    "arrow_map": dict(sorted(m.arrow_map.items())),
                }
                for h, m in sorted(value.incidences.items())
            },
        }
    if isinstance(value, Itinerary):
        return {
            "start": value.start,
            "orient": value.orient,
            "edges": list(value.edges),
            "turns": list(value.turns),
            "entries": list(value.entries),
            "terminal": value.terminal,
            "length": value.length,
        }
    if isinstance(value, FunctorWord):
        return {
            "atoms": [{"kind": a.kind, "halfedge": a.halfedge} for a in value.atoms],
            "source": _ref_jsonable(value.source),
            "target": _ref_jsonable(value.target),
        }
    if isinstance(value, Marker):
        return {"kind": value.kind, "ref": value.ref}
    if isinstance(value, Summand):
        return {
            "word": to_jsonable(value.word),
            "source_halfedge": value.source_halfedge,
            "index": value.index,
            "constant": value.constant,
            "marker": to_jsonable(value.marker) if value.marker else None,
            "possibly_zero": value.possibly_zero,
        }
    if isinstance(value, Decomposition):
        return {
            "source": _ref_jsonable(value.source),
            "target": _ref_jsonable(value.target),
            "side": value.side,
            "summands": [to_jsonable(s) for s in value.summands],
        }
    if isinstance(value, ValidationReport):
        return {"ok": value.ok, "violations": list(value.violations)}
    if isinstance(value, SurfaceInvariants):
        return {"genus": value.genus, "boundary": list(value.boundary)}
    if isinstance(value, BoundaryWalk):
        return {
            "halfedges": list(value.halfedges),
            "externals": list(value.externals),
            "marked_points": value.marked_points,
        }
    if isinstance(value, Subgraph):
        return {
            "graph": to_jsonable(value.graph),
            "vertices": list(value.vertices),
            "cut_halfedges": list(value.cut_halfedges),
        }
    if isinstance(value, TaggedArc):
        return {
            "kind": value.kind,
            "edge": value.edge,
            "puncture": value.puncture,
            "via": value.via,
            "tagging": value.tagging,
            "path": to_jsonable(value.path) if value.path else None,
        }
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError("cannot serialize {!r}".format(type(value)))


def serialize(value: Any) -> str:
    return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))


# -- DOT for graphs ------------------------------------------------------


def graph_dot(g: RibbonGraph) -> str:
    """A plain undirected rendering: vertices as nodes, external stubs
    as points."""
    lines = ["graph {"]
    for v in g.vertices:
        shape = "doublecircle" if g.kind(v) == "singular" else "circle"
        lines.append("  {} [shape={}];".format(_gvquote(v), shape))
    for e in g.edges():
        pair = g.halfedges_of(e)
        if len(pair) == 2:
            lines.append(
                "  {} -- {} [label={}];".format(
                    _gvquote(g.at_vertex(pair[0])),
                    _gvquote(g.at_vertex(pair[1])),
                    _gvquote(e),
                )
            )
        else:
            stub = "stub:{}".format(e)
            lines.append("  {} [shape=point];".format(_gvquote(stub)))
            lines.append(
                "  {} -- {} [label={}];".format(
                    _gvquote(g.at_vertex(pair[0])), _gvquote(stub), _gvquote(e)
                )
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
