"""Local quiver templates and their assembly over a ribbon graph.

A template is a local quiver together with one gluing slot per incident
edge; a slot is a morphism of an interface quiver onto one frozen
component.  Assembly instantiates a template at every graph vertex,
matches slots across edges (reversing the interface, see
`assemble_global`) and amalgamates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .graph import PLAIN, RibbonGraph, SINGULAR, require_valid
from .quiver import (
    AmalgamationDiagram,
    IceQuiver,
    QuiverArrow,
    QuiverMorphism,
    QuiverVertex,
    _require_frozen_cover,
    amalgamate,
    validate_morphism,
)
from .trajectory import CW, Itinerary, itinerary

PLAIN_TAG = "plain"
NOTCHED_TAG = "notched"


@dataclass(frozen=True)
class TemplateSlot:
    boundary: IceQuiver
    vertex_map: Mapping[str, str]
    arrow_map: Mapping[str, Optional[str]]


@dataclass(frozen=True)
class LocalTemplate:
    """A vertex quiver with one interface slot per incident edge.

    Slot images must be pairwise disjoint frozen components of the
    quiver and together exhaust its frozen vertices.
    """

    name: str
    quiver: IceQuiver
    slots: tuple[TemplateSlot, ...]
    stalk: Optional[str] = None

    @property
    def valency(self) -> int:
        return len(self.slots)

    def slot_morphism(self, index: int) -> QuiverMorphism:
        slot = self.slots[index]
        return QuiverMorphism(slot.boundary, self.quiver, slot.vertex_map, slot.arrow_map)


def validate_template(t: LocalTemplate) -> None:
    def images():
        # each slot's morphism is checked before its image is judged
        for i, slot in enumerate(t.slots):
            report = validate_morphism(t.slot_morphism(i))
            if not report.ok:
                raise ValueError(
                    "template {}: slot {} morphism invalid: {}".format(
                        t.name, i, "; ".join(report.violations)
                    )
                )
            yield i, frozenset(slot.vertex_map.values())

    _require_frozen_cover(
        t.quiver,
        images(),
        lambda i: "template {}: slot {} image is not a frozen component".format(t.name, i),
        lambda i: "template {}: slot {} overlaps another slot".format(t.name, i),
        lambda rest: "template {}: frozen vertices {} belong to no slot".format(t.name, rest),
    )


def _point_boundary() -> IceQuiver:
    return IceQuiver([QuiverVertex("u", True)], [])


def _rank1_trivalent() -> LocalTemplate:
    verts = [QuiverVertex(str(i), True) for i in (1, 2, 3)]
    arrows = [
        QuiverArrow("c1", "2", "1"),
        QuiverArrow("c2", "3", "2"),
        QuiverArrow("c3", "1", "3"),
    ]
    slots = tuple(
        TemplateSlot(_point_boundary(), {"u": str(s + 1)}, {}) for s in range(3)
    )
    return LocalTemplate("rank1_trivalent", IceQuiver(verts, arrows), slots, "rank1")


def _a2_boundary() -> IceQuiver:
    return IceQuiver(
        [QuiverVertex("u1", True, "1"), QuiverVertex("u2", True, "2")],
        [QuiverArrow("a12", "u1", "u2", True), QuiverArrow("a21", "u2", "u1", True)],
    )


def _a2_trivalent() -> LocalTemplate:
    verts = [QuiverVertex("m", False)]
    arrows = []
    for s in range(3):
        r, f = "r{}".format(s), "f{}".format(s)
        verts.append(QuiverVertex(r, True, "1"))
        verts.append(QuiverVertex(f, True, "2"))
        arrows.append(QuiverArrow("fr{}".format(s), r, f, True))
    for s in range(3):
        r_next = "r{}".format((s + 1) % 3)
        f = "f{}".format(s)
        arrows.append(QuiverArrow("a{}".format(s), f, "m"))
        arrows.append(QuiverArrow("b{}".format(s), "m", r_next))
        arrows.append(QuiverArrow("c{}".format(s), r_next, f))
    slots = tuple(
        TemplateSlot(
            _a2_boundary(),
            {"u1": "r{}".format(s), "u2": "f{}".format(s)},
            {"a12": "fr{}".format(s), "a21": None},
        )
        for s in range(3)
    )
    return LocalTemplate("a2_trivalent", IceQuiver(verts, arrows), slots, "A2")


def _punctured(name: str, arrow_spec) -> LocalTemplate:
    verts = [
        QuiverVertex("1", True),
        QuiverVertex("2", False),
        QuiverVertex("3", False),
        QuiverVertex("4", True),
    ]
    arrows = [
        QuiverArrow("a{}".format(i), src, dst) for i, (src, dst) in enumerate(arrow_spec, 1)
    ]
    slots = (
        TemplateSlot(_point_boundary(), {"u": "1"}, {}),
        TemplateSlot(_point_boundary(), {"u": "4"}, {}),
    )
    return LocalTemplate(name, IceQuiver(verts, arrows), slots, "puncture")


_CYCLE_SPEC = (("1", "2"), ("2", "4"), ("4", "3"), ("3", "1"))
_FLIP_SPEC = (("1", "4"), ("4", "2"), ("2", "1"), ("4", "3"), ("3", "1"))

_BUILTINS = {
    "rank1_trivalent": _rank1_trivalent,
    "a2_trivalent": _a2_trivalent,
    "punctured_2gon_T1": lambda: _punctured("punctured_2gon_T1", _CYCLE_SPEC),
    "punctured_2gon_T2": lambda: _punctured("punctured_2gon_T2", _CYCLE_SPEC),
    "punctured_2gon_T3": lambda: _punctured("punctured_2gon_T3", _FLIP_SPEC),
    "punctured_2gon_T4": lambda: _punctured("punctured_2gon_T4", _FLIP_SPEC),
}

BUILTIN_TEMPLATE_NAMES = tuple(sorted(_BUILTINS))


def builtin_template(name: str) -> LocalTemplate:
    if name not in _BUILTINS:
        raise ValueError(
            "unknown template {!r}; built in: {}".format(
                name, ", ".join(BUILTIN_TEMPLATE_NAMES)
            )
        )
    t = _BUILTINS[name]()
    validate_template(t)
    return t


def star_template(n: int) -> LocalTemplate:
    """A generic template of any valency: a mutable hub feeding one
    frozen point per slot.  Handy for gluing experiments and tests."""
    if n < 2:
        raise ValueError("valency must be at least 2")
    verts = [QuiverVertex("hub", False)]
    arrows = []
    slots = []
    for s in range(n):
        tip = "t{}".format(s)
        verts.append(QuiverVertex(tip, True))
        arrows.append(QuiverArrow("s{}".format(s), "hub", tip))
        slots.append(TemplateSlot(_point_boundary(), {"u": tip}, {}))
    t = LocalTemplate("star_{}".format(n), IceQuiver(verts, arrows), tuple(slots))
    validate_template(t)
    return t


def _reversal_identification(b1: IceQuiver, b2: IceQuiver):
    """Match two interface quivers in reversed vertex order.

    Gluing two thickened pieces along an edge reverses the boundary
    orientation of one side, so the interface vertex lists pair up in
    opposite order.  Returns (vertex map, arrow map) from b1 to b2, or
    None when the pairing is not an isomorphism.
    """
    ids1 = sorted(v.id for v in b1.vertices)
    ids2 = sorted((v.id for v in b2.vertices), reverse=True)
    if len(ids1) != len(ids2):
        return None
    vmap = dict(zip(ids1, ids2))
    for vid in ids1:
        if b1.vertex(vid).frozen != b2.vertex(vmap[vid]).frozen:
            return None
    grouped1: dict[tuple, list[QuiverArrow]] = {}
    for a in b1.arrows:
        grouped1.setdefault((vmap[a.src], vmap[a.dst], a.frozen), []).append(a)
    grouped2: dict[tuple, list[QuiverArrow]] = {}
    for a in b2.arrows:
        grouped2.setdefault((a.src, a.dst, a.frozen), []).append(a)
    if set(grouped1) != set(grouped2):
        return None
    amap: dict[str, str] = {}
    for key, group1 in grouped1.items():
        group2 = grouped2[key]
        if len(group1) != len(group2):
            return None
        for a, b in zip(group1, group2):
            amap[a.id] = b.id
    return vmap, amap


TemplateAssignment = Mapping[str, Union[str, LocalTemplate]]


def _resolve_assignment(g: RibbonGraph, assign: TemplateAssignment) -> dict[str, LocalTemplate]:
    builtins: dict[str, LocalTemplate] = {}  # each named built-in is built once
    resolved = {}
    for v in g.vertices:
        if v not in assign:
            raise ValueError("vertex {} has no template".format(v))
        t = assign[v]
        if isinstance(t, str):
            if t not in builtins:
                builtins[t] = builtin_template(t)
            t = builtins[t]
        else:
            validate_template(t)
        if t.valency != g.valency(v):
            raise ValueError(
                "template {} has valency {} but vertex {} has valency {}".format(
                    t.name, t.valency, v, g.valency(v)
                )
            )
        resolved[v] = t
    return resolved


def _slot_index(g: RibbonGraph, h: str) -> int:
    # slots follow the stored cyclic order, which starts at the
    # smallest halfedge id
    return g.cyclic(g.at_vertex(h)).index(h)


def assembly_diagram(g: RibbonGraph, assign: TemplateAssignment) -> AmalgamationDiagram:
    """Instantiate one template per vertex and wire up the gluing diagram.

    Template names are looked up among the built-ins.  Across each
    internal edge the two slot interfaces are identified in reversed
    vertex order; they must match under that identification.
    """
    require_valid(g)
    templates = _resolve_assignment(g, assign)
    vertex_quivers = {v: templates[v].quiver for v in g.vertices}
    edge_quivers: dict[str, IceQuiver] = {}
    incidences: dict[str, QuiverMorphism] = {}
    for e in g.edges():
        pair = g.halfedges_of(e)
        h1 = pair[0]
        v1 = g.at_vertex(h1)
        slot1 = templates[v1].slots[_slot_index(g, h1)]
        edge_quivers[e] = slot1.boundary
        incidences[h1] = templates[v1].slot_morphism(_slot_index(g, h1))
        if len(pair) == 2:
            h2 = pair[1]
            v2 = g.at_vertex(h2)
            slot2 = templates[v2].slots[_slot_index(g, h2)]
            ident = _reversal_identification(slot1.boundary, slot2.boundary)
            if ident is None:
                raise ValueError(
                    "interface quivers across edge {} do not match".format(e)
                )
            vmap, amap = ident
            incidences[h2] = QuiverMorphism(
                slot1.boundary,
                templates[v2].quiver,
                {x: slot2.vertex_map[vmap[x]] for x in vmap},
                {a: slot2.arrow_map.get(amap[a]) for a in amap},
            )
    return AmalgamationDiagram(g, vertex_quivers, edge_quivers, incidences)


def assemble_global(g: RibbonGraph, assign: TemplateAssignment) -> IceQuiver:
    """Glue one local quiver per vertex into the global ice quiver."""
    return amalgamate(assembly_diagram(g, assign))


def basicness_check(g: RibbonGraph, assign: Optional[TemplateAssignment] = None) -> list[str]:
    """Warnings about vertices whose assembled summands may coincide.

    A 2-valent plain vertex induces the same object along both of its
    edges, which can make the assembled seed non-basic.  Singular
    2-valent vertices are fine.
    """
    require_valid(g)
    if assign is not None:
        _resolve_assignment(g, assign)
    warnings = []
    for v in g.vertices:
        if g.valency(v) == 2 and g.kind(v) == PLAIN:
            warnings.append(
                "vertex {} is 2-valent and plain: the objects induced along "
                "its two edges may coincide".format(v)
            )
    return warnings


@dataclass(frozen=True)
class TaggedArc:
    """An arc of the tagged triangulation read off a trivalent graph.

    Dual arcs cross the internal edges.  Puncture arcs run from a
    puncture along a trajectory; their ``via`` halfedge and plain or
    notched tagging distinguish the four local choices.
    """

    kind: str  # "dual" or "puncture"
    edge: Optional[str] = None
    puncture: Optional[str] = None
    via: Optional[str] = None
    tagging: Optional[str] = None
    path: Optional[Itinerary] = None


_PUNCTURE_CHOICES = ("T1", "T2", "T3", "T4")


def tagged_triangulation(
    g: RibbonGraph, puncture_choices: Mapping[str, str]
) -> list[TaggedArc]:
    """Arcs of the tagged triangulation: one dual arc per internal edge
    plus two arcs per puncture, picked by the local T1..T4 choice.

    Punctures are the 2-valent vertices; they must be singular and each
    must come with a choice.  All remaining vertices must be trivalent.
    """
    require_valid(g)
    punctures = []
    for v in g.vertices:
        n = g.valency(v)
        if n == 2:
            if g.kind(v) != SINGULAR:
                raise ValueError(
                    "2-valent vertex {} must be singular to carry a puncture".format(v)
                )
            if v not in puncture_choices:
                raise ValueError("puncture {} has no T1..T4 choice".format(v))
            punctures.append(v)
        elif n != 3:
            raise ValueError(
                "vertex {} has valency {}; tagged triangulations need "
                "trivalent vertices away from punctures".format(v, n)
            )
    for v, choice in puncture_choices.items():
        if v not in punctures:
            raise ValueError("choice given for non-puncture vertex {!r}".format(v))
        if choice not in _PUNCTURE_CHOICES:
            raise ValueError("unknown puncture choice {!r}".format(choice))

    arcs = [TaggedArc("dual", edge=e) for e in g.internal_edges()]
    for p in punctures:
        h_left, h_right = g.cyclic(p)
        choice = puncture_choices[p]
        if choice == "T1":
            picks = [(h_left, PLAIN_TAG), (h_right, PLAIN_TAG)]
        elif choice == "T2":
            picks = [(h_left, NOTCHED_TAG), (h_right, NOTCHED_TAG)]
        elif choice == "T3":
            picks = [(h_left, PLAIN_TAG), (h_left, NOTCHED_TAG)]
        else:
            picks = [(h_right, PLAIN_TAG), (h_right, NOTCHED_TAG)]
        for via, tag in sorted(picks):
            arcs.append(
                TaggedArc(
                    "puncture",
                    puncture=p,
                    via=via,
                    tagging=tag,
                    path=itinerary(g, via, CW),
                )
            )
    return arcs
