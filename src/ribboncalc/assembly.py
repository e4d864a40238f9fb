"""Local quiver templates and their assembly over a ribbon graph.

A template is a local quiver together with one gluing slot per incident
edge; a slot is a morphism of an interface quiver onto one frozen
component.  Assembly instantiates a template at every graph vertex,
matches slots across edges (reversing the interface, see
`assemble_global`) and amalgamates.

The built-in templates are data, not code: each is the canonical JSON
file ``fixtures/<name>.json`` shipped with the package, read by
`builtin_template`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .graph import PLAIN, RibbonGraph, SINGULAR, require_valid
from .quiver import (
    AmalgamationDiagram,
    IceQuiver,
    QuiverArrow,
    QuiverMorphism,
    QuiverVertex,
    _fault,
    _glue,
    _require_frozen_cover,
    validate_morphism,
)
from .trajectory import CW, Itinerary, _itinerary

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
    quiver and together exhaust its frozen vertices, and the name and
    stalk are strings or None.  Construction checks this with
    `validate_template` and raises ValueError when it fails, so every
    template in existence is valid.
    """

    name: str
    quiver: IceQuiver
    slots: tuple[TemplateSlot, ...]
    stalk: Optional[str] = None

    def __post_init__(self) -> None:
        validate_template(self)

    @property
    def valency(self) -> int:
        return len(self.slots)

    def slot_morphism(self, index: int) -> QuiverMorphism:
        slot = self.slots[index]
        return QuiverMorphism(slot.boundary, self.quiver, slot.vertex_map, slot.arrow_map)


def validate_template(t: LocalTemplate) -> None:
    for key, text in (("name", t.name), ("stalk", t.stalk)):
        if text is not None and not isinstance(text, str):
            raise _fault((key,), "template {} {!r} is not a string", key, text)

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


# a new built-in is its file ``fixtures/<name>.json`` and its name here,
# in sorted order
BUILTIN_TEMPLATE_NAMES = (
    "a2_trivalent",
    "punctured_2gon_T1",
    "punctured_2gon_T2",
    "punctured_2gon_T3",
    "punctured_2gon_T4",
    "rank1_trivalent",
)


def builtin_template(name: str) -> LocalTemplate:
    """A new copy of the built-in template ``name``, parsed from
    ``fixtures/<name>.json``.  Names come from user input, so the name is
    checked against `BUILTIN_TEMPLATE_NAMES` before any path is built:
    no other name reaches the file system."""
    from .serialization import parse_template

    if name not in BUILTIN_TEMPLATE_NAMES:
        raise ValueError(
            "unknown template {!r}; built in: {}".format(
                name, ", ".join(BUILTIN_TEMPLATE_NAMES)
            )
        )
    path = os.path.join(os.path.dirname(__file__), "fixtures", name + ".json")
    with open(path, encoding="utf-8") as fh:
        return parse_template(fh.read())


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
        point = IceQuiver([QuiverVertex("u", True)], [])
        slots.append(TemplateSlot(point, {"u": tip}, {}))
    return LocalTemplate("star_{}".format(n), IceQuiver(verts, arrows), tuple(slots))


def _flag(frozen: bool) -> str:
    return "frozen" if frozen else "mutable"


def _reversal_identification(b1: IceQuiver, b2: IceQuiver):
    """Match two interface quivers in reversed vertex order.

    Gluing two thickened pieces along an edge reverses the boundary
    orientation of one side, so the interface vertex lists pair up in
    opposite order.  Returns (vertex map, arrow map) from b1 to b2.
    When the pairing is not an isomorphism, raises ValueError naming the
    first difference, b1's side before b2's: the vertex counts, a frozen
    flag, or an arrow group (source, target, flag), in b2's ids, with
    its two multiplicities.
    """
    ids1 = sorted(v.id for v in b1.vertices)
    ids2 = sorted((v.id for v in b2.vertices), reverse=True)
    if len(ids1) != len(ids2):
        raise ValueError("vertex counts {} against {}".format(len(ids1), len(ids2)))
    vmap = dict(zip(ids1, ids2))
    for vid in ids1:
        frozen1, frozen2 = b1.vertex(vid).frozen, b2.vertex(vmap[vid]).frozen
        if frozen1 != frozen2:
            raise ValueError(
                "{} vertex {} against {} vertex {}".format(
                    _flag(frozen1), vid, _flag(frozen2), vmap[vid]
                )
            )
    grouped1: dict[tuple, list[QuiverArrow]] = {}
    for a in b1.arrows:
        grouped1.setdefault((vmap[a.src], vmap[a.dst], a.frozen), []).append(a)
    grouped2: dict[tuple, list[QuiverArrow]] = {}
    for a in b2.arrows:
        grouped2.setdefault((a.src, a.dst, a.frozen), []).append(a)
    for key in sorted(grouped1.keys() | grouped2.keys()):
        n1, n2 = len(grouped1.get(key, ())), len(grouped2.get(key, ()))
        if n1 != n2:
            raise ValueError(
                "arrow group ({}, {}, {}) has multiplicity {} against {}".format(
                    key[0], key[1], _flag(key[2]), n1, n2
                )
            )
    amap: dict[str, str] = {}
    for key, group1 in grouped1.items():
        for a, b in zip(group1, grouped2[key]):
            amap[a.id] = b.id
    return vmap, amap


TemplateAssignment = Mapping[str, Union[str, LocalTemplate]]


def _resolve_assignment(g: RibbonGraph, assign: TemplateAssignment) -> dict[str, LocalTemplate]:
    """The template of every vertex, equal templates as one object.

    A named built-in is built once.  A template that is the same object
    as, or equal to, one met before resolves to that first object:
    `assembly_diagram` memoises slot morphisms by ``id(template)``, so
    this keeps their number down to the distinct templates even when
    the caller builds one per vertex.
    """
    builtins: dict[str, LocalTemplate] = {}
    seen: dict[str, list[LocalTemplate]] = {}  # first ones, by name
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
            same_name = seen.setdefault(t.name, [])
            known = next((c for c in same_name if c is t or c == t), None)
            if known is None:
                same_name.append(t)
            else:
                t = known
        if t.valency != g.valency(v):
            raise ValueError(
                "template {} has valency {} but vertex {} has valency {}".format(
                    t.name, t.valency, v, g.valency(v)
                )
            )
        resolved[v] = t
    return resolved


def assembly_diagram(g: RibbonGraph, assign: TemplateAssignment) -> AmalgamationDiagram:
    """Instantiate one template per vertex and wire up the gluing diagram.

    Template names are looked up among the built-ins.  Across each
    internal edge the two slot interfaces are identified in reversed
    vertex order; they must match under that identification.  The graph
    is validated once; the incidences are derived from the templates,
    one morphism per distinct slot or slot pair.
    """
    require_valid(g)
    templates = _resolve_assignment(g, assign)
    vertex_quivers = {v: templates[v].quiver for v in g.vertices}
    # slots follow the stored cyclic order, which starts at the smallest
    # halfedge id
    slot_at = {
        h: (t, i) for v, t in templates.items() for i, h in enumerate(g.cyclic(v))
    }
    edge_quivers: dict[str, IceQuiver] = {}
    incidences: dict[str, QuiverMorphism] = {}
    # (id(template), slot) -> its slot morphism, and (id(template1),
    # slot1, id(template2), slot2) -> the morphism from slot1's interface
    # into template2 through slot2; `templates` keeps the ids taken
    morphisms: dict[tuple, QuiverMorphism] = {}
    for e in g.edges():
        # an edge is named by its first halfedge
        t1, i1 = slot_at[e]
        boundary = t1.slots[i1].boundary
        edge_quivers[e] = boundary
        key = (id(t1), i1)
        if key not in morphisms:
            morphisms[key] = t1.slot_morphism(i1)
        incidences[e] = morphisms[key]
        h2 = g.twin_of(e)
        if h2 is not None:
            t2, i2 = slot_at[h2]
            key += (id(t2), i2)
            if key not in morphisms:
                slot2 = t2.slots[i2]
                try:
                    vmap, amap = _reversal_identification(boundary, slot2.boundary)
                except ValueError as exc:
                    raise ValueError(
                        "interface quivers across edge {} do not match: {} "
                        "({} against {})".format(e, exc, e, h2)
                    ) from None
                morphisms[key] = QuiverMorphism(
                    boundary,
                    t2.quiver,
                    {x: slot2.vertex_map[vmap[x]] for x in vmap},
                    {a: slot2.arrow_map.get(amap[a]) for a in amap},
                )
            incidences[h2] = morphisms[key]
    return AmalgamationDiagram(g, vertex_quivers, edge_quivers, incidences)


def assemble_global(g: RibbonGraph, assign: TemplateAssignment) -> IceQuiver:
    """Glue one local quiver per vertex into the global ice quiver.

    The result equals ``amalgamate(assembly_diagram(g, assign))``, but
    the diagram is glued without `amalgamate`'s full check: templates
    are valid by construction, and incidences are their slot morphisms
    or those composed with `_reversal_identification`, so each is a
    morphism, which `_glue` relies on to place kept interface arrows.
    """
    return _glue(assembly_diagram(g, assign))


def basicness_check(g: RibbonGraph) -> list[str]:
    """Warnings about vertices whose assembled summands may coincide.

    A 2-valent plain vertex induces the same object along both of its
    edges, which can make the assembled seed non-basic.  Singular
    2-valent vertices are fine.
    """
    require_valid(g)
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


# each local choice at a puncture: its two arcs, as (index in the
# puncture's ring, tagging) pairs
_PUNCTURE_ARCS = {
    "T1": ((0, PLAIN_TAG), (1, PLAIN_TAG)),
    "T2": ((0, NOTCHED_TAG), (1, NOTCHED_TAG)),
    "T3": ((0, PLAIN_TAG), (0, NOTCHED_TAG)),
    "T4": ((1, PLAIN_TAG), (1, NOTCHED_TAG)),
}


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
        if not isinstance(choice, str) or choice not in _PUNCTURE_ARCS:
            raise ValueError("unknown puncture choice {!r}".format(choice))

    arcs = [TaggedArc("dual", edge=e) for e in g.internal_edges()]
    for p in punctures:
        ring = g.cyclic(p)
        picks = [(ring[i], tag) for i, tag in _PUNCTURE_ARCS[puncture_choices[p]]]
        for via, tag in sorted(picks):
            arcs.append(
                TaggedArc(
                    "puncture",
                    puncture=p,
                    via=via,
                    tagging=tag,
                    path=_itinerary(g, via, CW),
                )
            )
    return arcs
