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

from .graph import PLAIN, RibbonGraph, SINGULAR, _Record, _fault, require_valid
from .quiver import (
    AmalgamationDiagram,
    IceQuiver,
    QuiverArrow,
    QuiverMorphism,
    QuiverVertex,
    _ReadOnlyDict,
    _check_slots,
    amalgamate,
)
from .trajectory import CW, _itinerary

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Mapping, Union

    TemplateAssignment = Mapping[str, Union[str, LocalTemplate]]

PLAIN_TAG = "plain"
NOTCHED_TAG = "notched"


class LocalTemplate(_Record):
    """A vertex quiver with one interface slot per incident edge.

    Each slot is a `QuiverMorphism` from its interface quiver into the
    template's quiver.  Slot images must be pairwise disjoint frozen
    components of the quiver and together exhaust its frozen vertices,
    and the name and stalk are strings or None.  Construction keeps the
    slots as a tuple, checks them with `validate_template` and raises
    ValueError when it fails; a slot's maps are read-only, so every
    template in existence is valid.
    """

    __slots__ = ("_name", "_quiver", "_slots", "_stalk")
    _defaults = {"stalk": None}

    def __post_init__(self) -> None:
        self._slots = tuple(self._slots)
        validate_template(self)

    @property
    def valency(self) -> int:
        return len(self.slots)


def validate_template(t: LocalTemplate) -> None:
    for key, text in (("name", t.name), ("stalk", t.stalk)):
        if text is not None and not isinstance(text, str):
            raise _fault((key,), "template {} {!r} is not a string", key, text)

    owner = "template {}".format(t.name)
    for i, m in enumerate(t._slots):
        if m._target != t._quiver:
            raise _fault(("slots", i), "{}: slot {} lands outside the template quiver", owner, i)
    _check_slots(t._quiver, enumerate(t._slots), owner, "slot")


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
    frozen point per slot, every slot from one shared interface quiver."""
    if n < 2:
        raise ValueError("valency must be at least 2")
    tips = ["t{}".format(s) for s in range(n)]
    verts = [QuiverVertex("hub", False), *(QuiverVertex(tip, True) for tip in tips)]
    arrows = [QuiverArrow("s{}".format(s), "hub", tip) for s, tip in enumerate(tips)]
    quiver, interface = IceQuiver(verts, arrows), IceQuiver([QuiverVertex("u", True)], [])
    slots = tuple(QuiverMorphism(interface, quiver, {"u": tip}, {}) for tip in tips)
    return LocalTemplate("star_{}".format(n), quiver, slots)


def _flag(frozen: bool) -> str:
    return "frozen" if frozen else "mutable"


def _reversal_identification(b1: IceQuiver, slot: QuiverMorphism) -> QuiverMorphism:
    """The morphism from the interface ``b1`` through the slot morphism
    ``slot`` into its target, when ``b1`` matches the slot's interface,
    its source, in reversed vertex order.

    Gluing two thickened pieces along an edge reverses the boundary
    orientation of one side, so the interface vertex lists pair up in
    opposite order, and the arrows of each group (source, target, flag)
    in id order.  When the pairing is not an isomorphism, raises
    ValueError naming the first difference, b1's side before the slot's:
    the vertex counts, a frozen flag, or an arrow group, in the slot
    interface's ids, with its two multiplicities.
    """
    b2 = slot._source
    if len(b1.vertices) != len(b2.vertices):
        raise ValueError("vertex counts {} against {}".format(len(b1.vertices), len(b2.vertices)))
    pairs = tuple(zip(b1.vertices, reversed(b2.vertices)))  # both in id order
    for x, y in pairs:
        if x._frozen != y._frozen:
            raise ValueError(
                "{} vertex {} against {} vertex {}".format(
                    _flag(x.frozen), x.id, _flag(y.frozen), y.id
                )
            )
    vmap = {x._id: y._id for x, y in pairs}
    side1 = sorted(((vmap[a._src], vmap[a._dst], a._frozen), a._id) for a in b1.arrows)
    side2 = sorted(((a._src, a._dst, a._frozen), a._id) for a in b2.arrows)
    keys1, keys2 = [k for k, _ in side1], [k for k, _ in side2]
    if keys1 != keys2:
        key = min(k for k in {*keys1, *keys2} if keys1.count(k) != keys2.count(k))
        raise ValueError(
            "arrow group ({}, {}, {}) has multiplicity {} against {}".format(
                key[0], key[1], _flag(key[2]), keys1.count(key), keys2.count(key)
            )
        )
    vertex_map = {x: slot._vertex_map[y] for x, y in vmap.items()}
    arrow_map = {a: slot._arrow_map.get(b) for (_, a), (_, b) in zip(side1, side2)}
    return QuiverMorphism(b1, slot._target, vertex_map, arrow_map)


def assembly_diagram(g: RibbonGraph, assign: TemplateAssignment) -> AmalgamationDiagram:
    """Instantiate one template per vertex and wire up the gluing diagram.

    Template names are looked up among the built-ins, each built once per
    call; a template object is taken as given.  The graph is validated
    once.  An edge's first halfedge takes its template's slot morphism as
    incidence; across an internal edge the twin's slot interface is
    identified with it in reversed vertex order, once per distinct pair
    of slot objects, and must match under that identification.  The
    diagram is built unchecked, with read-only tables: the graph is valid,
    templates are valid by construction, and each incidence is a slot or a
    slot composed with the isomorphism `_reversal_identification`.
    """
    require_valid(g)
    builtins: dict[str, LocalTemplate] = {}
    vertex_quivers: dict[str, IceQuiver] = {}
    slot_at: dict[str, QuiverMorphism] = {}
    for v in g.vertices:
        if v not in assign:
            raise ValueError("vertex {} has no template".format(v))
        t = assign[v]
        if isinstance(t, str):
            if t not in builtins:
                builtins[t] = builtin_template(t)
            t = builtins[t]
        elif not isinstance(t, LocalTemplate):
            raise TypeError("template at vertex {} has type {}".format(v, type(t).__name__))
        ring = g.cyclic(v)
        if t.valency != len(ring):
            raise ValueError(
                "template {} has valency {} but vertex {} has valency {}".format(
                    t.name, t.valency, v, len(ring)
                )
            )
        vertex_quivers[v] = t._quiver
        # slots follow the stored cyclic order, which starts at the
        # smallest halfedge id
        slot_at.update(zip(ring, t._slots))
    # every vertex has its quiver, so more entries name a vertex the graph lacks
    if len(assign) > len(vertex_quivers):
        unknown = next(v for v in assign if not g.has_vertex(v))
        raise ValueError("template given for unknown vertex {!r}".format(unknown))
    edge_quivers: dict[str, IceQuiver] = {}
    incidences: dict[str, QuiverMorphism] = {}
    # (id(slot1), id(slot2)) -> `_reversal_identification(slot1's
    # interface, slot2)`; the templates, which `assign` and `builtins`
    # keep, keep the ids taken
    reversals: dict[tuple[int, int], QuiverMorphism] = {}
    for e in g.edges():
        # an edge is named by its first halfedge
        slot1 = incidences[e] = slot_at[e]
        edge_quivers[e] = slot1._source
        h2 = g.twin_of(e)
        if h2 is not None:
            slot2 = slot_at[h2]
            key = (id(slot1), id(slot2))
            if key not in reversals:
                try:
                    reversals[key] = _reversal_identification(slot1._source, slot2)
                except ValueError as exc:
                    raise ValueError(
                        "interface quivers across edge {} do not match: {} "
                        "({} against {})".format(e, exc, e, h2)
                    ) from None
            incidences[h2] = reversals[key]
    tables = vertex_quivers, edge_quivers, incidences
    return AmalgamationDiagram._unchecked(g, *map(_ReadOnlyDict, tables))


def assemble_global(g: RibbonGraph, assign: TemplateAssignment) -> IceQuiver:
    """Glue one local quiver per vertex into the global ice quiver: the
    gluing of `assembly_diagram`'s diagram, which is built unchecked."""
    return amalgamate(assembly_diagram(g, assign))


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


class TaggedArc(_Record):
    """An arc of the tagged triangulation read off a trivalent graph.

    Its ``kind`` is ``"dual"`` or ``"puncture"``.  Dual arcs cross the
    internal ``edge``.  Puncture arcs run from a ``puncture`` along a
    trajectory, their ``path``; their ``via`` halfedge and plain or
    notched ``tagging`` distinguish the four local choices.  The fields
    an arc's kind does not use are None.
    """

    __slots__ = ("_kind", "_edge", "_puncture", "_via", "_tagging", "_path")
    _defaults = dict.fromkeys(("edge", "puncture", "via", "tagging", "path"))


# each choice's two arcs at a puncture, as (ring index, tagging) pairs
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
    plus two arcs per puncture, picked by the local T1..T4 choice.  T3 and
    T4 name an end by halfedge order: T3's arcs run through ``ring[0]``,
    the smaller halfedge, and T4's through ``ring[1]``, so a renaming that
    makes a puncture's other halfedge the smaller swaps them.

    Punctures are the 2-valent vertices; they must be singular and each
    must come with a choice.  All remaining vertices must be trivalent.
    """
    require_valid(g)
    punctures = {}  # each puncture's choice, in vertex order
    for v in g.vertices:
        n = g.valency(v)
        if n == 2:
            if g.kind(v) != SINGULAR:
                raise ValueError(
                    "2-valent vertex {} must be singular to carry a puncture".format(v)
                )
            if v not in puncture_choices:
                raise ValueError("puncture {} has no T1..T4 choice".format(v))
            punctures[v] = puncture_choices[v]
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
    for p, choice in punctures.items():
        ring = g.cyclic(p)
        picks = [(ring[i], tag) for i, tag in _PUNCTURE_ARCS[choice]]
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
