"""Formal functor words and evaluation decompositions.

Words are built from four kinds of atoms: the identity, the generator
F[h] attached to a halfedge (from the stalk at its vertex to the stalk
at its edge), and the left and right adjoints of that generator.  A
decomposition is a finite formal sum of words; nothing is evaluated in
any category, the content is exactly which words appear and how often.

Side L pairs clockwise trajectories with left adjoints, side R pairs
counterclockwise trajectories with right adjoints.  Either side on a
graph matches the other side on the dual graph.
"""

from __future__ import annotations

from collections import Counter

from .graph import RibbonGraph, SINGULAR, Subgraph, _Record, require_valid
from .trajectory import (
    CCW,
    CW,
    EdgeRef,
    TrajectoryHit,
    VertexRef,
    _hits,
    _itinerary,
    _source_halfedges,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional, Sequence, Union

    from .trajectory import Itinerary

    ObjectRef = Union[EdgeRef, VertexRef]

ID = "id"
GEN = "gen"
GEN_L = "genL"
GEN_R = "genR"

SIDES = ("L", "R")


class Atom(_Record):
    """An atom of kind ``ID``, ``GEN``, ``GEN_L`` or ``GEN_R``; all but the
    identity name their halfedge."""

    __slots__ = ("_kind", "_halfedge")
    _defaults = {"halfedge": None}

    def __str__(self) -> str:
        if self.kind == ID:
            return "Id"
        suffix = {GEN: "", GEN_L: "^L", GEN_R: "^R"}[self.kind]
        return "F[{}]{}".format(self.halfedge, suffix)


ID_ATOM = Atom(ID)


class FunctorWord(_Record):
    """A composite of a tuple of atoms, leftmost atom applied last, from
    the edge or vertex reference ``source`` to ``target``; an end may be
    None, unknown."""

    __slots__ = ("_atoms", "_source", "_target")
    _defaults = {"source": None, "target": None}

    @property
    def is_identity(self) -> bool:
        return self.atoms == (ID_ATOM,)

    def __str__(self) -> str:
        return " ".join(str(a) for a in self.atoms)


def _adjoint_kind(orient: str) -> str:
    return GEN_L if orient == CW else GEN_R


def _transport(atoms: list, itin: Itinerary, index: int) -> list:
    """Append to ``atoms`` the atoms of the prefix of length ``index`` of
    ``itin``, leftmost first, and return it.

    Reading right to left: enter the first turning vertex through the
    adjoint atom of the entry halfedge, leave it through the generator of
    the out halfedge, and so on.  The adjoints are left ones for a
    clockwise walk and right ones for a counterclockwise walk.  Prefix
    length 1 appends nothing.  This is the one transport rule: it builds
    the atoms of `transport_word` and of every summand of `_decompose`.
    """
    adj = _adjoint_kind(itin._orient)
    out, entries = itin._out_halfedges, itin._entries
    for j in range(index - 1, 0, -1):
        atoms.append(Atom(GEN, out[j]))
        atoms.append(Atom(adj, entries[j - 1]))
    return atoms


def transport_word(hit: TrajectoryHit) -> FunctorWord:
    """The word a trajectory prefix transports along, from the edge of its
    start to the edge it has reached: the atoms of `_transport`, or the
    identity when the prefix has length 1, as a constant hit's has."""
    itin, index = hit._itinerary, hit._index
    atoms = tuple(_transport([], itin, index)) or (ID_ATOM,)
    return FunctorWord(atoms, EdgeRef(itin._edges[0]), EdgeRef(itin._edges[index - 1]))


class Marker(_Record):
    """Extra structure on subgraph summands.

    kind "ev": the summand arises through the named cut halfedge.
    kind "res": the plain restriction summand at the named object.
    """

    __slots__ = ("_kind", "_ref")


class Summand(_Record):
    """One word of a decomposition, from the trajectory hit at ``index``
    from ``source_halfedge`` (None and 0 for the identity summand on the
    diagonal), with its marker, if any."""

    __slots__ = (
        "_word", "_source_halfedge", "_index", "_constant", "_marker", "_possibly_zero"
    )


class Decomposition(_Record):
    """The summands, in order, of the evaluation at ``target`` on ``side``;
    ``source`` is None for subgraph decompositions."""

    __slots__ = ("_source", "_target", "_side", "_summands")


def _summand_key(s: Summand):
    h = s._source_halfedge
    atoms = tuple((a._kind, a._halfedge or "") for a in s._word._atoms)
    return (h is not None, h or "", s._index, not s._constant, atoms)


def _require_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError("side must be 'L' or 'R', got {!r}".format(side))


def _decompose(
    g: RibbonGraph,
    target: ObjectRef,
    side: str,
    cuts: Sequence[str] = (),
    source: Optional[ObjectRef] = None,
    unit: Optional[Marker] = None,
) -> Decomposition:
    """The hit-to-summand loop behind both decompositions.

    The walks start at the halfedges of ``source``, resolved once the
    target is checked, or else at the cut halfedges ``cuts``, and one
    `_hits` call reads them all; a hit from a cut carries that cut's "ev"
    marker.  A vertex target is met through the ring halfedge each hit
    names, behind its adjoint atom, and a vertex ``source`` appends the
    generator of the hit's source halfedge.  On the diagonal, where a
    vertex source is its own target or a restriction marker ``unit`` is
    given, one identity summand, marked ``unit``, stands in for the
    constant hits.

    Each summand's atoms are built once, into one list: the prefix atom,
    the transport atoms of `_transport` and the suffix atom; a word with
    none is the identity.  A summand is possibly zero when an atom's
    halfedge sits at a singular vertex.  The loop reads the slots of hits,
    walks and atoms, and sorts only a decomposition of two summands or more.
    """
    if not isinstance(target, (EdgeRef, VertexRef)):
        raise TypeError("target must be an edge or vertex reference")
    _source_halfedges(g, target)
    starts = cuts if source is None else _source_halfedges(g, source)
    markers = {cut: Marker("ev", cut) for cut in cuts}
    from_vertex = isinstance(source, VertexRef)
    diagonal = unit is not None or (from_vertex and source == target)
    orient = CW if side == "L" else CCW
    adj = _adjoint_kind(orient) if isinstance(target, VertexRef) else None
    kind, at = g._kind, g._at
    summands: list[Summand] = []
    for hit in _hits(g, starts, target, orient, source == target):
        constant = hit._constant
        if diagonal and constant:
            continue
        h, index = hit._source, hit._index
        atoms = _transport([Atom(adj, hit._target)] if adj else [], hit._itinerary, index)
        if from_vertex:
            atoms.append(Atom(GEN, h))
        word = FunctorWord(tuple(atoms) or (ID_ATOM,), source, target)
        # conservative: any atom sitting at a singular vertex may die in
        # a stalk where the relevant composite vanishes
        zero = SINGULAR in [kind[at[a._halfedge]] for a in atoms]
        summands.append(Summand(word, h, index, constant, markers.get(h), zero))
    if diagonal:
        word = FunctorWord((ID_ATOM,), source, target)
        summands.append(Summand(word, None, 0, False, unit, False))
    if len(summands) > 1:
        summands.sort(key=_summand_key)
    return Decomposition(source, target, side, tuple(summands))


def decompose(
    g: RibbonGraph, target: ObjectRef, source: ObjectRef, side: str = "L"
) -> Decomposition:
    """Decompose an evaluation of an induced object into functor words.

    Each summand is the transport word of one trajectory hit, completed
    with a generator atom when the source is a vertex and an adjoint
    atom when the target is a vertex.  When source and target are the
    same vertex the constant diagonal hits are replaced by a single
    identity summand.
    """
    require_valid(g)
    _require_side(side)
    if not isinstance(source, (EdgeRef, VertexRef)):
        raise TypeError("source must be an edge or vertex reference")
    return _decompose(g, target, side, source=source)


def decompose_subgraph(
    g: RibbonGraph, sub: Subgraph, target: ObjectRef, side: str = "L"
) -> Decomposition:
    """Decompose an evaluation of the induction from a subgraph.

    Every non-trivial summand travels through one of the cut halfedges
    and carries an "ev" marker naming it.  Objects that the subgraph
    already sees contribute one plain restriction summand, marked "res".
    Constant diagonal visits at a kept vertex are covered by the
    restriction summand, so they are dropped.
    """
    require_valid(g)
    _require_side(side)
    if sub.ambient is not g and sub.ambient != g:
        raise ValueError("subgraph belongs to a different ambient graph")
    unit = skip = None
    if isinstance(target, EdgeRef):
        # an edge of the piece is named by a halfedge of its ambient edge
        preimages = [h for h in g.halfedges_of(target.id) if sub.graph.is_edge(h)]
        # a unique preimage gives the restriction summand, which also
        # stands for the preimage's own cut when it is one
        if len(preimages) == 1:
            skip = preimages[0]
            unit = Marker("res", skip)
    elif isinstance(target, VertexRef) and sub.graph.has_vertex(target.id):
        unit = Marker("res", target.id)
    cuts = [cut for cut in sub.cut_halfedges if cut != skip]
    return _decompose(g, target, side, cuts, unit=unit)


def check_unit_split(g: RibbonGraph, x: ObjectRef, side: str = "L") -> bool:
    """True when the self-decomposition of ``x`` contains the identity
    word exactly once."""
    dec = decompose(g, x, x, side)
    return sum(1 for s in dec.summands if s.word.is_identity) == 1


def _external_support(g: RibbonGraph, x: ObjectRef, orient: str) -> Counter:
    # the edge hits of `trajectory_counts`, for every external edge at
    # once: each visit is a hit, and the one de-duplication it makes,
    # a curve's shared constant visit, never concerns an external edge.
    # A walk meets external edges only at its start and its terminal.
    support = Counter()
    for h in _source_halfedges(g, x):
        if g.is_external(h):
            support[h] += 1
        support[_itinerary(g, h, orient)._terminal] += 1
    return support


def twist_rotation_check(g: RibbonGraph, x: ObjectRef) -> bool:
    """Compare the two orientations of the decomposition of ``x`` over
    the external edges.

    Returns True when rotating every counterclockwise hit one marked
    point forward along its boundary walk reproduces the clockwise
    hits.  This always holds when ``x`` is an edge; webs at asymmetric
    vertices can fail it honestly.
    """
    require_valid(g)
    # validation keeps each external halfedge's next marked point
    marked = g._marked
    rotated = Counter()
    for f, n in _external_support(g, x, CCW).items():
        rotated[marked[f]] += n
    return rotated == _external_support(g, x, CW)


def word_typechecks(g: RibbonGraph, word: FunctorWord) -> bool:
    """Verify that adjacent atoms meet on matching objects.

    Generators map the stalk at a halfedge's vertex to the stalk at its
    edge; adjoints go back.  The identity word typechecks between equal
    ends, or when either end is None, unknown.  An atom whose halfedge is not in ``g`` raises
    ValueError.
    """
    if word.is_identity:
        return word.source is None or word.target is None or word.source == word.target
    cur = word.source
    for atom in reversed(word.atoms):
        if atom.kind == ID:
            return False  # identity atoms never appear inside composites
        if not g.has_halfedge(atom.halfedge):
            raise ValueError("unknown halfedge {!r}".format(atom.halfedge))
        v = VertexRef(g.at_vertex(atom.halfedge))
        e = EdgeRef(g.edge_of(atom.halfedge))
        if atom.kind == GEN:
            expect, out = v, e
        else:
            expect, out = e, v
        if cur is not None and cur != expect:
            return False
        cur = out
    return word.target is None or cur == word.target
