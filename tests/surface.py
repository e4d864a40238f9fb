"""A test-side model of the triangulated surface that a trivalent ribbon
graph is dual to, read only through the package's public names.

Each trivalent vertex is a triangle whose sides are the arcs dual to its
three edges, and a flip of the triangulation is a Whitehead move at an
internal edge.  An assembled quiver is read as a signed exchange matrix
whose vertices are named by where they sit, and a tagged arc by its
halfedges, so that oracles, flips and renamings compare plain values
with no isomorphism search and no edge name.
"""

from collections import Counter

from ribboncalc import RibbonGraph, assemble_global, assembly_diagram


def triangles(g: RibbonGraph) -> dict[str, tuple[str, str, str]]:
    """Each trivalent vertex of ``g`` with its triangle's three sides, the
    edges of its ring, in ring order."""
    return {v: tuple(map(g.edge_of, g.cyclic(v))) for v in g.vertices if g.valency(v) == 3}


def side_points(g: RibbonGraph, h: str) -> tuple[tuple, tuple]:
    """``p(h)`` and ``p'(h)``, the two points that Fock & Goncharov's
    3-triangulation puts on the side dual to ``h``'s edge, ``h`` at a
    trivalent vertex: ``p(h)`` sits next to the corner between ``h`` and
    its counterclockwise successor, ``p'(h)`` is the other, and so
    ``p(twin h)`` is ``p'(h)``.  Each is named as `exchange` names the
    vertex glued there: ``p(h)`` is ``(edge, "u2")`` when ``h`` is its
    edge's first halfedge, and ``(edge, "u1")`` otherwise."""
    e = g.edge_of(h)
    return ((e, "u2"), (e, "u1")) if h == e else ((e, "u1"), (e, "u2"))


def _from(ring: tuple, h: str) -> tuple:
    k = ring.index(h)
    return ring[k:] + ring[:k]


def flip(g: RibbonGraph, e: str, wrong: bool = False) -> RibbonGraph:
    """The Whitehead move at the internal edge ``e`` between trivalent
    vertices ``u = (e, x1, x2)`` and ``w = (t, y1, y2)``, ``t`` the twin of
    ``e``: they become ``(e, x2, y1)`` and ``(t, y2, x1)``.  The ``wrong``
    rewiring, ``(e, y1, x2)`` and ``(t, x1, y2)``, is the negative control.
    Vertex kinds and labels are kept.  The result may be invalid: a loop
    appears when ``x1`` and ``y2``, or ``x2`` and ``y1``, are twins."""
    t = g.twin_of(e)
    u, w = g.at_vertex(e), g.at_vertex(t)
    _, x1, x2 = _from(g.cyclic(u), e)
    _, y1, y2 = _from(g.cyclic(w), t)
    rings = {v: g.cyclic(v) for v in g.vertices}
    rings[u], rings[w] = ((e, y1, x2), (t, x1, y2)) if wrong else ((e, x2, y1), (t, y2, x1))
    return RibbonGraph(
        rings,
        {h: g.twin_of(h) for h in g.halfedges if not g.is_external(h)},
        {v: g.kind(v) for v in g.vertices},
        {v: g.label(v) for v in g.vertices if g.label(v) is not None},
    )


def exchange(g: RibbonGraph, assign) -> tuple[dict, set]:
    """The signed exchange matrix of the assembly, its `signed_matrix`,
    and the frozen names.  A vertex glued, or frozen, on the edge ``E``
    from its interface vertex ``x`` is named ``(E, x)``, one inside the
    template at ``v`` is named ``(v, local id)``: a flip keeps the names
    of all edges and vertices."""
    d = assembly_diagram(g, assign)
    names = {v + "." + x.id: (v, x.id) for v in g.vertices for x in d.vertex_quivers[v].vertices}
    for h in g.halfedges:
        for x, y in d.incidences[h].vertex_map.items():
            names[g.at_vertex(h) + "." + y] = (g.edge_of(h), x)
    q = assemble_global(g, assign)
    frozen = {names[v.id] for v in q.vertices if v.frozen}
    return signed_matrix(((names[a.src], names[a.dst]) for a in q.arrows), frozen), frozen


def signed_matrix(arrows, frozen: set) -> dict:
    """The one rule that reads arrows, pairs ``(i, j)``, as a signed matrix,
    for an assembly and for an oracle's blocks alike: ``b_ij`` counts the
    arrows i -> j less the arrows j -> i, over its non-zero entries that
    are not between two ``frozen`` vertices."""
    b = Counter()
    for i, j in arrows:
        b[i, j] += 1
        b[j, i] -= 1
    return _unfrozen(b, frozen)


def _unfrozen(b: dict, frozen: set) -> dict:
    return {(i, j): n for (i, j), n in b.items() if n and (i not in frozen or j not in frozen)}


def mutate(b: dict, k, frozen: set) -> dict:
    """Matrix mutation at ``k`` (Fomin & Zelevinsky 2002), ``frozen``-frozen
    entries left out: ``k``'s row and column change sign, and every other
    ``b_ij`` gains ``(|b_ik| b_kj + b_ik |b_kj|) / 2``, which is non-zero
    only when ``b_ik`` and ``b_kj`` have the same sign."""
    out = Counter({(i, j): -n if k in (i, j) else n for (i, j), n in b.items()})
    into = [(i, n) for (i, j), n in b.items() if j == k]
    for i, bik in into:
        for (kk, j), bkj in b.items():
            if kk == k and (bik > 0) == (bkj > 0):
                out[i, j] += bik * abs(bkj)
    return _unfrozen(out, frozen)


def _arc_vertex(template, i: int) -> str:
    """The local vertex of the puncture arc through ``ring[i]``: the one
    mutable vertex that slot ``i``'s frozen image has an arrow to.  Read
    each of the 2-gon's two triangles as `rank1_trivalent` reads one, with
    an arrow from the side at ``ring[k + 1]`` to the side at ``ring[k]``:
    the side at ``ring[i]`` then has an arrow to the arc to the marked
    point in the corner from ``ring[i - 1]`` to ``ring[i]``.  The arc's
    path, the clockwise walk from ``ring[i]``, runs along that corner's
    boundary walk."""
    q = template.quiver
    side = template.slots[i].vertex_map["u"]
    mutable = {v.id for v in q.vertices if not v.frozen}
    (x,) = [a.dst for a in q.arrows if a.src == side and a.dst in mutable]
    return x


def arc_keys(g: RibbonGraph, arcs, hmap, vmap) -> set:
    """The arcs of ``g`` over the ids ``hmap`` and ``vmap`` give: a dual arc
    by its edge's halfedges, a puncture arc by its puncture, via halfedge,
    tagging and path, so that no edge name is compared."""
    return {
        ("dual", frozenset(hmap[h] for h in g.halfedges_of(a.edge))) if a.kind == "dual"
        else (
            "puncture", vmap[a.puncture], hmap[a.via], a.tagging,
            tuple(hmap[h] for h in a.path.out_halfedges),
        )
        for a in arcs
    }
