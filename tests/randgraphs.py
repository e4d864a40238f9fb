"""Seeded generator of valid ribbon graphs for randomized suites.

Builds a random spanning tree, sprinkles extra internal edges and
boundary stubs, shuffles every cyclic order, then patches every boundary
walk that has no external halfedge: a stub inserted just before one of
the walk's halfedges, in its vertex's cyclic order, is spliced into that
same walk and into no other.  So the first attempt is valid and no draw
of the size or the shape is discarded; the retry on `validate_graph` is
only a safeguard.
"""

import random

from ribboncalc import RibbonGraph
from ribboncalc.graph import _corner_orbits

# weighted toward small graphs; 12 is the documented ceiling
_SIZES = (1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 6, 8, 12)


def random_graph(rng: random.Random, max_vertices: int = 12) -> RibbonGraph:
    while True:
        n = min(rng.choice(_SIZES), max_vertices)
        g = _attempt(rng, n)
        if g is not None and g.validation_report().ok:
            return g


def _attempt(rng: random.Random, n: int) -> RibbonGraph | None:
    dotted = rng.random() < 0.1
    names = ["v.{}".format(i) if dotted else "v{}".format(i) for i in range(n)]
    at: dict[str, list[str]] = {v: [] for v in names}
    twin: dict[str, str] = {}
    serial = 0

    def stub(v: str) -> None:
        nonlocal serial
        at[v].append("s{}".format(serial))
        serial += 1

    def join(u: str, w: str) -> None:
        nonlocal serial
        a, b = "e{}a".format(serial), "e{}b".format(serial)
        serial += 1
        at[u].append(a)
        at[w].append(b)
        twin[a] = b
        twin[b] = a

    for i in range(1, n):
        join(names[rng.randrange(i)], names[i])
    if n >= 2:
        for _ in range(rng.randint(0, n)):
            u, w = rng.sample(names, 2)
            join(u, w)
    for v in names:
        while len(at[v]) < 2:
            stub(v)
    for _ in range(rng.randint(0, 3)):
        stub(rng.choice(names))

    for v in names:
        rng.shuffle(at[v])
    kinds = {}
    labels = {}
    for v in names:
        if rng.random() < 0.15:
            kinds[v] = "singular"
            labels[v] = "puncture"

    for _ in range(20):
        g = RibbonGraph(at, twin, kinds, labels)
        # the smallest halfedge of every boundary walk without an external one
        starved = [
            orbit[0]
            for orbit in _corner_orbits(g)
            if not any(g.is_external(h) for h in orbit)
        ]
        if not starved:
            return g
        for h in starved:
            v = g.at_vertex(h)
            at[v].insert(at[v].index(h), "s{}".format(serial))
            serial += 1
    return None


def trivalent_graph(rng: random.Random, n: int) -> RibbonGraph:
    """A seeded connected graph of ``n`` trivalent plain vertices: a random
    tree of valency at most 3, then random edges between free slots of
    distinct vertices, then stubs on the slots left; drawn again until
    valid."""
    while True:
        names = ["v{}".format(i) for i in range(n)]
        rings = {v: [] for v in names}
        twin = {}

        def join(u, w):
            a, b = "{}-{}a".format(u, len(twin)), "{}-{}b".format(w, len(twin))
            rings[u].append(a)
            rings[w].append(b)
            twin.update({a: b, b: a})

        for i in range(1, n):
            join(rng.choice([v for v in names[:i] if len(rings[v]) < 3]), names[i])
        for _ in range(rng.randint(0, n // 2)):
            free = [v for v in names if len(rings[v]) < 3]
            if len(free) >= 2:
                join(*rng.sample(free, 2))
        for v in names:
            while len(rings[v]) < 3:
                rings[v].append("{}-s{}".format(v, len(rings[v])))
            rng.shuffle(rings[v])
        g = RibbonGraph(rings, twin)
        if g.validation_report().ok:
            return g
