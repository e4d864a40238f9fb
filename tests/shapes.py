"""Thin and symmetric ribbon graphs of any size, as test data.

The bench's random families have short rays and small valencies, so they
cannot show a cost that grows with a vertex's valency or a ray's length.
These shapes can:

- `star`: a centre ``c`` of valency n, joined by ``e<i>a``/``e<i>b`` to n
  2-valent leaves ``l<i>``, each leaf with one external halfedge ``s<i>``;
- `path`: n 2-valent vertices ``v<i>`` in a row, ``e<i>a`` at ``v<i>``
  twinned with ``e<i>b`` at the next, and a stub at each end, ``s0`` first
  and ``s1`` last;
- `caterpillar`: that path with a leaf at every vertex, ``f<i>a`` at
  ``v<i>`` twinned with ``f<i>b`` at the 2-valent leaf ``l<i>``, which
  carries the stub ``t<i>``;
- `cycle`: n vertices ``v<i>`` in a ring, ``e<i>a`` at ``v<i>`` twinned
  with ``e<i>b`` at the next, each with one stub ``s<i>``, on alternate
  sides of the ring, so that both of its boundary circles carry a marked
  point.

The star and the cycle need n >= 2, the path and the caterpillar n >= 1.
Each builder makes every id once, by calling ``name`` on its text, so a
test can pass a `str` subclass and every table of the graph holds the
same id objects.  `shapes` gives each shape and its `dual` at one size.
"""

from ribboncalc import RibbonGraph, dual


def _graph(rings: dict, pairs: list, name) -> RibbonGraph:
    """The graph of the halfedge ``rings`` at each vertex, with the internal
    edges ``pairs``, each id made once by ``name``."""
    ids = {x: name(x) for x in [*rings, *(h for ring in rings.values() for h in ring)]}
    twin = {ids[h]: ids[t] for h, t in pairs}
    twin.update({t: h for h, t in twin.items()})
    return RibbonGraph({ids[v]: [ids[h] for h in ring] for v, ring in rings.items()}, twin)


def star(n: int, name=str) -> RibbonGraph:
    rings = {"c": ["e{}a".format(i) for i in range(n)]}
    rings.update(("l{}".format(i), ["e{}b".format(i), "s{}".format(i)]) for i in range(n))
    return _graph(rings, [("e{}a".format(i), "e{}b".format(i)) for i in range(n)], name)


def _spine(n: int) -> tuple[dict, list]:
    """The rings and edges of `path`."""
    rings = {
        "v{}".format(i): ["e{}b".format(i - 1) if i else "s0",
                          "e{}a".format(i) if i < n - 1 else "s1"]
        for i in range(n)
    }
    return rings, [("e{}a".format(i), "e{}b".format(i)) for i in range(n - 1)]


def path(n: int, name=str) -> RibbonGraph:
    return _graph(*_spine(n), name)


def caterpillar(n: int, name=str) -> RibbonGraph:
    rings, pairs = _spine(n)
    for i in range(n):
        rings["v{}".format(i)].insert(1, "f{}a".format(i))
        rings["l{}".format(i)] = ["f{}b".format(i), "t{}".format(i)]
        pairs.append(("f{}a".format(i), "f{}b".format(i)))
    return _graph(rings, pairs, name)


def cycle(n: int, name=str) -> RibbonGraph:
    rings = {}
    for i in range(n):
        back, ahead, stub = "e{}b".format((i - 1) % n), "e{}a".format(i), "s{}".format(i)
        # the stub's side of the ring alternates with the vertex
        rings["v{}".format(i)] = [back, ahead, stub] if i % 2 else [back, stub, ahead]
    return _graph(rings, [("e{}a".format(i), "e{}b".format(i)) for i in range(n)], name)


SHAPES = {"star": star, "path": path, "caterpillar": caterpillar, "cycle": cycle}


def shapes(n: int) -> dict[str, RibbonGraph]:
    """Each shape of size ``n`` and its dual, by name."""
    graphs = {name: build(n) for name, build in SHAPES.items()}
    graphs.update({"dual " + name: dual(g) for name, g in list(graphs.items())})
    return graphs
