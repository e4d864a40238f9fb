"""Seeded, scalable generator of valid ribbon graphs for the benchmark.

Three families, each at any size from a handful to thousands of vertices:

- ``disc_tree``: a random recursive tree with boundary stubs (genus 0,
  one boundary circle);
- ``higher_genus``: the same tree plus about 20% extra internal edges,
  with shuffled cyclic orders;
- ``trivalent_punctured``: a trivalent graph (a trivalent tree whose
  stubs are partly joined into extra edges) with singular 2-valent
  punctures subdividing some internal edges.

Every boundary walk gets a marked point without discarding a draw: a walk
that meets no external halfedge is patched through one of its halfedges
``h``.  Where valency is free, a new stub is inserted into the cyclic order
just *before* ``h``, which puts it in the walk through ``h``.  In the
trivalent family the edge of ``h`` is subdivided by a new trivalent vertex
whose stub lands in that same walk.

A graph is a plain `Spec` here; `to_text` writes the canonical JSON that
`ribboncalc.serialize` writes for the same graph, and `orbits` is the
benchmark's own boundary walk, independent of the library's.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

EXTRA_EDGE_SHARE = 0.2
PUNCTURE_SHARE = 0.1


@dataclass
class Spec:
    family: str
    rings: dict[str, list[str]] = field(default_factory=dict)  # ccw order
    twin: dict[str, str] = field(default_factory=dict)
    kind: dict[str, str] = field(default_factory=dict)
    label: dict[str, str] = field(default_factory=dict)
    serial: int = 0

    def vertex(self, ring=(), kind="plain") -> str:
        v = "v{}".format(len(self.rings))
        self.rings[v] = list(ring)
        self.kind[v] = kind
        if kind == "singular":
            self.label[v] = "puncture"
        return v

    def halfedge(self) -> str:
        self.serial += 1
        return "h{}".format(self.serial)

    def join(self, a: str, b: str) -> None:
        self.twin[a] = b
        self.twin[b] = a

    def edge(self, u: str, w: str) -> None:
        a, b = self.halfedge(), self.halfedge()
        self.rings[u].append(a)
        self.rings[w].append(b)
        self.join(a, b)

    # -- derived data, computed from the spec alone ---------------------

    def at(self) -> dict[str, str]:
        return {h: v for v, ring in self.rings.items() for h in ring}

    def halfedges(self) -> list[str]:
        return sorted(h for ring in self.rings.values() for h in ring)

    def internal_edges(self) -> list[str]:
        return sorted(h for h, t in self.twin.items() if h < t)

    @property
    def n_vertices(self) -> int:
        return len(self.rings)

    @property
    def n_halfedges(self) -> int:
        return sum(len(ring) for ring in self.rings.values())


def neighbours(spec: Spec) -> tuple[dict[str, str], dict[str, str]]:
    """Counterclockwise successor and predecessor of every halfedge."""
    nxt, prv = {}, {}
    for ring in spec.rings.values():
        n = len(ring)
        for i, h in enumerate(ring):
            nxt[h] = ring[(i + 1) % n]
            prv[h] = ring[(i - 1) % n]
    return nxt, prv


def orbits(spec: Spec) -> list[list[str]]:
    """Boundary walks: orbits of h -> ccw successor of the extended twin."""
    nxt, _ = neighbours(spec)
    seen: set[str] = set()
    out = []
    for start in spec.halfedges():
        if start in seen:
            continue
        orbit = []
        h = start
        while h not in seen:
            seen.add(h)
            orbit.append(h)
            h = nxt[spec.twin.get(h, h)]
        out.append(orbit)
    return out


def walk(spec: Spec, nbrs, h: str, clockwise: bool) -> list[str]:
    """Out halfedges of the trajectory from ``h``: step to the cyclic
    neighbour of the extended twin until the first external halfedge.
    ``nbrs`` is `neighbours(spec)`."""
    turn = nbrs[0] if clockwise else nbrs[1]
    out = [h]
    while True:
        out.append(turn[spec.twin.get(out[-1], out[-1])])
        if out[-1] not in spec.twin:
            return out


def starved(spec: Spec) -> list[list[str]]:
    return [o for o in orbits(spec) if all(h in spec.twin for h in o)]


def to_text(spec: Spec) -> str:
    """Canonical JSON: sorted ids, rings rotated to their smallest id."""
    vertices = []
    for v in sorted(spec.rings):
        ring = spec.rings[v]
        k = ring.index(min(ring))
        entry = {"id": v, "cyclic": ring[k:] + ring[:k], "kind": spec.kind[v]}
        if v in spec.label:
            entry["label"] = spec.label[v]
        vertices.append(entry)
    halfedges = [{"id": h, "twin": spec.twin.get(h)} for h in spec.halfedges()]
    return json.dumps(
        {"vertices": vertices, "halfedges": halfedges},
        sort_keys=True,
        separators=(",", ":"),
    )


# -- families ---------------------------------------------------------------


def _tree(rng: random.Random, spec: Spec, n: int) -> list[str]:
    names = [spec.vertex() for _ in range(n)]
    for i in range(1, n):
        spec.edge(names[rng.randrange(i)], names[i])
    return names


def _stub_up(rng: random.Random, spec: Spec, names: list[str]) -> None:
    for v in names:
        while len(spec.rings[v]) < 2:
            spec.rings[v].append(spec.halfedge())
    for _ in range(max(1, len(names) // 10)):
        spec.rings[rng.choice(names)].append(spec.halfedge())
    for v in names:
        rng.shuffle(spec.rings[v])


def _patch_before(spec: Spec) -> None:
    at = spec.at()
    for orbit in starved(spec):
        h = min(orbit)
        ring = spec.rings[at[h]]
        ring.insert(ring.index(h), spec.halfedge())


def disc_tree(rng: random.Random, n: int) -> Spec:
    spec = Spec("disc_tree")
    _stub_up(rng, spec, _tree(rng, spec, n))
    return spec


def higher_genus(rng: random.Random, n: int) -> Spec:
    spec = Spec("higher_genus")
    names = _tree(rng, spec, n)
    for _ in range(round(EXTRA_EDGE_SHARE * (n - 1))):
        u, w = rng.sample(names, 2)
        spec.edge(u, w)
    _stub_up(rng, spec, names)
    _patch_before(spec)
    return spec


def _subdivide(spec: Spec, h: str, kind: str) -> None:
    """Put a new vertex on the edge of ``h``; a plain one carries a stub
    that joins the boundary walk through ``h``."""
    t = spec.twin[h]
    x, y = spec.halfedge(), spec.halfedge()
    ring = [x, y] if kind == "singular" else [x, spec.halfedge(), y]
    spec.vertex(ring, kind)
    spec.join(h, x)
    spec.join(t, y)


def trivalent_punctured(rng: random.Random, n: int) -> Spec:
    """About ``n`` vertices: trivalent plain ones plus 2-valent punctures."""
    spec = Spec("trivalent_punctured")
    m = max(2, round(n / (1 + PUNCTURE_SHARE)))
    first = spec.vertex([spec.halfedge() for _ in range(3)])
    stubs = list(spec.rings[first])
    while spec.n_vertices < m:
        i = rng.randrange(len(stubs))
        s = stubs[i]
        x, a, b = spec.halfedge(), spec.halfedge(), spec.halfedge()
        spec.vertex([x, a, b])
        spec.join(s, x)
        stubs[i] = a
        stubs.append(b)
    at = spec.at()
    for _ in range(round(EXTRA_EDGE_SHARE * m)):
        if len(stubs) < 4:
            break
        i, j = rng.sample(range(len(stubs)), 2)
        if at[stubs[i]] == at[stubs[j]]:
            continue
        spec.join(stubs[i], stubs[j])
        for k in sorted((i, j), reverse=True):
            stubs[k] = stubs[-1]
            stubs.pop()
    for v in list(spec.rings):
        rng.shuffle(spec.rings[v])
    for orbit in starved(spec):
        _subdivide(spec, min(orbit), "plain")
    edges = spec.internal_edges()
    for h in rng.sample(edges, round(PUNCTURE_SHARE * m)):
        _subdivide(spec, h, "singular")
    return spec


def ladder(count: int, lo: int = 100, hi: int = 4000) -> list[int]:
    """``count`` sizes in geometric progression from ``lo`` to ``hi``."""
    return [round(lo * (hi / lo) ** (j / (count - 1))) for j in range(count)]


FAMILIES = {
    "disc_tree": disc_tree,
    "higher_genus": higher_genus,
    "trivalent_punctured": trivalent_punctured,
}


def generate(family: str, n: int, seed) -> Spec:
    """One graph of ``family`` with about ``n`` vertices, fixed by ``seed``."""
    spec = FAMILIES[family](random.Random(seed), n)
    if starved(spec):  # the patch rules above leave none
        raise AssertionError("generator left a boundary walk without a marked point")
    return spec
