"""The benchmark workloads.

Each workload is a closed loop with one caller, run in rounds.  A round
builds fresh inputs from its own seed (`setup`, timed as set-up), runs its
operations one after another (`run_ops`, the timed phase, each operation
timed on its own), and then checks every output (`check`, not timed).  No two
rounds share an input graph, so no operation is served from a cache that
an earlier round filled.

Library calls go through the ``ribboncalc`` package attributes at call
time, so that the tracer's rebinding sees them.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter, deque
from dataclasses import dataclass, field

import ribboncalc as rc
import ribboncalc.cli  # loads rc.cli

import gen


class Speed:
    """How fast the host runs plain Python, followed over time.

    A probe is a fixed bit of pure-Python work that calls no library code:
    the benchmark's own walk from every halfedge of one 300-vertex graph,
    both ways (about 1.6 ms at the fast level of the baseline machine).  On
    a shared host the speed switches between a fast and a slow level in
    phases of seconds; `around` gives the probe cost next to a stretch of
    work, so that the work's time can be scaled to one speed.
    """

    every = 0.1  # seconds of work between two probes

    def __init__(self):
        self.spec = gen.generate("higher_genus", 300, "speed")
        self.nbrs = gen.neighbours(self.spec)
        self.starts = self.spec.halfedges()
        self.ends: list[float] = []
        self.costs: list[float] = []

    def probe(self) -> float:
        """Run one probe and return its end time.  Only the second of two
        passes is timed, and the cyclic collector is off, so that neither
        what the work before it left in the caches nor the library's heap
        bills the probe."""
        clock = time.perf_counter
        collecting = gc.isenabled()
        gc.disable()
        for _ in range(2):
            t0 = clock()
            for h in self.starts:
                gen.walk(self.spec, self.nbrs, h, True)
                gen.walk(self.spec, self.nbrs, h, False)
        t1 = clock()
        if collecting:
            gc.enable()
        self.ends.append(t1)
        self.costs.append(t1 - t0)
        return t1

    def around(self, start: float, end: float) -> float:
        """Mean cost of the last probe that ended by ``start`` and the first
        one that ended after ``end``: the host's speed during that work."""
        i = bisect.bisect_right(self.ends, start) - 1
        j = bisect.bisect_right(self.ends, end)
        return (self.costs[i] + self.costs[j]) / 2


@dataclass
class Op:
    kind: str
    fn: object  # zero-argument callable
    result: object = None
    error: str = ""
    started: float = 0.0
    seconds: float = 0.0


@dataclass
class Round:
    graphs: list = field(default_factory=list)  # (Spec, text, parsed or None)
    ops: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def run_ops(ops: list[Op], speed: Speed | None = None) -> float:
    """Run the operations in order, with a speed probe before the first,
    after the last and between two whenever `Speed.every` has passed since
    the last probe; return the summed time of the operations."""
    clock = time.perf_counter
    last = speed.probe() if speed else 0.0
    for op in ops:
        if speed and clock() - last > speed.every:
            last = speed.probe()
        t0 = clock()
        try:
            op.result = op.fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            op.error = "{}: {}".format(type(exc).__name__, exc)
        op.started, op.seconds = t0, clock() - t0
    if speed:
        speed.probe()
    return sum(op.seconds for op in ops)


# -- checks shared by the workloads ------------------------------------------


def digest_by_kind(ops: list[Op], render) -> dict[str, str]:
    """One sha256 per operation kind over the canonical text of every output."""
    hashes = {}
    for op in ops:
        if op.error:
            continue
        h = hashes.setdefault(op.kind, hashlib.sha256())
        h.update(render(op).encode())
        h.update(b"\n")
    return {kind: h.hexdigest()[:16] for kind, h in sorted(hashes.items())}


def step_rule_violation(spec: gen.Spec, nbrs, itin) -> str:
    """Check an itinerary against the benchmark's own walk (`gen.walk`):
    the corner step rule, stopping at the first external halfedge."""
    want = gen.walk(spec, nbrs, itin.start, itin.orient == rc.CW)
    if list(itin.out_halfedges) != want:
        return "itinerary from {} {} leaves along {}, expected {}".format(
            itin.start, itin.orient, list(itin.out_halfedges), want)
    return ""


def invariants_violation(spec: gen.Spec, inv) -> str:
    """Genus and marked points against the benchmark's own boundary walk."""
    walks = gen.orbits(spec)
    marked = sorted((sum(h not in spec.twin for h in w) for w in walks), reverse=True)
    chi = spec.n_vertices - len(spec.internal_edges())
    if 2 * inv.genus != 2 - len(walks) - chi:
        return "genus {} but V - E = {} with {} boundary walks".format(
            inv.genus, chi, len(walks))
    if list(inv.boundary) != marked:
        return "boundary {} but own walk gives {}".format(list(inv.boundary), marked)
    return ""


def bfs_ball(spec: gen.Spec, centre: str, size: int) -> list[str]:
    """A connected vertex set around ``centre`` whose induced subgraph is
    valid: every boundary walk of the piece meets a stub or a cut."""
    at = spec.at()
    ball, order, todo = {centre}, [centre], deque([centre])
    while todo and len(ball) < size:
        v = todo.popleft()
        for h in spec.rings[v]:
            t = spec.twin.get(h)
            if t is not None and at[t] not in ball:
                ball.add(at[t])
                order.append(at[t])
                todo.append(at[t])
    while len(order) > 1:
        piece = gen.Spec("piece")
        keep = set(order)
        piece.rings = {v: list(spec.rings[v]) for v in order}
        piece.twin = {h: t for h, t in spec.twin.items() if at[h] in keep and at[t] in keep}
        if not gen.starved(piece):
            break
        order.pop()
    return order


def expected_summands(spec: gen.Spec, nbrs, source, target, side: str) -> Counter:
    """(source halfedge, index, constant) of every summand that `decompose`
    gives, from the benchmark's own walks.  The walks start from the
    source edge's two halfedges or the source vertex's ring.  An edge
    target is met at every position whose edge it is; a vertex target at
    every entry into one of its halfedges, and at the start when the start
    is one of them (the constant visit).  An edge meeting itself keeps one
    constant visit; a vertex meeting itself keeps none but one identity."""
    if isinstance(source, rc.VertexRef):
        starts = spec.rings[source.id]
    else:
        starts = [source.id, spec.twin[source.id]]
    ring = set(spec.rings[target.id]) if isinstance(target, rc.VertexRef) else ()
    hits = Counter()
    for s in starts:
        out = gen.walk(spec, nbrs, s, side == "L")
        if isinstance(target, rc.EdgeRef):
            hits.update((s, i, i == 1) for i, h in enumerate(out, 1)
                        if min(h, spec.twin.get(h, h)) == target.id)
        else:
            if s in ring:
                hits[s, 1, True] += 1
            hits.update((s, i, False) for i in range(1, len(out))
                        if spec.twin.get(out[i - 1], out[i - 1]) in ring)
    if source == target:
        if isinstance(source, rc.EdgeRef):
            del hits[starts[1], 1, True]
        else:
            hits = Counter({k: n for k, n in hits.items() if not k[2]})
            hits[None, 0, False] += 1
    return hits


def summand_hits(dec) -> Counter:
    return Counter((s.source_halfedge, s.index, s.constant) for s in dec.summands)


def expected_twist(spec: gen.Spec, nbrs, starts) -> bool:
    """`twist_rotation_check` from the benchmark's own walks: the marked
    points reached counterclockwise from ``starts``, each moved to the next
    marked point of its boundary walk, are those reached clockwise."""
    succ = {}
    for orbit in gen.orbits(spec):
        marked = [h for h in orbit if h not in spec.twin]
        for i, h in enumerate(marked):
            succ[h] = marked[(i + 1) % len(marked)]

    def reached(clockwise: bool) -> Counter:
        return Counter(h for s in starts for h in gen.walk(spec, nbrs, s, clockwise)
                       if h not in spec.twin)

    return Counter(succ[h] for h in reached(False).elements()) == reached(True)


def assembly_violation(spec: gen.Spec, assign, choices, quiver, arcs) -> str:
    """Sizes of a punctured trivalent graph's glued quiver and tagged
    triangulation: three vertices per trivalent vertex and four per
    puncture, less one per internal edge; three arrows per trivalent
    vertex, four per puncture glued with T1 or T2 and five with T3 or T4;
    one arc per internal edge plus two per puncture."""
    edges = len(spec.internal_edges())
    plain = sum(k == "plain" for k in spec.kind.values())
    arrows = sum(3 if name == "rank1_trivalent" else 4 if name[-1] in "12" else 5
                 for name in assign.values())
    want = (3 * plain + 4 * len(choices) - edges, arrows, edges + 2 * len(choices))
    got = (len(quiver.vertices), len(quiver.arrows), len(arcs))
    if got != want:
        return "glued quiver and tagged triangulation have (vertices, arrows, arcs) " \
            "{}, expected {}".format(got, want)
    return ""


def graph_input(spec: gen.Spec) -> tuple:
    text = gen.to_text(spec)
    return spec, text, rc.parse_graph(text)


# -- explore -------------------------------------------------------------------


class Explore:
    """One library session on one large higher-genus graph."""

    vertices = 1000
    round_seconds = 1.8  # nominal timed phase of a round, sets the round count
    curve_sample = 48
    web_sample = 48
    decompose_per_case = 12  # per (source kind, target kind, side)
    unit_splits = 8
    ball = 40

    def setup(self, seed: str) -> Round:
        rnd = Round()
        spec, text, g = graph_input(gen.generate("higher_genus", self.vertices, seed))
        rnd.graphs.append((spec, text, g))
        rng = random.Random(seed + "/queries")
        vertices = sorted(spec.rings)
        edges = spec.internal_edges()

        def obj(kind):
            return rc.EdgeRef(rng.choice(edges)) if kind == "e" else rc.VertexRef(
                rng.choice(vertices))

        ops = rnd.ops
        for v in vertices:
            ring = tuple(spec.rings[v])
            ops.append(Op("walk", lambda ring=ring: [
                rc.itinerary(g, h, o) for h in ring for o in (rc.CW, rc.CCW)]))
        for i, e in enumerate(rng.sample(edges, self.curve_sample)):
            o = (rc.CW, rc.CCW)[i % 2]
            ops.append(Op("curve", lambda e=e, o=o: list(rc.curve_trajectory(g, e, o))))
        for i, v in enumerate(rng.sample(vertices, self.web_sample)):
            o = (rc.CW, rc.CCW)[i % 2]
            ops.append(Op("web", lambda v=v, o=o: rc.web_trajectory(g, v, o)))
        nbrs, at = gen.neighbours(spec), spec.at()
        for case in ("ee", "ev", "ve", "vv"):
            for side in ("L", "R"):
                for _ in range(self.decompose_per_case):
                    # the target lies on a walk from the source, so most
                    # decompositions have summands
                    src = obj(case[0])
                    start = rng.choice(spec.rings[src.id] if case[0] == "v"
                                       else [src.id, spec.twin[src.id]])
                    path = gen.walk(spec, nbrs, start, side == "L")
                    h = rng.choice(path[1:])
                    tgt = (rc.EdgeRef(min(h, spec.twin.get(h, h))) if case[1] == "e"
                           else rc.VertexRef(at[h]))
                    ops.append(Op("decompose_" + case, lambda s=src, t=tgt, d=side:
                                  rc.decompose(g, t, s, d)))
                    rnd.extra[len(ops) - 1] = (src, tgt, side)
        for i in range(self.unit_splits):
            x, side = obj("ev"[i % 2]), "LR"[(i // 2) % 2]
            ops.append(Op("unit_split", lambda x=x, d=side: rc.check_unit_split(g, x, d)))
            rnd.extra[len(ops) - 1] = (x, x, side)
        centre = rng.choice(vertices)
        ball = bfs_ball(spec, centre, self.ball)
        sub = Op("subgraph", lambda: rc.subgraph(g, ball))
        ops.append(sub)
        rnd.extra[len(ops) - 1] = ball
        for tgt, side in ((rc.VertexRef(centre), "L"), (obj("e"), "R")):
            ops.append(Op("decompose_subgraph", lambda t=tgt, d=side: rc.decompose_subgraph(
                g, sub.result, t, d)))
        # one edge and one trivalent vertex, so that rounds cost alike
        trivalent = [v for v in vertices if len(spec.rings[v]) == 3]
        for x in (obj("e"), rc.VertexRef(rng.choice(trivalent))):
            kind = "twist_e" if isinstance(x, rc.EdgeRef) else "twist_v"
            ops.append(Op(kind, lambda x=x: rc.twist_rotation_check(g, x)))
            rnd.extra[len(ops) - 1] = (spec.rings[x.id] if kind == "twist_v"
                                       else [x.id, spec.twin[x.id]])
        return rnd

    def check(self, rnd: Round) -> None:
        spec, text, g = rnd.graphs[0]
        neighbours = gen.neighbours(spec)
        fail = rnd.failures
        if rc.serialize(g) != text:
            fail.append("serialize(parse_graph(t)) != t")
        report = rc.validate_graph(g)
        if not report.ok:
            fail.append("generated graph invalid: {}".format(report.violations))
        msg = invariants_violation(spec, rc.surface_invariants(g))
        if msg:
            fail.append(msg)
        at = spec.at()
        for i, op in enumerate(rnd.ops):
            if op.error:
                fail.append("{}: {}".format(op.kind, op.error))
                continue
            itins, query = [], rnd.extra.get(i)
            if op.kind in ("walk", "curve"):
                itins = op.result
            elif op.kind == "web":
                itins = list(op.result.values())
            elif op.kind in ("decompose_ee", "decompose_ev", "decompose_ve", "decompose_vv"):
                src, tgt, side = query
                if ((op.result.source, op.result.target, op.result.side) != query
                        or summand_hits(op.result) != expected_summands(
                            spec, neighbours, src, tgt, side)):
                    fail.append("decompose({}, {}, {}) gave other summands than the "
                                "benchmark's own walks".format(tgt, src, side))
            elif op.kind == "unit_split" and op.result is not True:
                fail.append("unit split fails on {} {}".format(*query[1:]))
            elif op.kind == "subgraph":
                keep = set(query)
                cut = sorted(h for v in keep for h in spec.rings[v]
                             if h in spec.twin and at[spec.twin[h]] not in keep)
                if (list(op.result.vertices), list(op.result.cut_halfedges)) != (
                        sorted(keep), cut):
                    fail.append("subgraph has other vertices or cut halfedges")
            elif op.kind.startswith("twist_"):
                if op.result != expected_twist(spec, neighbours, query):
                    fail.append("twist rotation from {} gives {}".format(query, op.result))
            for itin in itins:
                msg = step_rule_violation(spec, neighbours, itin)
                if msg:
                    fail.append(msg)
                    break

    def render(self, op: Op) -> str:
        return rc.serialize(op.result)


# -- cli -----------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rc.cli.main(argv)
    return code, out.getvalue()


class Cli:
    """In-process ``cli.main`` over a batch of distinct graph files."""

    # sizes 100..4000 and families in turn; with an odd number of files
    # op_p50_ms falls in the middle file's subcommands, and op_p95_ms among
    # the largest file's, which all cost about the same
    files = 7
    round_seconds = 3.3
    families = ("disc_tree", "trivalent_punctured", "higher_genus")

    def __init__(self, workdir: str):
        self.workdir = workdir

    def setup(self, seed: str) -> Round:
        rnd = Round()
        tag = hashlib.sha256(seed.encode()).hexdigest()[:12]
        sizes = gen.ladder(self.files)
        for i, n in enumerate(sizes):
            family = self.families[i % len(self.families)]
            spec = gen.generate(family, n, "{}/f{}".format(seed, i))
            text = gen.to_text(spec)
            base = os.path.join(self.workdir, "{}-{}".format(tag, i))
            # the trivalent files' assemblies are written as JSON and as DOT in turn
            quiver_format = ("json", "dot")[sum(
                s.family == "trivalent_punctured" for s, _, _ in rnd.graphs) % 2]
            rnd.graphs.append((spec, text, None))
            self.add_file_ops(rnd, spec, text, base, random.Random(seed + "/q{}".format(i)),
                              quiver_format)
        return rnd

    @staticmethod
    def add_file_ops(rnd: Round, spec: gen.Spec, text: str, base: str, rng,
                     quiver_format: str = "json") -> None:
        """Write one graph (plus templates and choices for trivalent ones)
        and queue every subcommand on it."""
        path = base + ".json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        vertex = rng.choice(sorted(spec.rings))
        edge = rng.choice(spec.internal_edges())
        side = rng.choice("LR")
        # the decomposition target is a turn on a walk from the source edge
        route = gen.walk(spec, gen.neighbours(spec), rng.choice([edge, spec.twin[edge]]),
                         side == "L")
        target = spec.at()[rng.choice(route[1:])]
        argvs = [
            ("validate", ["validate", "--graph", path]),
            ("info", ["info", "--graph", path]),
            ("export_json", ["export", "--graph", path]),
            ("export_dot", ["export", "--graph", path, "--format", "dot"]),
            ("traj", ["traj", "--graph", path, "--start", vertex]),
            ("decompose", ["decompose", "--graph", path, "--source", edge,
                           "--source-kind", "edge", "--target", target,
                           "--target-kind", "vertex", "--side", side]),
        ]
        query = {"vertex": vertex, "edge": edge, "target": target, "side": side}
        if spec.family == "trivalent_punctured":
            assign, choices = {}, {}
            for v in sorted(spec.rings):
                if spec.kind[v] == "singular":
                    assign[v] = "punctured_2gon_T{}".format(rng.randint(1, 4))
                    choices[v] = "T{}".format(rng.randint(1, 4))
                else:
                    assign[v] = "rank1_trivalent"
            templates = base + "-templates.json"
            choices_path = base + "-choices.json"
            with open(templates, "w", encoding="utf-8") as fh:
                json.dump({"assignments": assign}, fh)
            with open(choices_path, "w", encoding="utf-8") as fh:
                json.dump({"choices": choices}, fh)
            argvs.append(("assemble", ["assemble", "--graph", path, "--templates", templates,
                                       "--format", quiver_format]))
            argvs.append(("tagged", ["tagged", "--graph", path, "--choices", choices_path]))
            query.update(assign=assign, choices=choices, quiver_format=quiver_format)
        for kind, argv in argvs:
            rnd.ops.append(Op(kind, lambda argv=argv: run_cli(argv)))
        rnd.extra[len(rnd.graphs) - 1] = (len(rnd.ops) - len(argvs), query)

    @staticmethod
    def check(rnd: Round) -> None:
        fail = rnd.failures
        for gi, (spec, text, _) in enumerate(rnd.graphs):
            first, query = rnd.extra[gi]
            g = rc.parse_graph(text)
            expected = {
                "validate": rc.serialize(rc.validate_graph(g)),
                "info": rc.serialize(rc.surface_invariants(g)),
                "export_json": rc.serialize(g),
                "export_dot": rc.graph_dot(g),
            }
            neighbours = gen.neighbours(spec)
            web = rc.web_trajectory(g, query["vertex"], rc.CW)
            expected["traj"] = rc.serialize({"web": web})
            src, tgt = rc.EdgeRef(query["edge"]), rc.VertexRef(query["target"])
            dec = rc.decompose(g, tgt, src, query["side"])
            expected["decompose"] = rc.serialize(dec)
            msg = invariants_violation(spec, rc.surface_invariants(g))
            if summand_hits(dec) != expected_summands(spec, neighbours, src, tgt, query["side"]):
                msg = msg or "decompose gave other summands than the benchmark's own walks"
            if "assign" in query:
                q = rc.assemble_global(g, query["assign"])
                arcs = rc.tagged_triangulation(g, query["choices"])
                expected["assemble"] = (rc.export_dot(q) if query["quiver_format"] == "dot"
                                        else rc.serialize(q))
                expected["tagged"] = rc.serialize({"arcs": arcs})
                msg = msg or assembly_violation(spec, query["assign"], query["choices"], q, arcs)
            if expected["export_json"] != text:
                fail.append("serialize(parse_graph(t)) != t")
            for itin in web.values():
                msg = msg or step_rule_violation(spec, neighbours, itin)
            if msg:
                fail.append(msg)
            for op in rnd.ops[first:first + len(expected)]:
                want = expected[op.kind]
                if not want.endswith("\n"):
                    want += "\n"
                if op.error:
                    fail.append("{}: {}".format(op.kind, op.error))
                elif op.result[0] != 0:
                    fail.append("{} exited {}".format(op.kind, op.result[0]))
                elif op.result[1] != want:
                    fail.append("{} printed other output than the library".format(op.kind))

    def render(self, op: Op) -> str:
        return op.result[1]


def make(name: str, workdir: str):
    return Cli(workdir) if name == "cli" else Explore()


# -- outside the timed phase ---------------------------------------------------


def probe(workdir: str, seed: str) -> Round:
    """One 24-vertex graph through every traced layer, so that each layer
    reports a measured figure on every workload (traced rounds only)."""
    rnd = Round()
    spec = gen.generate("trivalent_punctured", 24, seed)
    text = gen.to_text(spec)
    rnd.graphs.append((spec, text, None))
    Cli.add_file_ops(rnd, spec, text, os.path.join(workdir, "probe"), random.Random(seed))
    g = rc.parse_graph(text)
    centre = sorted(spec.rings)[0]
    ball = bfs_ball(spec, centre, 6)
    x = rc.VertexRef(centre)
    assign = rnd.extra[0][1]["assign"]
    extra = [
        Op("decompose_subgraph", lambda: rc.decompose_subgraph(g, rc.subgraph(g, ball), x)),
        Op("twist", lambda: rc.twist_rotation_check(g, x)),
        Op("quiver_dot", lambda: rc.export_dot(rc.assemble_global(g, assign))),
    ]
    rnd.ops += extra
    run_ops(rnd.ops)
    Cli.check(rnd)
    rnd.failures += ["{}: {}".format(op.kind, op.error) for op in extra if op.error]
    return rnd


class ColdCli:
    """Cold ``python -m ribboncalc.cli info`` calls on one small graph."""

    def __init__(self, src: str, workdir: str, seed: str, timeout: float):
        text = gen.to_text(gen.generate("trivalent_punctured", 100, seed))
        path = os.path.join(workdir, "cold.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.want = rc.serialize(rc.surface_invariants(rc.parse_graph(text))) + "\n"
        self.argv = [sys.executable, "-m", "ribboncalc.cli", "info", "--graph", path]
        self.env = dict(os.environ, PYTHONPATH=src)
        self.timeout = timeout
        self.times: list[float] = []
        self.failures: list[str] = []

    def call(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, capture_output=True, text=True,
                              env=self.env, timeout=self.timeout)
        self.times.append((time.perf_counter() - t0) * 1000)
        if proc.returncode != 0 or proc.stdout != self.want:
            self.failures.append("cold info exited {}: {!r}".format(
                proc.returncode, proc.stderr))
