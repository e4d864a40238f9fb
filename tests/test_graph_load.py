"""Differential tests of graph loading and validation.

`graph_from_jsonable` proves uniqueness and membership on whole tables
and hands them to the graph's private builder; when a whole-table check
fails, its element-by-element pass checks the structure of the document
(keys, lists, string ids, ring entries, twins and labels, duplicate ids,
ring entries that name a declared halfedge, every halfedge in a ring)
and ends in the public `RibbonGraph` constructor, which checks the
values (a halfedge in two rings, a twin that names no halfedge of a ring
or does not point back, the kind) and whose fault keeps the location
that the pass turns into a JSON pointer.  `validate_graph` reads the
graph's own tables.  The earlier formulations, which checked every fact
in one element-by-element pass and went through the accessors, are kept
below verbatim as oracles: every input, mutated at random or one of the
hand-made cases that decline the whole-table checks, must be accepted or
rejected by both; an accepted input must give the same graph and every
graph the same violations in the same order.  A rejected input must give
the same pointer, with the message unchanged or changed as `_CHANGED`
lists, with one exception: the structure of the whole document is now
checked before any value, so where an input has both kinds of fault, the
structure fault is reported first.
"""

import copy
import random
import re
from types import MappingProxyType
from typing import Any, Optional
from unittest import mock

from ribboncalc import (
    ParseError,
    RibbonGraph,
    ValidationReport,
    parse_graph,
    serialize,
    to_jsonable,
)
from ribboncalc import graph as library_graph
from ribboncalc import serialization as library_serialization
from ribboncalc.graph import VERTEX_KINDS, _predecessors

from conftest import (
    GRAPH_FIXTURES, ext_twin, external_edges, fixture_graph, ring_steps, sample_graphs,
)
from parse_oracle import _loc, _ptr, _want, _want_keys, _want_str
from randgraphs import random_graph


# -- oracles: the formulations before the one-pass load, verbatim, their
# located-input helpers in `parse_oracle` ------------------------------


def graph_from_jsonable(obj: Any, pointer: str = "") -> RibbonGraph:
    _want_keys(obj, (pointer,), ("vertices", "halfedges"))
    vertices = _want(obj["vertices"], list, (pointer, "vertices"), "a list")
    halfedges = _want(obj["halfedges"], list, (pointer, "halfedges"), "a list")

    declared: dict[str, Optional[str]] = {}
    for i, entry in enumerate(halfedges):
        p = (pointer, "halfedges", i)
        _want_keys(entry, p, ("id", "twin"))
        hid = _want_str(entry["id"], p + ("id",))
        if hid in declared:
            raise ParseError(_loc(p + ("id",)), "duplicate halfedge id {!r}".format(hid))
        twin = entry["twin"]
        if twin is not None:
            twin = _want_str(twin, p + ("twin",))
        declared[hid] = twin
    for i, entry in enumerate(halfedges):
        hid, twin = entry["id"], entry["twin"]
        if twin is None:
            continue
        p = (pointer, "halfedges", i, "twin")
        if twin not in declared:
            raise ParseError(_loc(p), "unknown halfedge id {!r}".format(twin))
        if declared[twin] != hid:
            raise ParseError(_loc(p), "twin of {!r} does not point back".format(hid))

    cyclic: dict[str, list[str]] = {}
    kinds: dict[str, str] = {}
    labels: dict[str, str] = {}
    attached: dict[str, str] = {}
    for i, entry in enumerate(vertices):
        p = (pointer, "vertices", i)
        _want_keys(entry, p, ("id", "cyclic", "kind"), optional=("label",))
        vid = _want_str(entry["id"], p + ("id",))
        if vid in cyclic:
            raise ParseError(_loc(p + ("id",)), "duplicate vertex id {!r}".format(vid))
        ring = _want(entry["cyclic"], list, p + ("cyclic",), "a list")
        cyclic[vid] = []
        for j, h in enumerate(ring):
            hp = p + ("cyclic", j)
            h = _want_str(h, hp)
            if h not in declared:
                raise ParseError(_loc(hp), "unknown halfedge id {!r}".format(h))
            if h in attached:
                raise ParseError(_loc(hp), "halfedge {!r} already attached".format(h))
            attached[h] = vid
            cyclic[vid].append(h)
        kind = _want_str(entry["kind"], p + ("kind",))
        if kind not in VERTEX_KINDS:
            raise ParseError(_loc(p + ("kind",)), "unknown vertex kind {!r}".format(kind))
        kinds[vid] = kind
        if "label" in entry:
            labels[vid] = _want_str(entry["label"], p + ("label",))
    for hid in declared:
        if hid not in attached:
            raise ParseError(
                pointer + _ptr("halfedges"),
                "halfedge {!r} is attached to no vertex".format(hid),
            )
    twin = {h: t for h, t in declared.items() if t is not None}
    return RibbonGraph(cyclic, twin, kinds, labels)


def corner_permutation(g: RibbonGraph) -> dict[str, str]:
    """The face-traversal permutation: follow the extended twin, then
    take one counterclockwise step.  Its orbits are the boundary walks."""
    succ, _ = ring_steps(g)
    return {h: succ[ext_twin(g, h)] for h in g.halfedges}


def _corner_orbits(g: RibbonGraph) -> list[tuple[str, ...]]:
    perm = corner_permutation(g)
    seen: set[str] = set()
    orbits = []
    for start in g.halfedges:
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        h = perm[start]
        while h != start:
            orbit.append(h)
            seen.add(h)
            h = perm[h]
        orbits.append(tuple(orbit))
    return orbits


def _connected(g: RibbonGraph) -> bool:
    if not g.vertices:
        return True
    todo = [g.vertices[0]]
    seen = {g.vertices[0]}
    while todo:
        v = todo.pop()
        for h in g.cyclic(v):
            t = g.twin_of(h)
            if t is None:
                continue
            w = g.at_vertex(t)
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(g.vertices)


def validate_graph(g: RibbonGraph) -> ValidationReport:
    """Report every violated graph invariant; an empty report means valid.

    Downstream operations refuse graphs whose report is non-empty.
    """
    violations = []
    if not g.vertices:
        violations.append("graph is empty")
    for h in g.halfedges:
        if g.twin_of(h) == h:
            violations.append("twin has a fixed point: {}".format(h))
    for e in g.internal_edges():
        pair = g.halfedges_of(e)
        if len(pair) == 2 and g.at_vertex(pair[0]) == g.at_vertex(pair[1]):
            violations.append(
                "loop: edge {} has both halfedges at vertex {}".format(
                    e, g.at_vertex(pair[0])
                )
            )
    for v in g.vertices:
        n = g.valency(v)
        if n == 0:
            violations.append("isolated vertex: {}".format(v))
        elif n == 1:
            violations.append("valency-1 vertex: {}".format(v))
    if g.vertices and not _connected(g):
        violations.append("graph is not connected")
    for orbit in _corner_orbits(g):
        if not any(g.is_external(h) for h in orbit):
            violations.append(
                "boundary walk without external halfedge (through {})".format(
                    min(orbit)
                )
            )
    return ValidationReport(tuple(violations))


# -- differential parse test ------------------------------------------------


def _outcome(parse, obj, pointer):
    """What parsing gives: the graph's canonical text and validation
    report, or the error's type, message and pointer."""
    try:
        g = parse(obj, pointer)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.pointer)
    except Exception as exc:  # the oracle decides which errors are right
        return (type(exc).__name__, str(exc))
    return ("graph", serialize(g), library_graph.validate_graph(g))


def _graph_in_diagram(obj, pointer):
    """The graph that the parse of a diagram around ``obj`` reads.  The
    diagram's tables are empty, so once its graph is read the diagram is
    refused, at ``pointer``."""
    read, parse = [], library_serialization.graph_from_jsonable

    def reading(*args):
        read.append(parse(*args))
        return read[-1]

    tables = {"graph": obj, "vertex_quivers": {}, "edge_quivers": {}, "incidences": {}}
    with mock.patch.object(library_serialization, "graph_from_jsonable", reading):
        try:
            library_serialization.diagram_from_jsonable(tables, pointer)
        except ParseError as exc:
            if not read:
                raise
            assert exc.pointer == (pointer or "/"), exc
    return read[0]


_ODD_VALUES = (None, 0, 1.5, True, [], {}, ["a"], {"id": "a"}, "", "a/b~c")


def _mutate(obj: dict, rng: random.Random) -> Any:
    """One random structural fault (or harmless edit) of a graph object."""
    halfedges, vertices = obj["halfedges"], obj["vertices"]
    hids = [e.get("id", "h") for e in halfedges] or ["h"]
    site = rng.choice(("top", "halfedge", "vertex"))
    if site == "top":
        op = rng.choice(("drop", "add", "retype", "replace"))
        if op == "drop":
            del obj[rng.choice(("vertices", "halfedges"))]
        elif op == "add":
            obj[rng.choice(("extra", "label", "a/b~c"))] = 1
        elif op == "retype":
            obj[rng.choice(("vertices", "halfedges"))] = rng.choice(_ODD_VALUES)
        else:
            return rng.choice(_ODD_VALUES)
        return obj
    entries = halfedges if site == "halfedge" else vertices
    if not entries:
        entries.append({"id": "x", "twin": None} if site == "halfedge"
                       else {"id": "x", "cyclic": [], "kind": "plain"})
    i = rng.randrange(len(entries))
    entry = entries[i]
    keys = ("id", "twin") if site == "halfedge" else ("id", "cyclic", "kind", "label")
    ops = ["drop", "add", "retype", "duplicate", "delete", "replace"]
    if site == "halfedge":
        ops += ["dangling", "self", "asymmetric"]
    else:
        ops += ["attach_twice", "attach_never", "unknown_kind", "label", "ring_entry"]
    op = rng.choice(ops)
    if op == "drop":
        entry.pop(rng.choice(keys), None)
    elif op == "add":
        entry[rng.choice(("extra", "label", "twin", "~1", "a/b"))] = rng.choice(_ODD_VALUES)
    elif op == "retype":
        entry[rng.choice(keys)] = rng.choice(_ODD_VALUES)
    elif op == "duplicate":
        entries.insert(rng.randrange(len(entries) + 1), copy.deepcopy(entry))
    elif op == "delete":
        del entries[i]
    elif op == "replace":
        entries[i] = rng.choice(_ODD_VALUES)
    elif op == "dangling":
        entry["twin"] = "zzz"
    elif op == "self":
        entry["twin"] = entry["id"]
    elif op == "asymmetric":
        entry["twin"] = rng.choice(hids)
    elif op == "attach_twice":
        entry["cyclic"].insert(rng.randrange(len(entry["cyclic"]) + 1), rng.choice(hids))
    elif op == "attach_never":
        if entry["cyclic"]:
            del entry["cyclic"][rng.randrange(len(entry["cyclic"]))]
    elif op == "unknown_kind":
        entry["kind"] = rng.choice(("sparkly", "Plain", ""))
    elif op == "label":
        entry["label"] = rng.choice(_ODD_VALUES + ("puncture",))
    else:
        entry["cyclic"].insert(
            rng.randrange(len(entry["cyclic"]) + 1), rng.choice(_ODD_VALUES)
        )
    return obj


def _mutation_cases(count: int, seed: int):
    rng = random.Random(seed)
    bases = [to_jsonable(fixture_graph(name)) for name in GRAPH_FIXTURES]
    bases += [to_jsonable(random_graph(rng)) for _ in range(40)]
    for _ in range(count):
        obj = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
            if not isinstance(obj, dict) or not {"vertices", "halfedges"} <= obj.keys():
                break
            if not isinstance(obj["vertices"], list) or not isinstance(obj["halfedges"], list):
                break
            if not all(isinstance(e, dict) for e in obj["vertices"] + obj["halfedges"]):
                break
            if not all(isinstance(e.get("cyclic"), list) for e in obj["vertices"]):
                break
            obj = _mutate(obj, rng)
        yield obj


# every message that changed: the pointer it is at, and the message before
# and after as one text ``before -> after``, each a regular expression
_CHANGED = (
    (r".*/vertices/\d+/kind", r"expected a string -> unknown vertex kind .*"),
    (
        r".*/halfedges/\d+/twin",
        r"unknown halfedge id (.*) -> twin table mentions unknown halfedge \1",
    ),
)

# the faults the oracle reports that are now the constructor's, as
# (pointer, message) regular expressions; every other fault is structure
_VALUE = (
    (r".*/vertices/\d+/cyclic/\d+", r"halfedge '.*' already attached"),
    (r".*/halfedges/\d+/twin", r"unknown halfedge id .*"),
    (r".*/halfedges/\d+/twin", r"twin of '.*' does not point back"),
    (r".*/vertices/\d+/kind", r".*"),
)


def _is_value(pointer: str, message: str) -> bool:
    return any(
        re.fullmatch(p, pointer) and re.fullmatch(m, message) for p, m in _VALUE
    )


def _compare(new, old, used: set) -> str:
    """How the outcome ``new`` differs from the oracle's ``old``: "same",
    "changed" (a `_CHANGED` row, whose index is added to ``used``) or
    "structure first" (a structure fault reported before the oracle's
    value fault)."""
    if new == old:
        return "same"
    assert new[0] == old[0] == "ParseError", (new, old)
    (_, new_text, new_pointer), (_, old_text, old_pointer) = new, old
    after = new_text[len("at {}: ".format(new_pointer)):]
    before = old_text[len("at {}: ".format(old_pointer)):]
    if new_pointer != old_pointer:
        assert not _is_value(new_pointer, after), (new, old)
        assert _is_value(old_pointer, before), (new, old)
        return "structure first"
    change = "{} -> {}".format(before, after)
    rows = [
        i
        for i, (pointer, pattern) in enumerate(_CHANGED)
        if re.fullmatch(pointer, new_pointer) and re.fullmatch(pattern, change)
    ]
    assert rows, (new_pointer, change)
    used.update(rows)
    return "changed"


def test_graph_parse_matches_the_oracle_on_mutated_inputs():
    kinds, used, counts = set(), set(), {"same": 0, "changed": 0, "structure first": 0}
    for obj in _mutation_cases(3000, seed=5):
        want = _outcome(graph_from_jsonable, copy.deepcopy(obj), "/p")
        got = _outcome(library_serialization.graph_from_jsonable, obj, "/p")
        counts[_compare(got, want, used)] += 1
        nested = _outcome(graph_from_jsonable, copy.deepcopy(obj), "/graph")
        _compare(_outcome(_graph_in_diagram, obj, ""), nested, used)
        kinds.add(want[0] if want[0] != "graph" else ("graph", want[2].ok))
    # the mutations reach rejected input, broken graphs and valid ones
    assert kinds == {"ParseError", ("graph", True), ("graph", False)}
    # every row of the table occurs, and so does a structure fault first
    assert used == set(range(len(_CHANGED))), counts
    assert counts["structure first"], counts


class _Str(str):
    pass


class _Dict(dict):
    pass


def _subclassed(obj):
    """The graph object with every dict a `_Dict` and every string a `_Str`."""
    if isinstance(obj, dict):
        return _Dict((_Str(k), _subclassed(v)) for k, v in obj.items())
    if isinstance(obj, list):
        return [_subclassed(v) for v in obj]
    return _Str(obj) if isinstance(obj, str) else obj


def _renamed(obj, old, new):
    """The graph object with every id, twin and ring entry ``old`` renamed."""
    if isinstance(obj, dict):
        return {k: _renamed(v, old, new) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_renamed(v, old, new) for v in obj]
    return new if obj == old else obj


_DELETE = object()


def _edited(obj, path, value):
    """A copy of ``obj`` with the entry at ``path`` set to ``value``, or
    deleted when ``value`` is `_DELETE`."""
    root = obj = copy.deepcopy(obj)
    *head, last = path
    for key in head:
        obj = obj[key]
    if value is _DELETE:
        del obj[last]
    else:
        obj[last] = value
    return root


def _edge_cases():
    """(name, graph object, whether the whole-table checks decline it)."""
    base = to_jsonable(fixture_graph("once_punctured_4gon"))
    pw1, w1a, w1p = ("halfedges", 0), ("halfedges", 2), ("halfedges", 4)
    p, w1, w2 = ("vertices", 0), ("vertices", 1), ("vertices", 2)
    ring = base["vertices"][1]["cyclic"]  # w1: ["w1a", "w1b", "w1p"]
    yield "canonical", base, False
    yield "str-subclass ids", _subclassed(base), True
    dicts = copy.deepcopy(base)
    for entry in dicts["halfedges"] + dicts["vertices"]:
        entry["id"] = _Str(entry["id"])
    dicts["halfedges"] = [_Dict(e) for e in dicts["halfedges"]]
    dicts["vertices"] = [_Dict(e) for e in dicts["vertices"]]
    yield "dict-subclass entries", _Dict(dicts), True
    for bad in ([], {}):
        for name, path in (
            ("halfedge id", w1a + ("id",)),
            ("twin", pw1 + ("twin",)),
            ("ring entry", w1 + ("cyclic", 1)),
            ("vertex id", w1 + ("id",)),
            ("kind", w1 + ("kind",)),
            ("label", p + ("label",)),
        ):
            yield "{} {!r}".format(name, bad), _edited(base, path, bad), True
    yield "numeric halfedge id", _renamed(base, "w1a", 7), True
    yield "empty halfedge id", _renamed(base, "w1a", ""), False
    yield "empty vertex id", _renamed(base, "w2", ""), False
    yield "numeric label", _edited(base, p + ("label",), 1), True
    yield "null label", _edited(base, p + ("label",), None), True
    yield "4-key vertex without label", _edited(base, w1 + ("foo",), "x"), True
    yield "vertex without kind", _edited(base, w1 + ("kind",), _DELETE), True
    two_keys = _edited(base, w1a + ("foo",), None)
    yield "2-key halfedge without twin", _edited(two_keys, w1a + ("twin",), _DELETE), True
    other = base["vertices"][2]["cyclic"] + ["w1a"]
    yield "halfedge in two rings", _edited(base, w2 + ("cyclic",), other), True
    yield "halfedge twice in a ring", _edited(base, w1 + ("cyclic",), ring + ring[:1]), True
    yield "halfedge in no ring", _edited(base, w1 + ("cyclic",), ring[1:]), True
    yield "one-sided twin", _edited(base, w1p + ("twin",), None), True
    yield "undeclared twin", _edited(base, w1a + ("twin",), "zzz"), True
    yield "twin of another", _edited(base, w1a + ("twin",), "w1p"), True
    for key, i in (("halfedges", 2), ("vertices", 1)):
        doubled = base[key] + base[key][i:i + 1]
        yield "duplicate entry", _edited(base, (key,), doubled), True
        empty = dict({"vertices": [], "halfedges": []}, **{key: {}})
        yield "empty object for a list", empty, True
    yield "ring as an object", _edited(base, w1 + ("cyclic",), dict.fromkeys(ring)), True
    yield "ring as a string", _edited(base, w1 + ("cyclic",), "w1a"), True
    # not JSON, but `graph_from_jsonable` takes any object
    for key in ("vertices", "halfedges"):
        yield "tuple for a list", _edited(base, (key,), tuple(base[key])), True
    for path in (w1a, w1):
        proxy = MappingProxyType(copy.deepcopy(base[path[0]][path[1]]))
        yield "mapping proxy entry", _edited(base, path, proxy), True
    yield "mapping proxy graph", MappingProxyType(base), True


def test_declined_input_matches_the_oracle_through_the_located_pass(monkeypatch):
    located = []
    locate = library_serialization._locate_graph_error
    monkeypatch.setattr(
        library_serialization,
        "_locate_graph_error",
        lambda obj, pointer: located.append(pointer) or locate(obj, pointer),
    )
    used = set()
    # neither parser changes its input, so both read the same object
    for name, obj, declined in _edge_cases():
        located.clear()
        want = _outcome(graph_from_jsonable, obj, "/p")
        got = _outcome(library_serialization.graph_from_jsonable, obj, "/p")
        assert _compare(got, want, used) != "structure first", name
        assert located == (["/p"] if declined else []), name
        if want[0] == "graph":
            _assert_same_graph(
                library_serialization.graph_from_jsonable(obj), graph_from_jsonable(obj)
            )
    assert used == set(range(len(_CHANGED)))


def _single_faults():
    """(path, value) edits of the `once_punctured_4gon` graph object that
    each break one check, several of them in the same entry, except the
    ring entry replaced by ``"pw1"``, which breaks two: ``"pw1"`` is then in
    two rings and the replaced halfedge in none."""
    yield ("extra",), 1
    for i, edits in (
        (0, ((("id",), 1), (("twin",), 5), (("foo",), None))),
        (2, ((("id",), "w1b"), (("twin",), "zzz"), (("twin",), "w1p"))),
    ):
        for path, value in edits:
            yield ("halfedges", i) + path, value
    for i in (1, 2):
        for path, value in (
            (("id",), 1),
            (("id",), "p"),
            (("cyclic",), "w1a"),
            (("cyclic",), []),
            (("cyclic", 0), 1),
            (("cyclic", 0), "zzz"),
            (("cyclic", 1), "pw1"),
            (("kind",), 1),
            (("kind",), "sparkly"),
            (("label",), 1),
            (("foo",), None),
        ):
            yield ("vertices", i) + path, value


def test_first_of_two_faults_matches_the_oracle():
    base = to_jsonable(fixture_graph("once_punctured_4gon"))
    faults = list(_single_faults())
    used, counts = set(), {"same": 0, "changed": 0, "structure first": 0}
    for fault in faults:
        obj = _edited(base, *fault)
        got = _outcome(library_serialization.graph_from_jsonable, obj, "/p")
        want = _outcome(graph_from_jsonable, obj, "/p")
        if _compare(got, want, used) == "structure first":
            # only the edits that break two checks; every other keeps its pointer
            assert fault[0][2:] == ("cyclic", 1) and fault[1] == "pw1", fault
            assert "already attached" in want[1] and "attached to no vertex" in got[1]
    for first in faults:
        for second in faults:
            try:
                obj = _edited(_edited(base, *first), *second)
            except (KeyError, IndexError, TypeError):
                continue  # the first edit removed the place of the second
            want = _outcome(graph_from_jsonable, obj, "/p")
            got = _outcome(library_serialization.graph_from_jsonable, obj, "/p")
            counts[_compare(got, want, used)] += 1
    assert sum(counts.values()) > 600
    assert used == set(range(len(_CHANGED))), counts
    assert counts["structure first"], counts


# -- builder and validation differential tests ------------------------------


def _public_copy(g: RibbonGraph) -> RibbonGraph:
    return RibbonGraph(
        {v: g.cyclic(v) for v in g.vertices},
        {h: g.twin_of(h) for h in g.halfedges if not g.is_external(h)},
        {v: g.kind(v) for v in g.vertices},
        {v: g.label(v) for v in g.vertices if g.label(v) is not None},
    )


def test_parsed_graph_matches_the_public_constructor():
    for g in sample_graphs():
        _assert_same_graph(parse_graph(serialize(g)), _public_copy(g))
        assert parse_graph(serialize(g)) == g


def _assert_same_graph(parsed: RibbonGraph, built: RibbonGraph) -> None:
    assert parsed == built and built == parsed
    assert hash(parsed) == hash(built)
    assert parsed.vertices == built.vertices
    assert parsed.halfedges == built.halfedges
    assert parsed.edges() == built.edges()
    # an edge is named by its smaller halfedge
    assert built.edges() == tuple(h for h in built.halfedges if built.edge_of(h) == h)
    assert parsed.internal_edges() == built.internal_edges()
    assert external_edges(parsed) == external_edges(built)
    for v in built.vertices:
        assert parsed.cyclic(v) == built.cyclic(v)
        assert parsed.kind(v) == built.kind(v)
        assert parsed.label(v) == built.label(v)
        ring = built.cyclic(v)
        for i, h in enumerate(ring):
            assert built._next[h] == ring[(i + 1) % len(ring)]
            assert _predecessors(built)[h] == ring[i - 1]
    assert parsed._next == built._next
    assert _predecessors(parsed) == _predecessors(built)
    report = library_graph.validate_graph(parsed)
    assert report == library_graph.validate_graph(built) == validate_graph(built)


def _broken_graphs():
    """Invalid graphs built through the public constructor: draws with
    their stubs stripped, draws with one twin pair moved onto one vertex,
    draws with one or every stub twinned to itself, disjoint unions, and
    the empty graph.  Each broken draw also comes beside a valid draw whose
    ids sort first and which comes first in every table, so that a walk
    from the first vertex meets none of the faults."""
    rng = random.Random(11)
    graphs = [RibbonGraph({}, {})]
    for g in sample_graphs():
        cyclic = {v: list(g.cyclic(v)) for v in g.vertices}
        twin = {h: g.twin_of(h) for h in g.halfedges if not g.is_external(h)}
        kinds = {v: g.kind(v) for v in g.vertices}
        draws = []
        stripped = {v: [h for h in ring if h in twin] for v, ring in cyclic.items()}
        draws.append((stripped, twin, kinds))
        if g.internal_edges():
            e = rng.choice(g.internal_edges())
            t = g.twin_of(e)
            moved = {v: [h for h in ring if h != t] for v, ring in cyclic.items()}
            moved[g.at_vertex(e)].insert(rng.randrange(len(cyclic[g.at_vertex(e)]) + 1), t)
            draws.append((moved, twin, kinds))
        stubs = external_edges(g)
        if stubs:
            s = rng.choice(stubs)
            draws.append((cyclic, dict(twin, **{s: s}), kinds))
            # every stub a fixed point, listed in descending order
            fixed = {s: s for s in reversed(stubs)}
            draws.append((cyclic, dict(fixed, **twin), kinds))
        other = {"x" + v: ["x" + h for h in ring] for v, ring in cyclic.items()}
        other_twin = {"x" + h: "x" + t for h, t in twin.items()}
        draws.append((dict(cyclic, **other), dict(twin, **other_twin), {}))
        # "!" sorts before every character of the drawn ids
        first = {"!" + v: ["!" + h for h in ring] for v, ring in cyclic.items()}
        first_twin = {"!" + h: "!" + t for h, t in twin.items()}
        first_kinds = {"!" + v: k for v, k in kinds.items()}
        for broken, broken_twin, broken_kinds in draws:
            graphs.append(RibbonGraph(broken, broken_twin, broken_kinds))
            graphs.append(
                RibbonGraph(
                    {**first, **broken}, {**first_twin, **broken_twin},
                    {**first_kinds, **broken_kinds},
                )
            )
    return graphs


def test_validation_matches_the_oracle_on_broken_graphs():
    found = set()
    for g in _broken_graphs():
        want = validate_graph(g)
        assert library_graph.validate_graph(g) == want
        parsed = parse_graph(serialize(g))
        _assert_same_graph(parsed, g)
        assert library_graph.validate_graph(parsed) == want
        found.update(v.split(":")[0].split(" (")[0] for v in want.violations)
    assert found == {
        "graph is empty",
        "twin has a fixed point",
        "loop",
        "isolated vertex",
        "valency-1 vertex",
        "graph is not connected",
        "boundary walk without external halfedge",
    }


def test_validation_matches_the_oracle_on_sample_graphs():
    for g in sample_graphs():
        assert library_graph.validate_graph(g) == validate_graph(g)

