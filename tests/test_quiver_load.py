"""Differential tests of quiver, template, diagram and assignment loading.

The parsers check the structure of a document: the keys of each object,
that lists are lists, and that morphism maps hold strings (or nulls).
The constructors check the values, and a constructor's fault in one
vertex, arrow, name or stalk keeps the location of that item, which the
parser turns into the JSON pointer.  The earlier parsers, which checked
the values as well, are kept below verbatim as oracles, with absolute
imports in place of relative ones.  On a corpus of edited inputs both
must accept or both reject; an accepted input must give an equal object
with the same canonical JSON, and a rejected one the same pointer, with
the message unchanged or changed as `_CHANGED` lists, or the same message
at a pointer moved as `_MOVED` lists.  The one other exception is the
order of faults within one quiver: the structure of all its entries is
now checked before any value, so where an input has both kinds of fault,
the structure fault is reported first.  A diagram checks itself when it
is built, the oracle's too, and a fault of the diagram as a whole is
reported at its pointer.
"""

import copy
import json
import random
import re
from typing import Any

from ribboncalc import ParseError, serialize
from ribboncalc import serialization as library
from ribboncalc.serialization import graph_from_jsonable

from conftest import _ODD_VALUES, _bases, _get, _mutate, _paths, _put
from parse_oracle import _loc, _ptr, _want, _want_keys, _want_str


# -- oracles: the parsers before values moved to the constructors, verbatim,
# their located-input helpers in `parse_oracle`


def quiver_from_jsonable(obj: Any, pointer: str = ""):
    from ribboncalc.quiver import IceQuiver, QuiverArrow, QuiverVertex

    _want_keys(obj, (pointer,), ("vertices", "arrows"))
    vlist = _want(obj["vertices"], list, (pointer, "vertices"), "a list")
    alist = _want(obj["arrows"], list, (pointer, "arrows"), "a list")
    vertices = []
    ids = set()
    for i, entry in enumerate(vlist):
        p = (pointer, "vertices", i)
        _want_keys(entry, p, ("id", "frozen", "label"))
        vid = _want_str(entry["id"], p + ("id",))
        if vid in ids:
            raise ParseError(_loc(p + ("id",)), "duplicate vertex id {!r}".format(vid))
        ids.add(vid)
        frozen = _want(entry["frozen"], bool, p + ("frozen",), "a boolean")
        label = entry["label"]
        if label is not None:
            label = _want_str(label, p + ("label",))
        vertices.append(QuiverVertex(vid, frozen, label))
    arrows = []
    aids = set()
    for i, entry in enumerate(alist):
        p = (pointer, "arrows", i)
        _want_keys(entry, p, ("id", "src", "dst", "frozen"))
        aid = _want_str(entry["id"], p + ("id",))
        if aid in aids:
            raise ParseError(_loc(p + ("id",)), "duplicate arrow id {!r}".format(aid))
        aids.add(aid)
        src = _want_str(entry["src"], p + ("src",))
        dst = _want_str(entry["dst"], p + ("dst",))
        for end, key in ((src, "src"), (dst, "dst")):
            if end not in ids:
                raise ParseError(_loc(p + (key,)), "unknown vertex id {!r}".format(end))
        frozen = _want(entry["frozen"], bool, p + ("frozen",), "a boolean")
        arrows.append(QuiverArrow(aid, src, dst, frozen))
    try:
        return IceQuiver(vertices, arrows)
    except ValueError as exc:
        raise ParseError(pointer or "/", str(exc)) from exc


def _morphism_maps_from_jsonable(obj: Any, where):
    _want_keys(obj, where, ("vertex_map", "arrow_map"))
    vmap_obj = _want(obj["vertex_map"], dict, where + ("vertex_map",), "an object")
    amap_obj = _want(obj["arrow_map"], dict, where + ("arrow_map",), "an object")
    vmap = {}
    for k, v in vmap_obj.items():
        vmap[k] = _want_str(v, where + ("vertex_map", k))
    amap = {}
    for k, v in amap_obj.items():
        if v is not None:
            v = _want_str(v, where + ("arrow_map", k))
        amap[k] = v
    return vmap, amap


def template_from_jsonable(obj: Any, pointer: str = ""):
    from ribboncalc.assembly import LocalTemplate
    from ribboncalc.quiver import QuiverMorphism

    _want_keys(
        obj, (pointer,), ("vertices", "arrows", "slots"), optional=("name", "stalk")
    )
    quiver = quiver_from_jsonable(
        {"vertices": obj["vertices"], "arrows": obj["arrows"]}, pointer
    )
    slots = []
    slot_list = _want(obj["slots"], list, (pointer, "slots"), "a list")
    for i, entry in enumerate(slot_list):
        p = (pointer, "slots", i)
        _want_keys(entry, p, ("quiver", "vertex_map", "arrow_map"))
        boundary = quiver_from_jsonable(entry["quiver"], _loc(p + ("quiver",)))
        vmap, amap = _morphism_maps_from_jsonable(
            {"vertex_map": entry["vertex_map"], "arrow_map": entry["arrow_map"]}, p
        )
        slots.append(QuiverMorphism(boundary, quiver, vmap, amap))
    name = obj.get("name", "template")
    if name is not None:
        name = _want_str(name, (pointer, "name"))
    stalk = obj.get("stalk")
    if stalk is not None:
        stalk = _want_str(stalk, (pointer, "stalk"))
    try:
        return LocalTemplate(name, quiver, tuple(slots), stalk)
    except ValueError as exc:
        raise ParseError(pointer + _ptr("slots"), str(exc)) from exc


def diagram_from_jsonable(obj: Any, pointer: str = ""):
    from ribboncalc.quiver import AmalgamationDiagram, QuiverMorphism

    _want_keys(
        obj, (pointer,), ("graph", "vertex_quivers", "edge_quivers", "incidences")
    )
    g = graph_from_jsonable(obj["graph"], pointer + _ptr("graph"))
    vq = {}
    for v, q in _want(
        obj["vertex_quivers"], dict, (pointer, "vertex_quivers"), "an object"
    ).items():
        vq[v] = quiver_from_jsonable(q, pointer + _ptr("vertex_quivers", v))
    eq = {}
    for e, q in _want(
        obj["edge_quivers"], dict, (pointer, "edge_quivers"), "an object"
    ).items():
        eq[e] = quiver_from_jsonable(q, pointer + _ptr("edge_quivers", e))
    incidences = {}
    for h, m in _want(
        obj["incidences"], dict, (pointer, "incidences"), "an object"
    ).items():
        p = (pointer, "incidences", h)
        if not g.has_halfedge(h):
            raise ParseError(_loc(p), "unknown halfedge id {!r}".format(h))
        vmap, amap = _morphism_maps_from_jsonable(m, p)
        e = g.edge_of(h)
        v = g.at_vertex(h)
        if e not in eq:
            raise ParseError(_loc(p), "no interface quiver for edge {!r}".format(e))
        if v not in vq:
            raise ParseError(_loc(p), "no quiver for vertex {!r}".format(v))
        incidences[h] = QuiverMorphism(eq[e], vq[v], vmap, amap)
    return AmalgamationDiagram(g, vq, eq, incidences)


def parse_assignments(text: str):
    """Template assignments: vertex to built-in name or inline template."""
    obj = _loads(text)
    _want_keys(obj, ("",), ("assignments",))
    raw = _want(obj["assignments"], dict, ("", "assignments"), "an object")
    out = {}
    for v, t in raw.items():
        if isinstance(t, str):
            out[v] = t
        else:
            out[v] = template_from_jsonable(t, _ptr("assignments", v))
    return out


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("/", "invalid JSON: {}".format(exc)) from exc
    except RecursionError as exc:
        raise ParseError("/", "invalid JSON: nested too deeply") from exc


# -- the comparison --------------------------------------------------------

def _checked_diagram(text: str):
    """The oracle's diagram.  Its constructor checks the diagram as a
    whole, and that fault is reported at the document's root, as the
    parser reports it."""
    try:
        return diagram_from_jsonable(_loads(text))
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError("/", str(exc)) from exc


# each input option whose parser changed: the library's parser and its oracle
_PARSERS = {
    "--templates": (library.parse_assignments, parse_assignments),
    "--diagram": (library.parse_diagram, _checked_diagram),
    "--quiver": (library.parse_quiver, lambda text: quiver_from_jsonable(_loads(text))),
}

# every message that changed: the pointer it is at, and the message before
# and after as one text ``before -> after``, each a regular expression
_CHANGED = (
    (r".*/vertices/\d+/id", r"expected a string -> vertex id .* is not a string"),
    (
        r".*/vertices/\d+/frozen",
        r"expected a boolean -> frozen flag of vertex '.*' is not a boolean",
    ),
    (r".*/vertices/\d+/label", r"expected a string -> label of vertex '.*' is not a string"),
    (r".*/arrows/\d+/id", r"expected a string -> arrow id .* is not a string"),
    (r".*/arrows/\d+/(src|dst)", r"expected a string -> arrow '.*' uses unknown vertex .*"),
    (
        r".*/arrows/\d+/(src|dst)",
        r"unknown vertex id (.*) -> arrow '.*' uses unknown vertex \1",
    ),
    (
        r".*/arrows/\d+/frozen",
        r"expected a boolean -> frozen flag of arrow '.*' is not a boolean",
    ),
    (r".*/name", r"expected a string -> template name .* is not a string"),
    (r".*/stalk", r"expected a string -> template stalk .* is not a string"),
)

# every fault that moved: its pointer before and after as one text
# ``before -> after``, and its unchanged message, each a regular expression;
# a frozen arrow between mutable vertices moved from the quiver to the arrow
_MOVED = (
    (r"(.*?)/? -> \1/arrows/\d+/frozen", r"frozen arrow '.*' must join frozen vertices"),
)

_STRUCTURE = ("missing key", "unknown key", "expected an object", "expected a list")


def _message(exc: ParseError) -> str:
    return str(exc)[len("at {}: ".format(exc.pointer)):]


def _corpus():
    """``(option, text)``: each base input whose parser changed, seeded single
    edits of it, and every node of it replaced in turn by null, by ``{}``
    and by one seeded draw from the other odd values."""
    rng = random.Random(16)
    others = [v for v in _ODD_VALUES if v is not None and v != {}]
    seen = set()
    for _, option, document in _bases():
        if option not in _PARSERS or (option, json.dumps(document)) in seen:
            continue
        texts = [json.dumps(_mutate(copy.deepcopy(document), rng)) for _ in range(150)]
        work = copy.deepcopy(document)
        for where in _paths(document):
            node = _get(document, where)
            for value in (None, {}, rng.choice(others)):
                # one node is replaced in a working copy, then put back
                texts.append(json.dumps(_put(work, where, copy.deepcopy(value))))
                work = _put(work, where, copy.deepcopy(node))
        for text in [json.dumps(document)] + texts:
            if (option, text) not in seen:
                seen.add((option, text))
                yield option, text


def _outcome(parse, text):
    try:
        return parse(text), None
    except ParseError as exc:
        return None, exc


def test_parsers_match_the_oracle_on_edited_inputs():
    used, moved = set(), set()
    counts = {"accepted": 0, "rejected": 0, "structure first": 0}
    for option, text in _corpus():
        parse, oracle = _PARSERS[option]
        (new, new_exc), (old, old_exc) = _outcome(parse, text), _outcome(oracle, text)
        where = "{} {}".format(option, text)
        assert (new_exc is None) == (old_exc is None), (where, new_exc, old_exc)
        if new_exc is None:
            assert new == old, where
            assert serialize(new) == serialize(old), where
            counts["accepted"] += 1
            continue
        counts["rejected"] += 1
        before, after = _message(old_exc), _message(new_exc)
        if new_exc.pointer != old_exc.pointer:
            move = "{} -> {}".format(old_exc.pointer, new_exc.pointer)
            rows = [
                i
                for i, (pointers, pattern) in enumerate(_MOVED)
                if re.fullmatch(pointers, move) and re.fullmatch(pattern, after)
            ]
            if rows and before == after:
                moved.update(rows)
                continue
            # a structure fault met before a value fault of the same quiver
            assert after.startswith(_STRUCTURE), (where, str(new_exc), str(old_exc))
            assert not before.startswith(_STRUCTURE), (where, str(new_exc), str(old_exc))
            counts["structure first"] += 1
            continue
        if before == after:
            continue
        change = "{} -> {}".format(before, after)
        rows = [
            i
            for i, (pointer, pattern) in enumerate(_CHANGED)
            if re.fullmatch(pointer, new_exc.pointer) and re.fullmatch(pattern, change)
        ]
        assert rows, (where, new_exc.pointer, change)
        used.update(rows)
    # the table lists no change that does not happen
    assert used == set(range(len(_CHANGED))), sorted(set(range(len(_CHANGED))) - used)
    assert moved == set(range(len(_MOVED))), counts
    assert counts["accepted"] and counts["rejected"], counts
