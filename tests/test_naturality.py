"""Results do not depend on how an input is presented.

The order of a quiver's vertices and arrows, of a graph's vertices and
halfedges, and of the keys of any object carries no meaning, so a
shuffled document must parse to an equal object with the same canonical
JSON, and the constructors must build that object from shuffled lists.
"""

import json
import random

import pytest

from ribboncalc import (
    BUILTIN_TEMPLATE_NAMES,
    IceQuiver,
    LocalTemplate,
    QuiverArrow,
    QuiverVertex,
    TemplateSlot,
    assemble_global,
    assembly_diagram,
    parse_assignments,
    parse_diagram,
    parse_quiver,
    parse_template,
    serialize,
    star_template,
    to_jsonable,
)

from conftest import fixture_graph, fixture_text

# the lists whose order carries no meaning
_UNORDERED = ("vertices", "arrows", "halfedges")


def _shuffled(obj, rng: random.Random, key=None):
    """``obj`` with the keys of every object and the entries of every
    unordered list in random order."""
    if isinstance(obj, dict):
        items = list(obj.items())
        rng.shuffle(items)
        return {k: _shuffled(v, rng, k) for k, v in items}
    if isinstance(obj, list):
        out = [_shuffled(v, rng) for v in obj]
        if key in _UNORDERED:
            rng.shuffle(out)
        return out
    return obj


def _documents():
    """``(kind, name, document)`` in canonical form."""
    for name in BUILTIN_TEMPLATE_NAMES:
        document = json.loads(fixture_text(name))
        yield "template", name, document
        yield "quiver", name, {"vertices": document["vertices"], "arrows": document["arrows"]}
    yield "template", "star_4", to_jsonable(star_template(4))
    for graph, templates in (
        ("four_gon", "four_gon_a2_templates"),
        ("once_punctured_4gon", "once_punctured_4gon_templates"),
    ):
        g, assign = fixture_graph(graph), parse_assignments(fixture_text(templates))
        yield "quiver", templates, to_jsonable(assemble_global(g, assign))
        yield "diagram", templates, to_jsonable(assembly_diagram(g, assign))


_PARSE = {"quiver": parse_quiver, "template": parse_template, "diagram": parse_diagram}


def _quiver(document) -> IceQuiver:
    return IceQuiver(
        [QuiverVertex(**entry) for entry in document["vertices"]],
        [QuiverArrow(**entry) for entry in document["arrows"]],
    )


def _template(document) -> LocalTemplate:
    slots = tuple(
        TemplateSlot(_quiver(slot["quiver"]), slot["vertex_map"], slot["arrow_map"])
        for slot in document["slots"]
    )
    return LocalTemplate(document["name"], _quiver(document), slots, document["stalk"])


@pytest.mark.parametrize(
    "kind, document",
    [(kind, document) for kind, _, document in _documents()],
    ids=["{} {}".format(kind, name) for kind, name, _ in _documents()],
)
def test_a_shuffled_document_gives_the_same_object(kind, document):
    parse = _PARSE[kind]
    text = json.dumps(document)
    expected = parse(text)
    assert serialize(expected) == serialize(document)
    rng = random.Random(kind + text)
    texts = set()
    for _ in range(5):
        shuffled = _shuffled(document, rng)
        texts.add(json.dumps(shuffled))
        result = parse(json.dumps(shuffled))
        assert result == expected
        assert serialize(result) == serialize(expected)
        # the constructors take the shuffled lists as they are
        if kind == "quiver":
            assert _quiver(shuffled) == expected
        elif kind == "template":
            assert _template(shuffled) == expected
        else:
            for v, q in shuffled["vertex_quivers"].items():
                assert _quiver(q) == expected.vertex_quivers[v]
            for e, q in shuffled["edge_quivers"].items():
                assert _quiver(q) == expected.edge_quivers[e]
    assert texts - {text}, "no shuffle changed the document"
