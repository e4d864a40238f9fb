"""Mutation sweeps over the command line's non-graph inputs.

Template assignments (named and inline), tagging choices, amalgamation
diagrams and quivers are mutated at random with a fixed seed: a value
replaced, a key deleted or added, a list entry duplicated, or two
subtrees swapped.  A second pass replaces each node of each input in
turn.  Whatever the input, `main` must print a result or exactly one
``error:`` line; no exception may escape it.  Graph files are covered by
`tests/test_graph_load.py`.
"""

import contextlib
import copy
import io
import json
import random
from collections import Counter

import pytest

from ribboncalc import assemble_global, assembly_diagram, builtin_template, to_jsonable
from ribboncalc.cli import main

from conftest import fixture_graph, fixture_path, fixture_text

_ODD_VALUES = (
    None, 0, -1, 1.5, True, False, "", "a", "v1", "a2_trivalent", "T2", [], [None], {},
    {"id": "a"}, "a/b~c",
)
_KEYS = ("id", "frozen", "label", "src", "dst", "vertices", "arrows", "slots", "extra")


def _descend(obj, rng: random.Random) -> tuple:
    """The path of a random node: from the root, step into a random child
    until a coin says stop, so that a small subtree, such as one
    incidence's vertex map, is hit about as often as a large one."""
    path = ()
    while isinstance(obj, (dict, list)) and obj and rng.random() < 0.8:
        key = rng.choice(list(obj)) if isinstance(obj, dict) else rng.randrange(len(obj))
        obj, path = obj[key], path + (key,)
    return path


def _paths(obj, path=()):
    """The path of every node of a JSON tree, the root first."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, path + (i,))


def _get(obj, path):
    for token in path:
        obj = obj[token]
    return obj


def _put(obj, path, value):
    """``obj`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    _get(obj, path[:-1])[path[-1]] = value
    return obj


def _mutate(obj, rng: random.Random):
    """One random edit of a JSON tree: delete a key, add a key, duplicate
    a list entry, swap two disjoint subtrees or, where the drawn edit does
    not apply, replace a value."""
    op = rng.choice(("replace", "delete", "add", "duplicate", "swap"))
    path = _descend(obj, rng)
    node = _get(obj, path)
    parent = _get(obj, path[:-1]) if path else None
    if op == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    elif op == "add" and isinstance(node, dict):
        node[rng.choice(_KEYS)] = copy.deepcopy(rng.choice(_ODD_VALUES))
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(rng.randrange(len(parent) + 1), copy.deepcopy(node))
    elif op == "swap" and path:
        other = _descend(obj, rng)
        if other and path[: len(other)] != other and other[: len(path)] != path:
            _put(obj, path, _get(obj, other))
            _put(obj, other, node)
    else:
        obj = _put(obj, path, copy.deepcopy(rng.choice(_ODD_VALUES)))
    return obj


def _bases():
    """``(argv, option, document)``: a subcommand line and the document it
    reads through ``option``, in valid form."""
    four_gon = fixture_graph("four_gon")
    named = json.loads(fixture_text("four_gon_a2_templates"))
    inline = to_jsonable(builtin_template("a2_trivalent"))
    mixed = {"assignments": {"v1": "a2_trivalent", "v2": inline}}
    assign = {"v1": "a2_trivalent", "v2": "a2_trivalent"}
    diagram = to_jsonable(assembly_diagram(four_gon, assign))
    quiver = to_jsonable(assemble_global(four_gon, assign))
    four_gon_path = fixture_path("four_gon")
    punctured_path = fixture_path("once_punctured_4gon")
    return [
        (["assemble", "--graph", four_gon_path], "--templates", named),
        (["assemble", "--graph", four_gon_path], "--templates", mixed),
        (
            ["assemble", "--graph", punctured_path],
            "--templates",
            json.loads(fixture_text("once_punctured_4gon_templates")),
        ),
        (
            ["tagged", "--graph", punctured_path],
            "--choices",
            json.loads(fixture_text("once_punctured_4gon_choices")),
        ),
        (["amalgamate"], "--diagram", diagram),
        (["amalgamate", "--format", "dot"], "--diagram", diagram),
        (["export"], "--quiver", quiver),
        (["export", "--format", "dot"], "--quiver", quiver),
    ]


def _run(argv, path, obj, where) -> int:
    """Run ``argv`` on ``obj`` written to ``path`` and check the contract:
    a success prints only warnings on stderr, a failure exactly one
    ``error:`` line and nothing on stdout."""
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + [str(path)])
        except Exception as exc:  # reported with the input that raised it
            raise AssertionError(where) from exc
    out, lines = out.getvalue(), err.getvalue().splitlines()
    if code == 0:
        assert all(line.startswith("warning: ") for line in lines), where
    else:
        assert code == 1, where
        assert out == "", where
        assert len(lines) == 1 and lines[0].startswith("error: "), where
    return code


def test_mutated_inputs_give_a_result_or_one_error_line(tmp_path):
    rng = random.Random(12)
    bases = _bases()
    path = tmp_path / "input.json"
    codes = Counter()
    for case in range(2000):
        argv, option, document = rng.choice(bases)
        obj = copy.deepcopy(document)
        for _ in range(rng.choice((1, 1, 2, 3))):
            obj = _mutate(obj, rng)
        where = "case {}: {} {}".format(case, argv[0], json.dumps(obj))
        codes[argv[0], _run(argv + [option], path, obj, where)] += 1
    # every subcommand fails on some mutants and succeeds on others
    commands = {"assemble", "tagged", "amalgamate", "export"}
    assert {command for command, _ in codes} == commands
    assert all(codes[command, 0] and codes[command, 1] for command in commands), codes


@pytest.mark.parametrize("value", [[], {}, None], ids=["list", "object", "null"])
def test_any_one_value_replaced_gives_a_result_or_one_error_line(tmp_path, value):
    """Every node of every input, in turn, replaced by ``value``: a list or
    an object is of the wrong type, and unhashable, wherever a string is
    expected, and null reaches every field that may be null."""
    path = tmp_path / "input.json"
    seen = set()
    for argv, option, document in _bases():
        text = json.dumps(document)
        if text in seen:
            continue
        seen.add(text)
        for where in _paths(document):
            obj = _put(copy.deepcopy(document), where, copy.deepcopy(value))
            _run(argv + [option], path, obj, "{} {}".format(argv[0], where))
