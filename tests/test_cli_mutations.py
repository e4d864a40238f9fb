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

from ribboncalc.cli import main

from conftest import _bases, _mutate, _paths, _put


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
