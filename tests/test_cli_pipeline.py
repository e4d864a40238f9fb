"""The pipeline every subcommand runs through in `cli.main`.

`main` reads each input file in a fixed order, so the first fault found is
the one reported; it writes the result inside the same error contract as
the read, so a failed write is one ``error:`` line; and it looks up each
parser and writer through `cli`'s module names at call time, so a tracer
that rebinds those names sees every call.
"""

import contextlib
import io
import json
from collections import Counter

import pytest

from ribboncalc import assemble_global, assembly_diagram, cli, parse_graph, serialize
from ribboncalc.cli import main

from conftest import fixture_path, fixture_text

FAULTY_GRAPH = {"vertices": 1, "halfedges": []}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "command, option, faulty, alone",
    [
        ("assemble", "--templates", {"assignments": 5}, "at /assignments: expected an object"),
        ("tagged", "--choices", {"choices": []}, "at /choices: expected an object"),
    ],
)
def test_the_graph_fault_is_reported_before_the_other_files(
    capsys, tmp_path, command, option, faulty, alone
):
    graph, other = tmp_path / "graph.json", tmp_path / "other.json"
    graph.write_text(json.dumps(FAULTY_GRAPH))
    other.write_text(json.dumps(faulty))
    # each file is faulty on its own
    assert run(capsys, command, "--graph", fixture_path("four_gon"), option, str(other)) == (
        1, "", "error: {}\n".format(alone))
    assert run(capsys, command, "--graph", str(graph), option, str(other)) == (
        1, "", "error: at /vertices: expected a list\n")


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("extra", [(), ("--format", "dot")], ids=["info", "export dot"])
def test_a_failed_write_is_one_error_line(extra):
    argv = ["export" if extra else "info", "--graph", fixture_path("four_gon"), *extra]
    err = io.StringIO()
    with contextlib.redirect_stdout(_BrokenPipe()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (1, "error: [Errno 32] Broken pipe\n")


COUNTED = (
    "parse_graph", "parse_quiver", "parse_diagram", "parse_assignments", "parse_choices",
    "serialize", "graph_dot", "export_dot",
)

# each call, with "@name" a file written by `inputs`, and the calls of
# `COUNTED` it makes through `cli`'s names
CALLS = [
    ("validate --graph @four_gon", "parse_graph serialize"),
    ("info --graph @four_gon", "parse_graph serialize"),
    ("traj --graph @annulus --start wi", "parse_graph serialize"),
    (
        "decompose --graph @annulus --source wi --source-kind edge "
        "--target wi --target-kind edge",
        "parse_graph serialize",
    ),
    ("amalgamate --diagram @diagram", "parse_diagram serialize"),
    ("amalgamate --diagram @diagram --format dot", "parse_diagram export_dot"),
    ("assemble --graph @four_gon --templates @templates", "parse_graph parse_assignments serialize"),
    (
        "assemble --graph @four_gon --templates @templates --format dot",
        "parse_graph parse_assignments export_dot",
    ),
    (
        "tagged --graph @once_punctured_4gon --choices @choices",
        "parse_graph parse_choices serialize",
    ),
    ("export --graph @four_gon", "parse_graph serialize"),
    ("export --graph @four_gon --format dot", "parse_graph graph_dot"),
    ("export --quiver @quiver", "parse_quiver serialize"),
    ("export --quiver @quiver --format dot", "parse_quiver export_dot"),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for name in ("four_gon", "annulus", "once_punctured_4gon"):
        (root / name).write_text(fixture_text(name))
    (root / "templates").write_text(fixture_text("four_gon_a2_templates"))
    (root / "choices").write_text(fixture_text("once_punctured_4gon_choices"))
    four_gon = parse_graph(fixture_text("four_gon"))
    assign = {"v1": "a2_trivalent", "v2": "a2_trivalent"}
    (root / "diagram").write_text(serialize(assembly_diagram(four_gon, assign)))
    (root / "quiver").write_text(serialize(assemble_global(four_gon, assign)))
    return root


@pytest.mark.parametrize("command, counted", CALLS, ids=[command for command, _ in CALLS])
def test_a_rebinding_of_the_cli_names_sees_every_call(
    monkeypatch, capsys, inputs, command, counted
):
    calls = Counter()

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cli, name, wrapper)

    for name in COUNTED:
        counting(name)
    argv = [str(inputs / a[1:]) if a[0] == "@" else a for a in command.split()]
    code, out, _ = run(capsys, *argv)
    assert (code, calls) == (0, Counter(counted.split()))
    assert out
