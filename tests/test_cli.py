"""End-to-end command line checks.

Everything runs through main(argv) in-process so exit codes and the
stdout/stderr split can be asserted exactly.  Heavier subcommands are
compared against the library calls they wrap; cheap ones get literal
goldens.
"""

import json
from pathlib import Path

import pytest

from ribboncalc import (
    EdgeRef,
    IceQuiver,
    QuiverArrow,
    QuiverVertex,
    RibbonGraph,
    VertexRef,
    amalgamate,
    assemble_global,
    assembly_diagram,
    decompose,
    export_dot,
    graph_dot,
    itinerary,
    parse_assignments,
    parse_graph,
    serialize,
    star_template,
    tagged_triangulation,
    to_jsonable,
    web_trajectory,
)
from ribboncalc import assembly, cli, serialization
from ribboncalc.cli import main
from ribboncalc.trajectory import curve_trajectory

from conftest import (
    colliding_assembly, colliding_edge_assembly, extra_key_tables, fixture_path, fixture_text,
    run_python,
)

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assemble_inline(capsys, tmp_path, case):
    """``assemble`` on the graph of the assembly ``case``, its templates
    given inline."""
    g, assign = case
    graph_file, assign_file = tmp_path / "g.json", tmp_path / "t.json"
    graph_file.write_text(serialize(g))
    assign_file.write_text(
        json.dumps({"assignments": {v: to_jsonable(t) for v, t in assign.items()}})
    )
    return run(capsys, "assemble", "--graph", str(graph_file), "--templates", str(assign_file))


@pytest.fixture
def one_valent_file(tmp_path):
    g = RibbonGraph({"u": ("a", "s"), "w": ("b",)}, {"a": "b", "b": "a"})
    path = tmp_path / "one_valent.json"
    path.write_text(serialize(g) + "\n")
    return str(path)


class TestValidate:
    def test_ok_graph(self, capsys):
        code, out, err = run(capsys, "validate", "--graph", fixture_path("four_gon"))
        assert code == 0
        assert err == ""
        assert json.loads(out) == {"ok": True, "violations": []}

    def test_problems_reported_with_exit_1(self, capsys, one_valent_file):
        code, out, err = run(capsys, "validate", "--graph", one_valent_file)
        assert code == 1
        assert err == ""
        report = json.loads(out)
        assert report["ok"] is False
        assert "valency-1 vertex: w" in report["violations"]


class TestInfo:
    def test_disk(self, capsys):
        code, out, err = run(capsys, "info", "--graph", fixture_path("four_gon"))
        assert code == 0
        assert json.loads(out) == {"boundary": [4], "genus": 0}

    def test_annulus(self, capsys):
        code, out, err = run(capsys, "info", "--graph", fixture_path("annulus"))
        assert code == 0
        assert json.loads(out) == {"boundary": [4, 1], "genus": 0}

    def test_invalid_graph_errors_on_stderr(self, capsys, one_valent_file):
        code, out, err = run(capsys, "info", "--graph", one_valent_file)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "valency-1" in err


class TestTraj:
    def test_halfedge_start_autodetected(self, capsys, annulus):
        code, out, err = run(
            capsys, "traj", "--graph", fixture_path("annulus"), "--start", "wi"
        )
        assert code == 0
        assert out == serialize(itinerary(annulus, "wi", "cw")) + "\n"
        doc = json.loads(out)
        assert doc["terminal"] == "wi"
        assert len(doc["edges"]) == 7

    def test_orient_flag(self, capsys, annulus):
        code, out, err = run(
            capsys,
            "traj",
            "--graph",
            fixture_path("annulus"),
            "--start",
            "wi",
            "--orient",
            "ccw",
        )
        assert code == 0
        assert out == serialize(itinerary(annulus, "wi", "ccw")) + "\n"

    def test_vertex_start_gives_web(self, capsys, two_spider):
        code, out, err = run(
            capsys, "traj", "--graph", fixture_path("two_spider"), "--start", "v"
        )
        assert code == 0
        assert out == serialize({"web": web_trajectory(two_spider, "v", "cw")}) + "\n"

    def test_edge_kind_gives_curve(self, capsys, four_gon):
        code, out, err = run(
            capsys,
            "traj",
            "--graph",
            fixture_path("four_gon"),
            "--start",
            "m1",
            "--kind",
            "edge",
        )
        assert code == 0
        expected = {"curve": list(curve_trajectory(four_gon, "m1", "cw"))}
        assert out == serialize(expected) + "\n"

    def test_unknown_start(self, capsys):
        code, out, err = run(
            capsys, "traj", "--graph", fixture_path("annulus"), "--start", "nope"
        )
        assert code == 1
        assert out == ""
        assert "unknown start 'nope'" in err


class TestDecompose:
    def test_vertex_to_edge(self, capsys, two_spider):
        code, out, err = run(
            capsys,
            "decompose",
            "--graph",
            fixture_path("two_spider"),
            "--source",
            "v",
            "--source-kind",
            "vertex",
            "--target",
            "h2",
            "--target-kind",
            "edge",
        )
        assert code == 0
        expected = decompose(two_spider, EdgeRef("h2"), VertexRef("v"), "L")
        assert out == serialize(expected) + "\n"
        assert all("word" in entry for entry in json.loads(out)["summands"])

    def test_side_flag(self, capsys, four_gon):
        code, out, err = run(
            capsys,
            "decompose",
            "--graph",
            fixture_path("four_gon"),
            "--source",
            "m1",
            "--source-kind",
            "edge",
            "--target",
            "p1",
            "--target-kind",
            "edge",
            "--side",
            "R",
        )
        assert code == 0
        expected = decompose(four_gon, EdgeRef("p1"), EdgeRef("m1"), "R")
        assert out == serialize(expected) + "\n"

    def test_one_valent_graph_rejected(self, capsys, one_valent_file):
        code, out, err = run(
            capsys,
            "decompose",
            "--graph",
            one_valent_file,
            "--source",
            "u",
            "--source-kind",
            "vertex",
            "--target",
            "a",
            "--target-kind",
            "edge",
        )
        assert code == 1
        assert out == ""
        assert "valency-1" in err


class TestAmalgamate:
    @pytest.fixture
    def diagram_file(self, tmp_path, four_gon):
        assign = parse_assignments(fixture_text("four_gon_a2_templates"))
        d = assembly_diagram(four_gon, assign)
        path = tmp_path / "diagram.json"
        path.write_text(serialize(d) + "\n")
        return str(path), d

    def test_json_output(self, capsys, diagram_file):
        path, d = diagram_file
        code, out, err = run(capsys, "amalgamate", "--diagram", path)
        assert code == 0
        assert out == serialize(amalgamate(d)) + "\n"

    @pytest.mark.parametrize(
        "table, name, halfedges, message",
        [
            ("vertex_quivers", "v2", ("m2", "r2", "s2"), "at /: vertex v2 has no quiver"),
            ("edge_quivers", "p1", ("p1",), "at /: edge p1 has no interface quiver"),
        ],
        ids=["vertex", "edge"],
    )
    def test_missing_quiver(
        self, capsys, tmp_path, diagram_file, table, name, halfedges, message
    ):
        # the parser needs a quiver only where an incidence names one
        obj = json.loads(Path(diagram_file[0]).read_text())
        del obj[table][name]
        for h in halfedges:
            del obj["incidences"][h]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "amalgamate", "--diagram", str(path))
        assert (code, out, err) == (1, "", "error: {}\n".format(message))

    @pytest.mark.parametrize(
        "table, name, message",
        [
            ("vertex_quivers", "ghost", "at /: quiver given for unknown vertex 'ghost'"),
            ("edge_quivers", "m2", "at /: interface quiver given for unknown edge 'm2'"),
        ],
        ids=["vertex", "edge"],
    )
    def test_quiver_for_unknown_item(
        self, capsys, tmp_path, diagram_file, table, name, message
    ):
        # m2 is a halfedge, but its edge is named m1
        obj = json.loads(Path(diagram_file[0]).read_text())
        obj[table][name] = obj["edge_quivers"]["m1"]
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "amalgamate", "--diagram", str(path))
        assert (code, out, err) == (1, "", "error: {}\n".format(message))

    def test_an_incidence_key_the_interface_lacks_fails_with_one_line(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(serialize(extra_key_tables()))
        code, out, err = run(capsys, "amalgamate", "--diagram", str(path))
        message = (
            "at /: vertex v: incidence h morphism invalid: vertex map names unknown vertex extra"
        )
        assert (code, out, err) == (1, "", "error: {}\n".format(message))

    def test_dot_output_matches_assemble(self, capsys, diagram_file):
        path, _ = diagram_file
        code, out, err = run(
            capsys, "amalgamate", "--diagram", path, "--format", "dot"
        )
        assert code == 0
        assert out == (DATA / "four_gon_a2.dot").read_text()


class TestAssemble:
    def test_json_output(self, capsys, four_gon):
        code, out, err = run(
            capsys,
            "assemble",
            "--graph",
            fixture_path("four_gon"),
            "--templates",
            fixture_path("four_gon_a2_templates"),
        )
        assert code == 0
        assert err == ""
        assign = parse_assignments(fixture_text("four_gon_a2_templates"))
        expected = amalgamate(assembly_diagram(four_gon, assign))
        assert out == serialize(expected) + "\n"

    def test_dot_golden(self, capsys):
        code, out, err = run(
            capsys,
            "assemble",
            "--graph",
            fixture_path("four_gon"),
            "--templates",
            fixture_path("four_gon_a2_templates"),
            "--format",
            "dot",
        )
        assert code == 0
        assert out == (DATA / "four_gon_a2.dot").read_text()

    @staticmethod
    def _chain(tmp_path, u_template):
        """A chain u - m - w with a plain 2-valent m: the graph file and an
        assignment file with ``u_template`` at u and star templates at m
        and w."""
        g = RibbonGraph(
            {"u": ("ua", "us1", "us2"), "m": ("ma", "mb"), "w": ("wb", "ws1", "ws2")},
            {"ua": "ma", "ma": "ua", "mb": "wb", "wb": "mb"},
        )
        graph_file = tmp_path / "chain.json"
        graph_file.write_text(serialize(g) + "\n")
        assignments = {
            "assignments": {
                "u": u_template,
                "m": json.loads(serialize(star_template(2))),
                "w": json.loads(serialize(star_template(3))),
            }
        }
        assign_file = tmp_path / "stars.json"
        assign_file.write_text(json.dumps(assignments))
        return "assemble", "--graph", str(graph_file), "--templates", str(assign_file)

    def test_colliding_qualified_ids_fail_with_one_line(self, capsys, tmp_path):
        code, out, err = assemble_inline(capsys, tmp_path, colliding_assembly())
        assert (code, out) == (1, "")
        assert err == "error: two vertices have qualified id 'a.b.c'\n"

    def test_colliding_glued_arrow_ids_fail_with_one_line(self, capsys, tmp_path):
        code, out, err = assemble_inline(capsys, tmp_path, colliding_assembly("s0"))
        assert (code, out, err) == (1, "", "error: duplicate arrow id 'a.b.c'\n")

    def test_colliding_glued_edge_arrow_ids_fail_with_one_line(self, capsys, tmp_path):
        code, out, err = assemble_inline(capsys, tmp_path, colliding_edge_assembly())
        assert (code, out, err) == (1, "", "error: duplicate arrow id 'a.b.c'\n")

    def test_a_slot_key_the_interface_lacks_fails_with_one_line(self, capsys, tmp_path):
        d = extra_key_tables()
        template = to_jsonable(d["vertex_quivers"]["v"])
        template.update(name="t", slots=[
            dict(to_jsonable(m), quiver=to_jsonable(m.source))
            for m in (d["incidences"][h] for h in d["graph"].cyclic("v"))
        ])
        graph_file, assign_file = tmp_path / "g.json", tmp_path / "t.json"
        graph_file.write_text(serialize(d["graph"]))
        assign_file.write_text(json.dumps({"assignments": {"v": template, "w": template}}))
        code, out, err = run(
            capsys, "assemble", "--graph", str(graph_file), "--templates", str(assign_file)
        )
        message = (
            "at /assignments/v/slots: template t: slot 0 morphism invalid: "
            "vertex map names unknown vertex extra"
        )
        assert (code, out, err) == (1, "", "error: {}\n".format(message))

    def test_template_for_unknown_vertex_fails_with_one_line(self, capsys, tmp_path):
        assignments = dict.fromkeys(("v1", "v2", "nope"), "a2_trivalent")
        assign_file = tmp_path / "t.json"
        assign_file.write_text(json.dumps({"assignments": assignments}))
        code, out, err = run(
            capsys, "assemble", "--graph", fixture_path("four_gon"), "--templates", str(assign_file)
        )
        assert (code, out, err) == (1, "", "error: template given for unknown vertex 'nope'\n")

    def test_two_valent_warning_on_stderr(self, capsys, tmp_path):
        argv = self._chain(tmp_path, json.loads(serialize(star_template(3))))
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert err == (
            "warning: vertex m is 2-valent and plain: the objects induced "
            "along its two edges may coincide\n"
        )
        assert json.loads(out)["vertices"]

    def test_failed_assembly_prints_no_warning(self, capsys, tmp_path):
        code, out, err = run(capsys, *self._chain(tmp_path, "a2_trivalent"))
        assert code == 1
        assert out == ""
        assert err == (
            "error: interface quivers across edge ma do not match: "
            "vertex counts 1 against 2 (ma against ua)\n"
        )

    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of the template check and of the built-in factory, in
        every module namespace that may hold them."""
        calls = {"validate_template": 0, "builtin_template": 0}

        def counting(name, *modules):
            original = getattr(assembly, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            for module in modules:
                monkeypatch.setattr(module, name, wrapper, raising=False)

        counting("validate_template", assembly, serialization)
        counting("builtin_template", assembly)
        return calls

    def test_inline_templates_are_checked_once_each(self, capsys, counts, tmp_path):
        argv = self._chain(tmp_path, json.loads(serialize(star_template(3))))
        counts.update(validate_template=0)
        assert run(capsys, *argv)[0] == 0
        assert counts == {"validate_template": 2, "builtin_template": 0}

    def test_builtin_is_built_once(self, capsys, counts):
        code, _, _ = run(
            capsys,
            "assemble",
            "--graph",
            fixture_path("four_gon"),
            "--templates",
            fixture_path("four_gon_a2_templates"),
        )
        assert code == 0
        assert counts == {"validate_template": 1, "builtin_template": 1}


class TestTagged:
    def test_choices_file(self, capsys, once_punctured_4gon):
        code, out, err = run(
            capsys,
            "tagged",
            "--graph",
            fixture_path("once_punctured_4gon"),
            "--choices",
            fixture_path("once_punctured_4gon_choices"),
        )
        assert code == 0
        arcs = tagged_triangulation(once_punctured_4gon, {"p": "T1"})
        assert out == serialize({"arcs": arcs}) + "\n"

    def test_missing_choice(self, capsys, tmp_path):
        empty = tmp_path / "choices.json"
        empty.write_text('{"choices": {}}')
        code, out, err = run(
            capsys,
            "tagged",
            "--graph",
            fixture_path("once_punctured_4gon"),
            "--choices",
            str(empty),
        )
        assert code == 1
        assert out == ""
        assert "has no T1..T4 choice" in err


class TestExport:
    def test_graph_json_is_byte_canonical(self, capsys):
        code, out, err = run(
            capsys, "export", "--graph", fixture_path("annulus")
        )
        assert code == 0
        assert out == fixture_text("annulus")

    def test_graph_dot(self, capsys, two_spider):
        code, out, err = run(
            capsys,
            "export",
            "--graph",
            fixture_path("two_spider"),
            "--format",
            "dot",
        )
        assert code == 0
        assert out == graph_dot(two_spider)

    @pytest.fixture
    def quiver_file(self, tmp_path):
        q = IceQuiver(
            [QuiverVertex("a"), QuiverVertex("b", frozen=True)],
            [QuiverArrow("e", "a", "b")],
        )
        path = tmp_path / "quiver.json"
        path.write_text(serialize(q) + "\n")
        return str(path), q

    def test_quiver_json(self, capsys, quiver_file):
        path, q = quiver_file
        code, out, err = run(capsys, "export", "--quiver", path)
        assert code == 0
        assert out == serialize(q) + "\n"

    def test_quiver_dot(self, capsys, quiver_file):
        path, q = quiver_file
        code, out, err = run(capsys, "export", "--quiver", path, "--format", "dot")
        assert code == 0
        assert out == export_dot(q)

    def test_quiver_fault_first_in_input_order(self, capsys, tmp_path):
        # frozen arrows "z" then "a" both join the mutable vertex "m"
        vertices = [
            {"id": "a", "frozen": True, "label": None},
            {"id": "m", "frozen": False, "label": None},
        ]
        arrows = [
            {"id": "z", "src": "a", "dst": "m", "frozen": True},
            {"id": "a", "src": "m", "dst": "a", "frozen": True},
        ]
        path = tmp_path / "quiver.json"
        path.write_text(json.dumps({"vertices": vertices, "arrows": arrows}))
        code, out, err = run(capsys, "export", "--quiver", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "error: at /arrows/0/frozen: frozen arrow 'z' must join frozen vertices\n"
        )

    def test_graph_and_quiver_are_exclusive(self, capsys, quiver_file):
        path, _ = quiver_file
        code, out, err = run(
            capsys, "export", "--graph", fixture_path("annulus"), "--quiver", path
        )
        assert code == 2

    def test_one_input_required(self, capsys):
        code, out, err = run(capsys, "export")
        assert code == 2


class TestUsageAndErrors:
    def test_no_arguments(self, capsys):
        assert run(capsys, *[])[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "validate")[0] == 2

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "info", "--graph", "/no/such/file.json")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_invalid_json_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, out, err = run(capsys, "info", "--graph", str(bad))
        assert code == 1
        assert out == ""
        assert "invalid JSON" in err

    @pytest.mark.parametrize(
        "ring, message",
        [
            (["m2", "zzz", "r2"], "at /vertices/1/cyclic/1: unknown halfedge id 'zzz'"),
            (["m2", "m1", "s2", "r2"], "at /vertices/1/cyclic/1: halfedge 'm1' already attached"),
        ],
        ids=["structure", "value"],
    )
    def test_graph_fault_is_one_located_line(self, capsys, tmp_path, ring, message):
        obj = json.loads(fixture_text("four_gon"))
        obj["vertices"][1]["cyclic"] = ring
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(obj))
        assert run(capsys, "info", "--graph", str(path)) == (1, "", "error: {}\n".format(message))

    def test_deeply_nested_json_file(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        code, out, err = run(capsys, "info", "--graph", str(deep))
        assert code == 1
        assert out == ""
        assert err.startswith("error: at /: invalid JSON")

    def test_repeated_calls_in_one_process(self, capsys, one_valent_file):
        """The parser is built once per process; each call still answers
        as it does on its own, usage and value errors in between."""
        four_gon = fixture_path("four_gon")
        calls = [
            ("info", "--graph", four_gon),
            ("traj", "--graph", four_gon, "--start", "a", "--orient", "sideways"),
            ("info", "--graph", one_valent_file),
            ("validate", "--graph", four_gon),
            ("export", "--graph", four_gon, "--quiver", four_gon),
            ("traj", "--graph", four_gon, "--start", "nowhere"),
            ("info", "--graph", four_gon),
        ]
        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()
            alone.append(run(capsys, *argv))
        assert [code for code, _, _ in alone] == [0, 2, 1, 0, 2, 1, 0]
        cli._build_parser.cache_clear()
        together = [run(capsys, *argv) for argv in calls]
        assert cli._build_parser.cache_info().misses == 1
        assert together == alone


# runs the command line as `python -m ribboncalc.cli` does, then writes
# its exit status and the package modules it loaded as stderr's last line
_PROBE = """
import runpy, sys
try:
    runpy.run_module("ribboncalc.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, *sorted(sys.modules), file=sys.stderr)
"""


def _loaded_modules(command: str, generated=None, options: tuple = ()) -> list[str]:
    """The modules loaded when ``ribboncalc <command>`` exits, run cold in a
    fresh interpreter with ``options``; the command must succeed."""
    argv = [
        fixture_path(a[1:]) if a[0] == "%" else str(generated / a[1:]) if a[0] == "@"
        else a
        for a in command.split()
    ]
    done = run_python(_PROBE, *argv, options=options)
    code, *loaded = done.stderr.splitlines()[-1].split()
    assert code == "0", done.stderr
    return loaded


# a call of each subcommand and the package modules it loads beyond `graph`
# and `serialization`; "%name" is a bundled fixture, "@name" a file written
# by `TestLoadedModules.generated`
SUBCOMMAND_CALLS = [
    ("info --graph %four_gon", ""),
    ("validate --graph %four_gon", ""),
    ("export --graph %four_gon", ""),
    ("export --graph %four_gon --format dot", ""),
    ("traj --graph %annulus --start wi", "trajectory"),
    (
        "decompose --graph %annulus --source wi --source-kind edge "
        "--target wi --target-kind edge",
        "trajectory words",
    ),
    ("export --quiver @quiver --format dot", "quiver"),
    ("amalgamate --diagram @diagram", "quiver"),
    (
        "assemble --graph %four_gon --templates %four_gon_a2_templates",
        "assembly quiver trajectory",
    ),
    (
        "tagged --graph %once_punctured_4gon --choices %once_punctured_4gon_choices",
        "assembly quiver trajectory",
    ),
]


class TestLoadedModules:
    """Each subcommand loads only the modules it runs."""

    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        four_gon = parse_graph(fixture_text("four_gon"))
        assign = {"v1": "a2_trivalent", "v2": "a2_trivalent"}
        root = tmp_path_factory.mktemp("inputs")
        (root / "diagram").write_text(serialize(assembly_diagram(four_gon, assign)))
        (root / "quiver").write_text(serialize(assemble_global(four_gon, assign)))
        return root

    @pytest.mark.parametrize("command, extra", SUBCOMMAND_CALLS)
    def test_a_subcommand_loads_only_what_it_runs(self, generated, command, extra):
        loaded = _loaded_modules(command, generated)
        modules = ["graph", "serialization"] + extra.split()
        assert [m for m in loaded if m.split(".")[0] == "ribboncalc"] == sorted(
            ["ribboncalc"] + ["ribboncalc." + m for m in modules]
        )

    # without `site`, which may import `typing` itself
    @pytest.mark.parametrize("command", [command for command, _ in SUBCOMMAND_CALLS])
    def test_a_cold_call_loads_no_dataclasses_inspect_or_typing(self, generated, command):
        loaded = _loaded_modules(command, generated, options=("-S",))
        assert "ribboncalc.graph" in loaded
        assert [m for m in ("dataclasses", "inspect", "typing") if m in loaded] == []
