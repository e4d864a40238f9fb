"""README's examples hold: each Python example runs, from the repository
root, and each line whose comment states a value has that value; the JSON
graph example is a valid graph; and every test id it cites names a test."""

import ast
import re
from pathlib import Path

from ribboncalc import parse_graph, validate_graph

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _fences(language: str) -> list[str]:
    return re.findall(r"^```{}\n(.*?)^```".format(language), README, re.S | re.M)


def _stated(comment: str):
    """The value that a ``comment``, the text after a statement, states
    when it starts with a Python literal, up to two spaces and any prose;
    ``...`` when it states none."""
    comment = comment.strip()
    if not comment.startswith("#"):
        return ...
    try:
        return ast.literal_eval(comment[1:].strip().split("  ")[0])
    except (ValueError, SyntaxError):
        return ...


def _run(source: str) -> dict[str, tuple]:
    """Run ``source`` one statement at a time in a fresh namespace.  Each
    expression statement whose comment states a value maps to that value
    and the one the expression has there."""
    lines = source.splitlines()
    namespace: dict = {}
    checked = {}
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        stated = _stated(lines[stmt.end_lineno - 1][stmt.end_col_offset:])
        if stated is not ...:
            checked[ast.get_source_segment(source, stmt.value)] = (stated, value)
    return checked


def test_the_python_examples_run_and_have_the_values_they_state(monkeypatch):
    monkeypatch.chdir(ROOT)
    fences = _fences("python")
    assert fences
    checked = {}
    for source in fences:
        checked.update(_run(source))
    wrong = {expr: pair for expr, pair in checked.items() if pair[0] != pair[1]}
    assert wrong == {}
    # the quickstart states these
    want = {
        "inv.genus": 0,
        "inv.boundary": (4, 1),
        "t.edges": ("wi", "bw", "bd", "cd", "ac", "aw", "wi"),
        "t.terminal": "wi",
        "dual(dual(g)) == g": True,
        "to_jsonable(inv)": {"boundary": [4, 1], "genus": 0},
        "quivers_isomorphic(q, assemble_global(dual(g), stars))": True,
    }
    assert {expr: checked[expr][0] for expr in want if expr in checked} == want


def test_a_comment_states_a_value_only_when_it_starts_with_one():
    assert _stated("   # 'wi'  (comes back out where it went in)") == "wi"
    assert _stated("  # (4, 1)") == (4, 1)
    assert _stated("  # genus 0, boundary profile [4, 1]") is ...
    assert _stated("  0") is ...
    assert _stated("") is ...


def test_the_json_graph_example_is_a_valid_graph():
    (text,) = _fences("json")
    assert validate_graph(parse_graph(text)).ok


def _tests_of(tree: ast.Module) -> set[tuple[str, ...]]:
    """The ids of the test functions of a test module and of the test
    methods of its test classes, each as its tuple of names."""
    ids = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            ids.add((node.name,))
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            ids.update(
                (node.name, f.name) for f in node.body
                if isinstance(f, ast.FunctionDef) and f.name.startswith("test")
            )
    return ids


def test_every_cited_test_id_names_a_test():
    cited = re.findall(r"tests/(\w+)\.py((?:::\w+)+)", README)
    assert cited
    unknown = [
        "tests/{}.py{}".format(module, names) for module, names in cited
        if tuple(names.split("::")[1:])
        not in _tests_of(ast.parse((ROOT / "tests" / (module + ".py")).read_text("utf-8")))
    ]
    assert unknown == []
