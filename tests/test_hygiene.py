"""Source hygiene that a linter would check: no module of the package
imports a name it never uses (`__init__.py` is skipped, because its
imports are the public re-exports), no private module-level function,
class or constant is left that nothing in the package refers to, and
``__all__`` lists exactly the re-exports, sorted."""

import ast
from pathlib import Path

import pytest

import ribboncalc

SOURCES = sorted(Path(ribboncalc.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported) - used, key=imported.get)
    assert unused == [], "{} imports unused names: {}".format(
        path.name, ", ".join("{} (line {})".format(n, imported[n]) for n in unused)
    )


def _private_definitions(tree):
    """The private names a module defines at top level, with their lines:
    functions, classes and assigned constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_every_private_definition_is_used():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    # a definition is not a use: it is a def statement or a stored name
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        "{} (line {} of {})".format(name, line, module)
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in used
    ]
    assert unused == [], "private definitions never used: " + ", ".join(unused)


def test_all_is_the_sorted_list_of_re_exports():
    init = Path(ribboncalc.__file__)
    imported = [
        alias.asname or alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    public = [name for name in imported if not name.startswith("_")]
    names = ribboncalc.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert set(names) == set(public)
    assert len(set(public)) == len(public)
