"""Source hygiene that a linter would check: no module of the package
imports a name it never uses.  `__init__.py` is skipped, because its
imports are the public re-exports."""

import ast
from pathlib import Path

import pytest

import ribboncalc

MODULES = sorted(
    p for p in Path(ribboncalc.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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
