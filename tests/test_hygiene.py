"""Source hygiene that a linter would check: the package imports nothing
at run time but the standard library and itself, its modules import
`typing` for annotations only and `dataclasses` not at all, no module of it
and no script under ``tools/`` imports a name it never uses, no private module-level function, class or
constant is left that nothing in the package refers to, and ``__all__``
is the sorted list of the names the package's table exports, each of
which resolves, on first use, to the object its module defines and is
used by the package or read as code, not as a word of prose, by a bench
or tool script or a README code fence.  So is each public method and
property of an exported class, and each defaulted parameter of an
exported function is passed by some call there.  Every
fixture file the package ships is one of the input kinds it reads, and
the built-in templates are exactly its template files."""

import ast
import fnmatch
import inspect
import re
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ribboncalc
from ribboncalc import (
    BUILTIN_TEMPLATE_NAMES,
    ParseError,
    parse_assignments,
    parse_choices,
    parse_graph,
    parse_template,
)

from conftest import run_python

ROOT = Path(__file__).parent.parent
SOURCES = sorted(Path(ribboncalc.__file__).parent.glob("*.py"))
TOOLS = sorted((ROOT / "tools").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES + TOOLS, ids=lambda p: p.name)
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


def _type_checking_only(tree):
    """The nodes under ``if TYPE_CHECKING:``, which never run."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            skipped.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    return skipped


def test_runtime_imports_only_the_standard_library():
    foreign = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skipped = _type_checking_only(tree)
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.split(".")[0]
                if top != "ribboncalc" and top not in sys.stdlib_module_names:
                    foreign.append("{} (line {} of {})".format(name, node.lineno, path.name))
    assert foreign == [], "imports outside the standard library: " + ", ".join(foreign)


def _imports_of(tree, module):
    """The import statements in ``tree`` that load ``module``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == module for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == module
    ]


# every subcommand's cold call is the cold path of the modules it loads
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_cold_path_imports_typing_only_for_annotations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = _type_checking_only(tree)
    runtime = [n.lineno for n in _imports_of(tree, "typing") if id(n) not in skipped]
    assert runtime == [], "{} imports typing at run time (lines {})".format(path.name, runtime)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # every value type is a `graph._Record`
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [n.lineno for n in _imports_of(tree, "dataclasses")]
    assert lines == [], "{} imports dataclasses (lines {})".format(path.name, lines)


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
    names = ribboncalc.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    # the table names each export once, under its module
    table = [name for exports in ribboncalc._EXPORTS.values() for name in exports]
    assert sorted(table) == names
    for module, exports in ribboncalc._EXPORTS.items():
        owner = import_module("ribboncalc." + module)
        for name in exports:
            namespace = {}
            exec("from ribboncalc import {}".format(name), namespace)
            assert namespace[name] is getattr(owner, name), name
            assert getattr(ribboncalc, name) is getattr(owner, name), name
    namespace = {}
    exec("from ribboncalc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == names
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ribboncalc.no_such_name


# exports that only the tests call, each with the test that uses it and why
TEST_ONLY_EXPORTS = {
    "word_typechecks": "tests/test_words.py runs it on every emitted word as the typing check",
    "transport_word": "the public form of one hit's transport: tests/test_words.py's oracles"
    " build summands from it, and `_decompose` calls the private `_transport` it is built"
    " from, so that no summand builds its atoms twice",
}


def _readers(trees):
    """Each name the package reads, with the ``(module, top-level
    definition)`` pairs that read it; the definition is None outside
    functions and classes."""
    readers = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    readers.setdefault(node.id, set()).add((module, owner))
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add((module, owner))
    return readers


def _package_trees():
    # the export table in __init__ is not a use
    return {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in SOURCES if p.name != "__init__.py"
    }


def _code_trees(scripts, readme):
    """The ``scripts``, then the code fences of the ``readme`` text, each
    parsed; a fence that is not Python, such as a shell one, is skipped.
    Prose, inline spans included, is not code."""
    for text in [*scripts, *re.findall(r"^```\w*\n(.*?)^```", readme, re.S | re.M)]:
        try:
            yield ast.parse(text)
        except SyntaxError:
            pass


def _outside_uses(trees):
    """The names that ``trees`` use as a `Name`, an `Attribute` or an
    import alias.  A function, method or class that a tree defines names
    its own object there, not the package's, so its name is no use of
    that tree's."""
    used = set()
    for tree in trees:
        own, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own.add(node.name)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        used |= names - own
    return used


def _outside_code():
    """The bench and tool scripts and README's code, parsed."""
    scripts = [
        p.read_text(encoding="utf-8") for d in ("bench", "tools") for p in (ROOT / d).rglob("*.py")
    ]
    return list(_code_trees(scripts, (ROOT / "README.md").read_text(encoding="utf-8")))


def test_a_use_outside_the_package_is_read_from_code():
    readme = "\n".join([
        "`dual` reverses every ring, as `dual(g)` shows.",
        "```sh", "ribboncalc info --graph g.json", "```",
        "```python", "from ribboncalc import subgraph", "q.frozen_components()", "```",
    ])
    script = "class Spec:\n    def vertex(self):\n        return self.vertex\n"
    uses = _outside_uses(_code_trees([script], readme))
    # prose, a shell fence and a script's own method are no use
    assert not uses & {"dual", "info", "vertex"}
    assert {"subgraph", "frozen_components"} <= uses
    assert "vertex" in _outside_uses(_code_trees(["q.vertex('a')"], ""))


def test_every_public_name_is_used():
    trees = _package_trees()
    readers = _readers(trees)
    outside = _outside_uses(_outside_code())

    def used(module, name):
        # a name's own definition, its recursive calls included, is not a use
        return readers.get(name, set()) - {(module, name)} or name in outside

    unused = [
        name for module, names in ribboncalc._EXPORTS.items() for name in names
        if not used(module, name)
    ]
    unexplained = [
        "{} ({})".format(n, ribboncalc._OWNER[n]) for n in unused if n not in TEST_ONLY_EXPORTS
    ]
    assert unexplained == [], "public names only the tests use: " + ", ".join(unexplained)
    # an entry goes once its name is used again or no longer exported
    stale = [name for name in TEST_ONLY_EXPORTS if name not in unused]
    assert stale == [], "test-only entries for names that are used or gone: " + ", ".join(stale)


def _package_reads(tree):
    """The attribute chains, such as ``("cli", "main")``, that ``tree``
    reads from the names it binds to the `ribboncalc` package, and the
    modules of the package it imports.  A chain's prefixes are chains too."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ribboncalc":
                    modules.add(alias.name)
                    # ``import ribboncalc.cli`` binds the package too
                    if alias.asname is None or alias.name == "ribboncalc":
                        names.add(alias.asname or "ribboncalc")
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in names:
                chains.add(tuple(reversed(attrs)))
    return chains, modules


# `bench/run.py` imports the tracer even when it traces nothing, so one
# public name gone from the package fails every benchmark run at import
@pytest.mark.parametrize(
    "script, tables", [("tracer.py", ("SPANS", "COUNTED")), ("workloads.py", ())]
)
def test_every_package_name_a_bench_script_reads_resolves(script, tables):
    tree = ast.parse((ROOT / "bench" / script).read_text(encoding="utf-8"))
    chains, modules = _package_reads(tree)
    for module in modules:
        import_module(module)
    missing = []
    for attrs in sorted(chains):
        owner = ribboncalc
        for attr in attrs:
            if not hasattr(owner, attr):
                missing.append(".".join(attrs))
                break
            owner = getattr(owner, attr)
    assert chains and missing == [], "{} reads names the package lacks: {}".format(script, missing)
    # every function in the tracer's tables is one of the chains checked
    found = {
        ast.unparse(node.targets[0]): node.value for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in tables
    }
    assert sorted(found) == sorted(tables)
    wrapped = {ast.unparse(value) for table in found.values() for value in table.values}
    assert wrapped <= {"ribboncalc." + ".".join(attrs) for attrs in chains}


# public methods and defaulted parameters that only the tests use, each with why
TEST_ONLY_MEMBERS = {
    "trajectory_counts(orient)": "every walk entry point takes an orientation",
}


def _exported():
    for module, names in ribboncalc._EXPORTS.items():
        owner = import_module("ribboncalc." + module)
        for name in names:
            yield name, getattr(owner, name)


def _public_members(cls):
    """The public methods and properties an exported class defines or
    inherits from the package; a record's fields are read-only properties
    over its slots, so they are covered too."""
    return sorted({
        name
        for klass in cls.__mro__ if klass.__module__.startswith("ribboncalc")
        for name, value in vars(klass).items()
        if not name.startswith("_") and (callable(value) or isinstance(value, property))
    })


def _passes(call, index, name):
    """Whether ``call`` passes the parameter ``name``, ``index``-th in
    order, by keyword, by position or through unpacking."""
    return (
        len(call.args) > index
        or any(isinstance(a, ast.Starred) for a in call.args)
        or any(k.arg in (name, None) for k in call.keywords)
    )


def test_every_public_method_and_parameter_is_used():
    trees = _package_trees()
    outside = _outside_code()
    # src reads a method as an attribute, or writes it by a layout name
    read = {n.attr for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.Attribute)}
    layouts = import_module("ribboncalc.serialization")._LAYOUTS.values()
    read.update(f for layout in layouts if isinstance(layout, tuple) for f in layout)
    read |= _outside_uses(outside)
    calls = {}
    for tree in [*trees.values(), *outside]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)
    unused = []
    for name, obj in _exported():
        if isinstance(obj, type):
            unused += [
                "{}.{}".format(name, m) for m in _public_members(obj)
                if m not in read
            ]
        elif inspect.isfunction(obj):
            unused += [
                "{}({})".format(name, p.name)
                for index, p in enumerate(inspect.signature(obj).parameters.values())
                if p.default is not p.empty
                and not any(_passes(c, index, p.name) for c in calls.get(name, ()))
            ]
    unexplained = [n for n in unused if n not in TEST_ONLY_MEMBERS]
    assert unexplained == [], "public methods or parameters only the tests use: " + ", ".join(
        unexplained
    )
    # an entry goes once its name is used again or no longer exists
    stale = [name for name in TEST_ONLY_MEMBERS if name not in unused]
    assert stale == [], "test-only entries for members that are used or gone: " + ", ".join(stale)


# run in a fresh interpreter, where no module of the package is loaded yet
_FIRST_USE = """
import sys
import ribboncalc

def loaded():
    return sorted(m for m in sys.modules if m.startswith("ribboncalc."))

assert loaded() == [], loaded()
package = vars(ribboncalc)
assert "dual" not in package
dual = ribboncalc.dual
assert loaded() == ["ribboncalc.graph"], loaded()
assert package["dual"] is dual is ribboncalc.graph.dual
assert package["subgraph"] is ribboncalc.graph.subgraph
assert "EdgeRef" not in package
from ribboncalc import EdgeRef
assert loaded() == ["ribboncalc.graph", "ribboncalc.trajectory"], loaded()
assert package["EdgeRef"] is EdgeRef is ribboncalc.trajectory.EdgeRef
assert "__getattr__" in package
for name in ribboncalc.__all__:
    getattr(ribboncalc, name)
assert "__getattr__" not in package
try:
    ribboncalc.no_such_name
except AttributeError as exc:
    assert "no attribute 'no_such_name'" in str(exc)
else:
    raise AssertionError("no AttributeError")
"""


def test_a_module_is_imported_when_one_of_its_names_is_first_used():
    done = run_python(_FIRST_USE)
    assert done.returncode == 0, done.stderr


PACKAGE = Path(ribboncalc.__file__).parent
FIXTURES = sorted((PACKAGE / "fixtures").glob("*.json"))
PARSERS = {
    "graph": parse_graph,
    "template": parse_template,
    "assignments": parse_assignments,
    "choices": parse_choices,
}


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_every_fixture_is_one_input_kind(path):
    text = path.read_text(encoding="utf-8")
    kinds = {}
    for kind, parse in PARSERS.items():
        try:
            kinds[kind] = parse(text)
        except ParseError:
            pass
    assert len(kinds) == 1, "{} parses as {}".format(path.name, sorted(kinds) or "nothing")
    if "template" in kinds:
        assert kinds["template"].name == path.stem
        assert path.stem in BUILTIN_TEMPLATE_NAMES


def test_every_builtin_template_has_a_file():
    stems = {path.stem for path in FIXTURES}
    assert [n for n in BUILTIN_TEMPLATE_NAMES if n not in stems] == []


def test_package_data_ships_every_fixture():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    patterns = project["tool"]["setuptools"]["package-data"]["ribboncalc"]
    unshipped = [
        path.name
        for path in FIXTURES
        if not any(
            fnmatch.fnmatch(path.relative_to(PACKAGE).as_posix(), p) for p in patterns
        )
    ]
    assert unshipped == []
