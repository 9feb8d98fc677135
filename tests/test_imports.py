"""Every module-level import in the package, the tests and the tools is used,
every definition in the package serves the program, and no module of the
package imports a private name of another.

AST scans instead of a linter.  A name bound by a top-level ``import`` or
``from ... import`` must be read somewhere else in the same module.
A top-level function or class of the package, or a method of one of its
classes, must be read by name (a name, an attribute or an import) by a
package module other than ``__init__.py``, or by a tool.  A re-export does
not count, and neither does a test: a name that only tests read passes
only as an entry of ``TEST_ONLY``, with the reason a test of live code
needs it, and every entry must still be read by tests alone.  Dunders are
exempt, and so are functions under a decorator other than ``property``,
``staticmethod`` and ``classmethod`` (click commands, memo tables), which
the decorator registers or wraps.  A ``from .x import _y`` at any depth of
a package module is a private name crossing a module boundary; a private
module itself (``from . import _intlinalg``) may be imported.  So is a read
of ``x._y`` in a module that binds ``_y`` nowhere: not as a function, a
class, an assignment target or an attribute store.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "endokit").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
TOOLS = sorted((ROOT / "tools").glob("*.py"))
MODULES = PACKAGE + TESTS + TOOLS
PLAIN_DECORATORS = {"property", "staticmethod", "classmethod"}

# Package definitions that only tests read, each with the test of live code
# that builds with it or compares against it.
TEST_ONLY = {
    "DescentScenario.to_json": "writes the --scenario files of the CLI and round-trip tests",
    "DescentOutcome.mexc_reduced": "the reference of test_bottom_levi_pushes_to_matched_group",
    "DiagSubgroup.full_torus": "builds the full torus in the lattice tests",
    "RootOfUnity.one": "builds eigenvalues in the descent and CLI tests",
    "RootOfUnity.minus_one": "builds eigenvalues in the descent and CLI tests",
    "VerificationReport.body": "the report body that the streamed writer and the pool are compared against",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [
        "os (line 1)",
        "d (line 2)",
    ]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(source: str) -> list[str]:
    """Top-level functions and classes, and methods as ``Class.name``,
    that the scan requires to be read."""
    out = []
    for node in ast.parse(source).body:
        members = [(node, "")]
        if isinstance(node, ast.ClassDef):
            members += [(m, f"{node.name}.") for m in node.body]
        for m, owner in members:
            if not isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if m.name.startswith("__") and m.name.endswith("__"):
                continue
            plain = all(isinstance(d, ast.Name) and d.id in PLAIN_DECORATORS for d in m.decorator_list)
            if isinstance(m, ast.ClassDef) or plain:
                out.append(owner + m.name)
    return out


def names_read(source: str) -> set[str]:
    names = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
    return names


def unread_definitions(package: dict[str, str], tools: list[str], tests: list[str], test_only: dict) -> list[str]:
    """``module: definition`` for each definition in the ``package`` sources
    (file name to source) that no package module but ``__init__.py`` and no
    tool reads, unless ``test_only`` names it and a test reads it."""
    program = [src for name, src in package.items() if name != "__init__.py"] + tools
    read = set().union(*map(names_read, program))
    tested = set().union(*map(names_read, tests))
    return [
        f"{name}: {d}"
        for name, src in package.items()
        for d in definitions(src)
        if d.split(".")[-1] not in read and not (d in test_only and d.split(".")[-1] in tested)
    ]


def test_scan_flags_an_unread_definition():
    source = (
        "import click\n"
        "def used(): pass\n"
        "def unused(): pass\n"
        "@click.command()\n"
        "def cmd(): pass\n"
        "class C:\n"
        "    def __init__(self): self.x = used()\n"
        "    @property\n"
        "    def shown(self): pass\n"
        "    def hidden(self): pass\n"
        "print(C().shown)\n"
    )
    defined = definitions(source)
    assert defined == ["used", "unused", "C", "C.shown", "C.hidden"]
    assert unread_definitions({"m.py": source}, [], [], {}) == ["m.py: unused", "m.py: C.hidden"]
    package = {
        "__init__.py": "from .m import exported\n",
        "m.py": "def live(): pass\ndef exported(): pass\ndef tested(): pass\ndef builder(): pass\n",
        "cli.py": "from .m import live\n",
    }
    tests = ["from endokit.m import builder, tested\nbuilder(); tested()\n"]
    assert unread_definitions(package, [], tests, {"builder": "a test builder"}) == ["m.py: exported", "m.py: tested"]
    assert unread_definitions(package, ["from endokit.m import exported, tested\n"], tests, {}) == ["m.py: builder"]


def test_every_definition_is_read():
    package = {p.name: p.read_text() for p in PACKAGE}
    tools = [p.read_text() for p in TOOLS]
    tests = [p.read_text() for p in TESTS]
    assert unread_definitions(package, tools, tests, TEST_ONLY) == []
    # each entry of TEST_ONLY is still a name that tests alone read
    assert sorted(d.split(": ")[1] for d in unread_definitions(package, tools, tests, {})) == sorted(TEST_ONLY)


def private_imports(source: str) -> list[str]:
    """``module._name`` for every private name a relative import takes from
    a sibling module, at any depth."""
    return [
        f"{node.module}.{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level and node.module
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_scan_flags_a_private_import():
    source = (
        "from . import _intlinalg\n"
        "from ._intlinalg import det_int\n"
        "from .ambient import Ambient, _helper\n"
        "def f():\n"
        "    from .descent import _deep\n"
    )
    assert private_imports(source) == ["ambient._helper (line 3)", "descent._deep (line 5)"]


def private_attributes(source: str) -> list[str]:
    """``_name`` for every read of a private, non-dunder attribute that the
    module binds nowhere, so another module defines it."""
    tree = ast.parse(source)
    bound = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(n.name)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            bound.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            bound.add(n.attr)
    reads = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and isinstance(n.ctx, ast.Load)
        and n.attr.startswith("_")
        and not (n.attr.startswith("__") and n.attr.endswith("__"))
        and n.attr not in bound
    ]
    return [f"{n.attr} (line {n.lineno})" for n in sorted(reads, key=lambda n: (n.lineno, n.col_offset))]


def test_scan_flags_a_private_attribute():
    source = (
        "class A:\n"
        "    def _own(self): return self._memo\n"
        "    def __init__(self): self._memo = {}\n"
        "_table = {}\n"
        "def f(amb, mod):\n"
        "    amb._own(); amb._memo; mod._table; object.__setattr__\n"
        "    return amb._cached(1), mod._hermite_basis\n"
    )
    assert private_attributes(source) == ["_cached (line 7)", "_hermite_basis (line 7)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    source = path.read_text()
    assert private_imports(source) + private_attributes(source) == []
