"""Every endokit name the benchmark under ``perfbench/`` looks up resolves.

``perfbench/spans.py`` wraps the layers it traces by ``(module,
attribute)``, reads ``SUITES`` and the pool task through ``sys.modules``,
and ``perfbench/check.py`` imports what it checks the reports with.  A name
that moves out of its module breaks the benchmark, not the package, so the
names are read from those files with ``ast``, without importing them.
"""

import ast
import importlib
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def looked_up(source: str) -> list[tuple[str, str | None, str]]:
    """``(module, class or None, attribute)`` for every endokit name the
    source names: the entries of its ``SPANNED`` and ``COUNTED`` tables,
    the ``MEMO_TABLES`` of ``endokit.lattices``, every ``sys.modules[
    "endokit..."].attribute`` and every ``from endokit... import`` name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("SPANNED", "COUNTED"):
                out += [(mod, cls, attr) for _, mod, cls, attr in ast.literal_eval(node.value)]
            elif name == "MEMO_TABLES":
                out += [("endokit.lattices", None, table) for table in ast.literal_eval(node.value)]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Subscript)
            and ast.unparse(node.value.value) == "sys.modules"
        ):
            module = ast.literal_eval(node.value.slice)
            if module.split(".")[0] == "endokit":
                out.append((module, None, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "endokit":
            out += [(node.module, None, alias.name) for alias in node.names]
    return out


def test_scan_reads_every_kind_of_lookup():
    source = (
        "import sys\n"
        'SPANNED = (("a.f", "endokit.a", None, "f"), ("a.C", "endokit.a", "C", "__init__"))\n'
        'COUNTED = (("b.g", "endokit.b", None, "g"),)\n'
        'MEMO_TABLES = ("m",)\n'
        "def task():\n"
        "    from endokit.c import h\n"
        '    return sys.modules["endokit.d"].SUITES, sys.modules["other"].x\n'
    )
    assert looked_up(source) == [
        ("endokit.a", None, "f"),
        ("endokit.a", "C", "__init__"),
        ("endokit.b", None, "g"),
        ("endokit.lattices", None, "m"),
        ("endokit.c", None, "h"),
        ("endokit.d", None, "SUITES"),
    ]


@pytest.mark.parametrize("name", ["spans.py", "check.py"])
def test_every_name_the_benchmark_looks_up_resolves(name):
    names = looked_up((PERFBENCH / name).read_text())
    assert names
    missing = []
    for module, cls, attr in names:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not hasattr(owner, attr):
            missing.append(".".join(filter(None, (module, cls, attr))))
    assert missing == []


def test_spans_sees_the_campaign_layers():
    """The scan finds the six names ``spans.py`` looks up on
    ``endokit.campaign``, which a split of that module could move away."""
    names = looked_up((PERFBENCH / "spans.py").read_text())
    on_campaign = {attr for module, _, attr in names if module == "endokit.campaign"}
    assert on_campaign >= {
        "scenario_corpus",
        "check_scenario",
        "outcome_shape",
        "_check_outcome",
        "_check_bucket_worker",
        "SUITES",
    }
