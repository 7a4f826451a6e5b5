"""Every name a package module imports is used in that module.

A stdlib-only stand-in for a linter's unused-import rule (F401): it parses
each module of src/chromabraid except the package __init__ (whose imports
are its public API) and fails on an imported name that no expression of the
module reads.  Names imported on a line marked ``# noqa: F401`` are
re-exports and exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chromabraid"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from re import (\n"
        "    compile,\n"
        "    escape,  # noqa: F401  re-exported\n"
        "    sub,\n"
        ")\n"
        "print(sub)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "compile (line 4)"]


def test_scans_every_module():
    assert {p.name for p in MODULES} >= {"garside.py", "cli.py", "verify.py", "words.py"}
