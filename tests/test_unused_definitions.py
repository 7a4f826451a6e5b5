"""Every function, method and class the package defines is named somewhere.

A stdlib-only dead-code check: it parses every .py file under src/, tests/
and perfbench/ and fails on a def or class of src/chromabraid whose name no
expression, attribute access or import of those files reads.  A definition
is not a reading, so a name counts as used only where code refers to it.
Dotted names in the string constants of perfbench/spans.py count as read,
since the tracer looks its targets up by name.  Dunder methods are called
by the language and exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "perfbench")
SPANS = Path("perfbench") / "spans.py"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined_names(tree):
    """(name, line) of every def and class in the tree, nested ones included."""
    found = [(node.lineno, node.name) for node in ast.walk(tree) if isinstance(node, _DEFS)]
    return [(name, line) for line, name in sorted(found)]


def read_names(tree, strings=False):
    """Names the tree reads: loaded or stored names, attributes, imports and,
    with strings=True, each dotted part of a string constant."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def unused_definitions(root):
    """'module.py:line name' for each package definition nothing reads."""
    read = set()
    defined = []
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root)
            tree = ast.parse(path.read_text(), filename=str(rel))
            read |= read_names(tree, strings=rel == SPANS)
            if rel.parts[:2] == ("src", "chromabraid"):
                defined += [(f"{path.name}:{line}", name) for name, line in defined_names(tree)]
    return [
        f"{where} {name}"
        for where, name in defined
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    ]


def test_no_unused_definitions():
    assert unused_definitions(ROOT) == []


def test_detects_unread_definitions(tmp_path):
    package = tmp_path / "src" / "chromabraid"
    package.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "perfbench").mkdir()
    (package / "mod.py").write_text(
        "class Used:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def called(self):\n"
        "        return helper()\n"
        "    def dead_method(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return Used\n"
        "def traced():\n"
        "    pass\n"
        "def dead():\n"
        "    pass\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text("from chromabraid.mod import Used\nUsed().called()\n")
    # a string outside spans.py does not count
    (tmp_path / "perfbench" / "run.py").write_text("NAME = 'dead'\n")
    (tmp_path / "perfbench" / "spans.py").write_text("TARGETS = ('mod.traced',)\n")
    assert unused_definitions(tmp_path) == ["mod.py:6 dead_method", "mod.py:12 dead"]
