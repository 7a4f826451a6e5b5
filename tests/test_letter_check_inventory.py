"""The letter check runs in exactly two places: where a BraidWord is built,
and in front of the kernel's raw-letters entry, left_normal_form.

A stdlib-only check in the manner of tests/test_limit_inventory.py: it
parses every module of src/chromabraid and collects the function, named
module.Class.function, around each call of check_letters.  Every other
layer takes a BraidWord and trusts the letters it checked.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chromabraid"


def _calls_in(node, prefix, found):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _calls_in(child, f"{prefix}.{child.name}", found)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "check_letters":
                found.append(prefix)
        _calls_in(child, prefix, found)


def letter_check_sites(package):
    """['module.scope'] for every call of check_letters, one entry per call."""
    found = []
    for path in sorted(package.glob("*.py")):
        _calls_in(ast.parse(path.read_text()), path.stem, found)
    return found


def test_letters_are_checked_in_two_places():
    assert sorted(letter_check_sites(PACKAGE)) == [
        "_kernel.left_normal_form",
        "words.BraidWord.__post_init__",
    ]


def test_detects_calls(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from ._kernel import check_letters\n"
        "from . import _kernel\n"
        "class W:\n"
        "    def make(self):\n"
        "        return check_letters(3, ())\n"
        "def walk(n, letters):\n"
        "    def inner():\n"
        "        return _kernel.check_letters(n, letters)\n"
        "    return inner(), check_letters(n, letters)\n"
        "LETTERS = check_letters(3, (1,))\n"
        "def other():\n"
        "    return check_strands(3)\n"
    )
    assert letter_check_sites(tmp_path) == [
        "mod.W.make", "mod.walk.inner", "mod.walk", "mod",
    ]
