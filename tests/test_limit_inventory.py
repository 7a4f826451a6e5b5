"""Every resource limit in the package is listed, with what it refuses and
the error it raises, in the package docstring, and every limit listed there
exists.

A stdlib-only check in the manner of tests/test_cache_inventory.py: it
parses every module of src/chromabraid and collects the module-level
constants whose name starts with MAX_ (or _MAX_) or contains _LIMIT.  The
docstring lists each as a line

    - module.NAME: refuses ...; raises Error.

and the error it names is a ChromabraidError.
"""

import ast
import re
from pathlib import Path

import chromabraid
from chromabraid import errors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chromabraid"
ENTRY = re.compile(r"^- (\w+)\.(\w+): refuses (.+); raises (\w+)\.$")
LIMIT_NAME = re.compile(r"^_?MAX_|_LIMIT")


def limit_constants(package):
    """{'module.NAME'} for every module-level constant named as a limit."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and LIMIT_NAME.search(target.id):
                    found.add(f"{path.stem}.{target.id}")
    return found


def listed_limits(doc):
    """{'module.NAME': (what it refuses, error name)} for every inventory
    line of doc."""
    return {
        f"{m.group(1)}.{m.group(2)}": (m.group(3), m.group(4))
        for m in map(ENTRY.match, doc.splitlines())
        if m
    }


def test_every_limit_is_listed_and_every_listed_limit_exists():
    assert set(listed_limits(chromabraid.__doc__)) == limit_constants(PACKAGE)


def test_listed_errors_are_domain_errors():
    for name, (_, error) in listed_limits(chromabraid.__doc__).items():
        assert issubclass(getattr(errors, error, type(None)), errors.ChromabraidError), name


def test_detects_limit_constants(tmp_path):
    (tmp_path / "mod.py").write_text(
        "MAX_SIZE = 10\n"
        "_MAX_DEPTH: int = 3\n"
        "_PACKED_LIMIT_BITS = 2**31\n"
        "RATE_LIMIT = 5\n"
        "_INT64_MAX_LEN = 22\n"
        "CACHE_SIZE = 64\n"
        "def f():\n"
        "    MAX_LOCAL = 1\n"
        "    return MAX_LOCAL\n"
    )
    assert limit_constants(tmp_path) == {
        "mod.MAX_SIZE",
        "mod._MAX_DEPTH",
        "mod._PACKED_LIMIT_BITS",
        "mod.RATE_LIMIT",
    }
    doc = "- mod.MAX_SIZE: refuses more; raises ResourceLimitError.\n- mod.bad: key n; bound 8.\n"
    assert listed_limits(doc) == {"mod.MAX_SIZE": ("more", "ResourceLimitError")}
