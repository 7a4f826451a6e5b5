"""Every cache in the package is listed, with its key and its bound, in the
package docstring, and every cache listed there exists.

A stdlib-only check in the manner of tests/test_unused_definitions.py: it
parses every module of src/chromabraid and collects the module-level
functions decorated with functools.lru_cache or functools.cache.  The
docstring lists each as a line

    - module.function: key ...; bound ...

and a cache with a finite maxsize names that maxsize in its bound.
"""

import ast
import re
from pathlib import Path

import chromabraid

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chromabraid"
ENTRY = re.compile(r"^- (\w+)\.(\w+): key (.+); bound (.+)\.$")


def maxsize_source(deco):
    """The source of a cache decorator's maxsize ('None' when unbounded), or
    None when deco is not lru_cache or cache."""
    call = deco if isinstance(deco, ast.Call) else None
    target = call.func if call else deco
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return "None"
    if name != "lru_cache":
        return None
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args if call else []
    return ast.unparse(sizes[0]) if sizes else "128"  # lru_cache's default


def cached_functions(package):
    """{'module.function': maxsize source, or None when unbounded} for every
    module-level function decorated with lru_cache or cache."""
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for size in filter(None, map(maxsize_source, node.decorator_list)):
                    found[f"{path.stem}.{node.name}"] = None if size == "None" else size
    return found


def listed_caches(doc):
    """{'module.function': (key, bound)} for every inventory line of doc."""
    return {
        f"{m.group(1)}.{m.group(2)}": (m.group(3), m.group(4))
        for m in map(ENTRY.match, doc.splitlines())
        if m
    }


def test_every_cache_is_listed_and_every_listed_cache_exists():
    assert set(listed_caches(chromabraid.__doc__)) == set(cached_functions(PACKAGE))


def test_bounded_caches_name_their_maxsize():
    listed = listed_caches(chromabraid.__doc__)
    for name, size in cached_functions(PACKAGE).items():
        if size is not None:
            assert size in listed[name][1], f"{name}: bound does not name maxsize {size}"


def test_detects_decorated_functions(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def unbounded(n):\n"
        "    return n\n"
        "@functools.lru_cache(maxsize=LIMIT)\n"
        "def bounded(n):\n"
        "    return n\n"
        "@lru_cache(8)\n"
        "def positional(n):\n"
        "    return n\n"
        "@lru_cache\n"
        "def default(n):\n"
        "    return n\n"
        "@cache\n"
        "def plain(n):\n"
        "    return n\n"
        "def uncached(n):\n"
        "    return cache(n)\n"
    )
    assert cached_functions(tmp_path) == {
        "mod.unbounded": None,
        "mod.bounded": "LIMIT",
        "mod.positional": "8",
        "mod.default": "128",
        "mod.plain": None,
    }
    assert listed_caches("- mod.plain: key n; bound one per n.\n- mod.bad: no key\n") == {
        "mod.plain": ("n", "one per n")
    }
