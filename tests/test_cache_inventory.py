"""Every cache in the package is listed, with its key and its bound, in the
package docstring, and every cache listed there exists.

A stdlib-only check in the manner of tests/test_unused_definitions.py: it
parses every module of src/chromabraid and collects the module-level
functions decorated with functools.lru_cache or functools.cache, and the
methods of module-level classes decorated with functools.cached_property.
The docstring lists each as a line

    - module.function: key ...; bound ...
    - module.Class.method: key ...; bound ...

and a cache with a finite maxsize names that maxsize in its bound.
"""

import ast
import re
from pathlib import Path

import chromabraid

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chromabraid"
ENTRY = re.compile(r"^- (\w+(?:\.\w+)?\.\w+): key (.+); bound (.+)\.$")


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


def is_cached_property(deco):
    name = deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", None)
    return name == "cached_property"


def cached_functions(package):
    """{'module.function': maxsize source, or None when unbounded} for every
    module-level function decorated with lru_cache or cache, and
    {'module.Class.method': None} for every cached_property of a module-level
    class, which lives as long as its instance."""
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for size in filter(None, map(maxsize_source, node.decorator_list)):
                    found[f"{path.stem}.{node.name}"] = None if size == "None" else size
            elif isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                for item in methods:
                    if any(map(is_cached_property, item.decorator_list)):
                        found[f"{path.stem}.{node.name}.{item.name}"] = None
    return found


def listed_caches(doc):
    """{'module.function' or 'module.Class.method': (key, bound)} for every
    inventory line of doc."""
    return {m.group(1): (m.group(2), m.group(3)) for m in map(ENTRY.match, doc.splitlines()) if m}


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
        "from functools import cache, cached_property, lru_cache\n"
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
        "class Value:\n"
        "    @functools.cached_property\n"
        "    def qualified(self):\n"
        "        return 1\n"
        "    @cached_property\n"
        "    def bare(self):\n"
        "        return 2\n"
        "    @property\n"
        "    def plain_property(self):\n"
        "        return 3\n"
    )
    assert cached_functions(tmp_path) == {
        "mod.unbounded": None,
        "mod.bounded": "LIMIT",
        "mod.positional": "8",
        "mod.default": "128",
        "mod.plain": None,
        "mod.Value.qualified": None,
        "mod.Value.bare": None,
    }
    doc = (
        "- mod.plain: key n; bound one per n.\n"
        "- mod.Value.bare: key the value; bound freed with it.\n"
        "- mod.bad: no key\n"
        "- mod.A.b.c: key too deep; bound none.\n"
    )
    assert listed_caches(doc) == {
        "mod.plain": ("n", "one per n"),
        "mod.Value.bare": ("the value", "freed with it"),
    }
