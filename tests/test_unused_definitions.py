"""Every function, method and class the package defines is read by
production code, or is imported by the acceptance tests.

A stdlib-only dead-code check in two parts.  It parses every .py file under
src/, tests/ and perfbench/, and a name counts as read only where code
refers to it: a definition is not a reading, and neither is a use of a
function's own local that has a definition's name.  Dotted names in the
string constants of perfbench/spans.py count as read, since the tracer looks
its targets up by name.  Dunder methods are called by the language and
exempt.

- unused_definitions: a def or class of src/chromabraid that nothing reads.
- read_only_by_tests: a definition that only tests/ read.  Reads in src/ and
  perfbench/ are production reads, but a re-export in the package's
  __init__.py is not a use.  Names that tests/test_acceptance.py imports
  are exempt, since the acceptance criteria are stated in them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "perfbench")
SPANS = Path("perfbench") / "spans.py"
INIT = Path("src") / "chromabraid" / "__init__.py"
ACCEPTANCE = Path("tests") / "test_acceptance.py"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined_names(tree):
    """(name, line) of every def and class in the tree, nested ones included."""
    found = [(node.lineno, node.name) for node in ast.walk(tree) if isinstance(node, _DEFS)]
    return [(name, line) for line, name in sorted(found)]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def bound_names(scope):
    """The names a function or lambda binds: its arguments and the names its
    body stores to (assignment, loop and comprehension targets), nested
    functions excluded."""
    bound = {arg.arg for arg in ast.walk(scope.args) if isinstance(arg, ast.arg)}
    todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return bound


def read_names(tree, strings=False):
    """Names the tree reads: loaded or stored names, attributes, imports and,
    with strings=True, each dotted part of a string constant.  A name inside
    a function that binds it is that function's local, not a read of a
    module-level definition."""
    names = set()
    todo = [(tree, frozenset())]
    while todo:
        node, local = todo.pop()
        if isinstance(node, _SCOPES):
            body = node.body if isinstance(node.body, list) else [node.body]
            inner = local | bound_names(node)
            # decorators, defaults and annotations belong to the outer scope
            todo += [
                (child, inner if child in body else local)
                for child in ast.iter_child_nodes(node)
            ]
            continue
        if isinstance(node, ast.Name):
            if node.id not in local:
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
        todo += [(child, local) for child in ast.iter_child_nodes(node)]
    return names


def scan(root):
    """The package's definitions as ('module.py:line', name), and the names
    read by production code, by the package's re-exports, by tests/, and
    imported by tests/test_acceptance.py, keyed 'production', 'init',
    'tests' and 'acceptance'."""
    reads = {"production": set(), "init": set(), "tests": set(), "acceptance": set()}
    defined = []
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root)
            tree = ast.parse(path.read_text(), filename=str(rel))
            kind = "init" if rel == INIT else "tests" if top == "tests" else "production"
            reads[kind] |= read_names(tree, strings=rel == SPANS)
            if rel == ACCEPTANCE:
                reads["acceptance"] |= {
                    alias.name
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names
                }
            if rel.parts[:2] == ("src", "chromabraid"):
                defined += [(f"{path.name}:{line}", name) for name, line in defined_names(tree)]
    return defined, reads


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unused_definitions(root):
    """'module.py:line name' for each package definition nothing reads."""
    defined, reads = scan(root)
    read = reads["production"] | reads["init"] | reads["tests"]
    return [
        f"{where} {name}"
        for where, name in defined
        if name not in read and not _is_dunder(name)
    ]


def read_only_by_tests(root):
    """'module.py:line name' for each package definition that only tests
    read and the acceptance tests do not import."""
    defined, reads = scan(root)
    return [
        f"{where} {name}"
        for where, name in defined
        if name in reads["tests"]
        and name not in reads["production"] | reads["acceptance"]
        and not _is_dunder(name)
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


def test_locals_do_not_read_definitions(tmp_path):
    package = tmp_path / "src" / "chromabraid"
    package.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "perfbench").mkdir()
    (package / "mod.py").write_text(
        "def power():\n"
        "    pass\n"
        "def base():\n"
        "    pass\n"
        "def run():\n"
        "    pass\n"
        "def step():\n"
        "    pass\n"
        "def used():\n"
        "    pass\n"
        "def formatted(exp, base):\n"
        "    power = exp * base\n"
        "    for run in range(power):\n"
        "        f = lambda step: step + run\n"
        "    return [f(step) for step in range(power)], used()\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text("from chromabraid.mod import formatted\n")
    assert unused_definitions(tmp_path) == [
        "mod.py:1 power", "mod.py:3 base", "mod.py:5 run", "mod.py:7 step",
    ]


def test_no_definitions_only_tests_read():
    assert read_only_by_tests(ROOT) == []


def test_detects_definitions_only_tests_read(tmp_path):
    package = tmp_path / "src" / "chromabraid"
    package.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "perfbench").mkdir()
    (package / "__init__.py").write_text("from .mod import reexported\n")
    (package / "mod.py").write_text(
        "def used():\n"
        "    return 0\n"
        "def caller():\n"
        "    return used()\n"
        "def benched():\n"
        "    pass\n"
        "def traced():\n"
        "    pass\n"
        "def reexported():\n"
        "    pass\n"
        "def accepted():\n"
        "    pass\n"
        "def helper():\n"
        "    pass\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from chromabraid.mod import caller, helper, reexported, traced, used\n"
        "caller(); helper(); reexported(); traced(); used()\n"
    )
    (tmp_path / "tests" / "test_acceptance.py").write_text("from chromabraid.mod import accepted\n")
    (tmp_path / "perfbench" / "run.py").write_text("from chromabraid.mod import benched, caller\n")
    (tmp_path / "perfbench" / "spans.py").write_text("TARGETS = ('mod.traced',)\n")
    assert read_only_by_tests(tmp_path) == ["mod.py:9 reexported", "mod.py:13 helper"]
