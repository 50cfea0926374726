"""Every name a module of the package or of its tests imports is used in
that module, every name a function there assigns is read, and every
module-level function, class and constant that either defines is named
somewhere in the package, its tests or its benchmarks, no function
of the package rebinds a module-level name through ``global``, and no
package module but ``harness.py``, whose ``SOLVERS`` table is the one
dispatch on the algorithm, compares anything with an ``Algorithm``
member."""

import ast
from pathlib import Path

import pytest

_TESTS = Path(__file__).parent
_ROOT = _TESTS.parent
PACKAGE = sorted((_ROOT / "src" / "isvp").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted(_TESTS.glob("*.py"))
# a re-export in __init__.py is not a use: a name only it imports has no caller
USERS = SOURCES + sorted((_ROOT / "benchmarks").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(node):
    """The nodes below ``node`` outside any nested function, lambda or class."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, _SCOPES):
            yield child
            yield from _own_scope(child)


def dead_locals(source: str) -> list[str]:
    """Names a function assigns and neither it nor a nested function reads."""
    hits = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored = {}
        for node in _own_scope(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
        read = {
            node.id for node in ast.walk(fn)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        hits += [
            f"{fn.name}: {name} (line {line})"
            for name, line in stored.items()
            if name != "_" and name not in read
        ]
    return hits


def names_used(source: str) -> set[str]:
    """Every name a module reads, as a variable, attribute, argument or import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def orphaned_helpers(source: str, used: set[str]) -> list[str]:
    """Module-level functions, classes and constants of a module that no
    name in ``used`` refers to; pytest finds tests by their prefix."""
    hits = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, ast.Assign):
            defined = [target.id for target in node.targets if isinstance(target, ast.Name)]
        else:
            continue
        hits += [
            f"{name} (line {node.lineno})"
            for name in defined
            if not name.startswith(("test", "Test")) and name not in used
        ]
    return hits


def global_statements(source: str) -> list[str]:
    """The names of every ``global`` statement in a module, with its line."""
    return [
        f"{name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
        for name in node.names
    ]


_EQUALITY_OPS = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)


def _is_algorithm_member(node) -> bool:
    """``Algorithm.X``, or ``<module>.Algorithm.X``."""
    if not isinstance(node, ast.Attribute):
        return False
    owner = node.value
    return (isinstance(owner, ast.Name) and owner.id == "Algorithm") or (
        isinstance(owner, ast.Attribute) and owner.attr == "Algorithm"
    )


def algorithm_comparisons(source: str) -> list[str]:
    """Every ``is``, ``is not``, ``==`` or ``!=`` with an ``Algorithm``
    member on either side, with its line, in source order."""
    hits = []
    compares = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Compare)]
    for node in sorted(compares, key=lambda node: (node.lineno, node.col_offset)):
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, _EQUALITY_OPS) and (
                _is_algorithm_member(left) or _is_algorithm_member(right)
            ):
                hits.append(f"{ast.unparse(left)} {ast.unparse(right)} (line {node.lineno})")
    return hits


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os (line 1)",
        "b (line 2)",
    ]


def test_the_check_sees_a_dead_local():
    source = (
        "def f(a):\n"
        "    n = len(a)\n"
        "    b, _ = a\n"
        "    kept = 2\n"
        "    def g():\n"
        "        unused = kept\n"
        "    return g\n"
    )
    assert dead_locals(source) == ["f: n (line 2)", "f: b (line 3)", "g: unused (line 6)"]


def test_the_check_sees_an_orphaned_helper():
    source = (
        "LIMIT = SPARE = 3\n"
        "def helper(x): pass\n"
        "def orphan(): pass\n"
        "class Spare: pass\n"
        "def fixture(): pass\n"
        "class TestA:\n"
        "    def test_a(self, fixture):\n"
        "        helper(LIMIT)\n"
    )
    assert orphaned_helpers(source, names_used(source)) == [
        "SPARE (line 1)",
        "orphan (line 3)",
        "Spare (line 4)",
    ]


def test_the_check_sees_a_global_statement():
    source = (
        "MEMO = None\n"
        "def f():\n"
        "    class C:\n"
        "        def g(self):\n"
        "            global MEMO, SEEN\n"
    )
    assert global_statements(source) == ["MEMO (line 5)", "SEEN (line 5)"]


def test_the_check_sees_an_algorithm_comparison():
    source = (
        "if a is Algorithm.ALG1 or b == harness.Algorithm.NEWTON:\n"
        "    pass\n"
        "x = Algorithm.CAYLEY_FREE != a\n"
        "y = a is not isvp.harness.Algorithm.ALG1\n"
        "z = Algorithm.ALG1.value\n"
        "w = a in (Algorithm.ALG1,) or a < b\n"
    )
    assert algorithm_comparisons(source) == [
        "a Algorithm.ALG1 (line 1)",
        "b harness.Algorithm.NEWTON (line 1)",
        "Algorithm.CAYLEY_FREE a (line 3)",
        "a isvp.harness.Algorithm.ALG1 (line 4)",
    ]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "harness.py"], ids=lambda p: p.name
)
def test_only_the_harness_compares_with_an_algorithm_member(path):
    assert algorithm_comparisons(path.read_text()) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_global_statements(path):
    assert global_statements(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_locals(path):
    assert dead_locals(path.read_text()) == []


def test_no_orphaned_helpers():
    used = set().union(*(names_used(p.read_text()) for p in USERS))
    hits = {
        str(p.relative_to(_ROOT)): orphaned_helpers(p.read_text(), used)
        for p in PACKAGE + sorted(_TESTS.glob("*.py"))
    }
    assert {name: found for name, found in hits.items() if found} == {}
