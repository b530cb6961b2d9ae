"""No dead names and no stray true division in ``src/kapranov``.

Every name a module imports is used in that module: a stdlib stand-in for
pyflakes' unused-import check.  ``__init__.py`` imports names to
re-export them and is exempt.  And every private top-level name (``_name``,
not a dunder) that a module defines is referenced somewhere in the
package besides its own definition, so a helper left behind by a
rewrite fails.  Names read inside string annotations count as used.

Coefficients are ``int`` while integral, and ``int / int`` is a float, so
the only ``/`` (or ``/=``) in the package is the one inside
``graded.exact_div``.  And ``modules.KBasis`` is the one k-basis indexer:
nothing else in the package enumerates a k-basis with ``.kbasis(`` or
reads a key's degree with ``.kdegree(``.  The CLI builds no k-basis
bracket table itself: it never reads a family's ``.brackets`` and never
names ``extend_module_table``.
"""

from __future__ import annotations

import ast
import pathlib
from collections import Counter

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "kapranov"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The name each import binds, with the line that imports it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(f"{name} (line {line})"
                  for name, line in imported_names(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_plain_dotted_aliased_and_annotation_uses():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Iterator, Sequence\n"
        "from fractions import Fraction\n"
        "def f(x: 'Sequence[int]') -> Iterator: return os.path.join(js.dumps(x))\n"
    )
    assert unused_imports(source) == ["Fraction (line 5)"]


def referenced_names(node: ast.AST) -> Counter:
    """How often each name is read under ``node``: as a name, an
    attribute, an imported name or inside a string annotation."""
    count: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            count[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            count[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            count.update(alias.name for alias in sub.names)
    for annotation in annotations(node):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                count.update(referenced_names(ast.parse(sub.value, mode="eval")))
    return count


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The private top-level names a module defines, with their statements."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        out.update((name, node) for name in names
                   if name.startswith("_") and not name.startswith("__"))
    return out


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level names of the modules ``sources`` (file name ->
    source) that nothing references outside their own definition."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    total: Counter = Counter()
    for tree in trees.values():
        total.update(referenced_names(tree))
    return sorted(f"{module}: {name} (line {node.lineno})"
                  for module, tree in trees.items()
                  for name, node in private_definitions(tree).items()
                  if total[name] == referenced_names(node)[name])


def test_every_private_top_level_name_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_dead_name_guard_sees_recursion_imports_and_annotations():
    sources = {
        "a.py": ("def _dead(n):\n    return _dead(n - 1)\n"
                 "def _imported(): pass\n"
                 "class _Annotated: pass\n"
                 "_CONSTANT = 1\n"
                 "def _called(): return _Annotated\n"),
        "b.py": ("from .a import _imported\n"
                 "def f(x: 'list[_Annotated]'): return a._called()\n"),
    }
    assert dead_private_names(sources) == ["a.py: _CONSTANT (line 5)",
                                           "a.py: _dead (line 1)"]


DIVISION_HELPER = ("graded.py", "exact_div")


def true_divisions(name: str, source: str) -> list[str]:
    """The ``/`` and ``/=`` of module ``name`` outside the exact-division
    helper, as ``"<module>: line <n>"``."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) \
                and (name, node.name) == DIVISION_HELPER:
            allowed.update(id(sub) for sub in ast.walk(node))
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.BinOp, ast.AugAssign))
                   and isinstance(node.op, ast.Div) and id(node) not in allowed)
    return [f"{name}: line {line}" for line in lines]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_true_division_outside_the_helper(path):
    assert true_divisions(path.name, path.read_text()) == []


def test_division_guard_sees_planted_divisions():
    source = ("def exact_div(a, b):\n    return a / b\n"
              "def f(a, b):\n    return [x / b for x in a], a // b\n"
              "def g(a):\n    a /= 2\n    return a\n")
    assert true_divisions("graded.py", source) == ["graded.py: line 4",
                                                   "graded.py: line 6"]
    # the helper is only exempt in graded.py
    assert true_divisions("cohomology.py", source)[0] == "cohomology.py: line 2"
    helper = (PACKAGE / "graded.py").read_text()
    planted = helper + "\n\ndef _halve(x):\n    return x / 2\n"
    assert len(true_divisions("graded.py", planted)) == 1


INDEXER = ("modules.py", "KBasis")


def kbasis_indexing(name: str, source: str) -> list[str]:
    """The calls of ``.kbasis(`` and ``.kdegree(`` in module ``name``
    outside the class ``KBasis`` of modules.py, as ``"<module>: line <n>"``."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and (name, node.name) == INDEXER:
            allowed.update(id(sub) for sub in ast.walk(node))
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr in ("kbasis", "kdegree")
                   and id(node) not in allowed)
    return [f"{name}: line {line}" for line in lines]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_kbasis_indexes_the_kbasis(path):
    assert kbasis_indexing(path.name, path.read_text()) == []


def test_indexer_guard_sees_a_planted_second_indexer():
    source = ("class KBasis:\n    def __init__(self, m):\n"
              "        self.keys = m.kbasis()\n"
              "        self.degrees = [m.kdegree(k) for k in self.keys]\n"
              "def slice0(m):\n"
              "    return [k for k in m.kbasis() if m.kdegree(k) == 0]\n")
    assert kbasis_indexing("modules.py", source) == ["modules.py: line 6",
                                                     "modules.py: line 6"]
    # the class is only exempt in modules.py
    assert kbasis_indexing("cohomology.py", source)[0] == "cohomology.py: line 3"
    indexer = (PACKAGE / "modules.py").read_text()
    planted = indexer + ("\n\ndef _slice1(module):\n"
                         "    return module.kbasis(1)\n")
    assert kbasis_indexing("modules.py", planted) \
        == [f"modules.py: line {len(planted.splitlines())}"]


def kbasis_table_reads(source: str) -> list[str]:
    """The lines of a module that read a family's ``.brackets`` or name
    ``extend_module_table``: the CLI's report-only commands read module
    tables, and only the exhaustive checkers build k-basis tables."""
    tree = ast.parse(source)
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "brackets"
        or isinstance(node, ast.Name) and node.id == "extend_module_table"
        or isinstance(node, ast.alias) and node.name == "extend_module_table")]


def test_cli_builds_no_kbasis_bracket_table():
    assert kbasis_table_reads((PACKAGE / "cli.py").read_text()) == []


def test_table_guard_sees_a_planted_read():
    cli = (PACKAGE / "cli.py").read_text()
    n = len(cli.splitlines())
    planted = cli + ("\n\ndef _degrees(fam):\n"
                     "    return fam.brackets[1].check_degrees()\n")
    assert kbasis_table_reads(planted) == [f"line {n + 4}"]
    planted = cli + ("\n\nfrom .kapranov import extend_module_table\n"
                     "_extend = extend_module_table\n")
    assert kbasis_table_reads(planted) == [f"line {n + 3}", f"line {n + 4}"]
    # the parent's degree check read every k-basis table
    assert kbasis_table_reads("for k, m in sorted(fam.brackets.items()):\n"
                              "    pass\n") == ["line 1"]
