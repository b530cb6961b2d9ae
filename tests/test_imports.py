"""No dead names and no stray true division in ``src/kapranov``.

Every name a module imports is used in that module, in the package and
under ``tests/``: a stdlib stand-in for pyflakes' unused-import check.
The package root binds no name and loads no submodule: each name is
imported from the module that defines it.  And every
private top-level name (``_name``, not a dunder) that a module defines is
referenced somewhere in the package besides its own definition, so a
helper left behind by a rewrite fails.  Names read inside string
annotations count as used.

Coefficients are ``int`` while integral, and ``int / int`` is a float, so
the only ``/`` (or ``/=``) in the package is the one inside
``graded.exact_div``.  And ``modules.KBasis`` is the one k-basis indexer:
nothing else in the package enumerates a k-basis with ``.kbasis(`` or
reads a key's degree with ``.kdegree(``, and inside it only ``keys``
enumerates the whole module, so a slice enumerates only its degree.  A
module's differential is set once: nothing outside
``DgModule.__init__`` assigns ``.diff_matrix``
or the rows ``.diff_rows`` built from it.  The package holds one
implementation of each construction: it defines none of the element-level
oracles of ``tests/oracles.py`` and none of the names deleted with them,
and it reads none of the tower's oracles.  Nor does it define any of the
paper features that no command runs and that moved under ``tests/``
(``tests/module_tower.py``).  Every tower is filled by one
step, and its derivative runs through the one join: ``_tower_step``
calls ``_module_residuals`` and uses none of ``itertools.product``,
``derive_tensor``, ``eval_table_on_tensor`` and ``contract``.  One join
serves every identity and evaluates every table, the class bracket's
included: the package defines no ``_residuals`` and never calls
``eval_table_on_elements``.  The CLI
builds no k-basis bracket table itself: it never reads a family's
``.brackets`` and never names ``extend_module_table``.  Every linear
solve asks a ``CochainComplex``: no module but ``cohomology.py`` calls
the elimination ``rref`` or builds a ``Span``.  And every
function and method of the package runs when the commands run on the
repository's documents, or it is listed in ``UNREACHED`` with its
ROADMAP item or a reason.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "kapranov"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


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


def test_package_root_binds_no_name_and_loads_no_submodule():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert len(tree.body) == 1 and ast.get_docstring(tree)
    code = ("import json, sys, kapranov; print(json.dumps(sorted("
            "m for m in sys.modules if m.startswith('kapranov.'))))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name if
                         p.parent == PACKAGE else f"tests/{p.name}")
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
# the one member of the indexer that enumerates every key
WHOLE = "keys"


def kbasis_indexing(name: str, source: str) -> list[str]:
    """The calls of ``.kbasis(`` and ``.kdegree(`` in module ``name``
    outside the class ``KBasis`` of modules.py, and the whole-module
    calls ``.kbasis()`` (no degree) outside its ``keys``, as
    ``"<module>: line <n>"``."""
    tree = ast.parse(source)
    allowed, whole = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and (name, node.name) == INDEXER:
            allowed.update(id(sub) for sub in ast.walk(node))
            whole.update(id(sub) for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and item.name == WHOLE for sub in ast.walk(item))
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr in ("kbasis", "kdegree")
                   and (id(node) not in allowed
                        or (node.func.attr == "kbasis" and not node.args
                            and not node.keywords and id(node) not in whole)))
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
    # line 3 enumerates every key outside ``keys``
    assert kbasis_indexing("modules.py", source) == ["modules.py: line 3",
                                                     "modules.py: line 6",
                                                     "modules.py: line 6"]
    # the class is only exempt in modules.py
    assert kbasis_indexing("cohomology.py", source)[0] == "cohomology.py: line 3"
    indexer = (PACKAGE / "modules.py").read_text()
    planted = indexer + ("\n\ndef _slice1(module):\n"
                         "    return module.kbasis(1)\n")
    assert kbasis_indexing("modules.py", planted) \
        == [f"modules.py: line {len(planted.splitlines())}"]
    # a slice that enumerates every key, and keys itself
    eager = indexer.replace("keys = self.module.kbasis(d)",
                            "keys = [k for k in self.module.kbasis()\n"
                            "                    if self.module.kdegree(k) == d]")
    assert eager != indexer
    line = eager.splitlines().index(
        "            keys = [k for k in self.module.kbasis()") + 1
    assert kbasis_indexing("modules.py", eager) == [f"modules.py: line {line}"]
    whole = "class KBasis:\n    @property\n    def keys(self):\n" \
        "        return self.module.kbasis()\n"
    assert kbasis_indexing("modules.py", whole) == []


# the matrix of a module's differential and the rows built from it
DIFFERENTIAL = ("diff_matrix", "diff_rows")


def differential_assignments(source: str) -> list[str]:
    """The assignments and deletions whose target names an attribute of
    ``DIFFERENTIAL`` (an item of it included), outside the ``__init__`` of
    a class ``DgModule``, as "line <n>"."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "DgModule":
            allowed.update(id(sub) for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and item.name == "__init__"
                           for sub in ast.walk(item))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if id(node) not in allowed and any(
                isinstance(sub, ast.Attribute) and sub.attr in DIFFERENTIAL
                for target in targets for sub in ast.walk(target)):
            lines.append(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_a_module_differential_is_set_once(path):
    assert differential_assignments(path.read_text()) == []


def test_differential_guard_sees_planted_assignments():
    source = (PACKAGE / "derivations.py").read_text()
    n = len(source.splitlines())
    # the first line is how Omega^1 used to receive its differential,
    # after the module was built; a read is not an assignment
    planted = source + ("\n\ndef _late(omega1, diff):\n"
                        "    omega1.diff_matrix = {k: v for k, v in diff.items()}\n"
                        "    omega1.diff_rows[0] = {}\n"
                        "    omega1.diff_matrix[(0, 0)] += diff\n"
                        "    del omega1.diff_rows[0]\n"
                        "    rows = omega1.diff_rows.get(0)\n"
                        "\n\nclass DgModule:\n"
                        "    def __init__(self, diff):\n"
                        "        self.diff_matrix = diff\n"
                        "    def reset(self):\n"
                        "        self.diff_matrix = {}\n")
    assert differential_assignments(planted) == [
        f"line {n + k}" for k in (4, 5, 6, 7, 15)]


ORACLE_FILE = pathlib.Path(__file__).resolve().parent / "oracles.py"
# the element-level oracles of tests/oracles.py, and the names deleted
# because only their own tests used them: the package defines none of
# them, so it holds one implementation of each construction
DELETED = {"along", "atiyah_class", "bilinear", "dual", "morphism_to_hom_element"}
ORACLES = frozenset(
    node.name for node in ast.parse(ORACLE_FILE.read_text()).body
    if isinstance(node, ast.FunctionDef)) | DELETED
# the tower's oracles: nothing in the package reads them either, so every
# tower goes through _tower_step, whose derivative is a join
ONE_STEP = ("derive_tensor", "covariant_tensor_derivative",
            "bracket_on_elements")
# what a per-tuple loop over the slots' bases would use in _tower_step, and
# the contraction of a whole value with each b_0 in turn
DENSE = ("product", "derive_tensor", "eval_table_on_tensor", "contract")


def step_uses(source: str) -> list[tuple[str, str | None, int]]:
    """Each read of a name of ``ONE_STEP`` and each function or method
    named in ``ORACLES`` that ``source`` defines, as (name, the top-level
    function or method it is in or None, line)."""
    uses = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute)
                    else None)
            if name in ONE_STEP and isinstance(child.ctx, ast.Load):
                uses.append((name, owner, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_def and child.name in ORACLES:
                uses.append((child.name, owner, child.lineno))
            visit(child, child.name if is_def and owner is None else owner)
    visit(ast.parse(source), None)
    return uses


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_tower_goes_through_one_step(path):
    assert step_uses(path.read_text()) == []


def step_breaches(source: str) -> list[str]:
    """For each top-level ``_tower_step`` in ``source``, its uses of a name
    of ``DENSE`` as "name (line)", and "no _module_residuals (line)" at
    its definition when it does not call the join."""
    out = []
    for top in ast.parse(source).body:
        if not (isinstance(top, ast.FunctionDef) and top.name == "_tower_step"):
            continue
        joins = False
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if name in DENSE and isinstance(node.ctx, ast.Load):
                out.append(f"{name} (line {node.lineno})")
            joins |= (isinstance(node, ast.Call)
                      and getattr(node.func, "id", None) == "_module_residuals")
        if not joins:
            out.append(f"no _module_residuals (line {top.lineno})")
    return out


def test_the_tower_step_is_insertion_terms_of_the_join():
    assert step_breaches((PACKAGE / "kapranov.py").read_text()) == []


def test_step_guard_sees_the_step_and_a_planted_loop():
    source = (PACKAGE / "kapranov.py").read_text()
    assert step_uses(source) == []
    # every oracle of tests/oracles.py is a definition the guard sees
    assert sorted(name for name, owner, _ in step_uses(ORACLE_FILE.read_text())
                  if owner is None) == sorted(ORACLES - DELETED)
    n = len(source.splitlines())
    planted = source + ("\n\ndef _hat_terms(hat, b, args):\n"
                        "    return covariant_tensor_derivative([hat], b, args)\n"
                        "_derive = derive_tensor\n"
                        "class _Cocycle:\n"
                        "    def bilinear(self, b, v):\n"
                        "        return b\n")
    assert step_uses(planted) == [
        ("covariant_tensor_derivative", "_hat_terms", n + 4),
        ("derive_tensor", None, n + 5),
        ("bilinear", None, n + 7)]
    # the dense step of an earlier design: one derive_tensor per tuple of
    # every slot's basis, evaluated on prev, and a first term that
    # contracts each value with each b_0 in turn
    planted = source + (
        "\n\ndef _tower_step(prev, degree, b_mod, slot_conns, outer):\n"
        "    ranges = (range(c.module.rank) for c in slot_conns)\n"
        "    for args in itertools.product(*ranges):\n"
        "        derived = derive_tensor({args: 1}, [], degree, [])\n"
        "        eval_table_on_tensor(prev, degree, derived, outer.module)\n"
        "    return [contract(b, outer(v)) for b in b_mod for v in prev]\n")
    assert step_uses(planted) == [("derive_tensor", "_tower_step", n + 6)]
    assert step_breaches(planted) == [
        f"product (line {n + 5})", f"derive_tensor (line {n + 6})",
        f"eval_table_on_tensor (line {n + 7})", f"contract (line {n + 8})",
        f"no _module_residuals (line {n + 3})"]


MODULE_TOWER_FILE = pathlib.Path(__file__).resolve().parent / "module_tower.py"
# the paper features that no command runs, moved under tests/: the
# Leibniz-infinity modules and the naturality check of
# tests/module_tower.py, the references now in tests/oracles.py (among
# them the element-level evaluators of a table, which the join replaced),
# the second vector type of the k-basis tables and its converter, which
# the ground module replaced, and the helpers deleted with their last
# caller in the package, among them the checks of a linear-map object
# that the dg checks repeat, the internal hom that the tensor module
# dual(E) (x) F replaced, the element tensor that the one operator
# rule replaced, and the second copies of a check: the offset refusal
# that the homotopy command's offset_matches replaced, the dg refusal
# that reads validate's checks and the normalisation the parser does.
# An entry without a dot is matched at any depth, one
# with a dot as that method.
MOVED = frozenset(
    node.name for node in ast.parse(MODULE_TOWER_FILE.read_text()).body
    if isinstance(node, (ast.FunctionDef, ast.ClassDef))) | {
        "_module_structures", "a_multilinearity_violations",
        "loday_pirashvili_bracket", "ModuleMorphism.is_dg_morphism",
        "MorphismFamily.map", "Element", "_over_ground",
        "tensor_of_elements", "eval_table_on_tensor",
        "eval_table_on_elements", "LinearMapObject.validate",
        "LinearMapObject.rho", "LinearMapObject.act",
        "LinearMapObject.psi_of", "simple_tensor", "hom_module",
        "end_module", "solve_columns", "OffsetMismatch", "require_dg",
        "_as_fraction_dict"}


def moved_definitions(source: str) -> list[str]:
    """The functions and classes of ``source``, at any depth, that carry
    a name of ``MOVED``, as "qualified name (line)"."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                if any(name == m or name.endswith("." + m) for m in MOVED):
                    out.append(f"{name} (line {child.lineno})")
                visit(child, name + ".")
            else:
                visit(child, prefix)
    visit(ast.parse(source), "")
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_defines_no_moved_feature(path):
    assert moved_definitions(path.read_text()) == []


def test_moved_guard_sees_planted_definitions():
    source = (PACKAGE / "kapranov.py").read_text()
    n = len(source.splitlines())
    planted = source + ("\n\nclass ModuleActionFamily:\n"
                        "    pass\n"
                        "\n\ndef _checks():\n"
                        "    def check_naturality(delta, lam):\n"
                        "        return {}\n"
                        "\n\nclass _Family:\n"
                        "    def map(self, k):\n"
                        "        return None\n"
                        "\n\nclass MorphismFamily:\n"
                        "    def map(self, k):\n"
                        "        return None\n")
    assert moved_definitions(planted) == [
        f"ModuleActionFamily (line {n + 3})",
        f"_checks.check_naturality (line {n + 8})",
        f"MorphismFamily.map (line {n + 18})"]
    # every module feature of tests/module_tower.py is one of them
    assert {"kapranov_module", "check_module_identities", "CohomologyAction",
            "coadjoint_module", "check_naturality"} <= MOVED
    # and so are the second vector type and the checks of a linear-map
    # object, but not their namesakes elsewhere
    planted = source + ("\n\nclass Element:\n"
                        "    pass\n"
                        "\n\nclass LinearMapObject:\n"
                        "    def validate(self):\n"
                        "        return []\n"
                        "    def dim_e(self):\n"
                        "        return 0\n"
                        "\n\nclass ModuleElement:\n"
                        "    def act(self):\n"
                        "        return None\n")
    assert moved_definitions(planted) == [
        f"Element (line {n + 3})", f"LinearMapObject.validate (line {n + 8})"]


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


def argumentless_functions(source: str) -> list[str]:
    """The public top-level functions of a module that can be called with
    no argument: a stock instance spelled in code instead of a document."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and len(node.args.posonlyargs + node.args.args)
            == len(node.args.defaults)
            and None not in node.args.kw_defaults]


def class_properties(source: str, class_name: str) -> list[str]:
    """The properties (plain or cached) that class ``class_name`` defines."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                for dec in getattr(item, "decorator_list", ()):
                    name = dec.attr if isinstance(dec, ast.Attribute) else \
                        getattr(dec, "id", "")
                    if name in ("property", "cached_property", "setter"):
                        out.append(item.name)
    return out


def test_builders_spell_no_stock_instance():
    # the shipped documents under instances/ are the stock instances
    assert argumentless_functions((PACKAGE / "builders.py").read_text()) == []


def test_instance_bridges_no_setup_field():
    # commands read inst.setup.<field>, the one set-up record
    assert class_properties((PACKAGE / "cli.py").read_text(), "Instance") == []


def test_setup_guards_see_planted_definitions():
    source = ("def sl2_borel_pair(splitting=None): pass\n"
              "def affine(): pass\n"
              "def _private(): pass\n"
              "def lie_pair_setup(pair, splitting=None): pass\n"
              "def keyword(*, name): pass\n"
              "class Instance:\n"
              "    @property\n"
              "    def delta(self): pass\n"
              "    @functools.cached_property\n"
              "    def bmod(self): pass\n"
              "    def max_arity(self, args): pass\n")
    assert argumentless_functions(source) == ["sl2_borel_pair", "affine"]
    assert class_properties(source, "Instance") == ["delta", "bmod"]
    assert class_properties(source, "Other") == []


# the one join: no k-basis join beside _module_residuals, and no
# definition evaluates a table on elements, the class bracket included
ON_ELEMENTS: set[str] = set()


def join_breaches(source: str) -> list[str]:
    """Each definition of ``_residuals`` in ``source`` and each use of
    ``eval_table_on_elements`` outside the top-level definitions named in
    ``ON_ELEMENTS``, as "name (owner, line)"."""
    out = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == "_residuals"):
                out.append(f"def _residuals ({owner}, line {node.lineno})")
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if (name == "eval_table_on_elements"
                    and isinstance(node.ctx, ast.Load)
                    and owner not in ON_ELEMENTS):
                out.append(f"{name} ({owner}, line {node.lineno})")
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_join_serves_every_identity(path):
    assert join_breaches(path.read_text()) == []


def test_join_guard_sees_planted_definitions():
    source = (PACKAGE / "kapranov.py").read_text()
    n = len(source.splitlines())
    planted = source + (
        "\n\ndef _residuals(slots, insertions, partitions, cache):\n"
        "    return {}\n"
        "\n\ndef homotopy_iso(conn, h, hat):\n"
        "    return eval_table_on_elements(hat, 0, [], [], None)\n"
        "\n\nclass _Join:\n"
        "    def _residuals(self):\n"
        "        return kapranov.eval_table_on_elements\n")
    assert join_breaches(planted) == [
        f"def _residuals (_residuals, line {n + 3})",
        f"eval_table_on_elements (homotopy_iso, line {n + 8})",
        f"def _residuals (_Join, line {n + 12})",
        f"eval_table_on_elements (_Join, line {n + 13})"]
    # a class bracket evaluated on elements, as in an earlier design, is
    # not let through
    planted = source + (
        "\n\nclass CohomologyBracket:\n"
        "    def bracket_table(self, xs, ys):\n"
        "        return eval_table_on_elements(self.r2, 1, xs + ys, [], None)\n")
    assert join_breaches(planted) == [
        f"eval_table_on_elements (CohomologyBracket, line {n + 5})"]
    assert not any(isinstance(node, ast.Name)
                   and node.id == "eval_table_on_elements"
                   for node in ast.walk(ast.parse(source)))


# every linear solve of the package is a question to a CochainComplex:
# no module but cohomology.py runs the elimination
SOLVER = "cohomology.py"
SOLVES = frozenset({"rref", "Span"})


def solver_calls(name: str, source: str) -> list[str]:
    """The calls of ``SOLVES`` in module ``name``, unless it is ``SOLVER``,
    as "<module>: <solver>, line <n>", in source order."""
    if name == SOLVER:
        return []
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            called = (node.func.id if isinstance(node.func, ast.Name)
                      else getattr(node.func, "attr", None))
            if called in SOLVES:
                out.append((node.lineno, node.col_offset,
                            f"{name}: {called}, line {node.lineno}"))
    return [entry for _, _, entry in sorted(out)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_cochain_complex_solves(path):
    assert solver_calls(path.name, path.read_text()) == []


def test_solver_guard_sees_planted_calls():
    solver = (PACKAGE / SOLVER).read_text()
    assert solver_calls(SOLVER, solver) == []
    assert len(solver_calls("derivations.py", solver)) >= 3
    source = (PACKAGE / "derivations.py").read_text()
    n = len(source.splitlines())
    planted = source + (
        "\n\ndef _homotopy_columns(columns, target):\n"
        "    residual, x = cohomology.rref(columns).reduce(target)\n"
        "    return Span().add(0, target), x\n")
    assert solver_calls("derivations.py", planted) == [
        f"derivations.py: rref, line {n + 4}",
        f"derivations.py: Span, line {n + 5}"]


# Every function and method of the package runs when the commands run on
# the documents of the repository, or it is listed here with the ROADMAP
# item that decides its fate or the reason it stays without such a caller.
ITEM_7 = "ROADMAP item 7: a paper feature or k-basis table without a command"
UNREACHED = {
    "algebra.py: AlgebraElement.__hash__": "hashing, consistent with __eq__",
    "algebra.py: AlgebraElement.__repr__": "repr, read in test failures",
    "algebra.py: AlgebraElement.__rmul__": "operator c * a, used by tests",
    "algebra.py: AlgebraElement.__sub__": "operator, used by tests",
    "algebra.py: AlgebraElement.homogeneous_parts":
        "splits a coefficient by degree for the element-level oracles of "
        "tests/oracles.py; the join signs each monomial by its length",
    "algebra.py: CdgaPresentation.__repr__": "repr, read in test failures",
    "cli.py: run": "entry point: exits the process",
    "cohomology.py: CochainComplex.class_coordinates":
        "the class table's coordinates, read only where a bracket cocycle "
        "of two representatives is nonzero; no document of the repository "
        "has one, (sl4, n) of tests/test_lie_pair_reports.py has 140",
    "connections.py: DeltaConnection.__eq__": "equality, used by tests",
    "derivations.py: DerivationMorphism.failures": ITEM_7,
    "derivations.py: DerivationMorphism.is_valid": ITEM_7,
    "derivations.py: DgDerivation.is_zero": "query, used by tests",
    "graded.py: GradedBasis.__repr__": "repr, read in test failures",
    "graded.py: MultilinearMap.check_degrees":
        "names the k-basis keys of a d(e_i) of the wrong degree; no "
        "document has one",
    "graded.py: MultilinearMap.set": ITEM_7,
    "kapranov.py: compose_morphism_families": ITEM_7,
    "kapranov.py: trivialization": ITEM_7,
    "modules.py: DgModule.__eq__": "equality, used by tests",
    "modules.py: DgModule.__repr__": "repr, read in test failures",
    "modules.py: DgModule.kbasis_element": ITEM_7,
    "modules.py: KBasis.to_kvec": ITEM_7,
    "modules.py: KBasis.to_module_element": ITEM_7,
    "modules.py: ModuleElement.__repr__": "repr, read in test failures",
    "modules.py: ModuleElement.__rmul__": "operator c * v, used by tests",
    "modules.py: ModuleElement.homogeneous_parts":
        "splits an element by degree for the element-level oracles of "
        "tests/oracles.py; the class bracket takes homogeneous "
        "representatives",
    "modules.py: ModuleMorphism.__eq__": "equality, used by tests",
    "modules.py: ModuleMorphism.dg_failures": ITEM_7,
    "modules.py: contract":
        "ROADMAP item 7: the contraction of trivialization; the tower "
        "contracts through contraction_slices",
}

# one in-process run of every command on every document, one usage error
# and --help, printing the (file name, first line) of each code object of
# the package that was entered
REACH_RUN = """
import contextlib, io, json, os, sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from kapranov import cli
documents = json.loads(sys.argv[1])
runs = [[command, "--input", path] for path in documents
        for command in cli.COMMANDS]
runs += [["brackets", "--input", documents[0], "--max-arity", "7"], ["--help"]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
package = os.path.dirname(cli.__file__)
print(json.dumps(sorted([os.path.basename(f), line] for f, line in entered
                        if os.path.dirname(f) == package)))
"""


@pytest.fixture(scope="module")
def entered() -> set[tuple[str, int]]:
    root = PACKAGE.parent.parent
    documents = sorted(str(p) for pattern in ("instances/*.json",
                                              "bench/instances/*.json",
                                              "tests/fixtures/*.json")
                       for p in root.glob(pattern))
    assert len(documents) == 11
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c", REACH_RUN, json.dumps(documents)], env=env,
        capture_output=True, text=True, check=True).stdout
    return {tuple(pair) for pair in json.loads(out)}


def unreached(sources: dict[str, str], entered) -> list[str]:
    """The functions and methods, at any depth, of the modules ``sources``
    (file name -> source) whose code was never entered, as
    "<file>: <qualified name>".  A code object starts on the line of its
    first decorator."""
    out = []

    def visit(name, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                if (name, first) not in entered:
                    out.append(f"{name}: {prefix}{child.name}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(name, child, f"{prefix}{child.name}.")
    for name, source in sources.items():
        visit(name, ast.parse(source), "")
    return sorted(out)


def test_every_function_runs_in_a_command_or_is_listed(entered):
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreached(sources, entered) == sorted(UNREACHED)
    assert all(UNREACHED.values())


def test_reach_guard_sees_a_planted_function(entered):
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    sources["kapranov.py"] += (
        "\n\ndef _tower_on_elements(fam, k, args):\n"
        "    return fam.module.zero()\n"
        "\n\nclass _Cocycle:\n"
        "    @functools.cached_property\n"
        "    def bilinear(self):\n"
        "        return None\n")
    assert sorted(set(unreached(sources, entered)) - set(UNREACHED)) == [
        "kapranov.py: _Cocycle.bilinear", "kapranov.py: _tower_on_elements"]
    # once a listed function runs, the list no longer matches
    run = next(node for node in ast.parse(sources["cli.py"]).body
               if getattr(node, "name", None) == "run")
    assert "cli.py: run" in unreached(sources, entered)
    assert "cli.py: run" not in unreached(
        sources, entered | {("cli.py", run.lineno)})
