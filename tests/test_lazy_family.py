"""The bracket family builds its k-basis tables only when they are read.

``kapranov_brackets`` tabulates R_k (k >= 2) on module-basis tuples only;
``BracketFamily.brackets`` extends them to the k-basis on first read.  The
eager extension is the oracle: every instance document of the repository
must give the same k-basis tables in the same key order, the same nonzero
arities and the same degree verdict, also on corrupted tables.  The
``brackets`` and ``cohomology`` commands must not extend at all, and
neither may a passing ``check-leibniz``, ``morphism`` or ``homotopy``,
which decide on module-basis tuples, except over a one-generator algebra.
The k-basis differential is checked against ``apply_module_differential``
on every k-basis vector.
"""

from __future__ import annotations

import functools
import json
import pathlib

import pytest

from kapranov import kapranov
from kapranov.algebra import AlgebraElement, CdgaPresentation
from kapranov.cli import Instance, load_document, main
from kapranov.graded import GradedBasis
from kapranov.kapranov import (BracketFamily, differential_table,
                               extend_module_table, kapranov_brackets)
from kapranov.modules import DgModule, KBasis, apply_module_differential

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = sorted((ROOT / "instances").glob("*.json")) \
    + sorted((ROOT / "bench" / "instances").glob("*.json")) \
    + sorted((ROOT / "tests" / "fixtures").glob("*.json"))
MAX_ARITY = 4


@functools.lru_cache(maxsize=None)
def family(path: pathlib.Path) -> BracketFamily:
    inst = Instance(load_document(str(path)))
    return kapranov_brackets(inst.setup.connection, MAX_ARITY)


def assert_same_table(got, want):
    assert list(got.table) == list(want.table)
    for key, val in want.table.items():
        assert list(got.table[key].coeffs.items()) == list(val.coeffs.items())
    assert (got.arity, got.degree) == (want.arity, want.degree)
    assert got.input_bases == want.input_bases
    assert got.output_basis == want.output_basis


def test_documents_are_all_covered():
    assert len(DOCUMENTS) == 11


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_brackets_equal_the_eager_extension(path):
    fam = family(path)
    assert sorted(fam.brackets) == list(range(1, MAX_ARITY + 1))
    assert_same_table(fam.brackets[1], differential_table(fam.kb))
    for k, table in fam.module_tables.items():
        assert_same_table(fam.brackets[k],
                          extend_module_table(fam.kb, table, k, 1))


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_nonzero_arities_read_the_module_tables(path):
    fam = family(path)
    assert fam.nonzero_arities() == sorted(
        k for k, m in fam.brackets.items() if not m.is_zero())


def test_nonzero_arities_cover_zero_and_nonzero_tables():
    seen = {tuple(family(path).nonzero_arities()) for path in DOCUMENTS}
    assert () in seen and (1,) in seen and (1, 2, 3, 4) in seen


def kbasis_failing_arities(fam: BracketFamily) -> set[int]:
    return {k for k, m in fam.brackets.items() if m.check_degrees()}


def failing_arities(fam: BracketFamily) -> set[int]:
    return {int(msg.split(":")[0].removeprefix("arity "))
            for msg in fam.degree_failures()}


def corrupted(fam: BracketFamily, k: int, kind: str) -> BracketFamily:
    """``fam`` with one value of R_k replaced: by an element of the wrong
    degree, or by the sum of a right one and a wrong one."""
    table = fam.module_tables[k]
    key, right = next(iter(table.items()), ((0,) * k, None))
    want = 1 + sum(fam.module.basis.degrees[i] for i in key)
    by_degree = {d: fam.module.kbasis_element(fam.kb.slice(d)[0])
                 for d in sorted(set(fam.kb.degrees))}
    wrong = [v for d, v in by_degree.items() if d != want]
    if right is None:
        right = by_degree.get(want, wrong[-1])
    value = wrong[0] if kind == "wrong_degree" else wrong[0] + right
    tables = {**fam.module_tables, k: {**table, key: value}}
    return BracketFamily(fam.module, tables, fam.connection)


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_degree_verdict_equals_the_kbasis_verdict(path):
    fam = family(path)
    assert failing_arities(fam) == kbasis_failing_arities(fam)
    for k in (2, MAX_ARITY):
        for kind in ("wrong_degree", "inhomogeneous"):
            bad = corrupted(fam, k, kind)
            want = kbasis_failing_arities(bad)
            assert k in want, kind
            assert failing_arities(bad) == want, kind


def test_a_bad_differential_names_its_kbasis_keys():
    # d(e_1) = u.e_0 has degree 1 + |e_0| = 1, not 1 + |e_1| = 2
    alg = CdgaPresentation(["u", "v"])
    module = DgModule(alg, GradedBasis(["e0", "e1"], [0, 1]),
                      {(1, 0): AlgebraElement.generator(0)})
    kb = KBasis(module)
    want = differential_table(kb).check_degrees()
    assert len(want) == 2
    assert BracketFamily(module, {}).degree_failures() == [
        f"arity 1: {msg}" for msg in want]


def test_degree_failure_names_the_module_basis_tuple():
    fam = family(ROOT / "instances" / "sl2_borel.json")
    bad = corrupted(fam, 2, "wrong_degree")
    key = next(iter(fam.module_tables[2]))
    assert [msg for msg in bad.degree_failures()
            if msg.startswith("arity 2:")] == [
        f"arity 2: value at {key} has a term of degree 0, expected 1"]


def refuse_extension(*args, **kwargs):
    raise AssertionError("extend_module_table called")


def refuse_differential(*args, **kwargs):
    raise AssertionError("differential_table called")


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_kbasis_differential_applies_d_to_each_vector(path):
    s = Instance(load_document(str(path))).setup
    for module in (s.bmod, s.omega, s.connection.tensor):
        kb = KBasis(module)
        for key in kb.keys:
            want = kb.to_kvec(apply_module_differential(
                module, module.kbasis_element(key)))
            assert kb.kvec(kb.differential(key)) == want, key


def test_family_extends_on_first_read_only(monkeypatch):
    path = ROOT / "bench" / "instances" / "sl2_borel_shifted.json"
    conn = Instance(load_document(str(path))).setup.connection
    monkeypatch.setattr(kapranov, "extend_module_table", refuse_extension)
    fam = kapranov_brackets(conn, MAX_ARITY)
    assert fam.nonzero_arities() == [1, 2, 3, 4]
    assert fam.degree_failures() == []
    with pytest.raises(AssertionError, match="extend_module_table"):
        fam.brackets
    monkeypatch.undo()
    assert fam.brackets is fam.brackets


GOLDEN = ROOT / "bench" / "golden"
SL3 = ROOT / "bench" / "instances" / "sl3_borel.json"
SL2_SHIFTED = ROOT / "bench" / "instances" / "sl2_borel_shifted.json"
# (golden directory, report slug, command line) of the benchmark's invocations
REPORT_ONLY = [
    ("tower-sl3", "brackets-sl3_borel",
     ["brackets", "--input", str(SL3), "--max-arity", "3"]),
    ("tower-sl3", "cohomology-sl3_borel",
     ["cohomology", "--input", str(SL3)]),
    ("tower-sl3", "check-leibniz-sl3_borel",
     ["check-leibniz", "--input", str(SL3), "--max-arity", "2"]),
    ("leibniz-sl2", "brackets-sl2_borel_shifted",
     ["brackets", "--input", str(SL2_SHIFTED), "--max-arity", "6"]),
    ("leibniz-sl2", "check-leibniz-sl2_borel_shifted",
     ["check-leibniz", "--input", str(SL2_SHIFTED), "--max-arity", "6"]),
    ("leibniz-sl2", "morphism-sl2_borel_shifted",
     ["morphism", "--input", str(SL2_SHIFTED)]),
    ("leibniz-sl2", "homotopy-sl2_borel_shifted",
     ["homotopy", "--input", str(SL2_SHIFTED)]),
] + [
    ("shipped", f"{command}-{path.stem}", [command, "--input", str(path)])
    for path in sorted((ROOT / "instances").glob("*.json"))
    for command in ("brackets", "cohomology", "check-leibniz", "morphism",
                    "homotopy")
    if (GOLDEN / "shipped" / f"{command}-{path.stem}.json").exists()]


def run_report(capsys, argv) -> tuple[int, bytes]:
    code = main([*argv, "--threads", "1"])
    return code, capsys.readouterr().out.encode()


def one_generator(argv) -> bool:
    inst = Instance(load_document(argv[argv.index("--input") + 1]))
    return inst.setup.algebra.n_generators < kapranov.DECIDE_MIN_GENERATORS


@pytest.mark.parametrize("directory, slug, argv", REPORT_ONLY,
                         ids=[slug for _, slug, _ in REPORT_ONLY])
def test_report_only_commands_never_extend(capsys, monkeypatch, directory,
                                           slug, argv):
    """A passing check over a one-generator algebra is exhaustive."""
    exhaustive = one_generator(argv) and slug.startswith(
        ("check-leibniz", "morphism", "homotopy"))
    calls = []
    monkeypatch.setattr(kapranov, "extend_module_table",
                        lambda *args, **kwargs: calls.append(args)
                        or extend_module_table(*args, **kwargs))
    if not exhaustive:
        monkeypatch.setattr(kapranov, "differential_table",
                            refuse_differential)
    codes = json.loads((GOLDEN / directory / "exit_codes.json").read_text())
    golden = (GOLDEN / directory / f"{slug}.json").read_bytes()
    assert run_report(capsys, argv) == (codes[slug], golden)
    assert codes[slug] == 0
    assert bool(calls) == exhaustive


def test_cohomology_of_sl2_shifted_never_extends(capsys, monkeypatch):
    argv = ["cohomology", "--input", str(SL2_SHIFTED)]
    want = run_report(capsys, argv)
    monkeypatch.setattr(kapranov, "extend_module_table", refuse_extension)
    assert run_report(capsys, argv) == want
    assert want[0] == 0
