"""Degree-sliced cohomology over Q with deterministic representatives.

The sparse elimination keeps entries ``int`` while they are integral;
its oracles are the original all-``Fraction`` dense ``rref`` of
``oracles`` and sympy's ranks.
"""

from __future__ import annotations

import functools
import json
import pathlib
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from kapranov.algebra import AlgebraElement, LieAlgebraData, ce_algebra
from kapranov.cli import Instance, load_document
from kapranov.cohomology import CochainComplex, Span, rref
from kapranov.graded import GradedBasis
from kapranov.kapranov import CohomologyBracket, kapranov_brackets
from kapranov.modules import (DgModule, KBasis, ModuleElement,
                              apply_module_differential)
import lie_pairs
from oracles import (as_fractions, cohomology_basis, eval_table_on_elements,
                     reference_kernel, reference_rref, reference_solve)

F = Fraction
ROOT = pathlib.Path(__file__).resolve().parent.parent
INSTANCES = sorted((ROOT / "instances").glob("*.json")) \
    + sorted((ROOT / "bench" / "instances").glob("*.json"))


def trivial_module(alg):
    """Rank-1 free module with zero differential on the generator; its
    cochain complex is the algebra itself."""
    return DgModule(alg, GradedBasis(["1"], [0]), {})


def column_vectors(m) -> list[dict]:
    """The columns of the dense matrix ``m`` as sparse vectors {row: entry}."""
    return [{i: row[j] for i, row in enumerate(m) if row[j]}
            for j in range(len(m[0]) if m else 0)]


class TestLinearAlgebra:
    def test_rref_pivots(self):
        # the columns (0, 1), (2, 1) and (4, 1) = 2 (2, 1) - (0, 1)
        span = rref(column_vectors([[F(0), F(2), F(4)], [F(1), F(1), F(1)]]))
        assert span.kept == [0, 1]
        assert span.dependencies == [(2, {0: -1, 1: 2})]

    def test_kernel_basis_standard_form(self):
        # x + y + z = 0 has kernel dim 2 with free variables y, z: the
        # kernel vectors (-1, 1, 0) and (-1, 0, 1)
        span = rref(column_vectors([[F(1), F(1), F(1)]]))
        assert span.kept == [0]
        assert span.dependencies == [(1, {0: 1}), (2, {0: 1})]

    def test_kernel_of_empty_matrix(self):
        assert rref([]).kept == rref([]).dependencies == []
        span = rref([{}, {}])
        assert span.kept == []
        assert span.dependencies == [(0, {}), (1, {})]

    def test_solve_consistent(self):
        span = rref(column_vectors([[F(1), F(2)], [F(0), F(1)]]))
        assert span.reduce({0: F(5), 1: F(2)}) == ({}, {0: 1, 1: 2})

    def test_solve_inconsistent(self):
        span = rref(column_vectors([[F(1), F(1)], [F(2), F(2)]]))
        residual, _ = span.reduce({0: F(1), 1: F(3)})
        assert residual

    def test_solve_underdetermined_free_vars_zero(self):
        span = rref(column_vectors([[F(1), F(1)]]))
        assert span.reduce({0: F(7)}) == ({}, {0: 7})

    def test_add_labels_and_returns_the_combination(self):
        span = Span()
        assert span.add("a", {"x": 2}) is None
        assert span.add("b", {"x": 1, "y": 1}) is None
        assert span.add("c", {"x": 2, "y": 1}) == {"a": F(1, 2), "b": 1}
        assert span.kept == ["a", "b"]
        assert span.dependencies == [("c", {"a": F(1, 2), "b": 1})]
        copy = Span(span.rows, span.kept)
        assert copy.add("d", {"z": 1}) is None
        assert (copy.kept, span.kept) == (["a", "b", "d"], ["a", "b"])

    def test_a_vector_meeting_one_pivot_visits_one_row(self):
        class CountingRows(list):
            visits = 0

            def __getitem__(self, p):
                self.visits += 1
                return super().__getitem__(p)

            def __iter__(self):
                for row in super().__iter__():
                    self.visits += 1
                    yield row

        class CountingSpan(Span):
            def __init__(self, rows=(), kept=()):
                super().__init__(rows, kept)
                self.rows = CountingRows(self.rows)

        span = CountingSpan()
        for i in range(20):  # row i is e_i + e_{i+1}, pivot i
            span.add(i, {i: 1, i + 1: 1})
        span.rows.visits = 0
        assert span.reduce({19: 3, "x": 1}) == ({"x": 1, 20: -3}, {19: 3})
        assert span.rows.visits == 1
        # e_17 meets row 17, which brings in row 18's pivot, and so on
        span.rows.visits = 0
        assert span.reduce({17: 1}) == ({20: -1}, {17: 1, 18: -1, 19: 1})
        assert span.rows.visits == 3


class TestBettiNumbers:
    def test_sl2_whitehead(self, sl2):
        # H(sl2, Q) = Q in degrees 0 and 3, zero in degrees 1 and 2
        cx = CochainComplex(trivial_module(ce_algebra(sl2)))
        assert [cx.betti(n) for n in range(4)] == [1, 0, 0, 1]

    def test_affine_pair(self, affine):
        cx = CochainComplex(trivial_module(ce_algebra(affine)))
        assert [cx.betti(n) for n in range(3)] == [1, 1, 0]

    def test_abelian_is_exterior(self):
        ab = LieAlgebraData(["x", "y"], {})
        cx = CochainComplex(trivial_module(ce_algebra(ab)))
        assert [cx.betti(n) for n in range(3)] == [1, 2, 1]

    def test_heisenberg(self, heisenberg):
        # H^1 = span(x^, y^): z^ is not closed
        cx = CochainComplex(trivial_module(ce_algebra(heisenberg)))
        assert cx.betti(0) == 1
        assert cx.betti(1) == 2

    def test_euler_characteristic_vanishes(self, sl2, heisenberg):
        for lie in (sl2, heisenberg):
            cx = CochainComplex(trivial_module(ce_algebra(lie)))
            chi = sum((-1) ** n * cx.betti(n) for n in cx.degrees())
            assert chi == 0


class TestRepresentatives:
    def test_representatives_are_cocycles(self, affine, heisenberg):
        for lie in (affine, heisenberg):
            cx = CochainComplex(trivial_module(ce_algebra(lie)))
            for n in cx.degrees():
                for rep in cohomology_basis(cx, n):
                    assert cx.is_cocycle(rep)
                    assert rep.degree() == n

    def test_representatives_deterministic(self, heisenberg):
        cx1 = CochainComplex(trivial_module(ce_algebra(heisenberg)))
        cx2 = CochainComplex(trivial_module(ce_algebra(heisenberg)))
        for n in cx1.degrees():
            got1 = [r.coeffs for r in cohomology_basis(cx1, n)]
            got2 = [r.coeffs for r in cohomology_basis(cx2, n)]
            assert got1 == got2

    def test_is_coboundary_roundtrip(self, sl2):
        module = trivial_module(ce_algebra(sl2))
        cx = CochainComplex(module)
        v = ModuleElement(module, {0: AlgebraElement.monomial((1,), F(3))})
        z = apply_module_differential(module, v)
        u = cx.is_coboundary(z)
        assert u is not None
        assert apply_module_differential(module, u) == z

    def test_is_coboundary_rejects_nonclosed(self, heisenberg):
        module = trivial_module(ce_algebra(heisenberg))
        cx = CochainComplex(module)
        z = ModuleElement(module, {0: AlgebraElement.monomial((2,))})  # z^, dz != 0
        with pytest.raises(ValueError):
            cx.is_coboundary(z)

    def test_nontrivial_class_is_not_coboundary(self, heisenberg):
        module = trivial_module(ce_algebra(heisenberg))
        cx = CochainComplex(module)
        z = ModuleElement(module, {0: AlgebraElement.monomial((0,))})  # x^
        assert cx.is_coboundary(z) is None

    def test_classes_equal(self, heisenberg):
        module = trivial_module(ce_algebra(heisenberg))
        cx = CochainComplex(module)
        x = ModuleElement(module, {0: AlgebraElement.monomial((0,))})
        y = ModuleElement(module, {0: AlgebraElement.monomial((1,))})
        assert cx.is_coboundary(x - y) is None
        # x^ and x^ + d(something) agree
        v = ModuleElement(module, {0: AlgebraElement.monomial((2,), F(5))})
        shifted = x + apply_module_differential(module, v)
        assert cx.is_coboundary(x - shifted) is not None

    def test_class_coordinates(self, heisenberg):
        module = trivial_module(ce_algebra(heisenberg))
        cx = CochainComplex(module)
        reps = cohomology_basis(cx, 1)
        assert len(reps) == 2
        combo = reps[0].scale(2) - reps[1].scale(3)
        assert cx.class_coordinates(combo) == [F(2), F(-3)]
        assert cx.class_coordinates(module.zero()) == []


# ---------------------------------------------------------------------------
# oracles for the exact linear algebra

def sympy_rank(m) -> int:
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in m]).rank() if m else 0


def assert_exact_entries(vectors):
    """Every entry is an int, or a Fraction that is not integral."""
    for v in vectors:
        for x in v:
            assert type(x) is int or (type(x) is Fraction and x.denominator > 1), \
                (x, type(x))


SCALARS = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 6, F(1, 2), F(-2, 3),
                           F(5, 4)])


@st.composite
def matrices(draw):
    """A dense matrix whose columns are drawn, zero, or a multiple of an
    earlier column; it may have no column at all."""
    rows = draw(st.integers(1, 5))
    cols: list[list] = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["drawn", "drawn", "zero", "repeated"]))
        if kind == "zero" or kind == "repeated" and not cols:
            cols.append([0] * rows)
        elif kind == "repeated":
            c = draw(st.sampled_from([1, -1, 2, F(1, 2)]))
            cols.append([c * x for x in draw(st.sampled_from(cols))])
        else:
            cols.append([draw(SCALARS) for _ in range(rows)])
    return [[col[i] for col in cols] for i in range(rows)]


def dense(coords: dict, n: int) -> list:
    return [coords.get(i, 0) for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(matrices(), st.lists(SCALARS, min_size=5, max_size=5))
def test_exact_linear_algebra_against_fraction_rref_and_sympy(m, b):
    """The kept labels are the pivot columns of the dense rref, the
    dependencies its kernel in standard form, and reducing b gives the
    solution with the free variables zero, or a residual exactly when
    sympy's ranks say m x = b has no solution."""
    n_cols = len(m[0])
    b = b[:len(m)]
    span = rref(column_vectors(m))
    _, ref_pivots = reference_rref(as_fractions(m))
    assert span.kept == ref_pivots
    assert len(span.kept) == sympy_rank(m)
    free = [c for c in range(n_cols) if c not in ref_pivots]
    assert [label for label, _ in span.dependencies] == free
    kernel = []
    for fc, combination in span.dependencies:
        v = dense({p: -c for p, c in combination.items()}, n_cols)
        v[fc] = 1
        kernel.append(v)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    assert kernel == reference_kernel(m, n_cols)
    assert_exact_entries(kernel)
    assert_exact_entries([row.values() for _, row, _ in span.rows])

    residual, x = span.reduce({i: c for i, c in enumerate(b) if c})
    want = reference_solve(m, b)
    augmented = [row + [bb] for row, bb in zip(m, b)]
    assert (want is None) == bool(residual) \
        == (sympy_rank(augmented) == len(span.kept) + 1)
    if want is not None:
        assert set(x) <= set(span.kept)
        assert dense(x, n_cols) == want
        assert [sum(a * xx for a, xx in zip(row, dense(x, n_cols)))
                for row in m] == b
        assert_exact_entries([x.values()])


def test_division_stays_integral_when_the_pivot_divides():
    # 2 (2, 3) - (3, 5) = (1, 1); the rows are never normalized
    span = rref(column_vectors([[2, 3, 1], [3, 5, 1]]))
    assert (span.kept, span.dependencies) == ([0, 1], [(2, {0: 2, 1: -1})])
    assert_exact_entries([row.values() for _, row, _ in span.rows])
    span = rref([{0: 2}, {0: 3}])
    assert span.dependencies == [(1, {0: F(3, 2)})]
    assert_exact_entries([c.values() for _, c in span.dependencies])


def dense_differential(cx: CochainComplex, n: int) -> list[list]:
    """d on the degree-n slice as dense rows on the degree-(n+1) slice."""
    index = {key: i for i, key in enumerate(cx.kb.slice(n + 1))}
    rows = []
    for key in cx.kb.slice(n):
        row = [0] * len(index)
        for k, c in cx.module.differential_terms(*key).items():
            row[index[k]] = c
        rows.append(row)
    return rows


@pytest.mark.parametrize("path", INSTANCES, ids=lambda p: p.stem)
def test_betti_numbers_match_sympy_ranks(path):
    """betti(n) = dim C^n - rank d_n - rank d_(n-1), ranks from sympy."""
    cx = CochainComplex(Instance(load_document(str(path))).setup.bmod)
    for n in cx.degrees():
        rank_n = sympy_rank(dense_differential(cx, n))
        rank_before = sympy_rank(dense_differential(cx, n - 1))
        assert cx.betti(n) == len(cx.kb.slice(n)) - rank_n - rank_before


def echelon_sizes(monkeypatch) -> list[int]:
    """The number of vectors of each ``rref`` that ``cohomology`` runs on
    sl3/borel."""
    from kapranov import cohomology
    from kapranov.cli import main
    calls = []

    def counting(m):
        calls.append(len(m))
        return rref(m)
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "rref", counting)
        path = ROOT / "bench" / "instances" / "sl3_borel.json"
        assert main(["cohomology", "--input", str(path)]) == 0
    return calls


def test_cohomology_command_builds_one_complex(capsys, monkeypatch):
    """The Betti numbers and the class bracket share one complex, so the
    differential of each vector of sl3/borel's 96-element k-basis is
    eliminated once."""
    assert sum(echelon_sizes(monkeypatch)) == 96
    capsys.readouterr()


def test_cohomology_command_computes_each_degree_once(capsys, monkeypatch):
    """The Betti numbers, the representatives and the class bracket read
    one echelon form per degree: one for each of sl3/borel's six degrees,
    0 to 5, and one for the empty slice of degree -1 below them, whose
    rank the Betti number of degree 0 reads."""
    assert echelon_sizes(monkeypatch) == [0, 3, 15, 30, 30, 15, 3]
    capsys.readouterr()


def test_atiyah_on_sl4_borel_stays_small(capsys, tmp_path):
    """The Atiyah class of sl4/borel is decided by eliminating the 216
    sparse images of degree 0 of Omega (x) End(B) in its 1,944-key degree
    1, in well under 4 MB; dense rows and their transposes peaked at
    14 MB."""
    from kapranov.cli import main
    path = tmp_path / "sl4_borel.json"
    path.write_text(json.dumps(lie_pairs.sl_borel(4)))
    tracemalloc.start()
    try:
        assert main(["atiyah", "--input", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 4 * 2 ** 20


def test_class_leibniz_check_reuses_the_inner_brackets(capsys, monkeypatch):
    """The Leibniz check on classes reads the brackets of pairs of
    representatives that the table computed: on abelian_trivial, with
    r = 2 representatives, r^2 = 4 joins for the table and 3 r^3 = 24 for
    the triples, 28 in all (52 when each triple recomputed its three
    inner brackets)."""
    from kapranov.cli import main
    calls = []
    bracket_cocycle = CohomologyBracket.bracket_cocycle

    def counting(self, x, y):
        calls.append((x, y))
        return bracket_cocycle(self, x, y)
    monkeypatch.setattr(CohomologyBracket, "bracket_cocycle", counting)
    path = ROOT / "instances" / "abelian_trivial.json"
    assert main(["cohomology", "--input", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 28


def test_nonzero_class_bracket_worked_by_hand():
    """A bracket that is nonzero on cohomology, over the algebra with no
    generators: e0, e1 in degree -1, f in degree -2, d f = e1 and
    R_2(e0, e0) = e0 + e1.

    The cocycles of degree -1 are e0 and e1, the coboundaries span e1 and
    degree -2 has no cocycle, so H = H^-1 is spanned by [e0] and the
    representatives are [(-1, e0)].  On cochains [x, y] = (-1)^{|x|}
    R_2(x, y), so [e0, e0] = -(e0 + e1) and [e0, e1] = [e1, e0] = 0.
    Hence [[e0], [e0]] = -[e0] and the table is {(0, 0): [-1]}, which is
    not skew.  At (e0, e0, e0) the Leibniz terms are
    z1 = [e0, [e0, e0]] = e0 + e1, z2 = [[e0, e0], e0] = e0 + e1 and
    z3 = [e0, [e0, e0]] = e0 + e1 with sign (-1)^{0.0} = 1, so the
    residual z1 - z2 - z3 = -(e0 + e1) is not a coboundary and
    leibniz_failures() is [(0, 0, 0)].
    """
    from kapranov.algebra import CdgaPresentation
    from kapranov.kapranov import BracketFamily, CohomologyBracket
    one = AlgebraElement.monomial(())
    module = DgModule(CdgaPresentation([]),
                      GradedBasis(["e0", "e1", "f"], [-1, -1, -2]),
                      {(2, 1): one})
    e0, e1 = (ModuleElement.basis_vector(module, i) for i in (0, 1))
    fam = BracketFamily(module, {2: {(0, 0): e0 + e1}})
    cb = CohomologyBracket(fam)
    assert cb.reps == [(-1, e0)]
    assert cb.table == {(0, 0): [-1]}
    assert not cb.is_skew()
    assert cb.leibniz_failures() == [(0, 0, 0)]


# documents whose R_2 is nonzero on a B over odd generators; the graded
# toy's B has basis vectors of both parities
CLASS_BRACKET_DOCUMENTS = [ROOT / "instances" / "sl2_borel.json",
                           ROOT / "instances" / "adjoint_linear_map.json",
                           ROOT / "tests" / "fixtures" / "graded_toy.json"]


@functools.cache
def class_bracket(path) -> tuple[CohomologyBracket, KBasis]:
    fam = kapranov_brackets(
        Instance(load_document(str(path))).setup.connection, 2)
    return CohomologyBracket(fam), KBasis(fam.module)


@st.composite
def homogeneous_elements(draw, kb: KBasis):
    """A sum of up to three scaled k-basis vectors of one degree."""
    keys = kb.slice(draw(st.sampled_from(sorted(set(kb.degrees)))))
    v = kb.module.zero()
    for key in draw(st.lists(st.sampled_from(keys), unique=True,
                             max_size=3)):
        c = draw(st.sampled_from([1, -1, 2, F(1, 2)]))
        v = v + kb.module.kbasis_element(key).scale(c)
    return v


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_class_bracket_joins_like_the_evaluation_on_elements(data):
    """(-1)^{|x|} R_2(x, y) through the join equals R_2 evaluated on the
    expanded tensor x (x) y, on elements whose coefficients pass the
    bracket and the basis vector before them."""
    path = data.draw(st.sampled_from(CLASS_BRACKET_DOCUMENTS),
                     label="document")
    cb, kb = class_bracket(path)
    table = cb.fam.module_tables[2]
    assert table
    x = data.draw(homogeneous_elements(kb), label="x")
    y = data.draw(homogeneous_elements(kb), label="y")
    want = eval_table_on_elements(table, 1, [x, y], [kb.module] * 2,
                                  kb.module)
    if x.degree() is not None and x.degree() % 2:
        want = want.scale(-1)
    assert cb.bracket_cocycle(x, y) == want
