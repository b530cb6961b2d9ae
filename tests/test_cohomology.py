"""Degree-sliced cohomology over Q with deterministic representatives.

The exact linear algebra keeps entries ``int`` while they are integral;
its oracles are an all-``Fraction`` copy of the original dense ``rref``
and sympy's ranks.
"""

from __future__ import annotations

import functools
import pathlib
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from kapranov.algebra import AlgebraElement, LieAlgebraData, ce_algebra
from kapranov.cli import Instance, load_document
from kapranov.cohomology import CochainComplex, kernel_basis, rref, solve_linear
from kapranov.graded import GradedBasis
from kapranov.kapranov import CohomologyBracket, kapranov_brackets
from kapranov.modules import (DgModule, KBasis, ModuleElement,
                              apply_module_differential)
from oracles import cohomology_basis, eval_table_on_elements

F = Fraction
ROOT = pathlib.Path(__file__).resolve().parent.parent
INSTANCES = sorted((ROOT / "instances").glob("*.json")) \
    + sorted((ROOT / "bench" / "instances").glob("*.json"))


def trivial_module(alg):
    """Rank-1 free module with zero differential on the generator; its
    cochain complex is the algebra itself."""
    return DgModule(alg, GradedBasis(["1"], [0]), {})


class TestLinearAlgebra:
    def test_rref_pivots(self):
        m = [[F(0), F(2), F(4)], [F(1), F(1), F(1)]]
        red, pivots = rref(m)
        assert pivots == [0, 1]
        assert red[0][:2] == [F(1), F(0)]
        assert red[1][:2] == [F(0), F(1)]

    def test_kernel_basis_standard_form(self):
        # x + y + z = 0 has kernel dim 2 with free variables y, z
        m = [[F(1), F(1), F(1)]]
        ker = kernel_basis(m, 3)
        assert ker == [[F(-1), F(1), F(0)], [F(-1), F(0), F(1)]]

    def test_kernel_of_empty_matrix(self):
        ker = kernel_basis([], 2)
        assert ker == [[F(1), F(0)], [F(0), F(1)]]

    def test_solve_consistent(self):
        m = [[F(1), F(2)], [F(0), F(1)]]
        assert solve_linear(m, [F(5), F(2)]) == [F(1), F(2)]

    def test_solve_inconsistent(self):
        m = [[F(1), F(1)], [F(2), F(2)]]
        assert solve_linear(m, [F(1), F(3)]) is None

    def test_solve_underdetermined_free_vars_zero(self):
        m = [[F(1), F(1)]]
        assert solve_linear(m, [F(7)]) == [F(7), F(0)]


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

def reference_rref(m):
    """The original all-Fraction dense rref, kept verbatim as the oracle."""
    m = [row[:] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def as_fractions(m):
    return [[F(x) for x in row] for row in m]


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
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    return [[draw(SCALARS) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=200, deadline=None)
@given(matrices(), st.lists(SCALARS, min_size=5, max_size=5))
def test_exact_linear_algebra_against_fraction_rref_and_sympy(m, b):
    n_cols = len(m[0])
    b = b[:len(m)]
    ref, ref_pivots = reference_rref(as_fractions(m))
    red, pivots = rref(m)
    assert (red, pivots) == (ref, ref_pivots)
    assert len(pivots) == sympy_rank(m)
    assert_exact_entries(red)

    ker = kernel_basis(m, n_cols)
    assert len(ker) == n_cols - len(pivots)
    free = [c for c in range(n_cols) if c not in ref_pivots]
    for fc, v in zip(free, ker):
        want = [F(0)] * n_cols
        want[fc] = F(1)
        for r, pc in enumerate(ref_pivots):
            want[pc] = -ref[r][fc]
        assert v == want
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    assert_exact_entries(ker)

    x = solve_linear(m, b)
    aug, aug_pivots = reference_rref(as_fractions([row + [bb]
                                                   for row, bb in zip(m, b)]))
    if n_cols in aug_pivots:
        assert x is None
        assert sympy_rank([row + [bb] for row, bb in zip(m, b)]) \
            == len(pivots) + 1
    else:
        want = [F(0)] * n_cols
        for r, pc in enumerate(aug_pivots):
            want[pc] = aug[r][n_cols]
        assert x == want
        assert [sum(a * xx for a, xx in zip(row, x)) for row in m] == b
        assert_exact_entries([x])


def test_division_stays_integral_when_the_pivot_divides():
    red, pivots = rref([[2, 4, 6], [3, 5, 7]])
    assert pivots == [0, 1]
    assert red == [[1, 0, -1], [0, 1, 2]]
    assert_exact_entries(red)
    red, _ = rref([[2, 3]])
    assert red == [[1, F(3, 2)]]
    assert_exact_entries(red)


@pytest.mark.parametrize("path", INSTANCES, ids=lambda p: p.stem)
def test_betti_numbers_match_sympy_ranks(path):
    """betti(n) = dim C^n - rank d_n - rank d_(n-1), ranks from sympy."""
    cx = CochainComplex(Instance(load_document(str(path))).setup.bmod)
    for n in cx.degrees():
        rank_n = sympy_rank(cx.diff_matrix(n))
        rank_before = sympy_rank(cx.diff_matrix(n - 1))
        assert cx.betti(n) == cx.dim(n) - rank_n - rank_before


def test_cohomology_command_builds_one_complex(capsys, monkeypatch):
    """The Betti numbers and the class bracket share one complex, so each
    differential row of sl3/borel's 96-element k-basis is built once."""
    from kapranov.cli import main
    built = []
    diff_matrix = CochainComplex.diff_matrix

    def counting(self, n):
        fresh = n not in self._dmat
        rows = diff_matrix(self, n)
        if fresh:
            built.append(len(rows))
        return rows
    monkeypatch.setattr(CochainComplex, "diff_matrix", counting)
    path = ROOT / "bench" / "instances" / "sl3_borel.json"
    assert main(["cohomology", "--input", str(path)]) == 0
    capsys.readouterr()
    assert sum(built) == 96


def test_cohomology_command_computes_each_degree_once(capsys, monkeypatch):
    """The Betti numbers, the representatives and the class bracket read
    one cached pass per degree: one kernel_basis for each of sl3/borel's
    six degrees."""
    from kapranov import cohomology
    from kapranov.cli import main
    calls = []
    kernel_basis = cohomology.kernel_basis

    def counting(m, n_cols):
        calls.append(n_cols)
        return kernel_basis(m, n_cols)
    monkeypatch.setattr(cohomology, "kernel_basis", counting)
    path = ROOT / "bench" / "instances" / "sl3_borel.json"
    assert main(["cohomology", "--input", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 6


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
