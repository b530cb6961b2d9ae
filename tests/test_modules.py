"""dg modules: differentials, duals, tensors, homs, contraction.

Hom(M, N) is the tensor module dual(M) (x) N, read as maps through the
signed identification of ``oracles.hom_element_to_morphism``.
"""

from __future__ import annotations

import pathlib
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kapranov.algebra import AlgebraElement, ce_algebra
from kapranov.cli import Instance, load_document
from kapranov.graded import GradedBasis
from kapranov.modules import (DgModule, ModuleElement, ModuleMorphism,
                              apply_module_differential, contract, dual_module,
                              tensor_module, validate_dg_module)
from oracles import (contract_termwise, hom_element_to_morphism, pair,
                     simple_tensor)

GRADED_TOY = pathlib.Path(__file__).resolve().parent / "fixtures" / "graded_toy.json"
# Omega = <m, n> in degree 0 with d(m) = (1 + a).n: a coefficient of d
# with monomials of both parities (the dg checks refuse it, as not
# homogeneous, but the tensor differential is defined on it)
INHOMOGENEOUS = {"field": "rational", "raw": {
    "generators": ["a", "b"],
    "omega": {"basis": ["m", "n"], "degrees": [0, 0],
              "differential": {"0,1": {"": "1", "0": "1"}}}}}


@pytest.fixture
def borel_alg(borel):
    return ce_algebra(borel)


@pytest.fixture
def bott(borel_alg):
    """Bott module of the sl2/Borel pair: one generator fb in degree 0,
    d(fb) = -2 h^.fb  (h acts by -2 on fb)."""
    basis = GradedBasis(["fb"], [0])
    return DgModule(borel_alg, basis,
                    {(0, 0): AlgebraElement.monomial((0,), -2)})


@pytest.fixture
def mixed(borel_alg):
    """Two-generator module with basis degrees (0, 1) and d(u) = v."""
    basis = GradedBasis(["u", "v"], [0, 1])
    return DgModule(borel_alg, basis,
                    {(0, 1): AlgebraElement.scalar(1)})


@pytest.fixture
def hom_pairs(bott, mixed):
    """(M, N) for Hom(M, N): the mixed and Bott modules both ways, End of
    the mixed module, and End(B) of the graded toy, whose B has basis
    vectors of both parities and odd differential entries."""
    toy_b = Instance(load_document(str(GRADED_TOY))).setup.bmod
    return [(mixed, bott), (bott, mixed), (mixed, mixed), (toy_b, toy_b)]


def tensor_leibniz_failures(m, n, vkeys, wkeys):
    """The pairs (v, w) of k-basis keys of M and N, from ``vkeys`` and
    ``wkeys``, on which the differential of M (x) N breaks
    d(v (x) w) = dv (x) w + (-1)^{|v|} v (x) dw."""
    t = tensor_module(m, n)
    failures = []
    for vkey in vkeys:
        v = m.kbasis_element(vkey)
        sign = -1 if m.kdegree(vkey) % 2 else 1
        for wkey in wkeys:
            w = n.kbasis_element(wkey)
            lhs = apply_module_differential(t, simple_tensor(t, v, w))
            rhs = (simple_tensor(t, apply_module_differential(m, v), w)
                   + simple_tensor(t, v, apply_module_differential(n, w)
                                   ).scale(sign))
            if lhs != rhs:
                failures.append((vkey, wkey))
    return failures


def random_module_element(module, ints):
    coeffs = {}
    it = iter(ints)
    for i in range(module.rank):
        terms = {}
        for mon in module.algebra.monomials():
            c = next(it, 0)
            if c:
                terms[mon] = Fraction(c)
        if terms:
            coeffs[i] = AlgebraElement(terms)
    return ModuleElement(module, coeffs)


small_ints = st.lists(st.integers(-3, 3), min_size=8, max_size=8)


class TestDifferential:
    def test_bott_d_squared(self, bott):
        assert validate_dg_module(bott) == []

    def test_leibniz_rule(self, bott):
        # d(a.e) = d(a).e + (-1)^{|a|} a.d(e) on monomial coefficients
        for mon in bott.algebra.monomials():
            a = AlgebraElement.monomial(mon)
            v = ModuleElement(bott, {0: a})
            lhs = apply_module_differential(bott, v)
            da = bott.algebra.apply_differential(a)
            sign = -1 if len(mon) % 2 else 1
            rhs = (ModuleElement(bott, {0: da})
                   + bott.diff_of_basis(0).left_mul(a).scale(sign))
            assert lhs == rhs

    def test_validator_catches_wrong_degree(self, borel_alg):
        basis = GradedBasis(["u"], [0])
        bad = DgModule(borel_alg, basis, {(0, 0): AlgebraElement.scalar(1)})
        assert any("degree" in f for f in validate_dg_module(bad))

    def test_validator_catches_d_squared(self, borel_alg):
        # d(u) = h^.u with d(h^) = 0 but h^ ^ h^ = 0, so tweak: d(u) = e^.u
        # gives d^2(u) = d(e^).u - e^^(e^.u) = -2 h^e^.u != 0
        basis = GradedBasis(["u"], [0])
        bad = DgModule(borel_alg, basis, {(0, 0): AlgebraElement.monomial((1,))})
        assert any("d^2" in f for f in validate_dg_module(bad))

    def test_kbasis_degrees(self, mixed):
        for key in mixed.kbasis():
            v = mixed.kbasis_element(key)
            assert v.degree() == mixed.kdegree(key)

    def test_kbasis_degree_filter(self, mixed):
        all_keys = mixed.kbasis()
        for d in range(-1, 4):
            assert [k for k in all_keys if mixed.kdegree(k) == d] == mixed.kbasis(d)


class TestDual:
    def test_bott_dual_differential(self, bott):
        # the dual of the Bott action by -2 acts by +2
        omega = dual_module(bott)
        assert omega.diff_matrix == {(0, 0): AlgebraElement.monomial((0,), 2)}
        assert validate_dg_module(omega) == []

    def test_double_dual_restores_matrix(self, bott, mixed):
        for module in (bott,):
            dd = dual_module(dual_module(module))
            assert dd.diff_matrix == module.diff_matrix

    def test_pairing_is_chain_map(self, bott, mixed):
        for module in (bott, mixed):
            dual = dual_module(module)
            alg = module.algebra
            for bkey in dual.kbasis():
                beta = dual.kbasis_element(bkey)
                db = dual.kdegree(bkey)
                for vkey in module.kbasis():
                    v = module.kbasis_element(vkey)
                    lhs = alg.apply_differential(pair(beta, v))
                    sign = -1 if db % 2 else 1
                    rhs = (pair(apply_module_differential(dual, beta), v)
                           + pair(beta, apply_module_differential(module, v)).scale(sign))
                    assert lhs == rhs, (bkey, vkey)

    def test_pairing_normalization(self, mixed):
        dual = dual_module(mixed)
        for i in range(mixed.rank):
            for j in range(mixed.rank):
                got = pair(ModuleElement.basis_vector(dual, i),
                           ModuleElement.basis_vector(mixed, j))
                want = AlgebraElement.scalar(1 if i == j else 0)
                assert got == want


class TestTensorAndHom:
    def test_tensor_validates(self, bott, mixed):
        t = tensor_module(mixed, bott)
        assert validate_dg_module(t) == []
        t2 = tensor_module(bott, mixed)
        assert validate_dg_module(t2) == []

    def test_tensor_leibniz(self, bott, mixed):
        assert tensor_leibniz_failures(mixed, bott, mixed.kbasis(),
                                       bott.kbasis()) == []

    def test_tensor_leibniz_on_an_inhomogeneous_coefficient(self):
        # d(e_i (x) f_j) on the module basis: each monomial of a
        # coefficient of d(f_j) passes e_i with its own sign.  (On other
        # k-basis pairs the rule needs homogeneous coefficients.)
        setup = Instance(INHOMOGENEOUS).setup
        omega, bmod = setup.omega, setup.bmod
        assert omega.diff_matrix[(0, 1)].terms == {(): 1, (0,): 1}
        basis = [((), 0), ((), 1)]
        assert tensor_leibniz_failures(omega, bmod, basis, basis) == []
        assert tensor_leibniz_failures(bmod, omega, basis, basis) == []

    def test_hom_validates(self, hom_pairs):
        for m, n in hom_pairs:
            assert validate_dg_module(tensor_module(dual_module(m), n)) == []

    def test_hom_differential_is_graded_commutator(self, hom_pairs):
        for m, n in hom_pairs:
            h = tensor_module(dual_module(m), n)
            for k in range(h.rank):
                x = ModuleElement.basis_vector(h, k)
                r = h.basis.degrees[k]
                f = hom_element_to_morphism(h, x, r)
                dx = apply_module_differential(h, x)
                # commutator morphism: d o f - (-1)^r f o d, on basis vectors
                sgn = -1 if r % 2 else 1
                for i in range(m.rank):
                    lhs = hom_element_to_morphism(h, dx, r + 1)(
                        ModuleElement.basis_vector(m, i))
                    rhs = (apply_module_differential(n, f.of_basis(i))
                           - f(m.diff_of_basis(i)).scale(sgn))
                    assert lhs == rhs, (m, n, k, i)

    def test_identity_is_dg(self, mixed):
        assert ModuleMorphism.identity(mixed).dg_failures() == []


class TestContraction:
    def test_basis_contraction(self, bott, mixed):
        omega = dual_module(bott)
        b_mod = dual_module(omega)   # plays the role of B = dual(Omega)
        t = tensor_module(omega, mixed)
        b = ModuleElement.basis_vector(b_mod, 0)
        w = simple_tensor(t, ModuleElement.basis_vector(omega, 0),
                          ModuleElement.basis_vector(mixed, 1))
        got = contract(b, w)
        assert got == ModuleElement.basis_vector(mixed, 1)

    def test_koszul_linearity(self, bott, mixed):
        omega = dual_module(bott)
        b_mod = dual_module(omega)
        t = tensor_module(omega, mixed)
        h = AlgebraElement.monomial((0,))
        for bkey in b_mod.kbasis():
            b = b_mod.kbasis_element(bkey)
            db = b_mod.kdegree(bkey)
            for wkey in t.kbasis():
                w = t.kbasis_element(wkey)
                lhs = contract(b, w.left_mul(h))
                sign = -1 if db % 2 else 1
                rhs = contract(b, w).left_mul(h).scale(sign)
                assert lhs == rhs

    @given(st.lists(st.integers(-3, 3), min_size=8, max_size=8),
           st.lists(st.integers(-3, 3), min_size=16, max_size=16))
    @settings(max_examples=60, deadline=None,  # mixed is never mutated
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_contraction_equals_the_termwise_oracle(self, mixed, b_ints,
                                                    w_ints):
        # contract splits w by its Omega index once; Omega = dual(M) has a
        # basis vector of odd degree, so the split's sign is seen
        omega = dual_module(mixed)
        b_mod = dual_module(omega)
        t = tensor_module(omega, mixed)
        b = random_module_element(b_mod, b_ints)
        w = random_module_element(t, w_ints)
        assert contract(b, w) == contract_termwise(b, w)

    def test_contraction_is_chain_pairing(self, bott, mixed):
        # d(iota_b w) = iota_{db} w + (-1)^{|b|} iota_b(dw)
        omega = dual_module(bott)
        b_mod = dual_module(omega)
        t = tensor_module(omega, mixed)
        for bkey in b_mod.kbasis():
            b = b_mod.kbasis_element(bkey)
            db = b_mod.kdegree(bkey)
            for wkey in t.kbasis():
                w = t.kbasis_element(wkey)
                lhs = apply_module_differential(mixed, contract(b, w))
                sign = -1 if db % 2 else 1
                rhs = (contract(apply_module_differential(b_mod, b), w)
                       + contract(b, apply_module_differential(t, w)).scale(sign))
                assert lhs == rhs, (bkey, wkey)
