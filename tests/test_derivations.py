"""Module-valued dg derivations, homotopies, Kahler differentials."""

from __future__ import annotations

from fractions import Fraction

import pytest

from kapranov.algebra import AlgebraElement, ce_algebra
from kapranov.derivations import (DerivationHomotopy, DerivationMorphism,
                                  DgDerivation, find_homotopy,
                                  homotopy_offset,
                                  kaehler_differentials,
                                  universal_factorization,
                                  validate_dg_derivation)
from kapranov.graded import GradedBasis
from kapranov.modules import (DgModule, ModuleElement, ModuleMorphism,
                              apply_module_differential, validate_dg_module)
from oracles import right_mul

F = Fraction


@pytest.fixture
def borel_alg(borel):
    return ce_algebra(borel)  # generators h^, e^ in that order


@pytest.fixture
def omega(borel_alg):
    """Omega = C(Borel, Bbar*): one generator fb* in degree 0 with the dual
    Bott action, d(fb*) = 2 h^.fb* (h acts by -2 on fb)."""
    basis = GradedBasis(["fb*"], [0])
    return DgModule(borel_alg, basis,
                    {(0, 0): AlgebraElement.monomial((0,), 2)})


def fbs(omega, a):
    return ModuleElement(omega, {0: a})


@pytest.fixture
def delta_j(borel_alg, omega):
    """Derivation of the standard splitting j(fb) = f:
    delta(h^) = -e^.fb*, delta(e^) = 0."""
    return DgDerivation(borel_alg, omega,
                        {0: fbs(omega, AlgebraElement.monomial((1,), -1))})


@pytest.fixture
def delta_jp(borel_alg, omega):
    """Derivation of the shifted splitting j'(fb) = f + e:
    delta(h^) = -e^.fb*, delta(e^) = -4 h^.fb*."""
    return DgDerivation(borel_alg, omega,
                        {0: fbs(omega, AlgebraElement.monomial((1,), -1)),
                         1: fbs(omega, AlgebraElement.monomial((0,), -4))})


class TestDerivationBasics:
    def test_leibniz_extension(self, delta_j, borel_alg):
        h = AlgebraElement.generator(0)
        e = AlgebraElement.generator(1)
        lhs = delta_j(h * e)
        rhs = (right_mul(delta_j(h), e) + delta_j(e).left_mul(h))
        assert lhs == rhs

    def test_extension_on_top_monomial(self, delta_j, omega):
        # delta(h^ ^ e^) = delta(h^).e^ = (-e^.fb*).e^ = 0 since e^^e^ = 0
        got = delta_j(AlgebraElement.monomial((0, 1)))
        assert got.is_zero()

    def test_validation_passes(self, delta_j, delta_jp):
        assert validate_dg_derivation(delta_j) == []
        assert validate_dg_derivation(delta_jp) == []

    def test_validation_catches_corruption(self, borel_alg, omega):
        # delta(e^) with an e^-component needs a matching h^-component in
        # delta(h^) for compatibility with d(e^) = -2 h^e^; omit it
        bad = DgDerivation(borel_alg, omega,
                           {0: fbs(omega, AlgebraElement.monomial((1,), -1)),
                            1: fbs(omega, AlgebraElement.monomial((1,), 1))})
        failures = validate_dg_derivation(bad)
        assert failures and any("e^" in f for f in failures)

    def test_compatibility_on_monomials(self, delta_jp, borel_alg, omega):
        for mon in borel_alg.monomials():
            a = AlgebraElement.monomial(mon)
            lhs = delta_jp(borel_alg.apply_differential(a))
            rhs = apply_module_differential(omega, delta_jp(a))
            assert lhs == rhs, mon


class TestKaehler:
    def test_module_validates(self, sl2):
        alg = ce_algebra(sl2)
        omega1, d = kaehler_differentials(alg)
        assert validate_dg_module(omega1) == []
        assert validate_dg_derivation(d) == []

    def test_universal_derivation_values(self, borel_alg):
        omega1, d = kaehler_differentials(borel_alg)
        assert d(AlgebraElement.generator(0)) == ModuleElement.basis_vector(omega1, 0)

    def test_differential_on_symbols(self, borel_alg):
        # d(e^) = -2 h^ ^ e^, and d_dR is a degree-0 derivation, so
        # d(de^) = d_dR(-2 h^ e^) = -2[dh^ . e^ + h^ . de^]
        omega1, d = kaehler_differentials(borel_alg)
        got = omega1.diff_of_basis(1)
        want = (right_mul(d(AlgebraElement.generator(0)),
                          AlgebraElement.generator(1)).scale(-2)
                + d(AlgebraElement.generator(1)).left_mul(
                    AlgebraElement.generator(0)).scale(-2))
        assert got == want

    def test_factorization(self, delta_jp, borel_alg):
        alpha = universal_factorization(delta_jp)
        assert alpha.dg_failures() == []
        omega1, d = kaehler_differentials(borel_alg)
        for mon in borel_alg.monomials():
            a = AlgebraElement.monomial(mon)
            assert alpha(d(a)) == delta_jp(a), mon

    def test_factorization_uniqueness(self, delta_jp, borel_alg):
        # any dg morphism agreeing with delta on d(generators) has the same matrix
        alpha = universal_factorization(delta_jp)
        beta = universal_factorization(delta_jp)
        assert alpha.matrix == beta.matrix


class TestHomotopy:
    def test_splitting_homotopy_by_hand(self, delta_j, delta_jp, borel_alg, omega):
        # h = (j - j')^: h(e^) = -fb*, h(h^) = 0
        h = DerivationHomotopy(borel_alg, omega,
                               {1: fbs(omega, AlgebraElement.scalar(-1))})
        assert homotopy_offset(delta_j, h) == delta_jp

    def test_find_homotopy_recovers_offset(self, delta_j, delta_jp, borel_alg, omega):
        h = find_homotopy(delta_j, delta_jp)
        assert h is not None
        assert homotopy_offset(delta_j, h) == delta_jp

    def test_offset_is_still_dg(self, delta_j, borel_alg, omega):
        h = DerivationHomotopy(borel_alg, omega,
                               {0: fbs(omega, AlgebraElement.scalar(3)),
                                1: fbs(omega, AlgebraElement.scalar(-2))})
        moved = homotopy_offset(delta_j, h)
        assert validate_dg_derivation(moved) == []

    def test_find_homotopy_none_when_not_homotopic(self, borel_alg, omega, delta_j):
        # delta = 0 is not homotopic to delta_j: the offsets d(h(h^)) + h(d h^)
        # = c.d(fb*) = 2c h^.fb* can never produce the e^ component of delta_j
        zero = DgDerivation(borel_alg, omega, {})
        assert find_homotopy(zero, delta_j) is None

    def test_trivial_homotopy(self, delta_j, borel_alg, omega):
        h = find_homotopy(delta_j, delta_j)
        assert h is not None
        assert homotopy_offset(delta_j, h) == delta_j


class TestDerivationMorphism:
    def test_identity_morphism(self, delta_j):
        phi = ModuleMorphism.identity(delta_j.target)
        m = DerivationMorphism(delta_j, delta_j, phi)
        assert m.is_valid()

    def test_scaling_is_not_a_morphism(self, delta_j):
        phi = ModuleMorphism(delta_j.target, delta_j.target, 0,
                             {(0, 0): AlgebraElement.scalar(2)})
        m = DerivationMorphism(delta_j, delta_j, phi)
        assert not m.is_valid()

    def test_morphism_onto_zero_target_fails(self, delta_j, borel_alg, omega):
        zero = DgDerivation(borel_alg, omega, {})
        phi = ModuleMorphism.identity(omega)
        assert not DerivationMorphism(delta_j, zero, phi).is_valid()
        # but phi carries delta_j to itself viewed with delta_j as target
        assert DerivationMorphism(delta_j, delta_j, phi).is_valid()
