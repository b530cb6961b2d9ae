"""Bracket towers, morphism towers, module actions, homotopy invariance."""

from __future__ import annotations

import itertools
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shipped_setup
from kapranov.algebra import AlgebraElement
from kapranov.builders import splitting_homotopy
from kapranov.cli import Instance, load_document
from kapranov.connections import DeltaConnection, atiyah_cocycle
from kapranov.derivations import DerivationMorphism
from kapranov.kapranov import (MorphismFamily, MultilinearMap,
                               check_leibniz_infinity, check_linfty_morphism,
                               compose_morphism_families, exhaustive_leibniz,
                               exhaustive_morphism, homotopy_iso,
                               kapranov_brackets, kapranov_morphism,
                               trivialization)
from kapranov.modules import ModuleElement, ModuleMorphism
from module_tower import check_module_identities, kapranov_module
from oracles import (a_multilinearity_violations, bracket_on_elements,
                     eval_multilinear, simple_tensor, tensor_of_elements)

F = Fraction
GRADED_TOY = (pathlib.Path(__file__).resolve().parent / "fixtures"
              / "graded_toy.json")


@pytest.fixture(scope="module")
def setup():
    return shipped_setup("sl2_borel")


@pytest.fixture(scope="module")
def fam0(setup):
    return kapranov_brackets(setup.connection, max_arity=5)


@pytest.fixture(scope="module")
def conn1(setup):
    """Second connection on the same derivation: nabla(f~) = f~^ (x) f~."""
    v = simple_tensor(setup.connection.tensor,
                      ModuleElement.basis_vector(setup.delta.target, 0),
                      ModuleElement.basis_vector(setup.bmod, 0))
    return DeltaConnection(setup.delta, setup.bmod, {0: v}, label="nabla1")


@pytest.fixture(scope="module")
def fam1(conn1):
    return kapranov_brackets(conn1, max_arity=5)


class TestBracketTower:
    def test_canonical_connection_truncates(self, fam0, setup):
        # delta(e^) = 0 and nabla(f~) = 0 make every recursion step vanish:
        # R_2(f~, f~) = 2 e^.f~ and R_k = 0 for k >= 3
        assert fam0.nonzero_arities() == [1, 2]
        assert fam0.module_tables[2] == {
            (0, 0): ModuleElement(setup.bmod,
                                  {0: AlgebraElement.monomial((1,), 2)})}

    def test_second_connection_r2(self, fam1, setup):
        # At(f~, f~) = nabla_{df~}f~ - d(nabla_{f~}f~) + nabla_{f~}(df~)
        #            = (2e^ - 2h^).f~ by hand
        want = ModuleElement(setup.bmod,
                             {0: AlgebraElement.monomial((1,), 2)
                              + AlgebraElement.monomial((0,), -2)})
        assert fam1.module_tables[2] == {(0, 0): want}

    def test_second_connection_r3(self, fam1, setup):
        # R_3(f~,f~,f~) = nabla_{f~}(R_2(f~,f~)) - 2 R_2(f~,f~)
        #              = (4e^ - 2h^).f~ - (4e^ - 4h^).f~ = 2h^.f~ by hand
        want = ModuleElement(setup.bmod, {0: AlgebraElement.monomial((0,), 2)})
        assert fam1.module_tables[3] == {(0, 0, 0): want}

    def test_all_brackets_have_degree_one(self, fam1):
        for k, m in fam1.brackets.items():
            assert m.degree == 1
            assert m.check_degrees() == [], k

    def test_extension_sign(self, fam1):
        # lam_2(h^.f~, f~) = -h^ ^ R_2(f~, f~): the degree-1 coefficient
        # crosses the degree-1 bracket
        kb = fam1.kb
        key = (kb.index[((0,), 0)], kb.index[((), 0)])
        got = kb.to_module_element(fam1.brackets[2].table[key])
        want = fam1.module_tables[2][(0, 0)].left_mul(
            AlgebraElement.monomial((0,))).scale(-1)
        assert got == want

    def test_leibniz_identities_canonical(self, fam0):
        report = check_leibniz_infinity(fam0, 5)
        assert report["passed"], report

    def test_leibniz_identities_second_connection(self, fam1):
        # all five arities are nonzero here, so every weight is exercised
        assert fam1.nonzero_arities() == [1, 2, 3, 4, 5]
        report = check_leibniz_infinity(fam1, 5)
        assert report["passed"], report

    def test_a_multilinearity_of_recursion(self, fam1):
        # evaluating the recursion on coefficient-bearing elements agrees
        # with the Koszul-signed extension of the basis table, whichever
        # slot holds the coefficient: on sl2/borel, where the coefficient's
        # delta contracts with b_0, and on the graded toy, whose basis
        # vectors of both parities show every sign
        toy = Instance(load_document(str(GRADED_TOY))).setup.connection
        for fam in (fam1, kapranov_brackets(toy, max_arity=3)):
            b = fam.module
            for idx in itertools.product(range(b.rank), repeat=3):
                for slot, mon in itertools.product(range(3),
                                                   b.algebra.monomials()):
                    args = [ModuleElement.basis_vector(b, i) for i in idx]
                    args[slot] = args[slot].left_mul(
                        AlgebraElement.monomial(mon))
                    direct = bracket_on_elements(fam, 3, args)
                    via_table = fam.kb.to_module_element(eval_multilinear(
                        fam.brackets[3], [fam.kb.to_kvec(x) for x in args]))
                    assert direct == via_table, (fam.module.label, idx,
                                                 slot, mon)

    def test_carrier_must_be_the_dual(self, setup):
        with pytest.raises(ValueError):
            kapranov_brackets(
                DeltaConnection(setup.delta, setup.omega, {}), 3)

    def test_corrupted_bracket_fails_identities(self, fam1):
        import copy
        bad = copy.copy(fam1)
        bad.brackets = dict(fam1.brackets)
        m = MultilinearMap.uniform(3, 1, fam1.kb.basis,
                                   table=dict(fam1.brackets[3].table))
        key = next(iter(m.table))
        m.set(key, m.table[key].scale(2))
        bad.brackets[3] = m
        report = exhaustive_leibniz(bad, 4)
        assert not report["passed"]


class TestMorphismTower:
    def test_identity_connection_change_is_strict(self, setup, fam0):
        phi = ModuleMorphism.identity(setup.omega)
        dm = DerivationMorphism(setup.delta, setup.delta, phi)
        mor = kapranov_morphism(dm, fam0, fam0, max_arity=4)
        assert mor.nonzero_arities() == [1]

    def test_connection_change(self, setup, fam0, fam1):
        phi = ModuleMorphism.identity(setup.omega)
        dm = DerivationMorphism(setup.delta, setup.delta, phi)
        mor = kapranov_morphism(dm, fam0, fam1, max_arity=4)
        # f_2(f~, f~) = nabla1_{f~}(f~) - 0 = f~ by hand
        assert mor.module_tables[2][(0, 0)] == \
            ModuleElement.basis_vector(setup.bmod, 0)
        report = check_linfty_morphism(mor, 4)
        assert report["passed"], report

    def test_connection_change_reverse(self, setup, fam0, fam1):
        phi = ModuleMorphism.identity(setup.omega)
        dm = DerivationMorphism(setup.delta, setup.delta, phi)
        mor = kapranov_morphism(dm, fam1, fam0, max_arity=4)
        report = check_linfty_morphism(mor, 4)
        assert report["passed"], report

    def test_composition_round_trip(self, setup, fam0, fam1):
        phi = ModuleMorphism.identity(setup.omega)
        dm = DerivationMorphism(setup.delta, setup.delta, phi)
        fwd = kapranov_morphism(dm, fam0, fam1, max_arity=3)
        back = kapranov_morphism(dm, fam1, fam0, max_arity=3)
        loop = compose_morphism_families(back, fwd, max_arity=3)
        report = check_linfty_morphism(loop, 3)
        assert report["passed"], report
        assert report == exhaustive_morphism(loop, 3)
        # arity 1 of the composite is the identity
        kb = fam0.kb
        for i in range(len(kb.keys)):
            assert loop.maps[1].table[(i,)] == kb.kvec({i: 1})

    def test_composition_with_identity(self, setup, fam0, fam1):
        phi = ModuleMorphism.identity(setup.omega)
        dm = DerivationMorphism(setup.delta, setup.delta, phi)
        fwd = kapranov_morphism(dm, fam0, fam1, max_arity=3)
        ident = MorphismFamily(fam0, fam0, module_tables={
            1: kapranov_morphism(dm, fam0, fam0, max_arity=1).module_tables[1]})
        comp = compose_morphism_families(fwd, ident, max_arity=3)
        for k in (1, 2, 3):
            assert comp.module_tables[k] == fwd.module_tables[k]
            assert comp.maps[k].table == fwd.maps[k].table

    def test_a_family_without_module_tables_does_not_compose(self, setup,
                                                              fam1):
        # the trivialization is not A-multilinear, so it has no module
        # tables, and a composite with it would not be either
        dm = DerivationMorphism(setup.delta, setup.delta,
                                ModuleMorphism.identity(setup.omega))
        ident = kapranov_morphism(dm, fam1, fam1, max_arity=3)
        triv = trivialization(fam1, max_arity=3)
        for outer, inner in ((ident, triv), (triv, ident)):
            with pytest.raises(ValueError, match="module tables"):
                compose_morphism_families(outer, inner, max_arity=3)


class TestTrivialization:
    def test_is_a_morphism_over_the_ground_field(self, fam1):
        triv = trivialization(fam1, max_arity=4)
        report = check_linfty_morphism(triv, 4)
        assert report["passed"], report

    def test_phi2_value(self, fam1, setup):
        # phi_2(f~, h^.f~) = nabla1_{f~}(h^.f~) = -e^.f~ + h^.f~ by hand
        triv = trivialization(fam1, max_arity=2)
        kb = fam1.kb
        key = (kb.index[((), 0)], kb.index[((0,), 0)])
        got = kb.to_module_element(triv.maps[2].table[key])
        want = ModuleElement(setup.bmod,
                             {0: AlgebraElement.monomial((1,), -1)
                              + AlgebraElement.monomial((0,), 1)})
        assert got == want

    def test_not_a_multilinear_when_delta_nonzero(self, fam0, fam1):
        # the dichotomy: over the ground field the tower trivializes, but
        # the trivializing maps cannot be A-multilinear unless delta = 0
        for fam in (fam0, fam1):
            triv = trivialization(fam, max_arity=2)
            assert a_multilinearity_violations(triv, 2)


class TestHomotopyInvariance:
    def test_iso_between_the_two_splittings(self, setup):
        other = shipped_setup("sl2_borel", {0: {1: 1}})
        h = splitting_homotopy(setup, other)
        hat = DeltaConnection(h, setup.bmod)
        mor, conn_prime = homotopy_iso(setup.connection, h, hat, max_arity=4)
        assert conn_prime.delta == other.delta
        # g_1 = id, g_2 = 0
        assert 2 not in mor.nonzero_arities()
        assert mor.module_tables[1] == {
            (0,): ModuleElement.basis_vector(setup.bmod, 0)}
        report = check_linfty_morphism(mor, 4)
        assert report["passed"], report

    def test_r2_is_homotopy_invariant(self, setup):
        other = shipped_setup("sl2_borel", {0: {1: 1}})
        h = splitting_homotopy(setup, other)
        hat = DeltaConnection(h, setup.bmod)
        mor, _ = homotopy_iso(setup.connection, h, hat, max_arity=3)
        assert mor.source.module_tables[2] == mor.target.module_tables[2]

    def test_trivial_homotopy_gives_strict_iso(self, setup):
        h = splitting_homotopy(setup, setup)
        hat = DeltaConnection(h, setup.bmod)
        mor, conn_prime = homotopy_iso(setup.connection, h, hat, max_arity=4)
        assert conn_prime.delta == setup.delta
        assert mor.nonzero_arities() == [1]

    def test_hat_degree_guard(self, setup):
        h = splitting_homotopy(setup, setup)
        bad = simple_tensor(setup.connection.tensor,
                            ModuleElement.basis_vector(setup.omega, 0),
                            ModuleElement.basis_vector(setup.bmod, 0))
        with pytest.raises(ValueError):
            DeltaConnection(h, setup.bmod, {0: bad})


# the shipped Lie pairs, with the number of subalgebra basis vectors a
# splitting of their one quotient vector may shift by
LIE_PAIRS = {"sl2/borel": ("sl2_borel", 2), "affine/x": ("affine_pair", 1)}
SPLITTING_VALUES = [-2, -1, F(-1, 2), F(1, 3), 1, F(3, 2)]


@st.composite
def splitting_pairs(draw):
    """A shipped Lie pair and two random splittings of it, with values that
    are mostly not integral."""
    name = draw(st.sampled_from(sorted(LIE_PAIRS)))
    document, n_sub = LIE_PAIRS[name]

    def splitting():
        positions = draw(st.lists(st.integers(0, n_sub - 1), unique=True))
        return {0: {a: draw(st.sampled_from(SPLITTING_VALUES))
                    for a in positions}}
    return (shipped_setup(document, splitting()),
            shipped_setup(document, splitting()))


@settings(max_examples=40, deadline=None)
@given(splitting_pairs())
def test_non_integral_splittings_keep_every_identity(pair):
    s0, s1 = pair
    for s in pair:
        report = check_leibniz_infinity(
            kapranov_brackets(s.connection, max_arity=4), 4)
        assert report["passed"], report
    h = splitting_homotopy(s0, s1)  # raises OffsetMismatch on a mismatch
    hat = DeltaConnection(h, s0.bmod)
    mor, conn_prime = homotopy_iso(s0.connection, h, hat, max_arity=4)
    assert conn_prime.delta == s1.delta
    report = check_linfty_morphism(mor, 4)
    assert report["passed"], report
    assert atiyah_cocycle(s0.connection).same_class(
        atiyah_cocycle(s1.connection))


class TestModuleAction:
    def test_regular_case_reproduces_brackets(self, fam1, conn1):
        mf = kapranov_module(fam1, conn1, max_arity=4)
        for k in (2, 3, 4):
            assert mf.module_tables.get(k, {}) == fam1.module_tables.get(k, {})

    def test_regular_case_identities(self, fam1, conn1):
        mf = kapranov_module(fam1, conn1, max_arity=4)
        report = check_module_identities(mf, 4)
        assert report["passed"], report

    def test_action_degrees(self, fam1, conn1):
        mf = kapranov_module(fam1, conn1, max_arity=4)
        for k, m in mf.actions.items():
            assert m.check_degrees() == [], k

    def test_mismatched_derivation_rejected(self, fam1, setup):
        other = shipped_setup("sl2_borel", {0: {1: 1}})
        with pytest.raises(ValueError):
            kapranov_module(fam1, other.connection, max_arity=3)


class TestTensorHelpers:
    def test_tensor_of_elements_koszul_sign(self, setup):
        # moving a degree-1 coefficient in slot 2 past the degree-0 basis
        # vector in slot 1 keeps the sign; past a degree-1 entry it flips
        b = setup.bmod
        e = ModuleElement.basis_vector(b, 0)
        ae = ModuleElement(b, {0: AlgebraElement.monomial((0,))})
        t = tensor_of_elements([e, ae], [b, b])
        assert t == {(0, 0): AlgebraElement.monomial((0,))}
        t2 = tensor_of_elements([ae, ae], [b, b])
        # prefix degree after slot 1 is |h^.f~| = 1, so the second h^
        # picks up a sign before wedging: -(h^ ^ h^) = 0
        assert t2 == {}
