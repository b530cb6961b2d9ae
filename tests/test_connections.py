"""delta-connections, Atiyah cocycles, classes, flatness, naturality."""

from __future__ import annotations

import pathlib
from fractions import Fraction

import pytest

from kapranov.algebra import AlgebraElement, ce_algebra
from kapranov.connections import (DeltaConnection, atiyah_cocycle,
                                  connection_difference_element,
                                  flat_connection_exists,
                                  om_hom_element_to_operator)
from kapranov.derivations import DgDerivation
from kapranov.graded import GradedBasis
from kapranov.modules import (DgModule, ModuleElement, ModuleMorphism,
                              apply_module_differential, contract, dual_module)
from module_tower import apply_om_hom, check_naturality
from oracles import atiyah_apply, atiyah_bilinear, simple_tensor

F = Fraction
ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def borel_alg(borel):
    return ce_algebra(borel)


@pytest.fixture
def omega(borel_alg):
    basis = GradedBasis(["fb*"], [0])
    return DgModule(borel_alg, basis,
                    {(0, 0): AlgebraElement.monomial((0,), 2)}, label="Omega")


@pytest.fixture
def bmod(omega):
    """B = dual(Omega): the Bott module, d(fb) = -2 h^.fb."""
    return dual_module(omega, name_fn=lambda n: n.rstrip("*"))


@pytest.fixture
def delta_j(borel_alg, omega):
    return DgDerivation(borel_alg, omega,
                        {0: ModuleElement(omega, {0: AlgebraElement.monomial((1,), -1)})},
                        label="delta_j")


@pytest.fixture
def nabla0(delta_j, bmod):
    return DeltaConnection(delta_j, bmod, label="nabla0")


@pytest.fixture
def nabla1(delta_j, bmod):
    """Second connection: nabla(fb) = fb* (x) fb."""
    conn = DeltaConnection(delta_j, bmod)
    v = simple_tensor(conn.tensor, ModuleElement.basis_vector(delta_j.target, 0),
                      ModuleElement.basis_vector(bmod, 0))
    return DeltaConnection(delta_j, bmod, {0: v}, label="nabla1")


class TestConnection:
    def test_leibniz_rule(self, nabla1, bmod, delta_j):
        for mon in bmod.algebra.monomials():
            a = AlgebraElement.monomial(mon)
            e = ModuleElement.basis_vector(bmod, 0)
            lhs = nabla1(e.left_mul(a))
            rhs = (simple_tensor(nabla1.tensor, delta_j(a), e)
                   + nabla1.values[0].left_mul(a))
            assert lhs == rhs, mon

    def test_degree_guard(self, delta_j, bmod):
        bad = simple_tensor(DeltaConnection(delta_j, bmod).tensor,
                            ModuleElement(delta_j.target,
                                          {0: AlgebraElement.monomial((0,))}),
                            ModuleElement.basis_vector(bmod, 0))
        with pytest.raises(ValueError):
            DeltaConnection(delta_j, bmod, {0: bad})


class TestAtiyahCocycle:
    def test_operator_is_a_linear_degree_one(self, nabla0, nabla1, bmod):
        for conn in (nabla0, nabla1):
            at = atiyah_cocycle(conn)
            for mon in bmod.algebra.monomials():
                a = AlgebraElement.monomial(mon)
                e = ModuleElement.basis_vector(bmod, 0)
                sign = -1 if len(mon) % 2 else 1
                assert (atiyah_apply(at, e.left_mul(a))
                        == atiyah_apply(at, e).left_mul(a).scale(sign))

    def test_closedness(self, nabla0, nabla1):
        assert atiyah_cocycle(nabla0).is_closed()
        assert atiyah_cocycle(nabla1).is_closed()

    def test_element_reproduces_operator(self, nabla1, bmod):
        at = atiyah_cocycle(nabla1)
        for key in bmod.kbasis():
            e = bmod.kbasis_element(key)
            assert apply_om_hom(at.element, e) == atiyah_apply(at, e)

    def test_apply_om_hom_chain_rule(self, nabla1, bmod):
        # d(X(e)) = (dX)(e) + (-1)^{|X|} X(de) for every kbasis X of
        # Omega (x) End and every kbasis e of the module
        at = atiyah_cocycle(nabla1)
        om_end = at.om_end
        tensor = nabla1.tensor
        for xkey in om_end.kbasis():
            x = om_end.kbasis_element(xkey)
            dx = om_end.kdegree(xkey)
            sign = -1 if dx % 2 else 1
            for ekey in bmod.kbasis():
                e = bmod.kbasis_element(ekey)
                lhs = apply_module_differential(tensor, apply_om_hom(x, e))
                rhs = (apply_om_hom(apply_module_differential(om_end, x), e)
                       + apply_om_hom(x, apply_module_differential(bmod, e)).scale(sign))
                assert lhs == rhs, (xkey, ekey)

    @pytest.mark.parametrize("name", [
        "tests/fixtures/graded_toy.json", "instances/sl2_borel.json",
        "instances/adjoint_linear_map.json", "bench/instances/sl3_borel.json"])
    def test_element_reads_back_as_the_operator(self, name):
        # End(B) = dual(B) (x) B holds the map e_i -> f_k as
        # (-1)^{|e_i||f_k|} e_i* (x) f_k; the graded toy's B has basis
        # vectors of both parities, so the sign is seen
        from kapranov.cli import Instance, load_document
        inst = Instance(load_document(str(ROOT / name)))
        for conn in filter(None, (inst.setup.connection,
                                  inst.second_connection)):
            at = atiyah_cocycle(conn)
            assert at.is_closed()
            for key in at.module.kbasis():
                e = at.module.kbasis_element(key)
                assert apply_om_hom(at.element, e) == atiyah_apply(at, e)

    @pytest.mark.parametrize("name", [
        "tests/fixtures/graded_toy.json", "instances/sl2_borel.json",
        "instances/adjoint_linear_map.json", "bench/instances/sl3_borel.json"])
    def test_element_unpacks_to_the_operator_values(self, name):
        # the inverse of operator_to_om_hom_element, with the same sign
        from kapranov.cli import Instance, load_document
        inst = Instance(load_document(str(ROOT / name)))
        for conn in filter(None, (inst.setup.connection,
                                  inst.second_connection)):
            at = atiyah_cocycle(conn)
            assert om_hom_element_to_operator(at.element, conn.tensor) \
                == at.operator_values

    def test_bilinear_oracle_sl2_borel(self, nabla0, bmod):
        # At(fb, fb) = 2 e^.fb for the standard splitting of sl2/Borel
        at = atiyah_cocycle(nabla0)
        fb = ModuleElement.basis_vector(bmod, 0)
        assert atiyah_bilinear(at, fb, fb) == ModuleElement(
            bmod, {0: AlgebraElement.monomial((1,), 2)})

    def test_bilinear_matches_contraction(self, nabla0, nabla1, bmod):
        for conn in (nabla0, nabla1):
            at = atiyah_cocycle(conn)
            for bkey in bmod.kbasis():
                b = bmod.kbasis_element(bkey)
                db = bmod.kdegree(bkey)
                sign = -1 if db % 2 else 1
                for ekey in bmod.kbasis():
                    e = bmod.kbasis_element(ekey)
                    assert (atiyah_bilinear(at, b, e)
                            == contract(b, atiyah_apply(at, e)).scale(sign))


class TestAtiyahClass:
    def test_difference_of_cocycles_is_exact(self, nabla0, nabla1):
        at0 = atiyah_cocycle(nabla0)
        at1 = atiyah_cocycle(nabla1)
        d_elt = connection_difference_element(nabla0, nabla1, at0.om_end)
        # [nabla - nabla', d] = -(d o D - D o d) as a degree-0 element
        want = apply_module_differential(at0.om_end, d_elt).scale(-1)
        assert at0.element - at1.element == want

    def test_class_independent_of_connection(self, delta_j, bmod, nabla0, nabla1):
        assert atiyah_cocycle(nabla0).same_class(atiyah_cocycle(nabla1))

    def test_sl2_borel_class_nonzero(self, delta_j, bmod):
        assert not atiyah_cocycle(
            DeltaConnection(delta_j, bmod)).class_is_zero()

    def test_flat_connection_absent_when_class_nonzero(self, delta_j, bmod):
        assert flat_connection_exists(
            atiyah_cocycle(DeltaConnection(delta_j, bmod))) is None

    def test_flat_connection_found_when_class_zero(self, delta_j, borel_alg):
        free = DgModule(borel_alg, GradedBasis(["w"], [0]), {})
        at = atiyah_cocycle(DeltaConnection(delta_j, free))
        assert at.class_is_zero()
        conn = flat_connection_exists(at)
        assert conn is not None
        assert atiyah_cocycle(conn).element.is_zero()

    @pytest.mark.parametrize("name, flat", [
        ("bench/instances/sl3_borel.json", False),
        ("instances/abelian_trivial.json", True)])
    def test_flat_search_builds_one_tensor_module(self, monkeypatch, name,
                                                  flat):
        # the cocycle builds Omega (x) B, End(B) and Omega (x) End(B), and
        # the search reads its primitive in the cocycle's complex: the two
        # questions together build those three and no other
        from kapranov import connections
        from kapranov.cli import Instance, load_document
        s = Instance(load_document(str(ROOT / name))).setup
        calls = []
        tensor_module = connections.tensor_module
        monkeypatch.setattr(
            connections, "tensor_module",
            lambda *a, **kw: calls.append(a) or tensor_module(*a, **kw))
        at = atiyah_cocycle(DeltaConnection(s.delta, s.bmod))
        conn = flat_connection_exists(at)
        assert len(calls) == 3
        assert (conn is not None) == flat
        assert flat == at.class_is_zero()
        if flat:
            assert atiyah_cocycle(conn).element.is_zero()

    @pytest.mark.parametrize("command", ["atiyah", "homotopy"])
    def test_two_classes_build_one_complex(self, monkeypatch, capsys,
                                           command):
        # each command compares a second class with the first, which reads
        # only the first one's complex; the connection difference lies in
        # the first cocycle's Omega (x) End(B), and a tower's seed reads
        # only operator values: one complex, and one End(B) per class.
        # End(B) = dual(B) (x) B, and an Omega (x) End(B) is the only
        # module of connections.py built on a dual_module
        from kapranov import cli, connections
        complexes, ends = [], []
        for name, calls in (("CochainComplex", complexes),
                            ("dual_module", ends)):
            original = getattr(connections, name)
            monkeypatch.setattr(
                connections, name, lambda *a, original=original, calls=calls:
                calls.append(a) or original(*a))
        path = ROOT / "bench" / "instances" / "sl2_borel_shifted.json"
        assert cli.main([command, "--input", str(path)]) == 0
        capsys.readouterr()
        assert (len(complexes), len(ends)) == (1, 2)

    def test_flat_search_agrees_with_class(self, delta_j, bmod, borel_alg):
        for module in (bmod, DgModule(borel_alg, GradedBasis(["w"], [0]), {})):
            at = atiyah_cocycle(DeltaConnection(delta_j, module))
            assert (flat_connection_exists(at) is not None) \
                == at.class_is_zero()


class TestNaturality:
    def test_identity_is_natural(self, delta_j, bmod):
        lam = ModuleMorphism.identity(bmod)
        result = check_naturality(delta_j, lam)
        assert result["is_dg_morphism"]
        assert result["discrepancy_closed"]
        assert result["natural"]

    def test_nonconstant_morphism_is_natural(self, delta_j, bmod, borel_alg):
        # E = free rank one in degree 1, lam(w) = h^.fb: dg, with a
        # genuinely nonzero discrepancy that must be exact
        e_mod = DgModule(borel_alg, GradedBasis(["w"], [1]), {})
        lam = ModuleMorphism(e_mod, bmod, 0,
                             {(0, 0): AlgebraElement.monomial((0,))})
        assert lam.dg_failures() == []
        result = check_naturality(delta_j, lam)
        assert result["discrepancy_closed"]
        assert result["natural"]
        assert result["primitive"] is not None

    def test_non_dg_map_is_flagged(self, delta_j, bmod, borel_alg):
        e_mod = DgModule(borel_alg, GradedBasis(["w"], [0]), {})
        lam = ModuleMorphism(e_mod, bmod, 0, {(0, 0): AlgebraElement.scalar(1)})
        result = check_naturality(delta_j, lam)
        assert not result["is_dg_morphism"]
