"""Lie pairs and linear-map objects, read from the shipped documents."""

from __future__ import annotations

import itertools
import pathlib
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INSTANCES, LINEAR_MAPS, linear_map_data, shipped_setup
from kapranov.algebra import AlgebraElement, CdgaPresentation, LieAlgebraData
from kapranov.builders import (LiePair, Setup, linear_map_setup,
                               splitting_homotopy)
from kapranov.cli import Instance, load_document, require_defined
from kapranov.connections import DeltaConnection
from kapranov.cohomology import CochainComplex
from kapranov.derivations import (DgDerivation, find_homotopy,
                                  validate_dg_derivation)
from kapranov.kapranov import (CheckFailure, bracket_nonskew_witness,
                               check_leibniz_infinity,
                               cohomology_leibniz_bracket, kapranov_brackets)
from kapranov.modules import DgModule, ModuleElement, validate_dg_module
from module_tower import (check_module_identities, coadjoint_module,
                          cohomology_action, kapranov_module)
from oracles import (bracket_vectors, eval_table_on_elements,
                     linear_map_failures, loday_pirashvili_bracket)

F = Fraction
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def document(path) -> Instance:
    return Instance(load_document(str(path)))


class TestShippedDocumentData:
    """The parsed documents against a second, literal spelling of their
    data, and the one set-up record every document kind gives."""

    def test_lie_pairs_parse_to_the_fixture_algebras(self, sl2, affine):
        for name, want in (("sl2_borel", sl2), ("affine_pair", affine)):
            got = document(INSTANCES / f"{name}.json").lie
            assert (got.names, got.brackets) == (want.names, want.brackets)

    @pytest.mark.parametrize("name, e_names, actions, psi", [
        ("adjoint_linear_map", ["a", "b"],
         {0: {(1, 1): 1}, 1: {(0, 1): -1}},
         {0: {0: 1}, 1: {1: 1}}),
        ("double_adjoint_linear_map", ["a1", "b1", "a2", "b2"],
         {0: {(1, 1): 1, (3, 3): 1}, 1: {(0, 1): -1, (2, 3): -1}},
         {2: {0: 1}, 3: {1: 1}}),
    ])
    def test_linear_maps_parse_to_literal_data(self, affine, name, e_names,
                                               actions, psi):
        data = linear_map_data(name)
        assert (data["lie"].names, data["lie"].brackets) == (affine.names,
                                                             affine.brackets)
        assert data["e_names"] == e_names
        assert data["actions"] == actions
        assert data["psi"] == psi

    @pytest.mark.parametrize("path, kind", [
        (INSTANCES / "sl2_borel.json", "lie_pair"),
        (INSTANCES / "adjoint_linear_map.json", "linear_map_object"),
        (FIXTURES / "graded_toy.json", "raw"),
    ], ids=lambda v: getattr(v, "stem", v))
    def test_every_document_kind_gives_a_full_setup(self, path, kind):
        inst = document(path)
        s = inst.setup
        assert inst.kind == kind and isinstance(s, Setup)
        assert isinstance(s.algebra, CdgaPresentation)
        assert isinstance(s.omega, DgModule) and isinstance(s.bmod, DgModule)
        assert isinstance(s.delta, DgDerivation)
        assert isinstance(s.connection, DeltaConnection)
        assert s.delta.target is s.omega and s.connection.module is s.bmod
        assert (s.pair is not None) == (kind == "lie_pair")
        assert set(vars(s)) == {"algebra", "omega", "delta", "bmod",
                                "connection", "pair", "splitting"}


class TestLiePairs:
    def test_sl2_borel_matches_hand_computation(self):
        s = shipped_setup("sl2_borel")
        assert validate_dg_module(s.omega) == []
        assert validate_dg_derivation(s.delta) == []
        # d(f~^) = 2 h^.f~^ (h acts on f~ by -2) and delta(h^) = -e^.f~^
        assert s.omega.diff_matrix == {(0, 0): AlgebraElement.monomial((0,), 2)}
        assert s.delta.values == {
            0: ModuleElement(s.omega, {0: AlgebraElement.monomial((1,), -1)})}

    def test_sl2_borel_shifted_splitting(self):
        # j'(f~) = f + e adds delta(e^) = -4 h^.f~^
        s = shipped_setup("sl2_borel", {0: {1: 1}})
        assert validate_dg_derivation(s.delta) == []
        assert s.delta.values == {
            0: ModuleElement(s.omega, {0: AlgebraElement.monomial((1,), -1)}),
            1: ModuleElement(s.omega, {0: AlgebraElement.monomial((0,), -4)})}

    def test_splitting_homotopy_agrees_with_search(self):
        s0 = shipped_setup("sl2_borel")
        s1 = shipped_setup("sl2_borel", {0: {1: 1}})
        h = splitting_homotopy(s0, s1)
        assert h.values == {1: ModuleElement(
            s0.omega, {0: AlgebraElement.scalar(-1)})}
        found = find_homotopy(s0.delta, s1.delta)
        assert found is not None

    def test_non_subalgebra_rejected(self):
        # span(x, z) is not a subalgebra of sl2-like data [x,y]=z,[x,z]=0? use
        # heisenberg relabelled: [x,y] = z, so span(x, y) is not closed
        heis = LieAlgebraData(["x", "y", "z"], {(0, 1): {2: F(1)}})
        with pytest.raises(ValueError):
            LiePair(heis, [0, 1])
        # but span(x, z) is
        LiePair(heis, [0, 2])

    def test_affine_standard_splitting_is_flat(self):
        s = shipped_setup("affine_pair", {})
        assert s.delta.is_zero()
        fam = kapranov_brackets(s.connection, max_arity=4)
        assert fam.nonzero_arities() == [1]

    def test_affine_shifted_splitting(self):
        s = shipped_setup("affine_pair", {0: {0: 1}})
        assert validate_dg_derivation(s.delta) == []
        assert s.delta.values == {
            0: ModuleElement(s.omega, {0: AlgebraElement.monomial((0,), 1)})}
        fam = kapranov_brackets(s.connection, max_arity=5)
        assert fam.nonzero_arities() == [1, 2, 3, 4, 5]
        assert check_leibniz_infinity(fam, 5)["passed"]

    def test_abelian_pair_fully_degenerate(self):
        s = shipped_setup("abelian_trivial")
        assert s.delta.is_zero()
        fam = kapranov_brackets(s.connection, max_arity=4)
        assert fam.nonzero_arities() == []
        assert check_leibniz_infinity(fam, 4)["passed"]


def pair_splitting(setup, bpos):
    return setup.splitting.get(bpos, {})


class TestClassicalAtiyahFormula:
    def test_lie_pair_cocycle_matches_structure_constants(self):
        # with the canonical extension (nabla_{j(b)} = 0) the twisted
        # Atiyah cocycle reduces to alpha(a, b)e = -rho_Bott(pr_A[x_a, j(b)])e;
        # compare R_2 against that closed form, exhaustively on basis triples
        for setup in (shipped_setup("sl2_borel"),
                      shipped_setup("sl2_borel", {0: {1: 1}}),
                      shipped_setup("affine_pair", {}),
                      shipped_setup("affine_pair", {0: {0: 1}}),
                      shipped_setup("abelian_trivial")):
            pair = setup.pair
            fam = kapranov_brackets(setup.connection, max_arity=2)
            n_sub = len(pair.sub_indices)
            n_quot = len(pair.quot_indices)
            for p in range(n_quot):
                for q in range(n_quot):
                    want = setup.bmod.zero()
                    for a in range(n_sub):
                        # [x_a, j(b_p)] projected to A, in sub coordinates
                        jb = {pair.quot_indices[p]: F(1)}
                        for a2, c in setup.splitting.get(p, {}).items():
                            jb[pair.sub_indices[a2]] = \
                                jb.get(pair.sub_indices[a2], F(0)) + F(c)
                        br = bracket_vectors(pair.ambient,
                                             {pair.sub_indices[a]: F(1)}, jb)
                        # project to A along j(B): v - j(pr_B v)
                        pr_a = dict(br)
                        for k in list(br):
                            if k in pair.quot_indices:
                                c = pr_a.pop(k)
                                bpos = pair.quot_indices.index(k)
                                for a2, s in pair_splitting(setup, bpos).items():
                                    idx = pair.sub_indices[a2]
                                    pr_a[idx] = pr_a.get(idx, F(0)) - c * F(s)
                        # Bott action of pr_A[...] on b_q, with the sign
                        for k, c in pr_a.items():
                            for m, r in pair.bott_action(k, q).items():
                                want = want + ModuleElement(
                                    setup.bmod,
                                    {m: AlgebraElement.monomial((a,), -c * r)})
                    got = fam.module_tables[2].get((p, q), setup.bmod.zero())
                    assert got == want, (pair.ambient.names, setup.splitting,
                                         p, q)


class TestLinearMapObjects:
    def test_validation_accepts_stock_instances(self):
        for s in map(shipped_setup, LINEAR_MAPS):
            assert validate_dg_module(s.omega) == []
            assert validate_dg_derivation(s.delta) == []

    def test_non_equivariant_psi_rejected(self, affine):
        # by the dg checks: delta = psi^ is no chain map, and d^2 = 0
        actions = {0: {(1, 1): F(1)}, 1: {(0, 1): F(-1)}}
        data = dict(lie=affine, e_names=["a", "b"], actions=actions,
                    psi={0: {1: F(1)}})
        assert linear_map_failures(data) == [
            "psi is not equivariant at (x, a)"]
        s = linear_map_setup(**data)
        assert validate_dg_module(s.omega) == validate_dg_module(s.bmod) == []
        with pytest.raises(CheckFailure, match=r"but d\(delta\(y\^\)\) = 0"):
            require_defined(SimpleNamespace(lie=affine, setup=s))

    def test_non_representation_rejected(self, affine):
        # by the dg checks: d^2 != 0 on Omega and on B
        actions = {0: {(1, 1): F(1)}, 1: {(0, 0): F(1)}}
        data = dict(lie=affine, e_names=["a", "b"], actions=actions, psi={})
        assert linear_map_failures(data) == [
            "rho is not a representation at (x, y)"]
        s = linear_map_setup(**data)
        assert validate_dg_module(s.omega) and validate_dg_module(s.bmod)
        with pytest.raises(CheckFailure, match=r"d\^2\(a~\)"):
            require_defined(SimpleNamespace(lie=affine, setup=s))

    LIE_ALGEBRAS = {
        "abelian": LieAlgebraData(["x", "y"], {}),
        "affine": LieAlgebraData(["x", "y"], {(0, 1): {1: F(1)}}),
        "sl2": LieAlgebraData(["h", "e", "f"], {(0, 1): {1: F(2)},
                                                (0, 2): {2: F(-2)},
                                                (1, 2): {0: F(1)}}),
    }

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_the_checks_of_the_data_are_the_dg_checks(self, data):
        # rho is a representation exactly when d^2 = 0 on Omega and on B,
        # and psi is equivariant exactly when delta = psi^ is a chain map,
        # so the dg checks that every command runs refuse what the
        # checks of the defining data would
        lie = self.LIE_ALGEBRAS[data.draw(st.sampled_from(
            sorted(self.LIE_ALGEBRAS)), label="lie")]
        dim = data.draw(st.integers(1, 2), label="dim E")
        entry = st.sampled_from([0, 0, 0, 1, -1, 2])
        actions = {a: {(i, j): data.draw(entry, label=f"rho({a})")
                       for i in range(dim) for j in range(dim)}
                   for a in range(lie.dim)}
        psi = {i: {a: data.draw(entry, label=f"psi({i})")
                   for a in range(lie.dim)} for i in range(dim)}
        obj = dict(lie=lie, e_names=["a", "b"][:dim], actions=actions, psi=psi)
        failures = linear_map_failures(obj)
        s = linear_map_setup(**obj)
        rho_fails = any(f.startswith("rho") for f in failures)
        assert rho_fails == bool(validate_dg_module(s.omega)) \
            == bool(validate_dg_module(s.bmod))
        psi_fails = any(f.startswith("psi") for f in failures)
        assert psi_fails == bool(validate_dg_derivation(s.delta))

    def test_connection_is_forced_trivial(self):
        # Omega (x) B has no elements in the degrees a connection value
        # would need, so the canonical connection is the only one
        s = shipped_setup("adjoint_linear_map")
        assert s.connection.values == {}
        for i in range(s.bmod.rank):
            assert s.connection.tensor.kbasis(s.bmod.basis.degrees[i]) == []

    def test_tower_degenerates_at_two(self):
        s = shipped_setup("adjoint_linear_map")
        fam = kapranov_brackets(s.connection, max_arity=4)
        assert fam.nonzero_arities() == [1, 2]
        assert check_leibniz_infinity(fam, 4)["passed"]

    def test_r2_is_minus_psi_action(self):
        # closed form from the defining data, independent of the Atiyah
        # machinery: R_2(e_i~, e_j~) = -psi(e_i).e_j
        for name in LINEAR_MAPS:
            s, data = shipped_setup(name), linear_map_data(name)
            fam = kapranov_brackets(s.connection, max_arity=2)
            want = {}
            for i in range(len(data["e_names"])):
                for j in range(len(data["e_names"])):
                    lp = loday_pirashvili_bracket(data, i, j)
                    if lp:
                        want[(i, j)] = ModuleElement(
                            s.bmod,
                            {k: AlgebraElement.scalar(-c) for k, c in lp.items()})
            assert fam.module_tables[2] == want, name

    def test_recovered_bracket_is_not_skew(self):
        s = shipped_setup("double_adjoint_linear_map")
        data = linear_map_data("double_adjoint_linear_map")
        # a2 o b1 = psi(a2).b1 = [x, y] in the first copy = b1, while
        # b1 o a2 = psi(b1).a2 = 0 since psi kills the first copy
        assert loday_pirashvili_bracket(data, 2, 1) == {1: F(1)}
        assert loday_pirashvili_bracket(data, 1, 2) == {}
        fam = kapranov_brackets(s.connection, max_arity=2)
        assert bracket_nonskew_witness(fam) is not None

    def test_adjoint_bracket_is_skew(self):
        # psi = id recovers the Lie bracket itself, which is skew
        s = shipped_setup("adjoint_linear_map")
        fam = kapranov_brackets(s.connection, max_arity=2)
        assert bracket_nonskew_witness(fam) is None


class TestCohomologyLevel:
    def test_adjoint_carrier_is_acyclic(self):
        s = shipped_setup("adjoint_linear_map")
        cx = CochainComplex(s.bmod)
        assert all(cx.betti(n) == 0 for n in cx.degrees())

    def test_adjoint_trivial_classes(self):
        # the trivial summand contributes H(CE(affine)) shifted: one class
        # in degree -1 (t~) and one in degree 0 (x^.t~)
        s = shipped_setup("adjoint_trivial")
        cx = CochainComplex(s.bmod)
        assert cx.betti(-1) == 1
        assert cx.betti(0) == 1
        assert all(cx.betti(n) == 0 for n in cx.degrees() if n not in (-1, 0))

    def test_class_bracket_table(self):
        # nonzero cochain bracket, zero class bracket: every output of
        # R_2 on closed elements is exact here
        s = shipped_setup("adjoint_trivial")
        fam = kapranov_brackets(s.connection, max_arity=3)
        assert fam.module_tables[2]  # cochain level nonzero
        cb = cohomology_leibniz_bracket(fam)
        assert len(cb.reps) == 2
        assert all(not any(v) for v in cb.table.values())
        assert cb.is_skew()
        assert cb.leibniz_failures() == []

    def test_class_bracket_consistent_with_formula(self):
        # [[b1],[b2]] = (-1)^{|b1|}[R_2(b1,b2)]: recompute the bracket of
        # every pair of representatives from the closed form
        # -psi(e1).e2, evaluated on elements, and compare class
        # coordinates; the table holds the pairs with a nonzero cocycle
        s = shipped_setup("adjoint_trivial")
        fam = kapranov_brackets(s.connection, max_arity=2)
        cb = cohomology_leibniz_bracket(fam)
        for (a, (da, ra)), (b, (db, rb)) in itertools.product(
                enumerate(cb.reps), repeat=2):
            z = eval_table_on_elements(fam.module_tables[2], 1, [ra, rb],
                                       [fam.module] * 2, fam.module)
            z = z.scale(-1) if da % 2 else z
            assert ((a, b) in cb.table) == (not z.is_zero())
            assert cb.table.get((a, b), []) \
                == cb.complex.class_coordinates(z)


class TestModuleActions:
    def test_coadjoint_module_identities(self):
        s = shipped_setup("adjoint_linear_map")
        fam = kapranov_brackets(s.connection, max_arity=4)
        coad, conn = coadjoint_module(s, linear_map_data("adjoint_linear_map")["lie"])
        assert validate_dg_module(coad) == []
        mf = kapranov_module(fam, conn, max_arity=4)
        assert mf.nonzero_arities() == [1, 2]
        report = check_module_identities(mf, 4)
        assert report["passed"], report

    def test_coadjoint_action_table(self):
        # mu_2(e_i~, xi) = -psi(e_i).xi coadjointly: with psi = id on the
        # affine algebra, ad_x(y) = y gives ad_x*(y*) = -y* and hence
        # mu_2(a~, y*) = -ad_x*(y*) = +y*
        s = shipped_setup("adjoint_linear_map")
        fam = kapranov_brackets(s.connection, max_arity=2)
        coad, conn = coadjoint_module(s, linear_map_data("adjoint_linear_map")["lie"])
        mf = kapranov_module(fam, conn, max_arity=2)
        got = mf.module_tables[2].get((0, 1))
        assert got == ModuleElement(coad, {1: AlgebraElement.scalar(1)})

    def test_cohomology_action_well_defined(self):
        s = shipped_setup("adjoint_trivial")
        fam = kapranov_brackets(s.connection, max_arity=3)
        coad, conn = coadjoint_module(s, linear_map_data("adjoint_trivial")["lie"])
        mf = kapranov_module(fam, conn, max_arity=3)
        assert check_module_identities(mf, 3)["passed"]
        act = cohomology_action(mf)
        assert act.b_reps  # classes on the algebra side exist
        # psi vanishes on the trivial summand carrying H(B), so the
        # induced action is zero on classes
        assert all(not any(v) for v in act.table.values())

    def test_action_naturality_under_scaling(self):
        from kapranov.modules import ModuleMorphism
        s = shipped_setup("adjoint_trivial")
        fam = kapranov_brackets(s.connection, max_arity=2)
        coad, conn = coadjoint_module(s, linear_map_data("adjoint_trivial")["lie"])
        mf = kapranov_module(fam, conn, max_arity=2)
        act = cohomology_action(mf)
        lam = ModuleMorphism(coad, coad, 0,
                             {(i, i): AlgebraElement.scalar(2)
                              for i in range(coad.rank)})
        assert lam.dg_failures() == []
        assert act.naturality_failures(lam) == []
