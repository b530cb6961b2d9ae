"""The A-multilinear extension kernel against a product-over-all-monomials oracle.

``reference_extend_module_table`` is the direct construction: it walks
every tuple of monomials, multiplies the coefficients out with
``AlgebraElement`` arithmetic and keeps the nonzero results.
``extend_module_table`` visits only pairwise-disjoint tuples; the two must
give equal tables with equal key order.
"""

from __future__ import annotations

import itertools
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shipped_setup
from kapranov.algebra import AlgebraElement, CdgaPresentation
from kapranov.builders import splitting_homotopy
from kapranov.cli import Instance, load_document
from kapranov.connections import DeltaConnection
from kapranov.derivations import DerivationMorphism
from kapranov.graded import GradedBasis, MultilinearMap
from kapranov.kapranov import (KBasis, extend_module_table, homotopy_iso,
                               kapranov_brackets, kapranov_morphism)
from kapranov.modules import DgModule, ModuleElement, ModuleMorphism
from module_tower import coadjoint_module, kapranov_module
from oracles import simple_tensor

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "instances").glob("*.json"))


def reference_extend_module_table(kb, table, arity, degree, input_kbs=None,
                                  output_kb=None) -> MultilinearMap:
    if input_kbs is None:
        input_kbs = [kb] * arity
    if output_kb is None:
        output_kb = kb
    out = MultilinearMap(arity, degree, [k.basis for k in input_kbs],
                         output_kb.basis)
    mon_lists = [list(k.module.algebra.monomials()) for k in input_kbs]
    for base_key, val in table.items():
        for mons in itertools.product(*mon_lists[:arity]):
            coeff = AlgebraElement.scalar(1)
            exp = 0
            running = 0
            kb_key = []
            for t, (mon, bidx) in enumerate(zip(mons, base_key)):
                exp += len(mon) * (degree + running)
                running += input_kbs[t].module.basis.degrees[bidx]
                coeff = coeff * AlgebraElement.monomial(mon)
                if coeff.is_zero():
                    break
                kb_key.append(input_kbs[t].index[(mon, bidx)])
            else:
                value = val.left_mul(coeff).scale(-1 if exp % 2 else 1)
                if not value.is_zero():
                    out.set(tuple(kb_key), output_kb.to_kvec(value))
    return out


def assert_same_table(got: MultilinearMap, want: MultilinearMap):
    assert list(got.table) == list(want.table)
    for key, val in want.table.items():
        assert list(got.table[key].coeffs.items()) == list(val.coeffs.items())
    assert (got.arity, got.degree) == (want.arity, want.degree)
    assert got.input_bases == want.input_bases
    assert got.output_basis == want.output_basis


def assert_matches_oracle(kb, table, arity, degree, **kbs):
    got = extend_module_table(kb, table, arity, degree, **kbs)
    assert_same_table(got, reference_extend_module_table(
        kb, table, arity, degree, **kbs))
    return got


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_brackets_to_arity_4(path):
    conn = Instance(load_document(str(path))).setup.connection
    fam = kapranov_brackets(conn, max_arity=4)
    assert sorted(fam.module_tables) == [2, 3, 4]
    for k, table in fam.module_tables.items():
        got = assert_matches_oracle(fam.kb, table, k, 1)
        assert_same_table(fam.brackets[k], got)


def test_sl3_borel_brackets_at_arity_2():
    path = ROOT / "bench" / "instances" / "sl3_borel.json"
    conn = Instance(load_document(str(path))).setup.connection
    fam = kapranov_brackets(conn, max_arity=2)
    assert len(fam.kb.keys) == 96
    got = assert_matches_oracle(fam.kb, fam.module_tables[2], 2, 1)
    assert got.table


def test_morphism_tower_into_another_family():
    s = shipped_setup("sl2_borel")
    v = simple_tensor(s.connection.tensor,
                      ModuleElement.basis_vector(s.delta.target, 0),
                      ModuleElement.basis_vector(s.bmod, 0))
    conn1 = DeltaConnection(s.delta, s.bmod, {0: v})
    fam0 = kapranov_brackets(s.connection, max_arity=4)
    fam1 = kapranov_brackets(conn1, max_arity=4)
    dm = DerivationMorphism(s.delta, s.delta, ModuleMorphism.identity(s.omega))
    mor = kapranov_morphism(dm, fam0, fam1, max_arity=4)
    assert mor.nonzero_arities() != [1]
    for k, table in mor.module_tables.items():
        got = assert_matches_oracle(fam0.kb, table, k, 0, output_kb=fam1.kb)
        assert_same_table(mor.maps[k], got)


def test_homotopy_tower():
    s0 = shipped_setup("sl2_borel")
    s1 = shipped_setup("sl2_borel", {0: {1: 1}})
    h = splitting_homotopy(s0, s1)
    mor, _ = homotopy_iso(s0.connection, h, DeltaConnection(h, s0.bmod),
                          max_arity=4)
    assert mor.source.kb is not mor.target.kb
    for k, table in mor.module_tables.items():
        got = assert_matches_oracle(mor.source.kb, table, k, 0,
                                    output_kb=mor.target.kb)
        assert_same_table(mor.maps[k], got)


def test_module_action_with_mixed_slots():
    lm = shipped_setup("adjoint_linear_map")
    fam = kapranov_brackets(lm.connection, max_arity=4)
    _, conn = coadjoint_module(lm)
    mf = kapranov_module(fam, conn, max_arity=4)
    assert mf.kb_e.basis != fam.kb.basis
    for k, table in mf.module_tables.items():
        got = assert_matches_oracle(
            fam.kb, table, k, 1, input_kbs=[fam.kb] * (k - 1) + [mf.kb_e],
            output_kb=mf.kb_e)
        assert_same_table(mf.actions[k], got)


@st.composite
def extension_problems(draw):
    """A random homogeneous module-basis table over a small exterior algebra.

    Two free modules over an algebra on at most 3 generators; every input
    slot and the output draw their module from the two.
    """
    n_gens = draw(st.integers(0, 3))
    algebra = CdgaPresentation([f"x{g}" for g in range(n_gens)])
    kbs = []
    for name in "uv":
        degrees = draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3))
        basis = GradedBasis([f"{name}{i}" for i in range(len(degrees))],
                            degrees)
        kbs.append(KBasis(DgModule(algebra, basis)))
    arity = draw(st.integers(1, 3))
    degree = draw(st.integers(-1, 1))
    input_kbs = [draw(st.sampled_from(kbs)) for _ in range(arity)]
    output_kb = draw(st.sampled_from(kbs))
    out_module = output_kb.module
    rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    table = {}
    for base_key in itertools.product(
            *(range(k.module.rank) for k in input_kbs)):
        if not draw(st.booleans()):
            continue
        want = degree + sum(k.module.basis.degrees[b]
                            for k, b in zip(input_kbs, base_key))
        coeffs = {}
        for i, d in enumerate(out_module.basis.degrees):
            mons = list(algebra.monomials(want - d))
            terms = {}
            for mon in draw(st.lists(st.sampled_from(mons), unique=True)
                            if mons else st.just([])):
                terms[mon] = draw(rational)
            coeffs[i] = AlgebraElement(terms)
        table[base_key] = ModuleElement(out_module, coeffs)
    return kbs[0], table, arity, degree, input_kbs, output_kb


@settings(max_examples=60, deadline=None)
@given(extension_problems())
def test_random_tables_match_the_oracle(problem):
    kb, table, arity, degree, input_kbs, output_kb = problem
    assert_matches_oracle(kb, table, arity, degree, input_kbs=input_kbs,
                          output_kb=output_kb)
