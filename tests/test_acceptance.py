"""Acceptance gate: one test (one pass/fail line) per release criterion.

Each test exercises the criterion end to end on the shipped instances and
prints a single summary line on success.
"""

from __future__ import annotations

import json
import pathlib
from fractions import Fraction

from conftest import LINEAR_MAPS, shipped_setup
from kapranov.algebra import AlgebraElement
from kapranov.builders import splitting_homotopy
from kapranov.cli import main
from kapranov.connections import (DeltaConnection, atiyah_cocycle,
                                  connection_difference_element,
                                  flat_connection_exists)
from kapranov.derivations import DerivationMorphism
from kapranov.kapranov import (bracket_nonskew_witness, check_leibniz_infinity,
                               check_linfty_morphism,
                               cohomology_leibniz_bracket,
                               compose_morphism_families, homotopy_iso,
                               kapranov_brackets, kapranov_morphism,
                               trivialization)
from kapranov.modules import (ModuleElement, ModuleMorphism,
                              apply_module_differential)
from module_tower import (check_module_identities, coadjoint_module,
                          kapranov_module)
from oracles import (a_multilinearity_violations, loday_pirashvili_bracket,
                     simple_tensor)

ROOT = pathlib.Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

F = Fraction


def second_sl2_connection(setup) -> DeltaConnection:
    v = simple_tensor(setup.connection.tensor,
                      ModuleElement.basis_vector(setup.delta.target, 0),
                      ModuleElement.basis_vector(setup.bmod, 0))
    return DeltaConnection(setup.delta, setup.bmod, {0: v})


def all_builtin_connections():
    out = []
    s = shipped_setup("sl2_borel")
    out.append(("sl2/borel canonical", s.connection))
    out.append(("sl2/borel second", second_sl2_connection(s)))
    out.append(("sl2/borel shifted splitting",
                shipped_setup("sl2_borel", {0: {1: 1}}).connection))
    out.append(("affine/x shifted",
                shipped_setup("affine_pair", {0: {0: 1}}).connection))
    out.append(("affine/x standard",
                shipped_setup("affine_pair", {}).connection))
    out.append(("abelian", shipped_setup("abelian_trivial").connection))
    for setup in map(shipped_setup, LINEAR_MAPS):
        out.append((setup.data.label, setup.connection))
    return out


def test_criterion_1_leibniz_identities_on_all_builtins():
    for label, conn in all_builtin_connections():
        fam = kapranov_brackets(conn, max_arity=5)
        report = check_leibniz_infinity(fam, 5)
        assert report["passed"], (label, report)
    print("criterion 1: PASS — homotopy Leibniz identities hold to weight 5 "
          "on every built-in tower")


def test_criterion_2_linear_map_closed_form_and_nonskew_bracket():
    for s in map(shipped_setup, LINEAR_MAPS):
        fam = kapranov_brackets(s.connection, max_arity=6)
        # R_2(e_i~, e_j~) = -psi(e_i).e_j and nothing survives above arity 2
        assert set(fam.nonzero_arities()) <= {1, 2}, s.data.label
        want = {}
        for i in range(s.data.dim_e()):
            for j in range(s.data.dim_e()):
                lp = loday_pirashvili_bracket(s.data, i, j)
                if lp:
                    want[(i, j)] = ModuleElement(
                        s.bmod,
                        {k: AlgebraElement.scalar(-c) for k, c in lp.items()})
        assert fam.module_tables.get(2, {}) == want, s.data.label
    # the recovered bracket is genuinely non-skew at the cochain level
    s = shipped_setup("double_adjoint_linear_map")
    assert loday_pirashvili_bracket(s.data, 2, 1) == {1: F(1)}
    assert loday_pirashvili_bracket(s.data, 1, 2) == {}
    fam = kapranov_brackets(s.connection, max_arity=2)
    assert bracket_nonskew_witness(fam) is not None
    # on classes the bracket is well defined and satisfies Leibniz
    s = shipped_setup("adjoint_trivial")
    cb = cohomology_leibniz_bracket(kapranov_brackets(s.connection, 2))
    assert cb.reps
    assert cb.leibniz_failures() == []
    print("criterion 2: PASS — linear-map towers reduce to R_2 = -psi(.)., "
          "recovering a non-skew Leibniz bracket")


def test_criterion_3_atiyah_cocycle_class_flatness():
    s = shipped_setup("sl2_borel")
    nabla0, nabla1 = s.connection, second_sl2_connection(s)
    at0, at1 = atiyah_cocycle(nabla0), atiyah_cocycle(nabla1)
    assert at0.is_closed() and at1.is_closed()
    d_elt = connection_difference_element(nabla0, nabla1, at0.om_end)
    assert (at0.element - at1.element
            == apply_module_differential(at0.om_end, d_elt).scale(-1))
    assert at0.same_class(at1)
    assert not at0.class_is_zero()
    assert flat_connection_exists(at0) is None
    t = shipped_setup("abelian_trivial")
    t_at = atiyah_cocycle(DeltaConnection(t.delta, t.bmod))
    assert t_at.class_is_zero()
    assert flat_connection_exists(t_at) is not None
    print("criterion 3: PASS — Atiyah cocycles are closed, differences "
          "exact, and flatness matches class vanishing")


def test_criterion_4_homotopy_invariance():
    s0 = shipped_setup("sl2_borel")
    s1 = shipped_setup("sl2_borel", {0: {1: 1}})
    h = splitting_homotopy(s0, s1)  # raises unless the offset is exact
    hat = DeltaConnection(h, s0.bmod)
    mor, conn_prime = homotopy_iso(s0.connection, h, hat, max_arity=4)
    assert conn_prime.delta == s1.delta
    assert 2 not in mor.nonzero_arities()
    report = check_linfty_morphism(mor, 4)
    assert report["passed"], report
    assert atiyah_cocycle(s0.connection).same_class(
        atiyah_cocycle(s1.connection))
    print("criterion 4: PASS — homotopic splittings give exact offsets, an "
          "isomorphic tower with g_2 = 0, and equal classes")


def test_criterion_5_functoriality():
    s = shipped_setup("sl2_borel")
    fam0 = kapranov_brackets(s.connection, max_arity=4)
    fam1 = kapranov_brackets(second_sl2_connection(s), max_arity=4)
    phi = ModuleMorphism.identity(s.omega)
    dm = DerivationMorphism(s.delta, s.delta, phi)
    ident = kapranov_morphism(dm, fam0, fam0, max_arity=4)
    assert ident.nonzero_arities() in ([], [1])
    for src, tgt in ((fam0, fam1), (fam1, fam0)):
        mor = kapranov_morphism(dm, src, tgt, max_arity=4)
        report = check_linfty_morphism(mor, 4)
        assert report["passed"], report
    fwd = kapranov_morphism(dm, fam0, fam1, max_arity=3)
    back = kapranov_morphism(dm, fam1, fam0, max_arity=3)
    comp = compose_morphism_families(back, fwd, max_arity=3)
    report = check_linfty_morphism(comp, 3)
    assert report["passed"], report
    print("criterion 5: PASS — derivation morphisms induce tower morphisms, "
          "strictly for the identity, and compose to arity 3")


def test_criterion_6_trivialization_dichotomy():
    s = shipped_setup("sl2_borel")
    assert not s.delta.is_zero()
    for conn in (s.connection, second_sl2_connection(s)):
        fam = kapranov_brackets(conn, max_arity=4)
        triv = trivialization(fam, max_arity=4)
        report = check_linfty_morphism(triv, 4)
        assert report["passed"], report
        assert a_multilinearity_violations(triv, 2)
    print("criterion 6: PASS — towers trivialize over the ground field, but "
          "never A-multilinearly while delta is nonzero")


def test_criterion_7_module_structures():
    s = shipped_setup("sl2_borel")
    conn1 = second_sl2_connection(s)
    fam1 = kapranov_brackets(conn1, max_arity=5)
    mf = kapranov_module(fam1, conn1, max_arity=4)
    for k in (2, 3, 4):
        assert mf.module_tables.get(k, {}) == fam1.module_tables.get(k, {})
    assert check_module_identities(mf, 4)["passed"]
    lm = shipped_setup("adjoint_linear_map")
    fam = kapranov_brackets(lm.connection, max_arity=4)
    coad, conn = coadjoint_module(lm)
    mfc = kapranov_module(fam, conn, max_arity=4)
    assert check_module_identities(mfc, 4)["passed"]
    print("criterion 7: PASS — the regular action reproduces the brackets "
          "and the coadjoint action satisfies the module identities")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_8_validators_and_corrupted_fixtures(capsys):
    for name in ("sl2_borel", "affine_pair", "abelian_trivial",
                 "adjoint_linear_map", "double_adjoint_linear_map"):
        code, _ = run_cli(capsys, "validate",
                          "--input", str(INSTANCES / f"{name}.json"))
        assert code == 0, name
    witnesses = {"bad_jacobi": "(x,y,z)", "bad_d_squared": "d^2(a)",
                 "bad_delta": "delta(d(u))"}
    for name, marker in witnesses.items():
        code, out = run_cli(capsys, "validate",
                            "--input", str(FIXTURES / f"{name}.json"))
        assert code == 1, name
        failures = [f for c in json.loads(out)["checks"]
                    for f in c["failures"]]
        assert any(marker in f for f in failures), (name, failures)
    print("criterion 8: PASS — validators accept every shipped document and "
          "reject each corrupted fixture with a located witness")


def test_criterion_9_cli_determinism(capsys, tmp_path):
    blobs = []
    for i, threads in enumerate(["1", "1", "4"]):
        p = tmp_path / f"run{i}.json"
        code, _ = run_cli(capsys, "check-leibniz",
                          "--input", str(INSTANCES / "affine_pair.json"),
                          "--threads", threads, "--output", str(p))
        assert code == 0
        blobs.append(p.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    print("criterion 9: PASS — reports are byte-identical across repeated "
          "runs and across 1 vs 4 worker threads")
