"""The identity checkers against the per-tuple reference evaluation.

The reference residuals below visit every tuple of every weight and
evaluate every term of an identity on it, building basis-vector arguments
and calling the multilinear maps, with the Koszul sign computed for every
term of every tuple.  The exhaustive checkers of ``kapranov.kapranov``
instead run a join driven by the table entries: an insertion term meets
each inner value only with the outer entries that take its indices, a
partition term runs over the products of its block tables' entries, the
contributions are summed per tuple, and a tuple that no term reaches has
residual zero.  Signs are memoised by the parity pattern of the degrees.
The reports must agree in every field, tuple counts, witnesses (in
``itertools.product`` order) and residuals included, on correct families
and on families with one corrupted entry.

``check_leibniz_infinity`` and ``check_linfty_morphism`` decide each
weight on module-basis tuples and ask the exhaustive checkers only for the
weights that fail there; their reports must equal the exhaustive ones on
every instance document and on families with one corrupted module-table
value, whose k-basis tables are extended afresh.  Both run the same join,
the exhaustive checkers on k-basis tables read over the ground field.  Its
partition terms on module tables, where A-coefficients pass the outer map
and the earlier basis vectors, must equal signed evaluations on elements
over the graded toy, whose generators and basis degrees are odd; so must
its insertion terms with an inner map of degree 0 or -1, the
contractions of a tower step.
"""

from __future__ import annotations

import copy
import functools
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
from kapranov.graded import (MultilinearMap, koszul_sign,
                             ordered_partitions, partition_sign, shuffles)
from kapranov import kapranov
from kapranov.kapranov import (BracketFamily, MorphismFamily,
                               _Insertion, _Partition, _module_residuals,
                               _leibniz_structures,
                               _morphism_lhs_structures,
                               _morphism_rhs_structures,
                               check_leibniz_infinity, check_linfty_morphism,
                               exhaustive_leibniz,
                               exhaustive_morphism, homotopy_iso,
                               kapranov_brackets, kapranov_morphism,
                               trivialization)
from kapranov.modules import DgModule, ModuleElement, ModuleMorphism
from module_tower import (check_module_identities, coadjoint_module,
                          kapranov_module, module_structures)
from oracles import (eval_multilinear, eval_table_on_elements, simple_tensor,
                     spelled)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "instances").glob("*.json"))
SL2_SHIFTED = ROOT / "bench" / "instances" / "sl2_borel_shifted.json"
SL3 = ROOT / "bench" / "instances" / "sl3_borel.json"
GRADED_TOY = ROOT / "tests" / "fixtures" / "graded_toy.json"
DOCUMENTS = SHIPPED + sorted((ROOT / "bench" / "instances").glob("*.json")) \
    + sorted((ROOT / "tests" / "fixtures").glob("*.json"))


# ---------------------------------------------------------------------------
# the reference: one residual per tuple, every term evaluated in full

def leibniz_residual(fam, keys, structures) -> ModuleElement:
    degs = [fam.kb.degrees[i] for i in keys]
    zero = fam.kb.ground.zero()
    total = zero
    for (i, j, k, sigma) in structures:
        lam_i = fam.brackets[i]
        lam_j = fam.brackets[j]
        eps = koszul_sign(sigma, degs[:k - 1])
        front = sum(degs[sigma[t] - 1] for t in range(k - j))
        sign = eps * (-1 if front % 2 else 1)
        inner_key = tuple(keys[sigma[t] - 1] for t in range(k - j, k - 1)) + (keys[k - 1],)
        inner = lam_j.table.get(inner_key)
        if inner is None:
            continue
        outer_args = ([fam.kb.kvec({keys[sigma[t] - 1]: 1})
                       for t in range(k - j)]
                      + [inner]
                      + [fam.kb.kvec({keys[t]: 1})
                         for t in range(k, len(keys))])
        total = total + eval_multilinear(lam_i, outer_args).scale(sign)
    return total


def morphism_residual(mor, keys, lhs_structs, rhs_structs) -> ModuleElement:
    skb = mor.source.kb
    tkb = mor.target.kb
    degs = [skb.degrees[i] for i in keys]
    n = len(keys)
    total = tkb.ground.zero()
    for (k, p, sigma) in lhs_structs:
        lam = mor.source.brackets[p + 1]
        f = mor.maps[n - p]
        eps = koszul_sign(sigma, degs[:k + p])
        front = sum(degs[sigma[t] - 1] for t in range(k))
        sign = eps * (-1 if front % 2 else 1)
        inner_key = tuple(keys[sigma[t] - 1] for t in range(k, k + p)) + (keys[k + p],)
        inner = lam.table.get(inner_key)
        if inner is None:
            continue
        args = ([skb.kvec({keys[sigma[t] - 1]: 1})
                 for t in range(k)]
                + [inner]
                + [skb.kvec({keys[t]: 1})
                   for t in range(k + p + 1, n)])
        total = total + eval_multilinear(f, args).scale(sign)
    for blocks in rhs_structs:
        q = len(blocks)
        lamp = mor.target.brackets[q]
        eps = partition_sign(blocks, degs)
        args = []
        for block in blocks:
            fk = mor.maps[len(block)]
            val = fk.table.get(tuple(keys[b - 1] for b in block))
            if val is None:
                args = None
                break
            args.append(val)
        if args is None:
            continue
        total = total - eval_multilinear(lamp, args).scale(eps)
    return total


def module_residual(m, keys, ekey, part1, part2) -> ModuleElement:
    fam = m.algebra_family
    skb = fam.kb
    ekb = m.kb_e
    n = len(keys) + 1
    degs = [skb.degrees[i] for i in keys]
    total = ekb.ground.zero()
    e_vec = ekb.kvec({ekey: 1})
    for (i, j, k, sigma) in part1:
        lam = fam.brackets[j]
        mu = m.actions[i]
        eps = koszul_sign(sigma, degs[:k - 1])
        front = sum(degs[sigma[t] - 1] for t in range(k - j))
        sign = eps * (-1 if front % 2 else 1)
        inner_key = tuple(keys[sigma[t] - 1] for t in range(k - j, k - 1)) + (keys[k - 1],)
        inner = lam.table.get(inner_key)
        if inner is None:
            continue
        args = ([skb.kvec({keys[sigma[t] - 1]: 1})
                 for t in range(k - j)]
                + [inner]
                + [skb.kvec({keys[t]: 1})
                   for t in range(k, n - 1)]
                + [e_vec])
        total = total + eval_multilinear(mu, args).scale(sign)
    for (i, j, sigma) in part2:
        mu_j = m.actions[j]
        mu_i = m.actions[i]
        eps = koszul_sign(sigma, degs)
        front = sum(degs[sigma[t] - 1] for t in range(n - j))
        sign = eps * (-1 if front % 2 else 1)
        inner_key = tuple(keys[sigma[t] - 1] for t in range(n - j, n - 1)) + (ekey,)
        inner = mu_j.table.get(inner_key)
        if inner is None:
            continue
        args = ([skb.kvec({keys[sigma[t] - 1]: 1})
                 for t in range(n - j)]
                + [inner])
        total = total + eval_multilinear(mu_i, args).scale(sign)
    return total


def reference_leibniz(fam, n_max, max_witnesses=10) -> dict:
    active = set(fam.nonzero_arities())
    report = {"passed": True, "weights": []}
    n_keys = len(fam.kb.keys)
    for n in range(1, n_max + 1):
        structures = _leibniz_structures(n, active)
        entry = {"n": n, "terms": len(structures), "tuples": 0, "failures": []}
        if structures:
            tuples = list(itertools.product(range(n_keys), repeat=n))
            entry["tuples"] = len(tuples)

            def job(keys):
                r = leibniz_residual(fam, keys, structures)
                return (keys, r) if not r.is_zero() else None

            for keys, r in filter(None, map(job, tuples)):
                report["passed"] = False
                if len(entry["failures"]) < max_witnesses:
                    entry["failures"].append({
                        "tuple": [fam.kb.basis.names[i] for i in keys],
                        "residual": spelled(r),
                    })
        report["weights"].append(entry)
    return report


def reference_morphism(mor, n_max, max_witnesses=10) -> dict:
    f_active = set(mor.nonzero_arities())
    lam_active = set(mor.source.nonzero_arities())
    lamp_active = set(mor.target.nonzero_arities())
    report = {"passed": True, "weights": []}
    n_keys = len(mor.source.kb.keys)
    for n in range(1, n_max + 1):
        lhs = _morphism_lhs_structures(n, f_active, lam_active)
        rhs = _morphism_rhs_structures(n, f_active, lamp_active)
        entry = {"n": n, "terms": len(lhs) + len(rhs), "tuples": 0, "failures": []}
        if lhs or rhs:
            tuples = list(itertools.product(range(n_keys), repeat=n))
            entry["tuples"] = len(tuples)

            def job(keys):
                r = morphism_residual(mor, keys, lhs, rhs)
                return (keys, r) if not r.is_zero() else None

            for keys, r in filter(None, map(job, tuples)):
                report["passed"] = False
                if len(entry["failures"]) < max_witnesses:
                    entry["failures"].append({
                        "tuple": [mor.source.kb.basis.names[i] for i in keys],
                        "residual": spelled(r),
                    })
        report["weights"].append(entry)
    return report


def reference_module(m, n_max, max_witnesses=10) -> dict:
    lam_active = set(m.algebra_family.nonzero_arities())
    mu_active = set(m.nonzero_arities())
    report = {"passed": True, "weights": []}
    nb = len(m.algebra_family.kb.keys)
    ne = len(m.kb_e.keys)
    for n in range(1, n_max + 1):
        part1, part2 = module_structures(n, lam_active, mu_active)
        entry = {"n": n, "terms": len(part1) + len(part2), "tuples": 0,
                 "failures": []}
        if part1 or part2:
            tuples = list(itertools.product(
                *([range(nb)] * (n - 1) + [range(ne)])))
            entry["tuples"] = len(tuples)

            def job(full_key):
                keys, ekey = full_key[:-1], full_key[-1]
                r = module_residual(m, keys, ekey, part1, part2)
                return (full_key, r) if not r.is_zero() else None

            for full_key, r in filter(None, map(job, tuples)):
                report["passed"] = False
                if len(entry["failures"]) < max_witnesses:
                    names = ([m.algebra_family.kb.basis.names[i]
                              for i in full_key[:-1]]
                             + [m.kb_e.basis.names[full_key[-1]]])
                    entry["failures"].append({"tuple": names,
                                              "residual": spelled(r)})
        report["weights"].append(entry)
    return report


# ---------------------------------------------------------------------------
# families

def instance(path) -> Instance:
    return Instance(load_document(str(path)))


def arity_of(inst: Instance) -> int:
    return inst.options.get("max_arity", 4)


def second_sl2_connection(setup) -> DeltaConnection:
    v = simple_tensor(setup.connection.tensor,
                      ModuleElement.basis_vector(setup.delta.target, 0),
                      ModuleElement.basis_vector(setup.bmod, 0))
    return DeltaConnection(setup.delta, setup.bmod, {0: v})


def connection_morphism(inst: Instance, n_max: int):
    """The morphism tower the ``morphism`` command checks."""
    fam0 = kapranov_brackets(inst.setup.connection, n_max)
    fam1 = (kapranov_brackets(inst.second_connection, n_max)
            if inst.second_connection is not None else fam0)
    dm = DerivationMorphism(inst.setup.delta, inst.setup.delta,
                            ModuleMorphism.identity(inst.setup.omega))
    return kapranov_morphism(dm, fam0, fam1, max_arity=n_max)


def homotopy_morphism(inst: Instance):
    s0, s1 = inst.setup, inst.second_setup
    h = splitting_homotopy(s0, s1)
    mor, _ = homotopy_iso(s0.connection, h, DeltaConnection(h, s0.bmod),
                          max_arity=4)
    return mor


def regular_action(max_arity: int = 4):
    s = shipped_setup("sl2_borel")
    conn1 = second_sl2_connection(s)
    fam1 = kapranov_brackets(conn1, max_arity=5)
    return kapranov_module(fam1, conn1, max_arity=max_arity)


def coadjoint_action(max_arity: int = 4):
    s = shipped_setup("adjoint_linear_map")
    fam = kapranov_brackets(s.connection, max_arity=max_arity)
    coad, conn = coadjoint_module(s)
    return kapranov_module(fam, conn, max_arity=max_arity)


def corrupt(m: MultilinearMap, key=None, factor=2) -> MultilinearMap:
    """A copy of ``m`` with one entry scaled by ``factor``."""
    out = copy.copy(m)
    out.table = dict(m.table)
    key = next(iter(out.table)) if key is None else key
    out.table[key] = out.table[key].scale(factor)
    return out


# ---------------------------------------------------------------------------
# agreement on correct families

@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_leibniz_matches_reference_on_shipped(path):
    inst = instance(path)
    fam = kapranov_brackets(inst.setup.connection, arity_of(inst))
    report = check_leibniz_infinity(fam, arity_of(inst))
    assert report == reference_leibniz(fam, arity_of(inst))
    assert report["passed"]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_morphism_matches_reference_on_shipped(path):
    inst = instance(path)
    n_max = min(arity_of(inst), 4)
    mor = connection_morphism(inst, n_max)
    report = check_linfty_morphism(mor, n_max)
    assert report == reference_morphism(mor, n_max)
    assert report["passed"]


@pytest.mark.parametrize("path", [p for p in SHIPPED if "second_splitting"
                                  in p.read_text()], ids=lambda p: p.stem)
def test_homotopy_iso_matches_reference_on_shipped(path):
    mor = homotopy_morphism(instance(path))
    report = check_linfty_morphism(mor, 4)
    assert report == reference_morphism(mor, 4)
    assert report["passed"]


def test_trivialization_matches_reference():
    # k-linear maps in every arity: the partition terms of the morphism
    # equation combine several nonzero f-values
    fam = kapranov_brackets(
        second_sl2_connection(shipped_setup("sl2_borel")), 4)
    triv = trivialization(fam, max_arity=4)
    report = check_linfty_morphism(triv, 4)
    assert report == reference_morphism(triv, 4)
    assert report["passed"]


@pytest.mark.parametrize("action", [regular_action, coadjoint_action])
def test_module_matches_reference(action):
    mf = action()
    report = check_module_identities(mf, 4)
    assert report == reference_module(mf, 4)
    assert report["passed"]


def test_leibniz_matches_reference_on_shifted_sl2_to_weight_5():
    inst = instance(SL2_SHIFTED)
    fam = kapranov_brackets(inst.setup.connection, 5)
    assert fam.nonzero_arities() == [1, 2, 3, 4, 5]
    report = check_leibniz_infinity(fam, 5)
    assert report == reference_leibniz(fam, 5)
    assert report["passed"]


# ---------------------------------------------------------------------------
# agreement on corrupted families: the same witnesses, in the same order

def test_scaled_r3_entry_gives_identical_witnesses():
    fam = kapranov_brackets(instance(SL2_SHIFTED).setup.connection, 4)
    bad = copy.copy(fam)
    bad.brackets = dict(fam.brackets)
    bad.brackets[3] = corrupt(fam.brackets[3])
    report = exhaustive_leibniz(bad, 4)
    assert not report["passed"]
    assert report == reference_leibniz(bad, 4)


def test_sign_flipped_f2_entry_gives_identical_witnesses():
    mor = connection_morphism(instance(ROOT / "instances/sl2_borel.json"), 4)
    assert 2 in mor.nonzero_arities()
    bad = copy.copy(mor)
    bad.maps = dict(mor.maps)
    bad.maps[2] = corrupt(mor.maps[2], factor=-1)
    for cap in (10, 3):
        report = exhaustive_morphism(bad, 4, max_witnesses=cap)
        assert not report["passed"]
        assert report == reference_morphism(bad, 4, max_witnesses=cap)
    # weight 3 fails on more tuples than the cap lets through
    assert len(report["weights"][2]["failures"]) == 3


def test_corrupted_mu_entry_gives_identical_witnesses():
    mf = regular_action()
    bad = copy.copy(mf)
    bad.actions = dict(mf.actions)
    bad.actions[3] = corrupt(mf.actions[3], factor=3)
    report = check_module_identities(bad, 4)
    assert not report["passed"]
    assert report == reference_module(bad, 4)


@functools.cache
def corruption_targets() -> dict:
    """(family, weight bound) per (setup, kind) of tower the property
    below corrupts: the bracket tower R, a morphism tower f and a module
    tower mu, on sl2/borel and on the graded toy, whose k-basis has odd
    degrees (so the memoised signs see both parities)."""
    sl2 = kapranov_brackets(
        second_sl2_connection(shipped_setup("sl2_borel")), 4)
    toy = instance(GRADED_TOY)
    toy_fam = kapranov_brackets(toy.setup.connection, 3)
    omega = toy.setup.omega
    # delta = 0, so 2 id is a derivation morphism with f_2, f_3 nonzero
    twice = DerivationMorphism(
        toy.setup.delta, toy.setup.delta, ModuleMorphism(
            omega, omega, 0, {(i, i): AlgebraElement.scalar(2)
                              for i in range(omega.rank)}))
    return {
        ("sl2/borel", "R"): (sl2, 4),
        ("sl2/borel", "f"): (connection_morphism(
            instance(ROOT / "instances/sl2_borel.json"), 4), 4),
        ("sl2/borel", "mu"): (regular_action(4), 4),
        ("graded", "R"): (toy_fam, 3),
        ("graded", "f"): (kapranov_morphism(twice, toy_fam, toy_fam, 3), 3),
        ("graded", "mu"): (
            kapranov_module(toy_fam, toy.setup.connection, 3), 3),
    }


# the tables each kind of tower keeps, its checker and its reference
KINDS = {"R": ("brackets", exhaustive_leibniz, reference_leibniz),
         "f": ("maps", exhaustive_morphism, reference_morphism),
         "mu": ("actions", check_module_identities, reference_module)}


def corrupt_entry(draw, m: MultilinearMap) -> MultilinearMap:
    """A copy of ``m`` with one entry scaled, added to or deleted.  An
    addition goes to any tuple of the input bases, present or not; on an
    empty table every corruption is an addition."""
    out = copy.copy(m)
    out.table = dict(m.table)
    op = draw(st.sampled_from(["scale", "add", "delete"]), label="op")
    if op != "add" and out.table:
        key = draw(st.sampled_from(sorted(out.table)), label="key")
        if op == "delete":
            del out.table[key]
        else:
            factor = draw(st.sampled_from([-1, 2, Fraction(1, 2)]),
                          label="factor")
            out.table[key] = out.table[key].scale(factor)
        return out
    key = tuple(draw(st.integers(0, len(b) - 1), label="key")
                for b in m.input_bases)
    idx = draw(st.integers(0, len(m.output_basis) - 1), label="output")
    c = draw(st.sampled_from([1, -1, Fraction(1, 3)]), label="coefficient")
    ground = DgModule(CdgaPresentation([]), m.output_basis)
    out.set(key, out.table.get(key, ground.zero())
            + ModuleElement(ground, {idx: AlgebraElement.scalar(c)}))
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_corrupted_entry_gives_the_reference_report(data):
    target = data.draw(st.sampled_from(sorted(corruption_targets())),
                       label="target")
    family, n_max = corruption_targets()[target]
    attr, check, reference = KINDS[target[1]]
    k = data.draw(st.integers(1, n_max), label="arity")
    maps = dict(getattr(family, attr))
    maps[k] = corrupt_entry(data.draw, maps[k])
    bad = copy.copy(family)
    setattr(bad, attr, maps)
    # the reference with every witness, cut to each cap below
    full = reference(bad, n_max, max_witnesses=10 ** 9)
    for cap in (0, 1, 3):
        want = copy.deepcopy(full)
        for w in want["weights"]:
            del w["failures"][cap:]
        assert check(bad, n_max, max_witnesses=cap) == want


def test_any_residual_fails_the_report_without_witnesses():
    mor = connection_morphism(instance(ROOT / "instances/sl2_borel.json"), 4)
    bad = copy.copy(mor)
    bad.maps = dict(mor.maps)
    bad.maps[2] = corrupt(mor.maps[2], factor=-1)
    report = exhaustive_morphism(bad, 4, max_witnesses=0)
    assert report["passed"] is False
    assert report == reference_morphism(bad, 4, max_witnesses=0)


def test_sl3_borel_to_weight_3_covers_every_tuple():
    fam = kapranov_brackets(instance(SL3).setup.connection, 3)
    report = check_leibniz_infinity(fam, 3)
    assert report["passed"]
    assert [w["tuples"] for w in report["weights"]] == [96, 9216, 884736]


# ---------------------------------------------------------------------------
# memoised signs

@st.composite
def shuffle_and_degrees(draw):
    k = draw(st.integers(1, 7))
    j = draw(st.integers(1, k))
    sigma = draw(st.sampled_from(list(shuffles(k - j, j - 1))))
    degrees = st.lists(st.integers(-3, 4), min_size=k, max_size=k)
    return k, j, sigma, draw(degrees), draw(degrees)


@st.composite
def partition_and_degrees(draw):
    n = draw(st.integers(1, 6))
    q = draw(st.integers(1, n))
    blocks = draw(st.sampled_from(list(ordered_partitions(n, q))))
    degrees = st.lists(st.integers(-3, 4), min_size=n, max_size=n)
    return blocks, draw(degrees), draw(degrees)


def parity(degs):
    return tuple(d % 2 for d in degs)


@settings(max_examples=300, deadline=None)
@given(shuffle_and_degrees())
def test_memoised_insertion_sign_is_the_koszul_sign(case):
    k, j, sigma, degs, other = case
    term = _Insertion(None, None, k, j, sigma)
    for d in (degs, other, degs):
        front = sum(d[s - 1] for s in sigma[:k - j])
        want = koszul_sign(sigma, d[:k - 1]) * (-1 if front % 2 else 1)
        assert term.sign(d, parity(d)) == want


@settings(max_examples=300, deadline=None)
@given(partition_and_degrees())
def test_memoised_partition_sign_is_the_partition_sign(case):
    blocks, degs, other = case
    term = _Partition(None, [None] * len(blocks), blocks)
    flat = tuple(itertools.chain.from_iterable(blocks))
    for d in (degs, other, degs):
        assert term.sign(d, parity(d)) == partition_sign(blocks, d)
        assert term.sign(d, parity(d)) == koszul_sign(flat, d)


# ---------------------------------------------------------------------------
# the partition branch of the join on module tables

def draw_homogeneous_table(draw, module, arity: int, degree: int) -> dict:
    """A module table ``module``^arity -> ``module`` whose value at a key
    has the key's degree plus ``degree``: up to two terms c.m.e_j with a
    monomial m of the length that degree asks for."""
    degs = module.basis.degrees
    table = {}
    for key in itertools.product(range(module.rank), repeat=arity):
        want = degree + sum(degs[i] for i in key)
        terms = [(j, mon) for j in range(module.rank)
                 for mon in module.algebra.monomials(want - degs[j])]
        chosen = draw(st.lists(st.sampled_from(terms), unique=True,
                               max_size=2)) if terms else []
        value = module.zero()
        for j, mon in chosen:
            c = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
            value = value + ModuleElement(
                module, {j: AlgebraElement.monomial(mon, c)})
        if not value.is_zero():
            table[key] = value
    return table


def reference_partition_rows(term: _Partition, module, n: int) -> dict:
    """-partition_sign(I, x) outer(f(x_{I_1}), ..., f(x_{I_q})) on every
    module-basis n-tuple x, evaluated on elements, as rows of nonzero
    {(basis index, monomial): coefficient}."""
    degs = module.basis.degrees
    out = {}
    for x in itertools.product(range(module.rank), repeat=n):
        values = [table.get(tuple(x[b - 1] for b in block))
                  for table, block in zip(term.tables, term.blocks)]
        if None in values:
            continue
        v = eval_table_on_elements(term.outer, term.degree, values,
                                   [module] * len(values), module)
        v = v.scale(-partition_sign(term.blocks, [degs[i] for i in x]))
        if not v.is_zero():
            out[x] = {(i, mon): c for i, a in v.coeffs.items()
                      for mon, c in a.terms.items()}
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_partition_rows_equal_signed_evaluations_on_elements(data):
    # the graded toy's B has basis degrees 0 and -1 over odd generators,
    # so the coefficients of the block values pass odd basis vectors and,
    # at outer degree 1, the outer map
    module = instance(GRADED_TOY).setup.bmod
    n = data.draw(st.integers(1, 3), label="n")
    blocks = data.draw(st.sampled_from(
        [b for q in range(1, n + 1) for b in ordered_partitions(n, q)]),
        label="blocks")
    tables = [draw_homogeneous_table(data.draw, module, len(b), 0)
              for b in blocks]
    for degree in (0, 1):
        outer = draw_homogeneous_table(data.draw, module, len(blocks), degree)
        term = _Partition(outer, tables, blocks, degree)
        rows = _module_residuals([module.basis.degrees] * n, [], [term],
                                 module, {})
        got = {x: {k: c for k, c in row.items() if c}
               for x, row in rows.items()}
        assert {x: row for x, row in got.items() if row} \
            == reference_partition_rows(term, module, n), degree


def reference_insertion_rows(term: _Insertion, module, n: int) -> dict:
    """sign(sigma) (-1)^{r'|x_F|} outer(x_F, inner(x_M, x_k), x_{k+1}, ...,
    x_n), r' the inner map's degree, on every module-basis n-tuple x, the
    outer map evaluated on elements, as rows of nonzero {(basis index,
    monomial): coefficient}."""
    degs = module.basis.degrees
    k, sigma = term.k, term.sigma
    front, middle = sigma[:len(term.front)], sigma[len(term.front):]
    out = {}
    for x in itertools.product(range(module.rank), repeat=n):
        inner = term.inner.get(tuple(x[b - 1] for b in middle) + (x[k - 1],))
        if inner is None:
            continue
        args = ([ModuleElement.basis_vector(module, x[b - 1]) for b in front]
                + [inner]
                + [ModuleElement.basis_vector(module, i) for i in x[k:]])
        v = eval_table_on_elements(term.outer, term.degree, args,
                                   [module] * len(args), module)
        d = [degs[i] for i in x]
        moved = term.inner_degree * sum(d[b - 1] for b in front)
        v = v.scale(koszul_sign(sigma, d[:k - 1]) * (-1 if moved % 2 else 1))
        if not v.is_zero():
            out[x] = {(i, mon): c for i, a in v.coeffs.items()
                      for mon, c in a.terms.items()}
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_insertion_rows_equal_signed_evaluations_on_elements(data):
    # inner maps of degree 0 and -1 are a tower step's contractions along
    # a dg derivation and along a homotopy; on the graded toy's B the
    # inner value's odd coefficients pass x_F and the outer map, and
    # (-1)^{r'|x_F|} shows where x_F is odd
    module = instance(GRADED_TOY).setup.bmod
    n = data.draw(st.integers(1, 4), label="n")
    k = data.draw(st.integers(1, n), label="k")
    j = data.draw(st.integers(1, k), label="j")
    sigma = data.draw(st.sampled_from(list(shuffles(k - j, j - 1))),
                      label="sigma")
    degree = data.draw(st.sampled_from([0, 1]), label="outer degree")
    outer = draw_homogeneous_table(data.draw, module, n - j + 1, degree)
    for inner_degree in (0, -1):
        inner = draw_homogeneous_table(data.draw, module, j, inner_degree)
        term = _Insertion(outer, inner, k, j, sigma, degree, inner_degree)
        rows = _module_residuals([module.basis.degrees] * n, [term], [],
                                 module, {})
        got = {x: {key: c for key, c in row.items() if c}
               for x, row in rows.items()}
        assert {x: row for x, row in got.items() if row} \
            == reference_insertion_rows(term, module, n), inner_degree


# ---------------------------------------------------------------------------
# the module-basis decision against the exhaustive checkers

@pytest.fixture
def decide_always(monkeypatch):
    """Decide on module-basis tuples on one-generator algebras too."""
    monkeypatch.setattr(kapranov, "DECIDE_MIN_GENERATORS", 0)


def test_documents_are_all_covered():
    assert len(DOCUMENTS) == 11


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_module_basis_reports_equal_the_exhaustive_ones(path, decide_always):
    inst = instance(path)
    n_max = arity_of(inst)
    fam = kapranov_brackets(inst.setup.connection, n_max)
    assert check_leibniz_infinity(fam, n_max) == exhaustive_leibniz(
        kapranov_brackets(inst.setup.connection, n_max), n_max)
    if inst.kind != "lie_pair":
        return
    n_max = min(n_max, 4)
    assert check_linfty_morphism(connection_morphism(inst, n_max), n_max) \
        == exhaustive_morphism(connection_morphism(inst, n_max), n_max)
    if inst.second_setup is not None:
        assert check_linfty_morphism(homotopy_morphism(inst), 4) \
            == exhaustive_morphism(homotopy_morphism(inst), 4)


def refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return refused


@pytest.mark.parametrize("path", [SL2_SHIFTED, SL3], ids=lambda p: p.stem)
def test_a_passing_decision_builds_no_kbasis_table(path, monkeypatch):
    inst = instance(path)
    fam = kapranov_brackets(inst.setup.connection, 3)
    mor = connection_morphism(inst, 3)
    for name in ("extend_module_table", "differential_table",
                 "exhaustive_leibniz", "exhaustive_morphism"):
        monkeypatch.setattr(kapranov, name, refuse(name))
    assert check_leibniz_infinity(fam, 3)["passed"]
    assert check_linfty_morphism(mor, 3)["passed"]


def test_one_generator_algebras_go_to_the_exhaustive_checker(monkeypatch):
    fam = kapranov_brackets(instance(ROOT / "instances" / "affine_pair.json")
                            .setup.connection, 3)
    assert fam.module.algebra.n_generators < kapranov.DECIDE_MIN_GENERATORS
    calls = []
    monkeypatch.setattr(kapranov, "exhaustive_leibniz",
                        lambda *args: calls.append(args) or {})
    assert check_leibniz_infinity(fam, 3) == {}
    assert calls == [(fam, 3, 10)]


@functools.cache
def module_corruption_targets() -> dict:
    """The R and f towers of :func:`corruption_targets`, whose module
    tables the property below corrupts."""
    return {key: value for key, value in corruption_targets().items()
            if key[1] != "mu"}


def corrupt_module_table(draw, table: dict, arity: int, source,
                         target) -> dict:
    """A copy of a module table with one value scaled, added to or deleted.
    An addition puts m.e_j, for a monomial m of any length, on any tuple,
    so it may break the degree of the value."""
    out = dict(table)
    op = draw(st.sampled_from(["scale", "add", "delete"]), label="op")
    if op != "add" and out:
        key = draw(st.sampled_from(sorted(out)), label="key")
        if op == "delete":
            del out[key]
        else:
            factor = draw(st.sampled_from([-1, 2, Fraction(1, 2)]),
                          label="factor")
            out[key] = out[key].scale(factor)
        return out
    key = tuple(draw(st.integers(0, source.rank - 1), label="key")
                for _ in range(arity))
    j = draw(st.integers(0, target.rank - 1), label="output")
    mon = draw(st.sampled_from(list(target.algebra.monomials())),
               label="monomial")
    c = draw(st.sampled_from([1, -1, Fraction(1, 3)]), label="coefficient")
    out[key] = out.get(key, target.zero()) + ModuleElement(
        target, {j: AlgebraElement.monomial(mon, c)})
    if out[key].is_zero():
        del out[key]
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_corrupted_module_table_gives_the_exhaustive_report(data):
    target = data.draw(st.sampled_from(sorted(module_corruption_targets())),
                       label="target")
    family, n_max = module_corruption_targets()[target]
    tables = dict(family.module_tables)
    k = data.draw(st.sampled_from(sorted(tables)), label="arity")
    if target[1] == "R":
        modules = family.module, family.module
        check, exhaustive, reference = (check_leibniz_infinity,
                                        exhaustive_leibniz, reference_leibniz)

        def fresh():
            return BracketFamily(family.module, tables, family.connection)
    else:
        modules = family.source.module, family.target.module
        check, exhaustive, reference = (check_linfty_morphism,
                                        exhaustive_morphism,
                                        reference_morphism)

        def fresh():
            return MorphismFamily(family.source, family.target,
                                  module_tables=tables)
    tables[k] = corrupt_module_table(data.draw, tables[k], k, *modules)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kapranov, "DECIDE_MIN_GENERATORS", 0)
        report = check(fresh(), n_max, max_witnesses=3)
    assert report == exhaustive(fresh(), n_max, max_witnesses=3)
    if not report["passed"]:
        assert report == reference(fresh(), n_max, max_witnesses=3)
