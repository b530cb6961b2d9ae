"""The shared tower step against the four recursion loops it replaced.

Every tower (the package's brackets, morphisms and homotopy
isomorphism, and the module actions of ``tests/module_tower.py``) is
filled by one covariant-commutator step, ``_tower_step``; the homotopy isomorphism also takes its
[hat_{b_0}, R_p] terms from it, run along a connection hat of the
homotopy h.  The step's derivative runs as insertion terms of the
identity checkers' join, which visits only the tuples that a table entry
reaches.  The ``reference_*`` functions below are the dense loops each
tower used to carry, over every tuple of basis indices, kept verbatim as
the oracle: the tables must be equal, key order included, on every
shipped document and on the bench's sl3 over its Borel, the widest.  A
Hypothesis property draws random delta-connections and asks the same of
them, and that the towers they generate satisfy their identities.  Another draws a random homotopy h
and random connections along delta and along h: the isomorphism must
equal the reference loop to arity 4, where that loop is right, and pass
the morphism equation to weight 5, which the loop fails where a g-value
carries an A-coefficient.
"""

from __future__ import annotations

import itertools
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import linear_map_data, shipped_setup
from kapranov.algebra import AlgebraElement, CdgaPresentation
from kapranov.builders import splitting_homotopy
from kapranov.cli import Instance, load_document
from kapranov.connections import DeltaConnection, atiyah_cocycle
from kapranov.derivations import (DerivationHomotopy, DerivationMorphism,
                                  DgDerivation, homotopy_offset)
from kapranov.graded import GradedBasis, ordered_partitions, partition_sign
from kapranov.kapranov import (check_leibniz_infinity,
                               check_linfty_morphism,
                               dual_morphism_between, homotopy_iso,
                               kapranov_brackets, kapranov_morphism)
from kapranov.modules import (DgModule, ModuleElement, ModuleMorphism,
                              apply_module_differential, contract,
                              dual_module, tensor_module)
from module_tower import (check_module_identities, coadjoint_module,
                          kapranov_module)
from oracles import (atiyah_bilinear, derive_tensor, eval_table_on_elements,
                     eval_table_on_tensor, simple_tensor, tensor_of_elements)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "instances").glob("*.json"))
BENCH = ROOT / "bench" / "instances"
GRADED_TOY = ROOT / "tests" / "fixtures" / "graded_toy.json"


# ---------------------------------------------------------------------------
# the reference loops


def reference_next_bracket_table(connection, prev, k):
    module = connection.module
    out = {}
    for b0 in range(module.rank):
        b0_elt = ModuleElement.basis_vector(module, b0)
        d0 = module.basis.degrees[b0]
        cache = {}

        def op(i):
            if i not in cache:
                cache[i] = contract(b0_elt, connection(
                    ModuleElement.basis_vector(module, i)))
            return cache[i]

        sign0 = -1 if d0 % 2 else 1
        for args in itertools.product(range(module.rank), repeat=k):
            total = module.zero()
            prev_val = prev.get(args)
            if prev_val is not None:
                total = total + contract(b0_elt, connection(prev_val)).scale(sign0)
            derived = derive_tensor({args: AlgebraElement.scalar(1)},
                                    [op] * k, d0, [module] * k)
            total = total - eval_table_on_tensor(prev, 1, derived, module)
            if not total.is_zero():
                out[(b0,) + args] = total
        cache.clear()
    return out


def reference_bracket_tables(connection, max_arity):
    module = connection.module
    module_tables = {}
    if max_arity >= 2:
        at = atiyah_cocycle(connection)
        table2 = {}
        for i in range(module.rank):
            bi = ModuleElement.basis_vector(module, i)
            for j in range(module.rank):
                bj = ModuleElement.basis_vector(module, j)
                v = atiyah_bilinear(at, bi, bj)
                if not v.is_zero():
                    table2[(i, j)] = v
        module_tables[2] = table2
    for k in range(2, max_arity):
        module_tables[k + 1] = reference_next_bracket_table(
            connection, module_tables[k], k)
    return module_tables


def reference_morphism_tables(phi, source_fam, target_fam, max_arity):
    conn = source_fam.connection
    conn_p = target_fam.connection
    b_mod = source_fam.module
    bp_mod = target_fam.module
    f1 = dual_morphism_between(phi.phi, b_mod, bp_mod)
    tables = {}
    tables[1] = {(i,): f1.of_basis(i) for i in range(b_mod.rank)
                 if not f1.of_basis(i).is_zero()}
    for k in range(1, max_arity):
        prev = tables[k]
        new = {}
        for b0 in range(b_mod.rank):
            b0_elt = ModuleElement.basis_vector(b_mod, b0)
            f1b0 = f1(b0_elt)
            d0 = b_mod.basis.degrees[b0]
            cache = {}

            def op(i):
                if i not in cache:
                    cache[i] = contract(b0_elt, conn(
                        ModuleElement.basis_vector(b_mod, i)))
                return cache[i]

            for args in itertools.product(range(b_mod.rank), repeat=k):
                total = bp_mod.zero()
                prev_val = prev.get(args)
                if prev_val is not None and not f1b0.is_zero():
                    total = total + contract(f1b0, conn_p(prev_val))
                derived = derive_tensor({args: AlgebraElement.scalar(1)},
                                        [op] * k, d0, [b_mod] * k)
                total = total - eval_table_on_tensor(prev, 0, derived, bp_mod)
                if not total.is_zero():
                    new[(b0,) + args] = total
            cache.clear()
        tables[k + 1] = new
    return tables


def reference_covariant_tensor_derivative_with(hat, args, b0_elt, op_degree,
                                               module):
    cache = {}

    def op(i):
        if i not in cache:
            cache[i] = contract(b0_elt, hat(ModuleElement.basis_vector(module, i)))
        return cache[i]

    tensor = tensor_of_elements(args, [module] * len(args))
    return derive_tensor(tensor, [op] * len(args), op_degree,
                         [module] * len(args))


def reference_homotopy_tables(conn, h, hat, max_arity):
    """The isomorphism tower as ``homotopy_iso`` built it with a dense
    partition loop.  Its [hat_{b_0}, R_p] differentiates the basis slots
    of the g-values but not their A-coefficients, so beyond arity 4 it
    repeats that loop's fault wherever a g-value carries an A-coefficient;
    up to arity 4 every g-value it differentiates is g_1 = id."""
    module = conn.module
    dp = homotopy_offset(conn.delta, h)
    values = {}
    for i in range(module.rank):
        e = ModuleElement.basis_vector(module, i)
        v = (conn.values.get(i, conn.tensor.zero())
             + apply_module_differential(hat.tensor, hat(e))
             + hat(module.diff_of_basis(i)))
        if not v.is_zero():
            values[i] = v
    conn_prime = DeltaConnection(dp, module, values)
    tables = {
        1: {(i,): ModuleElement.basis_vector(module, i)
            for i in range(module.rank)},
        2: {},
    }
    r_tables = reference_bracket_tables(conn, max_arity)
    for k in range(2, max_arity):
        prev = tables[k]
        new = {}
        for b0 in range(module.rank):
            b0_elt = ModuleElement.basis_vector(module, b0)
            d0 = module.basis.degrees[b0]
            sign0 = -1 if d0 % 2 else 1
            cp_cache = {}

            def cp_op(i):
                if i not in cp_cache:
                    cp_cache[i] = contract(b0_elt, conn_prime(
                        ModuleElement.basis_vector(module, i)))
                return cp_cache[i]

            for args in itertools.product(range(module.rank), repeat=k):
                degs = [module.basis.degrees[i] for i in args]
                total = module.zero()
                for p in range(2, k + 1):
                    rp = r_tables.get(p)
                    if not rp:
                        continue
                    for blocks in ordered_partitions(k, p):
                        eps = partition_sign(blocks, degs)
                        g_args = []
                        for block in blocks:
                            gt = tables.get(len(block), {})
                            val = gt.get(tuple(args[b - 1] for b in block))
                            if val is None:
                                g_args = None
                                break
                            g_args.append(val)
                        if g_args is None:
                            continue
                        inner = eval_table_on_elements(rp, 1, g_args,
                                                       [module] * p, module)
                        term = contract(b0_elt, hat(inner))
                        derived = reference_covariant_tensor_derivative_with(
                            hat, g_args, b0_elt, d0 - 1, module)
                        sgn = -1 if (d0 - 1) % 2 else 1
                        term = term - eval_table_on_tensor(rp, 1, derived,
                                                           module).scale(sgn)
                        total = total + term.scale(eps * sign0)
                prev_val = prev.get(args)
                if prev_val is not None:
                    total = total + contract(b0_elt, conn_prime(prev_val))
                derived = derive_tensor({args: AlgebraElement.scalar(1)},
                                        [cp_op] * k, d0, [module] * k)
                total = total - eval_table_on_tensor(prev, 0, derived, module)
                if not total.is_zero():
                    new[(b0,) + args] = total
        tables[k + 1] = new
    return tables


def reference_module_tables(fam, conn_e, max_arity):
    conn_b = fam.connection
    b_mod = fam.module
    e_mod = conn_e.module
    tables = {}
    at_e = atiyah_cocycle(conn_e)
    table2 = {}
    for i in range(b_mod.rank):
        bi = ModuleElement.basis_vector(b_mod, i)
        for j in range(e_mod.rank):
            ej = ModuleElement.basis_vector(e_mod, j)
            v = atiyah_bilinear(at_e, bi, ej)
            if not v.is_zero():
                table2[(i, j)] = v
    tables[2] = table2
    for k in range(2, max_arity):
        prev = tables[k]
        new = {}
        slot_modules = [b_mod] * (k - 1) + [e_mod]
        slot_conns = [conn_b] * (k - 1) + [conn_e]
        for b0 in range(b_mod.rank):
            b0_elt = ModuleElement.basis_vector(b_mod, b0)
            d0 = b_mod.basis.degrees[b0]
            sign0 = -1 if d0 % 2 else 1
            ops = []
            for conn in slot_conns:
                cache = {}

                def op(i, conn=conn, cache=cache):
                    if i not in cache:
                        cache[i] = contract(b0_elt, conn(
                            ModuleElement.basis_vector(conn.module, i)))
                    return cache[i]
                ops.append(op)
            for args in itertools.product(
                    *([range(b_mod.rank)] * (k - 1) + [range(e_mod.rank)])):
                total = e_mod.zero()
                prev_val = prev.get(args)
                if prev_val is not None:
                    total = total + contract(b0_elt, conn_e(prev_val)).scale(sign0)
                derived = derive_tensor({args: AlgebraElement.scalar(1)},
                                        ops, d0, slot_modules)
                total = total - eval_table_on_tensor(prev, 1, derived, e_mod)
                if not total.is_zero():
                    new[(b0,) + args] = total
        tables[k + 1] = new
    return tables


# ---------------------------------------------------------------------------
# comparisons


def assert_same_tables(got: dict, want: dict):
    """Equal tables of tables, arities and keys in the same order."""
    assert list(got) == list(want)
    for k, table in want.items():
        assert list(got[k].items()) == list(table.items()), f"arity {k}"


def assert_brackets_match(conn, max_arity):
    fam = kapranov_brackets(conn, max_arity)
    assert_same_tables(fam.module_tables,
                       reference_bracket_tables(conn, max_arity))
    return fam


def assert_morphism_matches(source_fam, target_fam, max_arity):
    dm = DerivationMorphism(source_fam.connection.delta,
                            target_fam.connection.delta,
                            ModuleMorphism.identity(
                                source_fam.connection.delta.target))
    mor = kapranov_morphism(dm, source_fam, target_fam, max_arity)
    assert_same_tables(mor.module_tables, reference_morphism_tables(
        dm, source_fam, target_fam, max_arity))
    return mor


def assert_module_matches(fam, conn_e, max_arity):
    mf = kapranov_module(fam, conn_e, max_arity)
    assert_same_tables(mf.module_tables,
                       reference_module_tables(fam, conn_e, max_arity))
    return mf


def assert_homotopy_matches(inst, max_arity=4):
    """The isomorphism between the towers of the two splittings, with the
    zero hat connection, as the ``homotopy`` command builds it."""
    s0, s1 = inst.setup, inst.second_setup
    h = splitting_homotopy(s0, s1)
    hat = DeltaConnection(h, s0.bmod)
    mor, _ = homotopy_iso(s0.connection, h, hat, max_arity=max_arity)
    assert_same_tables(mor.module_tables, reference_homotopy_tables(
        s0.connection, h, hat, max_arity))
    assert mor.nonzero_arities() != [1]


def load(path) -> Instance:
    return Instance(load_document(str(path)))


# ---------------------------------------------------------------------------
# shipped and benchmark instances


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_instances_match_the_reference_loops(path):
    inst = load(path)
    fam0 = assert_brackets_match(inst.setup.connection, 5)
    if inst.second_connection is None:
        assert_morphism_matches(fam0, fam0, 4)
    else:
        fam1 = assert_brackets_match(inst.second_connection, 5)
        assert_morphism_matches(fam0, fam1, 4)
        assert_morphism_matches(fam1, fam0, 4)
    assert_module_matches(fam0, inst.setup.connection, 4)
    if inst.second_setup is not None:
        assert_homotopy_matches(inst)


def test_bench_sl2_shifted_brackets_to_arity_6():
    inst = load(BENCH / "sl2_borel_shifted.json")
    fam = assert_brackets_match(inst.setup.connection, 6)
    assert fam.module_tables[6]
    assert_homotopy_matches(inst, 5)


@pytest.mark.parametrize("max_arity", [2, 3, 5])
def test_homotopy_iso_steps_every_g_after_g_1(monkeypatch, max_arity):
    # g_2 = [nabla'_{b_0}, id] is computed by the step along nabla', like
    # every g_{k+1}, and cancels to an empty table
    from kapranov import kapranov
    real, steps = kapranov._tower_step, []

    def counted(prev, degree, b_mod, slot_conns, outer, **kwargs):
        steps.append((degree, outer))
        return real(prev, degree, b_mod, slot_conns, outer, **kwargs)
    monkeypatch.setattr(kapranov, "_tower_step", counted)
    inst = load(ROOT / "instances" / "sl2_borel.json")
    s0 = inst.setup
    h = splitting_homotopy(s0, inst.second_setup)
    mor, conn_prime = homotopy_iso(s0.connection, h,
                                   DeltaConnection(h, s0.bmod), max_arity)
    assert sum(outer is conn_prime and degree == 0
               for degree, outer in steps) == max_arity - 1
    assert mor.module_tables[2] == {}


def test_bench_sl3_brackets_to_arity_3():
    inst = load(BENCH / "sl3_borel.json")
    fam = assert_brackets_match(inst.setup.connection, 3)
    assert fam.module_tables[3]


def test_bench_sl3_towers_to_arity_5():
    # 5 generators and rank 3: the widest checked-in instance, where the
    # step's join skips the most tuples of the dense loops
    inst = load(BENCH / "sl3_borel.json")
    fam = assert_brackets_match(inst.setup.connection, 5)
    assert fam.module_tables[5]
    # the identity's higher maps cancel to zero, entry by entry
    assert assert_morphism_matches(fam, fam, 4).nonzero_arities() == [1]
    action = assert_module_matches(fam, inst.setup.connection, 4)
    assert action.module_tables[4]


def test_regular_and_coadjoint_actions():
    s = shipped_setup("sl2_borel")
    v = simple_tensor(s.connection.tensor,
                      ModuleElement.basis_vector(s.delta.target, 0),
                      ModuleElement.basis_vector(s.bmod, 0))
    conn1 = DeltaConnection(s.delta, s.bmod, {0: v})
    fam1 = kapranov_brackets(conn1, max_arity=5)
    regular = assert_module_matches(fam1, conn1, 5)
    assert_same_tables({k: regular.module_tables[k] for k in (2, 3, 4, 5)},
                       {k: fam1.module_tables[k] for k in (2, 3, 4, 5)})
    lm = shipped_setup("adjoint_linear_map")
    fam = kapranov_brackets(lm.connection, max_arity=4)
    _, conn = coadjoint_module(lm, linear_map_data("adjoint_linear_map")["lie"])
    coadjoint = assert_module_matches(fam, conn, 4)
    assert coadjoint.kb_e.basis != fam.kb.basis


# ---------------------------------------------------------------------------
# random connections


def graded_toy():
    """delta = 0 into a rank-2 Omega with basis degrees 0 and 1 over CE of
    [x, y] = y.  Unlike the Lie pairs, B = dual(Omega) has basis vectors of
    two degrees, so connection values carry odd coefficients and every
    sign of the tower step shows.  Any degree-0 dg endomorphism of Omega
    is a morphism of the zero derivation to itself."""
    x = AlgebraElement.monomial((0,))
    algebra = CdgaPresentation(["x", "y"],
                               {1: AlgebraElement.monomial((0, 1), -1)})
    omega = DgModule(algebra, GradedBasis(["u", "v"], [0, 1]),
                     {(0, 0): x, (0, 1): AlgebraElement.scalar(1), (1, 1): x})
    return DgDerivation(algebra, omega, {}), dual_module(omega)


SETUPS = {name: (s.delta, s.bmod) for name, s in
          [("sl2/borel", shipped_setup("sl2_borel")),
           ("affine", shipped_setup("affine_pair", {0: {0: 1}}))]}
SETUPS["graded"] = graded_toy()


def connection_from(delta, bmod, pick):
    """The connection along delta (of degree r) with nabla(e_i) = sum over
    t of pick(i, t, mons) (x) the t-th basis vector of Omega (x) B, where
    ``mons`` are the monomials of the degree that makes the term of degree
    |e_i| + r."""
    tensor = tensor_module(delta.target, bmod)
    values = {}
    for i, di in enumerate(bmod.basis.degrees):
        coeffs = {}
        for t, dt in enumerate(tensor.basis.degrees):
            mons = list(tensor.algebra.monomials(di + delta.degree - dt))
            if mons:
                coeffs[t] = pick(i, t, mons)
        values[i] = ModuleElement(tensor, coeffs)
    return DeltaConnection(delta, bmod, values)


RATIONALS = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))


@st.composite
def random_monomials(draw, mons):
    """One monomial of ``mons`` with a small rational coefficient, or 0."""
    if not draw(st.booleans()):
        return AlgebraElement()
    return AlgebraElement({draw(st.sampled_from(mons)): draw(RATIONALS)})


@st.composite
def random_connections(draw, delta, bmod):
    """Raw values nabla(e_i) of degree |e_i| + r along delta of degree r,
    one random monomial term per basis vector of Omega (x) B."""
    return connection_from(delta, bmod,
                           lambda i, t, mons: draw(random_monomials(mons)))


@st.composite
def random_homotopies(draw, delta):
    """A degree -1 derivation h into delta's Omega, with one random
    monomial term of degree 0 per generator and basis vector of Omega."""
    omega = delta.target
    values = {}
    for g in range(delta.algebra.n_generators):
        coeffs = {}
        for t, dt in enumerate(omega.basis.degrees):
            mons = list(delta.algebra.monomials(-dt))
            if mons:
                coeffs[t] = draw(random_monomials(mons))
        values[g] = ModuleElement(omega, coeffs)
    return DerivationHomotopy(delta.algebra, omega, values)


@st.composite
def tower_problems(draw):
    """Two random connections for one derivation, and the scalar of the
    derivation morphism between their towers (1 unless delta = 0)."""
    name = draw(st.sampled_from(sorted(SETUPS)))
    delta, bmod = SETUPS[name]
    conn0 = draw(random_connections(delta, bmod))
    conn1 = draw(random_connections(delta, bmod))
    scalar = draw(st.sampled_from([2, -1, Fraction(1, 2)])) \
        if delta.is_zero() else 1
    return conn0, conn1, scalar


def check_towers(conn0, conn1, scalar):
    """Brackets, the action of fam0 on B with conn1, and the morphism of
    the derivation morphism scalar*id from fam0 to fam1: equal to the
    reference loops and passing their identities."""
    omega = conn0.delta.target
    fam0 = assert_brackets_match(conn0, 4)
    fam1 = assert_brackets_match(conn1, 4)
    report = check_leibniz_infinity(fam0, 4)
    assert report["passed"], report
    mf = assert_module_matches(fam0, conn1, 4)
    report = check_module_identities(mf, 3)
    assert report["passed"], report
    phi = ModuleMorphism(omega, omega, 0, {
        (i, i): AlgebraElement.scalar(scalar) for i in range(omega.rank)})
    dm = DerivationMorphism(conn1.delta, conn0.delta, phi)
    assert dm.failures() == []
    mor = kapranov_morphism(dm, fam0, fam1, 4)
    assert_same_tables(mor.module_tables,
                       reference_morphism_tables(dm, fam0, fam1, 4))
    report = check_linfty_morphism(mor, 4)
    assert report["passed"], report
    return fam0, mf, mor


def graded_toy_connections():
    """Two fixed connections on the graded toy; the first is the one
    of ``tests/fixtures/graded_toy.json``."""
    delta, bmod = graded_toy()
    conn0 = connection_from(delta, bmod, lambda i, t, mons: AlgebraElement(
        {mons[-1]: Fraction(t + 1, i + 1)}))
    conn1 = connection_from(delta, bmod, lambda i, t, mons: AlgebraElement(
        {mons[0]: Fraction(i - t)}))
    return conn0, conn1


def test_graded_toy_towers():
    fam0, mf, mor = check_towers(*graded_toy_connections(), 2)
    assert fam0.nonzero_arities() == [1, 2, 3, 4]
    assert mf.nonzero_arities() == [1, 2, 3, 4]
    assert mor.nonzero_arities() == [1, 2, 3, 4]


def test_graded_toy_fixture_is_the_toy():
    inst = load(GRADED_TOY)
    conn0, _ = graded_toy_connections()
    assert inst.setup.delta.is_zero()
    assert inst.setup.omega.basis == conn0.delta.target.basis
    assert inst.setup.bmod.basis == conn0.module.basis
    assert_same_tables(
        kapranov_brackets(inst.setup.connection, 4).module_tables,
        assert_brackets_match(conn0, 4).module_tables)


@settings(max_examples=15, deadline=None)
@given(tower_problems())
def test_random_connections_match_the_reference_and_the_identities(problem):
    check_towers(*problem)


def graded_toy_homotopy():
    """h(x) = 2u, nabla(e_1) = u (x) e_1 and hat(e_0) = u (x) e_1 on the
    graded toy: g_3 has A-coefficients whose h contracts with b_0, so the
    weight-5 morphism equation needs them differentiated."""
    delta, bmod = graded_toy()
    omega = delta.target
    h = DerivationHomotopy(delta.algebra, omega, {
        0: ModuleElement.basis_vector(omega, 0, AlgebraElement.scalar(2))})

    def only(slot):
        return lambda i, t, mons: AlgebraElement(
            {mons[0]: 1} if (i, t) == slot else {})
    return (connection_from(delta, bmod, only((1, 1))), h,
            connection_from(h, bmod, only((0, 1))))


@st.composite
def homotopy_problems(draw):
    """A random connection along a delta of SETUPS, a random homotopy h
    from delta, and a random connection hat along h."""
    delta, bmod = SETUPS[draw(st.sampled_from(sorted(SETUPS)))]
    h = draw(random_homotopies(delta))
    return (draw(random_connections(delta, bmod)), h,
            draw(random_connections(h, bmod)))


@settings(max_examples=30, deadline=None)
@example(graded_toy_homotopy())
@given(homotopy_problems())
def test_random_homotopy_isos_match_the_reference_and_the_morphism_equation(
        problem):
    conn, h, hat = problem
    mor, conn_prime = homotopy_iso(conn, h, hat, max_arity=5)
    assert conn_prime.delta == homotopy_offset(conn.delta, h)
    want = reference_homotopy_tables(conn, h, hat, 4)
    assert_same_tables({k: mor.module_tables[k] for k in want}, want)
    report = check_linfty_morphism(mor, 5)
    assert report["passed"], report
