"""The one graded Leibniz rule and the one first-order operator rule
against their element-level references.

``algebra.leibniz_terms`` expands every monomial in the package: d_A, a
derivation delta or a homotopy h into a module, and through
``modules.operator_terms``, O(a.e_i) = D(a).e_i + (-1)^{r|a|} a.O(e_i),
the module differential (D = d_A, r = 1), which
``apply_module_differential``, ``KBasis.differential`` and the join's
outer differential read, a connection along delta or h, and an A-linear
map (no D).  Each is compared here with the references of
``tests/oracles.py``, which multiply algebra elements instead, on random
homogeneous elements of every module the documents build: Omega, B,
Omega (x) B and Omega (x) End(B).  The graded toy's modules have basis
vectors of both parities, and the linear-map documents' Omega has odd
ones, so the sign of a suffix passing a basis vector is seen.
"""

from __future__ import annotations

import functools
import pathlib
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kapranov.algebra import AlgebraElement
from kapranov.cli import Instance, load_document
from kapranov.connections import DeltaConnection, atiyah_cocycle
from kapranov.derivations import DerivationHomotopy, extend_derivation
from kapranov.kapranov import (_Differential, _Insertion, _module_residuals,
                               _module_table, _Partition)
from kapranov.modules import KBasis, ModuleMorphism, apply_module_differential
from oracles import (cdga_differential_termwise, connection_termwise,
                     extend_derivation_termwise, module_differential_termwise,
                     morphism_termwise)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = sorted(p for pattern in ("instances/*.json",
                                     "bench/instances/*.json",
                                     "tests/fixtures/*.json")
                   for p in ROOT.glob(pattern))
MODULES = ("Omega", "B", "Omega(x)B", "Omega(x)End(B)")
SCALARS = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


def test_every_document_is_drawn():
    assert len(DOCUMENTS) == 11


@functools.cache
def instance(path):
    return Instance(load_document(str(path)))


@functools.cache
def document(path):
    """The set-up of a document and the k-bases of its four modules."""
    setup = instance(path).setup
    modules = (setup.omega, setup.bmod, setup.connection.tensor,
               atiyah_cocycle(setup.connection).om_end)
    return setup, {name: KBasis(m) for name, m in zip(MODULES, modules)}


@st.composite
def algebra_elements(draw, alg):
    """A sum of up to three scaled monomials of one degree."""
    monomials = alg.monomials(draw(st.integers(0, alg.n_generators)))
    a = AlgebraElement()
    for mon in draw(st.lists(st.sampled_from(monomials), unique=True,
                             max_size=3)):
        a = a + AlgebraElement.monomial(mon, draw(SCALARS))
    return a


@st.composite
def module_elements(draw, kb: KBasis, degree: int | None = None):
    """A sum of one to three scaled k-basis vectors of degree ``degree``
    (drawn when None); zero when the module has none of that degree."""
    if degree is None:
        degree = draw(st.sampled_from(sorted(set(kb.degrees))))
    v = kb.module.zero()
    keys = kb.slice(degree)
    if keys:
        for key in draw(st.lists(st.sampled_from(keys), unique=True,
                                 min_size=1, max_size=3)):
            v = v + kb.module.kbasis_element(key).scale(draw(SCALARS))
    return v


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_d_A_and_the_derivations_expand_like_products(data):
    """d_A, the document's delta, a random homotopy h into Omega and a
    random derivation of degree -1, 0 or 1 into any of the four modules,
    each on a random homogeneous a, against the product expansion."""
    setup, kbs = document(data.draw(st.sampled_from(DOCUMENTS),
                                    label="document"))
    alg, omega = setup.algebra, setup.omega
    gens = range(alg.n_generators)
    a = data.draw(algebra_elements(alg), label="a")
    assert alg.apply_differential(a) == cdga_differential_termwise(alg, a)
    assert setup.delta(a) == extend_derivation_termwise(
        alg, omega, setup.delta.values, 0, a)
    h = DerivationHomotopy(alg, omega, {
        g: data.draw(module_elements(kbs["Omega"], 0), label=f"h(g{g})")
        for g in gens})
    assert h(a) == extend_derivation_termwise(alg, omega, h.values, -1, a)
    kb = kbs[data.draw(st.sampled_from(MODULES), label="target")]
    r = data.draw(st.sampled_from([-1, 0, 1]), label="degree")
    values = {g: data.draw(module_elements(kb, 1 + r), label=f"D(g{g})")
              for g in gens}
    terms = {g: tuple((j, mon, c) for j, v in val.coeffs.items()
                      for mon, c in v.terms.items())
             for g, val in values.items()}
    assert extend_derivation(kb.module, terms, r, a) \
        == extend_derivation_termwise(alg, kb.module, values, r, a)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_module_differential_expands_like_products(data):
    """d(v) for a random homogeneous v of one of the four modules, by
    ``apply_module_differential`` and by the join with a ``_Differential``
    outer map, as an insertion term and as a partition term (which
    subtracts it), and the k-basis row of a random key, against the
    product expansion."""
    _, kbs = document(data.draw(st.sampled_from(DOCUMENTS),
                                label="document"))
    kb = kbs[data.draw(st.sampled_from(MODULES), label="module")]
    module = kb.module
    v = data.draw(module_elements(kb), label="v")
    want = module_differential_termwise(module, v)
    assert apply_module_differential(module, v) == want
    d = _Differential(module)
    inserted = _module_residuals(
        [[0]], [_Insertion(d, {(0,): v}, 1, 1, ())], [], module, {})
    assert _module_table(inserted, module).get((0,), module.zero()) == want
    subtracted = _module_residuals(
        [[0]], [], [_Partition(d, [{(0,): v}], ((1,),))], module, {})
    assert _module_table(subtracted, module, -1).get(
        (0,), module.zero()) == want
    key = data.draw(st.sampled_from(kb.keys), label="key")
    row = module_differential_termwise(module, module.kbasis_element(key))
    assert kb.kvec(kb.differential(key)) == kb.to_kvec(row)
    n = len(key[0]) + module.basis.degrees[key[1]] + 1
    assert kb.differential_vector(key, n) == kb.to_vector(row, n)


@st.composite
def connections(draw, path):
    """A connection on B of the document at ``path``: the canonical one,
    the document's second connection when it has one, one with random
    values along delta, or one with random values along a random degree
    -1 homotopy h into Omega (Chen-Stienon-Xu's h-connection)."""
    inst = instance(path)
    setup, kbs = document(path)
    bmod, tensor = setup.bmod, setup.connection.tensor
    kind = draw(st.sampled_from(["canonical", "second", "delta", "h"]),
                label="connection")
    if kind == "canonical" or kind == "second" and not inst.second_connection:
        return setup.connection
    if kind == "second":
        return inst.second_connection
    along = setup.delta
    if kind == "h":
        along = DerivationHomotopy(setup.algebra, setup.omega, {
            g: draw(module_elements(kbs["Omega"], 0), label=f"h(g{g})")
            for g in range(setup.algebra.n_generators)})
    values = {i: draw(module_elements(kbs["Omega(x)B"], d + along.degree),
                      label=f"nabla(e{i})")
              for i, d in enumerate(bmod.basis.degrees)}
    return DeltaConnection(along, bmod, values, tensor=tensor)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_connections_apply_like_the_termwise_reference(data):
    """nabla(v) for a random homogeneous v of B, against delta(a) (x) e
    built by ``simple_tensor`` plus the values, coefficient by
    coefficient."""
    path = data.draw(st.sampled_from(DOCUMENTS), label="document")
    conn = data.draw(connections(path))
    v = data.draw(module_elements(document(path)[1]["B"]), label="v")
    assert conn(v) == connection_termwise(conn, v)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_module_maps_apply_like_the_termwise_reference(data):
    """f(v) for a random A-linear map f of degree -1, 0 or 1 between two
    of the four modules and a random homogeneous v, against
    (-1)^{r|a|} a.f(e) with f(e) read off the matrix."""
    _, kbs = document(data.draw(st.sampled_from(DOCUMENTS),
                                label="document"))
    source = kbs[data.draw(st.sampled_from(MODULES), label="source")]
    target = kbs[data.draw(st.sampled_from(MODULES), label="target")]
    r = data.draw(st.sampled_from([-1, 0, 1]), label="degree")
    images = [data.draw(module_elements(target, d + r), label=f"f(e{i})")
              for i, d in enumerate(source.module.basis.degrees)]
    f = ModuleMorphism(source.module, target.module, r, {
        (i, j): a for i, img in enumerate(images)
        for j, a in img.coeffs.items()})
    v = data.draw(module_elements(source), label="v")
    assert f(v) == morphism_termwise(f, v)
    assert [f.of_basis(i) for i in range(len(images))] == images
