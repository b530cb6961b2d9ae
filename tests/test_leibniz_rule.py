"""The one graded Leibniz rule against its element-level references.

``algebra.leibniz_terms`` expands every monomial in the package: d_A, a
derivation delta or a homotopy h into a module, and the module
differential d(a.e_i) = d_A(a).e_i + (-1)^{|a|} a.d(e_i), which
``apply_module_differential``, ``KBasis.differential`` and the join's
outer differential read.  Each is compared here with the references of
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
from kapranov.connections import atiyah_cocycle
from kapranov.derivations import DerivationHomotopy, extend_derivation
from kapranov.kapranov import (_Differential, _Insertion, _module_residuals,
                               _module_table, _Partition)
from kapranov.modules import KBasis, apply_module_differential
from oracles import (cdga_differential_termwise, extend_derivation_termwise,
                     module_differential_termwise)

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
def document(path):
    """The set-up of a document and the k-bases of its four modules."""
    setup = Instance(load_document(str(path))).setup
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
        degree = draw(st.sampled_from(sorted(kb.slices)))
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
    assert extend_derivation(alg, kb.module, values, r, a) \
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
