"""Element-level references that the tests compare the package against.

The package computes each construction once, on module-basis tables:
the tower step through the join, the Atiyah seed by contraction, the
cochain complexes by elimination.  The functions here compute the same
things the slow, direct way, on arbitrary elements, straight from the
definitions:

- ``pair``, the evaluation pairing dual(M) x M -> A, and
  ``contract_termwise``, the contraction iota_b term by term;
- ``derive_tensor`` and ``covariant_tensor_derivative``, a connection
  acting as a derivation of a tensor of elements, and
  ``bracket_on_elements``, the recursion R_{k+1} = (-1)^{|b_0|}
  [nabla_{b_0}, R_k] evaluated on elements;
- ``atiyah_apply`` and ``atiyah_bilinear``, the Atiyah cocycle [nabla, d]
  as an A-linear map and as the pairing At(b, e);
- ``tensor_of_elements``, ``eval_table_on_tensor`` and
  ``eval_table_on_elements``, an A-multilinear module-basis table
  evaluated on a tensor of elements, which the package's join replaces;
- ``eval_multilinear``, a k-basis table evaluated on vectors of the
  ground module (``KBasis.ground``), and ``spelled``, such a vector in the
  words of an exhaustive report's residual;
- ``hom_element_to_morphism``, an element of Hom(M, N) read as a map;
- ``bracket_vectors``, the Lie bracket on coordinate vectors;
- ``cohomology_basis``, the representatives of one degree of H;
- ``a_multilinearity_violations``, where a k-basis table differs from
  the A-multilinear extension of its module-basis restriction;
- ``loday_pirashvili_bracket``, the Leibniz bracket psi(e_i).e_j of a
  linear-map object, which its R_2 recovers, and
  ``linear_map_failures``, whether its rho is a representation and its
  psi equivariant, checked on the defining data.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from kapranov.algebra import AlgebraElement, CdgaPresentation, LieAlgebraData
from kapranov.cohomology import CochainComplex
from kapranov.connections import AtiyahCocycle, atiyah_cocycle
from kapranov.graded import ONE, ZERO, MultilinearMap, exact
from kapranov.kapranov import (BracketFamily, MorphismFamily,
                               extend_module_table)
from kapranov.modules import (DgModule, ModuleElement, ModuleMorphism,
                              add_term, apply_module_differential, contract,
                              tensor_split)


def pair(beta: ModuleElement, v: ModuleElement) -> AlgebraElement:
    """Evaluation pairing dual(M) x M -> A.

    <e_i*, e_j> = delta_ij; <a.beta, v> = a<beta, v>;
    <beta, a.v> = (-1)^{|a||beta|} a <beta, v>.
    """
    dual = beta.module
    if dual.dual_of is None or dual.dual_of.basis != v.module.basis:
        raise ValueError("pairing requires an element of the dual module")
    out = AlgebraElement()
    for i, b in beta.coeffs.items():
        a = v.coeffs.get(i)
        if a is None:
            continue
        bd = dual.basis.degrees[i]  # = -|e_i|
        for mon_b, cb in b.terms.items():
            # <a.e_i*, c.e_i> = (-1)^{|c| |e_i*|} a ^ c; the coefficient a
            # is already out front, so only the basis covector degree signs
            for mon_a, ca in a.terms.items():
                sign = -1 if (len(mon_a) * bd) % 2 else 1
                out = out + (AlgebraElement._trusted({mon_b: ONE})
                             * AlgebraElement._trusted({mon_a: ONE})
                             ).scale(sign * cb * ca)
    return out


def contract_termwise(b: ModuleElement, w: ModuleElement) -> ModuleElement:
    """iota_b(w) for b in dual(Omega) and w in Omega (x) E, one pair of
    terms at a time: c.f_j* and a.(f_j (x) e_k) give
    (-1)^{|c.f_j*||a|} (a ^ c).e_k."""
    omega, e_mod = w.module.tensor_factors
    dual = b.module
    out = e_mod.zero()
    for t, a in w.coeffs.items():
        j, k = tensor_split(w.module, t)
        c = b.coeffs.get(j)
        if c is None:
            continue
        for mon_c, cc in c.terms.items():
            db = len(mon_c) + dual.basis.degrees[j]
            for mon_a, ca in a.terms.items():
                sign = -1 if (db * len(mon_a)) % 2 else 1
                coeff = (AlgebraElement._trusted({mon_a: ONE})
                         * AlgebraElement._trusted({mon_c: ONE})).scale(
                             sign * ca * cc)
                out = out + ModuleElement(e_mod, {k: coeff})
    return out


def tensor_of_elements(args: list[ModuleElement],
                       modules: list[DgModule]) -> dict[tuple, AlgebraElement]:
    """Expand v_1 (x) ... (x) v_k into basis tensors, coefficients on the left.

    Moving the coefficient of slot t to the front passes the basis vectors
    of slots 1..t-1 and picks up the Koszul sign.
    """
    items: dict[tuple, AlgebraElement] = {(): AlgebraElement.scalar(1)}
    prefix_degrees: dict[tuple, int] = {(): 0}
    for arg, mod in zip(args, modules):
        new: dict[tuple, AlgebraElement] = {}
        new_deg: dict[tuple, int] = {}
        for key, coeff in items.items():
            pdeg = prefix_degrees[key]
            for i, a in arg.coeffs.items():
                for mon, c in a.terms.items():
                    sign = -1 if (len(mon) * pdeg) % 2 else 1
                    nk = key + (i,)
                    add_term(new, nk,
                             coeff * AlgebraElement._trusted({mon: sign * c}))
                    new_deg[nk] = pdeg + mod.basis.degrees[i]
        for key in new:
            prefix_degrees[key] = new_deg[key]
        items = new
    return items


def eval_table_on_tensor(table: dict[tuple, ModuleElement], degree: int,
                         tensor: dict[tuple, AlgebraElement],
                         out_module: DgModule) -> ModuleElement:
    """Apply an A-multilinear table of internal degree r to an expanded
    tensor."""
    out = out_module.zero()
    for key, coeff in tensor.items():
        val = table.get(key)
        if val is None:
            continue
        for cd, cpart in coeff.homogeneous_parts().items():
            sign = -1 if (degree * cd) % 2 else 1
            out = out + val.left_mul(cpart).scale(sign)
    return out


def eval_table_on_elements(table, degree, args, modules, out_module):
    """The A-multilinear table ``table`` of internal degree r on the
    elements ``args`` of ``modules``, with values in ``out_module``."""
    tensor = tensor_of_elements(args, modules)
    return eval_table_on_tensor(table, degree, tensor, out_module)


def derive_tensor(tensor: dict[tuple, AlgebraElement], ops, op_degree: int,
                  modules: list[DgModule]) -> dict[tuple, AlgebraElement]:
    """Extend slotwise operators as a degree-r derivation of the tensor.

    ``ops[t]`` maps a basis index of slot t to a ModuleElement of that
    slot's module.  The operator passes the coefficient and the preceding
    slots with Koszul signs; the value's own coefficients move left too.
    """
    out: dict[tuple, AlgebraElement] = {}
    for key, coeff in tensor.items():
        for cd, cpart in coeff.homogeneous_parts().items():
            pdeg = 0
            for t in range(len(key)):
                val = ops[t](key[t])
                if val is not None and not val.is_zero():
                    for j, a in val.coeffs.items():
                        for mon, c in a.terms.items():
                            exp = op_degree * (cd + pdeg) + len(mon) * pdeg
                            sign = -1 if exp % 2 else 1
                            add_term(out, key[:t] + (j,) + key[t + 1:],
                                     cpart * AlgebraElement._trusted(
                                         {mon: sign * c}))
                pdeg += modules[t].basis.degrees[key[t]]
    return out


def covariant_tensor_derivative(connections, b: ModuleElement,
                                args: list[ModuleElement]) -> dict[tuple, AlgebraElement]:
    """nabla_b acting as a derivation of v_1 (x) ... (x) v_k, for a
    homogeneous b.

    ``connections[t]`` governs slot t; all of them are connections along
    one derivation delta of degree r, so the operator has degree |b| + r.
    A coefficient c in front of a basis tensor x contributes
    iota_b(delta(c)).x, and the slots are differentiated as in
    :func:`derive_tensor`.
    """
    delta = connections[0].delta
    modules = [c.module for c in connections]
    tensor = tensor_of_elements(args, modules)
    ops = [lambda i, c=c: contract(b, c(ModuleElement.basis_vector(c.module, i)))
           for c in connections]
    out = derive_tensor(tensor, ops, (b.degree() or 0) + delta.degree, modules)
    for key, coeff in tensor.items():
        add_term(out, key, pair(b, delta(coeff)))
    return out


def bracket_on_elements(fam: BracketFamily, k: int,
                        args: list[ModuleElement]) -> ModuleElement:
    """Evaluate R_k through the recursion itself on arbitrary elements.

    Used to certify A-multilinearity: the result must agree with the
    Koszul-signed extension of the basis table.
    """
    conn = fam.connection
    module = fam.module
    if k == 1:
        return apply_module_differential(module, args[0])
    if k == 2:
        return atiyah_bilinear(atiyah_cocycle(conn), args[0], args[1])
    total = module.zero()
    inner = bracket_on_elements(fam, k - 1, args[1:])
    for d0, b0p in args[0].homogeneous_parts().items():
        sign0 = -1 if d0 % 2 else 1
        total = total + contract(b0p, conn(inner)).scale(sign0)
        derived = covariant_tensor_derivative([conn] * (k - 1), b0p, args[1:])
        total = total - eval_table_on_tensor(fam.module_tables[k - 1], 1,
                                             derived, module)
    return total


def atiyah_apply(at: AtiyahCocycle, v: ModuleElement) -> ModuleElement:
    """[nabla, d] applied A-linearly (degree 1) to a module element."""
    out = at.connection.tensor.zero()
    for i, a in v.coeffs.items():
        val = at.operator_values[i]
        if val.is_zero():
            continue
        for mon, c in a.terms.items():
            sign = -1 if len(mon) % 2 else 1
            out = out + val.left_mul(
                AlgebraElement._trusted({mon: ONE})).scale(sign * c)
    return out


def atiyah_bilinear(at: AtiyahCocycle, b: ModuleElement,
                    v: ModuleElement) -> ModuleElement:
    """At(b, e) = nabla_{db}(e) - d(nabla_b(e)) + (-1)^{|b|} nabla_b(d e).

    b lives in the dual of Omega; defined for homogeneous b and
    extended bilinearly.
    """
    out = at.module.zero()
    conn = at.connection
    for db, bpart in b.homogeneous_parts().items():
        term = contract(apply_module_differential(bpart.module, bpart), conn(v))
        term = term - apply_module_differential(at.module, contract(bpart, conn(v)))
        sign = -1 if db % 2 else 1
        term = term + contract(
            bpart, conn(apply_module_differential(at.module, v))).scale(sign)
        out = out + term
    return out


def eval_multilinear(m: MultilinearMap,
                     args: Sequence[ModuleElement]) -> ModuleElement:
    """Evaluate a multilinear map on vectors of the ground module by
    expansion."""
    if len(args) != m.arity:
        raise ValueError(f"arity mismatch: expected {m.arity}, got {len(args)}")
    out = DgModule(CdgaPresentation([]), m.output_basis).zero()
    if not m.table:
        return out
    indexed = [[(i, c.terms[()]) for i, c in a.coeffs.items()] for a in args]
    if any(not part for part in indexed):
        return out
    for combo in itertools.product(*indexed):
        key = tuple(i for i, _ in combo)
        val = m.table.get(key)
        if val is None:
            continue
        coeff = ONE
        for _, c in combo:
            coeff *= c
        out = out + val.scale(coeff)
    return out


def spelled(v: ModuleElement) -> str:
    """A vector of a ground module as c*name over its nonzero
    coefficients, by index, or "0": the residual of a witness."""
    names = v.module.basis.names
    return " + ".join(f"{a.terms[()]}*{names[i]}"
                      for i, a in sorted(v.coeffs.items())) or "0"


def hom_element_to_morphism(h: DgModule, x: ModuleElement,
                            degree: int) -> ModuleMorphism:
    """Interpret a homogeneous element of hom_module(M, N) as an A-linear map."""
    m, n = h.hom_factors
    return ModuleMorphism(m, n, degree, {divmod(k, n.rank): a
                                         for k, a in x.coeffs.items()})


def bracket_vectors(lie: LieAlgebraData, v: dict, w: dict) -> dict:
    """[v, w] for coordinate vectors v and w of ``lie``."""
    out: dict = {}
    for i, a in v.items():
        for j, b in w.items():
            for k, c in lie.bracket(i, j).items():
                s = out.get(k, ZERO) + a * b * c
                if s:
                    out[k] = exact(s)
                else:
                    out.pop(k, None)
    return out


def cohomology_basis(cx: CochainComplex, n: int) -> list[ModuleElement]:
    """Deterministic representatives of a basis of H^n."""
    return [rep for d, rep in cx.cohomology_reps() if d == n]


def a_multilinearity_violations(mor: MorphismFamily, arity: int = 2,
                                max_witnesses: int = 10) -> list[dict]:
    """Witnesses that a k-linear map table is not the A-multilinear
    extension of its module-basis restriction."""
    kb = mor.source.kb
    out_kb = mor.target.kb
    m = mor.maps.get(arity)
    if m is None:
        return []
    base_table: dict[tuple, ModuleElement] = {}
    for key_ids in itertools.product(range(kb.module.rank), repeat=arity):
        val = m.table.get(tuple(kb.index[((), i)] for i in key_ids))
        if val is not None:
            base_table[key_ids] = out_kb.to_module_element(val)
    expected = extend_module_table(kb, base_table, arity, 0, output_kb=out_kb)
    witnesses = []
    all_keys = set(m.table) | set(expected.table)
    zero = out_kb.ground.zero()
    for key in sorted(all_keys):
        got = m.table.get(key, zero)
        want = expected.table.get(key, zero)
        if got != want:
            witnesses.append({
                "tuple": [kb.basis.names[i] for i in key],
                "got": spelled(got),
                "a_multilinear_extension": spelled(want),
            })
            if len(witnesses) >= max_witnesses:
                break
    return witnesses


def act(data, a: int, v: dict) -> dict:
    """rho(x_a) v for a coordinate vector v of E, ``data`` a linear-map
    object."""
    out: dict = {}
    for (i, j), m in data.actions.get(a, {}).items():
        if i in v:
            out[j] = out.get(j, 0) + v[i] * m
    return {j: exact(c) for j, c in out.items() if c}


def loday_pirashvili_bracket(data, i: int, j: int) -> dict:
    """e_i o e_j = psi(e_i) . e_j, the bracket the degree -1 slots recover."""
    out: dict = {}
    for a, c in data.psi.get(i, {}).items():
        for k, m in act(data, a, {j: 1}).items():
            out[k] = out.get(k, 0) + c * m
    return {k: exact(c) for k, c in out.items() if c}


def linear_map_failures(data) -> list[str]:
    """Where rho fails to be a representation, rho([x_a, x_b]) =
    [rho(x_a), rho(x_b)], and where psi fails to be equivariant,
    psi(x_a . e) = [x_a, psi(e)], on the basis of a linear-map object."""
    out = []
    lie, n, dim = data.lie, len(data.lie.names), data.dim_e()
    for a in range(n):
        for b in range(a + 1, n):
            for i in range(dim):
                want: dict = {}
                for k, c in lie.bracket(a, b).items():
                    for j, m in act(data, k, {i: 1}).items():
                        want[j] = want.get(j, 0) + c * m
                got = act(data, a, act(data, b, {i: 1}))
                for j, m in act(data, b, act(data, a, {i: 1})).items():
                    got[j] = got.get(j, 0) - m
                if {j: c for j, c in want.items() if c} \
                        != {j: c for j, c in got.items() if c}:
                    out.append(f"rho is not a representation at "
                               f"({lie.names[a]}, {lie.names[b]})")
                    break
    for a in range(n):
        for i in range(dim):
            lhs: dict = {}
            for j, c in act(data, a, {i: 1}).items():
                for k, m in data.psi.get(j, {}).items():
                    lhs[k] = lhs.get(k, 0) + c * m
            rhs = bracket_vectors(lie, {a: 1}, data.psi.get(i, {}))
            if {k: c for k, c in lhs.items() if c} != rhs:
                out.append(f"psi is not equivariant at "
                           f"({lie.names[a]}, {data.e_names[i]})")
    return out
