"""Element-level references that the tests compare the package against.

The package computes each construction once, on module-basis tables:
the tower step through the join, the Atiyah seed by contraction, the
cochain complexes by elimination.  The functions here compute the same
things the slow, direct way, on arbitrary elements, straight from the
definitions:

- ``pair``, the evaluation pairing dual(M) x M -> A, and
  ``contract_termwise``, the contraction iota_b term by term;
- ``right_mul``, an element times an algebra element from the right,
  ``extend_derivation_termwise`` and ``cdga_differential_termwise``, a
  derivation and d_A extended from generator values through algebra
  products, and ``module_differential_termwise``, d(a.e) = d_A(a).e +
  (-1)^{|a|} a.d(e) as a sum of elements, which the package's one graded
  Leibniz rule ``leibniz_terms`` replaces;
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
- ``simple_tensor``, v (x) w of two elements, ``connection_termwise``,
  a connection applied coefficient by coefficient through it, and
  ``morphism_termwise``, an A-linear map applied monomial by monomial,
  which the package's one first-order rule ``operator_terms`` replaces;
- ``hom_element_to_morphism``, an element of Hom(M, N) = dual(M) (x) N
  read as a map;
- ``bracket_vectors``, the Lie bracket on coordinate vectors;
- ``cohomology_basis``, the representatives of one degree of H, and
  ``reference_class_bracket``, the bracket on H pair by pair and its
  Leibniz check over all triples of representatives, which the package's
  two table joins replace;
- ``a_multilinearity_violations``, where a k-basis table differs from
  the A-multilinear extension of its module-basis restriction;
- ``loday_pirashvili_bracket``, the Leibniz bracket psi(e_i).e_j of a
  linear-map object, which its R_2 recovers, and
  ``linear_map_failures``, whether its rho is a representation and its
  psi equivariant, checked on the defining data;
- ``reference_ordered_partitions``, the ordered partitions by a walk over
  all q^n block assignments, which restricted growth replaces;
- ``reference_flat_connection_exists``, the flat-connection search as its
  own affine system over Omega (x) E, one column per k-basis unknown,
  which the primitive of the zero connection's Atiyah cocycle replaces;
- ``reference_rref``, the original all-``Fraction`` dense row reduction,
  with ``reference_kernel`` and ``reference_solve`` on it: the dense
  kernel and solve that the package's sparse elimination replaces.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction

from kapranov.algebra import AlgebraElement, CdgaPresentation, LieAlgebraData
from kapranov.cohomology import CochainComplex
from kapranov.connections import (AtiyahCocycle, DeltaConnection,
                                  atiyah_cocycle)
from kapranov.derivations import DgDerivation
from kapranov.graded import ONE, ZERO, MultilinearMap, exact
from kapranov.kapranov import (BracketFamily, CheckFailure, MorphismFamily,
                               extend_module_table)
from kapranov.modules import (DgModule, ModuleElement, ModuleMorphism,
                              add_term, apply_module_differential, contract,
                              tensor_index, tensor_module, tensor_split)


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


def right_mul(m: ModuleElement, a: AlgebraElement) -> ModuleElement:
    """m . a = (-1)^{|m||a|} a . m, per homogeneous components."""
    out = ModuleElement(m.module)
    for i, b in m.coeffs.items():
        bd = m.module.basis.degrees[i]
        acc = AlgebraElement()
        for mon_b, cb in b.terms.items():
            dm = bd + len(mon_b)
            for mon_a, ca in a.terms.items():
                sign = -1 if (dm * len(mon_a)) % 2 else 1
                acc = acc + (AlgebraElement._trusted({mon_a: ONE})
                             * AlgebraElement._trusted({mon_b: ONE})
                             ).scale(sign * ca * cb)
        if not acc.is_zero():
            out = out + ModuleElement(m.module, {i: acc})
    return out


def extend_derivation_termwise(algebra: CdgaPresentation, target: DgModule,
                               values: dict[int, ModuleElement], degree: int,
                               a: AlgebraElement) -> ModuleElement:
    """Extend generator values as a degree-r derivation into a module.

    D(x y) = D(x).y + (-1)^{r|x|} x.D(y); on a monomial this reads
    D(g_1...g_k) = sum_t (-1)^{r(t-1)} g_1...g_{t-1} . D(g_t) . g_{t+1}...g_k
    with the right factor moved in by the Koszul rule.
    """
    out = target.zero()
    for mon, c in a.terms.items():
        for t in range(len(mon)):
            val = values.get(mon[t])
            if val is None or val.is_zero():
                continue
            sign = -1 if (degree * t) % 2 else 1
            prefix = AlgebraElement._trusted({mon[:t]: ONE})
            suffix = AlgebraElement._trusted({mon[t + 1:]: ONE})
            term = right_mul(val, suffix).left_mul(prefix).scale(sign * c)
            out = out + term
    return out


def cdga_differential_termwise(alg: CdgaPresentation,
                               a: AlgebraElement) -> AlgebraElement:
    """Extend the generator values as a degree-1 derivation."""
    out = AlgebraElement()
    for mon, c in a.terms.items():
        for t in range(len(mon)):
            dv = alg.diff.get(mon[t])
            if dv is None:
                continue
            sign = -1 if t % 2 else 1
            prefix = AlgebraElement._trusted({mon[:t]: ONE})
            suffix = AlgebraElement._trusted({mon[t + 1:]: ONE})
            out = out + (prefix * dv * suffix).scale(sign * c)
    return out


def module_differential_termwise(module: DgModule,
                                 v: ModuleElement) -> ModuleElement:
    """d(a.e) = dA(a).e + (-1)^{|a|} a.d(e), per homogeneous coefficient
    parts, with d(e_i) read off ``diff_matrix``."""
    out = module.zero()
    for i, a in v.coeffs.items():
        de = ModuleElement(module, {j: b for (k, j), b in
                                    module.diff_matrix.items() if k == i})
        for mon, c in a.terms.items():
            am = AlgebraElement._trusted({mon: c})
            da = cdga_differential_termwise(module.algebra, am)
            if not da.is_zero():
                out = out + ModuleElement(module, {i: da})
            sign = -1 if len(mon) % 2 else 1
            out = out + de.left_mul(am).scale(sign)
    return out


def simple_tensor(t: DgModule, v: ModuleElement, w: ModuleElement) -> ModuleElement:
    """v (x) w inside a tensor module (coefficients move to the left)."""
    m, n = t.tensor_factors
    if v.module.basis != m.basis or w.module.basis != n.basis:
        raise ValueError("tensor factors do not match")
    out = t.zero()
    for i, a in v.coeffs.items():
        for j, b in w.coeffs.items():
            di = m.basis.degrees[i]
            acc = AlgebraElement()
            for mon_b, cb in b.terms.items():
                sign = -1 if (len(mon_b) * di) % 2 else 1
                acc = acc + AlgebraElement._trusted({mon_b: sign * cb})
            out = out + ModuleElement(t, {tensor_index(t, i, j): a * acc})
    return out


def connection_termwise(conn: DeltaConnection,
                        v: ModuleElement) -> ModuleElement:
    """nabla(a.e) = delta(a) (x) e + (-1)^{r|a|} a.nabla(e), one
    coefficient at a time, delta(a) (x) e by :func:`simple_tensor`."""
    out = conn.tensor.zero()
    odd = conn.delta.degree % 2
    for i, a in v.coeffs.items():
        da = conn.delta(a)
        if not da.is_zero():
            out = out + simple_tensor(
                conn.tensor, da, ModuleElement.basis_vector(conn.module, i))
        val = conn.values.get(i)
        if val is not None:
            if odd:
                a = AlgebraElement._trusted({
                    mon: -c if len(mon) % 2 else c
                    for mon, c in a.terms.items()})
            out = out + val.left_mul(a)
    return out


def morphism_termwise(f: ModuleMorphism, v: ModuleElement) -> ModuleElement:
    """f(a.e) = (-1)^{r|a|} a.f(e), one monomial at a time, with f(e_i)
    read off ``matrix``."""
    out = f.target.zero()
    for i, a in v.coeffs.items():
        img = ModuleElement(f.target, {j: b for (k, j), b in f.matrix.items()
                                       if k == i})
        if img.is_zero():
            continue
        for mon, c in a.terms.items():
            sign = -1 if (f.degree * len(mon)) % 2 else 1
            out = out + img.left_mul(
                AlgebraElement._trusted({mon: ONE})).scale(sign * c)
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
    """Interpret a homogeneous element of Hom(M, N) = dual(M) (x) N as an
    A-linear map: e_i* (x) f_k is (-1)^{|e_i||f_k|} times the map
    e_i -> f_k."""
    dual, n = h.tensor_factors
    m = dual.dual_of
    matrix = {}
    for t, a in x.coeffs.items():
        i, k = tensor_split(h, t)
        matrix[(i, k)] = -a if m.basis.degrees[i] * n.basis.degrees[k] % 2 else a
    return ModuleMorphism(m, n, degree, matrix)


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


def reference_class_bracket(fam: BracketFamily):
    """The class bracket pair by pair and triple by triple, as the package
    computed it before its two table joins, with (-1)^{|x|} R_2(x, y)
    evaluated on elements.  Returns the bracket cocycles and the class
    table on all r^2 pairs of representatives, whether [[a],[b]] =
    -[[b],[a]] for all of them, and the triples of the Leibniz check
    [x,[y,z]] - [[x,y],z] - (-1)^{<x><y>}[y,[x,z]] whose residual is not a
    coboundary, <x> = |x| + 1, from all r^3 triples."""
    module = fam.module
    cx = CochainComplex(module)
    reps = cx.cohomology_reps()

    def bracket_cocycle(x, y):
        if x.is_zero() or y.is_zero():
            return module.zero()
        z = eval_table_on_elements(fam.module_tables.get(2, {}), 1, [x, y],
                                   [module] * 2, module)
        return z.scale(-1) if x.degree() % 2 else z

    cocycles, table = {}, {}
    for a, (da, ra) in enumerate(reps):
        for b, (db, rb) in enumerate(reps):
            z = cocycles[(a, b)] = bracket_cocycle(ra, rb)
            if not z.is_zero() and not cx.is_cocycle(z):
                raise CheckFailure("bracket output is not closed")
            table[(a, b)] = cx.class_coordinates(z)
    witness = None
    for (a, b), coords in sorted(table.items()):
        rev = table.get((b, a), [])
        width = max(len(coords), len(rev))
        lhs = coords + [0] * (width - len(coords))
        rhs = [-c for c in rev] + [0] * (width - len(rev))
        if lhs != rhs:
            witness = (a, b)
            break
    failures, inner = [], cocycles
    for a, (da, ra) in enumerate(reps):
        for b, (db, rb) in enumerate(reps):
            for c, (dc, rc) in enumerate(reps):
                z1 = bracket_cocycle(ra, inner[(b, c)])
                z2 = bracket_cocycle(inner[(a, b)], rc)
                sign = -1 if ((da + 1) * (db + 1)) % 2 else 1
                z3 = bracket_cocycle(rb, inner[(a, c)])
                resid = z1 - z2 - z3.scale(sign)
                if resid.is_zero():
                    continue
                if cx.is_coboundary(resid) is None:
                    failures.append((a, b, c))
    return cocycles, table, witness is None, failures


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
    object as the keyword arguments of ``builders.linear_map_setup``."""
    out: dict = {}
    for (i, j), m in data["actions"].get(a, {}).items():
        if i in v:
            out[j] = out.get(j, 0) + v[i] * m
    return {j: exact(c) for j, c in out.items() if c}


def loday_pirashvili_bracket(data, i: int, j: int) -> dict:
    """e_i o e_j = psi(e_i) . e_j, the bracket the degree -1 slots recover."""
    out: dict = {}
    for a, c in data["psi"].get(i, {}).items():
        for k, m in act(data, a, {j: 1}).items():
            out[k] = out.get(k, 0) + c * m
    return {k: exact(c) for k, c in out.items() if c}


def linear_map_failures(data) -> list[str]:
    """Where rho fails to be a representation, rho([x_a, x_b]) =
    [rho(x_a), rho(x_b)], and where psi fails to be equivariant,
    psi(x_a . e) = [x_a, psi(e)], on the basis of a linear-map object."""
    out = []
    lie, e_names = data["lie"], data["e_names"]
    n, dim = lie.dim, len(e_names)
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
                for k, m in data["psi"].get(j, {}).items():
                    lhs[k] = lhs.get(k, 0) + c * m
            rhs = bracket_vectors(lie, {a: 1}, data["psi"].get(i, {}))
            if {k: c for k, c in lhs.items() if c} != rhs:
                out.append(f"psi is not equivariant at "
                           f"({lie.names[a]}, {e_names[i]})")
    return out


def reference_ordered_partitions(n: int, q: int):
    """The ordered partitions of {1..n} into q blocks, blocks increasing,
    maxima increasing, in lexicographic order of the block-assignment
    vector: the walk over all q^n assignments."""
    if q < 1 or q > n:
        return
    for assign in itertools.product(range(q), repeat=n):
        blocks: list[list[int]] = [[] for _ in range(q)]
        for elt, b in zip(range(1, n + 1), assign):
            blocks[b].append(elt)
        if any(not b for b in blocks):
            continue
        maxima = [b[-1] for b in blocks]
        if all(maxima[i] < maxima[i + 1] for i in range(q - 1)):
            yield tuple(tuple(b) for b in blocks)


def reference_flat_connection_exists(delta: DgDerivation,
                                     module: DgModule) -> DeltaConnection | None:
    """The original flat-connection search, with its own slicing of the
    k-basis of Omega (x) E.

    The unknowns are the basis values nabla(e_i); the vanishing of
    [nabla, d] is an affine-linear condition, solved exactly over Q.
    Returns a flat connection or None.
    """
    tensor = tensor_module(delta.target, module)
    slices: dict[int, list] = {}
    for key in tensor.kbasis():
        slices.setdefault(tensor.kdegree(key), []).append(key)
    slots = [(i, key) for i in range(module.rank)
             for key in slices.get(module.basis.degrees[i], [])]
    n_unknowns = len(slots)

    def to_vector(v: ModuleElement, deg: int) -> list:
        idx = {key: n for n, key in enumerate(slices.get(deg, []))}
        out = [ZERO] * len(idx)
        for i, a in v.coeffs.items():
            for mon, c in a.terms.items():
                out[idx[(mon, i)]] += c
        return out

    def connection_from_vector(x) -> DeltaConnection:
        values: dict[int, ModuleElement] = {}
        for c, (i, key) in zip(x, slots):
            if c:
                cur = values.get(i, tensor.zero())
                values[i] = cur + tensor.kbasis_element(key).scale(c)
        return DeltaConnection(delta, module, values)

    def residual(conn: DeltaConnection) -> list:
        out: list = []
        for i in range(module.rank):
            e = ModuleElement.basis_vector(module, i)
            t = (conn(module.diff_of_basis(i))
                 - apply_module_differential(tensor, conn(e)))
            out.extend(to_vector(t, module.basis.degrees[i] + 1))
        return out

    base = residual(connection_from_vector([ZERO] * n_unknowns))
    columns = []
    for u in range(n_unknowns):
        x = [ZERO] * n_unknowns
        x[u] = ONE
        col = residual(connection_from_vector(x))
        columns.append([a - b for a, b in zip(col, base)])
    target = [-a for a in base]
    eqs = [[columns[u][r] for u in range(n_unknowns)] for r in range(len(base))]
    x = reference_solve(eqs, target)
    if x is None:
        return None
    if not x:
        x = [ZERO] * n_unknowns
    return connection_from_vector(x)


# ---------------------------------------------------------------------------
# dense linear algebra

def reference_rref(m):
    """The original all-Fraction dense rref, kept verbatim as the oracle."""
    m = [row[:] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def as_fractions(m):
    return [[Fraction(x) for x in row] for row in m]


def reference_kernel(m, n_cols: int) -> list[list]:
    """The null space of m (rows are equations) in standard form: one
    vector per free column, 1 there, by ``reference_rref``."""
    red, pivots = reference_rref(as_fractions(m))
    out = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [ZERO] * n_cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = exact(-red[r][fc])
        out.append(v)
    return out


def reference_solve(m, b) -> list | None:
    """One solution of m x = b with the free variables zero, or None, by
    ``reference_rref`` of the augmented matrix."""
    if not m:
        return []
    n_cols = len(m[0])
    red, pivots = reference_rref(as_fractions([row + [c]
                                               for row, c in zip(m, b)]))
    if n_cols in pivots:
        return None
    x = [ZERO] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = exact(red[r][n_cols])
    return x
