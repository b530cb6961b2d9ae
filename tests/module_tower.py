"""Leibniz-infinity modules over a bracket tower, and naturality along
module maps: paper features that no command of the package runs.

Chen-Stienon-Xu (arXiv:1204.1075) extend Kapranov's tower to a module E
with its own delta-connection: the action maps

    mu_1 = d_E,   mu_2 = the Atiyah cocycle of nabla^E as a pairing,
    mu_{k+1}(b_0, ..., b_{k-1}, e) = (-1)^{|b_0|} [nabla_{b_0}, mu_k](...)

make E a Leibniz-infinity module over (B, R).  ``kapranov_module`` fills
them with the package's tower step, ``check_module_identities`` checks
the module identities on every k-basis tuple through the package's join,
and ``cohomology_action`` is the induced action of H(B) on H(E).
``coadjoint_module`` gives a linear-map object's coadjoint
representation, and ``check_naturality`` compares the Atiyah cocycles
of two modules along a dg morphism between them.
"""

from __future__ import annotations

from kapranov.algebra import AlgebraElement
from kapranov.cohomology import CochainComplex
from kapranov.connections import (DeltaConnection, atiyah_cocycle,
                                  operator_to_om_hom_element)
from kapranov.derivations import DgDerivation
from kapranov.graded import ONE, GradedBasis, MultilinearMap, shuffles
from kapranov.kapranov import (BracketFamily, CheckFailure, _atiyah_table,
                               _exhaustive_report, _Insertion, _tower_step,
                               differential_table, extend_module_table)
from kapranov.modules import (DgModule, KBasis, ModuleElement, ModuleMorphism,
                              add_term, apply_module_differential, dual_module,
                              tensor_index, tensor_module, tensor_split)
from oracles import eval_table_on_elements, simple_tensor


# ---------------------------------------------------------------------------
# the action tower and its identities

class ModuleActionFamily:
    """Action maps mu_k: B^{(x)(k-1)} (x) E -> E over a bracket tower."""

    def __init__(self, algebra_family: BracketFamily, carrier: DgModule,
                 kb_e: KBasis, actions: dict[int, MultilinearMap],
                 module_tables: dict[int, dict[tuple, ModuleElement]],
                 connection_e: DeltaConnection | None = None, label: str = ""):
        self.algebra_family = algebra_family
        self.carrier = carrier
        self.kb_e = kb_e
        self.actions = actions
        self.module_tables = module_tables
        self.connection_e = connection_e
        self.label = label

    def nonzero_arities(self) -> list[int]:
        return sorted(k for k, m in self.actions.items() if not m.is_zero())


def kapranov_module(fam: BracketFamily, conn_e: DeltaConnection,
                    max_arity: int = 4, label: str = "") -> ModuleActionFamily:
    """The action tower on a module with its own delta-connection.

    mu_1 = d_E, mu_2 = the Atiyah cocycle of nabla^E as a bilinear map,
    mu_{k+1}(b_0, ..., b_{k-1}, e) = (-1)^{|b_0|} nabla^E_{b_0}(mu_k(...))
      - mu_k(nabla_{b_0}-derivative, nabla on B-slots and nabla^E on E).
    """
    conn_b = fam.connection
    if conn_e.delta != conn_b.delta:
        raise ValueError("module connection must extend the same derivation")
    b_mod = fam.module
    e_mod = conn_e.module
    kb_e = KBasis(e_mod)
    tables = {2: _atiyah_table(conn_e, b_mod)}
    for k in range(2, max_arity):
        tables[k + 1] = _tower_step(tables[k], 1, b_mod,
                                    [conn_b] * (k - 1) + [conn_e], conn_e)
    actions: dict[int, MultilinearMap] = {1: differential_table(kb_e)}
    for k, table in tables.items():
        input_kbs = [fam.kb] * (k - 1) + [kb_e]
        actions[k] = extend_module_table(fam.kb, table, k, 1,
                                         input_kbs=input_kbs, output_kb=kb_e)
    return ModuleActionFamily(fam, e_mod, kb_e, actions, tables, conn_e, label)


def module_structures(n: int, lam_active, mu_active):
    part1 = []
    for j in range(1, n + 1):
        i = n + 1 - j
        if j not in lam_active or i not in mu_active:
            continue
        for k in range(j, n):
            for sigma in shuffles(k - j, j - 1):
                part1.append((i, j, k, sigma))
    part2 = []
    for j in range(1, n + 1):
        i = n + 1 - j
        if j not in mu_active or i not in mu_active:
            continue
        for sigma in shuffles(n - j, j - 1):
            part2.append((i, j, sigma))
    return part1, part2


def check_module_identities(m: ModuleActionFamily, n_max: int,
                            max_witnesses: int = 10) -> dict:
    """Verify the module identities on all tuples (b_1, ..., b_{n-1}, e)."""
    fam = m.algebra_family
    lam_active = set(fam.nonzero_arities())
    mu_active = set(m.nonzero_arities())
    lam, mu = ({k: t.table for k, t in maps.items() if k <= n_max}
               for maps in (fam.brackets, m.actions))

    def weight(n):
        part1, part2 = module_structures(n, lam_active, mu_active)
        return (len(part1) + len(part2),
                [_Insertion(mu[i], lam[j], k, j, sigma)
                 for (i, j, k, sigma) in part1]
                + [_Insertion(mu[i], mu[j], n, j, sigma)
                   for (i, j, sigma) in part2],
                [])
    return _exhaustive_report(n_max, weight,
                              lambda n: [fam.kb] * (n - 1) + [m.kb_e], m.kb_e,
                              max_witnesses)


# ---------------------------------------------------------------------------
# the action on cohomology

class CohomologyAction:
    """[b] |> [e] = (-1)^{|b|} [mu_2(b, e)] on representatives."""

    def __init__(self, action_family: ModuleActionFamily):
        self.family = action_family
        self.b_complex = CochainComplex(action_family.algebra_family.module)
        self.e_complex = CochainComplex(action_family.carrier)
        self.b_reps = self.b_complex.cohomology_reps()
        self.e_reps = self.e_complex.cohomology_reps()
        self.table: dict[tuple[int, int], list] = {}
        for a, (da, ra) in enumerate(self.b_reps):
            for b, (db, rb) in enumerate(self.e_reps):
                z = self.action_cocycle(ra, rb)
                if not z.is_zero() and not self.e_complex.is_cocycle(z):
                    raise CheckFailure("action output is not closed")
                self.table[(a, b)] = self.e_complex.class_coordinates(z)

    def action_cocycle(self, b: ModuleElement, e: ModuleElement) -> ModuleElement:
        table2 = self.family.module_tables.get(2, {})
        fam = self.family.algebra_family
        out = self.family.carrier.zero()
        for db, bp in b.homogeneous_parts().items():
            sign = -1 if db % 2 else 1
            out = out + eval_table_on_elements(
                table2, 1, [bp, e], [fam.module, self.family.carrier],
                self.family.carrier).scale(sign)
        return out

    def naturality_failures(self, lam: ModuleMorphism) -> list[tuple]:
        """[b] |> lam([e]) = lam([b] |> [e]) for a dg morphism into a module
        with an action built from the same derivation."""
        out = []
        cx = CochainComplex(lam.target)
        for a, (da, ra) in enumerate(self.b_reps):
            for b, (db, rb) in enumerate(self.e_reps):
                lhs = self.action_cocycle(ra, lam(rb))
                rhs = lam(self.action_cocycle(ra, rb))
                diff = lhs - rhs
                if diff.is_zero():
                    continue
                if not cx.is_cocycle(diff) or cx.is_coboundary(diff) is None:
                    out.append((a, b))
        return out


def cohomology_action(action_family: ModuleActionFamily) -> CohomologyAction:
    return CohomologyAction(action_family)


# ---------------------------------------------------------------------------
# modules of a linear-map object, and naturality of Atiyah cocycles

def coadjoint_module(setup) -> tuple[DgModule, DeltaConnection]:
    """The coadjoint representation as a dg module over the same CE(g),
    with its canonical (forced) delta-connection."""
    lie = setup.data.lie
    n = len(lie.names)
    # rho*(x_a) xi^i = -sum_j ad_a[j -> i] xi^j, where ad_a[j -> k] is the
    # coefficient of x_k in [x_a, x_j]
    diff: dict[tuple[int, int], AlgebraElement] = {}
    for a in range(n):
        for j in range(n):
            lo, hi = min(a, j), max(a, j)
            if lo == hi:
                continue
            for k, c in lie.bracket(a, j).items():
                add_term(diff, (k, j), AlgebraElement.monomial((a,), -c))
    module = DgModule(setup.algebra,
                      GradedBasis([n_ + "*" for n_ in lie.names],
                                  [0] * n), diff, label="coadjoint")
    conn = DeltaConnection(setup.delta, module, label="trivial")
    return module, conn


def apply_om_hom(x: ModuleElement, v: ModuleElement) -> ModuleElement:
    """Apply an element of Omega (x) Hom(E,F) to an element of E, with
    Hom(E, F) = dual(E) (x) F.

    The basis vector e_i* (x) f_k is (-1)^{|e_i||f_k|} u, for the map u:
    e_i -> f_k.  A term c.(f_j (x) u) acts by (c.Y)(a.e) =
    (-1)^{|a||Y|} c.a.Y(e) with |Y| = |f_j| + |u| (basis degrees).
    """
    om_hom = x.module
    omega, hom = om_hom.tensor_factors
    dual, f_mod = hom.tensor_factors
    out_mod = tensor_module(omega, f_mod)
    out = out_mod.zero()
    for x_idx, c in x.coeffs.items():
        j, u_idx = tensor_split(om_hom, x_idx)
        i, k = tensor_split(hom, u_idx)
        y_deg = omega.basis.degrees[j] + hom.basis.degrees[u_idx]
        flip = dual.basis.degrees[i] * f_mod.basis.degrees[k]
        a = v.coeffs.get(i)
        if a is None:
            continue
        for mon, cv in a.terms.items():
            sign = -1 if (len(mon) * y_deg + flip) % 2 else 1
            coeff = (c * AlgebraElement._trusted({mon: ONE})).scale(sign * cv)
            if not coeff.is_zero():
                out = out + ModuleElement(out_mod,
                                          {tensor_index(out_mod, j, k): coeff})
    return out


def apply_morphism_tensor(omega: DgModule, lam: ModuleMorphism,
                          w: ModuleElement) -> ModuleElement:
    """(id (x) lam) on Omega (x) E, with the Koszul sign past the left factor."""
    src_tensor = w.module
    out_mod = tensor_module(omega, lam.target)
    out = out_mod.zero()
    for t_idx, c in w.coeffs.items():
        j, i = tensor_split(src_tensor, t_idx)
        img = lam(ModuleElement.basis_vector(lam.source, i))
        if img.is_zero():
            continue
        sign = -1 if (lam.degree * omega.basis.degrees[j]) % 2 else 1
        fj = ModuleElement.basis_vector(omega, j)
        term = simple_tensor(out_mod, fj, img).left_mul(c).scale(sign)
        out = out + term
    return out


def check_naturality(delta: DgDerivation, lam: ModuleMorphism) -> dict:
    """Naturality of Atiyah cocycles along a dg morphism lam: E -> F.

    With the canonical connections (zero basis values), the discrepancy
    (id (x) lam) o At_E - (-1)^{|lam|} At_F o lam is a closed element of
    Omega (x) Hom(E, F); naturality holds when it is exact.
    """
    e_mod, f_mod = lam.source, lam.target
    at_e = atiyah_cocycle(DeltaConnection(delta, e_mod))
    at_f = atiyah_cocycle(DeltaConnection(delta, f_mod))
    om_hom = tensor_module(delta.target,
                           tensor_module(dual_module(e_mod), f_mod))
    sgn = -1 if lam.degree % 2 else 1
    values = []
    for i in range(e_mod.rank):
        e = ModuleElement.basis_vector(e_mod, i)
        d_i = (apply_morphism_tensor(delta.target, lam, at_e.operator_values[i])
               - apply_om_hom(at_f.element, lam(e)).scale(sgn))
        values.append(d_i)
    discrepancy = operator_to_om_hom_element(om_hom, values)
    closed = apply_module_differential(om_hom, discrepancy).is_zero()
    result = {
        "is_dg_morphism": not lam.dg_failures(),
        "discrepancy_closed": closed,
        "natural": False,
        "primitive": None,
    }
    if closed:
        cx = CochainComplex(om_hom)
        prim = cx.is_coboundary(discrepancy)
        result["natural"] = prim is not None
        result["primitive"] = prim
    return result
