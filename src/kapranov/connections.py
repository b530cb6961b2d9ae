"""delta-connections and Atiyah cocycles.

Given a dg derivation delta: A -> Omega and a dg module E, a
delta-connection is a degree-0 map nabla: E -> Omega (x) E with
nabla(a.e) = delta(a) (x) e + a.nabla(e).  Its Atiyah cocycle is the
graded commutator [nabla, d], an A-linear degree-1 map, i.e. a closed
degree-1 element of Omega (x) End(E).
"""

from __future__ import annotations

from typing import Sequence

from .algebra import AlgebraElement
from .cohomology import CochainComplex, solve_affine
from .derivations import DgDerivation
from .graded import ONE, Scalar
from .modules import (DgModule, KBasis, ModuleElement, ModuleMorphism,
                      add_term, apply_module_differential, contract, end_module,
                      hom_module, simple_tensor, tensor_index, tensor_module,
                      tensor_split)


def omega_tensor(delta: DgDerivation, module: DgModule) -> DgModule:
    return tensor_module(delta.target, module)


class DeltaConnection:
    """A delta-connection on a free dg module, given by values on basis vectors.

    ``values[i]`` = nabla(e_i), an element of Omega (x) E of degree |e_i|.
    ``tensor``, when given, is ``omega_tensor(delta, module)`` already built.
    """

    def __init__(self, delta: DgDerivation, module: DgModule,
                 values: dict[int, ModuleElement] | None = None,
                 label: str = "", tensor: DgModule | None = None):
        self.delta = delta
        self.module = module
        self.label = label
        self.tensor = tensor if tensor is not None else omega_tensor(delta, module)
        self.values: dict[int, ModuleElement] = {}
        for i, v in (values or {}).items():
            if v.is_zero():
                continue
            if v.module.basis != self.tensor.basis:
                v = ModuleElement(self.tensor, dict(v.coeffs))
            d = v.degree()
            if d is not None and d != module.basis.degrees[i]:
                raise ValueError(
                    f"nabla({module.basis.names[i]}) must have degree "
                    f"{module.basis.degrees[i]}")
            self.values[i] = v

    def __call__(self, v: ModuleElement) -> ModuleElement:
        """nabla(a.e) = delta(a) (x) e + a.nabla(e)."""
        out = self.tensor.zero()
        for i, a in v.coeffs.items():
            da = self.delta(a)
            if not da.is_zero():
                out = out + simple_tensor(
                    self.tensor, da, ModuleElement.basis_vector(self.module, i))
            val = self.values.get(i)
            if val is not None:
                out = out + val.left_mul(a)
        return out

    def along(self, b: ModuleElement, v: ModuleElement) -> ModuleElement:
        """nabla_b(v) = iota_b(nabla(v)) for b in the dual of Omega."""
        return contract(b, self(v))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeltaConnection):
            return NotImplemented
        if self.module.basis != other.module.basis or self.delta != other.delta:
            return False
        keys = set(self.values) | set(other.values)
        return all(self.values.get(i, self.tensor.zero())
                   == other.values.get(i, self.tensor.zero()) for i in keys)

    def __repr__(self) -> str:
        return f"DeltaConnection({self.label or 'nabla'})"


def extend_connection(delta: DgDerivation, module: DgModule,
                      values: dict[int, ModuleElement] | None = None,
                      label: str = "") -> DeltaConnection:
    """Convenience constructor; values default to zero (the canonical choice)."""
    return DeltaConnection(delta, module, values or {}, label=label)


def operator_to_om_hom_element(om_hom: DgModule,
                               values: Sequence[ModuleElement]) -> ModuleElement:
    """Package basis values E -> Omega (x) F as an element of Omega (x) Hom(E,F)."""
    omega, hom = om_hom.tensor_factors
    e_mod, f_mod = hom.hom_factors
    coeffs: dict[int, AlgebraElement] = {}
    for i, val in enumerate(values):
        for t_idx, a in val.coeffs.items():
            j, k = tensor_split(val.module, t_idx)
            add_term(coeffs, tensor_index(om_hom, j, i * f_mod.rank + k), a)
    return ModuleElement(om_hom, coeffs)


def apply_om_hom(x: ModuleElement, v: ModuleElement) -> ModuleElement:
    """Apply an element of Omega (x) Hom(E,F) to an element of E.

    A term c.(f_j (x) u) acts by (c.Y)(a.e) = (-1)^{|a||Y|} c.a.Y(e) with
    |Y| = |f_j| + |u| (basis degrees).
    """
    om_hom = x.module
    omega, hom = om_hom.tensor_factors
    e_mod, f_mod = hom.hom_factors
    out_mod = tensor_module(omega, f_mod)
    out = out_mod.zero()
    for x_idx, c in x.coeffs.items():
        j, u_idx = tensor_split(om_hom, x_idx)
        i, k = divmod(u_idx, f_mod.rank)
        y_deg = omega.basis.degrees[j] + hom.basis.degrees[u_idx]
        a = v.coeffs.get(i)
        if a is None:
            continue
        for mon, cv in a.terms.items():
            sign = -1 if (len(mon) * y_deg) % 2 else 1
            coeff = (c * AlgebraElement._trusted({mon: ONE})).scale(sign * cv)
            if not coeff.is_zero():
                out = out + ModuleElement(out_mod,
                                          {tensor_index(out_mod, j, k): coeff})
    return out


class AtiyahCocycle:
    """The Atiyah cocycle [nabla, d] of a delta-connection.

    ``operator_values[i]`` = nabla(d e_i) - d(nabla(e_i)), and ``element``
    is the same data as a degree-1 element of Omega (x) End(E).
    """

    def __init__(self, connection: DeltaConnection):
        self.connection = connection
        module = connection.module
        self.module = module
        self.operator_values: list[ModuleElement] = []
        for i in range(module.rank):
            e = ModuleElement.basis_vector(module, i)
            val = (connection(module.diff_of_basis(i))
                   - apply_module_differential(connection.tensor, connection(e)))
            self.operator_values.append(val)
        self.om_end = tensor_module(connection.delta.target, end_module(module),
                                    label="Omega(x)End")
        self.element = operator_to_om_hom_element(self.om_end, self.operator_values)

    def __call__(self, v: ModuleElement) -> ModuleElement:
        """[nabla, d] applied A-linearly (degree 1) to a module element."""
        out = self.connection.tensor.zero()
        for i, a in v.coeffs.items():
            val = self.operator_values[i]
            if val.is_zero():
                continue
            for mon, c in a.terms.items():
                sign = -1 if len(mon) % 2 else 1
                out = out + val.left_mul(
                    AlgebraElement._trusted({mon: ONE})).scale(sign * c)
        return out

    def bilinear(self, b: ModuleElement, v: ModuleElement) -> ModuleElement:
        """At(b, e) = nabla_{db}(e) - d(nabla_b(e)) + (-1)^{|b|} nabla_b(d e).

        b lives in the dual of Omega; defined for homogeneous b and
        extended bilinearly.
        """
        out = self.module.zero()
        for db, bpart in b.homogeneous_parts().items():
            conn = self.connection
            term = conn.along(
                apply_module_differential(bpart.module, bpart), v)
            term = term - apply_module_differential(self.module, conn.along(bpart, v))
            sign = -1 if db % 2 else 1
            term = term + conn.along(
                bpart, apply_module_differential(self.module, v)).scale(sign)
            out = out + term
        return out

    def is_closed(self) -> bool:
        return apply_module_differential(self.om_end, self.element).is_zero()


def atiyah_cocycle(connection: DeltaConnection) -> AtiyahCocycle:
    return AtiyahCocycle(connection)


class AtiyahClass:
    """Cohomology class of the Atiyah cocycle in H^1(Omega (x) End E)."""

    def __init__(self, delta: DgDerivation, module: DgModule,
                 connection: DeltaConnection | None = None):
        self.delta = delta
        self.module = module
        self.connection = connection or extend_connection(delta, module)
        self.cocycle = atiyah_cocycle(self.connection)
        self.complex = CochainComplex(self.cocycle.om_end)

    def is_zero(self) -> bool:
        return self.complex.is_coboundary(self.cocycle.element) is not None

    def equals(self, other: "AtiyahClass") -> bool:
        if other.module.basis != self.module.basis:
            raise ValueError("classes live on different modules")
        return self.complex.classes_equal(self.cocycle.element,
                                          other.cocycle.element)


def atiyah_class(delta: DgDerivation, module: DgModule,
                 connection: DeltaConnection | None = None) -> AtiyahClass:
    return AtiyahClass(delta, module, connection)


def connection_difference_element(c1: DeltaConnection,
                                  c2: DeltaConnection) -> ModuleElement:
    """nabla - nabla' as a degree-0 element of Omega (x) End(E)."""
    if c1.module.basis != c2.module.basis:
        raise ValueError("connections live on different modules")
    om_end = tensor_module(c1.delta.target, end_module(c1.module))
    values = [c1.values.get(i, c1.tensor.zero())
              - c2.values.get(i, c2.tensor.zero())
              for i in range(c1.module.rank)]
    return operator_to_om_hom_element(om_end, values)


def flat_connection_exists(delta: DgDerivation,
                           module: DgModule) -> DeltaConnection | None:
    """Search for a delta-connection with vanishing Atiyah cocycle.

    The unknowns are the basis values nabla(e_i); the vanishing of
    [nabla, d] is an affine-linear condition, solved exactly over Q.
    Returns a flat connection or None.
    """
    tensor = omega_tensor(delta, module)
    kb = KBasis(tensor)
    degrees = module.basis.degrees
    sizes = [len(kb.slice(d)) for d in degrees]

    def connection_from_vector(x: Sequence[Scalar]) -> DeltaConnection:
        values, start = {}, 0
        for i, (d, size) in enumerate(zip(degrees, sizes)):
            values[i] = kb.from_vector(x[start:start + size], d)
            start += size
        return DeltaConnection(delta, module, values, tensor=tensor)

    def residual(x: Sequence[Scalar]) -> list[Scalar]:
        conn = connection_from_vector(x)
        out: list[Scalar] = []
        for i in range(module.rank):
            e = ModuleElement.basis_vector(module, i)
            t = (conn(module.diff_of_basis(i))
                 - apply_module_differential(tensor, conn(e)))
            out.extend(kb.to_vector(t, degrees[i] + 1))
        return out

    x = solve_affine(residual, sum(sizes))
    return None if x is None else connection_from_vector(x)


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
    at_e = atiyah_cocycle(extend_connection(delta, e_mod))
    at_f = atiyah_cocycle(extend_connection(delta, f_mod))
    om_hom = tensor_module(delta.target, hom_module(e_mod, f_mod))
    sgn = -1 if lam.degree % 2 else 1
    values = []
    for i in range(e_mod.rank):
        e = ModuleElement.basis_vector(e_mod, i)
        d_i = (apply_morphism_tensor(delta.target, lam, at_e(e))
               - at_f(lam(e)).scale(sgn))
        values.append(d_i)
    discrepancy = operator_to_om_hom_element(om_hom, values)
    closed = apply_module_differential(om_hom, discrepancy).is_zero()
    result = {
        "is_dg_morphism": lam.is_dg_morphism(),
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
