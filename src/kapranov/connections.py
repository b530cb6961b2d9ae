"""Connections along derivations, and Atiyah cocycles.

Given a derivation delta: A -> Omega of degree r and a dg module E, a
connection along delta is a degree-r map nabla: E -> Omega (x) E with
nabla(a.e) = delta(a) (x) e + (-1)^{r|a|} a.nabla(e).  Along a dg
derivation (r = 0) it is a delta-connection, and its Atiyah cocycle is
the graded commutator [nabla, d], an A-linear degree-1 map, i.e. a
closed degree-1 element of Omega (x) End(E).  The Atiyah class is the
class of that cocycle in H^1(Omega (x) End E), read off the cocycle.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from .cohomology import CochainComplex
from .derivations import DgDerivation
from .modules import (DgModule, ModuleElement,
                      apply_module_differential, apply_operator, dual_module,
                      hom_sign, operator_terms, tensor_index, tensor_module,
                      tensor_split)


class DeltaConnection:
    """A connection along a derivation delta of degree r on a free dg
    module E, given by its values on basis vectors:

      nabla(a.e) = delta(a) (x) e + (-1)^{r|a|} a.nabla(e),

    with ``values[i]`` = nabla(e_i), an element of Omega (x) E of degree
    |e_i| + r, and r = ``delta.degree``.  A dg derivation (r = 0) gives a
    delta-connection; a homotopy h (r = -1) gives the h-connection of
    Chen-Stienon-Xu.  ``tensor``, when given, is Omega (x) E,
    ``tensor_module(delta.target, module)``, already built.
    """

    def __init__(self, delta: DgDerivation, module: DgModule,
                 values: dict[int, ModuleElement] | None = None,
                 tensor: DgModule | None = None):
        self.delta = delta
        self.module = module
        self.tensor = (tensor if tensor is not None
                       else tensor_module(delta.target, module))
        self.values: dict[int, ModuleElement] = {}
        for i, v in (values or {}).items():
            if v.is_zero():
                continue
            if v.module.basis != self.tensor.basis:
                v = ModuleElement(self.tensor, dict(v.coeffs))
            d = v.degree()
            want = module.basis.degrees[i] + delta.degree
            if d is not None and d != want:
                raise ValueError(
                    f"nabla({module.basis.names[i]}) must have degree {want}")
            self.values[i] = v

    def terms(self, mon, i: int, c, out: dict) -> dict:
        """Add c.nabla(mon.e_i) = c.delta(mon) (x) e_i + (-1)^{r|mon|}
        c.mon.nabla(e_i) into ``out``, by :func:`operator_terms`."""
        val = self.values.get(i)
        return operator_terms(mon, i, c, self.delta.terms, self.delta.degree,
                              self.delta.target.basis.degrees,
                              self.module.rank,
                              {} if val is None else val.coeffs, out)

    def __call__(self, v: ModuleElement) -> ModuleElement:
        """nabla(a.e) = delta(a) (x) e + (-1)^{r|a|} a.nabla(e)."""
        return apply_operator(self.terms, v, self.tensor)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeltaConnection):
            return NotImplemented
        if self.module.basis != other.module.basis or self.delta != other.delta:
            return False
        keys = set(self.values) | set(other.values)
        return all(self.values.get(i, self.tensor.zero())
                   == other.values.get(i, self.tensor.zero()) for i in keys)


def operator_to_om_hom_element(om_hom: DgModule,
                               values: Sequence[ModuleElement]) -> ModuleElement:
    """Package basis values E -> Omega (x) F as an element of
    Omega (x) Hom(E, F), with Hom(E, F) = dual(E) (x) F: the map
    e_i -> f_k is (-1)^{|e_i||f_k|} e_i* (x) f_k."""
    omega, hom = om_hom.tensor_factors
    dual, f_mod = hom.tensor_factors
    coeffs = {}
    for i, val in enumerate(values):
        for t_idx, a in val.coeffs.items():
            j, k = tensor_split(val.module, t_idx)
            coeffs[tensor_index(om_hom, j, tensor_index(hom, i, k))] = a.scale(
                hom_sign(dual.basis.degrees[i], f_mod.basis.degrees[k]))
    return ModuleElement._trusted(om_hom, coeffs)


def om_hom_element_to_operator(x: ModuleElement,
                               target: DgModule) -> list[ModuleElement]:
    """The basis values E -> ``target`` = Omega (x) F of an element of
    Omega (x) Hom(E, F): the inverse of :func:`operator_to_om_hom_element`."""
    hom = x.module.tensor_factors[1]
    dual, f_mod = hom.tensor_factors
    coeffs: list[dict] = [{} for _ in range(dual.rank)]
    for t_idx, a in x.coeffs.items():
        j, h = tensor_split(x.module, t_idx)
        i, k = tensor_split(hom, h)
        coeffs[i][tensor_index(target, j, k)] = a.scale(
            hom_sign(dual.basis.degrees[i], f_mod.basis.degrees[k]))
    return [ModuleElement._trusted(target, c) for c in coeffs]


class AtiyahCocycle:
    """The Atiyah cocycle [nabla, d] of a delta-connection, and its class.

    ``operator_values[i]`` = nabla(d e_i) - d(nabla(e_i)), and ``element``
    is the same data as a degree-1 element of ``om_end``, Omega (x) End(E)
    with End(E) = dual(E) (x) E; ``complex`` is the cochain complex of
    ``om_end``, in which the class is decided.
    All three are built on first read: the tower's seed reads only the
    operator values, and comparing with another class reads only this
    cocycle's complex.
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

    @functools.cached_property
    def om_end(self) -> DgModule:
        end = tensor_module(dual_module(self.module), self.module)
        return tensor_module(self.connection.delta.target, end)

    @functools.cached_property
    def element(self) -> ModuleElement:
        return operator_to_om_hom_element(self.om_end, self.operator_values)

    @functools.cached_property
    def complex(self) -> CochainComplex:
        return CochainComplex(self.om_end)

    def is_closed(self) -> bool:
        return apply_module_differential(self.om_end, self.element).is_zero()

    def class_is_zero(self) -> bool:
        return self.complex.is_coboundary(self.element) is not None

    def same_class(self, other: "AtiyahCocycle") -> bool:
        return self.complex.is_coboundary(
            self.element - other.element) is not None


def atiyah_cocycle(connection: DeltaConnection) -> AtiyahCocycle:
    return AtiyahCocycle(connection)


def connection_difference_element(c1: DeltaConnection, c2: DeltaConnection,
                                  om_end: DgModule) -> ModuleElement:
    """nabla - nabla' as a degree-0 element of ``om_end``, the module
    Omega (x) End(E) of an Atiyah cocycle on E."""
    if c1.module.basis != c2.module.basis:
        raise ValueError("connections live on different modules")
    values = [c1.values.get(i, c1.tensor.zero())
              - c2.values.get(i, c2.tensor.zero())
              for i in range(c1.module.rank)]
    return operator_to_om_hom_element(om_end, values)


def flat_connection_exists(at: AtiyahCocycle) -> DeltaConnection | None:
    """A delta-connection on the module of ``at`` with vanishing Atiyah
    cocycle, or None.

    For an A-linear theta of degree 0, [nabla_0 + theta, d] = [nabla_0, d]
    - d(theta) in Omega (x) End(E).  So a flat connection exists exactly
    when the cocycle of the zero connection nabla_0 is a coboundary, and
    nabla_0 + theta is flat for its primitive theta (free variables zero),
    read in the complex of ``at``.
    """
    conn = at.connection
    zero = DeltaConnection(conn.delta, conn.module, {}, tensor=conn.tensor)
    theta = at.complex.is_coboundary(operator_to_om_hom_element(
        at.om_end, atiyah_cocycle(zero).operator_values))
    if theta is None:
        return None
    values = om_hom_element_to_operator(theta, conn.tensor)
    return DeltaConnection(conn.delta, conn.module, dict(enumerate(values)),
                           tensor=conn.tensor)
