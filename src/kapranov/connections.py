"""Connections along derivations, and Atiyah cocycles.

Given a derivation delta: A -> Omega of degree r and a dg module E, a
connection along delta is a degree-r map nabla: E -> Omega (x) E with
nabla(a.e) = delta(a) (x) e + (-1)^{r|a|} a.nabla(e).  Along a dg
derivation (r = 0) it is a delta-connection, and its Atiyah cocycle is
the graded commutator [nabla, d], an A-linear degree-1 map, i.e. a
closed degree-1 element of Omega (x) End(E).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from .cohomology import CochainComplex, solve_columns
from .derivations import DgDerivation
from .modules import (DgModule, KBasis, ModuleElement,
                      apply_module_differential, apply_operator, dual_module,
                      operator_terms, tensor_index, tensor_module,
                      tensor_split)


def omega_tensor(delta: DgDerivation, module: DgModule) -> DgModule:
    return tensor_module(delta.target, module)


class DeltaConnection:
    """A connection along a derivation delta of degree r on a free dg
    module E, given by its values on basis vectors:

      nabla(a.e) = delta(a) (x) e + (-1)^{r|a|} a.nabla(e),

    with ``values[i]`` = nabla(e_i), an element of Omega (x) E of degree
    |e_i| + r, and r = ``delta.degree``.  A dg derivation (r = 0) gives a
    delta-connection; a homotopy h (r = -1) gives the h-connection of
    Chen-Stienon-Xu.  ``tensor``, when given, is
    ``omega_tensor(delta, module)`` already built.
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

    def __repr__(self) -> str:
        return f"DeltaConnection({self.label or 'nabla'})"


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
            if dual.basis.degrees[i] * f_mod.basis.degrees[k] % 2:
                a = -a
            coeffs[tensor_index(om_hom, j, tensor_index(hom, i, k))] = a
    return ModuleElement._trusted(om_hom, coeffs)


class AtiyahCocycle:
    """The Atiyah cocycle [nabla, d] of a delta-connection.

    ``operator_values[i]`` = nabla(d e_i) - d(nabla(e_i)), and ``element``
    is the same data as a degree-1 element of ``om_end``, Omega (x) End(E)
    with End(E) = dual(E) (x) E.
    Both are built on first read: the tower's seed reads only the operator
    values.
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
        return tensor_module(self.connection.delta.target, end, label="Omega(x)End")

    @functools.cached_property
    def element(self) -> ModuleElement:
        return operator_to_om_hom_element(self.om_end, self.operator_values)

    def is_closed(self) -> bool:
        return apply_module_differential(self.om_end, self.element).is_zero()


def atiyah_cocycle(connection: DeltaConnection) -> AtiyahCocycle:
    return AtiyahCocycle(connection)


class AtiyahClass:
    """Cohomology class of the Atiyah cocycle in H^1(Omega (x) End E).

    ``complex``, the cochain complex of Omega (x) End E with its k-basis,
    is built on first read: comparing with another class reads only this
    one's."""

    def __init__(self, delta: DgDerivation, module: DgModule,
                 connection: DeltaConnection | None = None):
        self.delta = delta
        self.module = module
        self.connection = connection or DeltaConnection(delta, module)
        self.cocycle = atiyah_cocycle(self.connection)

    @functools.cached_property
    def complex(self) -> CochainComplex:
        return CochainComplex(self.cocycle.om_end)

    def is_zero(self) -> bool:
        return self.complex.is_coboundary(self.cocycle.element) is not None

    def equals(self, other: "AtiyahClass") -> bool:
        if other.module.basis != self.module.basis:
            raise ValueError("classes live on different modules")
        return self.complex.classes_equal(self.cocycle.element,
                                          other.cocycle.element)


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


def flat_connection_exists(delta: DgDerivation,
                           module: DgModule) -> DeltaConnection | None:
    """Search for a delta-connection with vanishing Atiyah cocycle.

    The unknowns are the basis values nabla(e_i); the vanishing of
    [nabla, d] is an affine-linear condition, solved exactly over Q.
    With d e_i = sum_j a_ij e_j, row block i of the condition reads
    c_i + sum_j a_ij.nabla(e_j) - d(nabla(e_i)) = 0, where
    c_i = sum_j delta(a_ij) (x) e_j is the cocycle of the zero connection.
    So an unknown k-basis element w of nabla(e_j) has the column a_ij.w
    in each row block i and -d(w) in row block j.
    Returns a flat connection or None.
    """
    tensor = omega_tensor(delta, module)
    kb = KBasis(tensor)
    degrees = module.basis.degrees
    rows = [d + 1 for d in degrees]  # the degree of row block i
    diffs = [module.diff_of_basis(i) for i in range(module.rank)]
    zero = DeltaConnection(delta, module, {}, tensor=tensor)
    base = [c for i, de in enumerate(diffs)
            for c in kb.to_vector(zero(de), rows[i])]
    columns = []
    for j, d in enumerate(degrees):
        uses = [(i, de.coeffs[j]) for i, de in enumerate(diffs)
                if j in de.coeffs]
        for key in kb.slice(d):
            w = tensor.kbasis_element(key)
            blocks = [tensor.zero() for _ in degrees]
            for i, a in uses:
                blocks[i] = blocks[i] + w.left_mul(a)
            dw = kb.differential_vector(key, rows[j])
            vecs = [kb.to_vector(v, rows[i]) for i, v in enumerate(blocks)]
            vecs[j] = [a - b for a, b in zip(vecs[j], dw)]
            columns.append([c for vec in vecs for c in vec])
    x = solve_columns(base, columns)
    if x is None:
        return None
    values, start = {}, 0
    for i, d in enumerate(degrees):
        size = len(kb.slice(d))
        values[i] = kb.from_vector(x[start:start + size], d)
        start += size
    return DeltaConnection(delta, module, values, tensor=tensor)
