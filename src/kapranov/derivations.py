"""Module-valued derivations of a commutative dg algebra.

A dg derivation is a degree-0 map delta: A -> Omega with
delta(ab) = delta(a).b + a.delta(b) that intertwines the differentials.
Homotopies between derivations are degree -1 derivations h with
delta' - delta = d o h + h o d_A.
"""

from __future__ import annotations

from .algebra import AlgebraElement, CdgaPresentation, leibniz_terms
from .cohomology import CochainComplex
from .graded import GradedBasis
from .modules import (DgModule, ModuleElement, ModuleMorphism,
                      apply_module_differential, dual_module, hom_sign,
                      tensor_index, tensor_module, tensor_split)


def extend_derivation(target: DgModule, terms: dict, degree: int,
                      a: AlgebraElement) -> ModuleElement:
    """Extend generator values, given as flat terms (j, monomial, c), as a
    degree-r derivation into a module: D(x y) = D(x).y + (-1)^{r|x|}
    x.D(y), by :func:`leibniz_terms`."""
    out: dict = {}
    for mon, c in a.terms.items():
        leibniz_terms(mon, terms, degree, target.basis.degrees, out, c)
    return ModuleElement.from_terms(target, out.items())


class DgDerivation:
    """A derivation D: A -> Omega of degree r = ``degree``, given by its
    values on generators: D(ab) = D(a).b + (-1)^{r|a|} a.D(b).

    The generators have degree 1, so their values have degree 1 + r;
    ``terms`` holds them once as the flat terms (j, monomial, c) of
    :func:`leibniz_terms`.  A dg derivation delta has r = 0 and intertwines
    the differentials; a homotopy between two of them is a
    :class:`DerivationHomotopy`.
    """

    degree = 0

    def __init__(self, algebra: CdgaPresentation, target: DgModule,
                 values: dict[int, ModuleElement], label: str = ""):
        if target.algebra != algebra:
            raise ValueError("derivation target must be a module over the same algebra")
        self.algebra = algebra
        self.target = target
        self.label = label
        self.values: dict[int, ModuleElement] = {}
        for i, v in values.items():
            if not (0 <= i < algebra.n_generators):
                raise ValueError(f"value on unknown generator index {i}")
            if not v.is_zero():
                d = v.degree()
                if d is not None and d != 1 + self.degree:
                    raise ValueError(
                        f"the value on {algebra.generators.names[i]} must "
                        f"have degree {1 + self.degree}")
                self.values[i] = v
        self.terms = {g: tuple((j, mon, c) for j, v in val.coeffs.items()
                               for mon, c in v.terms.items())
                      for g, val in self.values.items()}

    def __call__(self, a: AlgebraElement) -> ModuleElement:
        return extend_derivation(self.target, self.terms, self.degree, a)

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other) -> bool:
        if not isinstance(other, DgDerivation):
            return NotImplemented
        if (self.degree != other.degree or self.algebra != other.algebra
                or self.target.basis != other.target.basis):
            return False
        keys = set(self.values) | set(other.values)
        zero = self.target.zero()
        return all(self.values.get(i, zero) == other.values.get(i, zero)
                   for i in keys)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label or 'delta'})"


def validate_dg_derivation(delta: DgDerivation) -> list[str]:
    """Check delta o d_A = d o delta on generators (hence on all of A)."""
    failures = []
    alg = delta.algebra
    for i in range(alg.n_generators):
        lhs = delta(alg.diff.get(i, AlgebraElement()))
        rhs = apply_module_differential(
            delta.target, delta.values.get(i, delta.target.zero()))
        if lhs != rhs:
            failures.append(
                f"delta(d({alg.generators.names[i]})) = {lhs.pretty()} but "
                f"d(delta({alg.generators.names[i]})) = {rhs.pretty()}")
    return failures


class DerivationHomotopy(DgDerivation):
    """A degree -1 derivation h: A -> Omega, given on generators by values
    of degree 0: h(ab) = h(a).b + (-1)^{|a|} a.h(b)."""

    degree = -1


def homotopy_offset(delta: DgDerivation, h: DerivationHomotopy) -> DgDerivation:
    """delta + (d o h + h o d_A), again a dg derivation."""
    alg = delta.algebra
    values: dict[int, ModuleElement] = {}
    for i in range(alg.n_generators):
        gen = AlgebraElement.generator(i)
        v = (delta.values.get(i, delta.target.zero())
             + apply_module_differential(delta.target, h(gen))
             + h(alg.diff.get(i, AlgebraElement())))
        if not v.is_zero():
            values[i] = v
    return DgDerivation(alg, delta.target, values,
                        label=f"{delta.label}+[d,{h.label or 'h'}]")


def find_homotopy(delta: DgDerivation,
                  delta_prime: DgDerivation) -> DerivationHomotopy | None:
    """Solve delta' - delta = d o h + h o d_A for a degree -1 derivation h.

    delta' - delta = alpha o d_dR (:func:`universal_factorization`) and
    d_dR is a chain map, so h = beta o d_dR exactly when [d, beta] = alpha
    in Hom(Omega^1, Omega) = dual(Omega^1) (x) Omega, where dg_g -> a.w_j
    is (-1)^{|w_j|} a.(dg_g* (x) w_j), the :func:`hom_sign` of an odd
    dg_g.  h is the primitive of alpha (free
    variables zero); None when the two derivations are not homotopic.
    """
    if delta.target.basis != delta_prime.target.basis:
        raise ValueError("derivations must share the target module")
    alg, omega = delta.algebra, delta.target
    zero = omega.zero()
    alpha = universal_factorization(DgDerivation(alg, omega, {
        g: delta_prime.values.get(g, zero) - delta.values.get(g, zero)
        for g in range(alg.n_generators)}))
    hom = tensor_module(dual_module(alpha.source), omega)
    signs = [hom_sign(1, d) for d in omega.basis.degrees]
    cx = CochainComplex(hom)
    alpha_hom = ModuleElement(hom, {tensor_index(hom, g, j): a.scale(signs[j])
                                    for (g, j), a in alpha.matrix.items()})
    beta = cx.is_coboundary(alpha_hom) if cx.is_cocycle(alpha_hom) else None
    if beta is None:
        return None
    values: dict[int, dict[int, AlgebraElement]] = {}
    for t, a in beta.coeffs.items():
        g, j = tensor_split(hom, t)
        values.setdefault(g, {})[j] = a.scale(signs[j])
    return DerivationHomotopy(alg, omega, {
        g: ModuleElement(omega, coeffs) for g, coeffs in values.items()})


class DerivationMorphism:
    """Morphism of derivations with fixed algebra: phi with delta = phi o delta'.

    Contravariant bookkeeping: ``phi`` is a degree-0 dg module morphism
    Omega' -> Omega carrying the source derivation delta' (into Omega') to
    the target derivation delta (into Omega).
    """

    def __init__(self, delta_prime: DgDerivation, delta: DgDerivation,
                 phi: ModuleMorphism):
        if phi.degree != 0:
            raise ValueError("derivation morphisms are degree 0")
        if phi.source.basis != delta_prime.target.basis:
            raise ValueError("phi must start at the target module of delta'")
        if phi.target.basis != delta.target.basis:
            raise ValueError("phi must land in the target module of delta")
        self.delta_prime = delta_prime
        self.delta = delta
        self.phi = phi

    def failures(self) -> list[str]:
        out = list(self.phi.dg_failures())
        alg = self.delta.algebra
        for g in range(alg.n_generators):
            lhs = self.phi(self.delta_prime.values.get(g, self.delta_prime.target.zero()))
            rhs = self.delta.values.get(g, self.delta.target.zero())
            if lhs != rhs:
                out.append(
                    f"phi(delta'({alg.generators.names[g]})) = {lhs.pretty()} "
                    f"!= delta({alg.generators.names[g]}) = {rhs.pretty()}")
        return out

    def is_valid(self) -> bool:
        return not self.failures()


def kaehler_differentials(algebra: CdgaPresentation) -> tuple[DgModule, DgDerivation]:
    """Module of 1-forms and the universal derivation d: A -> Omega^1.

    Omega^1 is free on symbols dg_i of degree 1; its differential is fixed
    by requiring d to be a dg derivation: d(dg_i) := d_dR(d_A g_i) where
    d_dR is the degree-0 derivation extension of g_i -> dg_i.
    """
    n = algebra.n_generators
    degrees = [1] * n
    basis = GradedBasis([f"d{name}" for name in algebra.generators.names], degrees)
    symbols = {g: ((g, (), 1),) for g in range(n)}  # d_dR(g_i) = dg_i
    diff: dict[tuple[int, int], dict] = {}
    for i, val in algebra.diff.items():
        out: dict = {}
        for mon, c in val.terms.items():
            leibniz_terms(mon, symbols, 0, degrees, out, c)
        for (mon, j), c in out.items():
            diff.setdefault((i, j), {})[mon] = c
    omega1 = DgModule(algebra, basis, {
        k: AlgebraElement._trusted(terms) for k, terms in diff.items()},
        label="Omega^1")
    ddr_values = {i: ModuleElement.basis_vector(omega1, i) for i in range(n)}
    universal = DgDerivation(algebra, omega1, ddr_values, label="d_dR")
    return omega1, universal


def universal_factorization(delta: DgDerivation) -> ModuleMorphism:
    """The unique module morphism alpha with delta = alpha o d_dR.

    alpha: Omega^1 -> Omega sends dg_i to delta(g_i).
    """
    omega1, _ = kaehler_differentials(delta.algebra)
    mat: dict[tuple[int, int], AlgebraElement] = {}
    for i, v in delta.values.items():
        for j, a in v.coeffs.items():
            mat[(i, j)] = a
    return ModuleMorphism(omega1, delta.target, 0, mat)
