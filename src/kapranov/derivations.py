"""Module-valued derivations of a commutative dg algebra.

A dg derivation is a degree-0 map delta: A -> Omega with
delta(ab) = delta(a).b + a.delta(b) that intertwines the differentials.
Homotopies between derivations are degree -1 derivations h with
delta' - delta = d o h + h o d_A.
"""

from __future__ import annotations

from collections.abc import Sequence

from .algebra import AlgebraElement, CdgaPresentation
from .cohomology import solve_affine
from .graded import ONE, GradedBasis
from .modules import (DgModule, KBasis, ModuleElement, ModuleMorphism,
                      apply_module_differential)


def extend_derivation(algebra: CdgaPresentation, target: DgModule,
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
            term = val.right_mul(suffix).left_mul(prefix).scale(sign * c)
            out = out + term
    return out


class DgDerivation:
    """delta: A -> Omega, degree 0, given by its values on generators."""

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
                if d is not None and d != 1:
                    raise ValueError(
                        f"delta({algebra.generators.names[i]}) must have degree 1")
                self.values[i] = v

    def __call__(self, a: AlgebraElement) -> ModuleElement:
        return extend_derivation(self.algebra, self.target, self.values, 0, a)

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other) -> bool:
        if not isinstance(other, DgDerivation):
            return NotImplemented
        if self.algebra != other.algebra or self.target.basis != other.target.basis:
            return False
        keys = set(self.values) | set(other.values)
        zero = self.target.zero()
        return all(self.values.get(i, zero) == other.values.get(i, zero)
                   for i in keys)

    def __repr__(self) -> str:
        return f"DgDerivation({self.label or 'delta'})"


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


class DerivationHomotopy:
    """Degree -1 derivation h: A -> Omega, given on generators.

    Values must have degree 0; h extends with
    h(ab) = h(a).b + (-1)^{|a|} a.h(b).
    """

    def __init__(self, algebra: CdgaPresentation, target: DgModule,
                 values: dict[int, ModuleElement], label: str = ""):
        self.algebra = algebra
        self.target = target
        self.label = label
        self.values: dict[int, ModuleElement] = {}
        for i, v in values.items():
            if not v.is_zero():
                d = v.degree()
                if d is not None and d != 0:
                    raise ValueError(
                        f"h({algebra.generators.names[i]}) must have degree 0")
                self.values[i] = v

    def __call__(self, a: AlgebraElement) -> ModuleElement:
        return extend_derivation(self.algebra, self.target, self.values, -1, a)


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

    The unknowns are the generator values h(g_i), elements of the degree-0
    slice of Omega; the equations are linear, solved exactly over Q.
    Returns None when the two derivations are not homotopic.
    """
    if delta.target.basis != delta_prime.target.basis:
        raise ValueError("derivations must share the target module")
    alg = delta.algebra
    omega = delta.target
    kb = KBasis(omega)
    n0 = len(kb.slice(0))
    gens = [AlgebraElement.generator(g) for g in range(alg.n_generators)]
    d_gens = [alg.diff.get(g, AlgebraElement()) for g in range(alg.n_generators)]
    offsets = [delta_prime.values.get(g, omega.zero())
               - delta.values.get(g, omega.zero())
               for g in range(alg.n_generators)]

    def homotopy_from_vector(x: Sequence[Scalar]) -> DerivationHomotopy:
        return DerivationHomotopy(alg, omega, {
            g: kb.from_vector(x[g * n0:(g + 1) * n0], 0)
            for g in range(alg.n_generators)})

    def residual(x: Sequence[Scalar]) -> list[Scalar]:
        # d(h(g)) + h(d_A g) - (delta' - delta)(g), per generator g
        h = homotopy_from_vector(x)
        out: list[Scalar] = []
        for gen, d_gen, offset in zip(gens, d_gens, offsets):
            out.extend(kb.to_vector(apply_module_differential(omega, h(gen))
                                    + h(d_gen) - offset, 1))
        return out

    x = solve_affine(residual, alg.n_generators * n0)
    return None if x is None else homotopy_from_vector(x)


class DerivationMorphism:
    """Morphism of derivations with fixed algebra: phi with delta = phi o delta'.

    Contravariant bookkeeping: ``phi`` is a degree-0 dg module morphism
    Omega' -> Omega carrying the source derivation delta' (into Omega') to
    the target derivation delta (into Omega).
    """

    def __init__(self, delta_prime: DgDerivation, delta: DgDerivation,
                 phi: ModuleMorphism, label: str = ""):
        if phi.degree != 0:
            raise ValueError("derivation morphisms are degree 0")
        if phi.source.basis != delta_prime.target.basis:
            raise ValueError("phi must start at the target module of delta'")
        if phi.target.basis != delta.target.basis:
            raise ValueError("phi must land in the target module of delta")
        self.delta_prime = delta_prime
        self.delta = delta
        self.phi = phi
        self.label = label

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
    basis = GradedBasis([f"d{name}" for name in algebra.generators.names], [1] * n)
    omega1 = DgModule(algebra, basis, {}, label="Omega^1")
    ddr_values = {i: ModuleElement.basis_vector(omega1, i) for i in range(n)}

    def ddr(a: AlgebraElement) -> ModuleElement:
        return extend_derivation(algebra, omega1, ddr_values, 0, a)

    diff: dict[tuple[int, int], AlgebraElement] = {}
    for i in range(n):
        img = ddr(algebra.diff.get(i, AlgebraElement()))
        for j, a in img.coeffs.items():
            diff[(i, j)] = a
    omega1.diff_matrix = {k: v for k, v in diff.items() if not v.is_zero()}
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
    return ModuleMorphism(omega1, delta.target, 0, mat, label="alpha")
