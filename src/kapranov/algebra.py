"""Finite-dimensional commutative dg algebras (exterior form).

An algebra here is a free graded-commutative algebra on finitely many
degree-1 generators, equipped with a degree-1 differential; this is
exactly the shape of a Chevalley-Eilenberg algebra.  Elements are sparse
sums of monomials; a monomial is a strictly increasing tuple of generator
indices, and its degree is its length.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .graded import ONE, ZERO, GradedBasis, _scaled, exact

Monomial = tuple[int, ...]


def _merge_monomials(a: Monomial, b: Monomial) -> tuple[int, Monomial]:
    """Sign and result of the wedge of two increasing monomials.

    Returns ``(0, ())`` when the product vanishes (repeated generator).
    Since every generator has odd degree, the sign is the parity of the
    number of transpositions needed to interleave ``b`` into ``a``.
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    if set(a) & set(b):
        return 0, ()
    merged: list[int] = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            # b[j] jumps over the remaining len(a)-i odd generators
            if (len(a) - i) % 2:
                sign = -sign
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


def canonical_monomial(word: Sequence[int]) -> tuple[int, Monomial]:
    """Sign and increasing form of a word of generator indices.

    The generators are odd, so sorting the word costs the sign of the
    permutation; a repeated generator makes the word zero, returned as
    ``(0, ())``.
    """
    sign, mon = 1, ()
    for g in word:
        step, mon = _merge_monomials(mon, (g,))
        if not step:
            return 0, ()
        sign *= step
    return sign, mon


class AlgebraElement:
    """Sparse element of an exterior algebra: dict monomial -> coefficient.

    The constructor and ``scalar``, ``monomial`` and ``scale`` normalise
    their coefficients with :func:`~kapranov.graded.exact`, and the
    constructor and ``monomial`` also bring each key to its
    :func:`canonical_monomial`; arithmetic, and every internal caller that
    holds an increasing key and a nonzero coefficient, builds with
    :meth:`_trusted`, which takes a dict that is already normalised and
    free of zeros.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Scalar] | None = None):
        self.terms: dict[Monomial, Scalar] = {}
        for word, c in (terms or {}).items():
            sign, mon = canonical_monomial(word)
            s = self.terms.get(mon, ZERO) + sign * exact(c)
            if s:
                self.terms[mon] = exact(s)
            else:
                self.terms.pop(mon, None)

    @classmethod
    def _trusted(cls, terms: dict[Monomial, Scalar]) -> "AlgebraElement":
        self = object.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def scalar(cls, c) -> "AlgebraElement":
        return cls.monomial((), c)

    @classmethod
    def generator(cls, i: int) -> "AlgebraElement":
        return cls._trusted({(i,): ONE})

    @classmethod
    def monomial(cls, word: Sequence[int], c=ONE) -> "AlgebraElement":
        sign, mon = canonical_monomial(word)
        c = sign * exact(c)
        return cls._trusted({mon: c} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        degs = {len(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) == 1:
            return degs.pop()
        raise ValueError(f"element is not homogeneous: {self}")

    def homogeneous_parts(self) -> dict[int, "AlgebraElement"]:
        parts: dict[int, AlgebraElement] = {}
        for mon, c in self.terms.items():
            parts.setdefault(len(mon), AlgebraElement()).terms[mon] = c
        return parts

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.terms)
        for mon, c in other.terms.items():
            s = out.get(mon, ZERO) + c
            if s:
                out[mon] = s if s.__class__ is int else exact(s)
            else:
                del out[mon]
        return AlgebraElement._trusted(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._trusted({m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "AlgebraElement":
        c = exact(c)
        if not c:
            return AlgebraElement._trusted({})
        return AlgebraElement._trusted(_scaled(self.terms, c))

    def __rmul__(self, c) -> "AlgebraElement":
        return self.scale(c)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        out: dict[Monomial, Scalar] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                sign, mon = _merge_monomials(ma, mb)
                if sign == 0:
                    continue
                s = out.get(mon, ZERO) + sign * ca * cb
                if s:
                    out[mon] = s if s.__class__ is int else exact(s)
                else:
                    del out[mon]
        return AlgebraElement._trusted(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def pretty(self, names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mon in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[mon]
            word = "^".join(names[i] for i in mon) if mon else "1"
            parts.append(f"({c})*{word}" if mon else f"({c})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*g{list(m)}" for m, c in sorted(self.terms.items(),
                                                               key=lambda kv: (len(kv[0]), kv[0])))


class CdgaPresentation:
    """Free graded-commutative algebra on degree-1 generators with a differential.

    ``diff`` assigns to each generator index a degree-2 value; the
    differential extends as a degree-1 derivation.
    """

    def __init__(self, generator_names: Sequence[str],
                 diff: dict[int, AlgebraElement] | None = None):
        self.generators = GradedBasis(generator_names, [1] * len(generator_names))
        self.diff: dict[int, AlgebraElement] = {}
        for i, val in (diff or {}).items():
            if not (0 <= i < len(generator_names)):
                raise ValueError(f"differential on unknown generator index {i}")
            if not val.is_zero():
                if val.degree() != 2:
                    raise ValueError(
                        f"d({generator_names[i]}) must be homogeneous of degree 2")
                self.diff[i] = val

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def monomials(self, degree: int | None = None) -> list[Monomial]:
        """All monomials, in (degree, lexicographic) order.

        A list, not a generator: a caller that runs out of memory while it
        iterates would drop a suspended generator during the unwinding, and
        its finalizer, which needs memory too, would write ``Exception
        ignored in:`` to stderr.
        """
        n = self.n_generators
        degrees = range(n + 1) if degree is None else [degree]
        return [mon for k in degrees if 0 <= k <= n
                for mon in itertools.combinations(range(n), k)]

    def dimension(self) -> int:
        return 2 ** self.n_generators

    def apply_differential(self, a: AlgebraElement) -> AlgebraElement:
        """Extend the generator values as a degree-1 derivation."""
        out = AlgebraElement()
        for mon, c in a.terms.items():
            for t in range(len(mon)):
                dv = self.diff.get(mon[t])
                if dv is None:
                    continue
                sign = -1 if t % 2 else 1
                prefix = AlgebraElement._trusted({mon[:t]: ONE})
                suffix = AlgebraElement._trusted({mon[t + 1:]: ONE})
                out = out + (prefix * dv * suffix).scale(sign * c)
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, CdgaPresentation)
                and self.generators == other.generators
                and self.diff == other.diff)

    def __repr__(self) -> str:
        return f"CdgaPresentation({list(self.generators.names)})"


def validate_cdga(alg: CdgaPresentation) -> list[str]:
    """Check d^2 = 0 on generators (hence everywhere).  Returns failures."""
    failures = []
    for i in range(alg.n_generators):
        d2 = alg.apply_differential(alg.diff.get(i, AlgebraElement()))
        if not d2.is_zero():
            failures.append(
                f"d^2({alg.generators.names[i]}) = {d2.pretty(alg.generators.names)}")
    return failures


class LieAlgebraData:
    """A finite-dimensional Lie algebra given by structure constants.

    ``brackets[(i, j)]`` for ``i < j`` is a dict ``k -> c`` meaning
    ``[x_i, x_j] = sum_k c * x_k``.
    """

    def __init__(self, basis_names: Sequence[str],
                 brackets: dict[tuple[int, int], dict[int, Scalar]]):
        self.names = tuple(basis_names)
        self.dim = len(self.names)
        self.brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j), row in brackets.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"bracket on unknown basis indices ({i},{j})")
            if i >= j:
                raise ValueError("structure constants must be keyed by i < j")
            for k in row:
                if not 0 <= k < self.dim:
                    raise ValueError(
                        f"bracket ({i},{j}) names output basis index {k}, but "
                        f"the algebra has dimension {self.dim}")
            clean = {k: exact(c) for k, c in row.items() if exact(c)}
            if clean:
                self.brackets[(i, j)] = clean

    def bracket(self, i: int, j: int) -> dict[int, Scalar]:
        """[x_i, x_j] as a coefficient dict (antisymmetry built in)."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def jacobi_failures(self) -> list[str]:
        out = []
        for i, j, k in itertools.combinations(range(self.dim), 3):
            acc: dict[int, Scalar] = {}
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                inner = self.bracket(b, c)
                for m, cf in inner.items():
                    for l, cf2 in self.bracket(a, m).items():
                        s = acc.get(l, ZERO) + cf * cf2
                        if s:
                            acc[l] = exact(s)
                        else:
                            acc.pop(l, None)
            if acc:
                out.append(f"Jacobi fails on ({self.names[i]},{self.names[j]},{self.names[k]}): {acc}")
        return out


def ce_algebra(lie: LieAlgebraData, name_fn=None) -> CdgaPresentation:
    """Chevalley-Eilenberg algebra of a Lie algebra.

    Generators xi^k dual to the basis, with
    ``d(xi^k) = - sum_{i<j} c^k_ij xi^i ^ xi^j``.
    """
    if name_fn is None:
        name_fn = lambda n: n + "^"
    gen_names = [name_fn(n) for n in lie.names]
    diff: dict[int, AlgebraElement] = {}
    for (i, j), row in lie.brackets.items():
        for k, c in row.items():
            diff.setdefault(k, AlgebraElement())
            diff[k] = diff[k] + AlgebraElement.monomial((i, j), -c)
    diff = {k: v for k, v in diff.items() if not v.is_zero()}
    return CdgaPresentation(gen_names, diff)
