"""Graded-linear foundations: Koszul signs, shuffles, multilinear tables.

Everything here works over the rationals with exact arithmetic.  A
rational has one representation: a Python ``int`` when it is integral,
and a ``fractions.Fraction`` with denominator > 1 otherwise.  Values from
outside (constructors, parsed documents) go through :func:`exact`; the
only true division goes through :func:`exact_div`, so ``int / int``
never yields a float.  Internal arithmetic trusts its operands and only
demotes a ``Fraction`` result that came out integral.

``fractions`` (which imports ``decimal``) is imported only when a
rational is not an integer, so ``Scalar = int | Fraction`` is resolved on
first access; modules that name it only in annotations, which are never
evaluated, do not import it.

A "graded basis" is an ordered list of named, integer-graded basis
vectors.  A vector over such a basis is a ``ModuleElement`` of the free
module on it over the ground field (``KBasis.ground``).
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator, Sequence

ZERO = 0
ONE = 1
_INTEGER = re.compile(r"-?[0-9]+")


def __getattr__(name: str):
    if name == "Scalar":
        from fractions import Fraction
        return int | Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def exact(c) -> Scalar:
    """The rational ``c`` (anything ``Fraction`` accepts) in its one
    representation: an ``int`` when integral, else a ``Fraction``."""
    if c.__class__ is int:
        return c
    if c.__class__ is str and _INTEGER.fullmatch(c):
        return int(c)
    from fractions import Fraction
    if c.__class__ is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient ``a / b`` of two rationals, in the one
    representation: it stays an ``int`` when ``b`` divides ``a``, and is
    otherwise a ``Fraction``.  This is the only true division on
    coefficients; a bare ``a / b`` of two ints would give a float."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        if not r:
            return q
        from fractions import Fraction
        return Fraction(a, b)
    return exact(a / b)


def _scaled(coeffs: dict, c: Scalar) -> dict:
    """The coefficients ``coeffs`` times the nonzero rational ``c``."""
    out = {k: c * v for k, v in coeffs.items()}
    for k, v in out.items():
        if v.__class__ is not int:
            out[k] = exact(v)
    return out


def koszul_sign(sigma: Sequence[int], degrees: Sequence[int]) -> int:
    """Koszul sign of a permutation acting on homogeneous elements.

    ``sigma`` is a permutation of ``1..n`` given as a tuple of images
    (``sigma[i-1]`` is where slot ``i`` of the output draws from), and
    ``degrees[k-1]`` is the degree of the k-th input.  The sign is the
    product of ``(-1)^(d_a * d_b)`` over every pair of inputs that gets
    transposed when reordering ``(x_1, ..., x_n)`` into
    ``(x_sigma(1), ..., x_sigma(n))``.
    """
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {sigma!r}")
    sign = 1
    seq = list(sigma)
    # insertion sort, flipping the sign for each adjacent odd-odd swap
    for i in range(1, n):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            if degrees[seq[j - 1] - 1] % 2 and degrees[seq[j] - 1] % 2:
                sign = -sign
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            j -= 1
    return sign


def shuffles(p: int, q: int) -> Iterator[tuple[int, ...]]:
    """Yield all (p,q)-shuffles of ``1..p+q``.

    A (p,q)-shuffle is a permutation that is increasing on the first ``p``
    slots and on the last ``q`` slots.  Yielded in lexicographic order of
    the first block.
    """
    n = p + q
    universe = range(1, n + 1)
    for first in itertools.combinations(universe, p):
        rest = [x for x in universe if x not in first]
        yield first + tuple(rest)


def ordered_partitions(n: int, q: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Ordered partitions of ``{1..n}`` into ``q`` nonempty blocks.

    Each block is listed in increasing order and the blocks are arranged so
    that their maxima increase.  Yielded deterministically (lexicographic in
    the block-assignment vector).  Enumerated by restricted growth: each
    element joins an open block, while enough elements remain to open all
    q, or opens the next.
    """
    found = []

    def grow(blocks: tuple, elt: int) -> None:
        if elt > n:
            found.append(tuple(sorted(blocks, key=lambda b: b[-1])))
            return
        if n - elt >= q - len(blocks):
            for k, b in enumerate(blocks):
                grow(blocks[:k] + (b + (elt,),) + blocks[k + 1:], elt + 1)
        if len(blocks) < q:
            grow(blocks + ((elt,),), elt + 1)

    if 1 <= q <= n:
        grow((), 1)
    yield from sorted(found, key=lambda p: [
        next(k for k, b in enumerate(p) if e in b) for e in range(1, n + 1)])


def partition_sign(blocks: Sequence[Sequence[int]], degrees: Sequence[int]) -> int:
    """Koszul sign of unshuffling ``(x_1..x_n)`` into the given blocks."""
    flat = tuple(itertools.chain.from_iterable(blocks))
    return koszul_sign(flat, degrees)


class GradedBasis:
    """An ordered basis of named homogeneous vectors."""

    def __init__(self, names: Sequence[str], degrees: Sequence[int]):
        if len(names) != len(degrees):
            raise ValueError("names and degrees must have equal length")
        if len(set(names)) != len(names):
            raise ValueError("basis names must be distinct")
        self.names = tuple(names)
        self.degrees = tuple(int(d) for d in degrees)

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedBasis)
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def __repr__(self) -> str:
        items = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"GradedBasis({items})"


class MultilinearMap:
    """k-multilinear map given by a table of values on basis tuples.

    ``table`` maps tuples of input basis indices to (nonzero) output
    values, ``ModuleElement``s of the free module on ``output_basis`` over
    the ground field; absent tuples map to zero.  ``input_bases``
    lists the basis of each slot (often all the same), ``degree`` is the
    internal degree of the map.
    """

    def __init__(
        self,
        arity: int,
        degree: int,
        input_bases: Sequence[GradedBasis],
        output_basis: GradedBasis,
        table: dict[tuple[int, ...], ModuleElement] | None = None,
    ):
        if len(input_bases) != arity:
            raise ValueError("need one input basis per slot")
        self.arity = arity
        self.degree = degree
        self.input_bases = tuple(input_bases)
        self.output_basis = output_basis
        self.table: dict[tuple[int, ...], ModuleElement] = {}
        if table:
            for key, val in table.items():
                if not val.is_zero():
                    self.table[tuple(key)] = val

    @classmethod
    def uniform(
        cls,
        arity: int,
        degree: int,
        basis: GradedBasis,
        output_basis: GradedBasis | None = None,
        table=None,
    ) -> "MultilinearMap":
        return cls(arity, degree, [basis] * arity, output_basis or basis, table)

    def set(self, key: tuple[int, ...], val: ModuleElement) -> None:
        if val.is_zero():
            self.table.pop(tuple(key), None)
        else:
            self.table[tuple(key)] = val

    def is_zero(self) -> bool:
        return not self.table

    def check_degrees(self) -> list[str]:
        """Return violations of the homogeneity contract (empty if clean)."""
        bad = []
        for key, val in self.table.items():
            want = self.degree + sum(
                b.degrees[i] for b, i in zip(self.input_bases, key)
            )
            for j in val.coeffs:
                if self.output_basis.degrees[j] != want:
                    bad.append(f"value at {key} has a term of degree "
                               f"{self.output_basis.degrees[j]}, expected {want}")
                    break
        return bad

