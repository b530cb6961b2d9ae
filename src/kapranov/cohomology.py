"""Cohomology of finite-dimensional cochain complexes over Q.

A dg module over a finite-dimensional algebra is a finite-dimensional
cochain complex over the ground field, sliced by degree by its
:class:`~kapranov.modules.KBasis`.  One exact, sparse elimination,
:class:`Span`, on vectors {(monomial, basis index): rational} from
:meth:`~kapranov.modules.DgModule.differential_terms`, answers every
question to it: Betti numbers, class representatives, primitives and
class coordinates.  A kept vector is never normalized; a reduction
divides only its factor (:func:`~kapranov.graded.exact_div`), so entries
stay ``int`` while they are integral.
"""

from __future__ import annotations

from collections.abc import Sequence

from .algebra import add_scalar
from .graded import ONE, ZERO, exact_div
from .modules import DgModule, KBasis, ModuleElement, apply_module_differential


def _add(out: dict, f: Scalar, v: dict) -> None:
    """out += f * v for a nonzero f, keeping ``out`` free of zeros."""
    for key, x in v.items():
        add_scalar(out, key, f * x)


class Span:
    """The echelon form of sparse vectors {key: nonzero rational}, added
    in order.

    A vector is kept exactly when it is independent of the vectors kept
    before it; ``kept`` lists their labels.  Any other vector is a unique
    combination {label: coefficient} of the kept ones, listed with its
    label in ``dependencies``.  A row is a kept vector reduced by the rows
    before it, with its pivot (a key where it is nonzero and every later
    row is zero) and the combination of kept vectors that it equals.
    ``Span(other.rows, other.kept)`` is a copy of ``other`` to extend.
    """

    def __init__(self, rows: Sequence = (), kept: Sequence = ()):
        self.rows: list[tuple[object, dict, dict]] = list(rows)
        self.kept: list = list(kept)
        self.dependencies: list[tuple[object, dict]] = []

    def reduce(self, v: dict) -> tuple[dict, dict]:
        """(residual, combination): v is the residual plus the combination
        of the kept vectors, and the residual is empty exactly when v lies
        in their span."""
        v, combination = dict(v), {}
        for pivot, row, row_combination in self.rows:
            f = v.get(pivot)
            if f:
                f = exact_div(f, row[pivot])
                _add(v, -f, row)
                _add(combination, f, row_combination)
        return v, combination

    def add(self, label, v: dict) -> dict | None:
        """Keep v under ``label`` and return None when it is independent
        of the kept vectors; otherwise return it as their combination."""
        residual, combination = self.reduce(v)
        if not residual:
            self.dependencies.append((label, combination))
            return combination
        combination = {key: -c for key, c in combination.items()}
        combination[label] = ONE
        self.rows.append((next(iter(residual)), residual, combination))
        self.kept.append(label)
        return None


def rref(m: list[dict]) -> Span:
    """The echelon form of the vectors ``m``, added in order and labelled
    by their positions.  As columns of a matrix, the kept labels are its
    pivot columns and a dependency is the kernel vector in standard form
    of a free column: 1 there, minus the combination on the pivots."""
    span = Span()
    for label, v in enumerate(m):
        span.add(label, v)
    return span


def _terms(v: ModuleElement) -> dict:
    return {(mon, i): c for i, a in v.coeffs.items()
            for mon, c in a.terms.items()}


class CochainComplex:
    """Degree-sliced view of a dg module as a complex over Q, on the
    k-basis of the module's :class:`~kapranov.modules.KBasis`."""

    def __init__(self, module: DgModule):
        self.module = module
        self.kb = KBasis(module)
        self._echelon: dict[int, Span] = {}
        self._classes: dict[int, tuple[Span, list]] = {}

    def degrees(self) -> list[int]:
        """The degrees with a nonempty slice: |e_i| + k for k up to the
        number of generators."""
        n = self.module.algebra.n_generators
        return sorted({d + k for d in self.module.basis.degrees
                       for k in range(n + 1)})

    def echelon(self, n: int) -> Span:
        """The echelon form of the images of the degree-n slice under d,
        computed once: its kept labels span the coboundaries of degree
        n + 1 and its dependencies are the cocycles of degree n."""
        if n not in self._echelon:
            self._echelon[n] = rref([self.module.differential_terms(*key)
                                     for key in self.kb.slice(n)])
        return self._echelon[n]

    def _element(self, n: int, coords: dict[int, Scalar]) -> ModuleElement:
        """The element with coordinates {position in the degree-n slice: c}."""
        keys = self.kb.slice(n)
        return ModuleElement.from_terms(
            self.module, ((keys[p], coords[p]) for p in sorted(coords)))

    def _representatives(self, n: int) -> tuple[Span, list]:
        """The echelon form of degree n - 1 extended by the cocycles of
        degree n, labelled after the slice, and the (label,
        representative) of each cocycle it kept: the first cocycles
        outside the coboundaries and the cocycles before them."""
        if n not in self._classes:
            below, keys = self.echelon(n - 1), self.kb.slice(n)
            span = Span(below.rows, below.kept)
            offset, reps = len(self.kb.slice(n - 1)), []
            for j, (free, combination) in enumerate(self.echelon(n).dependencies):
                z = {p: -c for p, c in combination.items()}
                z[free] = ONE
                if span.add(offset + j, {keys[p]: c for p, c in z.items()}) is None:
                    reps.append((offset + j, self._element(n, z)))
            self._classes[n] = span, reps
        return self._classes[n]

    def cohomology_reps(self) -> list[tuple[int, ModuleElement]]:
        """(degree, representative) for a basis of all of H, by degree."""
        return [(n, rep) for n in self.degrees()
                for _, rep in self._representatives(n)[1]]

    def betti(self, n: int) -> int:
        """dim Z^n - rank d_{n-1}, also when d^2 != 0 (H^n is then undefined)."""
        return len(self.echelon(n).dependencies) - len(self.echelon(n - 1).kept)

    def is_cocycle(self, v: ModuleElement) -> bool:
        return apply_module_differential(self.module, v).is_zero()

    def is_coboundary(self, v: ModuleElement) -> ModuleElement | None:
        """A primitive of v (free variables zero), or None.

        Raises ValueError when v is not closed.
        """
        if v.is_zero():
            return self.module.zero()
        n = v.degree()
        if not self.is_cocycle(v):
            raise ValueError("is_coboundary called on a non-cocycle")
        residual, x = self.echelon(n - 1).reduce(_terms(v))
        return None if residual else self._element(n - 1, x)

    def class_coordinates(self, v: ModuleElement) -> list[Scalar]:
        """Coordinates of [v] in the representatives of its degree.

        v = 0 gives the empty list; a v that is not a cocycle raises
        ValueError.
        """
        if v.is_zero():
            return []
        n = v.degree()
        if not self.is_cocycle(v):
            raise ValueError("class_coordinates called on a non-cocycle")
        span, reps = self._representatives(n)
        x = span.reduce(_terms(v))[1]  # a cocycle has no residual
        return [x.get(label, ZERO) for label, _ in reps]
