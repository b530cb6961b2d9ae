"""Cohomology of finite-dimensional cochain complexes over Q.

A dg module over a finite-dimensional algebra is a finite-dimensional
cochain complex over the ground field; this module slices it by degree
and runs exact rational row reduction to get kernels, images, and
deterministic representatives of cohomology classes.  Entries stay
``int`` while they are integral: a pivot row is divided through
:func:`~kapranov.graded.exact_div`, and a row operation demotes a
``Fraction`` that came out integral.
"""

from __future__ import annotations

from .graded import ONE, ZERO, exact, exact_div
from .modules import DgModule, KBasis, ModuleElement, apply_module_differential

Vector = list  # of rationals (graded.Scalar, resolved lazily)
Matrix = list[Vector]


def _divided(row: Vector, pv: Scalar) -> Vector:
    """``row`` divided by the pivot ``pv`` (``row`` itself when pv is 1)."""
    if pv == 1:
        return row
    return [exact_div(x, pv) if x else 0 for x in row]


def _eliminate(row: Vector, f: Scalar, pivot_row: Vector,
               support: list[int]) -> None:
    """row -= f * pivot_row, in place; ``support`` lists the columns where
    ``pivot_row`` is nonzero."""
    for j in support:
        x = row[j] - f * pivot_row[j]
        row[j] = x if x.__class__ is int else exact(x)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (fresh copy) and pivot column list."""
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
        m[r] = prow = _divided(m[r], m[r][c])
        support = [j for j in range(c, cols) if prow[j]]
        for i in range(rows):
            if i != r and m[i][c]:
                _eliminate(m[i], m[i][c], prow, support)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_basis(m: Matrix, n_cols: int) -> list[Vector]:
    """Basis of the null space of m (rows are equations), standard form.

    One vector per free column, with 1 in the free slot; deterministic.
    """
    if not m:
        return [[ONE if i == j else ZERO for i in range(n_cols)]
                for j in range(n_cols)]
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    out = []
    for fc in free:
        v = [ZERO] * n_cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        out.append(v)
    return out


def solve_linear(m: Matrix, b: Vector) -> Vector | None:
    """One solution of m x = b (free variables zero), or None."""
    rows = len(m)
    if rows == 0:
        return []
    n_cols = len(m[0])
    aug = [row[:] + [bb] for row, bb in zip(m, b)]
    red, pivots = rref(aug)
    if n_cols in pivots:
        return None
    x = [ZERO] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n_cols]
    return x


def from_columns(columns: list[Vector], n_rows: int) -> Matrix:
    """The n_rows-row matrix whose columns are ``columns``."""
    return [[col[i] for col in columns] for i in range(n_rows)]


class CochainComplex:
    """Degree-sliced view of a dg module as a complex over Q, in the
    coordinates of the module's :class:`~kapranov.modules.KBasis`."""

    def __init__(self, module: DgModule):
        self.module = module
        self.kb = KBasis(module)
        self._dmat: dict[int, Matrix] = {}
        self._degrees: dict[int, tuple[int, int, list[ModuleElement]]] = {}

    def degrees(self) -> list[int]:
        return sorted(self.kb.slices)

    def dim(self, n: int) -> int:
        return len(self.kb.slice(n))

    def diff_matrix(self, n: int) -> Matrix:
        """Rows: images of the degree-n slice basis, in the degree-n+1 slice."""
        if n not in self._dmat:
            self._dmat[n] = [self.kb.differential_vector(key, n + 1)
                             for key in self.kb.slice(n)]
        return self._dmat[n]

    def _degree(self, n: int) -> tuple[int, int, list[ModuleElement]]:
        """(dim Z^n, rank d_{n-1}, representatives of H^n), computed once.

        One ``rref`` of the columns [rows of d_{n-1} | cocycles]: a column
        is a pivot exactly when it lies outside the span of the columns
        before it, so the pivot cocycles are the first cocycles, in
        kernel-basis order, outside the coboundaries and the cocycles
        before them.
        """
        if n not in self._degrees:
            cocycles = kernel_basis(
                from_columns(self.diff_matrix(n), self.dim(n + 1)), self.dim(n))
            boundaries = self.diff_matrix(n - 1)
            _, pivots = rref(from_columns(boundaries + cocycles, self.dim(n)))
            rank = sum(1 for p in pivots if p < len(boundaries))
            self._degrees[n] = (len(cocycles), rank, [
                self.kb.from_vector(cocycles[p - len(boundaries)], n)
                for p in pivots[rank:]])
        return self._degrees[n]

    def cohomology_reps(self) -> list[tuple[int, ModuleElement]]:
        """(degree, representative) for a basis of all of H, by degree."""
        return [(n, rep) for n in self.degrees()
                for rep in self._degree(n)[2]]

    def betti(self, n: int) -> int:
        """dim Z^n - rank d_{n-1}, also when d^2 != 0 (H^n is then undefined)."""
        n_cocycles, rank, _ = self._degree(n)
        return n_cocycles - rank

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
        rows = self.diff_matrix(n - 1)
        target = self.kb.to_vector(v, n)
        if not rows:
            return None if any(target) else self.module.zero()
        x = solve_linear(from_columns(rows, self.dim(n)), target)
        if x is None:
            return None
        return self.kb.from_vector(x, n - 1)

    def classes_equal(self, v: ModuleElement, w: ModuleElement) -> bool:
        diff = v - w
        if diff.is_zero():
            return True
        return self.is_coboundary(diff) is not None

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
        reps = self._degree(n)[2]
        # solve [reps | coboundaries] . x = v
        cols = [self.kb.to_vector(r, n) for r in reps] + self.diff_matrix(n - 1)
        x = solve_linear(from_columns(cols, self.dim(n)),
                         self.kb.to_vector(v, n))
        if x is None:
            raise ValueError("closed element not in span of classes and coboundaries")
        return x[:len(reps)]
