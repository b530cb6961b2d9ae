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

from collections.abc import Callable

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


def _from_columns(columns: list[Vector], n_rows: int) -> Matrix:
    """The n_rows-row matrix whose columns are ``columns``."""
    return [[col[i] for col in columns] for i in range(n_rows)]


def solve_affine(residual: Callable[[Vector], Vector],
                 n_unknowns: int) -> Vector | None:
    """One x with residual(x) = 0 (free variables zero), or None.

    ``residual`` must be affine: its value at 0 and the differences of its
    values at the unit vectors from it are the constant and the columns
    of the linear part, which :func:`solve_linear` then solves.
    """
    base = residual([ZERO] * n_unknowns)
    columns = []
    for u in range(n_unknowns):
        x = [ZERO] * n_unknowns
        x[u] = ONE
        columns.append([exact(a - b) for a, b in zip(residual(x), base)])
    return solve_columns(base, columns)


def solve_columns(base: Vector, columns: list[Vector]) -> Vector | None:
    """One x with base + sum_u x_u columns[u] = 0 (free variables zero),
    or None."""
    x = solve_linear(_from_columns(columns, len(base)), [-b for b in base])
    if x is None:
        return None
    return x or [ZERO] * len(columns)


class RowSpace:
    """Incremental RREF row space, for reduction mod a growing span."""

    def __init__(self, n_cols: int):
        self.n_cols = n_cols
        self.rows: list[Vector] = []   # kept in echelon form
        self.pivots: list[int] = []

    def reduce(self, v: Vector) -> Vector:
        v = v[:]
        for row, pc in zip(self.rows, self.pivots):
            if v[pc]:
                _eliminate(v, v[pc], row,
                           [j for j in range(pc, self.n_cols) if row[j]])
        return v

    def add(self, v: Vector) -> bool:
        """Insert v; returns True if it enlarged the space."""
        v = self.reduce(v)
        pc = next((c for c in range(self.n_cols) if v[c]), None)
        if pc is None:
            return False
        v = _divided(v, v[pc])
        support = [j for j in range(pc, self.n_cols) if v[j]]
        for row in self.rows:
            if row[pc]:
                _eliminate(row, row[pc], v, support)
        pos = next((k for k, p in enumerate(self.pivots) if p > pc), len(self.pivots))
        self.rows.insert(pos, v)
        self.pivots.insert(pos, pc)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


class CochainComplex:
    """Degree-sliced view of a dg module as a complex over Q, in the
    coordinates of the module's :class:`~kapranov.modules.KBasis`."""

    def __init__(self, module: DgModule):
        self.module = module
        self.kb = KBasis(module)
        self._dmat: dict[int, Matrix] = {}

    def degrees(self) -> list[int]:
        return sorted(self.kb.slices)

    def dim(self, n: int) -> int:
        return len(self.kb.slice(n))

    def diff_matrix(self, n: int) -> Matrix:
        """Rows: images of the degree-n slice basis, in the degree-n+1 slice."""
        if n not in self._dmat:
            kb = self.kb
            self._dmat[n] = [
                kb.dense(((kb.keys[idx], c)
                          for idx, c in kb.differential(key).items()), n + 1)
                for key in kb.slice(n)]
        return self._dmat[n]

    def cocycles(self, n: int) -> list[Vector]:
        return kernel_basis(_from_columns(self.diff_matrix(n), self.dim(n + 1)),
                            self.dim(n))

    def coboundary_space(self, n: int) -> RowSpace:
        space = RowSpace(self.dim(n))
        for row in self.diff_matrix(n - 1):
            space.add(row)
        return space

    def cohomology_basis(self, n: int) -> list[ModuleElement]:
        """Deterministic representatives of a basis of H^n."""
        image = self.coboundary_space(n)
        reps = []
        seen = RowSpace(self.dim(n))
        for row in image.rows:
            seen.add(row)
        for z in self.cocycles(n):
            if seen.add(z):
                reps.append(self.kb.from_vector(z, n))
        return reps

    def cohomology_reps(self) -> list[tuple[int, ModuleElement]]:
        """(degree, representative) for a basis of all of H, by degree."""
        return [(n, rep) for n in self.degrees()
                for rep in self.cohomology_basis(n)]

    def betti(self, n: int) -> int:
        n_cocycles = len(self.cocycles(n))
        return n_cocycles - self.coboundary_space(n).dim

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
        x = solve_linear(_from_columns(rows, self.dim(n)), target)
        if x is None:
            return None
        return self.kb.from_vector(x, n - 1)

    def classes_equal(self, v: ModuleElement, w: ModuleElement) -> bool:
        diff = v - w
        if diff.is_zero():
            return True
        return self.is_coboundary(diff) is not None

    def class_coordinates(self, v: ModuleElement) -> list[Scalar]:
        """Coordinates of [v] in the cohomology_basis of its degree.

        v = 0 gives the empty list; a v that is not a cocycle raises
        ValueError.
        """
        if v.is_zero():
            return []
        n = v.degree()
        if not self.is_cocycle(v):
            raise ValueError("class_coordinates called on a non-cocycle")
        reps = self.cohomology_basis(n)
        # solve [reps | coboundaries] . x = v
        cols = [self.kb.to_vector(r, n) for r in reps] + self.diff_matrix(n - 1)
        x = solve_linear(_from_columns(cols, self.dim(n)),
                         self.kb.to_vector(v, n))
        if x is None:
            raise ValueError("closed element not in span of classes and coboundaries")
        return x[:len(reps)]
