"""Finite-rank dg modules over a commutative dg algebra.

A module is free over the algebra on a graded basis; its differential is
recorded by the matrix of its values on basis elements, with coefficients
in the algebra.  Elements are dicts mapping basis indices to algebra
coefficients (coefficients act from the left).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from .algebra import (AlgebraElement, CdgaPresentation, Monomial,
                      _merge_monomials, add_scalar, leibniz_terms)
from .graded import ONE, GradedBasis, exact


class ModuleElement:
    """Sparse element of a free dg module: dict basis index -> algebra coeff.

    Arithmetic builds its results with :meth:`_trusted`, which takes a
    dict that is already free of zero coefficients.
    """

    __slots__ = ("module", "coeffs")

    def __init__(self, module: "DgModule",
                 coeffs: dict[int, AlgebraElement] | None = None):
        self.module = module
        self.coeffs: dict[int, AlgebraElement] = {}
        if coeffs:
            for i, a in coeffs.items():
                if not a.is_zero():
                    self.coeffs[i] = a

    @classmethod
    def _trusted(cls, module: "DgModule",
                 coeffs: dict[int, AlgebraElement]) -> "ModuleElement":
        self = object.__new__(cls)
        self.module = module
        self.coeffs = coeffs
        return self

    @classmethod
    def from_terms(cls, module: "DgModule", pairs) -> "ModuleElement":
        """The sum of c.(mon.e_i) over ``pairs`` of a key (mon, i) and a
        nonzero coefficient, no key twice, built without intermediate sums."""
        coeffs: dict[int, dict[Monomial, Scalar]] = {}
        for (mon, i), c in pairs:
            coeffs.setdefault(i, {})[mon] = exact(c)
        return cls._trusted(module, {
            i: AlgebraElement._trusted(terms) for i, terms in coeffs.items()})

    @classmethod
    def basis_vector(cls, module: "DgModule", i: int, coeff=None) -> "ModuleElement":
        if coeff is None:
            coeff = AlgebraElement.scalar(1)
        return cls(module, {i: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int | None:
        degs = set()
        for i, a in self.coeffs.items():
            for mon in a.terms:
                degs.add(len(mon) + self.module.basis.degrees[i])
        if not degs:
            return None
        if len(degs) == 1:
            return degs.pop()
        raise ValueError(f"module element is not homogeneous: {self}")

    def homogeneous_parts(self) -> dict[int, "ModuleElement"]:
        parts: dict[int, ModuleElement] = {}
        for i, a in self.coeffs.items():
            bd = self.module.basis.degrees[i]
            for mon, c in a.terms.items():
                d = bd + len(mon)
                part = parts.setdefault(d, ModuleElement(self.module))
                cur = part.coeffs.setdefault(i, AlgebraElement())
                part.coeffs[i] = cur + AlgebraElement._trusted({mon: c})
        return parts

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        out = dict(self.coeffs)
        for i, a in other.coeffs.items():
            cur = out.get(i)
            if cur is None:
                out[i] = a
                continue
            s = cur + a
            if s.terms:
                out[i] = s
            else:
                del out[i]
        return ModuleElement._trusted(self.module, out)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + (-other)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement._trusted(self.module,
                                      {i: -a for i, a in self.coeffs.items()})

    def scale(self, c) -> "ModuleElement":
        c = exact(c)
        if not c:
            return ModuleElement._trusted(self.module, {})
        return ModuleElement._trusted(
            self.module, {i: a.scale(c) for i, a in self.coeffs.items()})

    def __rmul__(self, c) -> "ModuleElement":
        return self.scale(c)

    def left_mul(self, a: AlgebraElement) -> "ModuleElement":
        """a . m  (no sign: coefficients live on the left)."""
        out = {}
        for i, b in self.coeffs.items():
            ab = a * b
            if ab.terms:
                out[i] = ab
        return ModuleElement._trusted(self.module, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ModuleElement)
                and self.module.basis == other.module.basis
                and self.coeffs == other.coeffs)

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        names = self.module.algebra.generators.names
        return " + ".join(
            f"[{self.coeffs[i].pretty(names)}]*{self.module.basis.names[i]}"
            for i in sorted(self.coeffs))

    def __repr__(self) -> str:
        return self.pretty()


class DgModule:
    """Free dg module over a :class:`CdgaPresentation`.

    ``diff_matrix[(i, j)]`` is the algebra coefficient of basis vector j in
    the differential of basis vector i; each entry is homogeneous of degree
    ``1 + |e_i| - |e_j|``.  ``diff_rows[i]`` holds the same entries as
    {j: coefficient}, the row of d(e_i).  Both are set once, here.
    """

    def __init__(self, algebra: CdgaPresentation, basis: GradedBasis,
                 diff_matrix: dict[tuple[int, int], AlgebraElement] | None = None):
        self.algebra = algebra
        self.basis = basis
        self.diff_matrix: dict[tuple[int, int], AlgebraElement] = {}
        self.diff_rows: dict[int, dict[int, AlgebraElement]] = {}
        for (i, j), a in (diff_matrix or {}).items():
            if not (0 <= i < len(basis) and 0 <= j < len(basis)):
                raise ValueError(f"differential entry at unknown indices ({i},{j})")
            if not a.is_zero():
                self.diff_matrix[(i, j)] = self.diff_rows.setdefault(i, {})[j] = a
        # set by dual_module so contraction can recognize the predual
        self.dual_of: DgModule | None = None

    @property
    def rank(self) -> int:
        return len(self.basis)

    def zero(self) -> ModuleElement:
        return ModuleElement(self)

    def diff_of_basis(self, i: int) -> ModuleElement:
        return ModuleElement._trusted(self, dict(self.diff_rows.get(i, {})))

    def differential_terms(self, mon: Monomial, i: int, c=ONE,
                           out: dict | None = None) -> dict:
        """Add c.d(mon.e_i) = c.d_A(mon).e_i + (-1)^{|mon|} c.mon.d(e_i)
        into ``out`` (a new dict by default) and return it: the module's
        one differential, by :func:`operator_terms`."""
        return operator_terms(mon, i, c, self.algebra.diff_terms, 1, (0,), 0,
                              self.diff_rows.get(i, {}),
                              {} if out is None else out)

    def kbasis(self, degree: int | None = None) -> list[tuple[Monomial, int]]:
        """Ground-field basis: pairs (monomial, module basis index).

        Enumerated basis-index major, monomials in (degree, lex) order;
        the keys of degree ``degree`` pair e_i with the monomials of
        degree ``degree - |e_i|`` only.
        """
        if degree is None:
            monomials = self.algebra.monomials()
            return [(mon, i) for i in range(self.rank) for mon in monomials]
        return [(mon, i) for i, d in enumerate(self.basis.degrees)
                for mon in self.algebra.monomials(degree - d)]

    def kbasis_element(self, key: tuple[Monomial, int]) -> ModuleElement:
        mon, i = key
        return ModuleElement(self, {i: AlgebraElement._trusted({mon: ONE})})

    def kdegree(self, key: tuple[Monomial, int]) -> int:
        mon, i = key
        return len(mon) + self.basis.degrees[i]

    def __eq__(self, other) -> bool:
        return (isinstance(other, DgModule)
                and self.algebra == other.algebra
                and self.basis == other.basis
                and self.diff_matrix == other.diff_matrix)

    def __repr__(self) -> str:
        return f"DgModule({list(self.basis.names)})"


class KBasis:
    """Ground-field basis of a dg module: the package's one k-basis indexer.

    ``keys`` are the pairs (monomial, module basis index) in the order of
    :meth:`DgModule.kbasis`, and ``index`` gives each key its position.
    ``slice(d)`` lists the keys of degree d in the same order;
    ``to_kvec`` and ``to_module_element`` convert between module elements
    and vectors over ``basis``, elements of ``ground``, the free module on
    ``basis`` over the ground field.  The names of ``basis`` are
    ``word.name`` (``name`` alone for the empty monomial).  Everything is
    built on first use: a slice enumerates only its own degree, so a
    complex that reads a few degrees never enumerates every key, and one
    that only reads slices never builds the names.
    """

    def __init__(self, module: DgModule):
        self.module = module
        self._slices: dict[int, list[tuple[Monomial, int]]] = {}

    @functools.cached_property
    def keys(self) -> list[tuple[Monomial, int]]:
        return self.module.kbasis()

    @functools.cached_property
    def index(self) -> dict[tuple[Monomial, int], int]:
        return {key: i for i, key in enumerate(self.keys)}

    @functools.cached_property
    def degrees(self) -> list[int]:
        return [self.module.kdegree(key) for key in self.keys]

    @functools.cached_property
    def basis(self) -> GradedBasis:
        gens, names = self.module.algebra.generators.names, []
        for mon, i in self.keys:
            word = "^".join(gens[g] for g in mon)
            name = self.module.basis.names[i]
            names.append(f"{word}.{name}" if word else name)
        return GradedBasis(names, self.degrees)

    @functools.cached_property
    def ground(self) -> DgModule:
        return DgModule(CdgaPresentation([]), self.basis)

    def kvec(self, coeffs: dict[int, Scalar]) -> ModuleElement:
        """The vector of ``ground`` with the nonzero coefficients
        {k-basis index: c}."""
        return ModuleElement._trusted(self.ground, {
            i: AlgebraElement._trusted({(): c}) for i, c in coeffs.items()})

    def slice(self, d: int) -> list[tuple[Monomial, int]]:
        """The keys of degree d, in the order of ``keys``, built once."""
        if d not in self._slices:
            keys = self.module.kbasis(d)
            self._slices[d] = keys
        return self._slices[d]

    def to_kvec(self, v: ModuleElement) -> ModuleElement:
        # each (monomial, basis index) is one k-basis vector, hit once
        return self.kvec({self.index[(mon, i)]: c for i, a in v.coeffs.items()
                          for mon, c in a.terms.items()})

    def differential(self, key: tuple[Monomial, int]) -> dict[int, Scalar]:
        """d of the k-basis vector ``key``, as {k-basis index:
        coefficient}, by :meth:`DgModule.differential_terms`."""
        terms = self.module.differential_terms(*key)
        return {self.index[k]: c for k, c in terms.items()}

    def to_module_element(self, e: ModuleElement) -> ModuleElement:
        return ModuleElement.from_terms(self.module, (
            (self.keys[idx], a.terms[()]) for idx, a in e.coeffs.items()))


def add_term(coeffs: dict, key, a: AlgebraElement) -> None:
    """coeffs[key] += a in a dict of nonzero algebra coefficients."""
    s = coeffs[key] + a if key in coeffs else a
    if s.is_zero():
        coeffs.pop(key, None)
    else:
        coeffs[key] = s


def operator_terms(mon: Monomial, i: int, c, symbol: dict, r: int,
                   symbol_degrees: Sequence[int], width: int,
                   row: dict[int, AlgebraElement], out: dict) -> dict:
    """Add c.O(mon.e_i) = c.D(mon).e_i + (-1)^{r|mon|} c.mon.O(e_i) into
    ``out``, {(monomial, index): coefficient}, and return it: the one
    first-order rule of an operator O of degree r along a derivation D.

    D(mon) comes from :func:`leibniz_terms` on the flat generator values
    ``symbol`` (empty for an A-linear map), with basis degrees
    ``symbol_degrees``; its term on f_j times e_i lands at index
    j * width + i.  ``row`` is O(e_i), {index: coefficient}.
    """
    if symbol:
        for (m, j), cm in leibniz_terms(mon, symbol, r, symbol_degrees,
                                        {}, c).items():
            add_scalar(out, (m, j * width + i), cm)
    if r * len(mon) % 2:
        c = -c
    for j, a in row.items():
        for m, cm in a.terms.items():
            s, merged = _merge_monomials(mon, m)
            if s:
                add_scalar(out, (merged, j), s * c * cm)
    return out


def apply_operator(terms, v: ModuleElement, target: DgModule) -> ModuleElement:
    """The sum of ``terms(mon, i, c, out)`` over the terms c.mon.e_i of v,
    an element of ``target``: an operator given by its rule on one term."""
    out: dict = {}
    for i, a in v.coeffs.items():
        for mon, c in a.terms.items():
            terms(mon, i, c, out)
    return ModuleElement.from_terms(target, out.items())


def apply_module_differential(module: DgModule, v: ModuleElement) -> ModuleElement:
    """d(v), term by term by :meth:`DgModule.differential_terms`."""
    return apply_operator(module.differential_terms, v, module)


def validate_dg_module(module: DgModule) -> list[str]:
    """Degree homogeneity of the matrix and d^2 = 0 on basis vectors."""
    failures = []
    names = module.basis.names
    for (i, j), a in module.diff_matrix.items():
        want = 1 + module.basis.degrees[i] - module.basis.degrees[j]
        try:
            deg = a.degree()
        except ValueError:
            failures.append(f"diff entry ({names[i]},{names[j]}) is not homogeneous")
            continue
        if deg is not None and deg != want:
            failures.append(
                f"diff entry ({names[i]},{names[j]}) has degree {deg}, expected {want}")
    for i in range(module.rank):
        d2 = apply_module_differential(module, module.diff_of_basis(i))
        if not d2.is_zero():
            failures.append(f"d^2({names[i]}) = {d2.pretty()}")
    return failures


def dual_module(module: DgModule, name_fn=None) -> DgModule:
    """Dual dg module, with the pairing-compatible differential.

    With d(e_i) = sum_j a_ij e_j, the dual satisfies
    d(e_i*) = sum_j c_ij e_j* where c_ij = -(-1)^{|e_i|(1+|e_j|)} a_ji.
    """
    if name_fn is None:
        name_fn = lambda n: n + "*"
    basis = GradedBasis([name_fn(n) for n in module.basis.names],
                        [-d for d in module.basis.degrees])
    diff: dict[tuple[int, int], AlgebraElement] = {}
    for (j, i), a in module.diff_matrix.items():
        p = module.basis.degrees[i]
        q = module.basis.degrees[j]
        sign = -1 if (p * (1 + q)) % 2 == 0 else 1
        # sign above is -(-1)^{p(1+q)}
        diff[(i, j)] = a.scale(sign)
    dual = DgModule(module.algebra, basis, diff)
    dual.dual_of = module
    return dual


def tensor_module(m: DgModule, n: DgModule) -> DgModule:
    """Tensor product over the algebra, with the graded Leibniz differential."""
    if m.algebra != n.algebra:
        raise ValueError("tensor factors must share the algebra")
    names = [f"{a}(x){b}" for a in m.basis.names for b in n.basis.names]
    degs = [da + db for da in m.basis.degrees for db in n.basis.degrees]
    basis = GradedBasis(names, degs)
    rn = n.rank
    diff: dict[tuple[int, int], AlgebraElement] = {}
    for i in range(m.rank):
        di = m.basis.degrees[i]
        for j in range(n.rank):
            # d(e_i (x) f_j) = d(e_i) (x) f_j + (-1)^{|e_i|} e_i (x) d(f_j)
            for k, a in m.diff_rows.get(i, {}).items():
                add_term(diff, (i * rn + j, k * rn + j), a)
            for l, b in n.diff_rows.get(j, {}).items():
                # (-1)^{|e_i|} from Leibniz, (-1)^{|mon||e_i|} to move each
                # monomial of b left
                if di % 2:
                    b = AlgebraElement._trusted({
                        mon: c if len(mon) % 2 else -c
                        for mon, c in b.terms.items()})
                add_term(diff, (i * rn + j, i * rn + l), b)
    t = DgModule(m.algebra, basis, diff)
    t.tensor_factors = (m, n)
    return t


def tensor_index(t: DgModule, i: int, j: int) -> int:
    m, n = t.tensor_factors
    return i * n.rank + j


def tensor_split(t: DgModule, k: int) -> tuple[int, int]:
    m, n = t.tensor_factors
    return divmod(k, n.rank)


def hom_sign(e_degree: int, f_degree: int) -> int:
    """(-1)^{|e_i||f_k|}: the map e_i -> f_k is this sign times
    e_i* (x) f_k in Hom(E, F) = dual(E) (x) F."""
    return -1 if e_degree * f_degree % 2 else 1


class ModuleMorphism:
    """A-linear map between dg modules, given on basis vectors.

    ``matrix[(i, j)]`` is the coefficient of the target basis vector j in
    the image of source basis vector i, and ``rows[i]`` holds the same
    entries as {j: coefficient}.  A morphism of internal degree r
    extends by ``f(a.e) = (-1)^{r|a|} a.f(e)``.
    """

    def __init__(self, source: DgModule, target: DgModule, degree: int,
                 matrix: dict[tuple[int, int], AlgebraElement] | None = None):
        if source.algebra != target.algebra:
            raise ValueError("morphism endpoints must share the algebra")
        self.source = source
        self.target = target
        self.degree = degree
        self.matrix: dict[tuple[int, int], AlgebraElement] = {}
        self.rows: dict[int, dict[int, AlgebraElement]] = {}
        for (i, j), a in (matrix or {}).items():
            if not a.is_zero():
                self.matrix[(i, j)] = self.rows.setdefault(i, {})[j] = a

    @classmethod
    def identity(cls, module: DgModule) -> "ModuleMorphism":
        mat = {(i, i): AlgebraElement.scalar(1) for i in range(module.rank)}
        return cls(module, module, 0, mat)

    def of_basis(self, i: int) -> ModuleElement:
        return ModuleElement._trusted(self.target, dict(self.rows.get(i, {})))

    def terms(self, mon: Monomial, i: int, c, out: dict) -> dict:
        """Add c.f(mon.e_i) = (-1)^{r|mon|} c.mon.f(e_i) into ``out``, by
        :func:`operator_terms` with no derivation."""
        return operator_terms(mon, i, c, {}, self.degree, (), 0,
                              self.rows.get(i, {}), out)

    def __call__(self, v: ModuleElement) -> ModuleElement:
        return apply_operator(self.terms, v, self.target)

    def dg_failures(self) -> list[str]:
        """d o f - (-1)^{deg f} f o d on basis vectors."""
        failures = []
        sgn = -1 if self.degree % 2 else 1
        for i in range(self.source.rank):
            lhs = apply_module_differential(self.target, self.of_basis(i))
            rhs = self(self.source.diff_of_basis(i)).scale(sgn)
            if lhs != rhs:
                failures.append(
                    f"not a chain map on {self.source.basis.names[i]}: "
                    f"d(f(e)) = {lhs.pretty()}, (-1)^r f(d(e)) = {rhs.pretty()}")
        return failures

    def __eq__(self, other) -> bool:
        return (isinstance(other, ModuleMorphism)
                and self.source.basis == other.source.basis
                and self.target.basis == other.target.basis
                and self.degree == other.degree
                and self.matrix == other.matrix)


def dual_morphism_between(phi: ModuleMorphism, source: DgModule,
                          target: DgModule) -> ModuleMorphism:
    """Transpose of a degree-0 morphism, expressed between given duals."""
    mat: dict[tuple[int, int], AlgebraElement] = {}
    for (i, j), a in phi.matrix.items():
        da = a.degree()
        if da is None:
            continue
        q = phi.target.basis.degrees[j]
        sign = -1 if (da * q) % 2 else 1
        mat[(j, i)] = a.scale(sign)
    return ModuleMorphism(source, target, 0, mat)


def contract(b: ModuleElement, w: ModuleElement) -> ModuleElement:
    """Contraction iota_b: (Omega (x) E) -> E for b in dual(Omega).

    On a term a.(f_j (x) e_k) with b = c.f_i*:
    result = (-1)^{|b||a|} (a ^ <c.f_i*, f_j>).e_k.
    """
    omega, e_mod = w.module.tensor_factors
    dual = b.module
    if dual.dual_of is None or dual.dual_of.basis != omega.basis:
        raise ValueError("contraction requires an element of the dual of the left factor")
    return contract_slices(b, contraction_slices(w), e_mod)


def contraction_slices(w: ModuleElement) -> dict[int, ModuleElement]:
    """iota_{f_j*}(w) for each index j of Omega that w, an element of
    Omega (x) E, holds, in one pass over w: a term a.(f_j (x) e_k) gives
    (-1)^{|f_j||a|} a.e_k."""
    omega, e_mod = w.module.tensor_factors
    slices: dict[int, dict[int, AlgebraElement]] = {}
    for t, a in w.coeffs.items():
        j, k = tensor_split(w.module, t)
        if omega.basis.degrees[j] % 2:
            a = AlgebraElement._trusted({mon: -c if len(mon) % 2 else c
                                         for mon, c in a.terms.items()})
        slices.setdefault(j, {})[k] = a
    return {j: ModuleElement._trusted(e_mod, coeffs)
            for j, coeffs in slices.items()}


def contract_slices(b: ModuleElement, slices: dict[int, ModuleElement],
                    e_mod: DgModule) -> ModuleElement:
    """iota_b(w) from the :func:`contraction_slices` of w: the sum of
    c.iota_{f_j*}(w) over the terms c.f_j* of b, as c.f_j* passes a
    coefficient a with the sign (-1)^{(|c| + |f_j|)|a|}."""
    out = e_mod.zero()
    for j, c in b.coeffs.items():
        part = slices.get(j)
        if part is not None:
            out = out + part.left_mul(c)
    return out
