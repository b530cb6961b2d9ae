"""Higher bracket towers generated by a delta-connection.

Given a dg derivation delta: A -> Omega and a delta-connection nabla on
B = dual(Omega), the tower

    R_1 = d_B,   R_2 = [nabla, d] (the Atiyah cocycle),
    R_{k+1}(b_0, ..., b_k) = (-1)^{|b_0|} [nabla_{b_0}, R_k](b_1, ..., b_k)

makes B a strongly homotopy Leibniz algebra with all brackets of degree 1.
This module fills those towers as tables on module-basis tuples and
mechanically checks every identity they are supposed to satisfy: the
generalized Jacobi identities, the morphism equations and homotopy
invariance.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from operator import itemgetter

from .algebra import _merge_monomials, validate_cdga
from .cohomology import CochainComplex
from .connections import DeltaConnection, atiyah_cocycle
from .derivations import (DerivationHomotopy, DerivationMorphism,
                          homotopy_offset)
from .graded import (MultilinearMap, koszul_sign, ordered_partitions,
                     partition_sign, shuffles)
from .modules import (DgModule, KBasis, ModuleElement,
                      apply_module_differential, contract,
                      contract_slices, contraction_slices,
                      dual_morphism_between)


class CheckFailure(Exception):
    """A mathematical check failed while a structure was being built: the
    input is well formed, but what it builds breaks a promised identity.
    Deliberately not a ValueError, which stands for bad input."""


# ---------------------------------------------------------------------------
# the tower step

def _contraction_table(vectors: list[ModuleElement],
                       values: dict) -> dict[tuple, ModuleElement]:
    """(b, j) -> iota_{vectors[b]}(values[j]) for the entries of
    ``values``, elements of Omega (x) E: the nonzero ones, b major, j in
    the order of ``values``.  Each value is split by its Omega index once,
    and each vector reads the slices it pairs with."""
    table: dict[tuple, ModuleElement] = {}
    if not values:
        return table
    e_mod = next(iter(values.values())).module.tensor_factors[1]
    slices = {j: contraction_slices(v) for j, v in values.items()}
    for b, vector in enumerate(vectors):
        for j, parts in slices.items():
            c = contract_slices(vector, parts, e_mod)
            if not c.is_zero():
                table[(b, j)] = c
    return table


def _tower_step(prev: dict[tuple, ModuleElement], degree: int,
                b_mod: DgModule, slot_conns, outer, lift=None,
                partitions=()) -> dict[tuple, ModuleElement]:
    """The next table of a tower, one covariant commutator per b_0:

      T_{k+1}(b_0, x_1, ..., x_k) = (-1)^{s r} outer_{lift(b_0)}(T_k(x_1, ..., x_k))
                                    - T_k(nabla_{b_0}-derivative of x_1 (x) ... (x) x_k).

    ``prev`` is T_k on module-basis tuples and ``degree`` its internal
    degree r; b_0 runs over the basis of ``b_mod``, slot t is
    differentiated by ``slot_conns[t]``, and ``lift`` (by default the
    identity) carries b_0 to the module that ``outer`` is contracted with.
    The connections run along a derivation of degree r' (0 for delta, -1
    for a homotopy), so nabla_{b_0} has degree s = |b_0| + r' and the step
    is (-1)^{s r} times the graded commutator [nabla_{b_0}, T_k].

    The derivative is A-multilinear: :func:`_module_residuals` joins it as
    one insertion term T_k(x_1, ..., Gamma(b_0, x_t), ..., x_k) per slot
    t, Gamma(b_0, e_i) = -iota_{b_0} nabla(e_i) being a map of degree r'
    and b_0 moving past x_F = x_1..x_{t-1}: that Koszul sign times
    (-1)^{r'|x_F|} is (-1)^{s|x_F|}.  ``partitions``, terms of arity
    k + 1, are subtracted as in a residual.  outer is not A-linear, so
    the first term applies it once per entry of ``prev``.  Keys come out
    sorted.
    """
    basis = [ModuleElement.basis_vector(b_mod, b0) for b0 in range(b_mod.rank)]
    gammas = {id(c): _contraction_table([-e for e in basis], c.values)
              for c in {id(c): c for c in slot_conns}.values()}
    acc = _module_residuals(
        [b_mod.basis.degrees] + [c.module.basis.degrees for c in slot_conns],
        [_Insertion(prev, gammas[id(c)], t + 2, 2, (*range(2, t + 2), 1),
                    degree, c.delta.degree) for t, c in enumerate(slot_conns)],
        partitions, outer.module)
    lifted = [-b if (d + outer.delta.degree) * degree % 2 else b for b, d in
              zip(map(lift, basis) if lift else basis, b_mod.basis.degrees)]
    first = _contraction_table(lifted, {x: outer(v) for x, v in prev.items()})
    for (b0, args), v in first.items():
        row = acc.setdefault((b0,) + args, {})
        for i, a in v.coeffs.items():
            for mon, c in a.terms.items():
                row[i, mon] = row.get((i, mon), 0) + c
    return _module_table(acc, outer.module)


def _module_table(acc: dict, module: DgModule,
                  sign: int = 1) -> dict[tuple, ModuleElement]:
    """The nonzero rows of a join's accumulator, times ``sign``, as a
    table of values in ``module``, with sorted keys."""
    out: dict[tuple, ModuleElement] = {}
    for x in sorted(acc):
        v = ModuleElement.from_terms(module, (
            ((mon, i), sign * c) for (i, mon), c in acc[x].items() if c))
        if not v.is_zero():
            out[x] = v
    return out


def _atiyah_table(conn: DeltaConnection, b_mod: DgModule) -> dict[tuple, ModuleElement]:
    """The arity-2 seed: the Atiyah cocycle of ``conn`` on basis pairs
    (b_i, e_j) of B and of the connection's module.

    Contraction is a chain map, so At(b_i, e_j) equals
    (-1)^{|b_i|} iota_{b_i}([nabla, d](e_j)), read off the cocycle's
    operator values.
    """
    signed = [ModuleElement.basis_vector(b_mod, i).scale(-1 if d % 2 else 1)
              for i, d in enumerate(b_mod.basis.degrees)]
    return _contraction_table(
        signed, dict(enumerate(atiyah_cocycle(conn).operator_values)))


# ---------------------------------------------------------------------------
# bracket families

class BracketFamily:
    """Degree-1 multibrackets on a dg module.

    ``module_tables[k]`` (k >= 2) holds the nonzero values of R_k on
    module-basis tuples; R_k is A-multilinear, so they determine it.  ``brackets[k]`` is the
    table over the ground-field basis (the differential for k = 1, the
    A-multilinear extension of ``module_tables[k]`` otherwise), and ``kb``
    the module's k-basis, each built on first read: only the exhaustive
    checkers read them.
    """

    def __init__(self, module: DgModule,
                 module_tables: dict[int, dict[tuple, ModuleElement]],
                 connection: DeltaConnection | None = None):
        self.module = module
        self.module_tables = module_tables
        self.connection = connection

    @functools.cached_property
    def kb(self) -> KBasis:
        return KBasis(self.module)

    @functools.cached_property
    def differential(self) -> MultilinearMap:
        return differential_table(self.kb)

    @functools.cached_property
    def brackets(self) -> dict[int, MultilinearMap]:
        brackets = {1: self.differential}
        for k, table in self.module_tables.items():
            brackets[k] = extend_module_table(self.kb, table, k, 1)
        return brackets

    def module_maps(self) -> dict[int, dict[tuple, ModuleElement]]:
        """R_k on module-basis tuples: the differential for k = 1."""
        return {1: _Differential(self.module), **self.module_tables}

    def homogeneous(self) -> bool:
        """Whether every R_k, d included, has values of degree
        1 + |e_1| + ... + |e_k| on module-basis tuples."""
        degrees = self.module.basis.degrees
        return not any(_degree_failures(t, 1, degrees, degrees)
                       for t in self.module_maps().values())

    def nonzero_arities(self) -> list[int]:
        """R_1 = d is zero exactly when the module has rank 0 or d(e_i) and
        d_A vanish (d_A(g) != 0 makes d(g.e_i) = d_A(g).e_i when every d(e_i)
        is zero); R_k (k >= 2) exactly when its module table is empty."""
        module = self.module
        d = module.rank and (module.diff_matrix or module.algebra.diff)
        return ([1] if d else []) + sorted(
            k for k, table in self.module_tables.items() if table)

    def degree_failures(self) -> list[str]:
        """Values of a degree other than 1 + |b_1| + ... + |b_k|: the
        differential's on k-basis keys, R_k's (k >= 2) on module-basis
        tuples.  A good module-table value extends to good k-basis values,
        and a bad one is itself the value at its empty-monomial tuple.  The
        same holds for d, as d_A has degree 1, so the differential's table
        is built only when some d(e_i) has a bad term."""
        degrees = self.module.basis.degrees
        failures = {k: _degree_failures(t, 1, degrees, degrees)
                    for k, t in self.module_maps().items()}
        if failures[1]:
            failures[1] = self.differential.check_degrees()
        return [f"arity {k}: {msg}" for k, msgs in sorted(failures.items())
                for msg in msgs]


class _Differential(dict):
    """The differential of ``module`` on module-basis tuples: the table
    (i,) -> d(e_i), read when d is the inner map of a term.  d is not
    A-linear, so as the outer map it is applied to the inner value."""

    def __init__(self, module: DgModule):
        super().__init__(((i,), v) for i in range(module.rank)
                         if not (v := module.diff_of_basis(i)).is_zero())


def _degree_failures(table: dict[tuple, ModuleElement], degree: int,
                     in_degrees, out_degrees) -> list[str]:
    """Per key of a module-basis table, the first term of its value whose
    degree is not the key's plus ``degree``, in the order and words of
    :meth:`MultilinearMap.check_degrees` on the value's k-basis vectors."""
    bad = []
    for key, val in table.items():
        want = degree + sum(in_degrees[i] for i in key)
        for got in (len(mon) + out_degrees[j] for j, a in val.coeffs.items()
                    for mon in a.terms):
            if got != want:
                bad.append(f"value at {key} has a term of degree {got}, "
                           f"expected {want}")
                break
    return bad


def differential_table(kb: KBasis) -> MultilinearMap:
    return MultilinearMap.uniform(1, 1, kb.basis, table={
        (idx,): kb.kvec(kb.differential(key))
        for idx, key in enumerate(kb.keys)})


def extend_module_table(kb: KBasis, table: dict[tuple, ModuleElement],
                        arity: int, degree: int,
                        input_kbs: list[KBasis] | None = None,
                        output_kb: KBasis | None = None) -> MultilinearMap:
    """A-multilinear extension of a module-basis table to the full k-basis.

    lam(m_1.b_1, ..., m_k.b_k) picks up (-1)^{sum |m_t|(r + |b_1|+...+|b_{t-1}|)}
    times the wedge of the coefficients.

    A monomial tuple that shares a generator wedges to zero, so only
    pairwise-disjoint tuples are visited: each of the g generators lies in
    one of the k slots or in none, which gives (k+1)^g tuples per base
    entry instead of all 2^{gk}.  They are walked depth-first, one slot at
    a time, drawing each slot's monomial from the generators the running
    wedge leaves free; this is the order of ``itertools.product`` over the
    monomials with the overlapping tuples left out, so the table's keys
    come out in that order.  Nothing collides: distinct tuples give
    distinct k-basis keys, and within one value the wedge is fixed, so
    distinct monomials of the value merge into distinct monomials.  Every
    output coefficient is therefore written once and is nonzero.  The same
    (wedge, monomial) pairs recur across slots and base entries, so their
    merges are memoised for the length of the call.
    """
    if input_kbs is None:
        input_kbs = [kb] * arity
    if output_kb is None:
        output_kb = kb
    out = MultilinearMap(arity, degree, [k.basis for k in input_kbs], output_kb.basis)
    if not table:
        return out
    slots = input_kbs[:arity]
    n_gens = [k.module.algebra.n_generators for k in slots]
    out_index = output_kb.index
    merges: dict[tuple, tuple[int, tuple]] = {}
    for base_key, val in table.items():
        terms = [(i, mon, c) for i, a in val.coeffs.items()
                 for mon, c in a.terms.items()]
        # slot t's monomial passes degree + |b_1| + ... + |b_{t-1}|
        odd_prefix = []
        running = degree
        for k, bidx in zip(slots, base_key):
            odd_prefix.append(running % 2)
            running += k.module.basis.degrees[bidx]

        def visit(t, wedge, sign, key):
            if t == arity:
                coeffs = {}
                for i, mon, c in terms:
                    found = merges.get((wedge, mon))
                    if found is None:
                        found = merges[(wedge, mon)] = _merge_monomials(wedge, mon)
                    s, merged = found
                    if s:
                        coeffs[out_index[(merged, i)]] = c if s == sign else -c
                if coeffs:
                    out.table[key] = output_kb.kvec(coeffs)
                return
            index, bidx = slots[t].index, base_key[t]
            free = [g for g in range(n_gens[t]) if g not in wedge]
            for size in range(len(free) + 1):
                for mon in itertools.combinations(free, size):
                    found = merges.get((wedge, mon))
                    if found is None:
                        found = merges[(wedge, mon)] = _merge_monomials(wedge, mon)
                    s, merged = found
                    if odd_prefix[t] and size % 2:
                        s = -s
                    visit(t + 1, merged, sign * s, key + (index[(mon, bidx)],))

        visit(0, (), 1, ())
    return out


def kapranov_brackets(connection: DeltaConnection,
                      max_arity: int = 5) -> BracketFamily:
    """The bracket tower of a delta-connection on B = dual(Omega)."""
    module = connection.module
    if module.dual_of is None or module.dual_of.basis != connection.delta.target.basis:
        raise ValueError("the carrier must be the dual of the derivation target")
    module_tables: dict[int, dict[tuple, ModuleElement]] = {}
    if max_arity >= 2:
        module_tables[2] = _atiyah_table(connection, module)
    for k in range(2, max_arity):
        module_tables[k + 1] = _next_bracket_table(connection, module_tables[k], k)
    return BracketFamily(module, module_tables, connection)


def _next_bracket_table(connection: DeltaConnection,
                        prev: dict[tuple, ModuleElement],
                        k: int) -> dict[tuple, ModuleElement]:
    """R_{k+1}(b_0,...,b_k) = (-1)^{|b_0|} nabla_{b_0}(R_k(b_1..b_k))
    - R_k(nabla_{b_0}-derivative of b_1 (x) ... (x) b_k)."""
    return _tower_step(prev, 1, connection.module, [connection] * k, connection)


# ---------------------------------------------------------------------------
# the generalized Jacobi identity checker

def _leibniz_structures(n: int, active):
    """All (i, j, k, sigma) index data of the identity at weight n."""
    out = []
    for j in range(1, n + 1):
        i = n + 1 - j
        if i not in active or j not in active:
            continue
        for k in range(j, n + 1):
            for sigma in shuffles(k - j, j - 1):
                out.append((i, j, k, sigma))
    return out


def _gather(positions: tuple[int, ...]):
    """The function taking a tuple to the tuple of its entries at
    ``positions`` (an ``itemgetter``, with a slice for a single one)."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


def _parity_bits(key: tuple, parities: list) -> int:
    """Bit t is the parity of the degree of key[t]; ``parities[t]`` maps
    each index of slot t to that parity."""
    bits = 0
    for t, i in enumerate(key):
        if parities[t][i]:
            bits |= 1 << t
    return bits


class _Insertion:
    """The term outer(x_F, inner(x_M, x_k), x_{k+1}, ...) of a residual.

    ``sigma`` is a (k-j, j-1)-shuffle of 1..k-1: the front block F is
    sigma(1..k-j), the middle block M = sigma(k-j+1..k-1) goes into the
    j-ary inner map together with x_k.  ``front`` and ``args`` hold the
    0-based positions of F and of (M, k); ``degree`` is the outer map's
    and ``inner_degree`` the inner map's (1 in an identity, r' in a tower
    step).  The term's sign is the Koszul sign of sigma on x_1..x_{k-1}
    times (-1)^{inner_degree |x_F|}, the inner map passing x_F; both depend
    only on the parities of the degrees, so ``sign`` memoises it under
    ``parity``, an int whose set bits mark the odd entries of a tuple that
    holds x_1..x_{k-1}.  Parity 0, all of them even, has sign 1.
    """

    __slots__ = ("outer", "inner", "k", "sigma", "front", "args", "degree",
                 "inner_degree", "signs")

    def __init__(self, outer: dict, inner: dict, k: int, j: int,
                 sigma: tuple[int, ...], degree: int = 1,
                 inner_degree: int = 1):
        self.outer = outer
        self.inner = inner
        self.k = k
        self.sigma = sigma
        self.front = tuple(s - 1 for s in sigma[:k - j])
        self.args = tuple(s - 1 for s in sigma[k - j:k - 1]) + (k - 1,)
        self.degree = degree
        self.inner_degree = inner_degree
        self.signs: dict[int, int] = {0: 1}

    def sign(self, degs: list[int], parity) -> int:
        s = self.signs.get(parity)
        if s is None:
            front = self.inner_degree * sum(degs[t] for t in self.front)
            s = koszul_sign(self.sigma, degs[:self.k - 1]) * (-1 if front % 2 else 1)
            self.signs[parity] = s
        return s

    def scatter(self, n: int):
        """The function taking an outer key followed by an inner key,
        (x_F, m, x_{k+1}, ..., x_n, x_M, x_k), to (x_1, ..., x_n)."""
        s, k = len(self.front), self.k
        start = n - len(self.args) + 1  # the outer arity
        where = list(range(s + 1 - k, s + 1 - k + n))  # x_{k+1}, ..., x_n
        for t, p in enumerate(self.front):
            where[p] = t
        for t, p in enumerate(self.args, start):
            where[p] = t
        return _gather(tuple(where))


class _Partition:
    """The term outer(f(x_{I_1}), ..., f(x_{I_q})) of a residual, for an
    ordered partition I of 1..n; ``tables[t]`` is the map on block t,
    ``degree`` the outer map's, and ``scatter`` takes (x_{I_1}, ...,
    x_{I_q}) to (x_1, ..., x_n).  ``sign`` is the Koszul sign of the
    unshuffle, memoised by parity."""

    __slots__ = ("outer", "tables", "blocks", "degree", "scatter", "signs")

    def __init__(self, outer: dict, tables: list[dict], blocks,
                 degree: int = 1):
        self.outer = outer
        self.tables = tables
        self.blocks = blocks
        self.degree = degree
        flat = [b - 1 for block in blocks for b in block]
        self.scatter = _gather(tuple(flat.index(p) for p in range(len(flat))))
        self.signs: dict[tuple, int] = {}

    def sign(self, degs: list[int], parity) -> int:
        s = self.signs.get(parity)
        if s is None:
            s = self.signs[parity] = partition_sign(self.blocks, degs)
        return s


def _entries(cache: dict, table: dict, parities: list, slots) -> list:
    """The entries of ``table`` as (key, parity bits of the key, value
    coefficients), key[t] having the parities ``parities[slots[t]]``.
    Built once per join and kept in ``cache`` under id(table)."""
    found = cache.get(id(table))
    if found is None:
        slot_parities = [parities[t] for t in slots]
        found = cache[id(table)] = [
            (key, _parity_bits(key, slot_parities), val.coeffs)
            for key, val in table.items()]
    return found


def _flat_values(cache: dict, table: dict) -> dict:
    """key -> the value of ``table`` at key as a flat tuple of its terms
    (output index, monomial, coefficient).  Cached as in :func:`_entries`."""
    found = cache.get((id(table), "flat"))
    if found is None:
        found = cache[(id(table), "flat")] = {
            key: tuple((i, mon, c) for i, a in val.coeffs.items()
                       for mon, c in a.terms.items())
            for key, val in table.items()}
    return found


def _entries_by_slot(cache: dict, table: dict, s: int, parities: list,
                     slots) -> dict:
    """The entries of ``table`` grouped by their index m in slot s, as
    m -> [(key, parity bits of key[:s], flat value)], the value as in
    :func:`_flat_values`.  Cached as in :func:`_entries`."""
    found = cache.get((id(table), s))
    if found is None:
        slot_parities = [parities[t] for t in slots]
        found = cache[(id(table), s)] = {}
        for key, flat in _flat_values(cache, table).items():
            found.setdefault(key[s], []).append(
                (key, _parity_bits(key[:s], slot_parities), flat))
    return found


def _module_residuals(degrees: list, insertions, partitions,
                      out_module: DgModule) -> dict:
    """sum(insertions) - sum(partitions) on every n-tuple of basis indices
    that some term reaches, slot t of n = len(degrees) having the basis
    degrees ``degrees[t]``, as tuple -> {(output index, monomial):
    coefficient}; coefficients may cancel to zero.  Every map is
    A-multilinear or the differential, and a k-basis table is a module
    table over the ground field (:attr:`KBasis.ground`), so this one join
    serves both, and it is the package's only evaluator of a table.
    For the length of the call it keeps the views of each table that
    :func:`_entries`, :func:`_flat_values` and :func:`_entries_by_slot`
    build, and the wedges of monomial pairs, as a join meets few distinct
    pairs many times.

    The join is driven by the table entries.  An insertion term runs over
    the entries of its inner map and, for each index m of an inner value
    a.e_m, over the outer entries that hold m in the slot s receiving it;
    the front block x_F, the inner arguments and the tail are scattered
    back into the n-tuple.  An outer map of degree r takes a.e_m as
    (-1)^{|a|(r + |x_F|)} a.outer(x_F, e_m, ...).  A partition term runs
    over the products of its block tables' entries and looks its outer map
    up on each choice of indices m_1, ..., m_q of their values, before any
    scatter or sign; the coefficient of e_{m_t} passes the outer map and
    e_{m_1}, ..., e_{m_{t-1}}, basis vectors of ``out_module``.  An outer
    differential is not A-linear: it is applied to the inner value, or to
    the value of the one block, by :meth:`DgModule.differential_terms` of
    ``out_module``.
    """
    n = len(degrees)
    parities = [[d % 2 for d in degs] for degs in degrees]
    value_degrees = out_module.basis.degrees
    acc: dict[tuple, dict] = {}
    cache: dict = {}  # the tables' views, under their ids; all live this long
    merges: dict = {}  # a -> b -> _merge_monomials(a, b)

    def wedge(a, b):
        with_a = merges.get(a) or merges.setdefault(a, {})
        found = with_a.get(b)
        if found is None:
            found = with_a[b] = _merge_monomials(a, b)
        return found

    def degs_of(x):
        return [d[i] for d, i in zip(degrees, x)]

    def add(x, coeff, out, sign=1, odd=0):
        # sign times the terms (monomial, c) of coeff, those of odd length
        # negated if odd, times the flat terms (i, monomial, c) of out
        row = acc.get(x)
        if row is None:
            row = acc[x] = {}
        for mon, c in coeff:
            c = -sign * c if odd and len(mon) % 2 else sign * c
            with_mon = merges.get(mon) or merges.setdefault(mon, {})
            for i, mb, cb in out:
                found = with_mon.get(mb)
                if found is None:
                    found = with_mon[mb] = _merge_monomials(mon, mb)
                w, merged = found
                if w:
                    key = (i, merged)
                    row[key] = row.get(key, 0) + w * c * cb

    def differentiate(x, v, sign):
        # sign times d(v)
        terms: dict = {}
        for i, a in v.coeffs.items():
            for mon, c in a.terms.items():
                out_module.differential_terms(mon, i, c, terms)
        add(x, (((), sign),), [(i, mon, c) for (mon, i), c in terms.items()])

    for term in insertions:
        if isinstance(term.outer, _Differential):  # d(inner(x_1, ..., x_n))
            for x, v in term.inner.items():
                differentiate(x, v, 1)
            continue
        s = len(term.front)
        by_m = _entries_by_slot(cache, term.outer, s, parities, term.front)
        if not by_m:
            continue
        signs, scatter, r = term.signs, None, term.degree
        for args, arg_bits, values in _entries(cache, term.inner, parities,
                                               term.args):
            arg_bits <<= s
            for m, a in values.items():
                hits = by_m.get(m)
                if hits is None:
                    continue
                if scatter is None:
                    scatter = term.scatter(n)
                for key, head_bits, out in hits:
                    x = scatter(key + args)
                    parity = head_bits | arg_bits  # of (x_F, x_M, x_k)
                    sign = signs.get(parity) or term.sign(degs_of(x), parity)
                    add(x, a.terms.items(), out, sign,
                        (r + head_bits.bit_count()) % 2)
    for term in partitions:
        if isinstance(term.outer, _Differential):  # -d(f_n(x_1, ..., x_n))
            for x, v in term.tables[0].items():
                differentiate(x, v, -1)
            continue
        block_entries = [_entries(cache, table, parities, [b - 1 for b in block])
                         for table, block in zip(term.tables, term.blocks)]
        signs, outer, r = term.signs, _flat_values(cache, term.outer), term.degree
        for combo in itertools.product(*block_entries):
            hits = []
            for ms in itertools.product(*(v.items() for _, _, v in combo)):
                out = outer.get(tuple([m for m, _ in ms]))
                if out is not None:
                    hits.append((ms, out))
            if not hits:
                continue
            x = term.scatter(tuple(itertools.chain.from_iterable(
                key for key, _, _ in combo)))
            parity = tuple(bits for _, bits, _ in combo)
            sign = -(signs.get(parity) or term.sign(degs_of(x), parity))
            for ms, out in hits:
                coeff, passed = [((), sign)], r
                for m, a in ms:
                    odd = passed % 2
                    coeff = [(merged, w * c * (-ca if odd and len(ma) % 2 else ca))
                             for mon, c in coeff for ma, ca in a.terms.items()
                             for w, merged in [wedge(mon, ma)] if w]
                    passed += value_degrees[m]
                add(x, coeff, out)
    return acc


def _check_identities(n_max: int, weight, degrees, out_module: DgModule,
                      n_tuples, witness, max_witnesses: int) -> dict:
    """Evaluate an identity's residual at every weight up to ``n_max``.

    ``weight(n)`` returns the number of terms at weight n (a weight
    without terms is skipped) and the terms, as lists of
    :class:`_Insertion` and :class:`_Partition`, whose slots have the
    basis degrees ``degrees(n)``; :func:`_module_residuals` joins them,
    with values in ``out_module``.  The report lists per weight the tuple
    count ``n_tuples(n)``, the term count and ``witness(x, residual)`` for
    the first ``max_witnesses`` failing tuples, in ``itertools.product``
    order.
    """
    report = {"passed": True, "weights": []}
    for n in range(1, n_max + 1):
        n_terms, insertions, partitions = weight(n)
        entry = {"n": n, "terms": n_terms,
                 "tuples": n_tuples(n) if n_terms else 0, "failures": []}
        report["weights"].append(entry)
        if not n_terms:
            continue
        acc = _module_residuals(degrees(n), insertions, partitions,
                                out_module)
        failing = sorted(x for x, row in acc.items() if any(row.values()))
        if failing:
            report["passed"] = False
        entry["failures"] = [witness(x, acc[x])
                             for x in failing[:max(max_witnesses, 0)]]
        del acc
    return report


def _exhaustive_report(n_max: int, weight, slots, out_kb: KBasis,
                       max_witnesses: int) -> dict:
    """The report of an identity on every k-basis tuple: ``slots(n)``
    lists the k-bases of the n slots, and ``weight(n)`` gives the terms
    on k-basis tables, whose values lie in ``out_kb.ground``.  A witness
    spells its residual as c*name over the nonzero coefficients, by
    k-basis index."""
    names = out_kb.basis.names
    return _check_identities(
        n_max, weight, lambda n: [kb.degrees for kb in slots(n)],
        out_kb.ground, lambda n: math.prod(len(kb.keys) for kb in slots(n)),
        lambda x, row: {
            "tuple": [kb.basis.names[i] for kb, i in zip(slots(len(x)), x)],
            "residual": " + ".join(f"{c}*{names[i]}" for (i, _), c
                                   in sorted(row.items()) if c)},
        max_witnesses)


# The module-basis decision runs on algebras with at least this many
# generators.  With one, a k-basis is only twice the module basis, and the
# exhaustive check, which needs no premise, costs about the same: exhaustive
# against decided, in-process medians on 2 vCPUs, affine_pair 0.15 / 0.24 ms
# (Leibniz) and 0.53 / 0.49 ms (morphism); abelian_trivial, whose weights
# have no terms, 0.012 / 0.008 ms and 0.028 / 0.014 ms.
DECIDE_MIN_GENERATORS = 2


def _decided_report(n_max: int, weight, module: DgModule,
                    out_module: DgModule, decide: bool, exhaustive) -> dict:
    """The report of an exhaustive checker, decided on module-basis tuples.

    Every map of the identity is A-multilinear or, like d, a derivation,
    so when their values are homogeneous the residual is A-multilinear
    and vanishes exactly when it vanishes on module-basis tuples; the
    caller passes ``decide`` false when that premise fails.  ``weight(n)``
    gives the terms on module-basis tables, whose slots hold basis indices
    of ``module``.  A passing weight gets the exhaustive entry, with the
    rank times 2^g k-basis vectors of ``module`` per slot, g the number of
    generators, counted without a KBasis.  ``exhaustive(n)`` supplies the
    entries up to the highest failing weight, or all if not ``decide``.
    """
    if not decide:
        return exhaustive(n_max)
    # one witness per weight marks the failing ones
    n_keys = module.rank * module.algebra.dimension()
    report = _check_identities(n_max, weight,
                               lambda n: [module.basis.degrees] * n,
                               out_module, lambda n: n_keys ** n,
                               lambda x, row: x, 1)
    failing = max((w["n"] for w in report["weights"] if w["failures"]),
                  default=0)
    if not failing:
        return report
    exhaustive_report = exhaustive(failing)
    exhaustive_report["weights"] += report["weights"][failing:]
    return exhaustive_report


def _leibniz_terms(n: int, active, maps) -> tuple:
    structures = _leibniz_structures(n, active)
    return (len(structures),
            [_Insertion(maps[i], maps[j], k, j, sigma)
             for (i, j, k, sigma) in structures], [])


def exhaustive_leibniz(fam: BracketFamily, n_max: int,
                       max_witnesses: int = 10) -> dict:
    """Verify the degree-1 generalized Jacobi identities on every k-basis
    tuple, on the k-basis tables."""
    active = set(fam.nonzero_arities())
    maps = {k: m.table for k, m in fam.brackets.items() if k <= n_max}
    return _exhaustive_report(n_max, lambda n: _leibniz_terms(n, active, maps),
                              lambda n: [fam.kb] * n, fam.kb, max_witnesses)


def check_leibniz_infinity(fam: BracketFamily, n_max: int,
                           max_witnesses: int = 10) -> dict:
    """The report of :func:`exhaustive_leibniz`, decided on module-basis
    tuples; d o d is A-linear when d_A squares to zero."""
    active = set(fam.nonzero_arities())
    maps = fam.module_maps()
    algebra = fam.module.algebra
    decide = (algebra.n_generators >= DECIDE_MIN_GENERATORS
              and fam.homogeneous() and not validate_cdga(algebra))
    return _decided_report(
        n_max, lambda n: _leibniz_terms(n, active, maps), fam.module,
        fam.module, decide,
        lambda n: exhaustive_leibniz(fam, n, max_witnesses))


# ---------------------------------------------------------------------------
# morphism families

class MorphismFamily:
    """Maps f_k: B^{(x)k} -> B' forming a morphism of bracket towers.

    ``module_tables[k]`` holds the nonzero values of an A-multilinear f_k
    on module-basis tuples.  ``maps[k]`` is f_k over the ground-field
    basis: given, for a family that is not A-multilinear and so has no
    module tables, or else the A-multilinear extension of
    ``module_tables[k]``, built on first read.
    """

    def __init__(self, source: BracketFamily, target: BracketFamily,
                 maps: dict[int, MultilinearMap] | None = None,
                 module_tables: dict[int, dict[tuple, ModuleElement]] | None = None):
        self.source = source
        self.target = target
        if maps is not None:
            self.maps = maps
        self.module_tables = module_tables or {}

    @functools.cached_property
    def maps(self) -> dict[int, MultilinearMap]:
        return {k: extend_module_table(self.source.kb, table, k, 0,
                                       output_kb=self.target.kb)
                for k, table in self.module_tables.items()}

    def nonzero_arities(self) -> list[int]:
        """The arities of nonzero maps, read off the module tables until
        the maps are built."""
        if "maps" not in vars(self):
            return sorted(k for k, t in self.module_tables.items() if t)
        return sorted(k for k, m in self.maps.items() if not m.is_zero())


def _morphism_lhs_structures(n: int, f_active, lam_active):
    out = []
    for p in range(0, n):
        if (p + 1) not in lam_active or (n - p) not in f_active:
            continue
        for k in range(0, n - p):
            for sigma in shuffles(k, p):
                out.append((k, p, sigma))
    return out


def _morphism_rhs_structures(n: int, f_active, lamp_active):
    out = []
    for q in range(1, n + 1):
        if q not in lamp_active:
            continue
        for blocks in ordered_partitions(n, q):
            if all(len(b) in f_active for b in blocks):
                out.append(blocks)
    return out


def _morphism_terms(n: int, active, f, lam, lamp) -> tuple:
    """The terms of the morphism equation at weight n, for the maps f,
    the source brackets lam and the target brackets lamp; ``active`` holds
    the nonzero arities of each."""
    f_active, lam_active, lamp_active = active
    lhs = _morphism_lhs_structures(n, f_active, lam_active)
    rhs = _morphism_rhs_structures(n, f_active, lamp_active)
    return (len(lhs) + len(rhs),
            [_Insertion(f[n - p], lam[p + 1], k + p + 1, p + 1, sigma, 0)
             for (k, p, sigma) in lhs],
            [_Partition(lamp[len(blocks)], [f[len(b)] for b in blocks], blocks)
             for blocks in rhs])


def _morphism_active(mor: MorphismFamily) -> tuple:
    return (set(mor.nonzero_arities()), set(mor.source.nonzero_arities()),
            set(mor.target.nonzero_arities()))


def exhaustive_morphism(mor: MorphismFamily, n_max: int,
                        max_witnesses: int = 10) -> dict:
    """Verify the morphism equation on all source k-basis tuples,
    n <= n_max, on the k-basis tables."""
    active = _morphism_active(mor)
    f, lam, lamp = ({k: m.table for k, m in maps.items() if k <= n_max}
                    for maps in (mor.maps, mor.source.brackets,
                                 mor.target.brackets))
    return _exhaustive_report(
        n_max, lambda n: _morphism_terms(n, active, f, lam, lamp),
        lambda n: [mor.source.kb] * n, mor.target.kb, max_witnesses)


def check_linfty_morphism(mor: MorphismFamily, n_max: int,
                          max_witnesses: int = 10) -> dict:
    """The report of :func:`exhaustive_morphism`, decided on module-basis
    tuples when the family is given by A-multilinear module tables."""
    active = _morphism_active(mor)
    lam, lamp = mor.source.module_maps(), mor.target.module_maps()
    degrees = mor.source.module.basis.degrees
    generators = mor.source.module.algebra.n_generators
    target_degrees = mor.target.module.basis.degrees
    decide = (bool(mor.module_tables)
              and generators >= DECIDE_MIN_GENERATORS
              and mor.source.homogeneous() and mor.target.homogeneous()
              and not any(_degree_failures(t, 0, degrees, target_degrees)
                          for t in mor.module_tables.values()))
    return _decided_report(
        n_max, lambda n: _morphism_terms(n, active, mor.module_tables, lam, lamp),
        mor.source.module, mor.target.module, decide,
        lambda n: exhaustive_morphism(mor, n, max_witnesses))


def kapranov_morphism(phi: DerivationMorphism, source_fam: BracketFamily,
                      target_fam: BracketFamily,
                      max_arity: int = 4) -> MorphismFamily:
    """The morphism tower of a derivation morphism (contravariant).

    phi carries delta' to delta; the tower goes from the brackets of
    delta's connection (source_fam) to those of delta''s (target_fam):
    f_1 = transpose of phi, and
    f_{k+1}(b_0,...,b_k) = nabla'_{f_1(b_0)}(f_k(b_1..b_k))
                           - f_k(nabla_{b_0}-derivative of b_1 (x)...(x) b_k).
    """
    conn = source_fam.connection
    conn_p = target_fam.connection
    if conn.delta.target.basis != phi.phi.target.basis:
        raise ValueError("source family must belong to the morphism's target derivation")
    if conn_p.delta.target.basis != phi.phi.source.basis:
        raise ValueError("target family must belong to the morphism's source derivation")
    b_mod = source_fam.module
    bp_mod = target_fam.module
    f1 = dual_morphism_between(phi.phi, b_mod, bp_mod)
    tables: dict[int, dict[tuple, ModuleElement]] = {}
    tables[1] = {(i,): f1.of_basis(i) for i in range(b_mod.rank)
                 if not f1.of_basis(i).is_zero()}
    for k in range(1, max_arity):
        tables[k + 1] = _tower_step(tables[k], 0, b_mod, [conn] * k, conn_p,
                                    lift=f1)
    return MorphismFamily(source_fam, target_fam, module_tables=tables)


def compose_morphism_families(outer: MorphismFamily, inner: MorphismFamily,
                              max_arity: int = 3) -> MorphismFamily:
    """(outer o inner)_n = sum over ordered partitions with the Koszul sign.

    Both families are A-multilinear, so the composite is too, and its
    module tables determine it.  The sum is the partition side of the
    morphism equation: each arity is the negated join of
    :func:`_module_residuals` over the ordered partitions whose blocks all
    have a table of ``inner``, on module-basis tuples; the block values
    lie in the module between the two families, which gives the join the
    degrees their coefficients pass.
    """
    if inner.target is not outer.source and \
            inner.target.module.basis != outer.source.module.basis:
        raise ValueError("families are not composable")
    if not (outer.module_tables and inner.module_tables):
        raise ValueError("only families with module tables compose")
    f, g = inner.module_tables, outer.module_tables
    degrees = inner.source.module.basis.degrees
    tables: dict[int, dict[tuple, ModuleElement]] = {}
    for n in range(1, max_arity + 1):
        partitions = [
            _Partition(g[q], [f[len(b)] for b in blocks], blocks, 0)
            for q in range(1, n + 1) if g.get(q)
            for blocks in ordered_partitions(n, q)
            if all(f.get(len(b)) for b in blocks)]
        tables[n] = _module_table(
            _module_residuals([degrees] * n, [], partitions,
                              outer.source.module),
            outer.target.module, -1)
    return MorphismFamily(inner.source, outer.target, module_tables=tables)


def trivialization(fam: BracketFamily, max_arity: int = 4) -> MorphismFamily:
    """phi_1 = id, phi_{k+1}(b_0,...) = nabla_{b_0}(phi_k(b_1,...,b_k)).

    A morphism over the ground field from (B, {d, 0, 0, ...}) to the
    bracket tower; NOT A-multilinear once delta is nonzero.
    """
    conn = fam.connection
    kb = fam.kb
    n_keys = len(kb.keys)
    trivial_source = BracketFamily(fam.module, {}, conn)
    maps = {1: MultilinearMap.uniform(1, 0, kb.basis, table={
        (i,): kb.kvec({i: 1}) for i in range(n_keys)})}
    for k in range(1, max_arity):
        prev = maps[k]
        m = MultilinearMap.uniform(k + 1, 0, kb.basis)
        for key0 in range(n_keys):
            b0 = fam.module.kbasis_element(kb.keys[key0])
            for rest in itertools.product(range(n_keys), repeat=k):
                val = prev.table.get(rest)
                if val is None:
                    continue
                out = contract(b0, conn(kb.to_module_element(val)))
                if not out.is_zero():
                    m.set((key0,) + rest, kb.to_kvec(out))
        maps[k + 1] = m
    return MorphismFamily(trivial_source, fam, maps)


# ---------------------------------------------------------------------------
# homotopy invariance

def homotopy_iso(conn: DeltaConnection, h: DerivationHomotopy,
                 hat: DeltaConnection,
                 max_arity: int = 4) -> tuple[MorphismFamily, DeltaConnection]:
    """The isomorphism tower between the towers of homotopic derivations.

    ``hat`` is a connection along the homotopy h.  Builds
    nabla' = nabla + [d, hat] (a connection for delta' = delta + [d, h]),
    checks R_2 is unchanged, then fills

      g_1 = id,  g_2 = [nabla'_{b_0}, id] = 0 (computed by the step),
      g_{k+1}(b_0, x_1, ..., x_k) = [nabla'_{b_0}, g_k](x_1, ..., x_k)
        - sum_{p=2..k} sum_{partitions I} eps(I) S_p(b_0, g(x_{I_1}), ..., g(x_{I_p})),

    with S_p = -(-1)^{|b_0|} [hat_{b_0}, R_p] the tower step of R_p along
    hat, of degree 0, evaluated A-multilinearly on the g-values as a
    partition term of the step along nabla', with blocks (1), I + 1, b_0
    read through g_1 = id; b_0 never moves, so its sign is eps(I).  This
    is a morphism from (B, R^{nabla'}) to (B, R^{nabla}).
    """
    module = conn.module
    if hat.module.basis != module.basis:
        raise ValueError("hat connection lives on the wrong module")
    values: dict[int, ModuleElement] = {}
    for i in range(module.rank):
        e = ModuleElement.basis_vector(module, i)
        values[i] = (conn.values.get(i, conn.tensor.zero())
                     + apply_module_differential(hat.tensor, hat(e))
                     + hat(module.diff_of_basis(i)))
    conn_prime = DeltaConnection(homotopy_offset(conn.delta, h), module,
                                 values)
    target_fam = kapranov_brackets(conn, max_arity)
    source_fam = kapranov_brackets(conn_prime, max_arity)
    if source_fam.module_tables.get(2, {}) != target_fam.module_tables.get(2, {}):
        raise CheckFailure("R_2 changed under the homotopy")

    tables: dict[int, dict[tuple, ModuleElement]] = {
        1: {(i,): ModuleElement.basis_vector(module, i)
            for i in range(module.rank)}}
    s_tables = {p: _tower_step(rp, 1, module, [hat] * p, hat)
                for p, rp in target_fam.module_tables.items()
                if rp and p < max_arity}
    for k in range(1, max_arity):
        tables[k + 1] = _tower_step(
            tables[k], 0, module, [conn_prime] * k, conn_prime,
            partitions=[_Partition(sp, [tables[1]] + [tables[len(b)] for b in blocks],
                                   ((1,),) + tuple(tuple(i + 1 for i in b)
                                                   for b in blocks), 0)
                        for p, sp in s_tables.items()
                        for blocks in ordered_partitions(k, p)])
    mor = MorphismFamily(source_fam, target_fam, module_tables=tables)
    return mor, conn_prime


# ---------------------------------------------------------------------------
# cohomology-level structures

class CohomologyBracket:
    """The binary bracket induced on cohomology classes.

    [[b1],[b2]] = (-1)^{|b1|} [R_2(b1, b2)], tabulated on deterministic
    representatives of H(B).  H(B) needs d^2 = 0 on A and on B, which the
    caller checks first, as the ``cohomology`` command does once for the
    whole run.  ``cocycles`` and ``table`` keep the pairs of
    representatives with a nonzero bracket cocycle."""

    def __init__(self, fam: BracketFamily):
        self.fam = fam
        self.complex = CochainComplex(fam.module)
        self.reps = self.complex.cohomology_reps()
        reps = [r for _, r in self.reps]
        self.cocycles = self.bracket_table(reps, reps)
        self.table: dict[tuple[int, int], list[Scalar]] = {}
        for pair, z in self.cocycles.items():
            if not self.complex.is_cocycle(z):
                raise CheckFailure("bracket output is not closed")
            self.table[pair] = self.complex.class_coordinates(z)

    def bracket_table(self, xs: list[ModuleElement], ys: list[ModuleElement]
                      ) -> dict[tuple[int, int], ModuleElement]:
        """{(p, q): (-1)^{|x_p|} R_2(x_p, y_q)} where it is nonzero, for
        nonzero homogeneous x_p and y_q: one join of the partition term R_2
        over the tables {(p,): x_p} and {(q,): y_q}."""
        module = self.fam.module
        degrees = [[v.degree() for v in vs] for vs in (xs, ys)]
        xs = [x.scale(-1) if d % 2 else x for x, d in zip(xs, degrees[0])]
        tables = [{(p,): v for p, v in enumerate(vs)} for vs in (xs, ys)]
        term = _Partition(self.fam.module_tables.get(2, {}), tables,
                          ((1,), (2,)), 1)
        acc = _module_residuals(degrees, [], [term], module)
        return _module_table(acc, module, -1)

    def is_skew(self) -> bool:
        """Whether [[a],[b]] = -[[b],[a]] for all representatives a, b."""
        return all(c == -r for (a, b), coords in self.table.items()
                   for c, r in itertools.zip_longest(
                       coords, self.table.get((b, a), []), fillvalue=0))

    def leibniz_failures(self) -> list[tuple]:
        """[x,[y,z]] - [[x,y],z] - (-1)^{<x><y>}[y,[x,z]] on classes, with
        <x> = |x| + 1, where a term is nonzero.  The join of the
        representatives with the inner brackets, the ``cocycles``, gives
        the first term at (a, b, c) and the last at (b, a, c); the join
        the other way round gives the second."""
        pairs, inner = list(self.cocycles), list(self.cocycles.values())
        reps = [r for _, r in self.reps]
        shifted = [d + 1 for d, _ in self.reps]
        resid = collections.defaultdict(self.fam.module.zero)
        for (a, j), z in self.bracket_table(reps, inner).items():
            b, c = pairs[j]
            resid[a, b, c] += z
            resid[b, a, c] += z if shifted[a] * shifted[b] % 2 else -z
        for (j, c), z in self.bracket_table(inner, reps).items():
            resid[pairs[j] + (c,)] -= z
        return [t for t, v in sorted(resid.items())
                if not v.is_zero() and self.complex.is_coboundary(v) is None]


def cohomology_leibniz_bracket(fam: BracketFamily) -> CohomologyBracket:
    return CohomologyBracket(fam)


def bracket_nonskew_witness(fam: BracketFamily):
    """A pair of module basis indices with R_2(i, j) != -R_2(j, i).

    The binary bracket of a tower is a Leibniz bracket, not a Lie
    bracket; this exhibits the asymmetry at the cochain level.
    """
    table = fam.module_tables.get(2, {})
    for (i, j) in sorted(set(table) | {(j, i) for (i, j) in table}):
        lhs = table.get((i, j), fam.module.zero())
        rhs = table.get((j, i), fam.module.zero()).scale(-1)
        if lhs != rhs:
            return (i, j)
    return None
