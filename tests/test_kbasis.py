"""One k-basis indexer: oracles for the paths that now share it.

``KBasis`` slices the k-basis by degree and converts to and from dense
coordinates for the cochain complexes; the homotopy search reads a
primitive in Hom(Omega^1, Omega), and the flat-connection search one in
the Atiyah class's complex; the composition of morphism towers goes
through the checker's partition join, on module tables.  The original
complex with its incremental ``RowSpace``, the original homotopy search
and the original composition loop are kept here verbatim as oracles,
with the original flat-connection search in ``oracles``, and every
instance document of the repository, the drawn (sl_n, Borel) pairs of
``lie_pairs`` and random complexes must give the same answers through
both: a composite's
A-multilinear extension is the original loop's k-basis table, and
``check_linfty_morphism`` decides the composite on module-basis tuples
with the exhaustive checker's report.
"""
from __future__ import annotations

import functools
import itertools
import json
import pathlib
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shipped_setup
from kapranov.algebra import AlgebraElement, CdgaPresentation, Monomial
from kapranov.cli import INSTANCE_SCHEMA, Instance, load_document
from kapranov.cohomology import (CochainComplex, _divided, _eliminate,
                                 kernel_basis, solve_linear)
from kapranov.connections import (DeltaConnection, atiyah_cocycle,
                                  flat_connection_exists)
from kapranov.derivations import (DerivationHomotopy, DerivationMorphism,
                                  DgDerivation, find_homotopy, homotopy_offset,
                                  kaehler_differentials)
from kapranov.graded import (ONE, ZERO, GradedBasis, MultilinearMap,
                             Scalar, ordered_partitions, partition_sign)
from kapranov import kapranov
from kapranov.kapranov import (MorphismFamily, check_linfty_morphism,
                               compose_morphism_families, exhaustive_morphism,
                               kapranov_brackets, kapranov_morphism)
from kapranov.modules import (DgModule, KBasis, ModuleElement, ModuleMorphism,
                              apply_module_differential, dual_module,
                              tensor_module)
import lie_pairs
from oracles import (cohomology_basis, eval_multilinear,
                     reference_flat_connection_exists, simple_tensor)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = sorted((ROOT / "instances").glob("*.json")) \
    + sorted((ROOT / "bench" / "instances").glob("*.json")) \
    + sorted((ROOT / "tests" / "fixtures").glob("*.json"))


# ---------------------------------------------------------------------------
# the original code, verbatim

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


class ReferenceCochainComplex:
    """The original degree-sliced complex with its own slicing,
    ``to_vector`` and ``from_vector``, kept verbatim as the oracle."""

    def __init__(self, module: DgModule):
        self.module = module
        self._kbasis: dict[int, list[tuple[Monomial, int]]] = {}
        self._index: dict[int, dict[tuple[Monomial, int], int]] = {}
        for key in module.kbasis():
            d = module.kdegree(key)
            self._kbasis.setdefault(d, []).append(key)
        for d, keys in self._kbasis.items():
            self._index[d] = {k: i for i, k in enumerate(keys)}
        self._dmat: dict[int, Matrix] = {}

    def degrees(self) -> list[int]:
        return sorted(self._kbasis)

    def slice_basis(self, n: int) -> list[tuple[Monomial, int]]:
        return self._kbasis.get(n, [])

    def dim(self, n: int) -> int:
        return len(self._kbasis.get(n, []))

    def to_vector(self, v: ModuleElement, n: int) -> Vector:
        idx = self._index.get(n, {})
        out = [ZERO] * self.dim(n)
        for i, a in v.coeffs.items():
            for mon, c in a.terms.items():
                key = (mon, i)
                if key not in idx:
                    raise ValueError(
                        f"element has a term outside degree {n}: {key}")
                out[idx[key]] += c
        return out

    def from_vector(self, vec: Sequence[Scalar], n: int) -> ModuleElement:
        out = self.module.zero()
        for c, key in zip(vec, self.slice_basis(n)):
            if c:
                mon, i = key
                out = out + ModuleElement(self.module,
                                          {i: AlgebraElement.monomial(mon, c)})
        return out

    def diff_matrix(self, n: int) -> Matrix:
        """Rows: images of the degree-n slice basis, in the degree-n+1 slice."""
        if n not in self._dmat:
            rows = []
            for key in self.slice_basis(n):
                dv = apply_module_differential(self.module,
                                               self.module.kbasis_element(key))
                rows.append(self.to_vector(dv, n + 1))
            self._dmat[n] = rows
        return self._dmat[n]

    def _diff_as_equations(self, n: int) -> Matrix:
        """Matrix with columns = degree-n basis, rows = degree-n+1 coords."""
        rows = self.diff_matrix(n)
        dim_out = self.dim(n + 1)
        return [[rows[j][i] for j in range(len(rows))] for i in range(dim_out)]

    def cocycles(self, n: int) -> list[Vector]:
        return kernel_basis(self._diff_as_equations(n), self.dim(n))

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
                reps.append(self.from_vector(z, n))
        return reps

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
        target = self.to_vector(v, n)
        if not rows:
            return None if any(target) else self.module.zero()
        eqs = [[rows[j][i] for j in range(len(rows))] for i in range(self.dim(n))]
        x = solve_linear(eqs, target)
        if x is None:
            return None
        return self.from_vector(x, n - 1)

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
        rep_vecs = [self.to_vector(r, n) for r in reps]
        bd_rows = self.diff_matrix(n - 1)
        # solve [reps | coboundaries] . x = v
        cols = rep_vecs + bd_rows
        dim = self.dim(n)
        eqs = [[col[i] for col in cols] for i in range(dim)]
        target = self.to_vector(v, n)
        x = solve_linear(eqs, target)
        if x is None:
            raise ValueError("closed element not in span of classes and coboundaries")
        return x[:len(reps)]


def reference_find_homotopy(delta: DgDerivation,
                  delta_prime: DgDerivation) -> DerivationHomotopy | None:
    """The original homotopy search, kept verbatim as the oracle.

    Solve delta' - delta = d o h + h o d_A for a degree -1 derivation h.

    The unknowns are the generator values h(g_i), elements of the degree-0
    slice of Omega; the equations are linear, solved exactly over Q.
    Returns None when the two derivations are not homotopic.
    """
    if delta.target.basis != delta_prime.target.basis:
        raise ValueError("derivations must share the target module")
    alg = delta.algebra
    omega = delta.target
    slice0 = [key for key in omega.kbasis() if omega.kdegree(key) == 0]
    n_unknowns = alg.n_generators * len(slice0)

    def homotopy_from_vector(x: Sequence[Scalar]) -> DerivationHomotopy:
        values: dict[int, ModuleElement] = {}
        for g in range(alg.n_generators):
            v = omega.zero()
            for s, key in enumerate(slice0):
                c = x[g * len(slice0) + s]
                if c:
                    v = v + omega.kbasis_element(key).scale(c)
            if not v.is_zero():
                values[g] = v
        return DerivationHomotopy(alg, omega, values)

    # residual(h) per generator: d(h(g)) + h(d_A g), compared to (delta'-delta)(g)
    slice1 = [key for key in omega.kbasis() if omega.kdegree(key) == 1]
    idx1 = {key: i for i, key in enumerate(slice1)}

    def expand_degree1(v: ModuleElement) -> list[Scalar]:
        out = [ZERO] * len(slice1)
        for i, a in v.coeffs.items():
            for mon, c in a.terms.items():
                out[idx1[(mon, i)]] += c
        return out

    columns: list[list[Scalar]] = []
    for u in range(n_unknowns):
        x = [ZERO] * n_unknowns
        x[u] = ONE
        h = homotopy_from_vector(x)
        col: list[Scalar] = []
        for g in range(alg.n_generators):
            gen = AlgebraElement.generator(g)
            resid = (apply_module_differential(omega, h(gen))
                     + h(alg.diff.get(g, AlgebraElement())))
            col.extend(expand_degree1(resid))
        columns.append(col)

    target_vec: list[Scalar] = []
    for g in range(alg.n_generators):
        diff = (delta_prime.values.get(g, omega.zero())
                - delta.values.get(g, omega.zero()))
        target_vec.extend(expand_degree1(diff))

    n_rows = len(target_vec)
    eqs = [[columns[u][r] for u in range(n_unknowns)] for r in range(n_rows)]
    x = solve_linear(eqs, target_vec)
    if x is None:
        return None
    if not x:
        x = [ZERO] * n_unknowns
    return homotopy_from_vector(x)


def reference_compose(outer: MorphismFamily, inner: MorphismFamily,
                              max_arity: int = 3) -> MorphismFamily:
    """The original per-tuple composition loop, kept verbatim as the oracle:
    (outer o inner)_n = sum over ordered partitions with the Koszul sign."""
    if inner.target is not outer.source and \
            inner.target.module.basis != outer.source.module.basis:
        raise ValueError("families are not composable")
    skb = inner.source.kb
    maps: dict[int, MultilinearMap] = {}
    for n in range(1, max_arity + 1):
        m = MultilinearMap.uniform(n, 0, skb.basis, outer.target.kb.basis)
        for keys in itertools.product(range(len(skb.keys)), repeat=n):
            degs = [skb.degrees[i] for i in keys]
            total = outer.target.kb.ground.zero()
            for q in range(1, n + 1):
                g = nonzero_map(outer, q)
                if g is None:
                    continue
                for blocks in ordered_partitions(n, q):
                    eps = partition_sign(blocks, degs)
                    args = []
                    for block in blocks:
                        fk = nonzero_map(inner, len(block))
                        val = fk.table.get(tuple(keys[b - 1] for b in block)) \
                            if fk else None
                        if val is None:
                            args = None
                            break
                        args.append(val)
                    if args is None:
                        continue
                    total = total + eval_multilinear(g, args).scale(eps)
            m.set(keys, total)
        maps[n] = m
    return MorphismFamily(inner.source, outer.target, maps)


def nonzero_map(mor: MorphismFamily, k: int) -> MultilinearMap | None:
    m = mor.maps.get(k)
    if m is None or m.is_zero():
        return None
    return m


# ---------------------------------------------------------------------------
# the indexer on random small modules

@st.composite
def small_modules(draw):
    n_gens = draw(st.integers(0, 3))
    degrees = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
    algebra = CdgaPresentation([f"x{g}" for g in range(n_gens)])
    basis = GradedBasis([f"e{i}" for i in range(len(degrees))], degrees)
    return DgModule(algebra, basis)


COEFFICIENTS = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])


@st.composite
def random_complexes(draw):
    """Small free dg modules with random differentials of the right
    degree on the algebra and on the module; d^2 != 0 is allowed."""
    n_gens = draw(st.integers(0, 3))

    def element(degree: int) -> AlgebraElement:
        mons = itertools.combinations(range(n_gens), degree) \
            if 0 <= degree <= n_gens else []
        return AlgebraElement({mon: draw(COEFFICIENTS) for mon in mons})

    algebra = CdgaPresentation([f"x{g}" for g in range(n_gens)],
                               {g: element(2) for g in range(n_gens)})
    degrees = draw(st.lists(st.integers(-2, 1), min_size=1, max_size=4))
    basis = GradedBasis([f"e{i}" for i in range(len(degrees))], degrees)
    diff = {(i, j): element(1 + di - dj) for i, di in enumerate(degrees)
            for j, dj in enumerate(degrees)}
    return DgModule(algebra, basis, diff)


@settings(max_examples=60, deadline=None)
@given(small_modules(), st.data())
def test_slices_partition_the_kbasis_and_coordinates_round_trip(module, data):
    kb = KBasis(module)
    assert kb.keys == module.kbasis()
    # the slices partition the keys, each in the order of the keys
    degrees = sorted(set(kb.degrees))
    assert sorted(k for d in degrees for k in kb.slice(d)) == sorted(kb.keys)
    for d in degrees:
        assert kb.slice(d) == [k for k in kb.keys if module.kdegree(k) == d]
    for d in range(min(kb.degrees) - 1, max(kb.degrees) + 2):
        assert kb.slice(d) == module.kbasis(d)
        vec = data.draw(st.lists(st.sampled_from([0, 0, 1, -2, Fraction(1, 3)]),
                                 min_size=len(kb.slice(d)),
                                 max_size=len(kb.slice(d))))
        v = kb.from_vector(vec, d)
        assert kb.to_vector(v, d) == vec
        # the direct construction equals the sum of scaled basis vectors
        want = module.zero()
        for c, key in zip(vec, kb.slice(d)):
            want = want + module.kbasis_element(key).scale(c)
        assert v == want
        assert kb.to_module_element(kb.to_kvec(v)) == v
        if v.coeffs:
            with pytest.raises(ValueError):
                kb.to_vector(v, d + 1)
    names = kb.basis.names
    assert len(set(names)) == len(kb.keys)
    assert list(kb.basis.degrees) == kb.degrees


# ---------------------------------------------------------------------------
# every instance document through the original and the merged paths

@functools.lru_cache(maxsize=None)
def instance(path: pathlib.Path) -> Instance:
    return Instance(load_document(str(path)))


def derivation_pairs(inst: Instance):
    """(name, delta, delta') pairs to search homotopies between."""
    delta = inst.setup.delta
    zero = DgDerivation(delta.algebra, delta.target, {})
    doubled = DgDerivation(delta.algebra, delta.target,
                           {g: v.scale(2) for g, v in delta.values.items()})
    pairs = [("self", delta, delta), ("zero", delta, zero),
             ("doubled", delta, doubled)]
    if inst.second_setup is not None:
        pairs.append(("second", delta, inst.second_setup.delta))
    return pairs


@functools.lru_cache(maxsize=None)
def homotopy_outcomes(path: pathlib.Path) -> list:
    out = []
    for name, delta, delta_prime in derivation_pairs(instance(path)):
        got = find_homotopy(delta, delta_prime)
        want = reference_find_homotopy(delta, delta_prime)
        out.append((name, got, want))
    return out


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_find_homotopy_matches_the_original(path):
    for name, got, want in homotopy_outcomes(path):
        assert (got is None) == (want is None), name
        if got is not None:
            assert got.values == want.values, name
            assert list(got.values) == list(want.values), name


@settings(max_examples=15, deadline=None)
@given(lie_pairs.documents())
def test_find_homotopy_matches_the_original_on_drawn_sl_n_pairs(doc):
    assert INSTANCE_SCHEMA.errors(doc) == []
    inst = Instance(doc)
    delta, delta_prime = inst.setup.delta, inst.second_setup.delta
    zero = DgDerivation(delta.algebra, delta.target, {})
    for a, b in ((delta, delta_prime), (delta_prime, delta), (delta, zero)):
        got, want = find_homotopy(a, b), reference_find_homotopy(a, b)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.values == want.values
            assert list(got.values) == list(want.values)


def test_find_homotopy_carries_the_hom_sign():
    """Omega = <m, n> in degrees -1 and 0 with d(m) = n: the map dg -> a.m
    of Hom(Omega^1, Omega) is -a.(dg* (x) m), a sign that no document
    reaches (their Omega sits in one even degree, or has no degree-0 part)."""
    alg = CdgaPresentation(["a", "b", "c"])
    omega = DgModule(alg, GradedBasis(["m", "n"], [-1, 0]),
                     {(0, 1): AlgebraElement.scalar(1)})

    def elem(coeffs):
        return ModuleElement(omega, {i: AlgebraElement(terms)
                                     for i, terms in coeffs.items()})

    h = DerivationHomotopy(alg, omega, {0: elem({0: {(1,): 1}}),
                                        1: elem({0: {(2,): 1}, 1: {(): 2}})})
    zero = DgDerivation(alg, omega, {})
    delta_prime = homotopy_offset(zero, h)
    got = find_homotopy(zero, delta_prime)
    want = reference_find_homotopy(zero, delta_prime)
    assert got is not None and want is not None
    assert got.values == want.values
    assert homotopy_offset(zero, got) == delta_prime


def test_homotopy_documents_cover_both_outcomes():
    found = [got is None for path in DOCUMENTS
             for _, got, _ in homotopy_outcomes(path)]
    assert True in found and False in found


@functools.lru_cache(maxsize=None)
def flat_outcome(path: pathlib.Path):
    # the search reads the complex of the class that ``atiyah`` builds
    s = instance(path).setup
    return (flat_connection_exists(atiyah_cocycle(s.connection)),
            reference_flat_connection_exists(s.delta, s.bmod))


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_flat_connection_exists_matches_the_original(path):
    got, want = flat_outcome(path)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == want
        assert got.values == want.values
        assert list(got.values) == list(want.values)


def test_flat_documents_cover_both_outcomes():
    found = [flat_outcome(path)[0] is None for path in DOCUMENTS]
    assert True in found and False in found


def outcome(f, *args):
    """f(*args), or the type of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return type(e)


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_cochain_complex_matches_the_original(path):
    assert_same_complex(instance(path).setup.bmod)


@settings(max_examples=80, deadline=None)
@given(random_complexes())
def test_cochain_complex_matches_the_original_on_random_complexes(module):
    assert_same_complex(module)


def assert_same_complex(module: DgModule):
    """Every degree of the complex agrees with the original complex:
    slices, differential, Betti numbers, representatives, and the
    outcomes of is_coboundary and class_coordinates on cocycles and
    coboundaries."""
    cx, ref = CochainComplex(module), ReferenceCochainComplex(module)
    assert cx.degrees() == ref.degrees()
    for n in ref.degrees():
        assert cx.kb.slice(n) == ref.slice_basis(n)
        assert cx.dim(n) == ref.dim(n)
        assert cx.diff_matrix(n) == ref.diff_matrix(n)
        assert cx.betti(n) == ref.betti(n)
        reps, ref_reps = cohomology_basis(cx, n), ref.cohomology_basis(n)
        assert reps == ref_reps
        assert [cx.kb.to_vector(r, n) for r in reps] \
            == [ref.to_vector(r, n) for r in ref_reps]
        # cocycles, and coboundaries (not closed when d^2 != 0)
        vectors = ref.cocycles(n) + ref.diff_matrix(n - 1)
        for z in vectors:
            v = ref.from_vector(z, n)
            assert cx.kb.from_vector(z, n) == v
            for method in ("class_coordinates", "is_coboundary"):
                assert outcome(getattr(cx, method), v) \
                    == outcome(getattr(ref, method), v), method
    assert cx.cohomology_reps() == [(n, r) for n in ref.degrees()
                                    for r in ref.cohomology_basis(n)]


# ---------------------------------------------------------------------------
# k-basis slices built one degree at a time

def command_modules(setup) -> list[DgModule]:
    """The modules whose complexes the commands decide in: B
    (``cohomology``), Omega (x) End(B) of the Atiyah class (``atiyah``,
    ``homotopy``) and Hom(Omega^1, Omega) of the homotopy search."""
    omega1, _ = kaehler_differentials(setup.algebra)
    return [setup.bmod, atiyah_cocycle(setup.connection).om_end,
            tensor_module(dual_module(omega1), setup.omega)]


def assert_slices_match_the_full_enumeration(module: DgModule):
    """Each slice of a complex's k-basis, read one degree at a time, and
    the complex's degrees equal those of the whole k-basis, which reading
    them did not enumerate."""
    cx = CochainComplex(module)
    degrees = cx.degrees()
    low, high = min(degrees, default=0), max(degrees, default=0)
    got = {d: cx.kb.slice(d) for d in range(low - 1, high + 2)}
    assert not {"keys", "index", "degrees"} & set(vars(cx.kb))
    full: dict[int, list] = {}
    for key in module.kbasis():
        full.setdefault(module.kdegree(key), []).append(key)
    assert degrees == sorted(full)
    for d, keys in got.items():
        assert keys == full.get(d, []), d


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_slices_match_the_full_enumeration(path):
    for module in command_modules(instance(path).setup):
        assert_slices_match_the_full_enumeration(module)


@settings(max_examples=10, deadline=None)
@given(lie_pairs.documents())
def test_slices_match_the_full_enumeration_on_drawn_sl_n_pairs(doc):
    for module in command_modules(Instance(doc).setup):
        assert_slices_match_the_full_enumeration(module)


@pytest.mark.parametrize("command", ["atiyah", "homotopy"])
def test_atiyah_and_homotopy_read_only_slices(monkeypatch, capsys, tmp_path,
                                              command):
    """On sl4/borel the Atiyah class reads degrees 0 and 1 of
    Omega (x) End(B), and the homotopy search degrees -1 and 0 of
    Hom(Omega^1, Omega): neither enumerates a whole k-basis."""
    from kapranov import cli
    path = tmp_path / "sl4_borel.json"
    path.write_text(json.dumps(lie_pairs.sl_borel(
        4, {"0": {"1": "1"}}, {"0": {"0": "2"}})))
    whole, original = [], DgModule.kbasis

    def kbasis(self, degree=None):
        if degree is None:
            whole.append(self)
        return original(self, degree)

    monkeypatch.setattr(DgModule, "kbasis", kbasis)
    assert cli.main([command, "--input", str(path)]) == 0
    capsys.readouterr()
    assert whole == []


# ---------------------------------------------------------------------------
# compositions through the partition join

def assert_same_composition(got: MorphismFamily, want: MorphismFamily):
    """``got`` is given by module tables with sorted keys, and their
    A-multilinear extension is the oracle's k-basis table."""
    assert list(got.maps) == list(want.maps)
    for k in want.maps:
        assert list(got.module_tables[k]) == sorted(got.module_tables[k]), k
        assert got.maps[k].table == want.maps[k].table, k
        assert {key: repr(v) for key, v in got.maps[k].table.items()} \
            == {key: repr(v) for key, v in want.maps[k].table.items()}, k


def assert_decided_like_exhaustive(mor: MorphismFamily, n_max: int,
                                   monkeypatch):
    """``check_linfty_morphism`` passes ``mor`` on module-basis tuples,
    never asking the exhaustive checker, and reports what it would."""
    def refuse(*args, **kwargs):
        raise AssertionError("the exhaustive checker ran")
    with monkeypatch.context() as patch:
        patch.setattr(kapranov, "exhaustive_morphism", refuse)
        report = check_linfty_morphism(mor, n_max)
    assert report["passed"], report
    assert report == exhaustive_morphism(mor, n_max)


def second_connection(setup) -> DeltaConnection:
    """nabla(f~) = f~^ (x) f~ on sl2/borel."""
    v = simple_tensor(setup.connection.tensor,
                      ModuleElement.basis_vector(setup.delta.target, 0),
                      ModuleElement.basis_vector(setup.bmod, 0))
    return DeltaConnection(setup.delta, setup.bmod, {0: v})


def compositions(connection, second, omega, arity):
    """The compositions of the tests: forward and back between the towers
    of two connections, both ways round, and forward after the identity."""
    fam0 = kapranov_brackets(connection, max_arity=arity)
    fam1 = kapranov_brackets(second, max_arity=arity)
    dm = DerivationMorphism(connection.delta, connection.delta,
                            ModuleMorphism.identity(omega))
    fwd = kapranov_morphism(dm, fam0, fam1, max_arity=3)
    back = kapranov_morphism(dm, fam1, fam0, max_arity=3)
    ident = MorphismFamily(fam0, fam0, module_tables={
        1: kapranov_morphism(dm, fam0, fam0, max_arity=1).module_tables[1]})
    return [(back, fwd), (fwd, back), (fwd, ident)]


@pytest.mark.parametrize("arity", [5, 4], ids=["brackets", "acceptance"])
def test_compositions_of_the_sl2_towers_match_the_original(arity,
                                                           monkeypatch):
    s = shipped_setup("sl2_borel")
    for outer, inner in compositions(s.connection, second_connection(s),
                                     s.omega, arity):
        got = compose_morphism_families(outer, inner, max_arity=3)
        assert_same_composition(got, reference_compose(outer, inner,
                                                       max_arity=3))
        assert_decided_like_exhaustive(got, 3, monkeypatch)


def test_compositions_of_the_shifted_bench_instance_match_the_original(
        monkeypatch):
    inst = instance(ROOT / "bench" / "instances" / "sl2_borel_shifted.json")
    for outer, inner in compositions(inst.setup.connection,
                                     inst.second_connection,
                                     inst.setup.omega, 4):
        got = compose_morphism_families(outer, inner, max_arity=3)
        assert any(got.module_tables.values())
        assert_same_composition(got, reference_compose(outer, inner,
                                                       max_arity=3))
        assert_decided_like_exhaustive(got, 3, monkeypatch)
