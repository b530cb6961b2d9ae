"""Koszul signs, shuffles, ordered partitions, multilinear evaluation."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kapranov import graded
from kapranov.algebra import AlgebraElement, CdgaPresentation
from kapranov.graded import (GradedBasis, MultilinearMap, exact, exact_div,
                             koszul_sign, ordered_partitions, partition_sign,
                             shuffles)
from kapranov.modules import DgModule, ModuleElement
from oracles import eval_multilinear, reference_ordered_partitions


def brute_force_koszul(sigma, degrees):
    """Move elements one adjacent swap at a time, tracking the sign."""
    seq = list(range(1, len(sigma) + 1))
    sign = 1
    for pos, want in enumerate(sigma):
        j = seq.index(want)
        while j > pos:
            a, b = seq[j - 1], seq[j]
            if degrees[a - 1] % 2 and degrees[b - 1] % 2:
                sign = -sign
            seq[j - 1], seq[j] = b, a
            j -= 1
    return sign


class TestKoszulSign:
    def test_identity(self):
        assert koszul_sign((1, 2, 3), [1, 1, 1]) == 1

    def test_transposition_odd_odd(self):
        assert koszul_sign((2, 1), [1, 1]) == -1

    def test_transposition_with_even(self):
        assert koszul_sign((2, 1), [2, 1]) == 1
        assert koszul_sign((2, 1), [0, 1]) == 1
        assert koszul_sign((2, 1), [3, 5]) == -1

    def test_against_brute_force(self):
        for n in range(1, 5):
            for degs in itertools.product([0, 1, 2], repeat=n):
                for sigma in itertools.permutations(range(1, n + 1)):
                    assert koszul_sign(sigma, degs) == brute_force_koszul(sigma, degs)

    def test_composition(self):
        # koszul(sigma o tau, d) = koszul(sigma, d) * koszul(tau, d o sigma)
        for n in range(1, 5):
            for degs in itertools.product([0, 1, 2], repeat=n):
                for sigma in itertools.permutations(range(1, n + 1)):
                    for tau in itertools.permutations(range(1, n + 1)):
                        comp = tuple(sigma[tau[i] - 1] for i in range(n))
                        permuted = [degs[sigma[i] - 1] for i in range(n)]
                        assert koszul_sign(comp, degs) == (
                            koszul_sign(sigma, degs) * koszul_sign(tau, permuted))

    def test_all_even_gives_plus_one(self):
        for sigma in itertools.permutations(range(1, 5)):
            assert koszul_sign(sigma, [0, 2, 4, 6]) == 1

    def test_all_odd_gives_permutation_sign(self):
        def perm_sign(p):
            s = 1
            for i in range(len(p)):
                for j in range(i + 1, len(p)):
                    if p[i] > p[j]:
                        s = -s
            return s
        for sigma in itertools.permutations(range(1, 5)):
            assert koszul_sign(sigma, [1, 1, 1, 1]) == perm_sign(sigma)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            koszul_sign((1, 1, 2), [0, 0, 0])


class TestShuffles:
    def test_2_2_explicit(self):
        # filter all permutations of {1,2,3,4}
        expected = sorted(
            p for p in itertools.permutations(range(1, 5))
            if p[0] < p[1] and p[2] < p[3])
        assert sorted(shuffles(2, 2)) == expected
        assert len(list(shuffles(2, 2))) == 6

    def test_counts_are_binomial(self):
        for p in range(0, 8):
            for q in range(0, 8 - p):
                assert len(list(shuffles(p, q))) == math.comb(p + q, p)

    def test_lexicographic_order_of_first_block(self):
        first_blocks = [s[:3] for s in shuffles(3, 2)]
        assert first_blocks == sorted(first_blocks)

    def test_degenerate(self):
        assert list(shuffles(0, 3)) == [(1, 2, 3)]
        assert list(shuffles(3, 0)) == [(1, 2, 3)]
        assert list(shuffles(0, 0)) == [()]

    def test_each_is_monotone_on_blocks(self):
        for p, q in [(1, 3), (2, 3), (3, 3)]:
            for s in shuffles(p, q):
                assert list(s[:p]) == sorted(s[:p])
                assert list(s[p:]) == sorted(s[p:])


class TestOrderedPartitions:
    def test_single_block(self):
        assert list(ordered_partitions(3, 1)) == [((1, 2, 3),)]

    def test_full_split(self):
        assert list(ordered_partitions(3, 3)) == [((1,), (2,), (3,))]

    def test_n3_q2(self):
        got = set(ordered_partitions(3, 2))
        expected = {((1,), (2, 3)), ((2,), (1, 3)), ((1, 2), (3,))}
        assert got == expected

    def test_maxima_increase(self):
        for n in range(1, 6):
            for q in range(1, n + 1):
                for blocks in ordered_partitions(n, q):
                    maxima = [b[-1] for b in blocks]
                    assert maxima == sorted(maxima)
                    assert all(list(b) == sorted(b) for b in blocks)

    def test_counts_sum_to_ordered_partition_number(self):
        # partitions with increasing maxima of {1..n} into q blocks are
        # counted by Stirling numbers of the second kind
        def stirling2(n, q):
            if q == 0:
                return 1 if n == 0 else 0
            return sum((-1) ** i * math.comb(q, i) * (q - i) ** n
                       for i in range(q + 1)) // math.factorial(q)
        for n in range(1, 7):
            for q in range(1, n + 1):
                assert len(list(ordered_partitions(n, q))) == stirling2(n, q)

    def test_enumeration_matches_the_walk_over_all_assignments(self):
        for n in range(8):
            for q in range(-1, n + 2):
                assert list(ordered_partitions(n, q)) \
                    == list(reference_ordered_partitions(n, q)), (n, q)

    def test_partition_sign_even_degrees(self):
        assert partition_sign(((2,), (1, 3)), [0, 0, 0]) == 1

    def test_partition_sign_odd_degrees(self):
        # (2),(1,3): flat (2,1,3), one odd-odd transposition
        assert partition_sign(((2,), (1, 3)), [1, 1, 1]) == -1


BASIS = GradedBasis(["a", "b", "c"], [0, 1, 2])
# vectors over BASIS: the free module on it over the ground field
GROUND = DgModule(CdgaPresentation([]), BASIS)


def vector(coeffs: dict) -> ModuleElement:
    return ModuleElement(GROUND, {i: AlgebraElement.scalar(c)
                                  for i, c in coeffs.items()})


def make_map():
    m = MultilinearMap.uniform(2, 0, BASIS)
    m.set((0, 1), vector({1: 1}))
    m.set((1, 1), vector({2: Fraction(2)}))
    return m


class TestEvalMultilinear:
    def test_table_lookup(self):
        m = make_map()
        a = vector({0: 1})
        b = vector({1: 1})
        assert eval_multilinear(m, [a, b]) == vector({1: 1})

    def test_missing_key_is_zero(self):
        m = make_map()
        c = vector({2: 1})
        assert eval_multilinear(m, [c, c]).is_zero()

    @given(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
           st.lists(st.integers(-5, 5), min_size=3, max_size=3),
           st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_linearity_in_each_slot(self, u, v, w):
        m = make_map()
        eu = vector({i: Fraction(c) for i, c in enumerate(u)})
        ev = vector({i: Fraction(c) for i, c in enumerate(v)})
        ew = vector({i: Fraction(c) for i, c in enumerate(w)})
        lhs = eval_multilinear(m, [eu + ev, ew])
        rhs = eval_multilinear(m, [eu, ew]) + eval_multilinear(m, [ev, ew])
        assert lhs == rhs
        lhs2 = eval_multilinear(m, [ew, eu + ev])
        rhs2 = eval_multilinear(m, [ew, eu]) + eval_multilinear(m, [ew, ev])
        assert lhs2 == rhs2
        scaled = eval_multilinear(m, [eu.scale(3), ev])
        assert scaled == eval_multilinear(m, [eu, ev]).scale(3)

    def test_check_degrees_flags_violation(self):
        m = MultilinearMap.uniform(1, 0, BASIS)
        m.set((0,), vector({2: 1}))
        assert m.check_degrees()

    def test_check_degrees_accepts_clean_table(self):
        m = MultilinearMap.uniform(1, 1, BASIS)
        m.set((0,), vector({1: 1}))
        m.set((1,), vector({2: 1}))
        assert m.check_degrees() == []


class TestExact:
    @given(st.one_of(
        st.integers(-10 ** 30, 10 ** 30).map(str),
        st.from_regex(r"-?[0-9]{1,4}(/[1-9][0-9]{0,2})?", fullmatch=True),
        st.from_regex(r" ?[+-]?[0-9]{1,3}\.[0-9]{1,3} ?", fullmatch=True),
        st.integers(-10 ** 6, 10 ** 6), st.fractions(max_denominator=50)))
    def test_equals_the_fraction_in_its_one_representation(self, c):
        got, want = exact(c), Fraction(c)
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)

    def test_exact_div_stays_integral_until_it_cannot(self):
        assert type(exact_div(6, 3)) is int and exact_div(6, 3) == 2
        assert exact_div(1, 3) == Fraction(1, 3)
        assert type(exact_div(Fraction(2, 3), Fraction(1, 3))) is int

    def test_scalar_resolves_lazily_to_int_or_fraction(self):
        assert graded.Scalar == int | Fraction
        with pytest.raises(AttributeError):
            graded.Rational
