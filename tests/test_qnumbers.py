"""Tests for the q-combinatorics layer.

The Gaussian binomial tests use an independent oracle: the subset-sum
generating function sum over j-subsets S of {0..k-1} of q^(sum S - j(j-1)/2),
which never touches q-factorials.
"""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpseries import (DomainError, QFactorialTable, QParam, q_binomial,
                        q_binomial_pascal, q_number, radius_of_convergence)
from qexpseries.qnumbers import PASCAL_MAX_K

qvalues = st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=8)


def gaussian_binomial_by_subsets(k: int, j: int, q: Fraction) -> Fraction:
    """Independent oracle for [k choose j]_q via subset enumeration."""
    if j < 0 or j > k:
        return Fraction(0)
    base = j * (j - 1) // 2
    total = Fraction(0)
    for subset in combinations(range(k), j):
        total += Fraction(q) ** (sum(subset) - base)
    return total


class TestQNumber:
    def test_empty_sum(self):
        assert q_number(0, Fraction(7, 3)) == 0

    def test_single_term(self):
        assert q_number(1, Fraction(7, 3)) == 1

    def test_direct_summation(self):
        # 1 + 1/2 + 1/4
        assert q_number(3, Fraction(1, 2)) == Fraction(7, 4)

    @given(st.integers(0, 50))
    def test_classical_limit(self, k):
        assert q_number(k, QParam(1)) == k

    @given(st.integers(0, 40), qvalues.filter(lambda v: v != 1))
    def test_matches_quotient_form(self, k, q):
        assert q_number(k, q) == (1 - q ** k) / (1 - q)

    def test_negative_k_rejected(self):
        table = QFactorialTable(2, 5)
        huge = 2 ** 80    # past every sweep's index range
        for call in (lambda: q_number(-1, Fraction(1, 2)),
                     lambda: q_number(1.5, Fraction(1, 2)),
                     lambda: q_number(huge, Fraction(1, 2)),
                     # past CPython's 4300-digit cap on int -> str
                     lambda: q_number(-10 ** 5000, 2),
                     lambda: q_binomial(huge, 1, Fraction(1, 2)),
                     lambda: QFactorialTable(2, huge),
                     lambda: table.factorial(9),
                     lambda: table.binomial(9, 2)):
            with pytest.raises(DomainError):
                call()


def table_factorial(k: int, q) -> Fraction:
    """[k]_q! from the factorial table."""
    return QFactorialTable(q, k).factorial(k)


class TestQFactorial:
    def test_empty_product(self):
        assert table_factorial(0, Fraction(9, 4)) == 1

    def test_one(self):
        assert table_factorial(1, Fraction(9, 4)) == 1

    def test_direct_product(self):
        # (7/4) * (3/2) * 1
        assert table_factorial(3, Fraction(1, 2)) == Fraction(21, 8)

    @given(st.integers(1, 25), qvalues)
    def test_ratio_recurrence(self, k, q):
        assert table_factorial(k, q) == q_number(k, q) * table_factorial(k - 1, q)


class TestQFactorialTable:
    def test_invariants(self):
        q = QParam(Fraction(2, 3))
        table = QFactorialTable(q, 12)
        assert table.max_order == 12
        assert table.values[0] == 1
        for k in range(1, 13):
            assert table.values[k] == q_number(k, q) * table.values[k - 1]
            assert table.values[k] > 0

    def test_matches_scalar_function(self):
        table = QFactorialTable(Fraction(5, 2), 10)
        for k in range(11):
            product = math.prod((q_number(i, Fraction(5, 2)) for i in range(1, k + 1)),
                                start=Fraction(1))
            assert table.factorial(k) == product

    def test_binomial_out_of_range(self):
        table = QFactorialTable(Fraction(1, 2), 6)
        assert table.binomial(4, -1) == 0
        assert table.binomial(4, 5) == 0
        # j is checked before it is compared with k, and the message names j
        for j in ("a", 2.5, True):
            with pytest.raises(DomainError, match="j must be an integer"):
                table.binomial(5, j)


class TestQBinomial:
    def test_edges(self):
        q = Fraction(3, 5)
        assert q_binomial(7, 0, q) == 1
        assert q_binomial(7, 7, q) == 1
        assert q_binomial(7, -2, q) == 0
        assert q_binomial(7, 8, q) == 0
        assert q_binomial(7, 2 ** 80, q) == 0
        for j in ("a", 2.5, True):
            with pytest.raises(DomainError, match="j must be an integer"):
                q_binomial(5, j, Fraction(1, 2))
        # j > k/2 takes the short side of the product
        assert q_binomial(7, 5, q) == q_binomial(7, 2, q) == QFactorialTable(q, 7).binomial(7, 5)
        # large k, small j; [n]_{1/2} = (2^n - 1) / 2^(n-1)
        half = Fraction(1, 2)
        top = math.prod(Fraction(2 ** n - 1, 2 ** (n - 1)) for n in (1998, 1999, 2000))
        bottom = math.prod(Fraction(2 ** n - 1, 2 ** (n - 1)) for n in (1, 2, 3))
        assert q_binomial(2000, 3, half) == top / bottom == q_binomial(2000, 1997, half)

    def test_one_plus_q(self):
        # [2 choose 1]_q = 1 + q
        assert q_binomial(2, 1, Fraction(1, 2)) == Fraction(3, 2)

    def test_four_choose_two(self):
        # 1 + q + 2q^2 + q^3 + q^4 at q = 1/2 (cross-checked by the oracle below)
        assert q_binomial(4, 2, Fraction(1, 2)) == Fraction(35, 16)
        assert gaussian_binomial_by_subsets(4, 2, Fraction(1, 2)) == Fraction(35, 16)

    @settings(max_examples=40)
    @given(st.integers(0, 8), qvalues)
    def test_matches_subset_oracle(self, k, q):
        for j in range(k + 1):
            assert q_binomial(k, j, q) == gaussian_binomial_by_subsets(k, j, q)

    @settings(max_examples=60)
    @given(st.integers(0, 20), st.integers(0, 20), qvalues)
    def test_symmetry(self, k, j, q):
        assert q_binomial(k, j, q) == q_binomial(k, k - j, q)

    @given(st.integers(1, 16), qvalues)
    def test_positivity(self, k, q):
        for j in range(k + 1):
            assert q_binomial(k, j, q) > 0


class TestPascalRecursion:
    def test_base_cases(self):
        q = Fraction(2, 3)
        assert q_binomial_pascal(5, 0, q) == 1
        assert q_binomial_pascal(5, 5, q) == 1
        assert q_binomial_pascal(5, 9, q) == 0
        assert q_binomial_pascal(5, -1, q) == 0
        for j in ("a", 2.5, True):
            with pytest.raises(DomainError, match="j must be an integer"):
                q_binomial_pascal(5, j, Fraction(1, 2))

    def test_matches_quotient_hand_case(self):
        assert q_binomial_pascal(2, 1, Fraction(1, 2)) == Fraction(3, 2)

    def test_spot_agreement(self):
        assert q_binomial_pascal(5, 2, Fraction(2, 3)) == q_binomial(5, 2, Fraction(2, 3))

    @settings(max_examples=40)
    @given(st.integers(0, 12), qvalues)
    def test_agrees_with_factorial_quotient(self, k, q):
        for j in range(-1, k + 2):
            assert q_binomial_pascal(k, j, q) == q_binomial(k, j, q)

    @pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(5, 2),
                                   Fraction(4)])
    @pytest.mark.parametrize("width", [0, 1, 3])
    def test_integer_rows(self, q, width):
        # the integer rows, read at column j = 0..min(k, width) of row k
        for k in range(16):
            for j in range(min(k, width) + 1):
                assert q_binomial_pascal(k, j, q) == q_binomial(k, j, q), (k, j)

    def test_large_k_fails_fast(self):
        # the row sweep grows like k^4, so k = 3000 is refused before it runs
        assert q_binomial_pascal(PASCAL_MAX_K, 2, 2) == q_binomial(PASCAL_MAX_K, 2, 2)
        with pytest.raises(DomainError, match="q_binomial"):
            q_binomial_pascal(3000, 1500, Fraction(1, 2))


class TestRadius:
    def test_sub_one(self):
        assert radius_of_convergence(Fraction(1, 2)) == 2

    def test_super_one_and_one(self):
        assert radius_of_convergence(Fraction(2)) == float("inf")
        assert radius_of_convergence(Fraction(1)) == float("inf")

    @given(qvalues.filter(lambda v: v < 1))
    def test_formula_below_one(self, q):
        assert radius_of_convergence(q) == 1 / (1 - q)
