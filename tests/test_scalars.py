"""Contract tests for the scalar domains and the deformation parameter."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qexpseries import DomainError, check_q, parse_rational, rational_str
from qexpseries.scalars import check_int
from oracles import int_digit_cap

fractions_ = st.fractions(min_value=-50, max_value=50, max_denominator=60)
nonzero_fractions = fractions_.filter(lambda f: f != 0)


class _FractionSub(Fraction):
    pass


class _IntSub(int):
    pass


class TestExactArithmetic:
    def test_addition(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_multiplicative_inverse(self):
        v = Fraction(22, 7)
        assert v * (Fraction(7, 22)) == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)

    @given(fractions_, fractions_, fractions_)
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(nonzero_fractions)
    def test_inverses(self, a):
        assert a + (-a) == 0
        assert a * (1 / a) == 1

    @given(fractions_, fractions_)
    def test_results_stay_normalized(self, a, b):
        out = a * b + a - b
        assert out.denominator > 0
        assert math.gcd(abs(out.numerator), out.denominator) == 1


class TestQParam:
    """The deformation parameter q, as check_q reads it."""

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1), -3, Fraction(-10 ** 5000)])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(DomainError):
            check_q(Fraction(bad))

    def test_float_rejected(self):
        with pytest.raises(DomainError):
            check_q(0.5)
        # a bool is an int to Python, but not a value of q
        for flag in (True, False):
            with pytest.raises(DomainError, match="q must be rational, got bool"):
                check_q(flag)

    def test_int_coerced(self):
        q = check_q(2)
        assert q == Fraction(2)
        assert type(q) is Fraction

    def test_check_q_coercions(self):
        # text is parsed where it enters, by parse_rational, not here
        with pytest.raises(DomainError, match="q must be rational, got str"):
            check_q("1/2")
        q = Fraction(7, 5)
        assert check_q(q) is q
        # a Fraction subclass and an int subclass are read as plain values
        for value in (_FractionSub(3, 4), _IntSub(3)):
            q = check_q(value)
            assert type(q) is Fraction and q == value
            assert all(type(part) is int for part in q.as_integer_ratio())


class TestSerialization:
    def test_rational_strings(self):
        assert rational_str(Fraction(5)) == "5"
        assert rational_str(Fraction(-3, 7)) == "-3/7"
        assert rational_str(Fraction(8, 21)) == "8/21"
        # only exact rationals serialize, and only text parses
        for bad in ("x", "1/2", math.nan, math.inf, 0.5, None, True):
            with pytest.raises(DomainError, match="expected an exact rational"):
                rational_str(bad)
        for bad in (None, 3, Fraction(1, 2), 0.5, b"1/2"):
            with pytest.raises(DomainError, match="expected rational text"):
                parse_rational(bad)

    @given(fractions_)
    def test_parse_round_trip(self, value):
        assert parse_rational(rational_str(value)) == value

    @pytest.mark.parametrize("text", ["", "abc", "1/0", "2/3/4"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(DomainError, match="^not a rational number: "):
            parse_rational(text)

    def test_digit_cap(self):
        # past CPython's cap on int <-> str digits, both directions raise
        # DomainError naming the setting, not "not a rational number"
        cap = "; the PYTHONINTMAXSTRDIGITS environment variable raises the cap$"
        with int_digit_cap():
            with pytest.raises(DomainError, match=r"^Exceeds the limit \(4300 digits\).*" + cap):
                rational_str(Fraction(1, 10 ** 5000))
            with pytest.raises(DomainError, match=r"^Exceeds the limit \(4300 digits\).*"
                                                  r"value has 4401 digits.*" + cap):
                parse_rational("1/1" + "0" * 4400)
            assert rational_str(Fraction(1, 10 ** 4000)) == "1/1" + "0" * 4000


class TestCheckInt:
    @pytest.mark.parametrize("value", [5, _IntSub(5)])
    def test_returns_a_python_int(self, value):
        out = check_int(value, "n")
        assert out == 5 and type(out) is int

    @pytest.mark.parametrize("value, shown", [(True, "True"), (5.0, "5.0"), (Fraction(5), "5"),
                                              ("5", "'5'"), (None, "None"), (-1, "-1")])
    def test_rejects(self, value, shown):
        with pytest.raises(DomainError, match=f"^n must be an integer >= 0, got {shown}$"):
            check_int(value, "n")

    def test_numpy_integers(self):
        # any numbers.Integral but a bool is read through operator.index, so
        # a fixed-width count reaches the kernels as a Python int
        np = pytest.importorskip("numpy")
        for value in (np.int64(5), np.uint8(5), np.int32(5)):
            out = check_int(value, "n", 1, 10)
            assert out == 5 and type(out) is int
        with pytest.raises(DomainError, match="^n must be an integer >= 0, got -1$"):
            check_int(np.int64(-1), "n")
        with pytest.raises(DomainError, match="^n must be at most 4, got an integer of 3 bits$"):
            check_int(np.int64(5), "n", 0, 4)
        for bad in (np.bool_(True), np.float64(5.0)):
            with pytest.raises(DomainError, match="^n must be an integer >= 0"):
                check_int(bad, "n")
