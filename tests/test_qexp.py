"""Tests for the q-exponential: series, log coefficients, guarded evaluation.

The evaluation tests use an independent brute-force oracle for q = 2 that
builds [k]_2! = prod (2^i - 1) in plain integers and sums until the terms
are far below the comparison tolerance. The exact evaluators are also held
byte for byte to plain Fraction partial-sum loops (``_reference_*``), the
binary64 branches to loops that convert each reduced Fraction with float()
(``_reference_float_eval_qexp`` and ``oracles.reference_float_log``), and,
when mpmath is installed, the exact ones to the product formulas at 40
digits.
"""

import ast
import cmath
import itertools
import json
import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qexpseries.cli as cli
import qexpseries.qexp as qexp_module
import qexpseries.qnumbers as qnumbers_module
from qexpseries import (DEFAULT_MAX_TERMS, DEFAULT_QS, DEFAULT_TOL, ConvergenceError,
                        DomainError, Evaluation, TruncatedSeries, check_q, eval_log_qexp,
                        eval_qexp, log_coeffs_closed, log_coeffs_recursive, q_number,
                        qexp_series)
from qexpseries.qnumbers import q_number_numerators, q_numbers
from qexpseries.scalars import shown
from oracles import reference_arguments, reference_float_log, reference_product

qvalues = st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=8)

GRID = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
        Fraction(3, 2), Fraction(2), Fraction(5, 2))


def brute_force_qexp_base2(z: Fraction, terms: int = 80) -> Fraction:
    """Oracle: partial sum of E_2(z) with [k]_2! = prod_{i<=k} (2^i - 1)."""
    total = Fraction(0)
    factorial = 1
    for k in range(terms):
        if k:
            factorial *= 2 ** k - 1
        total += Fraction(z) ** k / factorial
    return total


def _reported(bound):
    """The double a tail bound is reported as: a positive bound never
    underflows to 0.0."""
    return float(bound) or (math.ulp(0.0) if bound else 0.0)


def _reference_eval_qexp(q, z, tol, max_terms):
    """E_q(z) for rational z by Fraction partial sums, every step reduced:
    the loop the exact evaluator replaced, kept as its reference."""
    z = Fraction(z)
    tol_cmp = Fraction(tol)
    term = total = Fraction(1)
    numbers = q_numbers(*check_q(q).as_integer_ratio())
    qn = next(numbers)
    k = 0
    while True:
        nxt = term * z / qn
        qn_next = next(numbers)
        r = abs(z) / qn_next
        if r < 1:
            bound = abs(nxt) / (1 - r)
            if bound <= tol_cmp:
                return Evaluation(float(total), k, _reported(bound), "series")
        total = total + nxt
        term = nxt
        qn = qn_next
        k += 1
        if k >= max_terms:
            raise ConvergenceError(
                f"tail bound did not reach tol={tol} within {max_terms} terms")


def _reference_eval_log_qexp(q, z, tol, max_terms):
    """ln E_q(z) for rational z inside the log series' disk by Fraction
    partial sums, every step reduced (the replaced loop)."""
    v = check_q(q)
    z = Fraction(z)
    r_cap = abs(z) * (v - 1) / v if v > 1 else abs(z) * (1 - v)
    assert r_cap < 1
    total = Fraction(0)
    numbers = q_numbers(*v.as_integer_ratio())
    qn = next(numbers)
    shift = Fraction(1)
    zpow = z
    k = 1
    while True:
        total = total + shift / (k * qn) * zpow
        shift *= 1 - v
        qn = next(numbers)
        zpow = zpow * z
        k += 1
        bound = abs(shift / (k * qn) * zpow) / (1 - r_cap)
        if bound <= Fraction(tol):
            return Evaluation(float(total), k - 1, _reported(bound), "series")
        if k > max_terms:
            raise ConvergenceError(
                f"tail bound did not reach tol={tol} within {max_terms} terms")


def _reference_float_eval_qexp(q, z, tol, max_terms):
    """E_q(z) for a float or complex z in binary64, each [k]_q a reduced
    Fraction converted by float(): the loop the integer sweep replaced."""
    q = check_q(q)
    numbers = q_numbers(*q.as_integer_ratio())
    try:
        term = total = 1.0
        scale = float(next(numbers))
        for k in range(max_terms):
            nxt = term * z / scale
            scale = float(next(numbers))
            r = abs(z) / scale
            if r < 1:
                bound = abs(nxt) / (1 - r)
                if bound <= tol:
                    return Evaluation(total, k, bound, "series")
            total = total + nxt
            term = nxt
        if not cmath.isfinite(total):
            raise OverflowError
    except OverflowError:
        raise DomainError(f"E_q(z) exceeds the binary64 range at q = {shown(q)}, "
                          f"z = {shown(z)}") from None
    raise ConvergenceError(f"tail bound did not reach tol={tol} within {max_terms} terms")


def _rounding_allowance(q, z, binary64, exact):
    """How far ln E_q's binary64 value at a real z may be from its exact z's,
    in Fractions: both tail bounds, an ulp of the exact value, and
    gamma_(3K) |z| / (1 - r) for the float loop's K terms, gamma_n = n u /
    (1 - n u) with u = 2^-53. Term k takes three roundings per ratio (the
    quotient, z times it, the term times that) and one per later add, at
    most 3K in all, and sum |t_k| <= |z| / (1 - r) for the exact ratio cap
    r = |z| |1-q| / max(1, q)."""
    q, modulus, n = Fraction(q), Fraction(abs(z)), 3 * binary64.order
    r = modulus * abs(1 - q) / max(1, q)
    return (Fraction(binary64.tail_bound) + Fraction(exact.tail_bound)
            + Fraction(n, 2 ** 53 - n) * modulus / (1 - r) + Fraction(math.ulp(exact.value)))


def _outcome(evaluate, *args):
    """An Evaluation with the reprs of its floats, the error raised, or None
    where the evaluator returns None."""
    try:
        out = evaluate(*args)
    except (ConvergenceError, DomainError) as err:
        return type(err), str(err)
    return out and (out, repr(out.value), repr(out.tail_bound))


def _series_only(patch):
    """E_q(z) on its series for every z: the product's route rule never
    fires, so a test can hold the series kernel to its reference."""
    patch.setattr(qexp_module, "_product_route", lambda a, b, u, w: False)


@pytest.fixture
def series_route(monkeypatch):
    _series_only(monkeypatch)


class TestQExpSeries:
    def test_classical_exponential(self):
        s = qexp_series(1, 5).series
        assert s.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6),
                            Fraction(1, 24), Fraction(1, 120))

    def test_half(self):
        s = qexp_series(Fraction(1, 2), 3).series
        assert s.coeffs == (1, 1, Fraction(2, 3), Fraction(8, 21))

    def test_two_against_mersenne_products(self):
        s = qexp_series(Fraction(2), 3).series
        # [k]_2 = 2^k - 1: factorials 1, 1, 3, 21
        assert s.coeffs == (1, 1, Fraction(1, 3), Fraction(1, 21))
        factorial = 1
        for k in range(1, 4):
            factorial *= 2 ** k - 1
            assert s.coeffs[k] == Fraction(1, factorial)

    def test_negative_order_rejected(self):
        for order in (-1, 2.5, True, 2 ** 80):
            with pytest.raises(DomainError):
                qexp_series(Fraction(1, 2), order)

    @settings(max_examples=40)
    @given(qvalues, st.integers(1, 20))
    def test_coefficient_ratio_invariant(self, q, order):
        s = qexp_series(q, order).series
        assert s.coeffs[0] == 1 and s.coeffs[1] == 1
        for k in range(1, order + 1):
            assert s.coeffs[k] * q_number(k, q) == s.coeffs[k - 1]


class TestLogCoeffClosed:
    @pytest.mark.parametrize("q", GRID)
    def test_first_coefficient_is_one(self, q):
        assert log_coeffs_closed(1, q).coeff(1) == 1

    def test_vanishes_at_classical_point(self):
        vec = log_coeffs_closed(9, 1)
        for k in range(2, 10):
            assert vec.coeff(k) == 0

    def test_hand_value(self):
        # (1/2) / (2 * 3/2)
        assert log_coeffs_closed(2, Fraction(1, 2)).coeff(2) == Fraction(1, 6)

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            log_coeffs_closed(2, Fraction(1, 2)).coeff(0)

    @pytest.mark.parametrize("q", [Fraction(3, 2), Fraction(2), Fraction(5, 2)])
    def test_sign_alternates_above_one(self, q):
        vec = log_coeffs_closed(20, q)
        for k in range(1, 21):
            value = vec.coeff(k)
            assert (value > 0) if k % 2 == 1 else (value < 0)

    @settings(max_examples=40)
    @given(st.integers(1, 30), qvalues)
    def test_vector_matches_pointwise(self, k, q):
        pointwise = (1 - q) ** (k - 1) / (k * q_number(k, q))
        assert log_coeffs_closed(k, q).coeff(k) == pointwise


class TestLogCoeffsRecursive:
    def test_single_term(self):
        assert log_coeffs_recursive(1, Fraction(7, 2)).values == (0, 1)
        # order 0 is the floor of both routes, as it is of qexp_series
        for q in (Fraction(1, 2), 1, Fraction(7, 2)):
            assert log_coeffs_closed(0, q).values == log_coeffs_recursive(0, q).values == (0,)

    def test_one_step_by_hand(self):
        # c_2 = 1/[2]_q! - (1/2) c_1 = 2/3 - 1/2 at q = 1/2
        assert log_coeffs_recursive(2, Fraction(1, 2)).values == (0, 1, Fraction(1, 6))

    def test_agrees_with_closed_form_spot(self):
        q = Fraction(2, 3)
        rec = log_coeffs_recursive(32, q)
        clo = log_coeffs_closed(32, q)
        assert rec.values == clo.values

    @settings(max_examples=25, deadline=None)
    @given(qvalues, st.integers(1, 24))
    def test_agrees_with_closed_form_random(self, q, order):
        assert log_coeffs_recursive(order, q).values == log_coeffs_closed(order, q).values

    @pytest.mark.parametrize("q", DEFAULT_QS + (Fraction(1), Fraction(4, 5), Fraction(5, 7)))
    def test_matches_the_log_of_the_series(self, q):
        # the generic Horner log of E_q, the route the anti-diagonal kernel replaced
        for order in (0, 1, 2, 40, 96):
            assert (log_coeffs_recursive(order, q).values
                    == qexp_series(q, order).series.log().coeffs), order

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 40))
    def test_matches_the_log_of_the_series_random(self, a, b, order):
        q = Fraction(a, b)
        assert log_coeffs_recursive(order, q).values == qexp_series(q, order).series.log().coeffs

    def test_reads_only_the_q_number_sweep(self, monkeypatch):
        expected = log_coeffs_recursive(40, Fraction(2, 5)).values

        def unreachable(*args):
            raise AssertionError("the recursion read another route")

        monkeypatch.setattr(qexp_module, "_log_coeff_pairs", unreachable)
        monkeypatch.setattr(qexp_module, "qexp_series", unreachable)
        monkeypatch.setattr(TruncatedSeries, "log", unreachable)
        assert log_coeffs_recursive(40, Fraction(2, 5)).values == expected

    def test_independent_of_the_closed_form(self, monkeypatch, capsys):
        # a closed form with 1-q doubled keeps c_1 and is wrong from c_2 on;
        # `qexp coeffs` keeps the recursion column and shows the difference
        q = Fraction(2, 3)
        expected = log_coeffs_recursive(12, q).values
        pairs = qnumbers_module._log_coeff_pairs

        def doubled(a, b):
            for k, (shift, den) in enumerate(pairs(a, b)):
                yield shift * 2 ** k, den

        monkeypatch.setattr(qexp_module, "_log_coeff_pairs", doubled)
        monkeypatch.setattr(qnumbers_module, "_log_coeff_pairs", doubled)
        assert log_coeffs_closed(12, q).values != expected
        assert cli.main(["coeffs", "--q", "2/3", "--order", "12", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["log_recursion"] for row in rows] == list(map(str, expected))
        assert [row["difference"] != "0" for row in rows] == [False, False] + [True] * 11


class TestLogCoeffVector:
    def test_closed_form_invariant(self):
        q = Fraction(5, 2)
        vec = log_coeffs_closed(20, q)
        for k in range(1, 21):
            assert vec.coeff(k) * k * q_number(k, q) == (1 - q) ** (k - 1)

    def test_coeff_bounds(self):
        vec = log_coeffs_closed(5, Fraction(1, 2))
        for call in (lambda: vec.coeff(0), lambda: vec.coeff(6), lambda: vec.coeff(1.5),
                     lambda: log_coeffs_closed(2 ** 80, 2),
                     lambda: log_coeffs_closed(2.5, 2), lambda: log_coeffs_closed(True, 2),
                     lambda: log_coeffs_closed(-1, 2), lambda: log_coeffs_recursive(-1, 2)):
            with pytest.raises(DomainError):
                call()
        for build in (log_coeffs_closed, log_coeffs_recursive):
            with pytest.raises(DomainError, match="holds no coefficients"):
                build(0, Fraction(1, 2)).coeff(1)

    @pytest.mark.parametrize("q", GRID)
    def test_exp_reconstructs_qexp_series(self, q):
        assert log_coeffs_closed(12, q).as_series().exp() == qexp_series(q, 12).series


class TestEvalQExp:
    def test_argument_zero(self):
        out = eval_qexp(Fraction(5, 2), 0)
        assert out.value == 1.0
        assert out.order == 0
        assert out.tail_bound == 0.0

    def test_classical_e(self):
        out = eval_qexp(1, 1, tol=1e-12)
        assert abs(out.value - math.e) <= 1e-12
        assert out.tail_bound <= 1e-12

    def test_base_two_against_brute_force(self):
        oracle = float(brute_force_qexp_base2(Fraction(1)))
        out = eval_qexp(Fraction(2), 1, tol=1e-14)
        assert abs(out.value - oracle) <= 1e-13

    @pytest.mark.parametrize("z", [2, Fraction(2), 2.0, -2, 3, Fraction(10 ** 5000)])
    def test_radius_guard(self, z):
        with pytest.raises(DomainError) as err:
            eval_qexp(Fraction(1, 2), z)
        assert "2" in str(err.value)

    def test_inside_radius_accepted(self):
        out = eval_qexp(Fraction(1, 2), Fraction(19, 10), tol=1e-10)
        assert out.value > 0

    def test_exact_and_float_paths_agree(self):
        exact = eval_qexp(Fraction(1, 2), Fraction(1, 3), tol=1e-15)
        floated = eval_qexp(Fraction(1, 2), 1 / 3, tol=1e-15)
        assert abs(exact.value - floated.value) < 1e-13

    def test_partial_sums_monotone_for_positive_argument(self):
        q = Fraction(3, 2)
        z = Fraction(2)
        out = eval_qexp(q, z, tol=1e-12)
        # all terms are positive, so every proper prefix sits strictly below
        prefix = Fraction(0)
        term = Fraction(1)
        for k in range(out.order):
            prefix += term
            assert out.value > float(prefix)
            term = term * z / q_number(k + 1, q)

    def test_tol_validation(self):
        for evaluate in (eval_qexp, eval_log_qexp):
            for bad in ({"tol": 0.0}, {"tol": math.inf}, {"tol": math.nan},
                        {"tol": "a"}, {"max_terms": 2.5}, {"max_terms": 0}):
                with pytest.raises(DomainError):
                    evaluate(Fraction(1, 2), 1, **bad)
            # with two bad arguments the earlier check names the error:
            # tol before the radius, max_terms before the type of z
            for z, bad, name in ((5, {"tol": 0.0}, "tol"), ("x", {"max_terms": 0}, "max_terms")):
                with pytest.raises(DomainError, match=f"^{name} must be"):
                    evaluate(Fraction(1, 2), z, **bad)
            # max_terms only caps the loop, so any size is accepted
            assert (evaluate(Fraction(1, 2), 1, max_terms=2 ** 80)
                    == evaluate(Fraction(1, 2), 1))

    def test_iteration_limit(self):
        with pytest.raises(ConvergenceError):
            eval_qexp(Fraction(1, 2), Fraction(199, 100), tol=1e-12, max_terms=10)
        # a tol past CPython's 4300-digit cap on int -> str is named by size
        with pytest.raises(ConvergenceError, match="tol=a rational of 1 bits over 16610 bits"):
            eval_qexp(Fraction(1, 2), 1, tol=Fraction(1, 10 ** 5000), max_terms=5)

    def test_complex_argument(self):
        out = eval_qexp(Fraction(2), complex(0, 1), tol=1e-12)
        assert isinstance(out.value, complex)
        # compare against the truncated series evaluated directly
        series = qexp_series(Fraction(2), 12).series
        direct = sum(float(c) * complex(0, 1) ** k for k, c in enumerate(series.coeffs))
        assert abs(out.value - direct) < 1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            eval_qexp(Fraction(2), float("inf"))
        # a bool is not an argument value, though Python counts it as an int
        for evaluate in (eval_qexp, eval_log_qexp):
            for flag in (True, False):
                with pytest.raises(DomainError, match="unsupported argument type bool"):
                    evaluate(Fraction(2), flag)

    def test_binary64_overflow(self):
        for q, z in ((3, 1e300), (2, Fraction(10 ** 14)), (2, 1e14), (2, Fraction(10 ** 5000))):
            with pytest.raises(DomainError, match="binary64 range"):
                eval_qexp(q, z)

    def test_range_decided_before_summing(self):
        # E_q(z) > z for z > 0, so a z past the binary64 range needs no
        # terms: one term is allowed, and the log's fallback decides the same
        for evaluate in (eval_qexp, eval_log_qexp):
            with pytest.raises(DomainError, match="binary64 range"):
                evaluate(2, Fraction(10 ** 400, 3), max_terms=1)

    def test_overflow_decided_without_the_exact_sum(self, monkeypatch):
        # a ball wholly past DBL_MAX overflows at its end nearer zero too,
        # which decides the range: no exact sum of some 2800 terms runs
        def unreachable(*args):
            raise AssertionError("the exact fallback ran")
        monkeypatch.setattr(qexp_module, "_sum_exact", unreachable)
        with pytest.raises(DomainError, match="binary64 range"):
            eval_qexp(Fraction(999, 1000), Fraction(590), 1e-12, 10 ** 5)
        # below DBL_MAX the ball still settles the value
        out = eval_qexp(Fraction(999, 1000), Fraction(540), 1e-12, 10 ** 5)
        assert (out.order, out.value) == (2582, 2.6158504929813798e+277)

    def test_long_sum_settles_in_fixed_point(self, monkeypatch, series_route):
        # 6817 terms whose step integers grow to some 6800 bits: every ball
        # of the sum decides, with no exact fallback
        def unreachable(*args):
            raise AssertionError("the exact fallback ran")
        monkeypatch.setattr(qexp_module, "_sum_exact", unreachable)
        assert (eval_qexp(Fraction(1, 2), Fraction(199, 100), 1e-12, 10 ** 4)
                == Evaluation(687.017770805638, 6817, 9.958988571144086e-13, "series"))

    def test_product_past_the_binary64_range(self, monkeypatch):
        # E_q(1) is about 1/q = 2^2000 at q = 2^-2000: the product's first
        # stop test settles a ball wholly past DBL_MAX, and the series draws
        # no step
        def unreachable(*args):
            raise AssertionError("the series ran")
        monkeypatch.setattr(qexp_module, "_qexp_steps", unreachable)
        with pytest.raises(DomainError, match="E_q\\(z\\) exceeds the binary64 range"):
            eval_qexp(Fraction(1, 2 ** 2000), 1)

    def test_max_terms_caps_the_factors(self):
        # 54 factors at 0.9995 of the radius, where the series needs more than 1000 terms
        out = eval_qexp(Fraction(1, 2), Fraction(1999, 1000))
        assert (out.order, out.method) == (54, "product")
        assert eval_qexp(Fraction(1, 2), Fraction(1999, 1000), max_terms=54) == out
        with pytest.raises(ConvergenceError, match="within 53 terms"):
            eval_qexp(Fraction(1, 2), Fraction(1999, 1000), max_terms=53)

    def test_ball_straddling_dbl_max_goes_to_the_exact_sum(self, monkeypatch):
        # th = 2^1024 - 2^970 is the midpoint between DBL_MAX and 2^1024: a
        # term 1/(3 2^p) below it, at the kernel's precision p for tol 1e-12,
        # is held by a ball whose upper end is th itself, which rounds to
        # 2^1024 and overflows while its lower end rounds to DBL_MAX; the
        # exact sum decides, and the value rounds down to DBL_MAX
        th, tol = 2 ** 1024 - 2 ** 970, 1e-12
        tol_num, tol_den = tol.as_integer_ratio()
        p = 53 + qexp_module._GUARD_BITS + tol_den.bit_length() - tol_num.bit_length()
        first = Fraction(3 * 2 ** p * th - 1, 3 * 2 ** p).as_integer_ratio()
        exact = qexp_module._sum_exact
        calls = []

        def spied(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(qexp_module, "_sum_exact", spied)
        out = qexp_module._sum_fixed(first, lambda: iter([(0, 1, 1, 1)]), 0, tol, 1, False)
        assert len(calls) == 1
        assert out == Evaluation(sys.float_info.max, 0, 0.0, "series")


class TestStepStreams:
    """The kernel's step streams give, tuple for tuple, the steps built
    plainly from the q-number sweep, each mul as |mul| with one sign per
    call: sign(u) for E_q and sign((b-a)u) for ln E_q at z = u/w; E_q's
    product steps give the ratios built in Fractions from x_m."""

    @staticmethod
    def qexp_reference(a, b, z):
        mul, w = z.as_integer_ratio()
        numbers = q_number_numerators(a, b)
        div = w * next(numbers)
        for number in numbers:
            lift = w * number
            yield mul, div, lift, lift - abs(mul) * b
            mul *= b
            div = lift

    @staticmethod
    def log_reference(a, b, u, w, cap_num, cap_den):
        gap = cap_den - cap_num
        pairs = itertools.pairwise(q_number_numerators(a, b))
        for k, (number, next_number) in enumerate(pairs, 1):
            yield (b - a) * u * k * number, (k + 1) * next_number * w, cap_den, gap

    @pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(1), Fraction(5, 2),
                                   Fraction(2 ** 70, 3)])
    @pytest.mark.parametrize("z", [Fraction(0), Fraction(7, 3), Fraction(-7, 3)])
    def test_first_steps(self, q, z):
        a, b = q.as_integer_ratio()
        u, w = z.as_integer_ratio()
        cap_num, cap_den = abs(u) * abs(b - a), w * max(a, b)
        streams = ((qexp_module._qexp_steps(a, b, abs(u), w), self.qexp_reference(a, b, z),
                    u < 0),
                   (qexp_module._log_steps(a, b, w, cap_num, cap_den),
                    self.log_reference(a, b, u, w, cap_num, cap_den), (b - a) * u < 0))
        for stream, reference, flip in streams:
            steps = list(itertools.islice(stream, 200))
            assert ([(-mul if flip else mul, *rest) for mul, *rest in steps]
                    == list(itertools.islice(reference, 200)))
            # the premise of the kernel's high-water mark: a bound
            # |t_{k+1}| lift / gap is never below |t_{k+1}|
            for mul, div, lift, gap in steps:
                assert mul >= 0 and div > 0
                assert gap <= 0 or gap <= lift

    @staticmethod
    def product_reference(q, z):
        """Per step m = 1, 2, ... of the product in Fractions, x_m = (1-q) q^m
        z: the term ratio t_m / t_(m-1) = q / (1 - x_m), and |E_q(z) - P_m| /
        |t_m| as the bound has it, (1 - x_m) L / (x_m (1-L)) for L = x_m /
        ((1 - x_m)(1-q)) < 1 (None where L >= 1), and 1 / (1-q) for z < 0."""
        x = (1 - q) * z
        while True:
            x *= q
            if z < 0:
                factor = 1 / (1 - q)
            else:
                omitted = x / ((1 - x) * (1 - q))
                factor = (1 - x) * omitted / (x * (1 - omitted)) if omitted < 1 else None
            yield q / (1 - x), factor

    @pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(1, 2), Fraction(4, 5),
                                   Fraction(1, 2 ** 70)])
    @pytest.mark.parametrize("f", [Fraction(1, 2), Fraction(99, 100)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_product_steps(self, q, f, sign):
        # z at a fraction f of the radius, on the product route where it is
        # past q / (1-q); every term has the sign of z, so no step flips
        z = sign * f / (1 - q)
        a, b = q.as_integer_ratio()
        u, w = z.as_integer_ratio()
        steps = list(itertools.islice(qexp_module._product_steps(a, b, u, w), 200))
        assert ([(Fraction(mul, div), Fraction(lift, gap) if gap > 0 else None)
                 for mul, div, lift, gap in steps]
                == list(itertools.islice(self.product_reference(q, z), 200)))
        for mul, div, lift, gap in steps:
            assert mul >= 0 and div > 0
            assert gap <= 0 or gap <= lift
        # 1 + sum_{m<M} t_m is P_M exactly, from t_0 = x_0 / (1 - x_0)
        x = (1 - q) * z
        term = x / (1 - x)
        total = product = Fraction(1)
        for mul, div, _, _ in steps[:60]:
            total += term
            product /= 1 - x
            assert total == product
            term *= Fraction(mul, div)
            x *= q

    @pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(5, 2)])
    @pytest.mark.parametrize("z", [Fraction(1, 2), Fraction(-1, 2)])
    def test_evaluators_pass_the_sign(self, q, z, monkeypatch):
        # each evaluator hands the kernel the flag of the contract above
        fixed, flags = qexp_module._sum_fixed, []

        def spied(*args):
            flags.append(args[6])
            return fixed(*args)

        monkeypatch.setattr(qexp_module, "_sum_fixed", spied)
        eval_qexp(q, z)
        eval_log_qexp(q, z)
        assert flags == [z < 0, (1 - q) * z < 0]

    def test_stop_test_only_at_the_end(self, monkeypatch, series_route):
        # 531 terms reach the ball's stop test only on the last few: above
        # the high-water mark one comparison, and below it the bit lengths,
        # show the bound is past tol
        settled, decisions = qexp_module._settled, []

        def spied(low, high):
            if isinstance(low, bool):
                decisions.append(low)
            return settled(low, high)

        monkeypatch.setattr(qexp_module, "_settled", spied)
        out = eval_qexp(Fraction(1, 2), Fraction(19, 10), 1e-10)
        assert out.order == 531
        assert decisions[-1] and not any(decisions[:-1]) and len(decisions) <= 10


class TestEvalLogQExp:
    def test_argument_zero(self):
        assert eval_log_qexp(Fraction(1, 2), 0).value == 0.0

    def test_classical_point_is_linear(self):
        out = eval_log_qexp(1, Fraction(7, 10))
        assert out.value == 0.7
        assert out.order == 1
        assert out.method == "series"

    def test_cross_evaluation(self):
        out = eval_log_qexp(Fraction(1, 2), 1, tol=1e-12)
        reference = math.log(eval_qexp(Fraction(1, 2), 1, tol=1e-15).value)
        assert abs(out.value - reference) <= 1e-10

    def test_exp_of_log_consistency(self):
        q = Fraction(3, 2)
        out = eval_log_qexp(q, Fraction(1, 2), tol=1e-13)
        ref = eval_qexp(q, Fraction(1, 2), tol=1e-13)
        assert math.exp(out.value) == pytest.approx(ref.value, abs=1e-11)

    def test_series_path_inside_disk(self):
        # q/(q-1) = 2 at q = 2, so z = 1 stays on the series path
        assert eval_log_qexp(Fraction(2), 1).method == "series"

    def test_fallback_outside_disk(self):
        out = eval_log_qexp(Fraction(2), 3, tol=1e-12)
        assert out.method == "log_of_qexp"
        reference = math.log(eval_qexp(Fraction(2), 3, tol=1e-15).value)
        assert abs(out.value - reference) <= 1e-11

    def test_fallback_rejects_nonpositive_values(self):
        # E_2(-3) is negative, so the logarithm does not exist
        with pytest.raises(DomainError, match=r"^ln E_q\(z\) undefined: E_q\(-3\) = -"):
            eval_log_qexp(Fraction(2), -3)

    @pytest.mark.parametrize("z", [Fraction(-7999999999999, 10 ** 12), Fraction(-2),
                                   complex(-2, 0), -2.0])
    def test_fallback_within_the_tail_bound_of_a_zero(self, z):
        # E_2 vanishes at -2 and -8, and E_2(z) = +1.08e-13 at the first z;
        # a value within its tail bound of 0 shows no sign, so the log is
        # not certified, and not called undefined either
        with pytest.raises(DomainError, match=r"^cannot certify E_q\(z\) != 0 at q = 2, "):
            eval_log_qexp(2, z)

    def test_fallback_undefined_only_where_the_sign_is_certified(self):
        # near the zeros -q^(m+1)/(q-1) of E_q, q > 1, "undefined" is raised
        # only where a far tighter sum certifies E_q(z) < 0. The first zero is
        # on the rim of the log series' disk, where that series may need more
        # than max_terms terms
        undefined = 0
        for q in (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4)):
            for m in (0, 1):
                root = -q ** (m + 1) / (q - 1)
                for offset in (Fraction(s, 10 ** e) for e in range(9, 16) for s in (1, -1)):
                    try:
                        eval_log_qexp(q, root + offset)
                    except (DomainError, ConvergenceError) as err:
                        if "undefined" in str(err):
                            tight = eval_qexp(q, root + offset, Fraction(1, 10 ** 40))
                            assert -tight.value > tight.tail_bound, (q, root + offset)
                            undefined += 1
        assert undefined    # some points are certified negative

    @pytest.mark.parametrize("z, max_terms", [(Fraction(-3) + Fraction(1, 10 ** 9), 1000),
                                              (Fraction(-29, 10), 20), (-2.9, 20),
                                              (-2.999999999, 1000), (2.999999999, 1000)])
    def test_rim_falls_back_to_the_log_of_qexp(self, z, max_terms):
        # for q > 1 a log series that does not settle within max_terms hands
        # the call to the log of E_q, on the exact and the binary64 path: its
        # ratio cap |z|(q-1)/q is 1 - 10^-9/3 at the first z
        out = eval_log_qexp(Fraction(3, 2), z, max_terms=max_terms)
        assert out == qexp_module._log_via_qexp(Fraction(3, 2), z, DEFAULT_TOL, max_terms)
        assert out.method == "log_of_qexp" and out.order < max_terms
        # for q < 1 no other route exists inside the disk
        with pytest.raises(ConvergenceError):
            eval_log_qexp(Fraction(1, 2), z / -2, max_terms=20)

    @pytest.mark.parametrize("z", [1e-5, 0.5, 1.0, -1.0])
    def test_float_at_a_q_past_the_binary64_range(self, z):
        # at q = 2^2000 every [k]_q from [2]_q on is past DBL_MAX, which at
        # these z only makes the term ratio underflow, and (q - 1) / q rounds to 1:
        # a float z gets its exact value's outcome
        q = 2 ** 2000
        for evaluate in (eval_qexp, eval_log_qexp):
            evaluate_both = [_outcome(evaluate, q, x, DEFAULT_TOL, DEFAULT_MAX_TERMS)
                             for x in (z, Fraction(z))]
            got, expected = evaluate_both
            if isinstance(expected[0], type):
                assert got[0] is expected[0] is DomainError, evaluate_both
            else:
                assert (abs(got[0].value - expected[0].value)
                        <= got[0].tail_bound + math.ulp(expected[0].value)), evaluate_both

    def test_log_of_qexp_bound_is_never_zero(self):
        # ln E_q(1) at q = 2^2000 is the log of E_q(1) = 2 + 2^-2000 or so,
        # whose bound 5e-324 halves to 0.0 in the log: it is reported as
        # the least subnormal, as on every other path
        out = eval_log_qexp(2 ** 2000, 1)
        assert out == Evaluation(math.log(2), 1, math.ulp(0.0), "log_of_qexp")
        # only the report is raised to it: a tol below it still accepts the bound
        assert eval_log_qexp(2 ** 2000, 1, Fraction(1, 10 ** 400)) == out

    def test_hand_over_where_the_series_cannot_settle(self, monkeypatch):
        # the log series' ratio cap at q = 2^2000, z = 1 is 1 - 2^-2000, so
        # no bound within max_terms reaches tol: the call goes to the log of
        # E_q before the log series draws a step
        steps, drawn = qexp_module._log_steps, []

        def spied(*args):
            for step in steps(*args):
                drawn.append(step)
                yield step

        monkeypatch.setattr(qexp_module, "_log_steps", spied)
        out = eval_log_qexp(2 ** 2000, 1)
        assert out == Evaluation(0.6931471805599453, 1, 5e-324, "log_of_qexp")
        assert not drawn
        # for q < 1 the same test raises at once what max_terms would
        with pytest.raises(ConvergenceError, match="within 1000 terms"):
            eval_log_qexp(Fraction(1, 2 ** 2000), 1 - Fraction(1, 2 ** 1000))
        assert not drawn
        # a series that settles still draws its steps, also where it needs
        # every term allowed: at q = 2^16, z = 31/32 the test is some 6 bits
        # short of giving up on the series that settles at 769 terms
        out = eval_log_qexp(2 ** 16, Fraction(31, 32), DEFAULT_TOL, 769)
        assert (out.method, out.order) == ("series", 769) and drawn
        assert eval_log_qexp(2 ** 16, Fraction(31, 32), DEFAULT_TOL, 768).method == "log_of_qexp"

    def test_rim_of_a_complex_z_does_not_fall_back(self):
        # at q = 11/10, z = 10.5j the factors 1 + z / (11 q^n) of E_q(z) have
        # arguments that sum to about 9.62, past pi: the principal log of
        # E_q(z) is 4 pi i off ln E_q(z), so a log series that does not
        # settle raises instead of handing the call over
        q, z = Fraction(11, 10), 10.5j
        with pytest.raises(ConvergenceError):
            eval_log_qexp(q, z, max_terms=100)
        principal = qexp_module._log_via_qexp(q, z, DEFAULT_TOL, 100).value
        factors = sum(cmath.log(1 + z / (11 * 1.1 ** n)) for n in range(600))
        assert abs(factors - principal - 4j * math.pi) < 1e-9

    def test_rim_of_a_float_z_near_a_zero_is_not_certified_to_its_rounding(self):
        # 1e-9 off the zero -3 of E_q at q = 3/2 the binary64 sum of E_q(z)
        # is 2.3e-11, and its own rounding, outside the certificate, is
        # divided by that |E| in the log: the float z's value is 3.2e-6 off
        # the exact z's, far beyond both reported bounds
        q, z = Fraction(3, 2), -2.999999999
        binary64, exact = eval_log_qexp(q, z), eval_log_qexp(q, Fraction(z))
        assert binary64.method == exact.method == "log_of_qexp"
        assert 3e-6 < abs(binary64.value - exact.value) < 4e-6
        assert max(binary64.tail_bound, exact.tail_bound) < 1e-15

    def test_complex_z_outside_the_disk_gets_the_principal_log(self):
        # at q = 11/10, z = 11j is outside the log series' disk: the value is
        # the principal log of E_q(z), imaginary part in (-pi, pi], while the
        # sum of the factors' logs log(1 + z / (11 q^n)), the series'
        # continuation, is 4 pi i above it
        q, z = Fraction(11, 10), 11j
        out = eval_log_qexp(q, z)
        assert out.method == "log_of_qexp"
        assert -math.pi < out.value.imag <= math.pi
        factors = sum(cmath.log(1 + z / (11 * 1.1 ** n)) for n in range(600))
        assert abs(factors - out.value - 4j * math.pi) < 1e-9

    def test_fallback_tightens_until_it_certifies(self, monkeypatch):
        # E_q(z) = 5.2e-16 at q = 4, 1e-15 off the zero -4/3: the sum at tol
        # and the one at tol |E| / 2 leave the log's bound above tol, a third
        # pass at the last |E| certifies it
        q, z = Fraction(4), Fraction(-4, 3) + Fraction(1, 10 ** 15)
        inner, tols = qexp_module.eval_qexp, []

        def spied(q, z, tol, max_terms):
            tols.append(tol)
            return inner(q, z, tol, max_terms)

        monkeypatch.setattr(qexp_module, "eval_qexp", spied)
        out = eval_log_qexp(q, z)
        assert (out.method, len(tols)) == ("log_of_qexp", 3)
        assert out.tail_bound <= DEFAULT_TOL
        for tol, tighter in itertools.pairwise(tols):
            assert tighter == DEFAULT_TOL * abs(inner(q, z, tol, DEFAULT_MAX_TERMS).value) / 2
        monkeypatch.undo()
        tight = eval_qexp(q, z, 1e-30)
        assert abs(out.value - math.log(tight.value)) < 1e-12

    def test_fallback_stops_where_tol_cannot_fall(self, monkeypatch):
        # E_2(z) is about 1.4e-316 at 1e-315 off the zero -2: tol |E| / 2
        # underflows to 0.0, and the fallback says it could not certify tol
        # rather than handing 0.0 on as a tol
        with pytest.raises(ConvergenceError, match=r"^could not certify tol=1e-318 for "):
            eval_log_qexp(2, Fraction(-2) + Fraction(1, 10 ** 315), 1e-318)
        # a tightened tol that is not below the last one stops it too: |E| = 4.5
        # with tail bound 4 gives a log bound of 8 > tol = 4, and 4 * 4.5 / 2 = 9
        calls = []

        def stuck(q, z, tol, max_terms):
            calls.append(tol)
            return Evaluation(4.5, 3, 4.0)

        monkeypatch.setattr(qexp_module, "eval_qexp", stuck)
        with pytest.raises(ConvergenceError, match=r"^could not certify tol=4 for "):
            eval_log_qexp(2, 5, 4)
        assert calls == [4]

    def test_one_hand_over_site(self):
        # eval_log_qexp hands a call to the log of E_q from one place, and
        # the fallback's passes are not counted
        tree = ast.parse(Path(qexp_module.__file__).read_text(encoding="utf-8"))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        calls = [node for node in ast.walk(functions["eval_log_qexp"])
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_log_via_qexp"]
        assert len(calls) == 1
        assert not [node for node in ast.walk(functions["_log_via_qexp"])
                    if isinstance(node, ast.For)]

    def test_rim_fallback_error_stands_alone(self):
        # 1e-13 off the zero E_q's value is within its tail bound; the
        # fallback's error is raised on its own, not chained to the log
        # series' ConvergenceError
        with pytest.raises(DomainError, match="^cannot certify") as err:
            eval_log_qexp(Fraction(3, 2), Fraction(-3) + Fraction(1, 10 ** 13))
        assert err.value.__context__ is None

    def test_radius_guard(self):
        for z in (Fraction(5, 2), Fraction(10 ** 5000)):
            with pytest.raises(DomainError) as err:
                eval_log_qexp(Fraction(1, 2), z)
            assert "2" in str(err.value)

    def test_float_rounding_onto_the_radius(self):
        # z is below the radius 4/3 exactly, so the radius guard passes it,
        # but the binary64 cap |z| (1 - q) rounds to 1.0: no bound can reach
        # tol, and the call raises what the same z as an exact rational raises
        z = 1.3333333333333333
        assert Fraction(z) < Fraction(4, 3) and z * (1 - Fraction(1, 4)) == 1.0
        for x in (z, Fraction(z)):
            with pytest.raises(ConvergenceError, match="within 1000 terms"):
                eval_log_qexp(Fraction(1, 4), x)

    def test_binary64_overflow(self):
        # ln E_1(z) = z, so a rational z past the binary64 range is a value
        # past it too: DomainError, as for E_q, not a raw OverflowError
        for z in (Fraction(10 ** 400), Fraction(-(10 ** 400), 3)):
            with pytest.raises(DomainError, match=r"^ln E_q\(z\) exceeds the binary64 "
                                                  r"range at q = 1, z = -?1000"):
                eval_log_qexp(1, z)

    def test_float_sum_past_the_binary64_range(self):
        # at q = 1 + 2^-1025 the log series' disk reaches past DBL_MAX. No
        # term overflows, and the sum is checked where it stops: at z =
        # -1.7e308 it is past the range, with the exact z's error, and at
        # 1.7e308 the value is within the loop's rounding of the exact z's.
        # A tol of 1e296 stops the series after 30 terms
        q, tol = Fraction(2 ** 1025 + 1, 2 ** 1025), 1e296
        for z in (-1.7e308, Fraction(-1.7e308)):
            with pytest.raises(DomainError, match=r"^ln E_q\(z\) exceeds the binary64 range"):
                eval_log_qexp(q, z, tol)
        out, exact = eval_log_qexp(q, 1.7e308, tol), eval_log_qexp(q, Fraction(1.7e308), tol)
        assert out.method == exact.method == "series" and out.order == exact.order
        assert abs(Fraction(out.value) - Fraction(exact.value)) <= \
            _rounding_allowance(q, 1.7e308, out, exact)

    @pytest.mark.parametrize("q", [Fraction(1, 2), 1, 2])
    def test_complex_modulus_overflow(self, q):
        # finite parts, but a modulus beyond the binary64 range: DomainError
        # from both evaluators, not a raw OverflowError; eval_qexp at q >= 1
        # meets it in its own sum, as E_q(z) beyond the range
        z = complex(1.5e308, 1.5e308)
        modulus = "^" + re.escape(f"|z| exceeds the binary64 range at q = {q}, z = {z!r}")
        with pytest.raises(DomainError, match=modulus):
            eval_log_qexp(q, z)
        with pytest.raises(DomainError, match=modulus if q < 1 else r"^E_q\(z\) exceeds"):
            eval_qexp(q, z)

    @pytest.mark.parametrize("q, z", [(Fraction(9, 10), 9.5), (Fraction(9, 10), -9.5),
                                      (Fraction(8, 9), 8.9j), (1, 1e160),
                                      (Fraction(3, 2), 2.999999999j)])
    def test_float_power_overflow(self, q, z):
        # the binary64 loop walks the term ratio, so no power z^k forms:
        # 9.5^k would be inf from k ~ 316 on, and the series settles at 476
        # terms, within the loop's rounding allowance of the exact z's value.
        # ln E_1(z) = z with every later term 0. A complex z near the radius,
        # or on the rim of q > 1, which is not handed over, does not settle
        if isinstance(z, complex):
            with pytest.raises(ConvergenceError, match="within 1000 terms"):
                eval_log_qexp(q, z)
        elif q == 1:
            assert eval_log_qexp(q, z) == Evaluation(1e160, 1, 0.0, "series")
        else:
            out, exact = eval_log_qexp(q, z), eval_log_qexp(q, Fraction(z))
            assert (out.method, out.order) == ("series", 476)
            assert abs(Fraction(out.value) - Fraction(exact.value)) <= \
                _rounding_allowance(q, z, out, exact)

    @settings(max_examples=40, deadline=None)
    @given(qvalues | st.just(Fraction(1)), st.floats(-0.9, 0.9),
           st.sampled_from((1e-6, 1e-12, 1e-15)))
    def test_float_agrees_with_its_exact_value(self, q, share, tol):
        # a real float z at a share of the log series' disk, |z| / R = |share|
        # for R = max(1, q) / |1-q| (10 at q = 1): the binary64 loop gives the
        # reference's doubles, and it is within its rounding allowance of the
        # same z as an exact rational
        z = float(share * (max(1, q) / abs(1 - q) if q != 1 else 10))
        out, exact = eval_log_qexp(q, z, tol), eval_log_qexp(q, Fraction(z), tol)
        assert out == reference_float_log(q, z, tol, DEFAULT_MAX_TERMS)
        assert out.method == exact.method == "series"
        assert abs(Fraction(out.value) - Fraction(exact.value)) <= \
            _rounding_allowance(q, z, out, exact)

    def test_vanishing_terms_take_no_exact_sum(self, monkeypatch):
        # at q = 1 every term after z is 0: the first term's rounding leaves
        # the ball a radius, but the bound is exactly 0, so the ball settles
        # the call without the exact sum
        expected = Evaluation(float(Fraction(1, 3)), 1, 0.0, "series")
        exact_sum, calls = qexp_module._sum_exact, []

        def spied(*args):
            calls.append(args)
            return exact_sum(*args)

        monkeypatch.setattr(qexp_module, "_sum_exact", spied)
        assert eval_log_qexp(1, Fraction(1, 3)) == expected
        assert not calls
        monkeypatch.undo()
        steps = qexp_module._log_steps(1, 1, 3, 0, 3)    # z = 1/3, cap 0/3
        assert qexp_module._sum_exact((1, 3), steps, 1, DEFAULT_TOL, DEFAULT_MAX_TERMS,
                                      False, False, 0, "series") == expected

    @settings(max_examples=25, deadline=None)
    @given(qvalues, st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2),
                                 max_denominator=12))
    def test_log_of_qexp_identity_numeric(self, q, z):
        lhs = eval_log_qexp(q, z, tol=1e-13)
        rhs = eval_qexp(q, z, tol=1e-13)
        assert math.exp(lhs.value) == pytest.approx(rhs.value, rel=1e-10, abs=1e-12)


class TestExactPathMatchesReference:
    """The integer partial sums give the same Evaluations, float for float,
    as reduced Fraction partial sums."""

    QS = (Fraction(1, 3), Fraction(1, 2), Fraction(4, 5), Fraction(1),
          Fraction(3, 2), Fraction(2), Fraction(5, 2))

    @staticmethod
    def points(q):
        """The z of one grid row; for q > 1 the last one is outside the log
        series' disk, where ln E_q(z) falls back to log_of_qexp."""
        if q < 1:
            radius = 1 / (1 - q)
            return [s * f * radius for f in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
                    for s in (1, -1)]
        disk = q / (q - 1) if q > 1 else Fraction(2)
        return [-disk / 2, 2 * disk]

    @staticmethod
    def expected(q, z, tol, max_terms, monkeypatch, qexp_outcome=None):
        """The reference outcomes of E_q(z) and ln E_q(z); for q > 1 a log
        outside its series disk, or one whose series does not settle within
        max_terms, is _log_via_qexp over the reference E_q. A given
        ``qexp_outcome`` stands in for the reference E_q outcome."""
        if qexp_outcome is None:
            qexp_outcome = _outcome(_reference_eval_qexp, q, z, tol, max_terms)
        log_outcome = None
        if check_q(q) <= 1 or abs(z) < q / (q - 1):
            log_outcome = _outcome(_reference_eval_log_qexp, q, z, tol, max_terms)
        if log_outcome is None or (q > 1 and log_outcome[0] is ConvergenceError):
            with monkeypatch.context() as patch:
                patch.setattr(qexp_module, "eval_qexp", _reference_eval_qexp)
                log_outcome = _outcome(qexp_module._log_via_qexp, Fraction(q), z, tol, max_terms)
        return qexp_outcome, log_outcome

    @staticmethod
    def route(patch, name):
        """Force a route: "fixed_point" makes the exact fallback raise;
        "exact" leaves every ball undecided, so the fallback gives every
        result; "as_is" patches nothing."""
        def unreachable(*args):
            raise AssertionError("the exact fallback ran")
        if name == "fixed_point":
            patch.setattr(qexp_module, "_sum_exact", unreachable)
        elif name == "exact":
            patch.setattr(qexp_module, "_settled", lambda low, high: None)

    @classmethod
    def outcomes(cls, route, args):
        """The outcomes of E_q(z) and ln E_q(z) on one route."""
        with pytest.MonkeyPatch.context() as patch:
            cls.route(patch, route)
            return _outcome(eval_qexp, *args), _outcome(eval_log_qexp, *args)

    @classmethod
    def assert_routes(cls, routes, args, expected):
        for route in routes:
            assert cls.outcomes(route, args) == expected, (route, args)

    @pytest.mark.parametrize("q", QS)
    def test_byte_identical(self, q, monkeypatch, series_route):
        raised = 0
        # z = 0, where every term past the first vanishes, as in ln E_1(z)
        for z in (*self.points(q), Fraction(0)):
            for tol in (1e-8, 1e-12):
                for max_terms in (1000, 10):
                    args = (q, z, tol, max_terms)
                    expected = self.expected(*args, monkeypatch)
                    raised += expected[0][0] is ConvergenceError
                    # the fixed-point sums serve the whole grid
                    self.assert_routes(("fixed_point", "exact"), args, expected)
        assert raised or q >= 1    # near the radius, 10 terms are too few

    @pytest.mark.parametrize("q, z, k", [(Fraction(1), Fraction(1), 5),
                                         (Fraction(1, 2), Fraction(3, 2), 7),
                                         (Fraction(5, 2), Fraction(-1), 3)])
    def test_exact_ties(self, q, z, k, monkeypatch, series_route):
        # tol a Fraction equal to the bound at k: each evaluator stops at k.
        # A tol 2^-200 below it, far inside any ball's radius, goes on.
        factorial = math.prod((q_number(i, q) for i in range(1, k + 2)), start=Fraction(1))
        ties = [abs(z ** (k + 1) / factorial) / (1 - abs(z) / q_number(k + 2, q))]
        if q != 1:    # at q = 1 every log term past z is 0
            r_cap = abs(z) * abs(1 - q) / max(q, 1)
            c_next = log_coeffs_closed(k + 1, q).coeff(k + 1)
            ties.append(abs(c_next * z ** (k + 1)) / (1 - r_cap))
        nudge = Fraction(1, 2 ** 200)
        for which, tie in enumerate(ties):
            for tol, stops in ((tie, True), (tie * (1 + nudge), True), (tie * (1 - nudge), False)):
                args = (q, z, tol, 1000)
                expected = self.expected(*args, monkeypatch)
                assert (expected[which][0].order == k) is stops
                self.assert_routes(("as_is", "exact"), args, expected)

    def test_underflowing_bound(self, monkeypatch):
        # a positive bound below the least subnormal is reported as that
        # subnormal, not as 0.0, which would claim an exact value; where the
        # later terms vanish, at z = 0 and in ln E_1(z), the bound is 0.0
        tiniest = math.ulp(0.0)
        for which, args, bound in (
                (1, (Fraction(1, 2), Fraction(1, 10 ** 170), 1e-12, 1000), tiniest),
                (0, (Fraction(1, 2), Fraction(1, 10 ** 200), 1e-300, 1000), tiniest),
                (1, (Fraction(1), Fraction(1, 10 ** 170), 1e-12, 1000), 0.0),
                (1, (Fraction(1), Fraction(-3), 1e-300, 1000), 0.0),
                (0, (Fraction(1, 2), Fraction(0), 1e-300, 1000), 0.0),
                (1, (Fraction(5, 2), Fraction(0), 1e-300, 1000), 0.0)):
            expected = self.expected(*args, monkeypatch)
            assert expected[which][0].tail_bound == bound
            self.assert_routes(("as_is", "exact"), args, expected)

    #: Bits of the reference E_q's partial sums past which its gcd at every
    #: step costs seconds, on one Xeon core: 0.6 s at 94k bits (q = 8/9,
    #: z = 36/5, tol 1e-15), more than 270 s at 1.5M bits (z = 171/20).
    HEIGHT_BUDGET = 100_000

    @staticmethod
    def height(q, z, terms):
        """Estimated bits of the reference partial sum of E_q(z) through
        z^terms, whose denominator is about w^k prod_{j<=k} S_j for
        q = a/b, z = u/w and [j]_q = S_j / b^(j-1)."""
        q_bits = max(q.numerator, q.denominator).bit_length()
        z_bits = max(abs(z.numerator), z.denominator).bit_length()
        return terms * (terms * q_bits // 2 + z_bits)

    @settings(max_examples=60, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
           st.fractions(min_value=Fraction(-19, 20), max_value=Fraction(19, 20),
                        max_denominator=50),
           st.sampled_from((1e-6, 1e-10, 1e-15, Fraction(1, 1000))),
           st.sampled_from((1000, 12)))
    @example(Fraction(8, 9), Fraction(41, 50), 1e-15, 1000)    # just past the budget
    def test_random_points(self, q, fraction, tol, max_terms):
        # z within 0.95 of the radius for q < 1, and |z| < 10 otherwise
        z = fraction / (1 - q) if q < 1 else 10 * fraction
        args = (q, z, tol, max_terms)
        with pytest.MonkeyPatch.context() as patch:
            _series_only(patch)
            got = [self.outcomes(route, args) for route in ("as_is", "exact")]
        first = got[0][0][0]
        terms = first.order if isinstance(first, Evaluation) else max_terms
        # past the budget E_q's expected outcome is the exact route's, which
        # test_byte_identical holds equal to the reference
        stand_in = got[1][0] if self.height(q, z, terms) > self.HEIGHT_BUDGET else None
        with pytest.MonkeyPatch.context() as patch:
            expected = self.expected(*args, patch, stand_in)
        assert got == [expected, expected], args


class TestProductPathMatchesReference:
    """Where |z|(1-q) > q, E_q(z) is the product prod_m 1 / (1 - x_m), x_m =
    (1-q) q^m z: each Evaluation holds the floats of the exact partial
    product P_M and of its bound, P_M L / (1-L) with L = |x_M| / ((1 -
    |x_M|)(1-q)), or |P_(M+1) - P_M| / (1-q) for z < 0, at the first M >= 1
    where that bound is within tol (:func:`oracles.reference_product`)."""

    QS = (Fraction(1, 3), Fraction(1, 2), Fraction(4, 5))

    @staticmethod
    def points(q):
        radius = 1 / (1 - q)
        return [s * f * radius for f in (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100))
                for s in (1, -1)]

    @staticmethod
    def series(args):
        with pytest.MonkeyPatch.context() as patch:
            _series_only(patch)
            return _outcome(eval_qexp, *args)

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_floats_of_the_exact_product(self, q, tol):
        products = 0
        for z in self.points(q):
            args = (q, z, tol, DEFAULT_MAX_TERMS)
            if abs(z) * (1 - q) > q:
                expected = _outcome(reference_product, *args)
                products += 1
            else:    # at 1/2 of the radius of q = 1/2 and 4/5
                expected = self.series(args)
            assert _outcome(eval_qexp, *args) == expected, args
            # with every ball left open, the exact sum over the same steps decides
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(qexp_module, "_settled", lambda low, high: None)
                undecided = _outcome(eval_qexp, *args)
            assert undecided == expected, args
        assert products == (6 if q < Fraction(1, 2) else 4)

    def test_small_product_keeps_its_bits(self, monkeypatch):
        # E_q(z) is about 1.7e-10 at q = 99/100, z = -99.9 after 37 factors,
        # below tol = 1e-8, where the series does not settle within
        # max_terms: the fraction bits of tol round the value, with neither
        # the series nor the exact sum
        def unreachable(*args):
            raise AssertionError("the series or the exact sum ran")
        args = (Fraction(99, 100), Fraction(-999, 10), 1e-8, DEFAULT_MAX_TERMS)
        expected = _outcome(reference_product, *args)
        monkeypatch.setattr(qexp_module, "_qexp_steps", unreachable)
        monkeypatch.setattr(qexp_module, "_sum_exact", unreachable)
        assert _outcome(eval_qexp, *args) == expected
        assert expected[0].value < 1e-8

    @pytest.mark.parametrize("q, z, factors", [(Fraction(49, 50), Fraction(-4999, 100), 41),
                                               (Fraction(99, 100), Fraction(-999, 10), 37)])
    def test_negative_z_stops_on_its_own_bound(self, q, z, factors):
        # for z < 0 each later term ratio is at most q, so |t_M| / (1-q)
        # bounds the error with no L < 1: 41 and 37 factors, where the bound
        # P_M L / (1-L) takes 195 and 460
        args = (q, z, 1e-8, DEFAULT_MAX_TERMS)
        out = eval_qexp(*args)
        assert (out.order, out.method) == (factors, "product")
        assert _outcome(eval_qexp, *args) == _outcome(reference_product, *args)

    def test_first_stop_after_one_factor(self):
        # at q = 2^-80 the bound at M = 0 is 0.0086, within tol = 0.5, but
        # the first stop test follows the first term: the value is P_1, not
        # P_0 = 1
        args = (Fraction(1, 2 ** 80), Fraction(210701, 25000000), 0.5, 2)
        out = eval_qexp(*args)
        assert (out.order, out.method) == (1, "product") and out.value > 1
        assert _outcome(eval_qexp, *args) == _outcome(reference_product, *args)

    @pytest.mark.parametrize("q, z", [(Fraction(1, 2), Fraction(1)),
                                      (Fraction(1, 3), Fraction(-1, 2)),
                                      (Fraction(4, 5), Fraction(4))])
    def test_boundary_goes_to_the_series(self, q, z):
        # |z|(1-q) = q exactly keeps the series; one step past it takes the product
        args = (q, z, DEFAULT_TOL, DEFAULT_MAX_TERMS)
        out = eval_qexp(*args)
        assert out.method == "series"
        assert _outcome(eval_qexp, *args) == self.series(args)
        past = z + Fraction(1, 10 ** 30) * (1 if z > 0 else -1)
        assert eval_qexp(q, past).method == "product"

    @settings(max_examples=80, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 12), max_value=Fraction(11, 12),
                        max_denominator=12),
           st.fractions(min_value=Fraction(1, 100), max_value=Fraction(97, 100),
                        max_denominator=100),
           st.sampled_from((1, -1)),
           st.sampled_from((1e-6, 1e-10, 1e-15)))
    def test_agrees_with_the_series(self, q, fraction, sign, tol):
        # no oracle: the two routes' values are within the sum of their
        # bounds and half an ulp of each, in Fractions
        z = sign * (q + fraction * (1 - q)) / (1 - q)    # |z|(1-q) in (q, 1)
        product = eval_qexp(q, z, tol)
        assert product.method == "product"
        with pytest.MonkeyPatch.context() as patch:
            _series_only(patch)
            try:
                series = eval_qexp(q, z, tol)
            except ConvergenceError:    # near the radius the series needs more terms
                return
        allowance = (Fraction(series.tail_bound) + Fraction(product.tail_bound)
                     + Fraction(math.ulp(series.value)) / 2 + Fraction(math.ulp(product.value)) / 2)
        assert abs(Fraction(series.value) - Fraction(product.value)) <= allowance


class TestFloatPathMatchesReference:
    """The binary64 branches take [k]_q and the log's term ratio c_(k+1) /
    c_k as int / int quotients of the integer sweep; they give the same
    outcomes, float for float, as loops that convert each reduced Fraction
    with float()."""

    @staticmethod
    def expected(q, z, tol, max_terms):
        """The reference outcomes of E_q(z) and ln E_q(z); for q > 1 a log
        outside its series disk, or one at a real z whose series does not
        settle within max_terms, is _log_via_qexp over the reference E_q."""
        q = check_q(q)
        qexp_outcome = _outcome(_reference_float_eval_qexp, q, z, tol, max_terms)
        log_outcome = _outcome(reference_float_log, q, z, tol, max_terms)
        if log_outcome is None or (q > 1 and not isinstance(z, complex)
                                   and log_outcome[0] is ConvergenceError):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(qexp_module, "eval_qexp", _reference_float_eval_qexp)
                log_outcome = _outcome(qexp_module._log_via_qexp, q, z, tol, max_terms)
        return qexp_outcome, log_outcome

    @staticmethod
    def got(*args):
        return _outcome(eval_qexp, *args), _outcome(eval_log_qexp, *args)

    @pytest.mark.parametrize("q", TestExactPathMatchesReference.QS)
    def test_same_doubles(self, q):
        seen = set()
        for point in TestExactPathMatchesReference.points(q):
            x = float(point)
            for z in (x, complex(0.6 * x, 0.8 * x)):
                for tol in (1e-8, 1e-12):
                    for max_terms in (1000, 10):
                        args = (q, z, tol, max_terms)
                        expected = self.expected(*args)
                        assert self.got(*args) == expected, args
                        seen.update(out[0] if isinstance(out[0], type) else out[0].method
                                    for out in expected)
        if q < 1:     # near the radius, 10 terms are too few
            assert ConvergenceError in seen
        elif q > 1:   # past the disk, the log of E_q serves ln E_q
            assert "log_of_qexp" in seen

    @pytest.mark.parametrize("q, z", [(3, 1e300), (1, 800.0), (1, 800j), (1, -800.0)])
    def test_overflow(self, q, z):
        # E_q(z) runs past the binary64 range: for q = 3, z = 1e300 the
        # terms are inf at once and [k]_3 itself overflows later; for q = 1
        # the sum overflows part way
        expected = self.expected(q, z, 1e-12, 3000)
        assert expected[0][0] is DomainError
        assert self.got(q, z, 1e-12, 3000) == expected

    @pytest.mark.parametrize("q, z", [(Fraction(3, 2), 2.729), (Fraction(5, 2), 0.184),
                                      (Fraction(5, 2), 0.206)])
    def test_log_cap_rounding(self, q, z):
        # the cap |z|(q-1)/q rounds to another double than the once-rounded
        # |z|(a-b)/a here: 0.9096666666666667 against 0.9096666666666666 at
        # z = 2.729, 0.11040000000000001 against 0.1104 at z = 0.184. The
        # reference takes the once-rounded cap; the tail bound shows which cap
        # ran at 2.729. At 0.206 1 - cap differs too but the bound rounds
        # alike, and at 0.184 both give 1 - cap = 0.8896
        a, b = q.as_integer_ratio()
        assert z * (q - 1) / q != z * ((a - b) / a)
        args = (q, z, 1e-12, 1000)
        assert self.got(*args) == self.expected(*args)


    @pytest.mark.parametrize("evaluate, q, z, tol, bound", [
        (eval_log_qexp, Fraction(1, 2), 1e-200, 1e-12, math.ulp(0.0)),
        (eval_qexp, Fraction(1, 2), 1e-200, 1e-300, math.ulp(0.0)),
        (eval_qexp, 2, 1e-200j, 1e-300, math.ulp(0.0)),
        (eval_log_qexp, 3, -1e-170, 1e-300, math.ulp(0.0)),
        # the tail is exactly 0: ln E_1(z) = z, and z = 0
        (eval_log_qexp, 1, 1e-200, 1e-12, 0.0),
        (eval_qexp, 2, 0.0, 1e-12, 0.0),
        (eval_log_qexp, 2, 0.0, 1e-12, 0.0),
    ])
    def test_underflowing_bound(self, evaluate, q, z, tol, bound):
        # a nonzero tail bound below the binary64 range is the least
        # subnormal, as on the exact path; the bound depends only on |z|
        got = evaluate(q, z, tol)
        exact = evaluate(q, Fraction(z.real or z.imag), tol)
        assert (got.order, got.tail_bound) == (exact.order, exact.tail_bound)
        assert got.tail_bound == bound


class _FractionSub(Fraction):
    pass


class _IntSub(int):
    pass


class _FloatSub(float):
    pass


class TestArgumentGate:
    """qexp._arguments decides the radius on plain integers; it returns what
    the gate that runs every argument through the package's validators and
    Fraction arithmetic returns, or raises the same error with the same
    message, in the same order of checks."""

    QS = (Fraction(1, 4), Fraction(2, 3), Fraction(1), Fraction(3, 2), 1, 2, True, 0.5,
          Decimal("0.5"), _FractionSub(1, 2), 0, Fraction(-1, 2), -2, "1/2")
    ZS = (Fraction(1, 3), Fraction(-7, 5), Fraction(4, 3), Fraction(-4, 3), 3, -1, 0, True,
          Decimal("0.5"), _IntSub(1), _FloatSub(0.5), _FloatSub(math.inf), 0.0, -0.0,
          math.inf, -math.inf, math.nan, 1.3333333333333333, 1.3333333333333335,
          -1.3333333333333335, 0.25, complex(0.3, -0.4), complex(math.nan, 0.0),
          complex(0.5, math.nan), complex(0.8, 0.6) * 1.3333333333333335,
          complex(1.5e308, 1.5e308), 10**400, "1", None)
    TOLS = (1e-12, Fraction(1, 10**6), 1, True, 0, 0.0, -1e-3, math.inf, math.nan,
            Decimal("1e-6"))
    MAX_TERMS = (1, 0, True, 1.0, 2**70, 1000)

    @staticmethod
    def outcome(gate, *args):
        """A gate's result as (q, is_exact, z), a binary64 z by its type and
        repr so that -0.0 shows, or the error it raised."""
        try:
            out = gate(*args)
        except Exception as err:    # any class, so that a raw error shows
            return type(err), str(err)
        if len(out) == 6:
            q, a, b, z, tol, max_terms = out
            assert (a, b) == Fraction(q).as_integer_ratio()
            assert type(tol) is float or tol == Fraction(args[2])
            assert type(max_terms) is int and max_terms == args[3]
            out = q, z, type(z) is Fraction
        q, z, is_exact = out
        return Fraction(q), is_exact, Fraction(z) if is_exact else (type(z), repr(z))

    def check(self, *args):
        assert self.outcome(qexp_module._arguments, *args) == \
            self.outcome(reference_arguments, *args), args

    def test_grid(self):
        for args in itertools.product(self.QS, self.ZS, self.TOLS, self.MAX_TERMS):
            self.check(*args)

    def test_seeded_near_radius(self):
        # floats and complex numbers within a few ulps of 1/(1-q), and
        # rationals within 1/w of it, over random q < 1 and q >= 1
        rng = random.Random(20231)
        for _ in range(300):
            q = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            radius = 1 / (1 - q) if q < 1 else Fraction(rng.randint(1, 50))
            near = float(radius)
            for _ in range(rng.randint(0, 3)):
                near = math.nextafter(near, math.inf if rng.random() < 0.5 else 0.0)
            w = rng.randint(1, 10**6)
            zs = (near, -near, complex(0.6 * near, 0.8 * near),
                  Fraction(round(radius * w) + rng.randint(-1, 1), w) * rng.choice((1, -1)))
            for z in zs:
                self.check(q, z, rng.choice((1e-12, 1e-8, Fraction(1, 7))),
                           rng.choice((1, 1000)))
            self.check(rng.choice((int(q), q)), zs[0], 1e-10, 10)

    def test_ulps_at_the_radius(self):
        # at q = 1/4 the radius is 4/3: 1.3333333333333333 is inside it,
        # 1.3333333333333335 outside
        q = Fraction(1, 4)
        assert qexp_module._arguments(q, 1.3333333333333333, 1e-12, 10)[3] == \
            1.3333333333333333
        with pytest.raises(DomainError, match="outside the radius"):
            qexp_module._arguments(q, 1.3333333333333335, 1e-12, 10)


class TestMpmathOracle:
    """E_q(z) = 1/((1-q)z; q)_inf for q < 1 and ((1/q - 1)z; 1/q)_inf for
    q > 1, summed by mpmath at 40 digits."""

    POINTS = ((Fraction(1, 2), Fraction(19, 10)), (Fraction(4, 5), Fraction(-9, 2)),
              (Fraction(2), Fraction(3)), (Fraction(3, 2), Fraction(-7, 4)),
              # long chains: 1993 terms of the log; E_q takes 411 and 164 factors
              (Fraction(9, 10), Fraction(99, 10)), (Fraction(9, 10), Fraction(-99, 10)),
              (Fraction(3, 4), Fraction(-3573, 1000)), (Fraction(4, 5), Fraction(4479, 1000)))

    #: Points on E_q's product route, 1999/1000 at 0.9995 of the radius. A
    #: z < 0 stops on the bound |P_(M+1) - P_M| / (1-q), which the last two,
    #: near q = 1, reach far sooner than P_M L / (1-L)
    PRODUCT_POINTS = ((Fraction(1, 2), Fraction(1999, 1000)),
                      (Fraction(3, 4), Fraction(-3573, 1000)), (Fraction(4, 5), Fraction(4479, 1000)),
                      (Fraction(49, 50), Fraction(-4999, 100)), (Fraction(99, 100), Fraction(-999, 10)))

    @staticmethod
    def reference(mpmath, q, z):
        # mpmath's own cap, 50 factors per bit of precision, is too few at q = 99/100
        mq, mz = mpmath.mpf(q.numerator) / q.denominator, mpmath.mpf(z.numerator) / z.denominator
        if q < 1:
            return 1 / mpmath.qp((1 - mq) * mz, mq, maxterms=10 ** 5)
        return mpmath.qp(-(1 - 1 / mq) * mz, 1 / mq, maxterms=10 ** 5)

    @pytest.mark.parametrize("q, z", POINTS)
    def test_against_product_formula(self, q, z):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = self.reference(mpmath, q, z)
            out = eval_qexp(q, z, tol=1e-10, max_terms=5000)
            assert abs(out.value - ref) <= out.tail_bound + math.ulp(out.value)
            if ref > 0:
                log_out = eval_log_qexp(q, z, tol=1e-10, max_terms=5000)
                assert abs(log_out.value - mpmath.log(ref)) <= (log_out.tail_bound
                                                              + math.ulp(log_out.value))

    @pytest.mark.parametrize("q, z", PRODUCT_POINTS)
    def test_product_at_the_default_max_terms(self, q, z):
        mpmath = pytest.importorskip("mpmath")
        out = eval_qexp(q, z)
        assert out.method == "product"
        with mpmath.workdps(40):
            ref = self.reference(mpmath, q, z)
            assert abs(out.value - ref) <= out.tail_bound + math.ulp(out.value) / 2

    def test_rim_of_the_log_series(self):
        # 1e-9 inside the log series' disk at q = 3/2, and off E_q's first
        # zero -3: ln E_q(z) is about -24.49, from the log of E_q
        mpmath = pytest.importorskip("mpmath")
        z = Fraction(-3) + Fraction(1, 10 ** 9)
        out = eval_log_qexp(Fraction(3, 2), z)
        with mpmath.workdps(40):
            # E_q(z) = (-(1-1/q) z; 1/q)_inf for q > 1
            ref = mpmath.log(mpmath.qp(mpmath.mpf(-z.numerator) / (3 * z.denominator),
                                       mpmath.mpf(2) / 3))
            assert abs(out.value - ref) <= out.tail_bound + math.ulp(out.value)
