"""Tests for the q-exponential: series, log coefficients, guarded evaluation.

The evaluation tests use an independent brute-force oracle for q = 2 that
builds [k]_2! = prod (2^i - 1) in plain integers and sums until the terms
are far below the comparison tolerance. The exact evaluators are also held
byte for byte to plain Fraction partial-sum loops (``_reference_*``), the
binary64 branches to loops that convert each reduced Fraction with float()
(``_reference_float_*``), and, when mpmath is installed, the exact ones to
the product formulas at 40 digits.
"""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qexpseries.qexp as qexp_module
from qexpseries import (ConvergenceError, DomainError, Evaluation, QParam, as_qparam,
                        eval_log_qexp, eval_qexp, log_coeffs_closed, log_coeffs_recursive,
                        q_number, qexp_series)
from qexpseries.qnumbers import q_numbers
from qexpseries.scalars import shown

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
    numbers = q_numbers(q)
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
    qp = as_qparam(q)
    z = Fraction(z)
    v = qp.value
    r_cap = abs(z) * (v - 1) / v if v > 1 else abs(z) * (1 - v)
    assert r_cap < 1
    total = Fraction(0)
    numbers = q_numbers(qp)
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
    qp = as_qparam(q)
    numbers = q_numbers(qp)
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
        raise DomainError(f"E_q(z) exceeds the binary64 range at q = {shown(qp.value)}, "
                          f"z = {shown(z)}") from None
    raise ConvergenceError(f"tail bound did not reach tol={tol} within {max_terms} terms")


def _reference_float_eval_log_qexp(q, z, tol, max_terms):
    """ln E_q(z) for a float or complex z inside the log series' disk in
    binary64, each c_k a reduced Fraction converted by float() (the
    replaced loop)."""
    qp = as_qparam(q)
    v = qp.value
    r_cap = abs(z) * (v - 1) / v if v > 1 else abs(z) * (1 - v)
    assert r_cap < 1
    numbers = q_numbers(qp)
    shift = Fraction(1)       # (1-q)^(k-1)
    zpow = z
    c_k = float(shift / next(numbers))
    total = 0.0
    for k in range(1, max_terms + 1):
        total = total + c_k * zpow
        zpow = zpow * z
        shift *= 1 - v
        c_k = float(shift / ((k + 1) * next(numbers)))
        bound = abs(c_k * zpow) / (1 - r_cap)
        if bound <= tol:
            return Evaluation(total, k, bound, "series")
    raise ConvergenceError(f"tail bound did not reach tol={tol} within {max_terms} terms")


def _outcome(evaluate, *args):
    """An Evaluation with the reprs of its floats, or the error raised."""
    try:
        out = evaluate(*args)
    except (ConvergenceError, DomainError) as err:
        return type(err), str(err)
    return out, repr(out.value), repr(out.tail_bound)


class TestQExpSeries:
    def test_classical_exponential(self):
        s = qexp_series(QParam(1), 5).series
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
        vec = log_coeffs_closed(9, QParam(1))
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
        out = eval_qexp(QParam(1), 1, tol=1e-12)
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


class TestEvalLogQExp:
    def test_argument_zero(self):
        assert eval_log_qexp(Fraction(1, 2), 0).value == 0.0

    def test_classical_point_is_linear(self):
        out = eval_log_qexp(QParam(1), Fraction(7, 10))
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
        with pytest.raises(DomainError):
            eval_log_qexp(Fraction(2), -3)

    def test_radius_guard(self):
        for z in (Fraction(5, 2), Fraction(10 ** 5000)):
            with pytest.raises(DomainError) as err:
                eval_log_qexp(Fraction(1, 2), z)
            assert "2" in str(err.value)

    def test_float_rounding_onto_the_radius(self):
        # z is below the radius 4/3 exactly, so the radius guard passes it,
        # but the binary64 product |z| (1 - q) rounds to 1.0
        z = 1.3333333333333333
        assert Fraction(z) < Fraction(4, 3) and z * (1 - Fraction(1, 4)) == 1.0
        with pytest.raises(DomainError, match="too close to the radius of convergence"):
            eval_log_qexp(Fraction(1, 4), z)

    def test_binary64_overflow(self):
        # ln E_1(z) = z, so a rational z past the binary64 range is a value
        # past it too: DomainError, as for E_q, not a raw OverflowError
        for z in (Fraction(10 ** 400), Fraction(-(10 ** 400), 3)):
            with pytest.raises(DomainError, match=r"^ln E_q\(z\) exceeds the binary64 "
                                                  r"range at q = 1, z = -?1000"):
                eval_log_qexp(1, z)

    @pytest.mark.parametrize("q, z", [(Fraction(9, 10), 9.5), (Fraction(9, 10), -9.5),
                                      (Fraction(8, 9), 8.9j), (1, 1e160)])
    def test_float_power_overflow(self, q, z):
        # the binary64 loop keeps z^k as a double: 9.5^k is inf from k ~ 316
        # on, before the bound reaches tol, and at q = 1 c_2 z^2 is 0.0 * inf;
        # every later term is inf or nan, so the sum says so at max_terms
        with pytest.raises(DomainError, match=r"^z\^k left the binary64 range in ln E_q\(z\) "
                                              r"at q = .*; an exact rational z avoids this$"):
            eval_log_qexp(q, z)
        if isinstance(z, float):
            out = eval_log_qexp(q, Fraction(z))
            assert out.method == "series" and math.isfinite(out.value)

    def test_float_power_overflow_stops_at_once(self, monkeypatch):
        # the loop stops at the first partial sum that is not finite, 9.5^316
        # being the first power past the binary64 range, whatever max_terms is
        pairs = qexp_module._log_coeff_pairs
        draws = []

        def counted(qp):
            for pair in pairs(qp):
                draws.append(pair)
                yield pair

        monkeypatch.setattr(qexp_module, "_log_coeff_pairs", counted)
        outcomes = []
        for max_terms in (1000, 100000):
            draws.clear()
            with pytest.raises(DomainError) as err:
                eval_log_qexp(Fraction(9, 10), 9.5, max_terms=max_terms)
            outcomes.append((str(err.value), len(draws)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == 317     # c_1 .. c_317, the last read for the bound
        # a max_terms that ends just before the first infinite sum still
        # ends in ConvergenceError, as it did when the check ran at the end
        for max_terms, error in ((315, ConvergenceError), (316, DomainError)):
            with pytest.raises(error):
                eval_log_qexp(Fraction(9, 10), 9.5, max_terms=max_terms)

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
        """The reference outcomes of E_q(z) and ln E_q(z); a log outside its
        series disk is _log_via_qexp over the reference E_q. A given
        ``qexp_outcome`` stands in for the reference E_q outcome."""
        if qexp_outcome is None:
            qexp_outcome = _outcome(_reference_eval_qexp, q, z, tol, max_terms)
        if as_qparam(q).value > 1 and abs(z) >= q / (q - 1):
            with monkeypatch.context() as patch:
                patch.setattr(qexp_module, "eval_qexp", _reference_eval_qexp)
                return qexp_outcome, _outcome(qexp_module._log_via_qexp, as_qparam(q), z,
                                              tol, max_terms)
        return qexp_outcome, _outcome(_reference_eval_log_qexp, q, z, tol, max_terms)

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
    def test_byte_identical(self, q, monkeypatch):
        raised = 0
        for z in self.points(q):
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
    def test_exact_ties(self, q, z, k, monkeypatch):
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
        # subnormal, not as 0.0, which would claim an exact value
        for which, args in ((1, (Fraction(1, 2), Fraction(1, 10 ** 170), 1e-12, 1000)),
                            (0, (Fraction(1, 2), Fraction(1, 10 ** 200), 1e-300, 1000))):
            expected = self.expected(*args, monkeypatch)
            assert expected[which][0].tail_bound == math.ulp(0.0)
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
        got = [self.outcomes(route, args) for route in ("as_is", "exact")]
        first = got[0][0][0]
        terms = first.order if isinstance(first, Evaluation) else max_terms
        # past the budget E_q's expected outcome is the exact route's, which
        # test_byte_identical holds equal to the reference
        stand_in = got[1][0] if self.height(q, z, terms) > self.HEIGHT_BUDGET else None
        with pytest.MonkeyPatch.context() as patch:
            expected = self.expected(*args, patch, stand_in)
        assert got == [expected, expected], args


class TestFloatPathMatchesReference:
    """The binary64 branches take [k]_q and c_k as int / int quotients of
    the integer sweep; they give the same outcomes, float for float, as
    loops that convert each reduced Fraction with float()."""

    @staticmethod
    def expected(q, z, tol, max_terms):
        """The reference outcomes of E_q(z) and ln E_q(z); a log outside its
        series disk is _log_via_qexp over the reference E_q."""
        qp = as_qparam(q)
        qexp_outcome = _outcome(_reference_float_eval_qexp, qp, z, tol, max_terms)
        if qp.value > 1 and abs(z) * (qp.value - 1) / qp.value >= 1:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(qexp_module, "eval_qexp", _reference_float_eval_qexp)
                return qexp_outcome, _outcome(qexp_module._log_via_qexp, qp, z, tol, max_terms)
        return qexp_outcome, _outcome(_reference_float_eval_log_qexp, qp, z, tol, max_terms)

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


class TestMpmathOracle:
    """E_q(z) = 1/((1-q)z; q)_inf for q < 1 and ((1/q - 1)z; 1/q)_inf for
    q > 1, summed by mpmath at 40 digits."""

    POINTS = ((Fraction(1, 2), Fraction(19, 10)), (Fraction(4, 5), Fraction(-9, 2)),
              (Fraction(2), Fraction(3)), (Fraction(3, 2), Fraction(-7, 4)),
              # long chains: 4098 terms of E_q and 1993 of the log
              (Fraction(9, 10), Fraction(99, 10)), (Fraction(9, 10), Fraction(-99, 10)))

    @pytest.mark.parametrize("q, z", POINTS)
    def test_against_product_formula(self, q, z):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            mq, mz = mpmath.mpf(q.numerator) / q.denominator, mpmath.mpf(z.numerator) / z.denominator
            if q < 1:
                ref = 1 / mpmath.qp((1 - mq) * mz, mq)
            else:
                ref = mpmath.qp(-(1 - 1 / mq) * mz, 1 / mq)
            out = eval_qexp(q, z, tol=1e-10, max_terms=5000)
            assert abs(out.value - ref) <= out.tail_bound + math.ulp(out.value)
            if ref > 0:
                log_out = eval_log_qexp(q, z, tol=1e-10, max_terms=5000)
                assert abs(log_out.value - mpmath.log(ref)) <= (log_out.tail_bound
                                                              + math.ulp(log_out.value))
