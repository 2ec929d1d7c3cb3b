"""Tests for the identity checks and the verification suite."""

import cmath
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpseries import (DomainError, QFactorialTable, SuiteConfig, as_qparam, check_coeff_double_order,
                        check_coeff_multiple_order, check_coeff_power_scale,
                        check_coeff_sign_flip, check_qbinomial_sum,
                        check_reciprocal_product, check_reflection_product,
                        check_root_of_unity_product, check_scaling_product,
                        log_coeffs_closed, qexp_series, reports_to_json,
                        run_suite)
from qexpseries.identities import DEFAULT_QS, _complex_product, _exact_report, _substituted

qvalues = st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=8)

GRID = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
        Fraction(3, 2), Fraction(2), Fraction(5, 2))

#: A count past every sweep's index range.
HUGE = 2 ** 80


def closed(k, q):
    """c_k(q) from the closed-form vector."""
    return log_coeffs_closed(k, q).coeff(k)


def _reference_qbinomial_sum(q, k_max):
    """The qbinomial_sum residuals through factorial-quotient binomials, one
    reduced Fraction per step, as the check computed them before it summed
    falling products with the series kernel."""
    table = QFactorialTable(q, k_max)
    one_minus = 1 - as_qparam(q).value
    residuals = []
    for k in range(2, k_max + 1):
        acc = Fraction(0)
        shift = Fraction(1)   # (1-q)^(j-1)
        for j in range(1, k + 1):
            acc += table.binomial(k, j) * shift * table.factorial(j - 1)
            shift *= one_minus
        residuals.append((k, acc - k))
    return residuals


class TestQBinomialSum:
    def test_two_term_hand_case(self):
        # k = 2: [2 ch 1]_q + [2 ch 2]_q (1-q) = (1+q) + (1-q) = 2
        q = Fraction(1, 2)
        assert (1 + q) + (1 - q) == 2
        report = check_qbinomial_sum(q, 2)
        assert report.passed

    def test_sweep(self):
        report = check_qbinomial_sum(Fraction(2, 3), 40)
        assert report.passed
        assert report.residuals == ()
        assert report.mode == "exact"

    def test_matches_factorial_quotient_loop(self):
        for q in DEFAULT_QS:
            qp = as_qparam(q)
            for k_max in range(2, 41):
                residuals = _reference_qbinomial_sum(qp, k_max)
                assert residuals == [(k, 0) for k in range(2, k_max + 1)]
                expected = _exact_report("qbinomial_sum", qp, {"k_min": 2, "k_max": k_max},
                                         residuals)
                assert check_qbinomial_sum(q, k_max) == expected

    def test_classical_point(self):
        # at q = 1 only the j = 1 term survives the (1-q)^(j-1) factor
        assert check_qbinomial_sum(Fraction(1), 25).passed

    def test_k_max_validation(self):
        for k_max in (1, 2.5, True, HUGE):
            with pytest.raises(DomainError):
                check_qbinomial_sum(Fraction(1, 2), k_max)


class TestReciprocalProduct:
    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(3)])
    def test_passes(self, q):
        report = check_reciprocal_product(q, 16)
        assert report.passed and report.residuals == ()

    def test_lhs_is_literally_one(self):
        order = 12
        q = Fraction(1, 2)
        lhs = (qexp_series(q, order).series
               * qexp_series(Fraction(2), order).series.scale_substitute(-1))
        assert lhs.coeffs == (1,) + (0,) * order

    def test_classical_point_degenerates_but_holds(self):
        report = check_reciprocal_product(Fraction(1), 8)
        assert report.passed
        assert "exp(z) exp(-z)" in report.note


class TestReflectionProduct:
    @pytest.mark.parametrize("q", GRID + (Fraction(1),))
    def test_passes(self, q):
        assert check_reflection_product(q, 16).passed

    @settings(max_examples=20, deadline=None)
    @given(qvalues)
    def test_odd_coefficients_of_product_vanish(self, q):
        order = 9
        base = qexp_series(q, order).series
        product = base * base.scale_substitute(-1)
        assert all(product.coeffs[k] == 0 for k in range(1, order + 1, 2))


class TestScalingProduct:
    def test_classical_doubling(self):
        # e^(2z) = e^z e^z
        assert check_scaling_product(Fraction(1), 2, 12).passed

    @pytest.mark.parametrize("q,n", [(Fraction(1, 2), 2), (Fraction(2, 3), 3),
                                     (Fraction(5, 2), 4)])
    def test_passes(self, q, n):
        assert check_scaling_product(q, n, 12).passed

    def test_n_validation(self):
        for n in (1, 2.5, True, HUGE):
            with pytest.raises(DomainError):
                check_scaling_product(Fraction(1, 2), n, 12)
        # every count that indexes a sweep has the same upper limit
        for call in (lambda: check_root_of_unity_product(Fraction(1, 2), 2, HUGE),
                     lambda: check_coeff_multiple_order(Fraction(1, 2), 2, HUGE)):
            with pytest.raises(DomainError, match="must be at most"):
                call()


class TestRootOfUnityProduct:
    def test_passes(self):
        # every residual, at k % n != 0 too (where the product must vanish),
        # is within the fixed bound
        report = check_root_of_unity_product(Fraction(1, 2), 3, 12)
        assert report.passed
        assert report.mode == "numeric"
        assert report.tol == 1e-12

    def test_two_factor_case_matches_reflection_sides(self):
        # at n = 2 the root of unity is -1, so the product is E_q(z) E_q(-z)
        q, order = Fraction(2, 3), 10
        base = qexp_series(q, order).series
        exact_lhs = base * base.scale_substitute(-1)
        numeric_lhs = _complex_product(_substituted(base.coeffs, 1, order),
                                       _substituted(base.coeffs, cmath.rect(1.0, math.pi), order))
        assert all(abs(x - float(y)) <= 1e-12 for x, y in zip(numeric_lhs, exact_lhs.coeffs))

    @pytest.mark.parametrize("q", GRID)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_exact_counterpart(self, q, n):
        numeric = check_root_of_unity_product(q, n, 12)
        exact = check_coeff_multiple_order(q, n, 16)
        assert numeric.passed == exact.passed


class TestCoefficientIdentities:
    @pytest.mark.parametrize("q", GRID + (Fraction(1),))
    def test_sign_flip(self, q):
        assert check_coeff_sign_flip(q, 48).passed

    def test_sign_flip_even_orders_change_sign(self):
        q = Fraction(1, 2)
        for k in (2, 4, 6):
            assert closed(k, Fraction(2)) == -closed(k, q)

    def test_double_order_hand_case(self):
        # 2 c_2(1/2) = 1/3 and ((1-q)/(1+q)) c_1(1/4) = 1/3
        assert 2 * closed(2, Fraction(1, 2)) == Fraction(1, 3)
        assert Fraction(1, 3) * closed(1, Fraction(1, 4)) == Fraction(1, 3)
        assert check_coeff_double_order(Fraction(1, 2), 8).passed

    @pytest.mark.parametrize("q", GRID + (Fraction(1),))
    def test_double_order(self, q):
        assert check_coeff_double_order(q, 32).passed

    @pytest.mark.parametrize("q", GRID + (Fraction(1),))
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_power_scale(self, q, n):
        assert check_coeff_power_scale(q, n, 32).passed

    @pytest.mark.parametrize("q", GRID + (Fraction(1),))
    @pytest.mark.parametrize("n", [2, 3])
    def test_multiple_order(self, q, n):
        assert check_coeff_multiple_order(q, n, 20).passed

    def test_multiple_order_reduces_to_double_order_at_n2_k1(self):
        q = Fraction(3, 2)
        lhs = 2 * closed(2, q)
        rhs = (1 - q) / (1 + q) * closed(1, q ** 2)
        assert lhs == rhs


class TestReports:
    def test_json_schema(self):
        report = check_qbinomial_sum(Fraction(1, 2), 6)
        payload = report.to_json()
        assert payload["identity"] == "qbinomial_sum"
        assert payload["q"] == "1/2"
        assert payload["mode"] == "exact"
        assert payload["passed"] is True
        assert payload["params"] == {"k_min": 2, "k_max": 6}
        assert payload["worst_residuals"] == []
        assert "tol" not in payload

    def test_numeric_report_keeps_context_residuals(self):
        report = check_root_of_unity_product(Fraction(1, 2), 2, 8)
        assert report.passed
        assert len(report.residuals) <= 5
        payload = report.to_json()
        assert payload["tol"] == 1e-12
        assert all(isinstance(r, float) for _, r in payload["worst_residuals"])

    def test_exact_pass_has_no_residuals(self):
        assert check_coeff_sign_flip(Fraction(1, 2), 10).residuals == ()


class TestSuite:
    CONFIG = SuiteConfig(qs=(Fraction(1, 2), Fraction(2)), ns=(2, 3),
                         order=10, k_max=12)

    def test_all_pass(self):
        reports = run_suite(self.CONFIG)
        assert reports and all(r.passed for r in reports)

    def test_deterministic_bytes(self):
        first = reports_to_json(run_suite(self.CONFIG))
        second = reports_to_json(run_suite(self.CONFIG))
        assert first == second
        json.loads(first)   # valid JSON

    def test_sorted_by_identity_then_q(self):
        reports = run_suite(self.CONFIG)
        keys = [(r.identity, r.q.value, r.params.get("n", 0)) for r in reports]
        assert keys == sorted(keys)

    def test_unknown_check_rejected(self):
        with pytest.raises(DomainError):
            run_suite(SuiteConfig(checks=("no_such_identity",)))

    def test_float_q_rejected(self):
        for config, match in (
                # Fraction(0.1) would silently run q = 3602879701896397/36028797018963968
                (SuiteConfig(qs=(0.1,), checks=("coeff_sign_flip",), k_max=4), "exact"),
                # each n is checked before the set of them is sorted
                (SuiteConfig(ns=("a", 2), checks=("coeff_power_scale",), k_max=4),
                 "n must be an integer"),
                (SuiteConfig(ns=(HUGE,), checks=("scaling_product",), order=4),
                 "n must be at most"),
                # a lone value or a string is not a grid, though a string iterates
                (SuiteConfig(ns=2), "^ns must be a sequence"),
                (SuiteConfig(qs=Fraction(1, 2)), "^qs must be a sequence"),
                (SuiteConfig(qs="1/2"), "^qs must be a sequence"),
                (SuiteConfig(checks=None), "^checks must be a sequence"),
                (SuiteConfig(checks="coeff_sign_flip"), "^checks must be a sequence")):
            with pytest.raises(DomainError, match=match):
                run_suite(config)

    def test_duplicate_qs_deduplicated(self):
        config = SuiteConfig(qs=(Fraction(1, 2), Fraction(1, 2), Fraction(2), 2),
                             ns=(2, 2), checks=("coeff_sign_flip", "coeff_power_scale"),
                             k_max=4)
        keys = [(r.identity, str(r.q), r.params.get("n")) for r in run_suite(config)]
        assert keys == [("coeff_power_scale", "1/2", 2), ("coeff_power_scale", "2", 2),
                        ("coeff_sign_flip", "1/2", None), ("coeff_sign_flip", "2", None)]

    def test_single_check_selection(self):
        reports = run_suite(SuiteConfig(qs=(Fraction(1, 2),), checks=("qbinomial_sum",),
                                        k_max=10))
        assert len(reports) == 1
        assert reports[0].identity == "qbinomial_sum"
