"""Tests for the identity checks and the verification suite."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpseries import (DomainError, LogCoeffVector, QFactorialTable, SuiteConfig,
                        as_qparam, check_coeff_double_order,
                        check_coeff_multiple_order, check_coeff_power_scale,
                        check_coeff_sign_flip, check_qbinomial_sum,
                        check_reciprocal_product, check_reflection_product,
                        check_root_of_unity_product, check_scaling_product,
                        log_coeffs_closed, q_number, qexp_series, reports_to_json,
                        run_suite)
from qexpseries import identities
from qexpseries import qexp as qexp_module
from qexpseries.identities import DEFAULT_QS, _exact_report

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
        # a count past CPython's 4300-digit cap on int -> str is named by size
        with pytest.raises(DomainError, match="got a negative integer of 16610 bits"):
            check_root_of_unity_product(Fraction(1, 2), -10 ** 5000)
        # every count that indexes a sweep has the same upper limit
        for call in (lambda: check_root_of_unity_product(Fraction(1, 2), 2, HUGE),
                     lambda: check_coeff_multiple_order(Fraction(1, 2), 2, HUGE)):
            with pytest.raises(DomainError, match="must be at most"):
                call()


class TestRootOfUnityProduct:
    def test_passes(self):
        # the coefficients at k % n != 0 vanish by the filter identity, so
        # the residuals are those at k = 0, n, 2n, .., and all are zero
        report = check_root_of_unity_product(Fraction(1, 2), 3, 12)
        assert report.passed
        assert report.mode == "exact"
        assert report.residuals == ()
        assert "tol" not in report.to_json()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_fails_on_a_doubled_closed_form(self, monkeypatch, n):
        # the right side is E_{q^n}'s defining series, not the closed form,
        # so a closed form off by a constant factor cannot pass
        closed_form = identities.log_coeffs_closed

        def doubled(order, q):
            vec = closed_form(order, q)
            return LogCoeffVector(vec.q, tuple(2 * c for c in vec.values))

        monkeypatch.setattr(identities, "log_coeffs_closed", doubled)
        report = check_root_of_unity_product(Fraction(1, 2), n, 12)
        assert not report.passed
        residuals = dict(report.residuals)
        assert isinstance(residuals[n], Fraction) and residuals[n] != 0

    @pytest.mark.parametrize("q", GRID)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_literal_product(self, q, n):
        # prod_m E_q(w^m z) multiplied out at 50 digits with the true roots
        # of unity, from the exact coefficients of E_q, against the exact
        # right side: the coefficients at k % n != 0 vanish
        mpmath = pytest.importorskip("mpmath")
        order = 24
        scale = (1 - q) ** (n - 1) / q_number(n, q)
        rhs = qexp_series(q ** n, order // n).series.scale_substitute(scale).coeffs
        with mpmath.workdps(50):
            coeffs = [mpmath.mpf(c.numerator) / c.denominator
                      for c in qexp_series(q, order).series.coeffs]
            product = [mpmath.mpc(1)] + [mpmath.mpc(0)] * order
            for w in mpmath.unitroots(n):
                factor = [c * w ** k for k, c in enumerate(coeffs)]
                product = [mpmath.fsum(product[i] * factor[k - i] for i in range(k + 1))
                           for k in range(order + 1)]
            for k, value in enumerate(product):
                expected = rhs[k // n] if k % n == 0 else Fraction(0)
                assert abs(value - mpmath.mpf(expected.numerator) / expected.denominator) <= 1e-40, k
        assert check_root_of_unity_product(q, n, order).passed

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


class TestCoefficientChecksFail:
    """Each coefficient check fails under a closed form whose c_2 is off by
    one, at the first k and with the exact residuals that follow from the
    identity. A passing report carries no residuals, so only a failing one
    shows which residuals a check computes."""

    @pytest.fixture(autouse=True)
    def c2_off_by_one(self, monkeypatch):
        pairs = qexp_module._log_coeff_pairs

        def perturbed(qp):
            for k, (num, den) in enumerate(pairs(qp), 1):
                yield (num + den, den) if k == 2 else (num, den)

        # identities imports the sweep by name for its stepped reads
        monkeypatch.setattr(qexp_module, "_log_coeff_pairs", perturbed)
        monkeypatch.setattr(identities, "_log_coeff_pairs", perturbed)

    @staticmethod
    def failed(report):
        assert not report.passed
        return report.residuals

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(5, 2)])
    def test_sign_flip(self, q):
        # c_2(1/q) + 1 + (c_2(q) + 1) = 2
        assert self.failed(check_coeff_sign_flip(q, 8)) == ((2, 2),)

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(5, 2)])
    def test_double_order(self, q):
        # k = 1: 2 (c_2(q) + 1) - r c_1(q^2) = 2;
        # k = 2: 2 c_4(q) - r^2 (c_2(q^2) + 1) = -r^2, for r = (1-q)/(1+q)
        r = (1 - q) / (1 + q)
        assert self.failed(check_coeff_double_order(q, 8)) == ((1, 2), (2, -r ** 2))

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(5, 2)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_power_scale(self, q, n):
        # k = 2: [n]_{q^2} (c_2(q^n) + 1) - ([n]_q)^2 (c_2(q) + 1)
        #      = [n]_{q^2} - ([n]_q)^2
        q_n_at_q2 = sum(q ** (2 * i) for i in range(n))
        q_n = sum(q ** i for i in range(n))
        assert self.failed(check_coeff_power_scale(q, n, 8)) == ((2, q_n_at_q2 - q_n ** 2),)

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(5, 2)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_multiple_order(self, q, n):
        # k = 1 reads c_n, which is c_2 only at n = 2: 2 (c_2(q) + 1) - f c_1(q^2);
        # k = 2: n c_{2n}(q) - f^2 (c_2(q^n) + 1) = -f^2, for f = (1-q)^(n-1)/[n]_q
        f = (1 - q) ** (n - 1) / sum(q ** i for i in range(n))
        expected = ((1, 2), (2, -f ** 2)) if n == 2 else ((2, -f ** 2),)
        assert self.failed(check_coeff_multiple_order(q, n, 8)) == expected


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
