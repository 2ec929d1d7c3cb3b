"""Tests for the identity checks and the verification suite."""

import json
import math
import operator
import random
import sys
from fractions import Fraction
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpseries import (DomainError, QFactorialTable,
                        SuiteConfig, TruncatedSeries, as_qparam, check_coeff_double_order,
                        check_coeff_multiple_order, check_coeff_power_scale,
                        check_coeff_sign_flip, check_qbinomial_sum,
                        check_reciprocal_product, check_reflection_product,
                        check_root_of_unity_product, check_scaling_product,
                        log_coeffs_closed, q_binomial, q_number, qexp_series,
                        reports_to_json, run_suite)
from qexpseries import identities
from qexpseries import qexp as qexp_module
from qexpseries.identities import (DEFAULT_QS, QBINOMIAL_SUM, RECIPROCAL_PRODUCT,
                                   REFLECTION_PRODUCT, SCALING_PRODUCT, _WORST,
                                   _exact_report)

from oracles import add, one

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
    reduced Fraction per step, apart from the Leibniz product that the check
    takes."""
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
        # and so has n k_max, the reach of the stepped closed-form sweep
        for call in (lambda: check_root_of_unity_product(Fraction(1, 2), 2, HUGE),
                     lambda: check_coeff_multiple_order(Fraction(1, 2), 2, HUGE),
                     lambda: check_coeff_double_order(Fraction(1, 2), sys.maxsize),
                     lambda: check_coeff_multiple_order(Fraction(1, 2), 3, sys.maxsize // 2)):
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
        pairs = identities._log_coeff_pairs
        monkeypatch.setattr(identities, "_log_coeff_pairs",
                            lambda qp: ((2 * num, den) for num, den in pairs(qp)))
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


def _factorials(q, order):
    """[k]_q! for k = 0..order, as running products of q_number."""
    return list(accumulate((q_number(j, q) for j in range(1, order + 1)), operator.mul,
                           initial=Fraction(1)))


def _power_series(qp, n, numerators, factorials):
    """The series of a divided-power operand of identities._leibniz:
    coefficient k is x_k / [k]_Q!, Q = q^n, x_k = X_k / b^(n k(k-1)/2 + (n-1) k)."""
    b = qp.value.denominator
    return TruncatedSeries(Fraction(x, b ** (n * k * (k - 1) // 2 + (n - 1) * k)) / factorials[k]
                           for k, x in enumerate(numerators))


class TestDividedProduct:
    """The Leibniz product of an arbitrary divided-power operand, of
    either sign, with E_Q(q^m z), taken back to power-series coefficients,
    equals the TruncatedSeries product of the two series, for every
    0 <= m <= n - 1."""

    @staticmethod
    def assert_matches(q, n, m, numerators):
        qp = as_qparam(q)
        product = identities._leibniz(qp, n, numerators, m)
        beta = qp.value ** m
        factorials = _factorials(q ** n, len(numerators) - 1)
        factor = TruncatedSeries(beta ** k / factorial for k, factorial in enumerate(factorials))
        expected = _power_series(qp, n, numerators, factorials) * factor
        assert _power_series(qp, n, product, factorials) == expected
        pairs = identities._coefficients(qp, n, qp.value.denominator ** (n - 1), product)
        assert tuple(Fraction(*pair) for pair in pairs) == expected.coeffs

    @pytest.mark.parametrize("q", GRID + (Fraction(1), Fraction(5, 7)))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("order", [0, 1, 32])
    def test_matches_series_product(self, q, n, order):
        rng = random.Random(f"{q} {n} {order}")
        for m in range(n):
            for _ in range(2):
                numerators = [rng.randint(-9, 9) for _ in range(order + 1)]
                self.assert_matches(q, n, m, numerators)

    @settings(max_examples=20, deadline=None)
    @given(qvalues, st.integers(1, 5), st.integers(0, 12), st.data())
    def test_matches_series_product_drawn(self, q, n, order, data):
        m = data.draw(st.integers(0, n - 1))
        numerators = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=order + 1,
                                        max_size=order + 1))
        self.assert_matches(q, n, m, numerators)


class TestProductChecksFail:
    """Each product check and qbinomial_sum fails under a perturbed input,
    with the residuals, values and order alike, that the TruncatedSeries
    product or a Fraction sum gives on the same input. A passing report
    carries no residuals, so only a failing one shows which residuals a
    check computes."""

    ORDER = 12

    @staticmethod
    def failed(report):
        assert not report.passed
        return report.residuals

    @pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(1), Fraction(5, 2)])
    def test_reciprocal(self, monkeypatch, q):
        # X_3 of E_{1/q}(-z), the kernel's operand, off by one: its
        # coefficient 3 gains 1 / (b^3 [3]_q!)
        kernel = identities._leibniz

        def perturbed(qp, n, f, *m):
            return kernel(qp, n, [x + (k == 3) for k, x in enumerate(f)], *m)

        monkeypatch.setattr(identities, "_leibniz", perturbed)
        order, qp = self.ORDER, as_qparam(q)
        delta = Fraction(1, q.denominator ** 3) / _factorials(q, 3)[3]
        second = add(qexp_series(1 / q, order).series.scale_substitute(-1),
                     TruncatedSeries([0, 0, 0, delta] + [0] * (order - 3)))
        lhs = qexp_series(q, order).series * second
        expected = _exact_report(RECIPROCAL_PRODUCT, qp, {"order": order},
                                 enumerate(lhs.compare(one(order))))
        assert self.failed(check_reciprocal_product(q, order)) == expected.residuals

    @pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(1), Fraction(5, 2)])
    def test_reflection(self, monkeypatch, q):
        # E_{q^2}(s t)'s coefficient j off by (j + 1)/7, t = z^2
        scaled = identities._scaled_qexp

        def perturbed(*args):
            for j, (num, den) in enumerate(scaled(*args)):
                yield 7 * num + (j + 1) * den, 7 * den

        monkeypatch.setattr(identities, "_scaled_qexp", perturbed)
        order, qp = self.ORDER, as_qparam(q)
        square = qexp_series(q ** 2, order).series.scale_substitute((1 - q) / (1 + q))
        bent = TruncatedSeries(c + Fraction(j + 1, 7) for j, c in enumerate(square.coeffs))
        base = qexp_series(q, order).series
        lhs = base * base.scale_substitute(-1)
        rhs = bent.scale_substitute(1, 2)
        expected = _exact_report(REFLECTION_PRODUCT, qp, {"order": order},
                                 enumerate(lhs.compare(rhs)))
        assert self.failed(check_reflection_product(q, order)) == expected.residuals

    @pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(1), Fraction(5, 2)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_scaling(self, monkeypatch, q, n):
        # [n]_q off by 1/7 on the left side, the only one that reads it
        true_pair = identities._q_number_pair

        def perturbed(*args):
            num, den = true_pair(*args)
            return 7 * num + den, 7 * den

        monkeypatch.setattr(identities, "_q_number_pair", perturbed)
        order, qp = self.ORDER, as_qparam(q)
        lhs = qexp_series(q, order).series.scale_substitute(q_number(n, q) + Fraction(1, 7))
        base = qexp_series(q ** n, order).series
        rhs = math.prod((base.scale_substitute(q ** m) for m in range(1, n)), start=base)
        expected = _exact_report(SCALING_PRODUCT, qp, {"n": n, "order": order},
                                 enumerate(lhs.compare(rhs)))
        assert self.failed(check_scaling_product(q, n, order)) == expected.residuals

    @pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(5, 2)])
    @pytest.mark.parametrize("k_max", [6, 16])
    def test_qbinomial_sum(self, monkeypatch, q, k_max):
        # S_1 off by one, so [1]_q = 2 in every [j-1]_q!, j >= 2: rows 2..k_max fail
        sweep = identities.q_number_numerators

        def perturbed(q_):
            for k, number in enumerate(sweep(q_), 1):
                yield number + (k == 1)

        monkeypatch.setattr(identities, "q_number_numerators", perturbed)
        qp, b = as_qparam(q), q.denominator
        numbers = [Fraction(s, b ** i) for i, s in enumerate(islice(perturbed(q), k_max))]
        residuals = []
        for k in range(2, k_max + 1):
            total = sum(q_binomial(k, j, q) * (1 - q) ** (j - 1)
                        * math.prod(numbers[:j - 1], start=Fraction(1)) for j in range(1, k + 1))
            residuals.append((k, total - k))
        expected = _exact_report(QBINOMIAL_SUM, qp, {"k_min": 2, "k_max": k_max}, residuals)
        assert self.failed(check_qbinomial_sum(q, k_max)) == expected.residuals


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


class TestCoefficientChecksFailParity:
    """Under a closed form off by a drawn d/e at every k, each coefficient
    check and the root-of-unity product report the residuals, values and
    order alike, that reduced Fractions give: LogCoeffVector values, and
    TruncatedSeries.compare for the root-of-unity product. More than _WORST
    residuals fail, so the sort by size and the cut to _WORST both count."""

    K_MAX = 24
    ORDER = 36
    SEED = 7

    @pytest.fixture(autouse=True)
    def perturbed(self, monkeypatch):
        pairs = qexp_module._log_coeff_pairs

        def perturbed(qp):
            # one draw per q, so both sides see the same c_k(q)
            rng = random.Random(f"{self.SEED}:{qp.value}")
            for num, den in pairs(qp):
                d, e = rng.choice((1, -1, 2, -3)), rng.randint(1, 5)
                yield num * e + d * den, den * e

        monkeypatch.setattr(qexp_module, "_log_coeff_pairs", perturbed)
        monkeypatch.setattr(identities, "_log_coeff_pairs", perturbed)

    @staticmethod
    def assert_parity(report, residuals):
        assert sum(r != 0 for _, r in residuals) > _WORST
        assert report == _exact_report(report.identity, report.q, report.params, residuals)

    @staticmethod
    def closed(order, q):
        return log_coeffs_closed(order, q).values

    def multiple_order(self, q, n):
        c, c_qn = self.closed(n * self.K_MAX, q), self.closed(self.K_MAX, q ** n)
        factor = (1 - q) ** (n - 1) / q_number(n, q)
        return [(k, n * c[n * k] - factor ** k * c_qn[k]) for k in range(1, self.K_MAX + 1)]

    @pytest.mark.parametrize("q", GRID + (Fraction(1),))
    def test_sign_flip(self, q):
        c, c_inv = self.closed(self.K_MAX, q), self.closed(self.K_MAX, 1 / q)
        residuals = [(k, c_inv[k] - (-1) ** (k - 1) * c[k]) for k in range(1, self.K_MAX + 1)]
        self.assert_parity(check_coeff_sign_flip(q, self.K_MAX), residuals)

    @pytest.mark.parametrize("q", GRID + (Fraction(1),))
    def test_double_order(self, q):
        self.assert_parity(check_coeff_double_order(q, self.K_MAX), self.multiple_order(q, 2))

    @pytest.mark.parametrize("q", GRID + (Fraction(1),))
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_multiple_order(self, q, n):
        self.assert_parity(check_coeff_multiple_order(q, n, self.K_MAX),
                           self.multiple_order(q, n))

    @pytest.mark.parametrize("q", GRID + (Fraction(1),))
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_power_scale(self, q, n):
        c, c_qn = self.closed(self.K_MAX, q), self.closed(self.K_MAX, q ** n)
        residuals = [(k, q_number(n, q ** k) * c_qn[k] - q_number(n, q) ** k * c[k])
                     for k in range(1, self.K_MAX + 1)]
        self.assert_parity(check_coeff_power_scale(q, n, self.K_MAX), residuals)

    @pytest.mark.parametrize("q", GRID + (Fraction(1),))
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_root_of_unity(self, q, n):
        c = self.closed(self.ORDER, q)
        lhs = TruncatedSeries([n * c_k for c_k in c[::n]]).exp()
        scale = (1 - q) ** (n - 1) / q_number(n, q)
        rhs = qexp_series(q ** n, self.ORDER // n).series.scale_substitute(scale)
        residuals = [(n * j, r) for j, r in enumerate(lhs.compare(rhs))]
        self.assert_parity(check_root_of_unity_product(q, n, self.ORDER), residuals)


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

    def test_product_checks_pass_at_order_64(self):
        # the four Leibniz-product checks at order = k_max = 64, which the
        # default suite runs only for qbinomial_sum
        config = SuiteConfig(order=64, k_max=64, checks=(
            QBINOMIAL_SUM, RECIPROCAL_PRODUCT, REFLECTION_PRODUCT, SCALING_PRODUCT))
        reports = run_suite(config)
        assert len(reports) == 6 * (3 + 4) and all(r.passed for r in reports)

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
