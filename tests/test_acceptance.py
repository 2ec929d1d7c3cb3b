"""Acceptance suite: the binding exactness and tolerance requirements.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Every identity criterion demands literal equality of
rationals; the evaluation criteria state their tolerances inline.
"""

import contextlib
import math
import random
import time
from fractions import Fraction

from qexpseries import (DomainError, QFactorialTable, TruncatedSeries,
                        check_coeff_double_order, check_coeff_multiple_order,
                        check_coeff_power_scale, check_coeff_sign_flip,
                        check_qbinomial_sum, check_reciprocal_product,
                        check_reflection_product, check_root_of_unity_product,
                        check_scaling_product, eval_qexp, log_coeffs_closed,
                        log_coeffs_recursive, q_binomial, q_binomial_pascal,
                        qexp_series)

from oracles import add

GRID = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
        Fraction(3, 2), Fraction(2), Fraction(5, 2))

SEED = 20260811


@contextlib.contextmanager
def criterion(description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {description}")
        raise
    print(f"[PASS] {description}")


def random_fraction(rng, max_num=3, max_den=6):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def test_log_coefficients_closed_form_equals_recursion():
    started = time.perf_counter()
    with criterion("closed form equals recursion exactly, k = 1..64, full q grid"):
        for q in GRID:
            closed = log_coeffs_closed(64, q)
            recursive = log_coeffs_recursive(64, q)
            for k in range(1, 65):
                assert closed.coeff(k) - recursive.coeff(k) == 0, (q, k)
    print(f"       elapsed: {time.perf_counter() - started:.2f}s")


def test_exp_of_log_coefficients_reconstructs_series():
    with criterion("exp of the closed-form log vector reproduces 1/[k]_q!, k <= 32, full q grid"):
        for q in GRID:
            rebuilt = log_coeffs_closed(32, q).as_series().exp()
            assert rebuilt == qexp_series(q, 32).series, q


def test_qbinomial_sum_identity_and_pascal_agreement():
    with criterion("q-binomial sum identity exact for k = 2..40; Pascal recursion "
                   "agrees with the factorial quotient for k <= 30, all j"):
        for q in GRID:
            report = check_qbinomial_sum(q, 40)
            assert report.passed and report.residuals == (), q
            table = QFactorialTable(q, 30)
            for k in range(31):
                for j in range(k + 1):
                    assert q_binomial_pascal(k, j, q) == table.binomial(k, j), (q, k, j)
            assert q_binomial(5, 2, q) == q_binomial_pascal(5, 2, q)


def test_functional_identities():
    with criterion("inverse-pair and reflection products exact at order 32; "
                   "scaling product exact for n = 2..5; root-of-unity product "
                   "exact with zero residual at order 24 for n = 2..6, and its "
                   "coefficient counterpart at zero residual"):
        for q in GRID:
            assert check_reciprocal_product(q, 32).passed, q
            assert check_reflection_product(q, 32).passed, q
            for n in (2, 3, 4, 5):
                assert check_scaling_product(q, n, 32).passed, (q, n)
            for n in (2, 3, 4, 5, 6):
                product = check_root_of_unity_product(q, n, 24)
                assert product.passed and product.residuals == (), (q, n, product.residuals)
                exact = check_coeff_multiple_order(q, n, 64)
                assert exact.passed and exact.residuals == (), (q, n)


def test_coefficient_identities():
    with criterion("coefficient identities (sign flip, double order, power scale) "
                   "exact with zero residual, k <= 64, n = 2..5, full q grid"):
        for q in GRID:
            assert check_coeff_sign_flip(q, 64).residuals == (), q
            assert check_coeff_double_order(q, 64).residuals == (), q
            for n in (2, 3, 4, 5):
                assert check_coeff_power_scale(q, n, 64).residuals == (), (q, n)


def test_evaluation_guards():
    with criterion("evaluation guards: radius rejection at q = 1/2, e at q = 1 "
                   "to 1e-12, brute-force agreement at q = 2 to 1e-13"):
        for z in (2, Fraction(2), 2.5, 3, -2):
            try:
                eval_qexp(Fraction(1, 2), z)
            except DomainError as err:
                assert "2" in str(err)
            else:
                raise AssertionError(f"z = {z} must be rejected at q = 1/2")

        assert abs(eval_qexp(Fraction(1), 1, tol=1e-12).value - math.e) <= 1e-12

        oracle, factorial = Fraction(0), 1
        for k in range(80):
            if k:
                factorial *= 2 ** k - 1   # [k]_2! as a plain integer product
            oracle += Fraction(1, factorial)
        out = eval_qexp(Fraction(2), 1, tol=1e-14)
        assert abs(out.value - float(oracle)) <= 1e-13


def test_log_exp_round_trip_property():
    rng = random.Random(SEED)
    with criterion("log(exp(h)) = h exactly on 200 random rational series of order <= 32"):
        for _ in range(200):
            order = rng.randint(1, 32)
            h = TruncatedSeries([Fraction(0)]
                                + [random_fraction(rng) for _ in range(order)])
            assert h.exp().log() == h


def test_exp_homomorphism_property():
    rng = random.Random(SEED + 1)
    with criterion("exp(h1 + h2) = exp(h1) * exp(h2) exactly on 100 random pairs"):
        for _ in range(100):
            order = rng.randint(1, 32)
            h1 = TruncatedSeries([Fraction(0)]
                                 + [random_fraction(rng) for _ in range(order)])
            h2 = TruncatedSeries([Fraction(0)]
                                 + [random_fraction(rng) for _ in range(order)])
            assert add(h1, h2).exp() == h1.exp() * h2.exp()
