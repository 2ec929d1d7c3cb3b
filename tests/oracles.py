"""Series arithmetic and an argument gate that only the tests use.

The package's :class:`~qexpseries.TruncatedSeries` keeps construction,
equality, the product, log and exp. The constants and the coefficientwise
sum and difference that the test oracles build on live here, apart from
the code under test, as does :func:`reference_arguments`, the evaluators'
argument gate through the package's validators and Fraction arithmetic,
:func:`reference_product`, E_q's product route in Fractions, and
:func:`reference_float_log`, the binary64 log series over reduced Fractions.
:func:`int_digit_cap` sets CPython's default cap on int <-> str digits.
"""

import cmath
import contextlib
import math
import sys
from fractions import Fraction
from numbers import Rational

import pytest

from qexpseries import (ConvergenceError, DomainError, Evaluation, TruncatedSeries,
                        radius_of_convergence)
from qexpseries.qnumbers import q_numbers
from qexpseries.scalars import check_int, check_q, check_tol, shown


def one(order: int) -> TruncatedSeries:
    """The constant series 1 at the given order."""
    return TruncatedSeries([1] + [0] * order)


def zero(order: int) -> TruncatedSeries:
    """The zero series at the given order."""
    return TruncatedSeries([0] * (order + 1))


def add(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f + g, coefficientwise, at their common order."""
    assert f.order == g.order, (f.order, g.order)
    return TruncatedSeries(x + y for x, y in zip(f.coeffs, g.coeffs))


def sub(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f - g, coefficientwise, at their common order."""
    assert f.order == g.order, (f.order, g.order)
    return TruncatedSeries(x - y for x, y in zip(f.coeffs, g.coeffs))


def reference_arguments(q, z, tol, max_terms):
    """The evaluators' argument gate through the package's validators
    alone: checks q, tol, max_terms, z's type and finiteness, and the
    radius of convergence, in that order, and returns ``(q, z, is_exact)``,
    q as a Fraction and an exact z as a Fraction. At q < 1, where the
    radius test reads |z|, a complex z whose modulus is beyond the binary64
    range raises DomainError."""
    q = check_q(q)
    check_tol(tol)
    check_int(max_terms, "max_terms", 1, None)
    if isinstance(z, Rational) and not isinstance(z, bool):
        z, is_exact = Fraction(z), True
    elif isinstance(z, (float, complex)):
        w = complex(z)
        if not cmath.isfinite(w):
            raise DomainError(f"non-finite numeric value: {w!r}")
        z, is_exact = (w.real if isinstance(z, float) else w), False
    else:
        raise DomainError(f"unsupported argument type {type(z).__name__}")
    if q < 1:
        radius = radius_of_convergence(q)
        try:
            modulus = abs(z)
        except OverflowError:
            raise DomainError(f"|z| exceeds the binary64 range at q = {shown(q)}, "
                              f"z = {shown(z)}") from None
        if modulus >= radius:
            raise DomainError(
                f"|z| = {shown(modulus)} is outside the radius of convergence "
                f"(1-q)^(-1) = {shown(radius)} for q = {shown(q)}"
            )
    return q, z, is_exact


def reference_product(q, z, tol, max_terms):
    """E_q(z) on the product route in Fractions, for 0 < q < 1 and a rational
    z inside the radius: the partial product P_M of the factors 1 / (1 - x_m),
    x_m = (1-q) q^m z, m < M, at the first M from 1 to max_terms whose bound
    on |E_q(z) - P_M| is within tol. That bound is P_M L / (1-L) where L =
    |x_M| / ((1 - |x_M|)(1-q)) < 1 bounds the omitted factors' log, and for
    z < 0, where each omitted factor is below 1, |t_M| / (1-q) for the next
    term t_M = P_(M+1) - P_M = P_M x_M / (1 - x_M)."""
    q, z, tol_cmp = Fraction(q), Fraction(z), Fraction(tol)
    x, product = (1 - q) * z, Fraction(1)
    for m in range(1, max_terms + 1):
        product /= 1 - x    # P_m
        x *= q              # x_m
        if z < 0:
            bound = product * -x / ((1 - x) * (1 - q))
        else:
            omitted = x / ((1 - x) * (1 - q))
            bound = product * omitted / (1 - omitted) if omitted < 1 else None
        if bound is not None and bound <= tol_cmp:
            return Evaluation(float(product), m, float(bound) or math.ulp(0.0), "product")
    raise ConvergenceError(f"tail bound did not reach tol={shown(tol)} within {max_terms} terms")


def reference_float_log(q, z, tol, max_terms):
    """ln E_q(z) by its series in binary64 for a float or complex z: t_1 = z
    and t_(k+1) = t_k (z rho_k), each term ratio rho_k = c_(k+1) / c_k = (1-q)
    k [k]_q / ((k+1) [k+1]_q) a reduced Fraction converted by float(), to the
    first k from 1 to max_terms with |t_(k+1)| / (1 - r) <= tol, r = |z|
    float(|1-q| / max(1, q)) the ratio cap rounded once. Returns None outside
    the series' disk of q > 1, r >= 1; for q <= 1 a cap that rounds onto 1
    raises ConvergenceError, as a sum that does not settle does, and a sum
    past the binary64 range where it stops raises DomainError."""
    q = check_q(q)
    r = abs(z) * float(abs(1 - q) / max(1, q))
    if r < 1:
        numbers = q_numbers(*q.as_integer_ratio())
        qn, term, total = next(numbers), z, 0.0
        for k in range(1, max_terms + 1):
            total = total + term
            qn_next = next(numbers)
            term = term * (z * float((1 - q) * k * qn / ((k + 1) * qn_next)))
            bound = abs(term) / (1 - r)
            if bound <= tol:
                if not cmath.isfinite(total):
                    raise DomainError(f"ln E_q(z) exceeds the binary64 range at "
                                      f"q = {shown(q)}, z = {shown(z)}")
                live = z != 0 and q != 1
                return Evaluation(total, k, bound or (math.ulp(0.0) if live else 0.0), "series")
            qn = qn_next
    elif q > 1:
        return None
    raise ConvergenceError(f"tail bound did not reach tol={shown(tol)} within {max_terms} terms")


@contextlib.contextmanager
def int_digit_cap():
    """CPython's default cap of 4300 digits on int <-> str conversions,
    whatever PYTHONINTMAXSTRDIGITS says; skips where there is no cap."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int <-> str digit cap in this Python")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
