"""Reference values computed without the code under test.

* Exact coefficient tables from plain integers: for q = a/b,
  [k]_q = N_k / b^(k-1) with N_k = sum_{i<k} a^i b^(k-1-i), so
  1/[k]_q! = b^(k(k-1)/2) / (N_1 ... N_k) and
  c_k = (1-q)^(k-1)/(k [k]_q) = (b-a)^(k-1) / (k N_k).
* E_q(z) and ln E_q(z) at 40 significant digits from the product formulas
  (q-binomial and Euler), not from the power series the library sums:
  q < 1:  E_q(z) = 1 / prod_{k>=0} (1 - (1-q) q^k z)
  q > 1:  E_q(z) = prod_{k>=0} (1 + (1-p) p^k z),  p = 1/q
  q = 1:  E_q(z) = exp(z).
  The product runs in the decimal module (C arithmetic, 40 digits) until a
  factor is within 1e-35 of 1; the truncated tail moves ln E_q by less than
  1e-33 for every q of the pool. Inside the disk where every factor has
  |w_k z| < 1 the sum of principal logs of the factors is the branch of
  ln E_q that the log series sums. That sum is ln P + 2 pi i m for the
  product P, with ln P taken once in mpmath and the integer m read off a
  binary64 sum of the factors' phases (error ~1e-13, far below pi).

Rounding allowance for a binary64 result. The evaluators round each term
update (one rounding for [k]_q, one for the product, one for the quotient)
and each partial sum, so with u = 2^-53, K = terms and gamma_n = nu/(1-nu)
the summed value lies within gamma_{3K} * sum_k |t_k| of the exact partial
sum. A result fails the oracle when
    |value - ref| > tail_bound + allowance + ulp(value),
and misses its own bound when |value - ref| > tail_bound + ulp(value).
The allowance is 0 for an exact (rational z) series result, u for an exact
log_of_qexp result (E is rounded once before the log), gamma_{3K} sum|t_k|
for a binary64 series result, and gamma_{3K} sum|t_k| / |E| for a binary64
log_of_qexp result.
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import mpmath

mpmath.mp.dps = 40
_DEC = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_CUTOFF = Decimal("1e-35")
U = 2.0 ** -53


def inverse_factorials(q: Fraction, order: int):
    """1/[k]_q! for k = 0..order, from integers."""
    a, b = q.numerator, q.denominator
    out = [Fraction(1)]
    prod = 1
    for k in range(1, order + 1):
        prod *= sum(a ** i * b ** (k - 1 - i) for i in range(k))
        out.append(Fraction(b ** (k * (k - 1) // 2), prod))
    return out


def log_coefficients(q: Fraction, order: int):
    """c_0 = 0, c_k = (b-a)^(k-1) / (k N_k) for k = 1..order."""
    a, b = q.numerator, q.denominator
    return [Fraction(0)] + [
        Fraction((b - a) ** (k - 1), k * sum(a ** i * b ** (k - 1 - i) for i in range(k)))
        for k in range(1, order + 1)]


def _mp(z):
    if isinstance(z, Fraction):
        return mpmath.mpf(z.numerator) / z.denominator
    if isinstance(z, complex):
        return mpmath.mpc(z.real, z.imag)
    return mpmath.mpf(z)


def _dec(x) -> Decimal:
    if isinstance(x, Fraction):
        return _DEC.divide(Decimal(x.numerator), Decimal(x.denominator))
    return Decimal(x)   # a binary64 float converts exactly


def _product(q: Fraction, z):
    """(P, phase): P = prod_k (1 + w_k z) as an mpmath number and the
    binary64 sum of the factors' principal phases; E_q(z) = P^sign with
    sign -1 for q < 1."""
    if q < 1:
        w, step = _DEC.minus(_DEC.subtract(1, _dec(q))), _dec(q)
    else:
        p = _DEC.divide(1, _dec(q))
        w, step = _DEC.subtract(1, p), p
    zr, zi = (z.real, z.imag) if isinstance(z, complex) else (z, 0)
    tr, ti = _DEC.multiply(w, _dec(zr)), _DEC.multiply(w, _dec(zi))
    pr, pi = Decimal(1), Decimal(0)
    phase = 0.0
    with decimal.localcontext(_DEC):
        while abs(tr) + abs(ti) > _CUTOFF:
            ar = 1 + tr
            pr, pi = pr * ar - pi * ti, pr * ti + pi * ar
            phase += math.atan2(float(ti), float(ar))
            tr, ti = tr * step, ti * step
    if pi:
        return mpmath.mpc(mpmath.mpf(str(pr)), mpmath.mpf(str(pi))), phase
    return mpmath.mpf(str(pr)), phase


def reference(q: Fraction, z):
    """(E_q(z), ln E_q(z)) as mpmath numbers; the log is the series branch."""
    if q == 1:
        zm = _mp(z)
        return mpmath.exp(zm), zm
    product, phase = _product(q, z)
    log_p = mpmath.log(product)
    turns = round((phase - float(mpmath.im(log_p))) / math.tau)
    if turns:
        log_p += 2j * mpmath.pi * turns
    if q < 1:
        return 1 / product, -log_p
    return product, log_p


def _gamma(n: int) -> float:
    return n * U / (1 - n * U)


def qexp_abs_terms(q: Fraction, z, terms: int) -> float:
    """sum_{k=0}^{terms} |z|^k / [k]_q! in binary64."""
    qf, za = float(q), abs(z)
    total = term = 1.0
    qn = 0.0
    qpow = 1.0
    for _ in range(terms):
        qn += qpow
        qpow *= qf
        term *= za / qn
        total += term
    return total


def log_abs_terms(q: Fraction, z, terms: int) -> float:
    """sum_{k=1}^{terms} |c_k z^k| in binary64, by term ratios."""
    qf, za = float(q), abs(z)
    total = term = za          # |c_1 z| = |z|
    qn, qpow = 1.0, qf         # [k]_q, q^k
    for k in range(1, terms):
        qn_next = qn + qpow
        term *= abs(1 - qf) * za * k * qn / ((k + 1) * qn_next)
        total += term
        qn, qpow = qn_next, qpow * qf
    return total


def allowance(q: Fraction, z, result, log: bool, ref_e) -> float:
    """Rounding allowance for ``result`` per the table in the module doc."""
    exact = isinstance(z, Fraction)
    if result.method == "log_of_qexp":
        if exact:
            return U
        return _gamma(3 * result.order) * qexp_abs_terms(q, z, result.order) / float(abs(ref_e))
    if exact:
        return 0.0
    summed = log_abs_terms(q, z, result.order) if log else qexp_abs_terms(q, z, result.order)
    return _gamma(3 * result.order) * summed


def ulp(value) -> float:
    if isinstance(value, complex):
        return math.ulp(max(abs(value.real), abs(value.imag)))
    return math.ulp(abs(value))


def distance(value, ref) -> float:
    return float(abs(_mp(value) - ref))
