"""Jackson's q-exponential E_q(z) = sum_k z^k / [k]_q!.

Three views of the same object:

* the truncated series itself (:func:`qexp_series`);
* the coefficients c_k of its logarithm ln E_q(z) = sum_k c_k z^k, either in
  closed form c_k = (1-q)^(k-1) / (k [k]_q) or through the recursion those
  coefficients satisfy -- two independent routes that must agree exactly;
* guarded numeric evaluation of E_q and ln E_q with certified truncation
  bounds (:func:`eval_qexp`, :func:`eval_log_qexp`).

For 0 < q < 1 the series has radius of convergence (1-q)^(-1) and the
evaluators reject arguments on or outside it; for q >= 1 it converges
everywhere. With a rational argument both evaluators run one kernel:
each term is the one before times a ratio of short integers from the
integer q-number sweep, summed in fixed point as an integer scaled by 2^p
with an integer radius that covers every floor taken (a ball, in the
style of Arb). The stopping test, the value and the tail bound are taken
only when both ends of their ball agree, the doubles by correctly rounded
int / int division (Ziv's test), so they are the floats of the exact
partial sums; an undecided ball hands the call to one exact integer sum.
A float argument selects plain binary64 arithmetic over the same integer
sweep: each [k]_q and c_k is the correctly rounded int / int quotient of
its integers, and the sum's own rounding is outside the certificate. On
both paths a positive tail bound below the binary64 range is reported as
the least subnormal, never as 0.0. A value beyond the binary64 range, or
a float z^k beyond it in the log series, raises DomainError.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, pairwise, starmap
from numbers import Rational
from typing import Iterator, Literal

from .errors import ConvergenceError, DomainError
from .qnumbers import q_number_numerators, q_numbers, radius_of_convergence
from .scalars import QParam, as_qparam, check_int, check_tol, shown
from .series import TruncatedSeries

DEFAULT_TOL = 1e-12
DEFAULT_MAX_TERMS = 1000


@dataclass(frozen=True)
class QExpSeries:
    """E_q as a truncated exact series; coefficient k is 1/[k]_q!."""

    q: QParam
    series: TruncatedSeries


def qexp_series(q, order: int) -> QExpSeries:
    """Build the q-exponential series through z^order, exactly."""
    check_int(order, "order")
    qp = as_qparam(q)
    coeffs = accumulate(islice(q_numbers(qp), order), operator.truediv, initial=Fraction(1))
    return QExpSeries(qp, TruncatedSeries(coeffs))


@dataclass(frozen=True)
class LogCoeffVector:
    """Coefficients c_1..c_N of ln E_q(z) = sum_k c_k z^k (slot 0 holds 0)."""

    q: QParam
    values: "tuple[Fraction, ...]"

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def coeff(self, k: int) -> Fraction:
        if check_int(k, "k", 1) > self.order:
            if not self.order:
                raise DomainError(f"an order-0 vector holds no coefficients, got k = {k}")
            raise DomainError(f"k must be in 1..{self.order}, got {k}")
        return self.values[k]

    def as_series(self) -> TruncatedSeries:
        """The log series itself, ready for :meth:`TruncatedSeries.exp`."""
        return TruncatedSeries(self.values)


def _log_coeff_pairs(qp: QParam) -> Iterator["tuple[int, int]"]:
    """The closed-form sweep c_1, c_2, ... over the integer q-number sweep,
    as unreduced integer pairs: c_k = (1-q)^(k-1) / (k [k]_q) =
    (b-a)^(k-1) / (k S_k) for q = a/b, as [k]_q = S_k / b^(k-1)."""
    a, b = qp.value.as_integer_ratio()
    shift = 1                 # (b-a)^(k-1)
    for k, number in enumerate(q_number_numerators(qp), 1):
        yield shift, k * number
        shift *= b - a


def log_coeffs_closed(order: int, q) -> LogCoeffVector:
    """Closed-form log coefficients c_1..c_order in one O(order) sweep."""
    check_int(order, "order")
    qp = as_qparam(q)
    coeffs = starmap(Fraction, islice(_log_coeff_pairs(qp), order))
    return LogCoeffVector(qp, (Fraction(0), *coeffs))


def log_coeffs_recursive(order: int, q) -> LogCoeffVector:
    """Log coefficients as the formal logarithm of the E_q series,
    :meth:`TruncatedSeries.log` of :func:`qexp_series`, which runs the
    recursion they satisfy:

        c_1 = 1;   c_k = 1/[k]_q! - (1/k) * sum_{j=1}^{k-1} (j / [k-j]_q!) c_j.

    Computes the same values as :func:`log_coeffs_closed` by an independent
    O(order^2) route; exact agreement between the two is the library's
    central self-check.
    """
    qexp = qexp_series(q, order)
    return LogCoeffVector(qexp.q, qexp.series.log().coeffs)


@dataclass(frozen=True)
class Evaluation:
    """A certified partial-sum evaluation.

    ``order`` is the highest power included in the sum; ``tail_bound`` is a
    certified upper bound on the truncation error of ``value``, and a
    positive bound below the binary64 range is the least subnormal,
    ``math.ulp(0.0)``. On the rational-argument path both are the correctly
    rounded doubles of the exact partial sum and bound, the floats
    ``float(Fraction)`` gives, whether a fixed-point ball or the exact sum
    settled them.
    """

    value: "float | complex"
    order: int
    tail_bound: float
    method: Literal["series", "log_of_qexp"] = "series"


def _arguments(q, z, tol, max_terms):
    """The evaluators' one argument gate: checks q, tol, max_terms, z's type
    and finiteness, and the radius of convergence, in that order, and returns
    ``(qp, z, is_exact)``. Exact rationals keep exact partial sums."""
    qp = as_qparam(q)
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
    if qp.value < 1:
        radius = radius_of_convergence(qp)
        if abs(z) >= radius:
            raise DomainError(
                f"|z| = {shown(abs(z))} is outside the radius of convergence "
                f"(1-q)^(-1) = {shown(radius)} for q = {shown(qp.value)}"
            )
    return qp, z, is_exact


def eval_qexp(q, z: "Fraction | int | float | complex", tol: float = DEFAULT_TOL,
              max_terms: int = DEFAULT_MAX_TERMS) -> Evaluation:
    """Evaluate E_q(z) by partial summation with a certified tail bound.

    Stops at the first K where r = |z| / [K+2]_q < 1 and
    |t_{K+1}| / (1 - r) <= tol, where t_k = z^k/[k]_q! is the first omitted
    term. The geometric majorant is sound because [k]_q increases with k,
    so every later term ratio is at most r. A value beyond the binary64
    range raises :class:`DomainError`, at once when z > 0 is itself beyond
    it, as E_q(z) > z there.
    """
    qp, z, is_exact = _arguments(q, z, tol, max_terms)

    try:
        if is_exact:
            if z > 0:
                float(z)    # raises OverflowError past the binary64 range
            return (_sum_fixed((1, 1), _qexp_steps(qp, z), 0, tol, max_terms)
                    or _sum_exact((1, 1), _qexp_steps(qp, z), 0, tol, max_terms))
        b = qp.value.denominator
        numbers = q_number_numerators(qp)
        power = 1                 # b^(j-1) of the last [j]_q read
        term = total = 1.0
        scale = next(numbers) / power
        z_abs = abs(z)
        for k in range(max_terms):
            nxt = term * z / scale
            power *= b
            scale = next(numbers) / power    # [k+2]_q = S_{k+2} / b^(k+1)
            r = z_abs / scale
            if r < 1:
                bound = abs(nxt) / (1 - r)
                if bound <= tol:
                    return Evaluation(total, k, bound or (_TINIEST if z else 0.0), "series")
            total = total + nxt
            term = nxt
        if not cmath.isfinite(total):    # the sum ran off to inf on the way
            raise OverflowError
    except OverflowError:
        raise DomainError(f"E_q(z) exceeds the binary64 range at q = {shown(qp.value)}, "
                          f"z = {shown(z)}") from None
    raise _not_converged(tol, max_terms)


def _qexp_steps(qp: QParam, z: Fraction) -> Iterator["tuple[int, int, int, int]"]:
    """E_q's kernel steps for z = u/w from t_0 = 1: t_{k+1} = t_k u b^k /
    (w S_{k+1}) for q = a/b, as [k]_q = S_k / b^(k-1), and lift / gap =
    1 / (1 - r) for r = |z| / [k+2]_q, with lift = w S_{k+2}."""
    mul, w = z.as_integer_ratio()     # u b^k, from u
    b = qp.value.denominator
    numbers = q_number_numerators(qp)
    div = w * next(numbers)           # w S_{k+1}
    for number in numbers:
        lift = w * number
        yield mul, div, lift, lift - abs(mul) * b
        mul *= b
        div = lift


def eval_log_qexp(q, z: "Fraction | int | float | complex", tol: float = DEFAULT_TOL,
                  max_terms: int = DEFAULT_MAX_TERMS) -> Evaluation:
    """Evaluate ln E_q(z) = sum_{k>=1} c_k(q) z^k with a certified bound.

    Successive term ratios are capped by r = |z|(1-q) for q <= 1 and by
    r = |z|(q-1)/q for q > 1 (both follow from k/(k+1) < 1 and the
    monotonicity bound [k]_q/[k+1]_q <= 1/q for q >= 1), giving a geometric
    tail majorant whenever the cap is below 1. For q > 1 outside that disk
    (|z| >= q/(q-1)) the value falls back to log(eval_qexp(z)); the
    ``method`` field reports which path produced the result. A float z
    whose power z^k leaves the binary64 range before the bound reaches tol
    raises :class:`DomainError`; the same z as an exact rational does not.
    """
    qp, z, is_exact = _arguments(q, z, tol, max_terms)
    z_abs, v = abs(z), qp.value

    if v > 1:
        r_cap = z_abs * (v - 1) / v
        if r_cap >= 1:
            return _log_via_qexp(qp, z, tol, max_terms)
    else:
        r_cap = z_abs * (1 - v)
        if r_cap >= 1:    # float rounding pushed |z|(1-q) onto 1 right at the radius
            raise DomainError(
                f"|z| = {z_abs} is too close to the radius of convergence for a "
                f"certified log series at q = {shown(qp.value)}; pass z as an exact rational"
            )

    if is_exact:
        try:
            return (_sum_fixed(z.as_integer_ratio(), _log_steps(qp, z, r_cap), 1, tol, max_terms)
                    or _sum_exact(z.as_integer_ratio(), _log_steps(qp, z, r_cap), 1, tol,
                                  max_terms))
        except OverflowError:
            raise DomainError(f"ln E_q(z) exceeds the binary64 range at q = {shown(qp.value)}, "
                              f"z = {shown(z)}") from None
    coeffs = starmap(operator.truediv, _log_coeff_pairs(qp))    # c_k, rounded once
    zpow = z                  # z^k
    c_k = next(coeffs)
    total = 0.0
    for k in range(1, max_terms + 1):
        total = total + c_k * zpow
        zpow = zpow * z
        c_k = next(coeffs)
        bound = abs(c_k * zpow) / (1 - r_cap)
        if bound <= tol:
            # c_k z^k != 0 for every k unless z = 0, or q = 1 and k > 1
            return Evaluation(total, k, bound or (_TINIEST if z and v != 1 else 0.0), "series")
        # the sum stops being finite only once z^k has run off to inf, and from
        # then on every bound is inf or nan: the float test keeps isfinite off
        # the hot path
        if not bound < math.inf and not cmath.isfinite(total):
            raise DomainError(f"z^k left the binary64 range in ln E_q(z) at "
                              f"q = {shown(qp.value)}, z = {shown(z)}; "
                              "an exact rational z avoids this")
    raise _not_converged(tol, max_terms)


def _log_steps(qp: QParam, z: Fraction, r_cap: Fraction) -> Iterator["tuple[int, int, int, int]"]:
    """ln E_q's kernel steps for z = u/w from t_1 = z: t_{k+1} = t_k (b-a) k
    S_k u / ((k+1) S_{k+1} w), as c_k = (b-a)^(k-1) / (k S_k), with b - a
    taken as it is: c_{k+1} / c_k is 0/0 at q = 1. lift / gap is
    1 / (1 - r_cap), as r_cap caps every term ratio."""
    a, b = qp.value.as_integer_ratio()
    u, w = z.as_integer_ratio()
    cap_num, cap_den = r_cap.as_integer_ratio()
    for k, (number, next_number) in enumerate(pairwise(q_number_numerators(qp)), 1):
        yield (b - a) * u * k * number, (k + 1) * next_number * w, cap_den, cap_den - cap_num


def _sum_fixed(first: "tuple[int, int]", steps, order: int, tol,
               max_terms: int) -> "Evaluation | None":
    """sum_k t_k from k = order until the tail bound is <= tol, in fixed
    point; None when a ball leaves a decision open.

    t_order = first[0] / first[1]; a step (mul, div, lift, gap), div > 0,
    gives t_{k+1} = t_k mul / div and, if gap > 0, the tail bound
    |t_{k+1}| lift / gap. An integer T_k within e_k of |t_k| 2^p carries
    each term, its sign apart. One floor per step, T_{k+1} = floor(T_k
    |mul| / div), keeps that with e_{k+1} = ceil(e_k |mul| / div) + [it
    dropped a remainder], so the partial sum is within the sum of the e_k.
    Each decision and rounding is taken only when both ends of its ball
    agree (:func:`_settled`), so it is the exact sum's.
    """
    num, den = first
    tol_num, tol_den = Fraction(tol).as_integer_ratio()
    p = _precision(tol_num, tol_den)
    limit = tol_num << p
    # while bit lengths alone show bound > tol the ball test is skipped
    far = limit.bit_length() - tol_den.bit_length() + 3
    mag, rem = divmod(abs(num) << p, den)     # T_k; err is e_k
    # positive: t_k != 0, read off the steps, as a ball cannot tell
    err, negative, positive = int(rem != 0), num < 0, num != 0
    total, total_err = -mag if negative else mag, err
    for k, (mul, div, lift, gap) in zip(range(order, order + max_terms), steps):
        if mul < 0:
            mul, negative = -mul, not negative
        elif not mul:
            positive = False
        mag, rem = divmod(mag * mul, div)
        err = -(-err * mul // div) + (rem != 0)
        if gap > 0 and (mag <= err or (mag - err).bit_length() + lift.bit_length()
                        - gap.bit_length() < far):
            # bound = |t_{k+1}| lift / gap <= tol, at both ends of the ball
            low, high = max(mag - err, 0) * lift, (mag + err) * lift
            cap = limit * gap
            stop = _settled(low * tol_den <= cap, high * tol_den <= cap)
            if stop is None:
                return None
            if stop:
                scale = 1 << p
                try:
                    value = _settled((total - total_err) / scale, (total + total_err) / scale)
                except OverflowError:    # the exact sum decides the range
                    return None
                bound = _settled(_bound(low, gap << p, positive), _bound(high, gap << p, positive))
                if value is None or bound is None:
                    return None
                return Evaluation(value, k, bound, "series")
        total += -mag if negative else mag
        total_err += err
    raise _not_converged(tol, max_terms)


def _sum_exact(first: "tuple[int, int]", steps, order: int, tol, max_terms: int) -> Evaluation:
    """The partial sum of :func:`_sum_fixed` by exact integers, for the
    decisions it leaves open.

    t_k = term/den and the partial sum total/den share one denominator that
    only grows by the short factor div of each step, so no step reduces a
    big fraction; bound <= tol is tested by cross-multiplication.
    """
    tol_num, tol_den = Fraction(tol).as_integer_ratio()
    term, den = first
    total = term
    for k, (mul, div, lift, gap) in zip(range(order, order + max_terms), steps):
        term *= mul
        next_den = den * div
        # while the term is large its bit length alone shows
        # bound > tol, as bl(a*b) >= bl(a) + bl(b) - 1 for a, b != 0
        if gap > 0 and (not term or term.bit_length() + (lift * tol_den).bit_length()
                        <= next_den.bit_length() + (gap * tol_num).bit_length() + 1):
            bound_num = abs(term) * lift
            bound_den = next_den * gap
            if bound_num * tol_den <= tol_num * bound_den:
                return Evaluation(total / den, k, _bound(bound_num, bound_den, bool(term)),
                                  "series")
        total = total * div + term
        den = next_den
    raise _not_converged(tol, max_terms)


#: Bits the fixed-point sums carry beyond a double's 53 and the scale of
#: tol, so that a ball is almost always far narrower than the rounding
#: interval it has to fall in.
_GUARD_BITS = 64


def _precision(tol_num: int, tol_den: int) -> int:
    """The fraction bits p of a fixed-point sum: 53, the guard bits and the
    binary exponent of 1/tol when that is positive."""
    return 53 + _GUARD_BITS + max(0, tol_den.bit_length() - tol_num.bit_length())


def _settled(low, high):
    """What both ends of a ball give, or None when they differ (signed zeros
    differ too). Every decision and rounding of a fixed-point sum goes
    through here: an equal rounding of both ends is the rounding of every
    number between them, as rounding is monotone."""
    if low == high and math.copysign(1, low) == math.copysign(1, high):
        return low
    return None


_TINIEST = math.ulp(0.0)


def _bound(num: int, den: int, positive: bool) -> float:
    """The tail bound num / den, one correctly rounded int / int division
    like ``float(Fraction)``; a positive bound that underflows is reported
    as the least subnormal, never as an exact 0.0."""
    return num / den or (_TINIEST if positive else 0.0)


def _not_converged(tol, max_terms: int) -> ConvergenceError:
    return ConvergenceError(f"tail bound did not reach tol={shown(tol)} within {max_terms} terms")


def _log_via_qexp(qp: QParam, z, tol: float, max_terms: int) -> Evaluation:
    """log(E_q(z)) with the log-propagation error kept under tol.

    Two passes: an absolute-tolerance evaluation of E_q(z), then a tightened
    one when |E| is small. |delta log| <= tail / (|E| - tail) for tail < |E|.
    """
    inner = eval_qexp(qp, z, tol, max_terms)
    for _ in range(2):
        magnitude = abs(inner.value)
        if not isinstance(inner.value, complex) and inner.value <= 0:
            raise DomainError(
                f"ln E_q(z) undefined: E_q({shown(z)}) = {inner.value} <= 0 "
                f"at q = {shown(qp.value)}"
            )
        if magnitude <= inner.tail_bound:
            raise DomainError(
                f"cannot certify E_q(z) != 0 at q = {shown(qp.value)}, z = {shown(z)}: "
                f"|value| = {magnitude} within tail bound {inner.tail_bound}"
            )
        propagated = inner.tail_bound / (magnitude - inner.tail_bound)
        if propagated <= tol:
            log_value = (cmath.log(inner.value) if isinstance(inner.value, complex)
                         else math.log(inner.value))
            return Evaluation(log_value, inner.order, propagated, "log_of_qexp")
        inner = eval_qexp(qp, z, tol * magnitude / 2, max_terms)
    raise ConvergenceError(
        f"could not certify tol={shown(tol)} for ln E_q(z) at q = {shown(qp.value)}, "
        f"z = {shown(z)}"
    )
