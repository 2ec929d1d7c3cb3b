"""Jackson's q-exponential E_q(z) = sum_k z^k / [k]_q!.

Three views of the same object:

* the truncated series itself (:func:`qexp_series`);
* the coefficients c_k of its logarithm ln E_q(z) = sum_k c_k z^k, either in
  closed form c_k = (1-q)^(k-1) / (k [k]_q) or through the recursion those
  coefficients satisfy, run on the q-Leibniz rule in the divided-power basis
  of q -- two independent routes over the q-number sweep, neither of which
  reads the other or the E_q series, that must agree exactly;
* guarded numeric evaluation of E_q and ln E_q with certified truncation
  bounds (:func:`eval_qexp`, :func:`eval_log_qexp`).

For 0 < q < 1 the series has radius of convergence (1-q)^(-1) and the
evaluators' one argument gate rejects z on or outside it; for q >= 1 it
converges everywhere. With a rational argument both evaluators run one
kernel (:func:`_sum_fixed`): term ratios of short integers from the q-number
sweep, summed as a fixed-point ball in the style of Arb, whose stopping
test, value and tail bound are the floats of the exact partial sums (Ziv's
test); a call that a ball leaves open goes to one exact integer sum. For
0 < q < 1 and a rational z with |z|(1-q) > q, one integer test, E_q takes
the paper's product instead: c_k = sum_m ((1-q) q^m)^k / k makes E_q(z) =
prod_{m>=0} 1 / (1 - x_m), x_m = (1-q) q^m z, whose omitted logs fall by q a
factor where the series' terms fall by about |z|(1-q). The partial product
P_M telescopes into the series 1 + sum_{m<M} t_m, t_m = P_{m+1} x_m, which
the same kernel sums (:func:`_product_steps`): it stops where |E_q(z) - P_M|
<= P_M L / (1-L) is within tol, L bounding the omitted factors' log, or for
z < 0, where every later term ratio is at most q, |t_M| / (1-q); a ball it
leaves open goes to the exact sum over the same steps. A float z takes one
binary64 loop (:func:`_sum_float`): each term is the last times z times a
ratio at most 1, 1/[k+1]_q or the log's c_{k+1} / c_k, an int / int quotient
rounded once; the sum's rounding and a ratio's underflow are outside the
certificate. Each evaluator decides once whether its later terms vanish, and
on every path a tail bound that underflows while they do not is the least
subnormal, never 0.0 (:func:`_tail`). A value or a complex |z| beyond the
binary64 range raises DomainError.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice, repeat, starmap, tee
from typing import Iterator, Literal

from .errors import ConvergenceError, DomainError
from .qnumbers import _log_coeff_pairs, q_number_numerators, q_numbers
from .scalars import as_exact, check_int, check_q, check_tol, shown
from .series import TruncatedSeries

DEFAULT_TOL = 1e-12
DEFAULT_MAX_TERMS = 1000


@dataclass(frozen=True)
class QExpSeries:
    """E_q as a truncated exact series; coefficient k is 1/[k]_q!."""

    q: Fraction
    series: TruncatedSeries


def qexp_series(q, order: int) -> QExpSeries:
    """Build the q-exponential series through z^order, exactly."""
    order = check_int(order, "order")
    q = check_q(q)
    coeffs = accumulate(islice(q_numbers(*q.as_integer_ratio()), order),
                        operator.truediv, initial=Fraction(1))
    return QExpSeries(q, TruncatedSeries(coeffs))


@dataclass(frozen=True)
class LogCoeffVector:
    """Coefficients c_1..c_N of ln E_q(z) = sum_k c_k z^k (slot 0 holds 0)."""

    q: Fraction
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


def log_coeffs_closed(order: int, q) -> LogCoeffVector:
    """Closed-form log coefficients c_1..c_order in one O(order) sweep."""
    order = check_int(order, "order")
    q = check_q(q)
    coeffs = starmap(Fraction, islice(_log_coeff_pairs(*q.as_integer_ratio()), order))
    return LogCoeffVector(q, (Fraction(0), *coeffs))


def log_coeffs_recursive(order: int, q) -> LogCoeffVector:
    """Log coefficients by the recursion they satisfy, over the q-number
    sweep alone (:func:`_log_recursion_pairs`): taking coefficient k of
    z E_q' = E_q z L' for L = ln E_q and multiplying by [k]_q! gives

        k = sum_{j=1}^{k} [k ch j]_q j [j]_q! c_j,

    which fixes c_k once c_1 .. c_(k-1) are known.

    Computes the same values as :func:`log_coeffs_closed` by an independent
    O(order^2) route; exact agreement between the two is the library's
    central self-check.
    """
    order = check_int(order, "order")
    q = check_q(q)
    coeffs = starmap(Fraction, islice(_log_recursion_pairs(*q.as_integer_ratio()), order))
    return LogCoeffVector(q, (Fraction(0), *coeffs))


def _log_recursion_pairs(a: int, b: int) -> Iterator["tuple[int, int]"]:
    """The recursion's sweep c_1, c_2, ... for q = a/b as unreduced integer
    pairs (X_k, k F_k), F_k = S_1 .. S_k from the q-number sweep.

    k = sum_j [k ch j]_q d_j, d_j = j [j]_q! c_j, is coefficient k of
    E_q(z) times sum_j d_j z^j / [j]_q! in the divided-power basis of q:
    the product that :func:`qexpseries.identities._leibniz` takes at n = 1,
    m = 0 by F_j <- F_(j+1) + a^j b^i F_j from level i to i+1. Here d_k is
    known only once coefficient k is solved, so the levels are walked by
    anti-diagonals. Entry i of diagonal k, D_k[i] = F^(i)_(k-i), held over
    b^(k(k-1)/2), steps by the integer rule

        D_k[i] = D_k[i-1] + a^(k-i) b^(i-1) D_(k-1)[i-1],   D_k[0] = X_k,

    a big integer times a short one and one add, and its last entry is
    D_k[k] = k b^(k(k-1)/2). So X_k = k b^(k(k-1)/2) - sum_i a^(k-i) b^(i-1)
    D_(k-1)[i-1]: the products are summed once for X_k and once more, from
    X_k, for the diagonal. c_k = d_k / (k [k]_q!) = X_k / (k F_k).
    """
    diagonal, lifts = [0], []       # D_0 = [d_0]; a^(k-i) b^(i-1) for i = 1..k
    power = scale = factorial = 1   # b^(k-1), b^(k(k-1)/2) and F_k
    for k, number in enumerate(q_number_numerators(a, b), 1):
        lifts = [a * lift for lift in lifts] + [power]
        products = list(map(operator.mul, lifts, diagonal))
        x = k * scale - sum(products)
        diagonal = list(accumulate(products, initial=x))
        factorial *= number
        yield x, k * factorial
        power *= b
        scale *= power


@dataclass(frozen=True)
class Evaluation:
    """A certified partial-sum evaluation.

    ``method`` names the route. On "series" and "log_of_qexp" ``order`` is
    the highest power included in the sum (of E_q's series for
    "log_of_qexp"); on "product", E_q(z) for 0 < q < 1 and a rational z with
    |z|(1-q) > q, it is the number M of factors 1 / (1 - (1-q) q^m z), m < M,
    in the partial product P_M, M >= 1, and the bound is P_M L / (1-L), L =
    |x_M| / ((1 - |x_M|)(1-q)) bounding the log of the omitted factors, or
    for z < 0 |P_(M+1) - P_M| / (1-q).
    ``tail_bound`` is a certified upper bound on the truncation error of
    ``value``, and a positive bound below the binary64 range is the least
    subnormal, ``math.ulp(0.0)``. On the rational-argument path both are the
    correctly rounded doubles of the exact partial sum or product and of its
    bound, the floats ``float(Fraction)`` gives, whether a fixed-point ball
    or the exact sum settled them.
    """

    value: "float | complex"
    order: int
    tail_bound: float
    method: Literal["series", "log_of_qexp", "product"] = "series"


def _arguments(q, z, tol, max_terms):
    """The evaluators' one argument gate: checks q, tol, max_terms, z's type
    and finiteness, and the radius of convergence, in that order, and returns
    ``(q, a, b, z, tol, max_terms)``, q = a/b in lowest terms, with tol and
    max_terms as the checks give them and an exact z, which keeps exact
    partial sums, as a Fraction of Python ints, any other z being binary64."""
    q = check_q(q)
    a, b = q.as_integer_ratio()
    tol = check_tol(tol)
    max_terms = check_int(max_terms, "max_terms", 1, None)
    if isinstance(z, (float, complex)):
        z = float(z) if isinstance(z, float) else complex(z)
        if not cmath.isfinite(z):
            raise DomainError(f"non-finite numeric value: {z!r}")
    elif (exact := as_exact(z)) is None:
        raise DomainError(f"unsupported argument type {type(z).__name__}")
    else:
        z = exact
    if a < b:
        # |z| >= 1/(1-q) = b/(b-a) as |u| (b-a) >= w b for |z| = |u|/w, the
        # exact value of a float or of a complex z's rounded modulus
        u, w = (_modulus(q, z) if type(z) is complex else z).as_integer_ratio()
        if abs(u) * (b - a) >= w * b:
            raise DomainError(
                f"|z| = {shown(abs(z))} is outside the radius of convergence "
                f"(1-q)^(-1) = {shown(Fraction(b, b - a))} for q = {shown(q)}"
            )
    return q, a, b, z, tol, max_terms


def _modulus(q: Fraction, z: "float | complex") -> float:
    """|z| of a binary64 z, or DomainError if it is beyond the binary64 range."""
    try:
        return abs(z)
    except OverflowError:
        raise DomainError(f"|z| exceeds the binary64 range at q = {shown(q)}, "
                          f"z = {shown(z)}") from None


def eval_qexp(q, z: "Fraction | int | float | complex", tol: float = DEFAULT_TOL,
              max_terms: int = DEFAULT_MAX_TERMS) -> Evaluation:
    """Evaluate E_q(z) by partial summation with a certified tail bound.

    Stops at the first K where r = |z| / [K+2]_q < 1 and
    |t_{K+1}| / (1 - r) <= tol, where t_k = z^k/[k]_q! is the first omitted
    term. The geometric majorant is sound because [k]_q increases with k,
    so every later term ratio is at most r. For 0 < q < 1 and a rational z
    with |z|(1-q) > q, where that ratio stays above q, the call takes the
    product route (:func:`_product_steps`, ``method`` "product"), on which
    max_terms caps the factors. A float z sums on :func:`_sum_float`, t_{k+1}
    = t_k (z / [k+1]_q). A value beyond the binary64 range raises
    :class:`DomainError`, at once when z > 0 is itself beyond it, as
    E_q(z) > z there.
    """
    q, a, b, z, tol, max_terms = _arguments(q, z, tol, max_terms)
    try:
        if type(z) is Fraction:
            u, w = z.as_integer_ratio()
            # z < 2^(bl(u) - bl(w) + 1) <= 2^1023 needs no float(z), which
            # raises OverflowError past the binary64 range
            if u > 0 and u.bit_length() - w.bit_length() > 1022:
                float(z)
            if _product_route(a, b, u, w):
                x, y = (b - a) * u, b * w    # t_0 = x_0 / (1 - x_0), x_0 = x / y
                return _sum_fixed((x, y - x), partial(_product_steps, a, b, u, w), 1, tol,
                                  max_terms, True, base=1, method="product")
            # every term of E_q(z) is nonzero iff z != 0, and t_{k+1} / t_k has the sign of z
            return _sum_fixed((1, 1), partial(_qexp_steps, a, b, abs(u), w), 0, tol,
                              max_terms, u != 0, u < 0)
        # rho_k = 1/[k+1]_q = b^k / S_{k+1}, and the cap is the next quotient
        ratios, caps = tee(map(operator.truediv, accumulate(repeat(b), operator.mul, initial=1),
                               q_number_numerators(a, b)))
        next(caps)
        return _sum_float(z, 1.0, ratios, caps, 0, tol, max_terms, z != 0)
    except OverflowError:
        raise DomainError(f"E_q(z) exceeds the binary64 range at q = {shown(q)}, "
                          f"z = {shown(z)}") from None


def _qexp_steps(a: int, b: int, u: int, w: int) -> Iterator["tuple[int, int, int, int]"]:
    """E_q's kernel steps for |z| = u/w from t_0 = 1: |t_{k+1}| = |t_k| u b^k
    / (w S_{k+1}) for q = a/b, as [k]_q = S_k / b^(k-1), and lift / gap =
    1 / (1 - r) for r = |z| / [k+2]_q, with lift = w S_{k+2}."""
    numbers = q_number_numerators(a, b)
    div, power = w * next(numbers), u    # w S_{k+1} and u b^k
    for number in numbers:
        lift, ahead = w * number, power * b
        yield power, div, lift, lift - ahead
        div, power = lift, ahead


def eval_log_qexp(q, z: "Fraction | int | float | complex", tol: float = DEFAULT_TOL,
                  max_terms: int = DEFAULT_MAX_TERMS) -> Evaluation:
    """Evaluate ln E_q(z) = sum_{k>=1} c_k(q) z^k with a certified bound.

    Successive term ratios are capped by r = |z|(1-q) for q <= 1 and by
    r = |z|(q-1)/q for q > 1 (both follow from k/(k+1) < 1 and the
    monotonicity bound [k]_q/[k+1]_q <= 1/q for q >= 1), giving a geometric
    tail majorant whenever the cap is below 1. For q > 1 one rule hands the
    call to log(eval_qexp(z)) (:func:`_log_via_qexp`, ``method``
    "log_of_qexp"): outside that disk (|z| >= q/(q-1)), and on its rim for a
    real z whose log series does not settle within max_terms; for an exact
    z, where a lower bound on the terms shows that no bound within max_terms
    reaches tol, before the first term. A complex z gets the principal log
    of E_q(z) there, not the series' continuation: it can be off the sum of
    the factors' logs by a multiple of 2 pi i (4 pi i at q = 11/10, z =
    11j), so on the rim a complex z raises :class:`ConvergenceError`. A
    float z sums on :func:`_sum_float`, t_{k+1} = t_k (z c_{k+1} / c_k); for
    q <= 1 its cap rounding onto 1 inside the radius raises ConvergenceError.
    """
    q, a, b, z, tol, max_terms = _arguments(q, z, tol, max_terms)
    # every term of ln E_q(z) after the first is nonzero iff z != 0 and q != 1
    live = z != 0 and a != b
    # the rim of q > 1. For a real z in the disk every factor of E_q(z) is
    # positive and its real log is the series' sum; a complex z's sum of
    # factor arguments can pass pi, off the principal log of E_q(z)
    rim = a > b and type(z) is not complex
    try:
        if type(z) is Fraction:
            # the cap |z| |1-q| / max(1, q) as an integer pair; inside the radius
            # of q < 1 it is below 1
            u, w = z.as_integer_ratio()
            scale = (b - a) * u    # t_{k+1} / t_k has its sign
            cap_num, cap_den = abs(scale), w * max(a, b)
            gap = cap_den - cap_num
            if gap > 0:
                # a series that cannot settle gives up before its first step:
                # S_{k+1} <= (a+b) S_k gives |t_{k+1}| >= |z| rho^k / (k+1) for
                # rho = cap_num / ((a+b) w), and rho^k >= 2^(-3/2 k (1-rho) / rho)
                # as ln rho >= 1 - 1/rho and log2(e) < 3/2; bits is below the binary
                # log of |z| cap_den / ((max_terms+1) gap tol). Where the test holds,
                # every bound |t_{k+1}| cap_den / gap, k <= max_terms, is above tol
                tol_num, tol_den = tol.as_integer_ratio()
                bits = (u.bit_length() + cap_den.bit_length() + tol_den.bit_length() - 3
                        - w.bit_length() - (max_terms + 1).bit_length() - gap.bit_length()
                        - tol_num.bit_length())
                if 3 * max_terms * ((a + b) * w - cap_num) <= 2 * cap_num * bits:
                    raise _not_converged(tol, max_terms)
                return _sum_fixed((u, w), partial(_log_steps, a, b, w, cap_num, cap_den),
                                  1, tol, max_terms, live, scale < 0)
        else:
            # every |rho_k| is at most the cap, as S_{k+1} >= max(a, b) S_k
            cap = abs(b - a) / max(a, b)
            if _modulus(q, z) * cap < 1:
                return _sum_float(z, z, _log_ratios(a, b), repeat(cap), 1, tol, max_terms,
                                  live)
            if a <= b:    # rounding took the cap onto 1 inside the radius
                raise _not_converged(tol, max_terms)
    except OverflowError:
        raise DomainError(f"ln E_q(z) exceeds the binary64 range at "
                          f"q = {shown(q)}, z = {shown(z)}") from None
    except ConvergenceError:
        if not rim:
            raise
    # outside the disk of q > 1 or on its rim, out of the handler: no error chains
    return _log_via_qexp(q, z, tol, max_terms)


def _log_steps(a: int, b: int, w: int, cap_num: int,
               cap_den: int) -> Iterator["tuple[int, int, int, int]"]:
    """ln E_q's kernel steps for z = u/w from t_1 = z: |t_{k+1}| = |t_k| k S_k
    cap_num / ((k+1) S_{k+1} w), as c_k = (b-a)^(k-1) / (k S_k) and cap_num =
    |(b-a) u|, b - a taken as it is: c_{k+1} / c_k is 0/0 at q = 1. lift /
    gap is 1 / (1 - r_cap) for r_cap = cap_num / cap_den, as r_cap caps every
    term ratio."""
    numbers = q_number_numerators(a, b)
    k, number, gap = 1, next(numbers), cap_den - cap_num
    for next_number in numbers:
        yield cap_num * k * number, (k + 1) * w * next_number, cap_den, gap
        k, number = k + 1, next_number


def _log_ratios(a: int, b: int) -> Iterator[float]:
    """ln E_q's term ratios c_{k+1} / c_k = (b-a) k S_k / ((k+1) S_{k+1}), k >= 1."""
    numbers = q_number_numerators(a, b)
    k, number = 1, next(numbers)
    for next_number in numbers:
        yield (b - a) * k * number / ((k + 1) * next_number)
        k, number = k + 1, next_number


def _sum_float(z: "float | complex", term: "float | complex", ratios, caps, order: int,
               tol, max_terms: int, live: bool) -> Evaluation:
    """0.0 + sum_k t_k in binary64 from t_order = ``term``, t_{k+1} = t_k (z
    rho_k) for rho_k of ``ratios``, at most 1 in size, so no term overflows
    where the terms do not. It stops at the first k where r = |z| cap_k < 1,
    cap_k of ``caps`` bounding every later |rho_j|, and |t_{k+1}| / (1 - r)
    <= tol, a bound >= |t_{k+1}| as 0 < 1 - r <= 1: the cap is read only once
    |t_{k+1}| <= tol. The sum's rounding is outside the certificate, as is a
    ratio that underflows to 0, dropping terms below 2^-51 |t_k| (|z| <
    2^1024): at q = 10^76, z = 1e160 the bound reads 5e-324, the exact z's
    1e-180. A sum that is not finite where it stops or at max_terms raises
    OverflowError, which each evaluator reports as its DomainError."""
    z_abs, total = abs(z), 0.0
    for k, ratio, cap in zip(range(order, order + max_terms), ratios, caps):
        total = total + term
        term = term * (z * ratio)
        if abs(term) <= tol and (r := z_abs * cap) < 1 and (bound := abs(term) / (1 - r)) <= tol:
            if cmath.isfinite(total):
                return Evaluation(total, k, _tail(bound, live), "series")
            break
    if not cmath.isfinite(total):
        raise OverflowError
    raise _not_converged(tol, max_terms)


def _sum_fixed(first: "tuple[int, int]", steps, order: int, tol, max_terms: int,
               live: bool, flip: bool = False, base: int = 0,
               method: str = "series") -> Evaluation:
    """base + sum_k t_k from k = order until the tail bound is <= tol, in
    fixed point; a ball that leaves a decision open hands the call to
    :func:`_sum_exact`. The result is labelled ``method``.

    t_order = first[0] / first[1]; a step (mul, div, lift, gap) of ``steps()``,
    mul >= 0 and div > 0, gives |t_{k+1}| = |t_k| mul / div, the sign turning
    at every step if ``flip``, and, if gap > 0, the tail bound |t_{k+1}| lift
    / gap, where gap <= lift; ``live`` tells :func:`_tail` whether the terms
    after t_order are nonzero, and where they are not the bound is 0.0,
    whatever the ball's radius. An integer T_k within e_k of |t_k| 2^p
    carries each term, its sign apart, and the partial sum is carried times
    the sign of its last term, so no step reads a sign; the constant term
    ``base``, an integer, is exact in its start value. One floor per step,
    T_{k+1} = floor(T_k mul / div), keeps that with e_{k+1} = ceil(e_k mul /
    div) + [it dropped a remainder], so the partial sum is within the sum of
    the e_k. Where mul <= div, e_k + [it dropped a remainder] is sound too,
    as ceil(e_k mul / div) <= e_k, and takes no product or division of tall
    integers; an exact ball stays exact. It is taken while e_k < 2^(G/2), G =
    _GUARD_BITS, so a radius grown with large terms shrinks with them, and a
    term adds at most 2^(G/2) units of 2^-p, far inside the guard bits' 2^G.
    While T_{k+1} - e_{k+1} is above the high-water mark floor(tol 2^p), both
    ends of the ball hold |t_{k+1}| > tol, and so bound > tol as lift / gap
    >= 1: one comparison skips the stop test. Each decision and rounding is
    taken only when both ends of its ball agree (:func:`_settled`), so it is
    the exact sum's.
    """
    num, den = first
    tol_num, tol_den = tol.as_integer_ratio()
    # fraction bits: 53, the guard bits and the binary exponent of 1/tol if positive
    p = 53 + _GUARD_BITS + max(0, tol_den.bit_length() - tol_num.bit_length())
    limit = tol_num << p
    mark = limit // tol_den     # the high-water mark
    # while bit lengths alone show bound > tol the ball test is skipped
    far = limit.bit_length() - tol_den.bit_length() + 3
    small = 1 << _GUARD_BITS // 2     # radii below it take the rule with no division
    mag, rem = divmod(abs(num) << p, den)     # T_k; err is e_k
    err = int(rem != 0)
    # the partial sum through t_k times the sign of t_k: a step that turns the
    # sign takes the sum from T_{k+1}, one that keeps it adds T_{k+1}
    total, total_err = mag + ((-base if num < 0 else base) << p), err
    for k, (mul, div, lift, gap) in zip(range(order, order + max_terms), steps()):
        mag, rem = divmod(mag * mul, div)
        err = (err if err < small and mul <= div else -(-err * mul // div)) + (rem != 0)
        if mag - err <= mark and gap > 0 and (
                mag <= err or (mag - err).bit_length() + lift.bit_length()
                - gap.bit_length() < far):
            # bound = |t_{k+1}| lift / gap <= tol, at both ends of the ball
            low, high = max(mag - err, 0) * lift, (mag + err) * lift
            cap = limit * gap
            stop = _settled(low * tol_den <= cap, high * tol_den <= cap)
            if stop is None:
                break
            if stop:
                if (num < 0) != (flip and (k - order) % 2 == 1):    # t_k < 0
                    total = -total
                scale = 1 << p
                try:
                    value = _settled((total - total_err) / scale, (total + total_err) / scale)
                except OverflowError:
                    # when the end nearer zero overflows too, the whole ball and
                    # so the sum are past the binary64 range, and this raises
                    (abs(total) - total_err) / scale
                    break           # the ball straddles DBL_MAX: the exact sum decides
                bound = (_settled(_tail(low / (gap << p), live), _tail(high / (gap << p), live))
                         if live else 0.0)
                if value is None or bound is None:
                    break
                return Evaluation(value, k, bound, method)
        total = mag - total if flip else total + mag
        total_err += err
    else:
        raise _not_converged(tol, max_terms)
    return _sum_exact(first, steps(), order, tol, max_terms, live, flip, base, method)


def _sum_exact(first: "tuple[int, int]", steps, order: int, tol, max_terms: int,
               live: bool, flip: bool, base: int, method: str) -> Evaluation:
    """The partial sum of :func:`_sum_fixed` by exact integers, for the
    decisions its balls leave open.

    t_k = term/den and the partial sum total/den share one denominator that
    only grows by the short factor div of each step, so no step reduces a
    big fraction; bound <= tol is tested by cross-multiplication.
    """
    tol_num, tol_den = tol.as_integer_ratio()
    term, den = first
    total = term + base * den
    for k, (mul, div, lift, gap) in zip(range(order, order + max_terms), steps):
        term = -term * mul if flip else term * mul
        next_den = den * div
        # while the term is large its bit length alone shows
        # bound > tol, as bl(a*b) >= bl(a) + bl(b) - 1 for a, b != 0
        if gap > 0 and (not live or term.bit_length() + (lift * tol_den).bit_length()
                        <= next_den.bit_length() + (gap * tol_num).bit_length() + 1):
            bound_num, bound_den = abs(term) * lift, next_den * gap
            if bound_num * tol_den <= tol_num * bound_den:
                return Evaluation(total / den, k, _tail(bound_num / bound_den, live), method)
        total = total * div + term
        den = next_den
    raise _not_converged(tol, max_terms)


def _product_route(a: int, b: int, u: int, w: int) -> bool:
    """Whether E_q(z) at q = a/b and z = u/w takes the product: |z| (1-q) > q,
    as |u| (b-a) > a w. The series' tail ratio |z| / [k+2]_q falls to
    |z| (1-q), and the product's omitted logs fall by q a factor. Never at
    z = 0 or q >= 1."""
    return abs(u) * (b - a) > a * w


def _product_steps(a: int, b: int, u: int, w: int) -> Iterator["tuple[int, int, int, int]"]:
    """E_q's kernel steps on its product prod_{m>=0} 1 / (1 - x_m), x_m =
    (1-q) q^m z = X_m / Y_m, X_m = (b-a) a^m u and Y_m = b^(m+1) w, for q = a/b
    < 1 and z = u/w inside the radius.

    The partial product P_M telescopes into 1 + sum_{m<M} t_m, t_m = P_{m+1}
    - P_m = P_{m+1} x_m, each of the sign of z, from t_0 = X_0 / (Y_0 - X_0) at
    order 1, so a sum stopped at order M is P_M. |t_m| = |t_(m-1)| q / (1 - x_m)
    = |t_(m-1)| a Y_(m-1) / (Y_m - X_m). The omitted factors' log is at most
    L = |x_M| / ((1 - |x_M|)(1-q)), as |ln(1-x)| <= |x| / (1-|x|) and |x_m| <=
    |x_M| q^(m-M); while L < 1, |E_q(z) - P_M| <= P_M (e^L - 1) <= P_M L / (1-L)
    = |t_M| lift / gap, lift = b (Y_M - X_M) and gap = (Y_M - |X_M|)(b-a) -
    |X_M| b. For z < 0 every later ratio q / (1 - x_m) is at most q, so
    |E_q(z) - P_M| <= |t_M| / (1-q): lift / gap = b / (b-a), with no L < 1.
    """
    x, y = (b - a) * u, b * w    # X_m and Y_m
    while True:
        mul = a * y
        x, y = x * a, y * b
        div = y - x
        yield (mul, div, b, b - a) if u < 0 else (mul, div, b * div, div * (b - a) - x * b)


#: Bits the fixed-point sums carry beyond a double's 53 and the scale of tol, so
#: that a ball is almost always far narrower than the interval it must round in.
_GUARD_BITS = 64


def _settled(low, high):
    """What both ends of a ball give, or None when they differ (signed zeros
    differ too). Every decision and rounding of a fixed-point sum goes
    through here: an equal rounding of both ends is the rounding of every
    number between them, as rounding is monotone."""
    return low if low == high and math.copysign(1, low) == math.copysign(1, high) else None


def _tail(bound: float, live: bool) -> float:
    """The tail bound as reported, on every path: one that underflows to 0.0
    while later terms are nonzero (``live``) is the least subnormal, never an
    exact 0.0."""
    return bound or (math.ulp(0.0) if live else 0.0)


def _not_converged(tol, max_terms: int) -> ConvergenceError:
    return ConvergenceError(f"tail bound did not reach tol={shown(tol)} within {max_terms} terms")


def _log_via_qexp(q: Fraction, z, tol: float, max_terms: int) -> Evaluation:
    """log(E_q(z)) with the log-propagation error tail / (|E| - tail) <= tol.

    E_q(z) is summed at tol, then at tol |E| / 2 for the last |E|, until the
    bound holds; a tightened tol that underflows to 0.0 or does not fall
    raises ConvergenceError. Near a zero of E_q a binary64 sum's own
    rounding, divided by |E|, is outside the bound.
    """
    inner_tol = tol
    while True:
        inner = eval_qexp(q, z, inner_tol, max_terms)
        magnitude = abs(inner.value)
        # the value shows the sign of E_q(z) only once it passes its tail bound
        if magnitude <= inner.tail_bound:
            raise DomainError(
                f"cannot certify E_q(z) != 0 at q = {shown(q)}, z = {shown(z)}: "
                f"|value| = {magnitude} within tail bound {inner.tail_bound}"
            )
        if not isinstance(inner.value, complex) and inner.value <= 0:
            raise DomainError(
                f"ln E_q(z) undefined: E_q({shown(z)}) = {inner.value} <= 0 "
                f"at q = {shown(q)}"
            )
        propagated = inner.tail_bound / (magnitude - inner.tail_bound)
        if propagated <= tol:
            log_value = (cmath.log(inner.value) if isinstance(inner.value, complex)
                         else math.log(inner.value))
            return Evaluation(log_value, inner.order, _tail(propagated, inner.tail_bound > 0),
                              "log_of_qexp")
        tighter = tol * magnitude / 2
        if not 0 < tighter < inner_tol:
            raise ConvergenceError(
                f"could not certify tol={shown(tol)} for ln E_q(z) at q = {shown(q)}, "
                f"z = {shown(z)}"
            )
        inner_tol = tighter
