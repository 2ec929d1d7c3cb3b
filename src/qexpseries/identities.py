"""Verification of the q-exponential identities, with structured reports.

Each check is a pure function returning a :class:`VerificationReport`.
Every check is exact: it demands literally zero residuals, and there is no
epsilon anywhere. The root-of-unity product, whose roots of unity are
irrational, is taken through the paper's logarithm ln E_q = sum_k c_k z^k,
where it becomes a relation between series in z^n with rational
coefficients.

Every check compares its two sides as streams of unreduced integer pairs
(numerator, denominator), by cross-multiplying in :func:`_residuals`: no
gcd is taken, and only a failing k is reduced, to the same Fraction
f_k - g_k that :meth:`~qexpseries.series.TruncatedSeries.compare` gives.
The coefficient checks read c_k as the closed-form pairs
((b-a)^(k-1), k S_k) for q = a/b, [k]_q = S_k / b^(k-1). qbinomial_sum and
the reciprocal, reflection and scaling products run in the divided-power
basis z^k/[k]_Q!, Q = q or q^n, where one factor of every product is
E_Q(q^m z), 0 <= m < n; reflection takes E_q(-z) E_q(z). As
D_Q E_Q(beta z) = beta E_Q(beta z), the q-Leibniz rule takes the product
with no Gaussian binomial (:func:`_leibniz`). Every coefficient is an
integer over a power of b known in advance, and each of the N^2/2 steps,
F_j <- F_(j+1) + a^(m+nj) b^(nk+n-1-m) F_j, multiplies a tall F_j, of
about n (j+k)^2/2 log2 b bits, by a short factor of O(n (j+k)) bits. The
closed-form sides E_Q(s z) are integer pairs from the q-number sweep
(:func:`_scaled_qexp`). The product uses no c_k, so these identities stay
independent of the coefficient ones.

The checked identities, with E = E_q the q-exponential and c_k = c_k(q) the
log coefficients (1-q)^(k-1)/(k [k]_q):

* qbinomial_sum:          sum_{j=1}^{k} [k ch j]_q (1-q)^(j-1) [j-1]_q! = k
* reciprocal_product:     E_q(z) E_{1/q}(-z) = 1
* reflection_product:     E_q(z) E_q(-z) = E_{q^2}((1-q)/(1+q) z^2)
* scaling_product:        E_q([n]_q z) = prod_{m=0}^{n-1} E_{q^n}(q^m z)
* root_of_unity_product:  prod_{m=0}^{n-1} E_q(w^m z) = E_{q^n}((1-q)^(n-1)/[n]_q z^n),
                          w = exp(2 pi i / n)
* coeff_sign_flip:        c_k(1/q) = (-1)^(k-1) c_k(q)
* coeff_double_order:     2 c_{2k}(q) = ((1-q)/(1+q))^k c_k(q^2)
* coeff_power_scale:      [n]_{q^k} c_k(q^n) = ([n]_q)^k c_k(q)
* coeff_multiple_order:   n c_{nk}(q) = ((1-q)^(n-1)/[n]_q)^k c_k(q^n)
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence, Set as AbstractSet
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, count, cycle, islice, repeat

from .errors import DomainError
from .qexp import _log_coeff_pairs
from .qnumbers import _q_number_pair, q_number_numerators
from .scalars import QParam, as_qparam, check_int, rational_str, shown
from .series import TruncatedSeries

EXACT = "exact"

QBINOMIAL_SUM = "qbinomial_sum"
RECIPROCAL_PRODUCT = "reciprocal_product"
REFLECTION_PRODUCT = "reflection_product"
SCALING_PRODUCT = "scaling_product"
ROOT_OF_UNITY_PRODUCT = "root_of_unity_product"
COEFF_SIGN_FLIP = "coeff_sign_flip"
COEFF_DOUBLE_ORDER = "coeff_double_order"
COEFF_POWER_SCALE = "coeff_power_scale"
COEFF_MULTIPLE_ORDER = "coeff_multiple_order"

_WORST = 5


@dataclass(frozen=True)
class VerificationReport:
    """Structured outcome of one identity check.

    ``residuals`` holds the worst offenders as (index, residual) pairs,
    the largest first; only nonzero residuals are kept, so a pass has none.
    ``mode`` is always :data:`EXACT`.
    """

    identity: str
    q: QParam
    params: dict
    mode: str
    passed: bool
    residuals: tuple
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "identity": self.identity,
            "q": rational_str(self.q.value),
            "params": dict(self.params),
            "mode": self.mode,
            "passed": self.passed,
            "worst_residuals": [[k, rational_str(r)] for k, r in self.residuals],
        }
        if self.note:
            out["note"] = self.note
        return out


def _exact_report(identity, qp, params, residuals, note="") -> VerificationReport:
    offenders = [(k, r) for k, r in residuals if r != 0]
    offenders.sort(key=lambda kr: (-abs(kr[1]), kr[0]))
    return VerificationReport(identity, qp, params, EXACT,
                              not offenders, tuple(offenders[:_WORST]), note)


def check_qbinomial_sum(q, k_max: int = 40) -> VerificationReport:
    """sum_{j=1}^{k} [k choose j]_q (1-q)^(j-1) [j-1]_q! = k for k = 2..k_max.

    Row k is coefficient k, in the divided-power basis of q, of the product
    of sum_j w_j z^j / [j]_q!, w_j = (1-q)^(j-1) [j-1]_q!, with E_q(z). For
    q = a/b, w_j is (b-a)^(j-1) S_1 .. S_(j-1) over b^(j(j-1)/2), so each
    row is one integer over b^(k(k-1)/2).
    """
    qp = as_qparam(q)
    check_int(k_max, "k_max", 2)
    a, b = qp.value.as_integer_ratio()
    weights = accumulate(islice(q_number_numerators(qp), k_max - 1),
                         lambda w, number: w * (b - a) * number, initial=1)
    product = _leibniz(qp, 1, [0, *weights])
    residuals = _residuals(count(2), zip(product[2:], _geometric(1, b, k_max)[2:]),
                           ((k, 1) for k in count(2)))
    return _exact_report(QBINOMIAL_SUM, qp, {"k_min": 2, "k_max": k_max}, residuals)


def check_reciprocal_product(q, order: int = 32) -> VerificationReport:
    """E_q(z) E_{1/q}(-z) = 1 coefficientwise, exactly.

    This is the inverse relation between the two Jackson q-exponentials
    (E_{1/q}(z) carries the q^(k(k-1)/2) weights of the second kind). The
    sign in the second argument is forced by the sign-flip identity
    c_k(1/q) = (-1)^(k-1) c_k(q): it gives ln E_{1/q}(-z) = -ln E_q(z).
    At q = 1 the statement degenerates to exp(z) exp(-z) = 1 and still holds.
    The product is taken in the divided-power basis of q, where it must be
    1, 0, 0, and so on.
    """
    qp = as_qparam(q)
    check_int(order, "order", 1)
    params = {"order": order}
    note = "degenerates to exp(z) exp(-z) = 1" if qp.value == 1 else ""
    # [k]_{1/q}! = q^(-k(k-1)/2) [k]_q!, so E_{1/q}(-z) has x_k = (-1)^k q^(k(k-1)/2)
    product = _leibniz(qp, 1, _geometric(-1, qp.value.numerator, order))
    residuals = _residuals(count(), _coefficients(qp, 1, 1, product), [(1, 1)] + [(0, 1)] * order)
    return _exact_report(RECIPROCAL_PRODUCT, qp, params, residuals, note)


def check_reflection_product(q, order: int = 32) -> VerificationReport:
    """E_q(z) E_q(-z) = E_{q^2}((1-q)/(1+q) z^2) coefficientwise, exactly.

    The left side is E_q(-z), x_k = (-1)^k in the divided-power basis of q,
    times E_q(z). The right side's coefficient of z^(2j) is s^j / [j]_{q^2}!,
    s = (1-q)/(1+q) = (b-a)/(b+a) for q = a/b, and its odd ones are 0.
    """
    qp = as_qparam(q)
    check_int(order, "order", 2)
    a, b = qp.value.as_integer_ratio()
    lhs = _coefficients(qp, 1, 1, _leibniz(qp, 1, _geometric(-1, b, order)))
    rhs = chain.from_iterable(zip(_scaled_qexp(qp, 2, (b - a, b + a), order // 2),
                                  repeat((0, 1))))
    return _exact_report(REFLECTION_PRODUCT, qp, {"order": order}, _residuals(count(), lhs, rhs))


def check_scaling_product(q, n: int, order: int = 32) -> VerificationReport:
    """E_q([n]_q z) = prod_{m=0}^{n-1} E_{q^n}(q^m z) coefficientwise, exactly.

    The right side is E_{q^n}(z), x_k = 1 in the divided-power basis of
    q^n, times E_{q^n}(q^m z) for m = 1..n-1.
    """
    qp = as_qparam(q)
    check_int(n, "n", 2)
    check_int(order, "order", 1)
    a, b = qp.value.as_integer_ratio()
    lhs = _scaled_qexp(qp, 1, _q_number_pair(n, a, b), order)
    # x_k = 1 over b^(n k(k-1)/2 + (n-1) k), the kernel's denominators
    product = _geometric(b ** (n - 1), b ** n, order)
    for m in range(1, n):
        product = _leibniz(qp, n, product, m)
    rhs = _coefficients(qp, n, b ** (n - 1), product)
    return _exact_report(SCALING_PRODUCT, qp, {"n": n, "order": order},
                         _residuals(count(), lhs, rhs))


def _leibniz(qp: QParam, n: int, f: "list[int]", m: int = 0) -> "list[int]":
    """The product of sum_j x_j z^j / [j]_Q!, Q = q^n, with E_Q(q^m z),
    0 <= m < n, in the same divided-power basis.

    For q = a/b, f holds the integers X_j, x_j = X_j / b^(e_j) with
    e_j = n j(j-1)/2 + (n-1) j, and so does the result. As
    D_Q E_Q(beta z) = beta E_Q(beta z), beta = q^m, the q-Leibniz rule gives
    D_Q(g E_Q(beta z)) = (L g) E_Q(beta z) with (L g)_j = g_(j+1) + beta Q^j g_j,
    so the product's x_k is (L^k f)_0. Level k of L^k f, held over
    b^(e_(j+k)), steps to level k+1 by the integer rule

        F_j <- F_(j+1) + a^(m+nj) b^(nk+n-1-m) F_j,

    a big integer times a short one: no binomial is formed and no gcd is
    taken.
    """
    a, b = qp.value.as_integer_ratio()
    lifts = [a ** (m + n * j) for j in range(len(f) - 1)]
    shift, step = b ** (n - 1 - m), b ** n     # b^(nk+n-1-m) at k = 0, and its step in k
    product = [f[0]]
    for _ in lifts:
        f = [high + lift * shift * low for high, lift, low in zip(f[1:], lifts, f)]
        product.append(f[0])
        shift *= step
    return product


def _geometric(ratio: int, base: int, order: int) -> "list[int]":
    """ratio^k base^(k(k-1)/2) for k = 0..order, by one running product."""
    return list(accumulate((ratio * base ** k for k in range(order)), operator.mul, initial=1))


def _coefficients(qp: QParam, n: int, step: int, numerators):
    """The power-series coefficients of sum_k X_k / step^k z^k / [k]_Q!,
    Q = q^n, as unreduced integer pairs (X_k, step^k F_k): [k]_Q! =
    F_k / b^(n k(k-1)/2), F_k = S_1 .. S_k from the q-number sweep of Q.
    A :func:`_leibniz` product has step b^(n-1)."""
    den = 1
    for num, number in zip(numerators, q_number_numerators(qp.power(n))):
        yield num, den
        den *= step * number


def _scaled_qexp(qp: QParam, n: int, scale: "tuple[int, int]", order: int):
    """E_Q(s z), Q = q^n, s = num/den given as ``scale``, through z^order as
    the integer pairs (num^k b^(n k(k-1)/2), den^k F_k) of :func:`_coefficients`."""
    num, den = scale
    return _coefficients(qp, n, den, _geometric(num, qp.value.denominator ** n, order))


def _residuals(index, lhs, rhs):
    """(k, f_k - g_k) for k from ``index`` wherever f_k and g_k, the next
    integer pairs (numerator, nonzero denominator) of ``lhs`` and ``rhs``,
    differ, up to the end of the shortest stream. Equality is tested by
    cross-multiplying, and only a failing k is reduced to Fractions."""
    for k, (num, den), (other, other_den) in zip(index, lhs, rhs):
        if num * other_den != other * den:
            yield k, Fraction(num, den) - Fraction(other, other_den)


def check_root_of_unity_product(q, n: int, order: int = 32) -> VerificationReport:
    """prod_{m=0}^{n-1} E_q(w^m z) = E_{q^n}((1-q)^(n-1)/[n]_q z^n) for
    w = exp(2 pi i / n), through z^order, exactly.

    With ln E_q(z) = sum_k c_k z^k, the left side is
    exp(sum_k c_k z^k sum_m w^(mk)), and sum_m w^(mk) is n when n | k and 0
    otherwise. So the product is exp(n sum_j c_{nj} z^(nj)), a series in
    t = z^n with rational coefficients: the coefficients at k != 0 (mod n)
    vanish identically. It is compared, exactly, with the defining series
    sum_j (s t)^j / [j]_{q^n}! of the right side, s = (1-q)^(n-1)/[n]_q,
    which does not use the closed form; residuals are indexed by k = n j.
    """
    qp = as_qparam(q)
    check_int(n, "n", 2)
    check_int(order, "order", 1)
    c_nj = (Fraction(n * num, den) for num, den in _stepped(qp, n, order // n))
    lhs = TruncatedSeries([0, *c_nj]).exp()
    a, b = qp.value.as_integer_ratio()
    # s = (1-q)^(n-1) / [n]_q = (b-a)^(n-1) / S_n
    rhs = _scaled_qexp(qp, n, ((b - a) ** (n - 1), _q_number_pair(n, a, b)[0]), order // n)
    residuals = _residuals(count(0, n), map(Fraction.as_integer_ratio, lhs.coeffs), rhs)
    return _exact_report(ROOT_OF_UNITY_PRODUCT, qp, {"n": n, "order": order}, residuals)


def check_coeff_sign_flip(q, k_max: int = 64) -> VerificationReport:
    """c_k(1/q) = (-1)^(k-1) c_k(q) for k = 1..k_max, exactly."""
    qp = as_qparam(q)
    check_int(k_max, "k_max", 1)
    flipped = map(_times, cycle(((1, 1), (-1, 1))), _log_coeff_pairs(qp))
    residuals = _residuals(range(1, k_max + 1), _log_coeff_pairs(qp.inverse()), flipped)
    return _exact_report(COEFF_SIGN_FLIP, qp, {"k_max": k_max}, residuals)


def check_coeff_double_order(q, k_max: int = 64) -> VerificationReport:
    """2 c_{2k}(q) = ((1-q)/(1+q))^k c_k(q^2) for k = 1..k_max, exactly.

    This is the multiple-order identity at n = 2, as [2]_q = 1 + q, and it
    runs that check's comparison.
    """
    qp = as_qparam(q)
    check_int(k_max, "k_max", 1)
    return _exact_report(COEFF_DOUBLE_ORDER, qp, {"k_max": k_max},
                         _multiple_order_residuals(qp, 2, k_max))


def check_coeff_power_scale(q, n: int, k_max: int = 64) -> VerificationReport:
    """[n]_{q^k} c_k(q^n) = ([n]_q)^k c_k(q) for k = 1..k_max, exactly."""
    qp = as_qparam(q)
    check_int(n, "n", 2)
    check_int(k_max, "k_max", 1)
    a, b = qp.value.as_integer_ratio()
    s_n, b_n = _q_number_pair(n, a, b)
    n_qk = (_q_number_pair(n, a ** k, b ** k) for k in count(1))    # [n]_{q^k}
    lhs = map(_times, n_qk, _log_coeff_pairs(qp.power(n)))
    rhs = map(_times, ((s_n ** k, b_n ** k) for k in count(1)), _log_coeff_pairs(qp))
    return _exact_report(COEFF_POWER_SCALE, qp, {"n": n, "k_max": k_max},
                         _residuals(range(1, k_max + 1), lhs, rhs))


def check_coeff_multiple_order(q, n: int, k_max: int = 64) -> VerificationReport:
    """n c_{nk}(q) = ((1-q)^(n-1)/[n]_q)^k c_k(q^n) for k = 1..k_max, exactly."""
    qp = as_qparam(q)
    check_int(n, "n", 2)
    check_int(k_max, "k_max", 1)
    return _exact_report(COEFF_MULTIPLE_ORDER, qp, {"n": n, "k_max": k_max},
                         _multiple_order_residuals(qp, n, k_max))


def _multiple_order_residuals(qp: QParam, n: int, k_max: int):
    """The residuals of n c_{nk}(q) = ((1-q)^(n-1)/[n]_q)^k c_k(q^n), k = 1..k_max;
    for q = a/b the factor is (b-a)^(n-1) / S_n, as [n]_q = S_n / b^(n-1)."""
    c_nk = ((n * num, den) for num, den in _stepped(qp, n, k_max))
    a, b = qp.value.as_integer_ratio()
    s_n, _ = _q_number_pair(n, a, b)
    factors = (((b - a) ** (k * (n - 1)), s_n ** k) for k in count(1))
    return _residuals(count(1), c_nk, map(_times, factors, _log_coeff_pairs(qp.power(n))))


def _stepped(qp: QParam, n: int, k_max: int):
    """c_n, c_2n, .., c_{n k_max} of q as pairs, from one stepped closed-form sweep."""
    return islice(_log_coeff_pairs(qp), n - 1, check_int(n * k_max, "n * k_max"), n)


def _times(x, y):
    """The product of two integer pairs (numerator, denominator), unreduced."""
    return x[0] * y[0], x[1] * y[1]


#: The suite's identity table: the arguments each check takes after q, as
#: SuiteConfig fields, where "n" is the factor count the suite sweeps. The
#: check is looked up by its module-global name check_<identity> when it runs.
_ARGUMENTS = {
    COEFF_DOUBLE_ORDER: ("k_max",),
    COEFF_MULTIPLE_ORDER: ("n", "k_max"),
    COEFF_POWER_SCALE: ("n", "k_max"),
    COEFF_SIGN_FLIP: ("k_max",),
    QBINOMIAL_SUM: ("k_max",),
    RECIPROCAL_PRODUCT: ("order",),
    REFLECTION_PRODUCT: ("order",),
    ROOT_OF_UNITY_PRODUCT: ("n", "order"),
    SCALING_PRODUCT: ("n", "order"),
}

#: Identity names in canonical (sorted) report order.
ALL_IDENTITIES = tuple(sorted(_ARGUMENTS))

#: Identities parameterized by a factor count n >= 2.
PER_N_IDENTITIES = frozenset(name for name, args in _ARGUMENTS.items() if "n" in args)

#: q grid covering both regimes; the suite default.
DEFAULT_QS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
              Fraction(3, 2), Fraction(2), Fraction(5, 2))
DEFAULT_NS = (2, 3, 4, 5)


@dataclass(frozen=True)
class SuiteConfig:
    """Parameter grid for :func:`run_suite`.

    ``order`` is the truncation order of the four product checks and
    ``k_max`` bounds the coefficient sweeps.
    """

    qs: tuple = DEFAULT_QS
    ns: tuple = DEFAULT_NS
    order: int = 32
    k_max: int = 64
    checks: tuple = ALL_IDENTITIES


def run_suite(config: SuiteConfig = SuiteConfig()) -> "tuple[VerificationReport, ...]":
    """Run the selected checks over the grid.

    Deterministic: reports are ordered by identity name, then q, then n,
    and identical inputs produce byte-identical JSON. ``qs``, ``ns`` and
    ``checks`` must each be a sequence (or set), never a lone value or a
    string, and each is deduplicated; each q must be a valid
    :class:`QParam` value (floats are rejected) and each n an integer >= 2.
    """
    checks, qs, ns = (_grid(config, name) for name in ("checks", "qs", "ns"))
    unknown = sorted(set(checks) - set(ALL_IDENTITIES))
    if unknown:
        raise DomainError(f"unknown identity check(s): {', '.join(unknown)}")
    qps = sorted({as_qparam(q) for q in qs}, key=lambda qp: qp.value)
    ns = sorted({check_int(n, "n", 2) for n in ns})
    reports = []
    for identity in sorted(set(checks)):
        for qp in qps:
            for n in ns if identity in PER_N_IDENTITIES else (None,):
                reports.append(_dispatch(identity, qp, config, n))
    return tuple(reports)


def _grid(config: SuiteConfig, name: str):
    """The grid field ``name`` of ``config``: a sequence or a set of values,
    never a lone value or a string, which would iterate as its characters."""
    values = getattr(config, name)
    if isinstance(values, (str, bytes)) or not isinstance(values, (Sequence, AbstractSet)):
        raise DomainError(f"{name} must be a sequence of values, got {shown(values)}")
    return values


def _dispatch(identity, qp, config: SuiteConfig, n):
    args = (n if name == "n" else getattr(config, name) for name in _ARGUMENTS[identity])
    return globals()[f"check_{identity}"](qp, *args)


def reports_to_json(reports) -> str:
    """Stable JSON for a report list (schema-stable, byte-deterministic)."""
    return json.dumps([r.to_json() for r in reports], sort_keys=True, indent=2)
