"""Verification of the q-exponential identities, with structured reports.

Each check is a pure function returning a :class:`VerificationReport`.
Every check is exact: it demands literally zero residuals, and there is no
epsilon anywhere. The root-of-unity product, whose roots of unity are
irrational, is taken through the paper's logarithm ln E_q = sum_k c_k z^k,
where it becomes a relation between series in z^n with rational
coefficients.

qbinomial_sum and the reciprocal, reflection and scaling products run in
the divided-power basis z^k/[k]_Q!, Q = q or q^n, where a product is a
convolution with Gaussian binomials (:func:`_divided_product`). For
Q = a/b those are integers from one Pascal sweep over a known power of b,
so every coefficient is an integer over a power of b known in advance, the
two sides are compared by cross-multiplying integers, and no gcd is taken.
Only a failing k is reduced, to the same Fraction f_k - g_k that
:class:`~qexpseries.series.TruncatedSeries` arithmetic gives. The product
uses no c_k, so these identities stay independent of the coefficient ones.

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
from itertools import accumulate, islice

from .errors import DomainError
from .qexp import _log_coeff_pairs, log_coeffs_closed, qexp_series
from .qnumbers import _pascal_numerators, q_number, q_number_numerators
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
    of sum_j w_j z^j / [j]_q!, w_j = (1-q)^(j-1) [j-1]_q!, with E_q(z), whose
    x_j are 1. For q = a/b, w_j is (b-a)^(j-1) S_1 .. S_(j-1) over
    b^(j(j-1)/2), so each row is one integer sum over b^(k(k-1)/2).
    """
    qp = as_qparam(q)
    check_int(k_max, "k_max", 2)
    a, b = qp.value.as_integer_ratio()
    weights = accumulate(islice(q_number_numerators(qp), k_max - 1),
                         lambda w, number: w * (b - a) * number, initial=1)
    ones = _ones(b, k_max)
    product = _divided_product(qp, 1, ([0, *weights], ones))
    residuals = [(k, Fraction(total, one) - k)
                 for k, (total, one) in enumerate(zip(product, ones))
                 if k >= 2 and total != k * one]
    return _exact_report(QBINOMIAL_SUM, qp, {"k_min": 2, "k_max": k_max}, residuals)


def check_reciprocal_product(q, order: int = 32) -> VerificationReport:
    """E_q(z) E_{1/q}(-z) = 1 coefficientwise, exactly.

    This is the inverse relation between the two Jackson q-exponentials
    (E_{1/q}(z) carries the q^(k(k-1)/2) weights of the second kind). The
    sign in the second argument is forced by the sign-flip identity
    c_k(1/q) = (-1)^(k-1) c_k(q): it gives ln E_{1/q}(-z) = -ln E_q(z).
    At q = 1 the statement degenerates to exp(z) exp(-z) = 1 and still holds.
    The product is taken in the divided-power basis of q, where it must be
    1, 0, 0, ...; that needs no q-factorial, so only a failure builds one.
    """
    qp = as_qparam(q)
    check_int(order, "order", 1)
    params = {"order": order}
    note = "degenerates to exp(z) exp(-z) = 1" if qp.value == 1 else ""
    a, b = qp.value.as_integer_ratio()
    # [k]_{1/q}! = q^(-k(k-1)/2) [k]_q!, so E_{1/q}(-z) has x_k = (-1)^k q^(k(k-1)/2)
    inverse = [(-1) ** k * a ** (k * (k - 1) // 2) for k in range(order + 1)]
    product = _divided_product(qp, 1, (_ones(b, order), inverse))
    residuals = ()
    if product != [1] + [0] * order:
        one = [(1, 1)] + [(0, 1)] * order
        residuals = _residuals(_coefficients(qp, 1, 0, product), one)
    return _exact_report(RECIPROCAL_PRODUCT, qp, params, residuals, note)


def check_reflection_product(q, order: int = 32) -> VerificationReport:
    """E_q(z) E_q(-z) = E_{q^2}((1-q)/(1+q) z^2) coefficientwise, exactly.

    The left side is taken in the divided-power basis of q, where the two
    factors have x_k = 1 and x_k = (-1)^k.
    """
    qp = as_qparam(q)
    check_int(order, "order", 2)
    ones = _ones(qp.value.denominator, order)
    signs = [(-1) ** k * one for k, one in enumerate(ones)]
    lhs = _coefficients(qp, 1, 0, _divided_product(qp, 1, (ones, signs)))
    scale = (1 - qp.value) / (1 + qp.value)
    rhs = qexp_series(qp.power(2), order).series.scale_substitute(scale, 2)
    return _exact_report(REFLECTION_PRODUCT, qp, {"order": order},
                         _residuals(lhs, map(Fraction.as_integer_ratio, rhs.coeffs)))


def check_scaling_product(q, n: int, order: int = 32) -> VerificationReport:
    """E_q([n]_q z) = prod_{m=0}^{n-1} E_{q^n}(q^m z) coefficientwise, exactly.

    The right side is taken in the divided-power basis of q^n, where factor m
    has x_k = q^(mk).
    """
    qp = as_qparam(q)
    check_int(n, "n", 2)
    check_int(order, "order", 1)
    lhs = qexp_series(qp, order).series.scale_substitute(q_number(n, qp))
    a, b = qp.value.as_integer_ratio()
    # x_k = q^(mk) over b^(n k(k-1)/2 + (n-1) k): the offset c = n - 1 keeps
    # every numerator an integer
    factors = [[a ** (m * k) * b ** (n * k * (k - 1) // 2 + (n - 1 - m) * k)
                for k in range(order + 1)] for m in range(n)]
    rhs = _coefficients(qp, n, n - 1, _divided_product(qp, n, factors))
    return _exact_report(SCALING_PRODUCT, qp, {"n": n, "order": order},
                         _residuals(map(Fraction.as_integer_ratio, lhs.coeffs), rhs))


def _divided_product(qp: QParam, n: int, factors) -> "list[int]":
    """The product of series sum_k x_k z^k / [k]_Q!, Q = q^n, in the same
    divided-power basis, where its x_k is sum_i [k ch i]_Q x_i y_(k-i).

    For q = a/b each factor is given by integers X_k, x_k = X_k / b^(e_k)
    with e_k = n k(k-1)/2 + c k for one c >= 0 shared by all factors, and so
    is the result. As [k ch i]_Q = G_{k,i} / b^(n i(k-i)) and
    n i(k-i) + e_i + e_(k-i) = e_k, the product's X_k is the integer sum
    sum_i G_{k,i} X_i Y_(k-i), with G from the integer Pascal sweep: no
    Fraction is built and no gcd is taken.
    """
    rows = list(islice(_pascal_numerators(qp.power(n)), len(factors[0])))
    product = factors[0]
    for factor in factors[1:]:
        product = [sum(map(operator.mul, map(operator.mul, row, product),
                           reversed(factor[:k + 1])))
                   for k, row in enumerate(rows)]
    return product


def _ones(b: int, order: int) -> "list[int]":
    """E_q(z) for q = a/b in the divided-power basis of q, with c = 0:
    x_k = 1 = b^(k(k-1)/2) / b^(k(k-1)/2) for k = 0..order."""
    return [b ** (k * (k - 1) // 2) for k in range(order + 1)]


def _coefficients(qp: QParam, n: int, c: int, product):
    """The power-series coefficients x_k / [k]_Q!, Q = q^n, of a
    :func:`_divided_product` with offset c, as unreduced integer pairs
    (X_k, b^(c k) F_k): [k]_Q! = F_k / b^(n k(k-1)/2), F_k = S_1 .. S_k from
    the q-number sweep of Q."""
    step = qp.value.denominator ** c
    den = 1
    for num, number in zip(product, q_number_numerators(qp.power(n))):
        yield num, den
        den *= step * number


def _residuals(lhs, rhs):
    """(k, f_k - g_k) at each k where f_k = lhs[k] and g_k = rhs[k], both
    integer pairs (numerator, positive denominator), differ. Equality is
    tested by cross-multiplying; only a failing k is reduced to Fractions."""
    for k, ((num, den), (other, other_den)) in enumerate(zip(lhs, rhs)):
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
    c = log_coeffs_closed(order, qp).values
    lhs = TruncatedSeries([n * c_k for c_k in c[::n]]).exp()
    scale = (1 - qp.value) ** (n - 1) / q_number(n, qp)
    rhs = qexp_series(qp.power(n), order // n).series.scale_substitute(scale)
    residuals = ((n * j, r) for j, r in enumerate(lhs.compare(rhs)))
    return _exact_report(ROOT_OF_UNITY_PRODUCT, qp, {"n": n, "order": order}, residuals)


def check_coeff_sign_flip(q, k_max: int = 64) -> VerificationReport:
    """c_k(1/q) = (-1)^(k-1) c_k(q) for k = 1..k_max, exactly."""
    qp = as_qparam(q)
    check_int(k_max, "k_max", 1)
    c_q = log_coeffs_closed(k_max, qp)
    c_inv = log_coeffs_closed(k_max, qp.inverse())
    residuals = []
    sign = 1
    for k in range(1, k_max + 1):
        residuals.append((k, c_inv.coeff(k) - sign * c_q.coeff(k)))
        sign = -sign
    return _exact_report(COEFF_SIGN_FLIP, qp, {"k_max": k_max}, residuals)


def check_coeff_double_order(q, k_max: int = 64) -> VerificationReport:
    """2 c_{2k}(q) = ((1-q)/(1+q))^k c_k(q^2) for k = 1..k_max, exactly.

    This is the multiple-order identity at n = 2, as [2]_q = 1 + q, and it
    runs that check's residual loop.
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
    c_q = log_coeffs_closed(k_max, qp)
    c_qn = log_coeffs_closed(k_max, qp.power(n))
    n_q = q_number(n, qp)
    npow = n_q                 # ([n]_q)^k
    residuals = []
    for k in range(1, k_max + 1):
        lhs = q_number(n, qp.power(k)) * c_qn.coeff(k)
        residuals.append((k, lhs - npow * c_q.coeff(k)))
        npow *= n_q
    return _exact_report(COEFF_POWER_SCALE, qp, {"n": n, "k_max": k_max}, residuals)


def check_coeff_multiple_order(q, n: int, k_max: int = 64) -> VerificationReport:
    """n c_{nk}(q) = ((1-q)^(n-1)/[n]_q)^k c_k(q^n) for k = 1..k_max, exactly."""
    qp = as_qparam(q)
    check_int(n, "n", 2)
    check_int(k_max, "k_max", 1)
    return _exact_report(COEFF_MULTIPLE_ORDER, qp, {"n": n, "k_max": k_max},
                         _multiple_order_residuals(qp, n, k_max))


def _multiple_order_residuals(qp: QParam, n: int, k_max: int):
    """(k, n c_{nk}(q) - ((1-q)^(n-1)/[n]_q)^k c_k(q^n)) for k = 1..k_max;
    c_n, c_2n, .. of q are read from one stepped closed-form sweep."""
    c_nk = islice(_log_coeff_pairs(qp), n - 1, n * k_max, n)
    c_qn = log_coeffs_closed(k_max, qp.power(n))
    factor = (1 - qp.value) ** (n - 1) / q_number(n, qp)
    fpow = factor
    for k, (num, den) in enumerate(c_nk, 1):
        yield k, Fraction(n * num, den) - fpow * c_qn.coeff(k)
        fpow *= factor


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
