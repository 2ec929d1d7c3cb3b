"""Verification of the q-exponential identities, with structured reports.

Each check is a pure function returning a :class:`VerificationReport`.
Exact-mode checks demand literally zero residuals -- there is no epsilon
anywhere in the exact path. The root-of-unity product is the one numeric
check (roots of unity are irrational): it converts the exact series to
binary64 complex coefficients itself, multiplies them with compensated
sums and compares against a fixed tolerance. Its coefficient-level
counterpart :func:`check_coeff_multiple_order` covers the same content
exactly and is the source of truth.

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

import cmath
import functools
import json
import math
import operator
from collections.abc import Sequence, Set as AbstractSet
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat

from .errors import DomainError
from .qexp import _log_coeff_pairs, log_coeffs_closed, qexp_series
from .qnumbers import q_number, q_numbers
from .scalars import QParam, Regime, as_qparam, check_int, rational_str
from .series import TruncatedSeries, _dot

EXACT = "exact"
NUMERIC = "numeric"

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

#: Residual bound of the root-of-unity product. Over 14 q from 1/100 to 7,
#: n <= 11 and order <= 96 the largest residual measured is 8.5e-14.
_ROOT_OF_UNITY_TOL = 1e-12


@dataclass(frozen=True)
class VerificationReport:
    """Structured outcome of one identity check.

    ``residuals`` holds the worst offenders as (index, residual) pairs:
    in exact mode only nonzero residuals are kept (so a pass has none);
    in numeric mode the largest magnitudes are kept for context even when
    the check passes.
    """

    identity: str
    q: QParam
    params: dict
    mode: str
    passed: bool
    residuals: tuple
    tol: "float | None" = None
    note: str = ""

    def to_json(self) -> dict:
        worst = [
            [k, rational_str(r) if isinstance(r, Fraction) else float(r)]
            for k, r in self.residuals
        ]
        out = {
            "identity": self.identity,
            "q": rational_str(self.q.value),
            "params": dict(self.params),
            "mode": self.mode,
            "passed": self.passed,
            "worst_residuals": worst,
        }
        if self.tol is not None:
            out["tol"] = self.tol
        if self.note:
            out["note"] = self.note
        return out


def _exact_report(identity, qp, params, residuals, note="") -> VerificationReport:
    offenders = [(k, r) for k, r in residuals if r != 0]
    offenders.sort(key=lambda kr: (-abs(kr[1]), kr[0]))
    return VerificationReport(identity, qp, params, EXACT,
                              not offenders, tuple(offenders[:_WORST]), None, note)


def _numeric_report(identity, qp, params, residuals, tol, note="") -> VerificationReport:
    passed = all(r <= tol for _, r in residuals)
    worst = sorted(residuals, key=lambda kr: (-kr[1], kr[0]))[:_WORST]
    return VerificationReport(identity, qp, params, NUMERIC,
                              passed, tuple(worst), float(tol), note)


def check_qbinomial_sum(q, k_max: int = 40) -> VerificationReport:
    """sum_{j=1}^{k} [k choose j]_q (1-q)^(j-1) [j-1]_q! = k for k = 2..k_max.

    As [k choose j]_q [j-1]_q! = [k]_q [k-1]_q ... [k-j+1]_q / [j]_q, row k
    sums the falling products of one q-number sweep against the weights
    (1-q)^(j-1) / [j]_q.
    """
    qp = as_qparam(q)
    check_int(k_max, "k_max", 2)
    numbers = list(islice(q_numbers(qp), k_max))    # [1]_q .. [k_max]_q
    shifts = accumulate(repeat(1 - qp.value, k_max - 1), operator.mul, initial=Fraction(1))
    weights = [shift / number for shift, number in zip(shifts, numbers)]
    residuals = []
    for k in range(2, k_max + 1):
        falling = accumulate(reversed(numbers[:k]), operator.mul)
        residuals.append((k, _dot(zip(repeat(1), falling, weights)) - k))
    return _exact_report(QBINOMIAL_SUM, qp, {"k_min": 2, "k_max": k_max}, residuals)


def check_reciprocal_product(q, order: int = 32) -> VerificationReport:
    """E_q(z) E_{1/q}(-z) = 1 coefficientwise, exactly.

    This is the inverse relation between the two Jackson q-exponentials
    (E_{1/q}(z) carries the q^(k(k-1)/2) weights of the second kind). The
    sign in the second argument is forced by the sign-flip identity
    c_k(1/q) = (-1)^(k-1) c_k(q): it gives ln E_{1/q}(-z) = -ln E_q(z).
    At q = 1 the statement degenerates to exp(z) exp(-z) = 1 and still holds.
    """
    qp = as_qparam(q)
    check_int(order, "order", 1)
    params = {"order": order}
    note = "degenerates to exp(z) exp(-z) = 1" if qp.regime is Regime.ONE else ""
    lhs = (qexp_series(qp, order).series
           * qexp_series(qp.inverse(), order).series.scale_substitute(-1))
    residuals = enumerate(lhs.compare(TruncatedSeries.one(order)))
    return _exact_report(RECIPROCAL_PRODUCT, qp, params, residuals, note)


def check_reflection_product(q, order: int = 32) -> VerificationReport:
    """E_q(z) E_q(-z) = E_{q^2}((1-q)/(1+q) z^2) coefficientwise, exactly."""
    qp = as_qparam(q)
    check_int(order, "order", 2)
    base = qexp_series(qp, order).series
    lhs = base * base.scale_substitute(-1)
    scale = (1 - qp.value) / (1 + qp.value)
    rhs = qexp_series(qp.power(2), order).series.scale_substitute(scale, 2)
    return _exact_report(REFLECTION_PRODUCT, qp, {"order": order},
                         enumerate(lhs.compare(rhs)))


def check_scaling_product(q, n: int, order: int = 32) -> VerificationReport:
    """E_q([n]_q z) = prod_{m=0}^{n-1} E_{q^n}(q^m z) coefficientwise, exactly."""
    qp = as_qparam(q)
    check_int(n, "n", 2)
    check_int(order, "order", 1)
    lhs = qexp_series(qp, order).series.scale_substitute(q_number(n, qp))
    base = qexp_series(qp.power(n), order).series   # the m = 0 factor
    rhs = math.prod((base.scale_substitute(qp.value ** m) for m in range(1, n)), start=base)
    return _exact_report(SCALING_PRODUCT, qp, {"n": n, "order": order},
                         enumerate(lhs.compare(rhs)))


def _substituted(coeffs, factor: complex, order: int, stretch: int = 1) -> list:
    """Binary64 coefficients of f(factor z^stretch) through z^order, from the
    exact coefficients of f, weighted by a running power of ``factor``."""
    out = [0j] * (order + 1)
    power = complex(1.0)
    for k in range(order // stretch + 1):
        out[k * stretch] = complex(float(coeffs[k])) * power
        power *= factor
    return out


def _complex_product(a: list, b: list) -> list:
    """Cauchy product of two binary64 coefficient lists of one length.

    Each coefficient is a compensated sum: root-of-unity products cancel
    heavily and the residual tolerance leaves little headroom for naive
    summation.
    """
    out = []
    for k in range(len(a)):
        prods = [a[i] * b[k - i] for i in range(k + 1)]
        out.append(complex(math.fsum(p.real for p in prods), math.fsum(p.imag for p in prods)))
    return out


def check_root_of_unity_product(q, n: int, order: int = 24) -> VerificationReport:
    """prod_{m=0}^{n-1} E_q(w^m z) = E_{q^n}((1-q)^(n-1)/[n]_q z^n) for
    w = exp(2 pi i / n), verified in binary64 complex arithmetic to
    |residual| <= 1e-12 at every coefficient.

    The exact counterpart of this identity at coefficient level is
    :func:`check_coeff_multiple_order`; this complex check is a sanity
    cross-check, not the source of truth.
    """
    qp = as_qparam(q)
    check_int(n, "n", 2)
    check_int(order, "order", 1)
    coeffs = qexp_series(qp, order).series.coeffs
    factors = (_substituted(coeffs, cmath.rect(1.0, 2.0 * math.pi * m / n), order)
               for m in range(n))
    lhs = functools.reduce(_complex_product, factors)
    scale = (1 - qp.value) ** (n - 1) / q_number(n, qp)
    rhs = _substituted(qexp_series(qp.power(n), order // n).series.coeffs,
                       complex(float(scale)), order, n)
    residuals = [(k, abs(x - y)) for k, (x, y) in enumerate(zip(lhs, rhs))]
    return _numeric_report(ROOT_OF_UNITY_PRODUCT, qp, {"n": n, "order": order},
                           residuals, _ROOT_OF_UNITY_TOL)


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
    """2 c_{2k}(q) = ((1-q)/(1+q))^k c_k(q^2) for k = 1..k_max, exactly."""
    qp = as_qparam(q)
    check_int(k_max, "k_max", 1)
    c_q = log_coeffs_closed(2 * k_max, qp)
    c_q2 = log_coeffs_closed(k_max, qp.power(2))
    ratio = (1 - qp.value) / (1 + qp.value)
    rpow = ratio
    residuals = []
    for k in range(1, k_max + 1):
        residuals.append((k, 2 * c_q.coeff(2 * k) - rpow * c_q2.coeff(k)))
        rpow *= ratio
    return _exact_report(COEFF_DOUBLE_ORDER, qp, {"k_max": k_max}, residuals)


def check_coeff_power_scale(q, n: int, k_max: int = 64) -> VerificationReport:
    """[n]_{q^k} c_k(q^n) = ([n]_q)^k c_k(q) for k = 1..k_max, exactly."""
    qp = as_qparam(q)
    check_int(n, "n", 2)
    check_int(k_max, "k_max", 1)
    c_q = log_coeffs_closed(k_max, qp)
    c_qn = log_coeffs_closed(k_max, qp.power(n))
    n_q = q_number(n, qp)
    npow = n_q                 # ([n]_q)^k
    steps = [qp.value ** i for i in range(n)]   # q^i
    powers = steps             # q^(ik), which sum to [n]_{q^k}
    residuals = []
    for k in range(1, k_max + 1):
        lhs = sum(powers) * c_qn.coeff(k)
        residuals.append((k, lhs - npow * c_q.coeff(k)))
        npow *= n_q
        powers = [p * s for p, s in zip(powers, steps)]
    return _exact_report(COEFF_POWER_SCALE, qp, {"n": n, "k_max": k_max}, residuals)


def check_coeff_multiple_order(q, n: int, k_max: int = 64) -> VerificationReport:
    """n c_{nk}(q) = ((1-q)^(n-1)/[n]_q)^k c_k(q^n) for k = 1..k_max, exactly."""
    qp = as_qparam(q)
    check_int(n, "n", 2)
    check_int(k_max, "k_max", 1)
    c_nk = islice(_log_coeff_pairs(qp), n - 1, n * k_max, n)    # c_n, c_2n, .. of q
    c_qn = log_coeffs_closed(k_max, qp.power(n))
    factor = (1 - qp.value) ** (n - 1) / q_number(n, qp)
    fpow = factor
    residuals = []
    for k, (num, den) in enumerate(c_nk, 1):
        residuals.append((k, Fraction(n * num, den) - fpow * c_qn.coeff(k)))
        fpow *= factor
    return _exact_report(COEFF_MULTIPLE_ORDER, qp, {"n": n, "k_max": k_max}, residuals)


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
    ROOT_OF_UNITY_PRODUCT: ("n",),
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

    ``order`` applies to the exact series checks; the complex root-of-unity
    check runs at its own default order 24, with its fixed residual bound
    1e-12. ``k_max`` bounds the coefficient sweeps.
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
        raise DomainError(f"{name} must be a sequence of values, got {values!r}")
    return values


def _dispatch(identity, qp, config: SuiteConfig, n):
    args = (n if name == "n" else getattr(config, name) for name in _ARGUMENTS[identity])
    return globals()[f"check_{identity}"](qp, *args)


def reports_to_json(reports) -> str:
    """Stable JSON for a report list (schema-stable, byte-deterministic)."""
    return json.dumps([r.to_json() for r in reports], sort_keys=True, indent=2)
