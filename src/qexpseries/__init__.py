"""Exact computation with Jackson's q-exponential E_q(z) = sum_k z^k/[k]_q!.

The package provides, all over arbitrary-precision rational arithmetic:

* q-combinatorics: q-numbers, q-factorials, Gaussian binomials, with the
  Pascal-type recursion as an independent cross-check (:mod:`.qnumbers`);
* a truncated formal power series engine with exact log/exp transforms
  (:mod:`.series`);
* the q-exponential itself, the closed form and the recursion for the
  coefficients of its logarithm, and guarded numeric evaluation with
  certified tail bounds (:mod:`.qexp`);
* exact (zero-residual) verification of the classical q-exponential
  identities, and one binary64 cross-check of the root-of-unity product,
  with structured reports (:mod:`.identities`);
* a CLI, installed as ``qexp`` (:mod:`.cli`).

All values are immutable and all operations are pure functions, so anything
here can be shared freely across threads.

>>> from fractions import Fraction
>>> from qexpseries import log_coeffs_closed, log_coeffs_recursive
>>> q = Fraction(1, 2)
>>> log_coeffs_closed(2, q).coeff(2)
Fraction(1, 6)
>>> log_coeffs_recursive(2, q).coeff(2)
Fraction(1, 6)
"""

from .errors import ConvergenceError, DomainError, OrderMismatchError
from .scalars import QParam, Regime, as_qparam, parse_rational, rational_str
from .qnumbers import (QFactorialTable, q_binomial, q_binomial_pascal, q_number,
                       radius_of_convergence)
from .series import TruncatedSeries
from .qexp import (DEFAULT_MAX_TERMS, Evaluation, LogCoeffVector, QExpSeries,
                   eval_log_qexp, eval_qexp, log_coeffs_closed,
                   log_coeffs_recursive, qexp_series)
from .identities import (ALL_IDENTITIES, DEFAULT_NS, DEFAULT_QS, SuiteConfig,
                         VerificationReport, check_coeff_double_order,
                         check_coeff_multiple_order, check_coeff_power_scale,
                         check_coeff_sign_flip, check_qbinomial_sum,
                         check_reciprocal_product, check_reflection_product,
                         check_root_of_unity_product, check_scaling_product,
                         reports_to_json, run_suite)

__version__ = "0.1.0"

__all__ = [
    "ALL_IDENTITIES",
    "ConvergenceError",
    "DEFAULT_MAX_TERMS",
    "DEFAULT_NS",
    "DEFAULT_QS",
    "DomainError",
    "Evaluation",
    "LogCoeffVector",
    "OrderMismatchError",
    "QExpSeries",
    "QFactorialTable",
    "QParam",
    "Regime",
    "SuiteConfig",
    "TruncatedSeries",
    "VerificationReport",
    "as_qparam",
    "check_coeff_double_order",
    "check_coeff_multiple_order",
    "check_coeff_power_scale",
    "check_coeff_sign_flip",
    "check_qbinomial_sum",
    "check_reciprocal_product",
    "check_reflection_product",
    "check_root_of_unity_product",
    "check_scaling_product",
    "eval_log_qexp",
    "eval_qexp",
    "log_coeffs_closed",
    "log_coeffs_recursive",
    "parse_rational",
    "q_binomial",
    "q_binomial_pascal",
    "q_number",
    "qexp_series",
    "radius_of_convergence",
    "rational_str",
    "reports_to_json",
    "run_suite",
    "__version__",
]
