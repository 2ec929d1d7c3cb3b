"""Scalars: exact rationals, the parameter q, and the package's argument checks.

Exact computation runs on ``fractions.Fraction``, which stores every value as
a normalized num/den pair with gcd(|num|, den) = 1 and den > 0 and never
rounds. :func:`as_exact` reads every exact rational argument. Each public
entry validates q once with :func:`check_q` and hands its kernels the
coprime integer pair (a, b) of q = a/b, so 1/q is (b, a) and q^n is
(a^n, b^n). :func:`check_int` and :func:`check_tol` are the package's one
integer and one tolerance check. :func:`shown` prints a value in an error
message.

Everything here is immutable and safe to share between threads.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from numbers import Integral, Rational, Real

from .errors import DomainError


def as_exact(value) -> "Fraction | None":
    """``value`` as a Fraction of two Python ints if it is an int, a Fraction
    or any other ``numbers.Rational`` but a bool, else None: a fixed-width
    integer part, which would wrap in the kernels, is read by ``int()``."""
    if type(value) is Fraction:
        num, den = value.as_integer_ratio()
        if type(num) is type(den) is int:
            return value
    elif type(value) is int:
        return Fraction(value)
    elif isinstance(value, bool) or not isinstance(value, Rational):
        return None
    return Fraction(int(value.numerator), int(value.denominator))


def check_q(q) -> Fraction:
    """The deformation parameter q > 0 as :func:`as_exact` reads it. q is
    never a float: exact-mode identity checks demand bit-exact arithmetic in
    q, so floats are rejected outright."""
    value = as_exact(q)
    if value is None:
        if isinstance(q, float):
            raise DomainError("q must be exact; pass a Fraction or int, not a float")
        raise DomainError(f"q must be rational, got {type(q).__name__}")
    if value.numerator <= 0:
        raise DomainError(f"q must be positive, got {shown(value)}")
    return value


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer, or decimal text into an exact Fraction."""
    if not isinstance(text, str):
        raise DomainError(f"expected rational text, got {type(text).__name__}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        _raise_at_digit_cap(exc)
        raise DomainError(f"not a rational number: {text!r}") from exc


def rational_str(value: Rational) -> str:
    """Serialize exactly as "num/den", or "num" when den = 1."""
    number = as_exact(value)
    if number is None:
        raise DomainError(f"expected an exact rational, got {type(value).__name__}")
    try:
        return str(number)
    except ValueError as exc:
        _raise_at_digit_cap(exc)
        raise


def _raise_at_digit_cap(exc: Exception) -> None:
    """Raise ``exc`` as DomainError, naming the setting, if it is CPython's
    error at its cap on the digits of an int <-> str conversion."""
    if str(exc).startswith("Exceeds the limit"):
        raise DomainError(f"{exc}; the PYTHONINTMAXSTRDIGITS environment variable "
                          "raises the cap") from None


def check_int(value: int, name: str, minimum: "int | None" = 0,
              maximum: "int | None" = sys.maxsize) -> int:
    """``value`` as an int, any ``numbers.Integral`` but a bool read by
    ``operator.index``, in ``minimum``..``maximum``; None lifts either limit. The
    default maximum is the largest count that can index a sweep (``itertools.islice``)."""
    if type(value) is not int and isinstance(value, Integral) and not isinstance(value, bool):
        value = operator.index(value)    # a fixed-width integer would wrap in the kernels
    if type(value) is not int or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" >= {minimum}"
        raise DomainError(f"{name} must be an integer{bound}, got {shown(value)}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{name} must be at most {maximum}, got an integer of "
                          f"{value.bit_length()} bits")
    return value


def check_tol(value: float) -> "float | Fraction":
    """A finite positive real (bools excluded) as the evaluators read it: a
    float of any subclass as a Python float, else its exact Fraction of Python ints."""
    if type(value) is float and 0.0 < value < math.inf:
        return value
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
        raise DomainError(f"tol must be a finite positive number, got {shown(value)}")
    if isinstance(value, float):
        return float(value)
    return as_exact(value) or Fraction(*map(int, value.as_integer_ratio()))


def shown(value) -> str:
    """``value`` as error-message text: repr of a non-rational, str of a
    rational, and the sign and bit length of a rational whose digits pass
    CPython's cap on int -> str conversion, as str would raise ValueError."""
    number = as_exact(value)
    if number is None:
        return repr(value)
    try:
        return str(number)
    except ValueError:
        num, den = number.as_integer_ratio()
        if den == 1:
            return f"{'a negative' if num < 0 else 'an'} integer of {num.bit_length()} bits"
        return (f"a {'negative ' if num < 0 else ''}rational of {num.bit_length()} bits "
                f"over {den.bit_length()} bits")
