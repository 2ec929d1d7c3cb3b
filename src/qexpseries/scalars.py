"""Scalars: exact rationals, the parameter q, and the package's argument checks.

Exact computation runs on ``fractions.Fraction``, which stores every value as
a normalized num/den pair with gcd(|num|, den) = 1 and den > 0 and never
rounds. :class:`QParam` validates the deformation parameter q > 0; each
public entry validates q once and hands its kernels the coprime integer pair
(a, b) of q = a/b, so 1/q is (b, a) and q^n is (a^n, b^n).
:func:`check_int` and :func:`check_tol` are the package's one integer and
one tolerance check. :func:`shown` prints a value in an error message.

Everything here is immutable and safe to share between threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational, Real

from .errors import DomainError


@dataclass(frozen=True)
class QParam:
    """Deformation parameter q, stored exactly as a positive rational.

    q is never a float: exact-mode identity checks demand bit-exact
    arithmetic in q, so floats are rejected outright.
    """

    value: Fraction

    def __post_init__(self) -> None:
        value = self.value
        if isinstance(value, float):
            raise DomainError("q must be exact; pass a Fraction or int, not a float")
        if isinstance(value, bool) or not isinstance(value, Rational):
            raise DomainError(f"q must be rational, got {type(value).__name__}")
        value = Fraction(value)
        if value <= 0:
            raise DomainError(f"q must be positive, got {shown(value)}")
        object.__setattr__(self, "value", value)

    def __str__(self) -> str:
        return str(self.value)


def as_qparam(q: "QParam | Rational") -> QParam:
    """Coerce a rational value to a validated QParam."""
    if isinstance(q, QParam):
        return q
    return QParam(q)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer, or decimal text into an exact Fraction."""
    if not isinstance(text, str):
        raise DomainError(f"expected rational text, got {type(text).__name__}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational number: {text!r}") from exc


def rational_str(value: Rational) -> str:
    """Serialize exactly as "num/den", or "num" when den = 1."""
    if isinstance(value, bool) or not isinstance(value, Rational):
        raise DomainError(f"expected an exact rational, got {type(value).__name__}")
    return str(Fraction(value))


def check_int(value: int, name: str, minimum: "int | None" = 0,
              maximum: "int | None" = sys.maxsize) -> int:
    """``value`` itself if it is an int (bools excluded) in
    ``minimum``..``maximum``; None lifts either limit. The default maximum
    is the largest count that can index a sweep (``itertools.islice``)."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise DomainError(f"{name} must be an integer{bound}, got {shown(value)}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{name} must be at most {maximum}, got an integer of "
                          f"{value.bit_length()} bits")
    return value


def check_tol(value: float) -> float:
    """``value`` itself if it is a finite positive real (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
        raise DomainError(f"tol must be a finite positive number, got {shown(value)}")
    return value


def shown(value) -> str:
    """``value`` as error-message text: repr of a non-rational, str of a
    rational, and the sign and bit length of a rational whose digits pass
    CPython's cap on int -> str conversion, as str would raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, Rational):
        return repr(value)
    try:
        return str(value)
    except ValueError:
        num, den = Fraction(value).as_integer_ratio()
        if den == 1:
            return f"{'a negative' if num < 0 else 'an'} integer of {num.bit_length()} bits"
        return (f"a {'negative ' if num < 0 else ''}rational of {num.bit_length()} bits "
                f"over {den.bit_length()} bits")
