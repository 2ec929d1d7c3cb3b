"""Truncated formal power series with exact rational coefficients.

A :class:`TruncatedSeries` is a polynomial surrogate for a power series: it
carries coefficients a_0..a_N for a fixed truncation order N and performs all
arithmetic modulo z^(N+1), silently dropping higher-order products.
Coefficients are ``fractions.Fraction``; arithmetic never rounds, so identity
checks can demand literally zero residuals. Float, complex and bool
coefficients are rejected, as they are for q.

Series are immutable. Binary operations require equal truncation orders.
Coefficients above the order are unknown, not zero, so a series is never
extended to a higher order.

The log/exp pair converts between a series f with f(0) = 1 and its formal
logarithm h with h(0) = 0 via the standard O(N^2) recursions obtained by
matching coefficients in f' = f h'. The round trip log(exp(h)) = h is an
identity, not an approximation, and exp turns addition into multiplication
at the truncation order.

The product, log and exp build every coefficient as one sum of products
through :func:`_dot`, which keeps the partial sum as an integer numerator
over a running common denominator: one division of that denominator per
term, a gcd no larger than the term's denominator only when the term does
not divide it, and one reduction per coefficient, the 1/k of log and exp
included, instead of reducing a Fraction at every term. The results are
the same reduced Fractions either way.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from numbers import Rational
from typing import Iterable

from .errors import DomainError, OrderMismatchError
from .scalars import check_int


def _dot(triples: "Iterable[tuple[int, Fraction, Fraction]]", scale: int = 1) -> Fraction:
    """sum w*x*y / scale over (w, x, y) with w an int and x, y Fractions,
    reduced once.

    ``den`` is the lcm of the products d = x.den * y.den seen so far and
    ``num / den`` the partial sum, so a term costs one division of ``den``
    by d. When d divides den the term just adds; otherwise Euclid's first
    step gives g = gcd(den, d) = gcd(d, rem) on numbers no larger than d,
    and den / g = quo * (d / g) + rem / g, so den is never divided by g.
    """
    num, den = 0, 1
    for w, x, y in triples:
        d = x.denominator * y.denominator
        term = w * x.numerator * y.numerator
        quo, rem = divmod(den, d)
        if rem:
            g = gcd(d, rem)
            step = d // g
            num = num * step + term * (quo * step + rem // g)
            den *= step
        else:
            num += term * quo
    return Fraction(num, den * scale)


def _coerce(coeffs: Iterable) -> "tuple[Fraction, ...]":
    values = tuple(coeffs)
    if not values:
        raise DomainError("a series needs at least its constant coefficient")
    for c in values:
        if isinstance(c, bool) or not isinstance(c, Rational):
            raise DomainError(f"coefficients must be exact rationals, got {type(c).__name__}")
    return tuple(Fraction(c) for c in values)


class TruncatedSeries:
    """Power series truncated at a fixed order N (inclusive)."""

    __slots__ = ("coeffs",)

    #: Always true: every coefficient is an exact rational.
    exact = True

    def __init__(self, coeffs: Iterable):
        object.__setattr__(self, "coeffs", _coerce(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        """The constant series 1 at the given order."""
        return cls((Fraction(1),) + (Fraction(0),) * check_int(order, "order"))

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((Fraction(0),) * (check_int(order, "order") + 1))

    def _compatible(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise DomainError(f"expected a TruncatedSeries, got {type(other).__name__}")
        if other.order != self.order:
            raise OrderMismatchError(
                f"truncation orders differ: {self.order} != {other.order}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, coeffs={self.coeffs!r})"

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compatible(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compatible(other)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product modulo z^(N+1)."""
        self._compatible(other)
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries(_dot((1, a[i], b[k - i]) for i in range(k + 1) if a[i] and b[k - i])
                               for k in range(self.order + 1))

    def scale_substitute(self, factor, stretch: int = 1) -> "TruncatedSeries":
        """The series f(factor * z^stretch) at the same truncation order.

        Coefficient k of f lands at position stretch*k with weight factor^k;
        positions beyond the order are dropped. ``factor`` must be rational.
        """
        check_int(stretch, "stretch", 1, None)
        if isinstance(factor, bool) or not isinstance(factor, Rational):
            raise DomainError(f"factor must be an exact rational, got {type(factor).__name__}")
        factor = Fraction(factor)
        out = [Fraction(0)] * (self.order + 1)
        power = Fraction(1)
        for k in range(self.order // stretch + 1):
            out[k * stretch] = self.coeffs[k] * power
            power *= factor
        return TruncatedSeries(out)

    def log(self) -> "TruncatedSeries":
        """Formal logarithm h = log f with h_0 = 0; requires f_0 = 1.

        h_1 = a_1 and, for k >= 2,
        h_k = a_k - (1/k) * sum_{j=1}^{k-1} j * a_{k-j} * h_j.
        Exact, since division by k stays rational.
        """
        a = self.coeffs
        if a[0] != 1:
            raise DomainError("log needs constant term exactly 1")
        h = [Fraction(0)] * (self.order + 1)
        for k in range(1, self.order + 1):
            # k h_k = k a_k - sum_{j<k} j a_{k-j} h_j, as one sum
            terms = ((-j, a[k - j], h[j]) for j in range(1, k))
            h[k] = _dot(chain([(k, a[k], Fraction(1))], terms), k)
        return TruncatedSeries(h)

    def exp(self) -> "TruncatedSeries":
        """Formal exponential f = exp h with f_0 = 1; requires h_0 = 0.

        a_k = (1/k) * sum_{j=1}^{k} j * h_j * a_{k-j}, the inverse of the
        recursion in :meth:`log`, so log(exp(h)) = h exactly.
        """
        h = self.coeffs
        if h[0] != 0:
            raise DomainError("exp needs constant term exactly 0")
        a = [Fraction(1)] + [Fraction(0)] * self.order
        for k in range(1, self.order + 1):
            a[k] = _dot(((j, h[j], a[k - j]) for j in range(1, k + 1)), k)
        return TruncatedSeries(a)

    def compare(self, other: "TruncatedSeries") -> "tuple[Fraction, ...]":
        """The residuals f_k - g_k for k = 0..N. The series are equal exactly
        when every residual is zero; there is no tolerance."""
        self._compatible(other)
        return tuple(x - y for x, y in zip(self.coeffs, other.coeffs))
