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

The product, log and exp build each coefficient as one sum sum_m t_m a_m
over the nonzero a_m of one series (the first factor, f, or exp's output)
by Horner's rule from the top m down, V <- V * a_m'/a_m + t_m, with the
ratios of consecutive nonzero coefficients built once per call
(:func:`_horner`). V is one unreduced integer pair and each coefficient one
reduction, the 1/k of log and exp included: the same reduced Fractions as a
term-by-term sum.

Cost rule: a step costs the height of V times that of the ratio and of t_m.
Consecutive coefficients of E_q differ by 1/[k]_q = b^(k-1)/S_k for q = a/b,
so on every series this package builds the ratios are short and V stays near
the height of 1/[k]_q!. For q = 2/5 at order 96, log and exp of E_q take 26-28
and 31-32 ms, against 104-141 and 102-144 ms as sums over a common
denominator. Kept on purpose: unrelated coefficients give ratios as tall as
two of them, and there the walk is slower (exp of an order-40 series with
random 30-bit coefficients: 10 -> 94 ms; best of 7, Python 3.11.7, x86_64).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational
from typing import Iterable

from .errors import DomainError, OrderMismatchError
from .scalars import check_int


def _horner(terms: "Iterable[tuple[int, Rational]]", up: dict, w: Rational) -> "tuple[int, int]":
    """w * sum t * a_m / a_l over (m, t) in ``terms``, as one unreduced pair.

    ``terms`` walks down the nonzero a_m of one series, each next to the one
    above it, to the lowest, a_l; ``up[m]`` is the integer pair of a_m'/a_m,
    m' the nonzero index above m. V = num / den steps V <- V * a_m'/a_m + t;
    t's denominator td joins den as their lcm, by one division of den by td
    and, only when td does not divide den, a gcd no larger than td.
    """
    num, den = 0, 1
    for m, t in terms:
        if num:                 # V = 0 needs no ratio, the top term's included
            p, r = up[m]
            num, den = num * p, den * r
        if t:
            tn, td = t.numerator, t.denominator
            quo, rem = divmod(den, td)
            if rem:
                g = gcd(td, rem)
                step = td // g
                num = num * step + tn * (quo * step + rem // g)
                den *= step
            else:
                num += tn * quo
    return num * w.numerator, den * w.denominator


def _link(a: list, nz: list, up: dict, ms: Iterable[int]) -> "tuple[list, dict]":
    """Add each nonzero a_m, m in ``ms`` rising, atop a's chain (nz, up)."""
    for m in ms:
        if a[m]:
            if nz:
                r = a[m] / a[nz[-1]]
                up[nz[-1]] = r.numerator, r.denominator
            nz.append(m)
    return nz, up


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

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product modulo z^(N+1)."""
        self._compatible(other)
        a, b = self.coeffs, other.coeffs
        nz, up = _link(a, [], {}, range(len(a)))
        low = a[nz[0]] if nz else 0         # an all-zero self has no terms
        return TruncatedSeries(Fraction(*_horner(((m, b[k - m]) for m in reversed(nz) if m <= k),
                                                 up, low)) for k in range(len(a)))

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

        k h_k = k a_k - sum_{j=1}^{k-1} j h_j a_{k-j}, exact as rationals.
        """
        a = self.coeffs
        if a[0] != 1:
            raise DomainError("log needs constant term exactly 1")
        h = [Fraction(0)] * (self.order + 1)
        t = [0] * (self.order + 1)                # t_j = -j h_j; a_k weighs k
        nz, up = _link(a, [], {}, range(len(a)))  # a_0 = 1 ends every walk
        for k in range(1, self.order + 1):
            terms = ((m, t[k - m] if m < k else k) for m in reversed(nz) if m <= k)
            h[k] = Fraction(*_horner(terms, up, Fraction(1, k)))
            t[k] = -k * h[k]
        return TruncatedSeries(h)

    def exp(self) -> "TruncatedSeries":
        """Formal exponential f = exp h with f_0 = 1; requires h_0 = 0.

        a_k = (1/k) * sum_{j=1}^{k} j * h_j * a_{k-j}, the inverse of the
        recursion in :meth:`log`, so log(exp(h)) = h exactly.
        """
        h = self.coeffs
        if h[0] != 0:
            raise DomainError("exp needs constant term exactly 0")
        t = [j * c for j, c in enumerate(h)]
        a = [Fraction(1)] + [Fraction(0)] * self.order
        nz, up = [0], {}                          # the chain of the a_m so far
        for k in range(1, self.order + 1):
            a[k] = Fraction(*_horner(((m, t[k - m]) for m in reversed(nz)), up, Fraction(1, k)))
            _link(a, nz, up, (k,))
        return TruncatedSeries(a)

    def compare(self, other: "TruncatedSeries") -> "tuple[Fraction, ...]":
        """The residuals f_k - g_k for k = 0..N. The series are equal exactly
        when every residual is zero; there is no tolerance."""
        self._compatible(other)
        return tuple(x - y for x, y in zip(self.coeffs, other.coeffs))
