"""Truncated formal power series with exact or complex coefficients.

A :class:`TruncatedSeries` is a polynomial surrogate for a power series: it
carries coefficients a_0..a_N for a fixed truncation order N and performs all
arithmetic modulo z^(N+1), silently dropping higher-order products.
Coefficients live in one of two domains:

* exact -- ``fractions.Fraction``; arithmetic never rounds, so identity
  checks can demand literally zero residuals;
* numeric -- binary64 ``complex``; comparisons take a tolerance.

Series are immutable. Binary operations require equal truncation orders
(re-truncate explicitly with :meth:`TruncatedSeries.truncate`) and matching
coefficient domains (lift an exact series with :meth:`TruncatedSeries.to_complex`).
Coefficients above the order are unknown, not zero, so a series can only be
truncated downward, never extended.

The log/exp pair converts between a series f with f(0) = 1 and its formal
logarithm h with h(0) = 0 via the standard O(N^2) recursions obtained by
matching coefficients in f' = f h'. In the exact domain the round trip
log(exp(h)) = h is an identity, not an approximation, and exp turns addition
into multiplication at the truncation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Union

from .errors import DomainError, OrderMismatchError
from .scalars import check_int, complex_json, ensure_finite

Coeff = Union[Fraction, complex]


@dataclass(frozen=True)
class SeriesComparison:
    """Outcome of :meth:`TruncatedSeries.compare`.

    ``residuals[k]`` is the signed difference f_k - g_k in the exact domain
    and the magnitude |f_k - g_k| in the numeric one.
    """

    equal: bool
    exact: bool
    tol: float
    residuals: tuple

    @property
    def max_abs(self):
        return max(abs(r) for r in self.residuals)


def _coerce(coeffs: Iterable) -> "tuple[tuple[Coeff, ...], bool]":
    values = tuple(coeffs)
    if not values:
        raise DomainError("a series needs at least its constant coefficient")
    if all(isinstance(c, Rational) for c in values):
        return tuple(Fraction(c) for c in values), True
    out = []
    for c in values:
        if isinstance(c, Rational):
            c = float(c)
        if not isinstance(c, (int, float, complex)):
            raise DomainError(f"unsupported coefficient type {type(c).__name__}")
        out.append(ensure_finite(complex(c)))
    return tuple(out), False


class TruncatedSeries:
    """Power series truncated at a fixed order N (inclusive)."""

    __slots__ = ("coeffs", "exact")

    def __init__(self, coeffs: Iterable):
        coerced, exact = _coerce(coeffs)
        object.__setattr__(self, "coeffs", coerced)
        object.__setattr__(self, "exact", exact)

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

    def _zero(self) -> Coeff:
        return Fraction(0) if self.exact else 0j

    def _one(self) -> Coeff:
        return Fraction(1) if self.exact else complex(1.0)

    def _compatible(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise DomainError(f"expected a TruncatedSeries, got {type(other).__name__}")
        if other.order != self.order:
            raise OrderMismatchError(
                f"truncation orders differ: {self.order} != {other.order}; "
                "re-truncate explicitly first"
            )
        if other.exact != self.exact:
            raise DomainError("mixed coefficient domains; lift the exact side with to_complex()")

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop coefficients above ``order``. Extending is not allowed: the
        dropped tail is unknown, not zero."""
        if check_int(order, "order") > self.order:
            raise DomainError(f"cannot re-truncate order {self.order} to {order}")
        return TruncatedSeries(self.coeffs[: order + 1])

    def to_complex(self) -> "TruncatedSeries":
        """The same series with binary64 complex coefficients."""
        if not self.exact:
            return self
        return TruncatedSeries(tuple(complex(float(c)) for c in self.coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.exact == other.exact and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.exact, self.coeffs))

    def __repr__(self) -> str:
        kind = "exact" if self.exact else "complex"
        return f"TruncatedSeries(order={self.order}, {kind}, coeffs={self.coeffs!r})"

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compatible(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compatible(other)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product modulo z^(N+1)."""
        self._compatible(other)
        a, b, n = self.coeffs, other.coeffs, self.order
        out = []
        if self.exact:
            for k in range(n + 1):
                acc = Fraction(0)
                for i in range(k + 1):
                    if a[i] and b[k - i]:
                        acc += a[i] * b[k - i]
                out.append(acc)
        else:
            # compensated sums: root-of-unity products cancel heavily and the
            # residual tolerance leaves little headroom for naive summation
            for k in range(n + 1):
                prods = [a[i] * b[k - i] for i in range(k + 1)]
                out.append(complex(math.fsum(p.real for p in prods),
                                   math.fsum(p.imag for p in prods)))
        return TruncatedSeries(out)

    def scale_substitute(self, factor, stretch: int = 1) -> "TruncatedSeries":
        """The series f(factor * z^stretch) at the same truncation order.

        Coefficient k of f lands at position stretch*k with weight factor^k;
        positions beyond the order are dropped.
        """
        check_int(stretch, "stretch", 1)
        if self.exact:
            if isinstance(factor, float) or not isinstance(factor, Rational):
                raise DomainError("exact series take a rational factor; use to_complex() first")
            factor = Fraction(factor)
        else:
            factor = ensure_finite(complex(factor))
        out = [self._zero()] * (self.order + 1)
        power = self._one()
        for k in range(self.order // stretch + 1):
            out[k * stretch] = self.coeffs[k] * power
            power *= factor
        return TruncatedSeries(out)

    def log(self) -> "TruncatedSeries":
        """Formal logarithm h = log f with h_0 = 0; requires f_0 = 1.

        h_1 = a_1 and, for k >= 2,
        h_k = a_k - (1/k) * sum_{j=1}^{k-1} j * a_{k-j} * h_j.
        Exact in the rational domain (division by k stays rational).
        """
        a = self.coeffs
        if a[0] != 1:
            raise DomainError("log needs constant term exactly 1")
        n = self.order
        h: list = [self._zero()] * (n + 1)
        for k in range(1, n + 1):
            acc = self._zero()
            for j in range(1, k):
                acc += j * a[k - j] * h[j]
            h[k] = a[k] - acc / k
        return TruncatedSeries(h)

    def exp(self) -> "TruncatedSeries":
        """Formal exponential f = exp h with f_0 = 1; requires h_0 = 0.

        a_k = (1/k) * sum_{j=1}^{k} j * h_j * a_{k-j}, the inverse of the
        recursion in :meth:`log`, so log(exp(h)) = h exactly.
        """
        h = self.coeffs
        if h[0] != 0:
            raise DomainError("exp needs constant term exactly 0")
        n = self.order
        a: list = [self._one()] + [self._zero()] * n
        for k in range(1, n + 1):
            acc = self._zero()
            for j in range(1, k + 1):
                acc += j * h[j] * a[k - j]
            a[k] = acc / k
        return TruncatedSeries(a)

    def compare(self, other: "TruncatedSeries", tol: float = 0.0) -> SeriesComparison:
        """Coefficientwise comparison.

        Exact domain: equality must be literal and ``tol`` is ignored (there
        is no epsilon in the exact path). Numeric domain: equal means
        max_k |f_k - g_k| <= tol.
        """
        self._compatible(other)
        if tol < 0:
            raise DomainError("tol must be non-negative")
        if self.exact:
            residuals = tuple(x - y for x, y in zip(self.coeffs, other.coeffs))
            return SeriesComparison(not any(residuals), True, 0.0, residuals)
        residuals = tuple(abs(x - y) for x, y in zip(self.coeffs, other.coeffs))
        return SeriesComparison(max(residuals) <= tol, False, float(tol), residuals)

    def to_json(self) -> dict:
        """{"order": N, "coeffs": [...]} with "num/den" strings (exact) or
        {"re", "im"} objects (numeric)."""
        if self.exact:
            return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}
        return {"order": self.order, "coeffs": [complex_json(c) for c in self.coeffs]}
