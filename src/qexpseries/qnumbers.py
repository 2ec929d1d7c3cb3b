"""q-combinatorics over exact rationals.

Everything is built on the summation form [k]_q = 1 + q + ... + q^(k-1),
which is exact for every rational q > 0 and needs no special case at q = 1,
where it reduces to the ordinary integer k.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterator

from .errors import DomainError
from .scalars import as_qparam, check_int

#: Largest k that :func:`q_binomial_pascal` accepts. Its integer row sweep
#: costs about k^4: at q = 2/3 and 5/2, 0.05-0.08 s at (200, 100), 0.9-1.3 s at
#: (400, 200) and 2.1-3.1 s at (490, 245) on Python 3.11 (x86_64). The cap
#: stays at the largest k this route has always accepted.
PASCAL_MAX_K = 490


def q_number_numerators(q) -> Iterator[int]:
    """The integer sweep S_1, S_2, S_3, ... with [k]_q = S_k / b^(k-1) for
    q = a/b in lowest terms: S_1 = 1 and S_{k+1} = b S_k + a^k.

    The one place q-numbers are summed; every q-number, q-factorial, E_q
    coefficient and log coefficient is built from it. Each S_k / b^(k-1)
    is already in lowest terms, as S_k is congruent to a^(k-1) modulo every
    prime factor of b.
    """
    return _numerator_sweep(*as_qparam(q).value.as_integer_ratio())


def _numerator_sweep(a: int, b: int) -> Iterator[int]:
    """:func:`q_number_numerators` of q = a/b, for coprime integers a, b > 0."""
    number, power = 1, 1      # S_k and a^(k-1)
    while True:
        yield number
        power *= a
        number = b * number + power


def _q_number_pair(n: int, a: int, b: int) -> "tuple[int, int]":
    """[n]_q for q = a/b, n >= 1, as the integer pair (S_n, b^(n-1)) from the
    q-number sweep."""
    return next(islice(_numerator_sweep(a, b), n - 1, None)), b ** (n - 1)


def q_numbers(q) -> Iterator[Fraction]:
    """The sweep [1]_q, [2]_q, [3]_q, ... as Fractions S_k / b^(k-1), from
    :func:`q_number_numerators`."""
    qp = as_qparam(q)
    b = qp.value.denominator
    scale = 1                 # b^(k-1)
    for number in q_number_numerators(qp):
        yield Fraction(number, scale)
        scale *= b


def q_number(k: int, q) -> Fraction:
    """[k]_q = 1 + q + ... + q^(k-1); equals (1 - q^k)/(1 - q) for q != 1."""
    check_int(k, "k")
    qp = as_qparam(q)
    if not k:
        return Fraction(0)
    return Fraction(*_q_number_pair(k, *qp.value.as_integer_ratio()))


class QFactorialTable:
    """Immutable table of [k]_q! for k = 0..max_order.

    Built once in O(max_order) scalar steps; Gaussian binomials via the
    factorial quotient are then O(1) big-rational operations per query.
    """

    __slots__ = ("q", "values")

    def __init__(self, q, max_order: int):
        check_int(max_order, "max_order")
        self.q = as_qparam(q)
        self.values = tuple(accumulate(islice(q_numbers(self.q), max_order),
                                       operator.mul, initial=Fraction(1)))

    @property
    def max_order(self) -> int:
        return len(self.values) - 1

    def factorial(self, k: int) -> Fraction:
        """[k]_q! from the table (0 <= k <= max_order)."""
        if check_int(k, "k") > self.max_order:
            raise DomainError(f"k = {k} is beyond the table's max_order {self.max_order}")
        return self.values[k]

    def binomial(self, k: int, j: int) -> Fraction:
        """Gaussian binomial [k choose j]_q; zero outside 0 <= j <= k."""
        check_int(k, "k")
        if check_int(j, "j", None, None) < 0 or j > k:
            return Fraction(0)
        return self.factorial(k) / (self.factorial(j) * self.factorial(k - j))


def q_binomial(k: int, j: int, q) -> Fraction:
    """Gaussian binomial [k choose j]_q = [k]_q! / ([j]_q! [k-j]_q!).

    Zero for j outside 0..k; symmetric under j <-> k-j; positive otherwise.
    Computed as prod_{i=1..j} [k-j+i]_q / [i]_q with j replaced by
    min(j, k-j), from one q-number sweep.
    """
    check_int(k, "k")
    if check_int(j, "j", None, None) < 0 or j > k:
        return Fraction(0)
    j = min(j, k - j)
    numbers = list(islice(q_numbers(as_qparam(q)), k))
    return (math.prod(numbers[k - j:], start=Fraction(1))
            / math.prod(numbers[:j], start=Fraction(1)))


def q_binomial_pascal(k: int, j: int, q) -> Fraction:
    """Gaussian binomial via the Pascal-type recursion

        [k choose j]_q = q^j [k-1 choose j]_q + [k-1 choose j-1]_q.

    An independent route kept as a cross-check oracle; it must agree with
    :func:`q_binomial` everywhere. For q = a/b it runs columns 0..j of the
    integer rows G_{r,i} = [r ch i]_q b^(i(r-i)) up to row k, by
    G_{r,i} = a^i G_{r-1,i} + b^(r-i) G_{r-1,i-1}, a big integer times a
    small one with no gcd, and divides once, by b^(j(k-j)); k is capped at
    :data:`PASCAL_MAX_K`.
    """
    check_int(k, "k")
    if k > PASCAL_MAX_K:
        raise DomainError(f"the Pascal route takes k <= {PASCAL_MAX_K}, got {k}; "
                          "use q_binomial for larger k")
    if check_int(j, "j", None, None) < 0 or j > k:
        return Fraction(0)
    a, b = as_qparam(q).value.as_integer_ratio()
    a_pow, b_pow = [1], [1]   # a^i, b^i
    row = [1]                 # G_{0,0}
    for r in range(1, k + 1):
        b_pow.append(b_pow[-1] * b)
        if r <= j:
            a_pow.append(a_pow[-1] * a)
            row = row + [0]   # G_{r-1,r}
        row = [1] + [a_pow[i] * row[i] + b_pow[r - i] * row[i - 1] for i in range(1, len(row))]
    return Fraction(row[j], b ** (j * (k - j)))


def radius_of_convergence(q) -> "Fraction | float":
    """Radius of convergence of the q-exponential series.

    (1 - q)^(-1) for 0 < q < 1; infinite for q >= 1, where the series
    converges for every finite argument.
    """
    qp = as_qparam(q)
    if qp.value < 1:
        return 1 / (1 - qp.value)
    return math.inf
