"""Tests for the truncated power series engine.

The log/exp recursions are cross-checked against independent oracles that
only use series multiplication: the alternating-composition expansion
log f = sum_m (-1)^(m+1) (f-1)^m / m and the power-sum expansion
exp h = sum_m h^m / m!. Both truncate soundly because (f-1) and h have
positive valuation.

Those oracles multiply with the product under test, so the product, log and
exp are also held to the plain reduced-Fraction loops they replaced
(``_reference_mul``, ``_reference_log``, ``_reference_exp``), which share no
code with the Horner kernel that walks the ratios of consecutive
coefficients.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpseries import (DomainError, OrderMismatchError, TruncatedSeries, log_coeffs_closed,
                        qexp_series)
from qexpseries import series
from qexpseries.series import _horner, _link

from oracles import add, one, sub, zero

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@st.composite
def exact_series(draw, constant=None, min_order=0, max_order=10):
    order = draw(st.integers(min_order, max_order))
    head = small_fractions if constant is None else st.just(Fraction(constant))
    coeffs = [draw(head)]
    coeffs += draw(st.lists(small_fractions, min_size=order, max_size=order))
    return TruncatedSeries(coeffs)


@st.composite
def exact_series_pair(draw, constant=None, max_order=10):
    order = draw(st.integers(0, max_order))
    head = small_fractions if constant is None else st.just(Fraction(constant))

    def one_series():
        coeffs = [draw(head)]
        coeffs += draw(st.lists(small_fractions, min_size=order, max_size=order))
        return TruncatedSeries(coeffs)

    return one_series(), one_series()


def _reference_mul(a, b):
    """Cauchy product of two coefficient tuples, one Fraction step per term."""
    out = []
    for k in range(len(a)):
        acc = Fraction(0)
        for i in range(k + 1):
            if a[i] and b[k - i]:
                acc += a[i] * b[k - i]
        out.append(acc)
    return tuple(out)


def _reference_log(a):
    """h_k = a_k - (1/k) sum_{j<k} j a_{k-j} h_j, one Fraction step per term."""
    h = [Fraction(0)] * len(a)
    for k in range(1, len(a)):
        acc = Fraction(0)
        for j in range(1, k):
            acc += j * a[k - j] * h[j]
        h[k] = a[k] - acc / k
    return tuple(h)


def _reference_exp(h):
    """a_k = (1/k) sum_{j<=k} j h_j a_{k-j}, one Fraction step per term."""
    a = [Fraction(1)] + [Fraction(0)] * (len(h) - 1)
    for k in range(1, len(h)):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += j * h[j] * a[k - j]
        a[k] = acc / k
    return tuple(a)


def _kernel_sum(pairs, k=1):
    """sum t * x / k over (t, x) in ``pairs`` through the kernel, walked in
    the given order: the x, all nonzero, are one series' coefficients from
    the top down, so a step's ratio is the x before it over its own."""
    x = [Fraction(x) for _, x in reversed(pairs)]
    nz, up = _link(x, [], {}, range(len(x)))
    terms = ((m, t) for m, (t, _) in zip(reversed(nz), pairs))
    return Fraction(*_horner(terms, up, Fraction(x[0], k)))


def log_by_composition(f: TruncatedSeries) -> TruncatedSeries:
    """Oracle: log f = sum_{m=1}^{N} (-1)^(m+1) (f - 1)^m / m."""
    n = f.order
    delta = sub(f, one(n))
    out = zero(n)
    power = one(n)
    for m in range(1, n + 1):
        power = power * delta
        out = add(out, TruncatedSeries(tuple(c * Fraction((-1) ** (m + 1), m)
                                             for c in power.coeffs)))
    return out


def exp_by_powers(h: TruncatedSeries) -> TruncatedSeries:
    """Oracle: exp h = sum_{m=0}^{N} h^m / m!."""
    n = h.order
    out = one(n)
    power = one(n)
    factorial = 1
    for m in range(1, n + 1):
        power = power * h
        factorial *= m
        out = add(out, TruncatedSeries(tuple(c / factorial for c in power.coeffs)))
    return out


class TestConstruction:
    def test_order(self):
        assert TruncatedSeries([1, 2, 3]).order == 2

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            TruncatedSeries([])

    def test_exact_domain_detection(self):
        assert TruncatedSeries([1, Fraction(1, 2)]).exact is True
        # one inexact coefficient rejects the lot
        for coeffs in ([1.0], [1, 2.0], [1, complex(0, 1)], [1, "1/2"], [True, False], [1, True]):
            with pytest.raises(DomainError, match="exact rationals"):
                TruncatedSeries(coeffs)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            TruncatedSeries([1.0, float("inf")])
        with pytest.raises(DomainError):
            TruncatedSeries([float("nan")])

    def test_one_and_zero(self):
        # the test oracles' constants, as TruncatedSeries builds them
        assert one(3).coeffs == (1, 0, 0, 0)
        assert zero(2).coeffs == (0, 0, 0)
        assert all(type(c) is Fraction for c in one(3).coeffs + zero(2).coeffs)

    def test_immutable(self):
        s = TruncatedSeries([1, 2])
        with pytest.raises(AttributeError):
            s.coeffs = (Fraction(0),)


class TestArithmetic:
    def test_difference_of_squares(self):
        f = TruncatedSeries([1, 1, 0])
        g = TruncatedSeries([1, -1, 0])
        assert (f * g).coeffs == (1, 0, -1)

    def test_multiplicative_identity(self):
        f = TruncatedSeries([Fraction(3, 7), 2, Fraction(-1, 5)])
        assert f * one(2) == f

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            TruncatedSeries([1, 2]) * TruncatedSeries([1, 2, 3])

    def test_mixed_domains_rejected(self):
        for other in (2.0, (1, 2)):
            with pytest.raises(DomainError, match="expected a TruncatedSeries"):
                TruncatedSeries([1, 2]) * other

    @given(exact_series_pair(max_order=8))
    def test_mul_commutes(self, pair):
        f, g = pair
        assert f * g == g * f

    @settings(max_examples=40)
    @given(exact_series_pair(max_order=6), exact_series(max_order=6))
    def test_mul_associates(self, pair, h):
        f, g = pair
        h = TruncatedSeries(list(h.coeffs[: f.order + 1])
                            + [Fraction(0)] * max(0, f.order - h.order))
        assert (f * g) * h == f * (g * h)

    @given(exact_series_pair(max_order=8))
    def test_add_sub_round_trip(self, pair):
        # the test oracles' sum and difference
        f, g = pair
        assert sub(add(f, g), g) == f


class TestScaleSubstitute:
    def test_sign_flip(self):
        assert TruncatedSeries([1, 1]).scale_substitute(-1).coeffs == (1, -1)

    def test_monomial_substitution(self):
        c = Fraction(2, 3)
        assert TruncatedSeries([1, 1]).scale_substitute(c, 2).coeffs[:2] == (1, 0)
        f = TruncatedSeries([1, 1, 0, 0])
        assert f.scale_substitute(c, 2).coeffs == (1, 0, c, 0)

    def test_drops_beyond_order(self):
        f = TruncatedSeries([1, 1, 1])
        # z^2 -> z^4 falls off the end
        assert f.scale_substitute(1, 2).coeffs == (1, 0, 1)

    def test_zero_factor(self):
        f = TruncatedSeries([5, 7, 11])
        assert f.scale_substitute(0).coeffs == (5, 0, 0)

    def test_bad_stretch(self):
        with pytest.raises(DomainError):
            TruncatedSeries([1, 1]).scale_substitute(1, 0)

    def test_float_factor_needs_complex_domain(self):
        # there is no complex domain: a float or complex factor is rejected
        for factor in (0.5, complex(0, 1), True, False):
            with pytest.raises(DomainError, match="exact rational"):
                TruncatedSeries([1, 1]).scale_substitute(factor)

    @given(exact_series(max_order=8), small_fractions)
    def test_evaluation_consistency(self, f, a):
        # f(a z) coefficients are a^k-weighted
        g = f.scale_substitute(a)
        assert all(g.coeffs[k] == f.coeffs[k] * a ** k for k in range(f.order + 1))


class TestLogExp:
    def test_log_of_classical_exp_is_z(self):
        factorial = 1
        coeffs = [Fraction(1)]
        for k in range(1, 9):
            factorial *= k
            coeffs.append(Fraction(1, factorial))
        h = TruncatedSeries(coeffs).log()
        assert h.coeffs == (0, 1) + (0,) * 7

    def test_log_of_geometric_is_harmonic(self):
        # log(1/(1-z)) = sum z^k / k
        f = TruncatedSeries([1] * 9)
        h = f.log()
        assert h.coeffs == tuple([Fraction(0)] + [Fraction(1, k) for k in range(1, 9)])
        assert h == log_by_composition(f)

    def test_log_requires_unit_constant(self):
        with pytest.raises(DomainError):
            TruncatedSeries([2, 1]).log()

    def test_exp_of_zero(self):
        assert zero(5).exp() == one(5)

    def test_exp_of_z_is_classical(self):
        f = TruncatedSeries([0, 1, 0, 0, 0, 0, 0]).exp()
        assert f.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24),
                            Fraction(1, 120), Fraction(1, 720))

    def test_exp_requires_zero_constant(self):
        with pytest.raises(DomainError):
            TruncatedSeries([1, 1]).exp()

    @settings(max_examples=60)
    @given(exact_series(constant=0, max_order=10))
    def test_log_exp_round_trip(self, h):
        assert h.exp().log() == h

    @settings(max_examples=60)
    @given(exact_series(constant=1, max_order=10))
    def test_exp_log_round_trip(self, f):
        assert f.log().exp() == f

    @settings(max_examples=40)
    @given(exact_series_pair(constant=0, max_order=9))
    def test_exp_homomorphism(self, pair):
        h1, h2 = pair
        assert add(h1, h2).exp() == h1.exp() * h2.exp()

    @given(exact_series(constant=1, min_order=1, max_order=8))
    def test_log_keeps_linear_coefficient(self, f):
        assert f.log().coeffs[1] == f.coeffs[1]

    @settings(max_examples=30)
    @given(exact_series(constant=1, max_order=7))
    def test_log_matches_composition_oracle(self, f):
        assert f.log() == log_by_composition(f)

    @settings(max_examples=30)
    @given(exact_series(constant=0, max_order=7))
    def test_exp_matches_power_oracle(self, h):
        assert h.exp() == exp_by_powers(h)


class TestKernelMatchesReference:
    """The Horner kernel's product, log and exp against the plain
    reduced-Fraction loops: equal coefficient tuples, term by term."""

    def test_qexp_series(self):
        for q in (Fraction(1, 7), Fraction(2, 3), Fraction(1), Fraction(5, 2)):
            for order in (0, 1, 17, 48):
                e = qexp_series(q, order).series
                flipped = e.scale_substitute(-1)
                c = log_coeffs_closed(order, q).as_series()
                assert (e * flipped).coeffs == _reference_mul(e.coeffs, flipped.coeffs)
                assert (e * e).coeffs == _reference_mul(e.coeffs, e.coeffs)
                assert e.log().coeffs == _reference_log(e.coeffs)
                assert c.exp().coeffs == _reference_exp(c.coeffs)
                assert e.log().exp().coeffs == _reference_exp(_reference_log(e.coeffs))

    @settings(max_examples=60)
    @given(exact_series_pair(max_order=10))
    def test_mul(self, pair):
        f, g = pair
        assert (f * g).coeffs == _reference_mul(f.coeffs, g.coeffs)

    @settings(max_examples=60)
    @given(exact_series(constant=1, max_order=10), exact_series(constant=0, max_order=10))
    def test_log_and_exp(self, f, h):
        assert f.log().coeffs == _reference_log(f.coeffs)
        assert h.exp().coeffs == _reference_exp(h.coeffs)

    def test_zero_results(self):
        # every term of the product has a zero factor
        f = TruncatedSeries([0, 2])
        g = TruncatedSeries([0, Fraction(5, 7)])
        product = f * g
        assert product.coeffs == _reference_mul(f.coeffs, g.coeffs) == (0, 0)
        assert all(type(c) is Fraction and c.denominator == 1 for c in product.coeffs)
        # nonzero terms that cancel: exp(z - z^2/2) has no z^2 term
        a = TruncatedSeries([0, 1, Fraction(-1, 2)]).exp()
        assert a.coeffs == _reference_exp((0, 1, Fraction(-1, 2))) == (1, 1, 0)
        assert type(a.coeffs[2]) is Fraction and a.coeffs[2].denominator == 1
        # gaps in the chain of ratios: a first factor with leading zeros,
        # (z^2 + z^3) g, and one with no nonzero coefficient
        g = TruncatedSeries([1, Fraction(2, 3), Fraction(-1, 5), 0, 7, Fraction(1, 9), 3])
        for f in (TruncatedSeries([0, 0, 1, 1, 0, 0, 0]), zero(6)):
            product = f * g
            assert product.coeffs == _reference_mul(f.coeffs, g.coeffs)
            assert all(type(c) is Fraction and (c or c.denominator == 1) for c in product.coeffs)
        for coeffs, method, reference in (
                # log of 1 + z^2 - z^4/3: the chain skips the zero odd coefficients
                ((1, 0, 1, 0, Fraction(-1, 3), 0, 0, 0, 0), "log", _reference_log),
                # exp of z^2 + z^4/5: every odd output is zero
                ((0, 0, 1, 0, Fraction(1, 5), 0, 0, 0, 0, 0), "exp", _reference_exp),
                # exp of z - z^2/2 + z^3/7: a zero output, a_2, then nonzero ones
                ((0, 1, Fraction(-1, 2), Fraction(1, 7), 0, 0, 0, 0), "exp", _reference_exp)):
            out = getattr(TruncatedSeries(coeffs), method)().coeffs
            assert out == reference(tuple(map(Fraction, coeffs)))
            assert 0 in out[1:] and any(out[out.index(0, 1):])
            assert all(type(c) is Fraction and (c or c.denominator == 1) for c in out)

    def _check_terms(self, coeffs):
        """The kernel on one sum of ``coeffs`` and through the product, log
        and exp of a series built from them, against the reference loops."""
        total = sum(coeffs, Fraction(0))
        # as weights over a chain of ones (each term's denominator joins the
        # running one in this order), and as the chain itself
        assert _kernel_sum([(c, 1) for c in coeffs]) == total
        assert _kernel_sum([(1, c) for c in coeffs]) == total
        f = TruncatedSeries([1, *coeffs])
        g = TruncatedSeries([1, *reversed(coeffs)])
        h = TruncatedSeries([0, *coeffs])
        assert (f * g).coeffs == _reference_mul(f.coeffs, g.coeffs)
        assert f.log().coeffs == _reference_log(f.coeffs)
        assert h.exp().coeffs == _reference_exp(h.coeffs)

    def test_misses_with_a_common_factor(self):
        # in the plain sum -7/10 meets the running denominator 6 and 3/4
        # meets 30: misses with 1 < gcd < the term's own denominator
        self._check_terms([Fraction(1, 6), Fraction(-7, 10), Fraction(2, 15), Fraction(3, 4),
                           Fraction(5, 6), Fraction(1, 10)])

    def test_misses_with_coprime_denominators(self):
        # distinct primes: every term of the plain sum misses with gcd 1
        self._check_terms([Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), Fraction(1, 7),
                           Fraction(-5, 11), Fraction(4, 13)])

    def test_scale_is_one_reduction(self):
        pairs = [(3 * Fraction(5, 4), Fraction(1, 6)), (-2 * Fraction(1, 9), Fraction(7, 10)),
                 (Fraction(-3, 8), Fraction(2, 15))]
        total = sum(t * x for t, x in pairs)
        for k in (1, 2, 7, 30):
            assert _kernel_sum(pairs, k) == total / k
        # 1/6 - 1/10 - 1/15 = 0: zero over denominator 1 at every scale
        cancelling = [(1, Fraction(1, 6)), (-1, Fraction(1, 10)), (1, Fraction(-1, 15))]
        for k in (1, 2, 7, 30):
            total = _kernel_sum(cancelling, k)
            assert type(total) is Fraction and total == 0 and total.denominator == 1

    @pytest.mark.parametrize("q", [Fraction(2, 5), Fraction(5, 3), Fraction(9, 7)])
    def test_kernel_stays_at_coefficient_height(self, q, monkeypatch):
        """The unreduced denominator of every coefficient of log E_q, of exp
        of the closed-form log and of E_q(z) E_q(-z) is at most 32 bits longer
        than that of 1/[k]_q! (6 bits at most on these inputs). A walk whose
        denominator outgrows the coefficients, say one that joins a term's
        denominator without its gcd, fails here with every value right."""
        order = 64
        e = qexp_series(q, order).series
        c = log_coeffs_closed(order, q).as_series()
        flipped = e.scale_substitute(-1)
        bits = [x.denominator.bit_length() for x in e.coeffs]
        dens = []

        def spy(*args):
            num, den = _horner(*args)
            dens.append(den)
            return num, den

        monkeypatch.setattr(series, "_horner", spy)
        for run, first in ((e.log, 1), (c.exp, 1), (lambda: e * flipped, 0)):
            dens.clear()
            run()
            assert len(dens) == order + 1 - first
            for k, den in enumerate(dens, first):
                assert den.bit_length() <= bits[k] + 32, (run, k)


class TestCompare:
    def test_reflexive(self):
        f = TruncatedSeries([1, Fraction(2, 3), 5])
        assert f.compare(f) == (0, 0, 0)

    def test_exactness_has_no_epsilon(self):
        f = TruncatedSeries([1, 1, 0])
        g = TruncatedSeries([1, 1, Fraction(1, 10 ** 30)])
        assert f.compare(g) == (0, 0, -Fraction(1, 10 ** 30))
