"""Series arithmetic that only the tests use.

The package's :class:`~qexpseries.TruncatedSeries` keeps construction,
equality, the product, log and exp. The constants and the coefficientwise
sum and difference that the test oracles build on live here, apart from
the code under test.
"""

from qexpseries import TruncatedSeries


def one(order: int) -> TruncatedSeries:
    """The constant series 1 at the given order."""
    return TruncatedSeries([1] + [0] * order)


def zero(order: int) -> TruncatedSeries:
    """The zero series at the given order."""
    return TruncatedSeries([0] * (order + 1))


def add(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f + g, coefficientwise, at their common order."""
    assert f.order == g.order, (f.order, g.order)
    return TruncatedSeries(x + y for x, y in zip(f.coeffs, g.coeffs))


def sub(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f - g, coefficientwise, at their common order."""
    assert f.order == g.order, (f.order, g.order)
    return TruncatedSeries(x - y for x, y in zip(f.coeffs, g.coeffs))
