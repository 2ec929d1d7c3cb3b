"""Every public entry reads q, and every exact argument, through one validator.

A bad q raises the same DomainError with the same message at every entry
that takes q. A foreign exact rational -- a numpy fixed-width integer, or a
Fraction built from two of them -- as q, z, tol or a series coefficient,
and a numpy integer as a count, gives what the same value as Python ints
gives: the kernels see Python ints, which never wrap. The numpy cases are
skipped where numpy is absent; the package itself does not use it.
"""

from fractions import Fraction

import pytest

from qexpseries import (ConvergenceError, DomainError, QFactorialTable, SuiteConfig,
                        TruncatedSeries, check_coeff_double_order, check_coeff_multiple_order,
                        check_coeff_power_scale, check_coeff_sign_flip, check_q,
                        check_qbinomial_sum, check_reciprocal_product, check_reflection_product,
                        check_root_of_unity_product, check_scaling_product, cli, eval_log_qexp,
                        eval_qexp, log_coeffs_closed, log_coeffs_recursive, q_binomial,
                        q_binomial_pascal, q_number, qexp_series, radius_of_convergence,
                        rational_str, reports_to_json, run_suite)

#: Each public entry that takes q, called with q alone; the other arguments
#: are large enough that a 64-bit integer power of q would wrap.
ENTRIES = {
    "check_qbinomial_sum": lambda q: check_qbinomial_sum(q, 24),
    "check_reciprocal_product": lambda q: check_reciprocal_product(q, 24),
    "check_reflection_product": lambda q: check_reflection_product(q, 24),
    "check_scaling_product": lambda q: check_scaling_product(q, 3, 24),
    "check_root_of_unity_product": lambda q: check_root_of_unity_product(q, 3, 24),
    "check_coeff_sign_flip": lambda q: check_coeff_sign_flip(q, 40),
    "check_coeff_double_order": lambda q: check_coeff_double_order(q, 40),
    "check_coeff_power_scale": lambda q: check_coeff_power_scale(q, 3, 40),
    "check_coeff_multiple_order": lambda q: check_coeff_multiple_order(q, 3, 40),
    "run_suite": lambda q: run_suite(SuiteConfig(qs=(q,), order=16, k_max=24)),
    "q_number": lambda q: q_number(70, q),
    "q_binomial": lambda q: q_binomial(40, 20, q),
    "q_binomial_pascal": lambda q: q_binomial_pascal(40, 20, q),
    "radius_of_convergence": radius_of_convergence,
    "QFactorialTable": lambda q: QFactorialTable(q, 40),
    "qexp_series": lambda q: qexp_series(q, 40),
    "log_coeffs_closed": lambda q: log_coeffs_closed(40, q),
    "log_coeffs_recursive": lambda q: log_coeffs_recursive(40, q),
    "eval_qexp": lambda q: eval_qexp(q, Fraction(1, 3)),
    "eval_log_qexp": lambda q: eval_log_qexp(q, Fraction(1, 3)),
}

BAD_QS = {
    "float": (0.5, "q must be exact; pass a Fraction or int, not a float"),
    "bool": (True, "q must be rational, got bool"),
    "str": ("1/2", "q must be rational, got str"),
    "zero": (0, "q must be positive, got 0"),
    "negative": (Fraction(-1, 2), "q must be positive, got -1/2"),
    "None": (None, "q must be rational, got NoneType"),
}


@pytest.mark.parametrize("bad", BAD_QS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_bad_q_same_error_everywhere(entry, bad):
    q, message = BAD_QS[bad]
    with pytest.raises(DomainError) as exc:
        ENTRIES[entry](q)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [("0", "q must be positive, got 0"),
                                           ("-1/2", "q must be positive, got -1/2")])
@pytest.mark.parametrize("command", [["coeffs", "--order", "3"], ["eval", "--z", "1/3"],
                                     ["verify"]])
def test_cli_q_same_error(capsys, command, text, message):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, f"--q={text}"])
    assert exc.value.code == 2
    assert f"argument --q: {message}" in capsys.readouterr().err


@pytest.fixture
def np():
    return pytest.importorskip("numpy")


def _plain(value):
    """Whether every Fraction in ``value`` -- a result, its ``q`` and its
    tuples of values -- has Python int parts."""
    if isinstance(value, Fraction):
        return all(type(part) is int for part in value.as_integer_ratio())
    if isinstance(value, (tuple, list)):
        return all(map(_plain, value))
    fields = [getattr(value, name) for name in ("q", "values", "series", "coeffs", "residuals")
              if hasattr(value, name)]
    return all(map(_plain, fields))


def _same(result, expected):
    """``result`` equals ``expected`` and holds only Python ints."""
    if isinstance(expected, QFactorialTable):
        result, expected = (result.q, result.values), (expected.q, expected.values)
    assert result == expected
    assert _plain(result)


def _foreign(np, value):
    """``value`` as a Fraction of two numpy int64s and, if it is an integer,
    as a numpy int64."""
    num, den = Fraction(value).as_integer_ratio()
    return [Fraction(np.int64(num), np.int64(den))] + ([np.int64(num)] if den == 1 else [])


@pytest.mark.parametrize("q", [3, Fraction(3, 2), Fraction(2, 3)])
@pytest.mark.parametrize("entry", ENTRIES)
def test_foreign_q_reads_as_python_ints(np, entry, q):
    expected = ENTRIES[entry](q)
    for value in _foreign(np, q):
        _same(ENTRIES[entry](value), expected)


def test_foreign_q_in_the_suite_bytes(np):
    qs = (Fraction(1, 2), 3, Fraction(3, 2))
    foreign = [value for q in qs for value in _foreign(np, q)]
    expected = reports_to_json(run_suite(SuiteConfig(qs=qs)))
    assert reports_to_json(run_suite(SuiteConfig(qs=foreign))) == expected


def test_foreign_q_repros(np):
    assert q_number(70, np.int64(2)) == 2 ** 70 - 1
    assert q_binomial(40, 20, np.int64(3)) == q_binomial(40, 20, 3)
    assert q_number(70, Fraction(np.int64(3), np.int64(2))) == q_number(70, Fraction(3, 2))
    assert eval_qexp(2, np.int64(3)) == eval_qexp(2, 3)


@pytest.mark.parametrize("q, z", [(2, 3), (Fraction(1, 2), Fraction(1, 3)),
                                  (Fraction(3, 2), Fraction(-7, 4)), (2, Fraction(5, 2))])
@pytest.mark.parametrize("evaluate", [eval_qexp, eval_log_qexp])
def test_foreign_z_reads_as_python_ints(np, evaluate, q, z):
    expected = evaluate(q, z)
    for value in _foreign(np, z):
        assert evaluate(q, value) == expected


@pytest.mark.parametrize("z", [Fraction(1, 3), 0.7, complex(0.3, -0.4)])
@pytest.mark.parametrize("evaluate", [eval_qexp, eval_log_qexp])
def test_foreign_tol_reads_exactly(np, evaluate, z):
    q = Fraction(1, 2)
    for tol in (1, Fraction(1, 10 ** 6)):
        for value in _foreign(np, tol):
            assert evaluate(q, z, value) == evaluate(q, z, tol)
    # a float32 tol is read at its exact value, not rounded to a double
    tol = np.float32(1e-6)
    assert evaluate(q, z, tol) == evaluate(q, z, Fraction(*tol.as_integer_ratio()))
    # a float64 tol, a float subclass, is the Python float of its value, in
    # the result and in error text alike
    assert evaluate(q, z, np.float64(1e-6)) == evaluate(q, z, 1e-6)
    with pytest.raises(ConvergenceError, match=r"^tail bound did not reach tol=1e-300 within 5 "):
        evaluate(q, z, np.float64(1e-300), 5)


def test_foreign_coefficients_read_as_python_ints(np):
    powers = [3 ** k for k in range(30)]
    halves = [1] + [Fraction(c, 2) for c in powers[1:]]
    cases = (([np.int64(c) for c in powers], powers),
             ([1] + [Fraction(np.int64(c), np.int64(2)) for c in powers[1:]], halves))
    for foreign, coeffs in cases:
        expected = TruncatedSeries(coeffs)
        _same(TruncatedSeries(foreign), expected)
        _same(TruncatedSeries(foreign).log(), expected.log())
    assert (TruncatedSeries([0, 1, 2]).scale_substitute(np.int64(3))
            == TruncatedSeries([0, 1, 2]).scale_substitute(3))
    assert rational_str(Fraction(np.int64(-6), np.int64(4))) == "-3/2"
    assert rational_str(np.int64(2) ** 40) == str(2 ** 40)


#: Each public entry that takes a count, called with the count alone; at
#: q = 1/2 a 64-bit power b^(k-1) of a count k = 70 would wrap.
COUNTS = {
    "qexp_series order": lambda k: qexp_series(Fraction(1, 2), k),
    "log_coeffs_closed order": lambda k: log_coeffs_closed(k, Fraction(1, 2)),
    "log_coeffs_recursive order": lambda k: log_coeffs_recursive(k, Fraction(1, 2)),
    "LogCoeffVector.coeff k": lambda k: log_coeffs_closed(70, Fraction(1, 2)).coeff(k),
    "q_number k": lambda k: q_number(k, Fraction(1, 2)),
    "q_binomial k": lambda k: q_binomial(k, 3, Fraction(1, 2)),
    "q_binomial j": lambda j: q_binomial(90, j, Fraction(1, 2)),
    "q_binomial_pascal j": lambda j: q_binomial_pascal(90, j, Fraction(1, 2)),
    "QFactorialTable max_order": lambda k: QFactorialTable(Fraction(1, 2), k),
    "QFactorialTable.binomial j": lambda j: QFactorialTable(Fraction(1, 2), 90).binomial(90, j),
    "scale_substitute stretch": lambda k: TruncatedSeries(range(90)).scale_substitute(2, k),
    "eval_qexp max_terms": lambda k: eval_qexp(Fraction(1, 2), Fraction(1, 3), 1e-12, k),
    "eval_log_qexp max_terms": lambda k: eval_log_qexp(Fraction(1, 2), Fraction(1, 3), 1e-12, k),
    "check_qbinomial_sum k_max": lambda k: check_qbinomial_sum(Fraction(1, 2), k),
    "check_reflection_product order": lambda k: check_reflection_product(Fraction(1, 2), k),
    "check_scaling_product n": lambda n: check_scaling_product(Fraction(1, 2), n // 10, 24),
    "check_root_of_unity_product n": lambda n: check_root_of_unity_product(2, n // 10, 24),
    "check_coeff_power_scale n": lambda n: check_coeff_power_scale(Fraction(1, 2), n // 10, 12),
    "check_coeff_multiple_order k_max":
        lambda k: check_coeff_multiple_order(Fraction(1, 2), 2, k),
}


@pytest.mark.parametrize("entry", COUNTS)
def test_foreign_counts_read_as_python_ints(np, entry):
    expected = COUNTS[entry](70)
    for value in (np.int64(70), np.uint8(70)):
        result = COUNTS[entry](value)
        if hasattr(expected, "to_json"):    # a report: its params must reach the JSON
            assert reports_to_json([result]) == reports_to_json([expected])
        _same(result, expected)


def test_foreign_count_repros(np):
    assert qexp_series(Fraction(1, 2), np.int64(5)) == qexp_series(Fraction(1, 2), 5)
    assert (eval_qexp(Fraction(1, 2), Fraction(1, 3), 1e-12, np.int64(1000))
            == eval_qexp(Fraction(1, 2), Fraction(1, 3)))
    report = check_scaling_product(2, np.int64(3))
    assert report == check_scaling_product(2, 3) and type(report.params["n"]) is int
    assert q_number(np.int64(5), 2) == 31
    # the log series counts its terms from 1, so the int64 top would wrap
    # in max_terms + 1
    top = np.int64(np.iinfo(np.int64).max)
    for z in (Fraction(1, 3), 0.3):
        assert eval_log_qexp(Fraction(1, 2), z, 1e-12, top) == eval_log_qexp(Fraction(1, 2), z)
    for bad in (np.int64(-1), np.bool_(True), np.float64(5.0)):
        with pytest.raises(DomainError, match="^order must be an integer >= 0, got "):
            qexp_series(Fraction(1, 2), bad)
