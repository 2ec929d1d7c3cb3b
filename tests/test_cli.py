"""CLI contract tests: formats, exit codes, exactness across the boundary."""

import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qexpseries import (DEFAULT_MAX_TERMS, DEFAULT_TOL, SuiteConfig, VerificationReport,
                        as_qparam, eval_log_qexp, eval_qexp)
import qexpseries.cli as cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(capsys, *argv):
    """Exit code of a run that may stop in argparse, and its stderr."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


class TestCoeffs:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--q", "1/2", "--order", "4",
                               "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert [r["k"] for r in rows] == ["0", "1", "2", "3", "4"]
        assert rows[1]["log_closed"] == "1"
        assert rows[2]["log_closed"] == "1/6"
        assert rows[2]["log_recursion"] == "1/6"
        assert all(r["difference"] == "0" for r in rows)
        assert rows[3]["qexp_coeff"] == "8/21"

    def test_classical_point_log_vanishes(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--q", "1", "--order", "4",
                               "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert [r["log_closed"] for r in rows[2:]] == ["0", "0", "0"]

    def test_rejects_nonpositive_q(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", "--q", "0", "--order", "4"])
        assert exc.value.code == 2

    def test_rejects_bad_q_string(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", "--q", "abc", "--order", "4"])
        assert exc.value.code == 2

    def test_rejects_negative_order(self, capsys):
        for order in ("-3", str(2 ** 80)):
            with pytest.raises(SystemExit) as exc:
                cli.main(["coeffs", "--q", "1/2", "--order", order])
            assert exc.value.code == 2

    def test_order_zero(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--q", "1/2", "--order", "0",
                               "--format", "csv")
        assert code == 0
        assert len(parse_csv(out)) == 1

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--q", "2/3", "--order", "3",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == "2/3"
        assert payload["order"] == 3
        # 1/[2]_(2/3)! = 1/(5/3)
        assert payload["rows"][2]["qexp_coeff"] == "3/5"
        assert len(payload["rows"]) == 4

    def test_decimals_column(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--q", "1/2", "--order", "2",
                               "--format", "csv", "--decimals", "6")
        rows = parse_csv(out)
        assert code == 0
        assert rows[2]["qexp_coeff_dec"] == "0.666667"
        # the largest precision a format spec takes; %g drops the zeros
        code, out, _ = run_cli(capsys, "coeffs", "--q", "1/2", "--order", "2",
                               "--format", "csv", "--decimals", str(2 ** 31 - 1))
        assert code == 0
        assert parse_csv(out)[2]["qexp_coeff_dec"] == f"{2 / 3:.60g}"


class TestEval:
    def test_outside_radius_exits_one_naming_radius(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--q", "1/2", "--z", "3")
        assert code == 1
        assert "2" in err and "radius" in err

    def test_classical_e(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--q", "1", "--z", "1",
                               "--tol", "1e-12")
        assert code == 0
        assert "2.71828182845" in out

    def test_base_two_matches_oracle(self, capsys):
        # oracle: partial sums with [k]_2! = prod (2^i - 1)
        total, factorial = Fraction(0), 1
        for k in range(60):
            if k:
                factorial *= 2 ** k - 1
            total += Fraction(1, factorial)
        code, out, _ = run_cli(capsys, "eval", "--q", "2", "--z", "1",
                               "--tol", "1e-14", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["qexp"]["value"] - float(total)) <= 1e-13

    def test_tiny_tail_is_not_zero(self, capsys):
        # the log's tail bound is about 1e-600: it prints as the least
        # subnormal, not as 0.000e+00, which would claim an exact value
        code, out, _ = run_cli(capsys, "eval", "--q", "1/2", "--z", f"1/{10 ** 300}")
        assert code == 0
        assert "tail <= 4.941e-324" in out and "0.000e+00" not in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--q", "2", "--z", "3",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"q", "z", "tol", "qexp", "log_qexp"}
        assert payload["log_qexp"]["method"] == "log_of_qexp"
        assert math.isclose(math.exp(payload["log_qexp"]["value"]),
                            payload["qexp"]["value"], rel_tol=1e-10)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--q", "1", "--z", "1",
                               "--format", "csv")
        rows = parse_csv(out)
        assert code == 0
        assert [r["function"] for r in rows] == ["qexp", "log_qexp"]

    def test_iteration_limit_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--q", "1/2", "--z", "199/100",
                               "--max-terms", "5")
        assert code == 1
        assert "tail bound" in err

    def test_rejects_zero_denominator(self, capsys):
        code, err = exit_code(capsys, "eval", "--q", "1/2", "--z", "1/0")
        assert code == 2
        assert "not a number: '1/0'" in err

    def test_rejects_bad_tol(self, capsys):
        for tol in ("-1", "inf", "nan", "a"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["eval", "--q", "1", "--z", "1", "--tol", tol])
            assert exc.value.code == 2


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "qbinomial_sum",
                               "--q", "1/2", "--kmax", "12")
        assert code == 0
        assert "PASS" in out
        assert "k_max=12" in out
        assert out.strip().endswith("1/1 checks passed")

    def test_full_suite_small_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--q", "2/3",
                               "--order", "12", "--kmax", "16")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines and all(l.startswith("PASS") for l in lines)

    def test_order_reaches_root_of_unity_product(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "root_of_unity_product",
                               "--q", "1/2", "--n", "3", "--order", "8")
        assert code == 0
        assert "PASS exact   root_of_unity_product  q=1/2 n=3 order=8" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "coeff_sign_flip",
                               "--q", "1/2", "--q", "2", "--kmax", "8",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [r["q"] for r in payload] == ["1/2", "2"]
        assert all(r["passed"] for r in payload)
        assert all(set(r) >= {"identity", "q", "params", "mode", "passed",
                              "worst_residuals"} for r in payload)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "reflection_product",
                               "--q", "1/2", "--order", "8", "--format", "csv")
        rows = parse_csv(out)
        assert code == 0
        assert rows[0]["identity"] == "reflection_product"
        assert rows[0]["passed"] == "True"

    def test_failure_exits_one(self, capsys, monkeypatch):
        failing = VerificationReport(
            identity="qbinomial_sum", q=as_qparam(Fraction(1, 2)),
            params={"k_max": 4}, mode="exact", passed=False,
            residuals=((3, Fraction(1, 7)),))
        monkeypatch.setattr(cli, "run_suite", lambda config: (failing,))
        code, out, _ = run_cli(capsys, "verify", "--suite", "qbinomial_sum")
        assert code == 1
        assert "FAIL" in out
        assert "0/1 checks passed" in out

    def test_rejects_small_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--n", "1"])
        assert exc.value.code == 2


class TestErrors:
    """Every library error ends as exit 1 or 2 with an error line, never a
    traceback."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "reflection_product", "--order", "1"],
        ["verify", "--suite", "qbinomial_sum", "--kmax", "1"],
        ["eval", "--q", "1/2", "--z", "1", "--tol", "inf"],
        ["eval", "--q", "2", "--z", "100000000000000"],
        # counts past sys.maxsize, and a precision past the format spec's
        ["coeffs", "--q", "1/2", "--order", str(2 ** 80)],
        ["verify", "--suite", "reflection_product", "--order", str(2 ** 80)],
        # n k_max past sys.maxsize in the stepped closed-form sweep
        ["verify", "--suite", "coeff_double_order", "--q", "1/2", "--kmax", str(sys.maxsize)],
        ["coeffs", "--q", "1/2", "--order", "2", "--decimals", str(2 ** 31)],
        # there is no such option: --order reaches every product check
        ["verify", "--suite", "root_of_unity_product", "--numeric-order", "8"],
    ])
    def test_exits_without_traceback(self, capsys, argv):
        code, err = exit_code(capsys, *argv)
        assert code in (1, 2)
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int->str digit limit in this Python")
    def test_digit_limit_names_the_setting(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, err = exit_code(capsys, "coeffs", "--q", "5/7", "--order", "128")
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 1
        assert "PYTHONINTMAXSTRDIGITS" in err and "Traceback" not in err


#: stdout of each command, pinned byte for byte: column padding, csv quoting
#: and line ends, JSON indentation.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert out == GOLDEN[command]


class TestParser:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_scalar_argument_classification(self):
        assert cli._scalar_arg("3/2") == Fraction(3, 2)
        assert isinstance(cli._scalar_arg("3/2"), Fraction)
        assert isinstance(cli._scalar_arg("1.5"), float)
        assert isinstance(cli._scalar_arg("-4"), Fraction)
        assert isinstance(cli._scalar_arg("2e-3"), float)

    def test_defaults_are_the_library_defaults(self):
        parser = cli.build_parser()
        ev = parser.parse_args(["eval", "--q", "1", "--z", "1"])
        assert (ev.tol, ev.max_terms) == (DEFAULT_TOL, DEFAULT_MAX_TERMS)
        verify = parser.parse_args(["verify"])
        assert (verify.order, verify.kmax) == (SuiteConfig().order, SuiteConfig().k_max)
        for evaluate in (eval_qexp, eval_log_qexp):
            assert evaluate.__defaults__ == (DEFAULT_TOL, DEFAULT_MAX_TERMS)
