"""Command-line surface: coefficient tables, evaluation, identity verification.

Exit codes: 0 success / all checks pass, 1 domain or verification failure,
2 usage error. Rationals cross the boundary as exact "p/q" strings; value
columns stay exact unless --decimals asks for an approximation column.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import asdict
from decimal import MIN_EMIN, Context, Decimal
from fractions import Fraction

from .errors import ConvergenceError, DomainError
from .identities import ALL_IDENTITIES, DEFAULT_NS, DEFAULT_QS, SuiteConfig, run_suite
from .qexp import (DEFAULT_MAX_TERMS, DEFAULT_TOL, eval_log_qexp, eval_qexp, log_coeffs_closed,
                   log_coeffs_recursive, qexp_series)
from .scalars import (_raise_at_digit_cap, check_int, check_q, check_tol, parse_rational,
                      rational_str)

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?$")

FORMATS = ("text", "csv", "json")

COEFF_COLUMNS = ("k", "qexp_coeff", "log_closed", "log_recursion", "difference")


def _arg(convert):
    """An argparse type from ``convert``, which parses the text and runs the
    library's own check on it; a ValueError (DomainError included) becomes
    a usage error."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


_q_arg = _arg(lambda text: check_q(parse_rational(text)))
_tol_arg = _arg(lambda text: check_tol(float(text)))


def _int_arg(name: str, minimum: int, maximum: "int | None" = sys.maxsize):
    return _arg(lambda text: check_int(int(text), name, minimum, maximum))


@_arg
def _scalar_arg(text: str):
    # integers and "p/q" stay exact; anything else becomes binary64
    t = text.strip()
    try:
        return Fraction(t) if _RATIONAL_RE.match(t) else float(t)
    except (ValueError, ZeroDivisionError) as exc:
        _raise_at_digit_cap(exc)
        raise DomainError(f"not a number: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qexp",
        description="Exact q-exponential series: coefficient tables, guarded "
                    "evaluation, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="emit 1/[k]_q! and the log coefficients two ways")
    coeffs.add_argument("--q", type=_q_arg, required=True, metavar="P/Q")
    coeffs.add_argument("--order", type=_int_arg("order", 0), required=True)
    coeffs.add_argument("--format", choices=FORMATS, default="text")
    # the format spec of the decimal columns takes at most 2**31 - 1 digits
    coeffs.add_argument("--decimals", type=_int_arg("decimals", 1, 2 ** 31 - 1), default=None,
                        help="add decimal-approximation columns with this many significant digits")
    coeffs.set_defaults(func=cmd_coeffs)

    ev = sub.add_parser("eval", help="evaluate E_q(z) and ln E_q(z) with certified bounds")
    ev.add_argument("--q", type=_q_arg, required=True, metavar="P/Q")
    ev.add_argument("--z", type=_scalar_arg, required=True,
                    help='argument; "p/q" or integer stays exact, decimals go binary64')
    ev.add_argument("--tol", type=_tol_arg, default=DEFAULT_TOL)
    ev.add_argument("--max-terms", type=_int_arg("max-terms", 1, None),
                    default=DEFAULT_MAX_TERMS)
    ev.add_argument("--format", choices=FORMATS, default="text")
    ev.set_defaults(func=cmd_eval)

    verify = sub.add_parser("verify", help="run identity checks and report pass/fail")
    verify.add_argument("--suite", choices=("all",) + ALL_IDENTITIES, default="all")
    verify.add_argument("--q", type=_q_arg, action="append", metavar="P/Q",
                        help="grid value; repeatable (default: built-in grid)")
    verify.add_argument("--n", type=_int_arg("n", 2), action="append",
                        help="factor count for the product identities; repeatable (default: 2..5)")
    verify.add_argument("--order", type=_int_arg("order", 1), default=SuiteConfig.order)
    verify.add_argument("--kmax", type=_int_arg("kmax", 1), default=SuiteConfig.k_max)
    verify.add_argument("--format", choices=FORMATS, default="text")
    verify.set_defaults(func=cmd_verify)

    return parser


def _table(columns, cells) -> "list[str]":
    """Text lines of a table, each column padded to its widest cell."""
    lines = [columns] + cells
    widths = [max(len(str(line[i])) for line in lines) for i in range(len(columns))]
    return ["  ".join(str(v).ljust(w) for v, w in zip(line, widths)) for line in lines]


def _write(fmt: str, columns, rows, payload, text=_table) -> None:
    """Print ``rows`` under ``columns`` in the one selected format.

    This is where exact values become text: each Fraction cell goes through
    :func:`rational_str` once, and only the selected format is rendered from
    the cells. ``payload(cells)`` gives the JSON document,
    ``text(columns, cells)`` the text lines.
    """
    cells = [[rational_str(v) if isinstance(v, Fraction) else v for v in row] for row in rows]
    if fmt == "json":
        out = json.dumps(payload(cells), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([columns] + cells)
        out = buf.getvalue()
    else:
        out = "".join(line + "\n" for line in text(columns, cells))
    sys.stdout.write(out)


def cmd_coeffs(args) -> int:
    order = args.order
    series = qexp_series(args.q, order).series
    closed = log_coeffs_closed(order, args.q).values
    # the recursion reads neither the series nor the closed form, so the
    # difference column holds the two routes against each other
    recursive = log_coeffs_recursive(order, args.q).values
    columns = list(COEFF_COLUMNS)
    if args.decimals is not None:
        columns += ["qexp_coeff_dec", "log_closed_dec"]
    rows = []
    for k, (coeff, lc, lr) in enumerate(zip(series.coeffs, closed, recursive)):
        row = [k, coeff, lc, lr, lc - lr]
        if args.decimals is not None:
            row += [_decimal(value, args.decimals) for value in (coeff, lc)]
        rows.append(row)
    _write(args.format, columns, rows, lambda cells: {
        "q": str(args.q), "order": order,
        "rows": [dict(zip(columns, row)) for row in cells]})
    return 0


def _decimal(value: Fraction, digits: int) -> str:
    """%g of value's double; where that is 0.0 or subnormal but value is not 0,
    value's own leading digits, at most 767, the most %g shows of any double."""
    if not value or abs(float(value)) >= sys.float_info.min:
        return f"{float(value):.{digits}g}"
    context = Context(prec=min(digits, 767), Emin=MIN_EMIN)
    return f"{context.divide(*map(Decimal, value.as_integer_ratio())).normalize(context):g}"


def cmd_eval(args) -> int:
    z_text = str(args.z)
    e = eval_qexp(args.q, args.z, args.tol, args.max_terms)
    l = eval_log_qexp(args.q, args.z, args.tol, args.max_terms)
    e_steps = (f"product of {e.order} factors" if e.method == "product"
               else f"through z^{e.order}")
    rows = [["qexp", repr(e.value), e.order, e.tail_bound, e.method],
            ["log_qexp", repr(l.value), l.order, l.tail_bound, l.method]]
    _write(args.format, ["function", "value", "order", "tail_bound", "method"], rows,
           lambda cells: {"q": str(args.q), "z": z_text, "tol": args.tol,
                          "qexp": asdict(e), "log_qexp": asdict(l)},
           lambda columns, cells: [
               f"E_q(z)    = {e.value!r}   [q={args.q}, z={z_text}, "
               f"{e_steps}, tail <= {e.tail_bound:.3e}]",
               f"ln E_q(z) = {l.value!r}   [{l.method}, "
               f"through z^{l.order}, tail <= {l.tail_bound:.3e}]"])
    return 0


def _params_text(report) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(report.params.items()))


def _verify_line(r) -> str:
    status = "PASS" if r.passed else "FAIL"
    line = f"{status} {r.mode:7s} {r.identity:22s} q={r.q} {_params_text(r)}"
    if not r.passed and r.residuals:
        worst_k, worst = r.residuals[0]
        line += f"  worst k={worst_k} residual={worst}"
    if r.note:
        line += f"  ({r.note})"
    return line


def cmd_verify(args) -> int:
    config = SuiteConfig(qs=tuple(args.q or DEFAULT_QS), ns=tuple(args.n or DEFAULT_NS),
                         order=args.order, k_max=args.kmax,
                         checks=ALL_IDENTITIES if args.suite == "all" else (args.suite,))
    reports = run_suite(config)
    passed = sum(r.passed for r in reports)
    rows = [[r.identity, str(r.q), _params_text(r), r.mode, r.passed,
             max((abs(res) for _, res in r.residuals), default=0), r.note]
            for r in reports]
    _write(args.format, ["identity", "q", "params", "mode", "passed", "max_residual", "note"],
           rows, lambda cells: [r.to_json() for r in reports],
           lambda columns, cells: [_verify_line(r) for r in reports]
           + [f"{passed}/{len(reports)} checks passed"])
    return 0 if passed == len(reports) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
