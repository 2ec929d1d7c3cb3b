"""The contract between the package and the benchmark's tracer.

``perfbench/tracing.py`` patches package functions and methods by their
names, ``QFactorialTable`` among them, and reads ``TruncatedSeries.exact``
on every product. Renaming or cutting any of them breaks the traced
benchmark runs, so the tracer is loaded from its file, used unchanged, and
must record and then restore the package.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import qexpseries
import qexpseries.cli as cli
from qexpseries import QFactorialTable, SuiteConfig, TruncatedSeries, qexp_series

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_state(modules):
    """The namespaces the tracer patches: every traced module and class.
    All modules are imported first, as an import adds the submodule to the
    package's namespace."""
    modules = [importlib.import_module(name) for name in modules]
    state = {module.__name__: dict(vars(module)) for module in modules}
    for cls in (QFactorialTable, TruncatedSeries):
        state[cls.__qualname__] = dict(vars(cls))
    return state


def test_spans_recorded_and_package_restored():
    tracing = load_tracing()
    before = package_state(tracing.MODULES)
    series = qexp_series(Fraction(1, 2), 8).series
    config = SuiteConfig(qs=(Fraction(1, 2),), checks=("reflection_product",), order=8)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        tracer.op(lambda: series * series.scale_substitute(-1))
        reports = tracer.op(lambda: qexpseries.run_suite(config))
    finally:
        tracer.uninstall()
    assert [r.passed for r in reports] == [True]
    names = {span[3] for span in tracer.spans}
    assert {"series.mul_exact", "identities.run_suite",
            "identities.check_reflection_product"} <= names
    assert package_state(tracing.MODULES) == before


def test_coeffs_records_the_recursion_span(capsys):
    # `qexp coeffs` calls log_coeffs_recursive by name, so its span is live
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        code = tracer.op(lambda: cli.main(["coeffs", "--q", "2/3", "--order", "12"]))
    finally:
        tracer.uninstall()
    assert code == 0 and "log_recursion" in capsys.readouterr().out
    table = tracer.table()
    assert table["qexp.log_coeffs_recursive"]["calls"] == 1
    assert table["qexp.log_coeffs_recursive"]["max_bits"] > 0
    assert {"cli.main", "qexp.qexp_series", "qexp.log_coeffs_closed"} <= set(table)
