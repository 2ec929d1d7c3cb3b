"""In-memory span recorder that wraps the package's public functions.

The program itself carries no tracing: :meth:`Tracer.install` replaces each
public function in every ``qexpseries`` module that holds it (``cli`` and
``identities`` import ``qexp_series`` by name, for instance) and patches
methods on their class. A span records its name, op id, parent, duration and
self time, where self time is the duration minus the time of its child
spans. Heights (``max_bits``) and term counts are read from the returned
value after the span's clock has stopped, and that time is removed from
every enclosing span too.

``scalars`` gets no spans: its calls take under a microsecond, so a span
would cost more than it measures.
"""

from __future__ import annotations

import functools
import importlib
import json
from fractions import Fraction
from time import perf_counter

MODULES = ("qexpseries", "qexpseries.scalars", "qexpseries.qnumbers",
           "qexpseries.series", "qexpseries.qexp", "qexpseries.identities",
           "qexpseries.cli")

IDENTITY_CHECKS = ("qbinomial_sum", "reciprocal_product", "reflection_product",
                   "scaling_product", "root_of_unity_product", "coeff_sign_flip",
                   "coeff_double_order", "coeff_power_scale", "coeff_multiple_order")


def _bits(values) -> int:
    best = 0
    for v in values:
        if isinstance(v, Fraction):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _series_bits(result, args):
    return {"bits": _bits(result.coeffs)}


def _vector_bits(result, args):
    return {"bits": _bits(result.values)}


def _qexp_bits(result, args):
    return {"bits": _bits(result.series.coeffs)}


def _table_bits(result, args):
    return {"bits": _bits(args[0].values)}


def _evaluation(result, args):
    return {"terms": result.order, "fallback": result.method == "log_of_qexp"}


# span name -> (module, attribute, measure); functions are patched wherever
# a package module holds them
FUNCTIONS = {
    "qnumbers.q_number": ("qexpseries.qnumbers", "q_number", None),
    "qexp.qexp_series": ("qexpseries.qexp", "qexp_series", _qexp_bits),
    "qexp.log_coeffs_closed": ("qexpseries.qexp", "log_coeffs_closed", _vector_bits),
    "qexp.log_coeffs_recursive": ("qexpseries.qexp", "log_coeffs_recursive", _vector_bits),
    "qexp.eval_qexp": ("qexpseries.qexp", "eval_qexp", _evaluation),
    "qexp.eval_log_qexp": ("qexpseries.qexp", "eval_log_qexp", _evaluation),
    "identities.run_suite": ("qexpseries.identities", "run_suite", None),
    "identities.reports_to_json": ("qexpseries.identities", "reports_to_json", None),
    "cli.main": ("qexpseries.cli", "main", None),
}
FUNCTIONS.update({f"identities.check_{name}": ("qexpseries.identities", f"check_{name}", None)
                  for name in IDENTITY_CHECKS})

# span name -> (module, class, method, measure)
METHODS = {
    "qnumbers.QFactorialTable": ("qexpseries.qnumbers", "QFactorialTable", "__init__", _table_bits),
    "qnumbers.QFactorialTable.binomial": ("qexpseries.qnumbers", "QFactorialTable", "binomial", None),
    "series.scale_substitute": ("qexpseries.series", "TruncatedSeries", "scale_substitute", None),
    "series.compare": ("qexpseries.series", "TruncatedSeries", "compare", None),
    "series.exp": ("qexpseries.series", "TruncatedSeries", "exp", _series_bits),
}


class _Frame:
    __slots__ = ("span_id", "child", "excluded")

    def __init__(self, span_id):
        self.span_id = span_id
        self.child = 0.0      # summed durations of direct children
        self.excluded = 0.0   # measuring time inside this span, not program time


class Tracer:
    """Records spans while active; one instance per traced run."""

    def __init__(self):
        self.spans = []       # (op_id, span_id, parent_id, name, start, duration, self_s, extra)
        self.counters = {}
        self.active = False
        self.op_id = 0
        self.measuring = 0.0  # seconds spent reading bits/terms, outside every span
        self._stack = []
        self._next_id = 0
        self._patched = []    # (owner, attribute, original)

    # -- recording ----------------------------------------------------------
    def call(self, name, fn, args, kwargs, measure=None):
        if not self.active:
            return fn(*args, **kwargs)
        self._next_id += 1
        frame = _Frame(self._next_id)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stop = perf_counter()
            self._stack.pop()
            self._close(name, frame, parent, start, stop, stop, {})
            raise
        stop = perf_counter()
        self._stack.pop()
        extra = measure(result, args) if measure else {}
        self._close(name, frame, parent, start, stop, perf_counter(), extra)
        return result

    def _close(self, name, frame, parent, start, stop, measured, extra):
        duration = stop - start - frame.excluded
        self.spans.append((self.op_id, frame.span_id,
                           parent.span_id if parent else None, name, start,
                           duration, duration - frame.child, extra))
        if parent is None:
            self.measuring += frame.excluded + (measured - stop)
        else:
            parent.child += duration
            parent.excluded += frame.excluded + (measured - stop)

    def op(self, fn, *args):
        """Run one benchmark op as a root span ``bench.op``; its self time is
        the benchmark's own share of the op (capture, argument building)."""
        self.op_id += 1
        return self.call("bench.op", fn, args, {})

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- patching -------------------------------------------------------------
    def _wrap(self, name, fn, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure)
        return wrapper

    def _wrap_mul(self, fn):
        @functools.wraps(fn)
        def wrapper(left, right):
            if left.exact:
                return self.call("series.mul_exact", fn, (left, right), {}, _series_bits)
            return self.call("series.mul_complex", fn, (left, right), {})
        return wrapper

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (module, attr, measure) in FUNCTIONS.items():
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, (module, cls_name, attr, measure) in METHODS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, measure))
        series_cls = importlib.import_module("qexpseries.series").TruncatedSeries
        self._patched.append((series_cls, "__mul__", series_cls.__mul__))
        series_cls.__mul__ = self._wrap_mul(series_cls.__mul__)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting ------------------------------------------------------------
    def dump(self, path):
        """Write every span as one JSON line: op id, span id, parent id, name,
        start (s, from the earliest span), duration and self time (s), extras."""
        path.parent.mkdir(exist_ok=True)
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w") as out:
            for op, sid, parent, name, start, duration, self_s, extra in self.spans:
                out.write(json.dumps([op, sid, parent, name, start - origin,
                                      duration, self_s, extra]) + "\n")

    def table(self):
        """Per span name: calls, self_ms, max_bits, mean terms, fallbacks."""
        rows = {}
        for _op, _sid, _parent, name, _start, _dur, self_s, extra in self.spans:
            row = rows.setdefault(name, {"calls": 0, "self_ms": 0.0, "max_bits": 0,
                                         "terms": 0, "fallback": 0})
            row["calls"] += 1
            row["self_ms"] += self_s * 1e3
            row["max_bits"] = max(row["max_bits"], extra.get("bits", 0))
            row["terms"] += extra.get("terms", 0)
            row["fallback"] += bool(extra.get("fallback"))
        return rows
