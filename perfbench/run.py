"""qexpseries benchmark: one workload per run, seeded, oracle-checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``attempted`` counts the timed
ops and ``failed`` the ops the oracle rejected, that raised, or that gave
another output than in the first round; the edge probes are not ops.

``--trace 0`` measures the end-to-end metrics. The seed fixes one round of
inputs (``workloads.py``). Rounds run one after another, each in a fresh
single-threaded worker process (``worker.py``), while the next one, judged
by the last, still ends within ``--seconds`` of wall time. The oracle checks
the first round; later rounds must give the same outputs. Only the op itself
is timed. The latency metrics are taken over each cell's fastest time in the
run: on a shared machine other tenants only ever add time, and they add a
different amount in every run, while the fastest of a cell's repeats is
what the program costs. ``setup_s`` is the median of the workers' import
times. ``--trace 1`` runs one round in this process with spans around every
public function (see ``tracing.py``), replays it untraced in a worker, and
reports per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import pickle
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import IDENTITY_CHECKS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
ROUND_TIMEOUT = 150
WORKLOAD_NAMES = ("verify_grid", "coeffs_deep", "eval_exact", "eval_float")


def run_round(payload):
    """One round in a fresh worker: (import s, peak RSS KiB, results)."""
    done = subprocess.run([sys.executable, str(WORKER)], input=payload, cwd=ROOT,
                          capture_output=True, timeout=ROUND_TIMEOUT)
    if done.returncode:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return pickle.loads(done.stdout)


def run_rounds(workload, seed, seconds):
    """Run rounds until the next would end after ``seconds``; check the
    first round with the oracle and every later one against the first."""
    inputs = workload.round_inputs()
    payload = pickle.dumps((workload.name, seed, [inp for _, inp in inputs]))
    per_cell, latencies, setups, peaks = {}, [], [], []
    first = []
    failed = 0
    start = perf_counter()
    while True:
        r0 = perf_counter()
        setup, peak_kib, results = run_round(payload)
        round_wall = perf_counter() - r0
        setups.append(setup)
        peaks.append(peak_kib)
        for i, ((cell, inp), (latency, out, error)) in enumerate(zip(inputs, results)):
            per_cell.setdefault(cell, []).append(latency)
            latencies.append(latency)
            if error is not None:
                ok = False
                print(f"op failed: {inp!r}: {error}", file=sys.stderr)
            elif len(first) < len(inputs):
                ok = workload.check(inp, out)
            else:
                ok = first[i] is not None and workload.same(first[i], out)
            if len(first) < len(inputs):
                first.append(out if ok else None)
            if not ok:
                failed += 1
                print(f"rejected: {inp!r}", file=sys.stderr)
        if perf_counter() - start + round_wall > seconds:
            break
    return per_cell, latencies, failed, setups, peaks, perf_counter() - start


def run_probes(workload):
    from workloads import probe_ok
    results = {name: probe_ok(fn) for name, fn in workload.probes.items()}
    for name, ok in results.items():
        print(f"probe {'pass' if ok else 'FAIL'}: {name}")
    return sum(not ok for ok in results.values()), len(results)


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(workload, seed, seconds):
    per_cell, latencies, failed, setups, peaks, wall = run_rounds(workload, seed, seconds)
    best = sorted(min(v) for v in per_cell.values())
    p90 = statistics.quantiles(best, n=10)[8]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(len(best) / sum(best), "ops/s"),
        "op_p50_ms": metric(statistics.median(best) * 1e3, "ms"),
        "op_p90_ms": metric(p90 * 1e3, "ms"),
        "peak_rss_mb": metric(statistics.median(peaks) / 1024, "MB"),
    }
    probes_failed, probes = run_probes(workload)
    ops = len(latencies)
    print(f"ops: {ops} in {len(setups)} rounds, {wall:.1f} s; {len(best)} cells, "
          f"{ops / len(best):.0f} timings each ({sum(x > p90 for x in best)} cells "
          f"above p90); probes failed: {probes_failed}/{probes}")
    every = statistics.quantiles(latencies, n=10)
    print(f"  over every timing: {ops / sum(latencies):.6g} ops/s, "
          f"p50 {every[4] * 1e3:.6g} ms, p90 {every[8] * 1e3:.6g} ms")
    table = dict(metrics)
    table["fail_ratio"] = metric((failed + probes_failed) / (ops + probes), "ratio")
    if hasattr(workload, "bound_miss_ratio"):
        table["bound_miss_ratio"] = metric(workload.bound_miss_ratio(), "ratio")
    else:
        table["bound_miss_ratio"] = {"value": "n/a (no tail bounds)", "unit": "ratio"}
    for name, m in table.items():
        print(f"  {name:18s} {m['value']!s:>24} {m['unit']}")
    return ops, failed, metrics


LAYER_METRICS = (
    ("qnumbers.q_number", ("calls", "self_ms")),
    ("qnumbers.QFactorialTable", ("calls", "self_ms", "max_bits")),
    ("qnumbers.QFactorialTable.binomial", ("calls", "self_ms")),
    ("series.mul_exact", ("calls", "self_ms", "max_bits")),
    ("series.scale_substitute", ("calls", "self_ms")),
    ("series.mul_complex", ("calls", "self_ms")),
    ("series.compare", ("calls", "self_ms")),
    ("series.exp", ("calls", "self_ms", "max_bits")),
    ("qexp.log_coeffs_recursive", ("calls", "self_ms", "max_bits")),
    ("qexp.qexp_series", ("calls", "self_ms", "max_bits")),
    ("qexp.log_coeffs_closed", ("calls", "self_ms", "max_bits")),
    ("qexp.eval_qexp", ("calls", "self_ms", "terms")),
    ("qexp.eval_log_qexp", ("calls", "self_ms", "terms", "fallback_ratio")),
    *((f"identities.check_{name}", ("calls", "self_ms")) for name in IDENTITY_CHECKS),
    ("identities.run_suite", ("self_ms",)),
    ("identities.reports_to_json", ("self_ms",)),
    ("cli.main", ("calls", "self_ms")),
)
UNITS = {"calls": "count", "self_ms": "ms", "max_bits": "bits", "terms": "terms/call",
         "fallback_ratio": "ratio"}


def traced(workload, seed, spans_path):
    inputs = workload.round_inputs()
    tracer = Tracer()
    tracer.install()
    latencies = []
    failed = 0
    checking = 0.0
    start = perf_counter()
    try:
        for _cell, inp in inputs:
            tracer.active = True
            t0 = perf_counter()
            try:
                out = tracer.op(workload.op, inp)
            except Exception as exc:   # an op that raises is a failed op
                latencies.append(perf_counter() - t0)
                failed += 1
                print(f"op failed: {inp!r}: {exc!r}", file=sys.stderr)
                continue
            finally:
                tracer.active = False
            latencies.append(perf_counter() - t0)
            c0 = perf_counter()
            out = workload.portable(out)
            if hasattr(workload, "output_bytes"):
                tracer.count("cli.output_bytes", workload.output_bytes(out))
            if not workload.check(inp, out):
                failed += 1
                print(f"rejected: {inp!r}", file=sys.stderr)
            checking += perf_counter() - c0
    finally:
        tracer.uninstall()
    wall = perf_counter() - start
    _setup, _peak, replay = run_round(pickle.dumps(
        (workload.name, seed, [inp for _, inp in inputs])))
    rows = tracer.table()
    empty = {"calls": 0, "self_ms": 0.0, "max_bits": 0, "terms": 0, "fallback": 0}
    metrics = {}
    for span, fields in LAYER_METRICS:
        row = rows.get(span, empty)
        for field in fields:
            if field == "terms":
                value = row["terms"] / row["calls"] if row["calls"] else 0.0
            elif field == "fallback_ratio":
                value = row["fallback"] / row["calls"] if row["calls"] else 0.0
            else:
                value = row[field]
            metrics[f"{span}.{field}"] = metric(value, UNITS[field])
    metrics["cli.output_bytes"] = metric(tracer.counters.get("cli.output_bytes", 0), "bytes")
    metrics["qexp.bound_miss_ratio"] = metric(
        workload.bound_miss_ratio() if hasattr(workload, "bound_miss_ratio") else 0.0, "ratio")
    untraced_s = sum(latency for latency, _out, _error in replay)
    metrics["trace.overhead_ratio"] = metric(sum(latencies) / untraced_s, "ratio")

    print(f"{'span':40s} {'calls':>8s} {'self_ms':>12s} {'max_bits':>9s} {'terms/call':>10s}")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_ms"]):
        terms = f"{row['terms'] / row['calls']:.1f}" if row["terms"] else ""
        print(f"{name:40s} {row['calls']:8d} {row['self_ms']:12.3f} "
              f"{row['max_bits'] or '':>9} {terms:>10s}")
    if rows.get("qexp.eval_log_qexp"):
        print(f"fallback_ratio base: {rows['qexp.eval_log_qexp']['calls']} eval_log_qexp calls")
    self_ms = sum(r["self_ms"] for n, r in rows.items() if n != "bench.op")
    bench_ms = rows.get("bench.op", empty)["self_ms"] + (checking + tracer.measuring) * 1e3
    print(f"traced wall {wall * 1e3:.1f} ms = layer self {self_ms:.1f} ms + benchmark "
          f"{bench_ms:.1f} ms (op glue, oracle, height reads) + unaccounted "
          f"{wall * 1e3 - self_ms - bench_ms:.1f} ms")
    tracer.dump(spans_path)
    print(f"spans: {len(tracer.spans)} over {tracer.op_id} ops, written to "
          f"{spans_path.relative_to(ROOT)}; overhead {sum(latencies):.3f} s traced "
          f"vs {untraced_s:.3f} s untraced")
    return len(inputs), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qexpseries" / "__init__.py").is_file():
        print(f"error: no qexpseries package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}; "
          f"Python {platform.python_version()} on {platform.platform()}")
    if args.trace:
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        ops, failed, metrics = traced(workload, args.seed, spans_path)
    else:
        ops, failed, metrics = untraced(workload, args.seed, args.seconds)
    if hasattr(workload, "summary"):
        print(workload.summary())
    print(json.dumps({"correct": failed == 0, "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
