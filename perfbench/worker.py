"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py < round.pickle > results.pickle

``run.py`` starts one worker per round. stdin holds the pickled
``(workload name, seed, inputs)``. The worker times ``import qexpseries,
qexpseries.cli`` first, before anything else is imported, then runs every
input once and writes the pickled ``(import seconds, peak RSS in KiB,
[(latency s, output or None, error repr or None), ...])`` to stdout. A fresh
process per round means that no memo cache outlives a round, and a round
never repeats an input.
"""

import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]

_t0 = time.perf_counter()
import qexpseries  # noqa: E402,F401
import qexpseries.cli  # noqa: E402,F401
SETUP_S = time.perf_counter() - _t0

import pickle  # noqa: E402
import resource  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    name, seed, inputs = pickle.load(sys.stdin.buffer)
    workload = WORKLOADS[name](seed)
    results = []
    for inp in inputs:
        t0 = time.perf_counter()
        try:
            out = workload.op(inp)
        except Exception as exc:   # an op that raises is a failed op
            results.append((time.perf_counter() - t0, None, repr(exc)))
            continue
        latency = time.perf_counter() - t0
        results.append((latency, workload.portable(out), None))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pickle.dump((SETUP_S, peak_kib, results), sys.stdout.buffer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
