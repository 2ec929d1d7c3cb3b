"""The four workloads: seeded inputs, the op each input drives, its oracle
and the edge probes.

Every op is a user action. A workload draws one round of inputs from the
seed: ``PASSES`` inputs for each of a fixed list of cells (the strata),
shuffled once. A run repeats that round, each time in a fresh process
(``worker.py``), so every round does the same work, every cell is timed
once per round, and no memo cache outlives a round; within a round no input
repeats, so a cache can only help where one call reuses its own work. The
seed only moves values inside a cell (digits of z, signs, phases, which of
two or three q of like cost) and the order of the round. Program functions
are looked up on their module at call time, so the traced run sees the
wrappers it installed. The oracle module (mpmath) is imported only by the
checks, which run in the parent process.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from fractions import Fraction

from qexpseries import cli, errors, identities, qexp, qnumbers

# the height class of DEFAULT_QS: a/b with a, b <= 5, q != 1; coefficients
# stay under CPython's 4300-digit int->str limit through order 110
POOL = tuple(sorted({Fraction(a, b) for a in range(1, 6) for b in range(1, 6)} - {1}))
BELOW = tuple(q for q in POOL if q < 1)
ABOVE = tuple(q for q in POOL if q > 1)


def probe_ok(fn) -> bool:
    """An edge probe passes if it returns or raises DomainError or
    ConvergenceError (for the CLI: exit 1, or argparse's exit 2)."""
    try:
        fn()
    except (errors.DomainError, errors.ConvergenceError, SystemExit):
        return True
    except Exception:
        return False
    return True


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    """Base: ``round_inputs()`` is the run's list of (cell number, input),
    ``PASSES`` distinct inputs per cell from ``draw(cell, index)``, shuffled
    once. ``portable(out)`` turns an op's output into what the oracle
    checks and a worker can pickle; ``same(a, b)`` tells whether two rounds
    gave the same output."""

    PASSES = 1

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def round_inputs(self):
        seen, batch = set(), []
        for index in range(self.PASSES):
            for number, cell in enumerate(self.cells()):
                inp = self.draw(cell, index)
                while inp in seen:
                    inp = self.draw(cell, index)
                seen.add(inp)
                batch.append((number, inp))
        self.rng.shuffle(batch)
        return batch

    @staticmethod
    def portable(out):
        return out

    @staticmethod
    def same(a, b):
        return a == b
        return None


# ---------------------------------------------------------------- verify_grid
class VerifyGrid(Workload):
    """One op: ``qexp verify --suite <id> --q <q> --format json`` in-process,
    i.e. run_suite over one identity and one q with n = 2..5, then JSON.

    A round is 9 identities x 6 q at the default orders. Seed 0 runs exactly
    DEFAULT_QS x DEFAULT_NS. Other seeds replace 5/2 by a member of its
    height class whose nine checks cost within 8% of it (5/3 or 5/4, or keep
    5/2), so every seed keeps the cost profile of DEFAULT_QS; the seed also
    orders the round.
    """

    name = "verify_grid"
    ns = identities.DEFAULT_NS
    TWINS = {Fraction(5, 2): (Fraction(5, 2), Fraction(5, 3), Fraction(5, 4))}

    def __init__(self, seed):
        super().__init__(seed)
        self.reports = [0, 0]   # reports passed, reports checked
        self._qs = tuple(self.rng.choice(self.TWINS[q]) if seed and q in self.TWINS else q
                         for q in identities.DEFAULT_QS)

    def cells(self):
        return [(identity, q) for identity in identities.ALL_IDENTITIES for q in self._qs]

    def draw(self, cell, index):
        return cell

    def op(self, inp):
        identity, q = inp
        config = identities.SuiteConfig(qs=(q,), ns=self.ns, checks=(identity,))
        return identities.reports_to_json(identities.run_suite(config))

    def check(self, inp, out):
        identity, q = inp
        reports = json.loads(out)
        self.reports[0] += sum(r["passed"] for r in reports)
        self.reports[1] += len(reports)
        expected = len(self.ns) if identity in identities.PER_N_IDENTITIES else 1
        return (len(reports) == expected
                and all(r["passed"] and r["identity"] == identity for r in reports)
                and all(not r["worst_residuals"] for r in reports if r["mode"] == "exact"))

    def summary(self):
        return (f"q = {', '.join(map(str, self._qs))}: {self.reports[0]}/{self.reports[1]} "
                f"reports passed")

    probes = {
        "q_binomial_pascal(3000, 1500, 1/2)":
            lambda: qnumbers.q_binomial_pascal(3000, 1500, Fraction(1, 2)),
    }


# ---------------------------------------------------------------- coeffs_deep
class CoeffsDeep(Workload):
    """One op: ``qexp coeffs --q <q> --order <N> --format <fmt>`` in-process
    with stdout captured, then the exact reconstruction
    ``log_coeffs_closed(N, q).as_series().exp()``.

    A round is 20 cells: an order from 42 to 97, weighted to the low end, and
    a group of one to three q of like cost at order 80 (measured), which sets
    the bit height of the coefficients. The groups cycle through the height
    classes max(a, b) = 2, 3, 4, 5. The seed picks the member of the group,
    shifts the order by up to 1 and offsets the rotation of fmt over text,
    csv, json.
    """

    name = "coeffs_deep"
    GROUPS = {2: (("1/2",), ("2",)),
              3: (("1/3", "2/3"), ("3/2",)),
              4: (("1/4", "3/4", "4/3"),),
              5: (("1/5", "2/5"), ("3/5", "4/5", "5/4"), ("5/3", "5/2"))}
    ORDERS = (43, 45, 47, 49, 51, 53, 55, 57, 59, 61,
              64, 67, 70, 73, 76, 80, 84, 88, 92, 96)
    SHIFT = 1

    def __init__(self, seed):
        super().__init__(seed)
        self.offset = self.rng.randrange(len(cli.FORMATS))

    def cells(self):
        cells = []
        for slot, order in enumerate(self.ORDERS):
            groups = self.GROUPS[2 + slot % 4]
            cells.append((slot, order, groups[(slot // 4) % len(groups)]))
        return cells

    def draw(self, cell, index):
        slot, order, group = cell
        order += self.rng.randint(-self.SHIFT, self.SHIFT)
        fmt = cli.FORMATS[(slot + self.offset) % len(cli.FORMATS)]
        return Fraction(self.rng.choice(group)), order, fmt

    def op(self, inp):
        q, order, fmt = inp
        code, text = run_cli(["coeffs", "--q", str(q), "--order", str(order),
                              "--format", fmt])
        return code, text, qexp.log_coeffs_closed(order, q).as_series().exp()

    @staticmethod
    def _rows(fmt, text):
        if fmt == "json":
            return json.loads(text)["rows"]
        if fmt == "csv":
            return list(csv.DictReader(io.StringIO(text)))
        header, *lines = text.splitlines()
        columns = header.split()
        return [dict(zip(columns, line.split())) for line in lines]

    def check(self, inp, out):
        q, order, fmt = inp
        code, text, reconstructed = out
        import oracle
        rows = self._rows(fmt, text)
        inv_fact = oracle.inverse_factorials(q, order)
        return (code == 0 and len(rows) == order + 1
                and [int(r["k"]) for r in rows] == list(range(order + 1))
                and all(r["difference"] == "0" for r in rows)
                and all(r["log_recursion"] == r["log_closed"] for r in rows)
                and [Fraction(r["log_closed"]) for r in rows]
                == oracle.log_coefficients(q, order)
                and [Fraction(r["qexp_coeff"]) for r in rows] == inv_fact
                and reconstructed == inv_fact)

    @staticmethod
    def portable(out):
        code, text, reconstructed = out
        return code, text, list(reconstructed.coeffs)

    @staticmethod
    def output_bytes(out):
        return len(out[1].encode())

    probes = {
        "qexp coeffs --q 5/7 --order 128":
            lambda: run_cli(["coeffs", "--q", "5/7", "--order", "128"]),
        "qexp_series(2, 2.5)": lambda: qexp.qexp_series(2, 2.5),
    }


# ---------------------------------------------------------------- eval_*
def _spread(lo, hi, i, n):
    """The i-th of n points spread evenly over [lo, hi]."""
    return lo + (hi - lo) * (i + 0.5) / n


class EvalExact(Workload):
    """One op: eval_qexp then eval_log_qexp at one (q, z, tol), the
    ``qexp eval --z p/q`` path with an exact rational z.

    A round is 92 cells. Each q < 1 sits at 8 bands of |z|/R, R = 1/(1-q),
    the last one 0.85-0.9, so about 10% of ops are near the radius; the nine
    q take evenly spread points of each band. q = 1 has |z| near 3 and 10.
    Each q > 1 has one point on the series path (|z| below q/(q-1)) and one
    on the log_of_qexp fallback (above it, z > 0). tol rotates over 1e-8,
    1e-10, 1e-12 from cell to cell. The seed moves |z| by up to 0.2% and
    picks the sign; z is p/10000 with p prime to 10, so every z has the
    same height.
    """

    name = "eval_exact"
    RATIOS = ((0.05, 0.2), (0.2, 0.35), (0.35, 0.5), (0.5, 0.6), (0.6, 0.7),
              (0.7, 0.78), (0.78, 0.85), (0.85, 0.9))
    SERIES, FALLBACK = (0.2, 0.9), (1.1, 2.5)
    TOLS = (1e-8, 1e-10, 1e-12)
    JITTER = 0.002

    def __init__(self, seed):
        super().__init__(seed)
        self.bound = [0, 0]       # results outside their own tail_bound, results
        cells = []                # (q, |z|, tol index, may be negative or complex)
        for i, q in enumerate(BELOW):
            for b, band in enumerate(self.RATIOS):
                cells.append((q, _spread(*band, i, len(BELOW)) / (1 - q), b + i, True))
        cells += [(Fraction(1), 3.0, 0, True), (Fraction(1), 10.0, 1, True)]
        for i, q in enumerate(ABOVE):
            scale = q / (q - 1)
            cells.append((q, _spread(*self.SERIES, i, len(ABOVE)) * scale, i, True))
            cells.append((q, _spread(*self.FALLBACK, i, len(ABOVE)) * scale, i + 1, False))
        # a binary64 z is complex in every other cell that allows a sign
        self._cells = [(q, float(m), self.TOLS[t % len(self.TOLS)], s, s and n % 2 == 0)
                       for n, (q, m, t, s) in enumerate(cells)]

    def cells(self):
        return self._cells

    def draw(self, cell, index):
        q, magnitude, tol, signed, rotated = cell
        magnitude *= 1 + self.JITTER * self.rng.uniform(-1, 1)
        return q, self.argument(magnitude, signed, rotated), tol

    def argument(self, magnitude, signed, rotated):
        p = round(magnitude * 10000)
        while math.gcd(p, 10) != 1:
            p += 1
        value = Fraction(p, 10000)
        return -value if signed and self.rng.random() < 0.5 else value

    def op(self, inp):
        q, z, tol = inp
        value = qexp.eval_qexp(q, z, tol)
        try:
            log_value = qexp.eval_log_qexp(q, z, tol)
        except errors.DomainError as exc:
            log_value = exc
        return value, log_value

    @staticmethod
    def portable(out):
        # exceptions compare by identity; keep a DomainError as its message
        value, log_value = out
        if isinstance(log_value, errors.DomainError):
            log_value = ("DomainError", str(log_value))
        return value, log_value

    def check(self, inp, out):
        import oracle
        q, z, _tol = inp
        value, log_value = out
        ref_e, ref_log = oracle.reference(q, z)
        ok = True
        for result, ref, is_log in ((value, ref_e, False), (log_value, ref_log, True)):
            if isinstance(result, tuple):
                # correct only where ln E_q(z) is undefined
                ok = ok and ref_e.imag == 0 and ref_e.real <= 0
                continue
            gap = oracle.distance(result.value, ref)
            slack = result.tail_bound + oracle.ulp(result.value)
            ok = ok and gap <= slack + oracle.allowance(q, z, result, is_log, ref_e)
            self.bound[0] += gap > slack
            self.bound[1] += 1
        return ok

    def bound_miss_ratio(self):
        return self.bound[0] / self.bound[1] if self.bound[1] else 0.0

    def summary(self):
        return (f"bound_miss_ratio = {self.bound_miss_ratio():.6g} "
                f"({self.bound[0]}/{self.bound[1]} results)")

    probes = {
        "eval_qexp(1/2, 1, tol=inf)":
            lambda: qexp.eval_qexp(Fraction(1, 2), 1, tol=math.inf),
    }


class EvalFloat(EvalExact):
    """The eval_exact cells with a binary64 z: complex with a random phase
    in every other cell that allows a sign, real with a random sign in the
    rest. Which cells are complex is fixed, so every cell keeps one cost
    profile. The log_of_qexp cells keep z real and positive, where
    E_q(z) > 0. A float op costs about a millisecond, so a round draws 16
    inputs per cell, |z| moving by up to 5%."""

    name = "eval_float"
    PASSES = 16
    JITTER = 0.05

    def argument(self, magnitude, signed, rotated):
        if rotated:
            phase = self.rng.uniform(0, math.tau)
            return complex(magnitude * math.cos(phase), magnitude * math.sin(phase))
        return -magnitude if signed and self.rng.random() < 0.5 else magnitude

    probes = {
        "eval_qexp(3, 1e300)": lambda: qexp.eval_qexp(3, 1e300),
    }


WORKLOADS = {w.name: w for w in (VerifyGrid, CoeffsDeep, EvalExact, EvalFloat)}
