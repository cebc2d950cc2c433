"""The four benchmark workloads: seeded inputs, the timed operation, and checks.

Each workload builds one *round* of operation inputs from the seed.  A run
repeats whole rounds, so every run attempts the same mix of operations and
the per-op statistics do not depend on where the clock ran out.

Every output is checked against a computation made apart from cfkit (plain
integer loops, closed forms, matrix powers by repeated squaring, the
brute-force simulation in tests/brute.py) or against a property the method
must have.  No check compares against stored output.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

from cfkit import (
    ComplexFloat,
    PeriodicCF,
    QuadExt,
    RuleCF,
    as_complexfloat,
    classify,
    evaluate_convergent,
    evaluate_tietze,
    galois_analysis,
    parse_exact,
    quadext,
)

#: ops per run needed for op_p90_ms to have ten samples beyond it
MIN_OPS = 100


# -- independent arithmetic ---------------------------------------------------


def convergent_pairs(b0, steps):
    """(A(n), A(n-1), B(n), B(n-1)) after the (a(k), b(k)) steps k = 1..n.

    The plain three-term loop, written here so that checks share no code
    with cfkit.
    """
    a1, a0, b1, bm = b0, 1, 1, 0
    for a_k, b_k in steps:
        a1, a0 = b_k * a1 + a_k * a0, a1
        b1, bm = b_k * b1 + a_k * bm, b1
    return a1, a0, b1, bm


def period_matrix(a_block, b_block):
    """M = [[A(p-1), a(p)A(p-2)], [B(p-1), a(p)B(p-2)]] as (m11, m12, m21, m22)."""
    p = len(a_block)
    a1, a0, b1, bm = convergent_pairs(b_block[0], zip(a_block[: p - 1], b_block[1:]))
    a_p = a_block[-1]
    return a1, a_p * a0, b1, a_p * bm


def _matmul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _matpow(m, k):
    result = ((1, 0), (0, 1))
    while k:
        if k & 1:
            result = _matmul(result, m)
        m = _matmul(m, m)
        k >>= 1
    return result


def periodic_convergent_by_squaring(a_block, b_block, n):
    """A(n)/B(n) of a purely periodic CF from a power of its step product.

    With T(k) = [[b(k), 1], [a(k), 0]] the pair matrix is
    [[b(0), 1], [1, 0]] T(1) ... T(n), and T(k + p) = T(k), so the product
    is G^(n // p) T(1) ... T(n % p) with G = T(1) ... T(p).
    """
    p = len(a_block)

    def step(k):
        return ((b_block[k % p], 1), (a_block[(k - 1) % p], 0))

    period = ((1, 0), (0, 1))
    for k in range(1, p + 1):
        period = _matmul(period, step(k))
    product = _matpow(period, n // p)
    for k in range(1, n % p + 1):
        product = _matmul(product, step(k))
    pairs = _matmul(((b_block[0], 1), (1, 0)), product)
    return Fraction(pairs[0][0], pairs[1][0])


def sqrt_interval(d: int, digits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= sqrt(d) < hi that are 10**-digits apart."""
    scale = 10**digits
    root = math.isqrt(d * scale * scale)
    return Fraction(root, scale), Fraction(root + 1, scale)


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _parts(x):
    """(a, b, d) with x = a + b*sqrt(d), for a Fraction, int or QuadExt."""
    if isinstance(x, QuadExt):
        return x.a, x.b, x.d
    return Fraction(x), Fraction(0), Fraction(0)


def is_attracting_fixed_point(matrix, x) -> bool:
    """x is the dominant root of m21 x^2 + (m22 - m11) x - m12 = 0.

    Checked exactly in a + b*sqrt(d) form: both parts of the quadratic vanish,
    and lambda(x) = m21 x + m22 has the larger modulus of the two roots,
    which for real d > 0 means sign(m21 b) = sign(m21 a + m22).
    """
    m11, m12, m21, m22 = matrix
    a, b, d = _parts(x)
    rational = m21 * (a * a + b * b * d) + (m22 - m11) * a - m12
    radical = b * (2 * m21 * a + m22 - m11)
    if rational != 0 or radical != 0 or d <= 0:
        return False
    return (m21 * b > 0) == (m21 * a + m22 > 0)


def _close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * max(1.0, abs(expected))


class Workload:
    """One round of op inputs in `round`; `run` is the timed op, `verify`
    checks its output, `finish` runs the deferred checks and returns every
    failure noted."""

    warmup_ops = 2
    #: ops between two timings of the reference kernel (see run.py)
    slice_ops = 2

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)

    def finish(self) -> list[str]:
        return self.failures

    # the traced run times run_traced and calls after_traced outside the op
    def run_traced(self, x):
        return self.run(x)

    def after_traced(self, x, result, tracer):
        pass

    def process_metrics(self) -> dict[str, float]:
        """cli.* layer metrics; in-process workloads never start the CLI."""
        return {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.import_mpmath_ms": 0.0}

    def peak_rss_kb(self) -> int:
        """Peak resident set of the process that ran the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self):
        """Stop every process the workload started."""


# -- periodic_sweep -----------------------------------------------------------


class PeriodicSweep(Workload):
    """galois_analysis of each of the 4368 integer periodic CFs with period
    1-3 and coefficients in {-2, -1, 1, 2}; one round is the whole set in
    seeded order.  Tiny exact calls, so per-call overhead dominates, and every
    verdict and decisive branch occurs."""

    name = "periodic_sweep"
    warmup_ops = 500
    slice_ops = 1092  # a round of 4368 is 4 slices of ~0.4 s
    coefficients = (-2, -1, 1, 2)

    def __init__(self, seed: int, work_dir: str):
        super().__init__()
        self.cases = [
            PeriodicCF(a_block=a, b_block=b)
            for p in (1, 2, 3)
            for a in itertools.product(self.coefficients, repeat=p)
            for b in itertools.product(self.coefficients, repeat=p)
        ]
        index = {(c.a_block, c.b_block): i for i, c in enumerate(self.cases)}
        # reversed period: b'(0) = b(0), b'(k) = b(p-k), a'(k) = a(p+1-k)
        self.reverse_of = [
            index[(c.a_block[::-1], c.b_block[:1] + c.b_block[:0:-1])]
            for c in self.cases
        ]
        self.round = list(range(len(self.cases)))
        random.Random(seed).shuffle(self.round)
        self.seen: dict[int, tuple] = {}

    def run(self, i):
        return galois_analysis(self.cases[i])

    def verify(self, i, report):
        self.expect(report.relation_holds, f"case {i}: relation_holds is False")
        record = (
            report.alpha.verdict,
            report.alpha.eigen.x1 if report.alpha.eigen else None,
            report.alpha_prime.verdict,
            report.alpha_prime.eigen.x1 if report.alpha_prime.eigen else None,
        )
        first = self.seen.setdefault(i, record)
        self.expect(
            first[0] == record[0] and first[2] == record[2],
            f"case {i}: verdict changed between calls",
        )

    def finish(self) -> list[str]:
        """Replay every distinct input through the brute-force simulation."""
        from brute import Simulation, matched_verdict

        def as_report(verdict, x1):
            return SimpleNamespace(verdict=verdict, eigen=SimpleNamespace(x1=x1))

        needed = set(self.seen) | {self.reverse_of[i] for i in self.seen}
        for k in sorted(needed):
            sim = Simulation(self.cases[k], periods=200)
            if k in self.seen:
                verdict, x1, _, _ = self.seen[k]
                self.expect(
                    matched_verdict(sim, as_report(verdict, x1)),
                    f"case {k}: {verdict.kind} contradicts the simulation",
                )
            j = self.reverse_of[k]  # the reversed period of case j is case k
            if j in self.seen:
                _, _, verdict, x1 = self.seen[j]
                self.expect(
                    matched_verdict(sim, as_report(verdict, x1)),
                    f"case {j} reversed: {verdict.kind} contradicts the simulation",
                )
        if len(self.seen) == len(self.cases):
            kinds = {record[0].kind for record in self.seen.values()}
            self.expect(len(kinds) == 4, f"verdict kinds seen: {sorted(kinds)}")
        return self.failures

    def operands(self) -> list:
        """Dominant fixed points of the first convergent cases, in case order."""
        roots = (self.seen[i][1] for i in sorted(self.seen))
        return [x for x in roots if isinstance(x, QuadExt) and x.d > 0][:8]


# -- periodic_long ------------------------------------------------------------

_TRIAL_BOUND = 10**5


def _small_prime_product(bound: int) -> int:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, bound + 1, p)))
    return math.prod(p for p in range(bound + 1) if sieve[p])


def _rough_part(m: int, smooth: int) -> int:
    """m with every prime factor below the bound divided out."""
    g = math.gcd(m, smooth)
    while g > 1:
        m //= g
        g = math.gcd(m, g)
    return m


@dataclass(frozen=True)
class LongInput:
    exact: PeriodicCF
    complex: PeriodicCF
    matrix: tuple


class PeriodicLong(Workload):
    """classify of seeded period-4 CFs with 3-digit positive coefficients, in
    the rational tower and again in the complex tower at 128 bits.

    Positive coefficients keep every input on the same path (strict
    dominance, then the fixed-point test).  Inputs whose discriminant is
    smooth below 10**5, or whose rough part is a square, are redrawn: on them
    trial division stops early and an op costs a fraction of the others.
    """

    name = "periodic_long"
    warmup_ops = 2
    slice_ops = 4
    period = 4
    round_size = 16
    precision = 128

    def __init__(self, seed: int, work_dir: str):
        super().__init__()
        rng = random.Random(seed)
        smooth = _small_prime_product(_TRIAL_BOUND)
        self.round = []
        while len(self.round) < self.round_size:
            a = tuple(rng.randint(100, 999) for _ in range(self.period))
            b = tuple(rng.randint(100, 999) for _ in range(self.period))
            matrix = period_matrix(a, b)
            rough = _rough_part(_limit_parts(matrix)[2], smooth)
            if rough <= _TRIAL_BOUND**2 or math.isqrt(rough) ** 2 == rough:
                continue
            lift = lambda block: tuple(as_complexfloat(x, self.precision) for x in block)
            self.round.append(
                LongInput(PeriodicCF(a, b), PeriodicCF(lift(a), lift(b)), matrix)
            )

    def run(self, x: LongInput):
        return classify(x.exact), classify(x.complex)

    def verify(self, x: LongInput, result):
        exact, approx = result
        label = f"a={x.exact.a_block} b={x.exact.b_block}"
        limit = exact.verdict.limit
        self.expect(
            exact.verdict.kind == "convergent" and is_attracting_fixed_point(x.matrix, limit),
            f"{label}: exact limit {limit!r} is not the attracting fixed point",
        )
        if exact.verdict.kind != "convergent":
            return
        a, b, d = _parts(limit)
        expected = float(a) + float(b) * math.sqrt(d)
        nums = convergent_pairs(
            x.exact.b(0), ((x.exact.a(k), x.exact.b(k)) for k in range(1, 13))
        )
        self.expect(
            _close(nums[0] / nums[2], expected, 1e-12),
            f"{label}: limit disagrees with the 12th convergent",
        )
        value = approx.verdict.limit
        self.expect(
            approx.verdict.kind == "convergent"
            and isinstance(value, ComplexFloat)
            and _close(float(value.re), expected, 1e-12)
            and abs(float(value.im)) <= 1e-12 * abs(expected),
            f"{label}: complex-tower limit {value!r} disagrees with {expected}",
        )

    def operands(self) -> list:
        return [quadext(*_limit_parts(x.matrix)) for x in self.round[:8]]


def _limit_parts(matrix):
    """(a, b, d) of the attracting fixed point (m11 - m22 + sqrt(D)) / (2 m21)
    for a matrix with positive entries."""
    m11, m12, m21, m22 = matrix
    disc = (m11 - m22) ** 2 + 4 * m12 * m21
    return Fraction(m11 - m22, 2 * m21), Fraction(1, 2 * m21), disc


# -- series_deep --------------------------------------------------------------


@dataclass(frozen=True)
class DeepInput:
    b0: int
    tail: tuple
    spec: RuleCF
    block: tuple
    pcf: PeriodicCF


def _semiregular(b0: int, tail: tuple) -> RuleCF:
    """b0 + 1/(t1 + 1/(t2 + 1/(t3 + 1/(t1 + ...)))): semi-regular for t >= 1."""
    return RuleCF(
        a_rule=lambda n: 1,
        b_rule=lambda n: b0 if n == 0 else tail[(n - 1) % len(tail)],
        label="bench_tail",
    )


class SeriesDeep(Workload):
    """evaluate_tietze of a seeded semi-regular CF at eps = 10**-600, then
    evaluate_convergent of a seeded PeriodicCF at index 10**4.

    The tails and period blocks are the six orderings of (1, 2, 3).  Every
    ordering has the same period-matrix trace and determinant, so the
    integers grow at the same rate and every op does the same work; the
    seed picks b0 and the order.  One round holds each ordering once.
    """

    name = "series_deep"
    warmup_ops = 2
    slice_ops = 3
    digits = 600
    index = 10_000
    block = (1, 2, 3)

    def __init__(self, seed: int, work_dir: str):
        super().__init__()
        rng = random.Random(seed)
        tails = list(itertools.permutations(self.block))
        blocks = list(itertools.permutations(self.block))
        rng.shuffle(tails)
        rng.shuffle(blocks)
        self.eps = Fraction(1, 10**self.digits)
        self.round = []
        for tail, block in zip(tails, blocks):
            b0 = rng.randint(-(10**6), 10**6)
            pcf = PeriodicCF(a_block=(1,) * len(block), b_block=block)
            self.round.append(DeepInput(b0, tail, _semiregular(b0, tail), block, pcf))

    def _tail_limit(self, x: DeepInput):
        """Value b0 + (sqrt(D) - u) / (2 m12) from the tail's period matrix."""
        m11, m12, m21, m22 = period_matrix((1,) * len(x.tail), x.tail)
        u = m11 - m22
        disc = u * u + 4 * m12 * m21
        return x.b0 - Fraction(u, 2 * m12), Fraction(1, 2 * m12), disc

    def run(self, x: DeepInput):
        return evaluate_tietze(x.spec, self.eps), evaluate_convergent(x.pcf, self.index)

    def verify(self, x: DeepInput, result):
        bounded, convergent = result
        label = f"b0={x.b0} tail={x.tail}"
        a, b, disc = self._tail_limit(x)
        lo_root, hi_root = sqrt_interval(disc, self.digits + 20)
        lo, hi = a + b * lo_root, a + b * hi_root
        self.expect(
            bounded.error_bound <= self.eps
            and bounded.value - bounded.error_bound <= lo
            and hi <= bounded.value + bounded.error_bound,
            f"{label}: certified value does not enclose the closed-form limit",
        )
        expected = periodic_convergent_by_squaring(x.pcf.a_block, x.pcf.b_block, self.index)
        self.expect(
            convergent == expected,
            f"block={x.block}: convergent {self.index} disagrees with the matrix power",
        )

    def operands(self) -> list:
        return [quadext(*self._tail_limit(x)) for x in self.round]


# -- cli_oneshot --------------------------------------------------------------

#: the paper's named periodic cases with their known verdicts
NAMED_CASES = {
    "golden": ({"a": [1], "b": [1]}, "convergent", {"limit": "(1 + √5)/2"}),
    "footnote": ({"a": [-1], "b": [2]}, "convergent", {"limit": "1"}),
    "thiele": ({"a": [-3, 1, 1], "b": [1, -1, -1]}, "divergent_thiele",
               {"sublimit": "1", "x1": "2"}),
}


@dataclass
class CliResult:
    exit_code: int
    stdout: bytes
    stderr: bytes
    max_rss_kb: int


#: the helper that starts each CLI run: one job per stdin line, one result
#: line back; the child's stdin is /dev/null, its output goes to two files
_SPAWNER = """
import json, os, sys
for line in sys.stdin:
    job = json.loads(line)
    with open(job["out"], "wb") as out, open(job["err"], "wb") as err:
        pid = os.fork()
        if pid == 0:
            try:
                os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                os.execv(job["argv"][0], job["argv"])
            finally:
                os._exit(127)
        _, status, usage = os.wait4(pid, 0)
    print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]), flush=True)
"""


class Spawner:
    """Runs interpreters to their exit through a small helper process.

    When a child execs, Linux carries the RSS of the process it was forked
    from into its ru_maxrss.  Forked straight from the benchmark, whose RSS
    is about that of a CLI run, every child would read at least the
    benchmark's own RSS.  The helper imports only json, os and sys, so a
    child's ru_maxrss is its own.  The helper starts on first use and ends
    on close() or when the benchmark's end of its stdin closes.
    """

    def __init__(self, work_dir: str):
        self.out = os.path.join(work_dir, "cli.out")
        self.err = os.path.join(work_dir, "cli.err")
        self.proc = None

    def run(self, args: list[str]) -> CliResult:
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _SPAWNER],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        job = {"argv": [sys.executable, *args], "out": self.out, "err": self.err}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        exit_code, max_rss_kb = json.loads(self.proc.stdout.readline())
        with open(self.out, "rb") as out, open(self.err, "rb") as err:
            return CliResult(exit_code, out.read(), err.read(), max_rss_kb)

    def close(self):
        if self.proc is not None:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
            self.proc.stdout.close()
            self.proc = None


_IMPORT_LINE = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
INTERPRETER_PROBES = 7


def import_times_ms(stderr: str) -> dict[str, float]:
    """Cumulative import time of cfkit and mpmath from -X importtime output."""
    out = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match and match[2] in ("cfkit", "mpmath"):
            out[match[2]] = int(match[1]) / 1e3
    return out


@dataclass(frozen=True)
class CliInput:
    argv: tuple
    expect: object  # callable(report dict) -> failure message or None


class CliOneshot(Workload):
    """One fresh `python -m cfkit --json ...` process per op, spawn to exit.

    A round is nine small runs in seeded order: classify of the paper's three
    named cases, galois, tietze, eval, reverse, continuant --oracle and
    power-iter.  Interpreter start and `import cfkit` dominate, so library
    speed-ups barely show here.
    """

    name = "cli_oneshot"
    warmup_ops = 2
    slice_ops = 1

    def __init__(self, seed: int, work_dir: str):
        super().__init__()
        rng = random.Random(seed)

        def spec_file(name, data):
            path = os.path.join(work_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data, handle)
            return path

        # the seed picks values, not sizes, so every seed does the same work
        k = rng.randint(4, 9)  # k*k + 4 has two digits
        rev_a = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4)]
        rev_b = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4)]
        cont_b = [rng.choice((-9, -5, -2, -1, 1, 2, 5, 9)) for _ in range(8)]
        cont_a = [rng.choice((-9, -5, -2, -1, 1, 2, 5, 9)) for _ in range(7)]
        eps_digits, n, steps = 60, 40, 30

        def cmd(*args):
            return ("-m", "cfkit", "--json", *map(str, args))

        def expect_named(kind, values):
            return lambda r: _expect_classify(r, kind, values)

        self.round = [
            CliInput(
                cmd("classify", spec_file(name, {"mode": "periodic", **blocks})),
                expect_named(kind, values),
            )
            for name, (blocks, kind, values) in NAMED_CASES.items()
        ] + [
            CliInput(
                cmd("galois", spec_file("regular", {"mode": "periodic", "a": [1], "b": [k]})),
                lambda r: _expect_galois(r, k),
            ),
            CliInput(
                cmd("tietze", spec_file("sqrt2", {"mode": "generator", "generator": {"name": "sqrt2"}}),
                    "--eps", f"1e-{eps_digits}"),
                lambda r: _expect_sqrt2(r, eps_digits),
            ),
            CliInput(
                cmd("eval", spec_file("golden", {"mode": "generator", "generator": {"name": "golden"}}),
                    "-n", n),
                lambda r: _expect_golden_convergent(r, n),
            ),
            CliInput(
                cmd("reverse", spec_file("reverse", {"mode": "periodic", "a": rev_a, "b": rev_b})),
                lambda r: _expect_reversed(r, rev_a, rev_b),
            ),
            CliInput(
                cmd("continuant", "--oracle", "--a=" + ",".join(map(str, cont_a)),
                    "--b=" + ",".join(map(str, cont_b))),
                lambda r: _expect_continuant(r, cont_a, cont_b),
            ),
            CliInput(
                cmd("power-iter", "--matrix", "1,1,1,0", "--u0", "1", "--v0", "0",
                    "--steps", steps),
                lambda r: _expect_fibonacci_orbit(r, steps),
            ),
        ]
        rng.shuffle(self.round)
        self.spawner = Spawner(work_dir)
        self._limits = []
        self._import_ms: dict[str, list[float]] = {"cfkit": [], "mpmath": []}
        self._peak_child_rss_kb = 0

    def run(self, x: CliInput) -> CliResult:
        return self.spawner.run(list(x.argv))

    def run_traced(self, x: CliInput) -> CliResult:
        return self.spawner.run(["-X", "importtime", *x.argv])

    def after_traced(self, x: CliInput, result: CliResult, tracer):
        """Collect the op's import times, then run the same argv through
        cli.main in this process, where the tracer sees each layer."""
        from cfkit import cli

        for package, ms in import_times_ms(result.stderr.decode()).items():
            self._import_ms[package].append(ms)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            code = cli.main(list(x.argv[2:]))
            tracer.record("cli_main", perf_counter() - start)
        self.verify(x, CliResult(code, out.getvalue().encode(), err.getvalue().encode(), 0))

    def process_metrics(self) -> dict[str, float]:
        floor = []
        for _ in range(INTERPRETER_PROBES):
            start = perf_counter()
            self.spawner.run(["-c", "pass"])
            floor.append((perf_counter() - start) * 1e3)
        median = lambda values: statistics.median(values) if values else 0.0
        return {
            "cli.interpreter_ms": statistics.median(floor),
            "cli.import_ms": median(self._import_ms["cfkit"]),
            "cli.import_mpmath_ms": median(self._import_ms["mpmath"]),
        }

    def peak_rss_kb(self) -> int:
        """Peak resident set of the largest CLI child."""
        return self._peak_child_rss_kb

    def close(self):
        self.spawner.close()

    def verify(self, x: CliInput, result: CliResult):
        command = x.argv[3]
        self._peak_child_rss_kb = max(self._peak_child_rss_kb, result.max_rss_kb)
        if result.exit_code != 0:
            self.expect(False, f"{command}: exit {result.exit_code}: "
                              f"{result.stderr.decode(errors='replace')[-300:]}")
            return
        try:
            report = json.loads(result.stdout)
        except ValueError:
            self.expect(False, f"{command}: stdout is not one JSON report")
            return
        problem = x.expect(report)
        self.expect(problem is None, f"{command}: {problem}")
        if command in ("classify", "galois") and len(self._limits) < 8:
            for text in report["exact_values"].values():
                if text and "√" in text:
                    self._limits.append(parse_exact(text))

    def operands(self) -> list:
        return [x for x in self._limits if isinstance(x, QuadExt) and x.d > 0][:8]


def _decimal_close(text: str, expected: Decimal) -> bool:
    with localcontext() as ctx:
        ctx.prec = 60
        return abs(Decimal(text) - expected) <= Decimal("1e-30") * max(1, abs(expected))


def _sqrt_decimal(n: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(n).sqrt()


def _expect_classify(report, kind, values):
    if report["result"]["verdict"] != kind:
        return f"verdict {report['result']['verdict']}, expected {kind}"
    for key, text in values.items():
        if report["exact_values"][key] != text:
            return f"{key} = {report['exact_values'][key]}, expected {text}"
    if kind == "divergent_thiele" and report["result"]["q"] != 0:
        return f"witness q = {report['result']['q']}, expected 0"
    return None


def _expect_galois(report, k):
    result = report["result"]
    if not (result["alpha_verdict"] == result["alpha_prime_verdict"] == "convergent"):
        return f"verdicts {result['alpha_verdict']}, {result['alpha_prime_verdict']}"
    if result["relation_holds"] is not True:
        return "relation_holds is not true"
    with localcontext() as ctx:
        ctx.prec = 60
        expected = (k + _sqrt_decimal(k * k + 4)) / 2
    floats = report["float_values"]
    for key in ("alpha_limit", "alpha_prime_limit"):
        if not _decimal_close(floats[key], expected):
            return f"{key} = {floats[key]}, expected {expected}"
    return None


def _expect_sqrt2(report, eps_digits):
    value = Fraction(report["exact_values"]["value"])
    bound = Fraction(report["exact_values"]["error_bound"])
    lo, hi = sqrt_interval(2, eps_digits + 20)
    if bound > Fraction(1, 10**eps_digits):
        return f"error bound {bound} exceeds eps"
    if not (value - bound <= lo and hi <= value + bound):
        return "certified value does not enclose sqrt(2)"
    return None


def _expect_golden_convergent(report, n):
    exact = report["exact_values"]
    a, b = _fibonacci(n + 2), _fibonacci(n + 1)
    if (exact["A"], exact["B"], exact["value"]) != (str(a), str(b), f"{a}/{b}"):
        return f"A({n}), B({n}) are not Fibonacci numbers F({n + 2}), F({n + 1})"
    return None


def _expect_reversed(report, a, b):
    expected = {"mode": "periodic", "a": a[::-1], "b": b[:1] + b[:0:-1],
                "period": len(a), "tower": "rational"}
    return None if report == expected else f"reversed spec {report}"


def _expect_continuant(report, a, b):
    value = str(convergent_pairs(b[0], zip(a, b[1:]))[0])
    exact = report["exact_values"]
    if report["result"]["agreement"] is not True:
        return "oracle disagreement"
    if exact["value"] != value or exact["oracle_value"] != value:
        return f"continuant {exact['value']}, expected {value}"
    return None


def _expect_fibonacci_orbit(report, steps):
    if report["result"]["case"] != "dominant_generic":
        return f"case {report['result']['case']}"
    rows = report["result"]["trajectory"]
    if len(rows) != steps + 1:
        return f"{len(rows)} trajectory rows for {steps} steps"
    for row in rows:
        n = row["n"]
        if (row["u"], row["v"]) != (str(_fibonacci(n + 1)), str(_fibonacci(n))):
            return f"step {n} is not (F({n + 1}), F({n}))"
    return None


WORKLOADS = {
    cls.name: cls for cls in (PeriodicSweep, PeriodicLong, SeriesDeep, CliOneshot)
}
