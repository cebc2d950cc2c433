"""Per-layer metrics for the traced run.

The tracer wraps cfkit's public functions for the traced run only: every
module attribute that refers to a wrapped function is replaced, and the
originals are put back afterwards.  Nothing inside cfkit changes.  Spans are
aggregated in memory as inclusive time per name and per (parent, child)
pair, so a stage's self time is its span minus the children named here.
"""

from __future__ import annotations

import math
import statistics
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

import cfkit
from cfkit import ComplexFloat, as_complexfloat

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("scalars.quadext_calls", "count", "lower"),
    ("scalars.quadext_ms", "ms", "lower"),
    ("scalars.squarefree_split_ms", "ms", "lower"),
    ("scalars.radicand_digits", "digits", "lower"),
    ("scalars.is_square_rational_calls", "count", "lower"),
    ("scalars.quadext_mul_us", "us", "lower"),
    ("scalars.complexfloat_mul_us", "us", "lower"),
    ("cfcore.table_ms", "ms", "lower"),
    ("cfcore.terms", "count", "lower"),
    ("cfcore.max_bits", "bits", "lower"),
    ("cfcore.table_mb", "MB", "lower"),
    ("periodic.build_period_matrix_ms", "ms", "lower"),
    ("periodic.eigen_split_ms", "ms", "lower"),
    ("periodic.fixed_point_ms", "ms", "lower"),
    ("periodic.reverse_ms", "ms", "lower"),
    ("periodic.classify_complex_ms", "ms", "lower"),
    ("tietze.evaluate_ms", "ms", "lower"),
    ("tietze.terms_used", "count", "lower"),
    ("tietze.bound_bits", "bits", "lower"),
    ("specfile.load_ms", "ms", "lower"),
    ("render.format_exact_ms", "ms", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.import_mpmath_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return 0


def _table_mb(table) -> float:
    size = sum(
        sys.getsizeof(pair) + sys.getsizeof(pair.num) + sys.getsizeof(pair.den)
        for pair in table
    )
    return size / 2**20


def _observe_table(tracer, args, table):
    tracer.sums["terms"] += max(len(table) - 2, 0)
    last = table[-1]
    tracer.peak("max_bits", max(_bits(last.num), _bits(last.den)))
    tracer.peak("table_mb", _table_mb(table))


def _observe_radicand(tracer, args, result):
    m = abs(args[0])
    tracer.peak("radicand_digits", math.floor(math.log10(m)) + 1 if m else 1)


def _observe_tietze(tracer, args, bounded):
    tracer.sums["n_used"] += bounded.n_used
    bound = bounded.error_bound
    tracer.peak("bound_bits", (bound.denominator // bound.numerator).bit_length())


def _classify_span(args, kwargs):
    pcf = args[0] if args else kwargs["pcf"]
    blocks = pcf.a_block + pcf.b_block
    return "classify_complex" if any(isinstance(v, ComplexFloat) for v in blocks) else "classify"


#: (module, function, span name or naming callable, observer)
TARGETS = [
    ("scalars", "quadext", "quadext", None),
    ("scalars", "is_square_rational", "is_square_rational", None),
    ("scalars", "squarefree_split", "squarefree_split", _observe_radicand),
    ("cfcore", "convergent_table", "table", _observe_table),
    ("cfcore", "shifted_table", "table", _observe_table),
    ("periodic", "build_period_matrix", "build_period_matrix", None),
    ("periodic", "eigen_split", "eigen_split", None),
    ("periodic", "classify", _classify_span, None),
    ("periodic", "galois_analysis", "galois_analysis", None),
    ("tietze", "evaluate_tietze", "evaluate_tietze", _observe_tietze),
    ("specfile", "load_specfile", "load_specfile", None),
    ("render", "format_exact", "format_exact", None),
]


class Tracer:
    """Inclusive time and call counts per span, kept in memory."""

    def __init__(self):
        self.stack: list[str] = []
        self.seconds = Counter()
        self.calls = Counter()
        self.child_seconds = Counter()  # (parent, child) -> inclusive seconds
        self.sums = Counter()
        self.peaks: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def peak(self, key: str, value: float):
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value

    def record(self, name: str, seconds: float):
        self.seconds[name] += seconds
        self.calls[name] += 1
        if self.stack:
            self.child_seconds[(self.stack[-1], name)] += seconds

    def _wrap(self, fn, span, observe):
        tracer = self

        def traced(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            tracer.stack.append(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer.stack.pop()
                tracer.record(name, elapsed)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def install(self, callers=()):
        """Wrap the targets in cfkit's modules and in the given caller modules."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "cfkit" or name.startswith("cfkit."))
        ]
        modules.extend(callers)
        for module_name, fn_name, span, observe in TARGETS:
            original = getattr(getattr(cfkit, module_name), fn_name)
            wrapper = self._wrap(original, span, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics; a layer the workload never enters reads 0."""
        ms = lambda seconds: seconds * 1e3 / ops
        s, c = self.seconds, self.child_seconds
        return {
            "scalars.quadext_calls": self.calls["quadext"] / ops,
            "scalars.quadext_ms": ms(s["quadext"]),
            "scalars.squarefree_split_ms": ms(s["squarefree_split"]),
            "scalars.radicand_digits": self.peaks.get("radicand_digits", 0),
            "scalars.is_square_rational_calls": self.calls["is_square_rational"] / ops,
            "cfcore.table_ms": ms(s["table"]),
            "cfcore.terms": self.sums["terms"] / ops,
            "cfcore.max_bits": self.peaks.get("max_bits", 0),
            "cfcore.table_mb": self.peaks.get("table_mb", 0),
            "periodic.build_period_matrix_ms": ms(
                s["build_period_matrix"] - c[("classify_complex", "build_period_matrix")]
            ),
            "periodic.eigen_split_ms": ms(
                s["eigen_split"] - c[("classify_complex", "eigen_split")]
            ),
            "periodic.fixed_point_ms": ms(
                s["classify"]
                - c[("classify", "build_period_matrix")]
                - c[("classify", "eigen_split")]
            ),
            "periodic.reverse_ms": ms(
                s["galois_analysis"]
                - c[("galois_analysis", "classify")]
                - c[("galois_analysis", "classify_complex")]
            ),
            "periodic.classify_complex_ms": ms(s["classify_complex"]),
            "tietze.evaluate_ms": ms(s["evaluate_tietze"]),
            "tietze.terms_used": self.sums["n_used"] / ops,
            "tietze.bound_bits": self.peaks.get("bound_bits", 0),
            "specfile.load_ms": ms(s["load_specfile"]),
            "render.format_exact_ms": ms(s["format_exact"]),
            "cli.main_ms": ms(s["cli_main"]),
        }

    def summary(self) -> dict:
        """Aggregated spans, for the trace file."""
        return {
            "spans": {
                name: {"calls": self.calls[name], "seconds": self.seconds[name]}
                for name in sorted(self.seconds)
            },
            "children": {
                f"{parent} > {child}": seconds
                for (parent, child), seconds in sorted(self.child_seconds.items())
            },
            "sums": dict(self.sums),
            "peaks": dict(self.peaks),
        }


def per_call_us(fn, min_seconds: float = 0.05, min_calls: int = 3) -> float:
    """Mean time of one call of fn, repeated until min_seconds have passed."""
    calls, start = 0, perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = perf_counter() - start
        if calls >= min_calls and elapsed >= min_seconds:
            return elapsed * 1e6 / calls


def multiply_costs(operands, precision: int = 128) -> tuple[float, float]:
    """Median cost of x*x over the operands, as QuadExt and as ComplexFloat."""
    if not operands:
        return 0.0, 0.0
    exact = [per_call_us(lambda x=x: x * x) for x in operands]
    floats = [as_complexfloat(x, precision) for x in operands]
    approx = [per_call_us(lambda z=z: z * z) for z in floats]
    return statistics.median(exact), statistics.median(approx)

