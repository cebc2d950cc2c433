"""cfkit benchmark: four closed-loop workloads, end to end and layer by layer.

    python3 bench/run.py --workload periodic_long --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload periodic_long --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --smoke

Run it from the root of a cfkit checkout: cfkit is imported from src/ and
the brute-force oracle from tests/brute.py.  One caller runs whole rounds of
the workload's operations until --seconds have passed and at least 100 ops
were attempted; every output is checked.  Op times are scaled to a fixed
reference speed by a stdlib kernel timed between slices of ops, because the
host's speed drifts by up to 2x.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import array
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_PROBES = 9  # fresh interpreters per run; setup_s is their median
#: the reference kernel's time on the reference machine (2 vCPUs, Python
#: 3.11.7), near its median there; times are reported at this speed
REFERENCE_S = 0.005
REFERENCE_WINDOW = 3
CHILD_TIMEOUT_S = 120
SMOKE_OPS = 8


class Stats:
    def __init__(self):
        self.durations = array.array("d")  # seconds; compact, so it barely moves peak RSS
        self.slice_of = array.array("i")  # index in references of the timing before each op's slice
        self.input_of = array.array("i")  # position of each op's input in the round
        self.references = array.array("d")  # reference kernel seconds, between slices
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def scaled(self) -> list[float]:
        """Op times in seconds at the reference speed.

        An op's factor is REFERENCE_S over the median of the REFERENCE_WINDOW
        kernel timings on each side of its slice, so that one disturbed
        timing does not move it.
        """
        refs, w = self.references, REFERENCE_WINDOW
        factors = [
            REFERENCE_S / statistics.median(refs[max(0, i + 1 - w) : i + 1 + w])
            for i in range(len(refs))
        ]
        return [d * factors[i] for d, i in zip(self.durations, self.slice_of)]

    def slice_means(self, scaled) -> list[float]:
        sums, counts = Counter(), Counter()
        for d, i in zip(scaled, self.slice_of):
            sums[i] += d
            counts[i] += 1
        return [sums[i] / counts[i] for i in sums]

    def input_medians(self, scaled) -> list[float]:
        """Median time of each input of the round over its repeats in the run."""
        by_input = defaultdict(list)
        for d, k in zip(scaled, self.input_of):
            by_input[k].append(d)
        return [statistics.median(times) for times in by_input.values()]

    @property
    def wall_ops_per_s(self) -> float:
        return len(self.durations) / sum(self.durations)


_KERNEL_INT = 3**5000


def reference_kernel():
    """Fixed stdlib work in three parts of similar length: Fraction sums
    (interpreted code on small ints), 2400-digit products and remainders
    (C loops on big ints), and a list and dict of 6000 entries (allocation).
    The host's slowdowns hit these kinds of work unevenly, and the workloads
    mix all three."""
    total = Fraction(0)
    for i in range(1, 401):
        total += Fraction(1, i * i)
    for i in range(1, 9):
        (_KERNEL_INT * (_KERNEL_INT + i)) % (_KERNEL_INT - i)
    pairs = [(i, -i) for i in range(6000)]
    {pair: i for i, pair in enumerate(pairs)}


def reference_seconds(repeats: int = 3) -> float:
    """Fastest of a few timings of the reference kernel: the current speed of
    this core, free of one-off interruptions."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def run_rounds(wl, op, seconds, min_ops, after=None, max_ops=None, stats=None,
               scaled=False) -> Stats:
    """Closed loop over whole rounds of wl.round, one caller.

    Each round is cut into slices of wl.slice_ops ops.  With `scaled`, the
    reference kernel is timed before every slice and after the last one, so
    that Stats.scaled can put each op at the reference speed: the host's
    speed drifts by up to 2x within tens of seconds, and the kernel follows
    that drift on the same core.  Without it every timing reads REFERENCE_S.

    Stops at the end of the first round after `seconds` have passed and
    `min_ops` ops were attempted, or after `max_ops` ops (smoke mode).
    """
    stats = Stats() if stats is None else stats
    timing = reference_seconds if scaled else lambda: REFERENCE_S
    deadline = time.perf_counter() + seconds
    try:
        while True:
            for first in range(0, len(wl.round), wl.slice_ops):
                stats.references.append(timing())
                index = len(stats.references) - 1
                for k in range(first, min(first + wl.slice_ops, len(wl.round))):
                    x = wl.round[k]
                    if max_ops is not None and stats.attempted >= max_ops:
                        return stats
                    stats.attempted += 1
                    start = time.perf_counter()
                    try:
                        result = op(x)
                    except Exception as exc:  # counted as a failed op; the run goes on
                        stats.failed += 1
                        stats.errors.append(f"{type(exc).__name__}: {exc}")
                        continue
                    stats.durations.append(time.perf_counter() - start)
                    stats.slice_of.append(index)
                    stats.input_of.append(k)
                    wl.verify(x, result)
                    if after is not None:
                        after(x, result)
            if time.perf_counter() >= deadline and stats.attempted >= min_ops:
                return stats
    finally:
        stats.references.append(timing())


def pin_to_one_cpu():
    """Keep this process, and the interpreters it starts, on one CPU: the
    reference kernel then times the same core as the ops around it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def warm_up(wl):
    for x in itertools.islice(itertools.cycle(wl.round), wl.warmup_ops):
        wl.verify(x, wl.run(x))
    reference_seconds(repeats=10)


def setup_probe(workload: str, seed: int):
    """Time `import cfkit` plus building the inputs, in this fresh interpreter."""
    start = time.perf_counter()
    import workloads

    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as work_dir:
        workloads.WORKLOADS[workload](seed, work_dir)
        elapsed = time.perf_counter() - start
    # the kernel runs after the timed part, which thus still pays for the
    # first import of fractions
    reference_seconds(repeats=3)
    print(repr(elapsed * REFERENCE_S / reference_seconds(repeats=5)))


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time of fresh interpreters, each scaled to the reference
    speed by its own timing of the reference kernel."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        times.append(float(probe.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(stats: Stats, setup_s: float, peak_rss_kb: int) -> dict:
    scaled = stats.scaled()
    # Percentiles over the round's inputs of each input's median time: the
    # host's speed switches within a second, faster than the kernel can be
    # timed, and a percentile over single ops counts those switches.
    per_input = stats.input_medians(scaled)
    values = {
        # the median slice's throughput: steadier than the mean over all ops
        "ops_per_s": 1 / statistics.median(stats.slice_means(scaled)),
        "op_p50_ms": statistics.median(per_input) * 1e3,
        "op_p90_ms": statistics.quantiles(per_input, n=10, method="inclusive")[8] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def wall_clock(stats: Stats) -> dict:
    """The unscaled figures, for the --out file."""
    return {
        "ops_per_s": stats.wall_ops_per_s,
        "op_p50_ms": statistics.median(stats.durations) * 1e3,
        "op_p90_ms": statistics.quantiles(stats.durations, n=10)[8] * 1e3,
        "reference_ms": statistics.median(stats.references) * 1e3,
    }


def traced(wl, seconds: float, max_ops=None) -> tuple[Stats, dict, dict]:
    """Alternate untraced and traced rounds; per-layer metrics per traced op.

    Alternating round by round keeps slow drift of the machine out of
    trace.overhead_pct.
    """
    import cfkit.cli  # imported before wrapping, so unwrapping restores its names
    import layers
    import workloads

    plain, spans = Stats(), Stats()
    tracer = layers.Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        run_rounds(wl, wl.run, 0, 1, max_ops=max_ops, stats=plain)
        tracer.install(callers=[workloads])
        try:
            run_rounds(
                wl, wl.run_traced, 0, 1,
                after=lambda x, result: wl.after_traced(x, result, tracer),
                max_ops=max_ops, stats=spans,
            )
        finally:
            tracer.uninstall()
        if max_ops is not None or time.perf_counter() >= deadline:
            break
    values = tracer.metrics(len(spans.durations))
    values.update(wl.process_metrics())
    quad_us, cf_us = layers.multiply_costs(wl.operands())
    values["scalars.quadext_mul_us"] = quad_us
    values["scalars.complexfloat_mul_us"] = cf_us
    values["trace.overhead_pct"] = (plain.wall_ops_per_s / spans.wall_ops_per_s - 1) * 100
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER
    }
    stats = Stats()
    for part in (plain, spans):
        stats.durations += part.durations
        stats.attempted += part.attempted
        stats.failed += part.failed
        stats.errors += part.errors
    return stats, metrics, tracer.summary()


def measure(args, work_dir) -> tuple[dict, dict]:
    """The result line, and the details written to the --out file."""
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    setup_s = setup_seconds(args.workload, args.seed)
    try:
        warm_up(wl)
        if args.trace:
            stats, metrics, trace = traced(wl, args.seconds)
            details = {"trace": trace}
        else:
            stats = run_rounds(wl, wl.run, args.seconds, workloads.MIN_OPS, scaled=True)
            metrics = end_to_end(stats, setup_s, wl.peak_rss_kb())
            details = {"wall_clock": wall_clock(stats)}
        failures = wl.finish()
    finally:
        wl.close()
    for line in (stats.errors + failures)[:10]:
        print(f"{args.workload}: {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }
    return result, details


def smoke(seed: int) -> dict:
    """Every workload for a few ops, traced and untraced, all checks on."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as work_dir:
            wl = cls(seed, work_dir)
            try:
                stats = run_rounds(wl, wl.run, 0, 1, max_ops=SMOKE_OPS, scaled=True)
                metrics = end_to_end(stats, 0.0, wl.peak_rss_kb())
                traced_stats, layer_metrics, _ = traced(wl, 0, max_ops=2)
                failures = wl.finish()
            finally:
                wl.close()
        for line in (stats.errors + traced_stats.errors + failures)[:10]:
            print(f"{name}: {line}", file=sys.stderr)
        print(json.dumps({"workload": name, "correct": not failures}))
        total["correct"] &= not failures
        total["attempted"] += stats.attempted + traced_stats.attempted
        total["failed"] += stats.failed + traced_stats.failed
        total["metrics"][name] = {"end_to_end": metrics, "per_layer": layer_metrics}
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result, with the trace or the "
                                      "unscaled wall-clock figures, as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload for a few ops with all checks on")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cfkit" / "__init__.py").is_file() or not (TESTS / "brute.py").is_file():
        print(f"error: no cfkit checkout around {BENCH} (need src/cfkit and tests/brute.py)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    pin_to_one_cpu()
    import workloads  # imports cfkit from the checkout

    if Path(sys.modules["cfkit"].__file__).resolve().parent != SRC / "cfkit":
        print("error: cfkit was not imported from this checkout", file=sys.stderr)
        return 2
    if args.smoke:
        result, details = smoke(args.seed), {}
    elif args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    else:
        with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as work_dir:
            result, details = measure(args, work_dir)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        extra = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "python": sys.version.split()[0], **details}
        Path(args.out).write_text(json.dumps({**result, **extra}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
