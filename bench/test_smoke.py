"""Smoke tests for the benchmark; no timing gate.

    python -m pytest bench/test_smoke.py

They keep the benchmark from rotting: every workload runs a few ops with all
output checks on, the checks reject wrong outputs, and the metric names
match BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from cfkit import PeriodicCF, evaluate_convergent  # noqa: E402


def _names(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_every_workload_runs_with_checks_on():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {w["name"] for w in spec["workloads"]}
    for metrics in result["metrics"].values():
        for kind in ("end_to_end", "per_layer"):
            reported = {name: m["unit"] for name, m in metrics[kind].items()}
            assert reported == _names(spec[kind])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "periodic_long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fixed_point_check_rejects_the_repelling_root():
    a, b = (1, 1, 1), (1, 2, 3)
    matrix = workloads.period_matrix(a, b)
    limit = workloads.quadext(*workloads._limit_parts(matrix))
    assert workloads.is_attracting_fixed_point(matrix, limit)
    assert not workloads.is_attracting_fixed_point(matrix, limit.conjugate())
    assert not workloads.is_attracting_fixed_point(matrix, limit + Fraction(1, 10**9))


def test_matrix_power_convergent_matches_the_plain_loop():
    for a, b in [((1,), (1,)), ((-1, 2, 3), (2, -1, 5)), ((2, 1), (1, 3))]:
        for n in (0, 1, 2, 7, 30):
            pcf = PeriodicCF(a_block=a, b_block=b)
            steps = ((pcf.a(k), pcf.b(k)) for k in range(1, n + 1))
            num, _, den, _ = workloads.convergent_pairs(b[0], steps)
            assert workloads.periodic_convergent_by_squaring(a, b, n) == Fraction(num, den)
            assert evaluate_convergent(pcf, n) == Fraction(num, den)


def test_series_check_rejects_a_value_outside_its_bound():
    wl = workloads.SeriesDeep(5, "")
    x = wl.round[0]
    bounded, convergent = wl.run(x)
    wl.verify(x, (bounded, convergent))
    assert wl.finish() == []
    shifted = type(bounded)(bounded.value + 2 * bounded.error_bound, bounded.n_used,
                            bounded.error_bound)
    wl.verify(x, (shifted, convergent + Fraction(1, 10**9)))
    assert len(wl.finish()) == 2


def test_scaling_follows_the_kernel_timings_around_each_slice():
    stats = run.Stats()
    # two slices of two ops; the kernel ran at the reference speed around
    # the first and at half of it around the second
    slow = 2 * run.REFERENCE_S
    stats.references.extend([run.REFERENCE_S] * 3 + [slow] * 6)
    stats.durations.extend([0.1, 0.3, 0.2, 0.6])
    stats.slice_of.extend([0, 0, 7, 7])
    stats.input_of.extend([0, 1, 0, 1])
    scaled = stats.scaled()
    assert scaled == [0.1, 0.3, 0.1, 0.3]
    assert stats.slice_means(scaled) == [0.2, 0.2]
    assert stats.input_medians(scaled) == [0.1, 0.3]
