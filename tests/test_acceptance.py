"""Acceptance suite.

Every criterion is one test that runs at its stated tolerance and prints a
single PASS/FAIL line (run with `pytest -s` to see the lines as they pass).
All identity checks are exact: integer and rational arithmetic only, with
quadratic irrationals compared through exact sign computations.
"""

import itertools
import random
import time
from fractions import Fraction

from cfkit import (
    ContinuantArgs,
    PeriodicCF,
    PeriodMatrix,
    QuadExt,
    classify,
    conjugate_check,
    continuant,
    continuant_oracle,
    convergent_table,
    denominator_bounds_certificate,
    evaluate_tietze,
    first_column_expansion,
    galois_analysis,
    make_generator,
    power_iterate,
    quadext,
    reverse_period,
    reverse_relations,
    reversed_args,
    shifted_table,
    validate_semiregular,
)
from cfkit.errors import NotIrrational
from cfkit.periodic import (
    CONVERGENT,
    DIVERGENT_EQUAL_MODULUS,
    DIVERGENT_THIELE,
    DOMINANT_DEGENERATE,
    DOMINANT_GENERIC,
    EQUAL_MODULUS,
    REPEATED,
)

from brute import Simulation, abs_lt, matched_verdict
from conftest import (
    equal_modulus_cf,
    footnote_cf,
    golden_cf,
    nonzero_int,
    random_finite,
    random_periodic,
    random_semiregular,
    thiele_cf,
)


def report(name, failures):
    ok = not failures
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{name}: {len(failures)} failures, first: {failures[:3]}"


def test_criterion_1_identity_suite():
    rng = random.Random(1001)
    failures = []
    for case in range(500):
        spec = random_finite(rng, 31)
        table = convergent_table(spec, 31)
        prods = [1]
        for n in range(1, 32):
            prods.append(prods[-1] * spec.a(n))

        for n in range(1, 31):
            cur, prev = table[n + 1], table[n]
            sign = (-1) ** (n - 1)
            if cur.num * prev.den - prev.num * cur.den != sign * prods[n]:
                failures.append((case, "Int7", n))
            if prev.den != 0 and cur.den != 0:
                lhs = Fraction(cur.num, cur.den) - Fraction(prev.num, prev.den)
                if lhs != Fraction(sign * prods[n], prev.den * cur.den):
                    failures.append((case, "K777", n))

        for n in range(1, 30):
            far, prev = table[n + 2], table[n]
            if far.den == 0 or prev.den == 0:
                continue
            lhs = Fraction(far.num, far.den) - Fraction(prev.num, prev.den)
            rhs = Fraction(
                (-1) ** (n - 1) * prods[n] * spec.b(n + 1), prev.den * far.den
            )
            if lhs != rhs:
                failures.append((case, "K300", n))

        tails = {k: shifted_table(spec, k, 20) for k in range(12)}
        for k in range(11):
            for n in range(0, 21):
                if tails[k][n + 1].den != tails[k + 1][n].num:
                    failures.append((case, "K11", (k, n)))
        for k in range(10):
            for n in range(-1, 19):
                lhs = tails[k][n + 3].num
                rhs = spec.b(k) * tails[k + 1][n + 2].num + spec.a(k + 1) * tails[k + 2][n + 1].num
                if lhs != rhs:
                    failures.append((case, "K15", (k, n)))
                lhs = tails[k][n + 3].den
                rhs = spec.b(k + 1) * tails[k + 1][n + 2].den + spec.a(k + 2) * tails[k + 2][n + 1].den
                if lhs != rhs:
                    failures.append((case, "K15b", (k, n)))

        for _ in range(6):
            n = rng.randint(1, 15)
            k = rng.randint(0, 15)
            tail = shifted_table(spec, n, k)[k + 1]
            prev, prev2 = table[n], table[n - 1]
            far = table[n + k + 1]
            a_n = spec.a(n)
            if far.num != tail.num * prev.num + a_n * tail.den * prev2.num:
                failures.append((case, "K100", (n, k)))
            if far.den != tail.num * prev.den + a_n * tail.den * prev2.den:
                failures.append((case, "K101", (n, k)))
            sign = (-1) ** (n - 1)
            if far.num * prev.den - prev.num * far.den != sign * prods[n] * tail.den:
                failures.append((case, "K200", (n, k)))
            if prev.den != 0 and far.den != 0:
                lhs = Fraction(far.num, far.den) - Fraction(prev.num, prev.den)
                if lhs != Fraction(sign * prods[n] * tail.den, prev.den * far.den):
                    failures.append((case, "K201", (n, k)))
    report("1 identity-suite", failures)


def test_criterion_2_continuant_oracle_equivalence():
    rng = random.Random(1002)
    failures = []
    for case in range(200):
        n = rng.randint(0, 8)
        args = ContinuantArgs(
            a=tuple(nonzero_int(rng) for _ in range(n)),
            b=tuple(nonzero_int(rng) for _ in range(n + 1)),
        )
        value = continuant(args)
        if continuant_oracle(args) != value:
            failures.append((case, "oracle", args))
        if n >= 2 and first_column_expansion(args) != value:
            failures.append((case, "first-column", args))
        flipped = reversed_args(args)
        if continuant(flipped) != value or continuant_oracle(flipped) != value:
            failures.append((case, "reversal", args))
    report("2 continuant-oracle", failures)


def test_criterion_3_reversed_convergents():
    rng = random.Random(1003)
    failures = []
    for case in range(200):
        n = rng.randint(1, 15)
        spec = random_finite(rng, n)
        table = convergent_table(spec, n)
        rev = reverse_relations(spec, n)
        expected = (table[n + 1].num, table[n].num, table[n + 1].den, table[n].den)
        got = (rev.num_n, rev.den_n, rev.num_prev, rev.den_prev)
        if got != expected:
            failures.append((case, got, expected))
    report("3 reversed-convergents", failures)


def test_criterion_4_tietze():
    rng = random.Random(1004)
    failures = []
    eps = Fraction(1, 10**8)
    for case in range(100):
        spec = random_semiregular(rng, 2000)
        if not validate_semiregular(spec, 200).valid:
            failures.append((case, "generator produced invalid spec"))
            continue
        try:
            denominator_bounds_certificate(spec, 200)
        except Exception as exc:  # CertificateFailure means a real bug
            failures.append((case, "certificate", repr(exc)))
            continue
        if case < 5:
            # dense chain check on a smaller grid for the first few specs
            tails = {k: shifted_table(spec, k, 60 - k) for k in range(0, 61)}
            for k in range(1, 60):
                for n in range(0, 61 - k):
                    b_kn = tails[k][n + 1].den
                    b_up = tails[k - 1][n + 2].den
                    b_full = tails[0][k + n + 1].den
                    if not (1 <= b_kn <= b_up <= b_full):
                        failures.append((case, "chain", (k, n)))
        coarse = evaluate_tietze(spec, eps)
        fine = evaluate_tietze(spec, eps / 10)
        if abs(coarse.value - fine.value) > eps + eps / 10:
            failures.append((case, "refinement", coarse.value, fine.value))
        if coarse.error_bound >= eps:
            failures.append((case, "bound", coarse.error_bound))

    start = time.perf_counter()
    root2 = evaluate_tietze(make_generator("sqrt2"), Fraction(1, 10**6))
    elapsed = time.perf_counter() - start
    if abs(root2.value * root2.value - 2) >= Fraction(3, 10**6):
        failures.append(("sqrt2", "accuracy", root2.value))
    if elapsed >= 1.0:
        failures.append(("sqrt2", "runtime", elapsed))
    report("4 tietze", failures)


def test_criterion_5_classifier_vs_brute_force():
    coeffs = (-2, -1, 1, 2)
    failures = []
    total = 0
    verdict_counts = {}
    for p in (1, 2, 3):
        for a_block in itertools.product(coeffs, repeat=p):
            for b_block in itertools.product(coeffs, repeat=p):
                total += 1
                pcf = PeriodicCF(a_block=a_block, b_block=b_block)
                rep = classify(pcf)
                verdict_counts[rep.verdict.kind] = verdict_counts.get(rep.verdict.kind, 0) + 1
                sim = Simulation(pcf, periods=200)
                if not matched_verdict(sim, rep):
                    failures.append((a_block, b_block, rep.verdict.kind))
    assert total == 4368
    assert set(verdict_counts) == {
        CONVERGENT,
        DIVERGENT_EQUAL_MODULUS,
        DIVERGENT_THIELE,
        "divergent_zero_denominator",
    }
    print(f"  verdicts over {total} cases: {verdict_counts}")
    report("5 classifier-vs-brute-force", failures)


def test_criterion_6_named_cases():
    failures = []

    rep = classify(footnote_cf())
    if rep.verdict.kind != CONVERGENT or rep.verdict.limit != 1:
        failures.append(("footnote", rep.verdict))

    rep = classify(golden_cf())
    if rep.verdict.kind != CONVERGENT or rep.verdict.limit != quadext(
        Fraction(1, 2), Fraction(1, 2), 5
    ):
        failures.append(("golden", rep.verdict))

    rep = classify(thiele_cf())
    if (
        rep.verdict.kind != DIVERGENT_THIELE
        or rep.verdict.q != 0
        or rep.eigen.x1 != 2
        or rep.verdict.sublimit != 1
    ):
        failures.append(("thiele", rep.verdict))

    rep = classify(equal_modulus_cf())
    if rep.verdict.kind != DIVERGENT_EQUAL_MODULUS:
        failures.append(("equal-modulus", rep.verdict))
    report("6 named-cases", failures)


def test_criterion_7_galois_moebius():
    rng = random.Random(1007)
    failures = []
    found = 0
    attempts = 0
    exceptions_seen = 0
    while found < 100 and attempts < 50000:
        attempts += 1
        pcf = random_periodic(rng, rng.randint(1, 4), lo=-3, hi=3)
        rep = classify(pcf)
        if rep.verdict.kind != CONVERGENT or not isinstance(rep.verdict.limit, QuadExt):
            continue
        found += 1
        record = galois_analysis(pcf)
        if not record.relation_holds:
            failures.append(("relation", pcf))
            continue
        prime = record.alpha_prime.verdict
        if prime.kind == CONVERGENT:
            if prime.limit != pcf.b(0) - rep.eigen.x2:
                failures.append(("prime-limit", pcf))
        elif prime.kind == DIVERGENT_THIELE:
            exceptions_seen += 1
            sim = Simulation(reverse_period(pcf), periods=200)
            if not matched_verdict(sim, record.alpha_prime):
                failures.append(("exception-simulation", pcf))
        else:
            failures.append(("prime-kind", pcf, prime.kind))
    if found < 100:
        failures.append(("sampling", f"only {found} convergent irrational cases"))
    print(f"  galois samples: {found}, (Cond123) exceptions seen: {exceptions_seen}")

    regular_checked = 0
    while regular_checked < 50:
        p = rng.randint(1, 4)
        pcf = PeriodicCF(
            a_block=(1,) * p, b_block=tuple(rng.randint(1, 4) for _ in range(p))
        )
        record = conjugate_check(pcf)
        regular_checked += 1
        if not record.identity_verified:
            failures.append(("galois-reciprocal", pcf))

    negative_checked = 0
    while negative_checked < 50:
        p = rng.randint(1, 4)
        pcf = PeriodicCF(
            a_block=(-1,) * p, b_block=tuple(rng.randint(2, 5) for _ in range(p))
        )
        try:
            record = conjugate_check(pcf)
        except NotIrrational:
            continue
        negative_checked += 1
        if not record.identity_verified:
            failures.append(("moebius-reciprocal", pcf))
    report("7 galois-moebius", failures)


def _matrix_with_spectrum(rng, tr, det):
    while True:
        m11 = Fraction(rng.randint(-5, 5))
        m21 = Fraction(rng.randint(-3, 3))
        if m21 == 0:
            continue
        m22 = tr - m11
        m12 = (m11 * m22 - det) / m21
        return PeriodMatrix(m11, m12, m21, m22)


def _nonzero_start(rng):
    while True:
        u0, v0 = rng.randint(-4, 4), rng.randint(-4, 4)
        if (u0, v0) != (0, 0):
            return u0, v0


def _ratio_errors(traj, x):
    return [abs(s.ratio - x) if not isinstance(s.ratio, QuadExt) else None
            for s in traj.steps]


def test_criterion_8_power_iteration_harness():
    rng = random.Random(1008)
    failures = []
    tol = Fraction(1, 10**9)

    # strictly dominant pairs with |lambda2/lambda1| <= 2/3
    dominant_pairs = [(3, 1), (3, -2), (-3, 2), (4, -1), (5, 2), (-4, -2),
                      (Fraction(5, 2), 1), (3, Fraction(3, 2))]
    for case in range(50):
        lam1, lam2 = dominant_pairs[case % len(dominant_pairs)]
        m = _matrix_with_spectrum(rng, lam1 + lam2, lam1 * lam2)
        u0, v0 = _nonzero_start(rng)
        traj = power_iterate(m, u0, v0, 100)
        x1 = (Fraction(lam1) - m.m22) / m.m21
        x2 = (Fraction(lam2) - m.m22) / m.m21
        mu1_is_zero = u0 - v0 * x2 == 0
        expected_case = DOMINANT_DEGENERATE if mu1_is_zero else DOMINANT_GENERIC
        if traj.case != expected_case:
            failures.append((case, "dominant-label", traj.case))
            continue
        if mu1_is_zero:
            if any(s.ratio != x2 for s in traj.steps if s.ratio is not None):
                failures.append((case, "dominant-degenerate-ratio"))
            continue
        tail = traj.steps[70:]
        if any(s.ratio is None for s in tail):
            failures.append((case, "dominant-late-zero"))
            continue
        final_err = abs(traj.steps[-1].ratio - x1)
        mid_err = abs(traj.steps[50].ratio - x1)
        if final_err >= tol:
            failures.append((case, "dominant-final-error", final_err))
        if final_err > mid_err:
            failures.append((case, "dominant-not-contracting"))

    # equal modulus: real opposite pairs and complex conjugate pairs
    for case in range(50):
        if case % 2 == 0:
            lam = rng.choice([2, 3, Fraction(5, 2)])
            m = _matrix_with_spectrum(rng, 0, -lam * lam)  # eigenvalues +-lam
        else:
            while True:
                tr = rng.randint(-2, 2)
                det = rng.randint(1, 4)
                if tr * tr < 4 * det:
                    break
            m = _matrix_with_spectrum(rng, tr, det)
        u0, v0 = _nonzero_start(rng)
        traj = power_iterate(m, u0, v0, 100)
        if traj.case != EQUAL_MODULUS:
            failures.append((case, "equal-label", traj.case))
            continue
        if traj.mu1 == 0 or traj.mu2 == 0:
            # start on an eigenvector: the exception branch, ratio is constant
            defined = [s.ratio for s in traj.steps if s.ratio is not None]
            if any(r != defined[0] for r in defined):
                failures.append((case, "equal-eigenstart-not-constant"))
            continue
        defined = [s.ratio for s in traj.steps[-20:] if s.ratio is not None]
        settled = len(defined) == 20 and all(
            abs_lt(r - defined[-1], Fraction(1, 10**6)) for r in defined
        )
        if settled:
            failures.append((case, "equal-settled"))

    # repeated eigenvalue
    for case in range(50):
        lam = rng.choice([1, -1, 2, -2, 3, Fraction(3, 2)])
        m = _matrix_with_spectrum(rng, 2 * lam, lam * lam)
        u0, v0 = _nonzero_start(rng)
        traj = power_iterate(m, u0, v0, 100)
        if traj.case != REPEATED:
            failures.append((case, "repeated-label", traj.case))
            continue
        x1 = (Fraction(lam) - m.m22) / m.m21
        if traj.mu2 == 0:
            if any(s.ratio != x1 for s in traj.steps if s.ratio is not None):
                failures.append((case, "repeated-eigenstart-not-constant"))
            continue
        errors = {
            s.n: abs(s.ratio - x1) for s in traj.steps if s.ratio is not None
        }
        late = [errors[n] for n in (60, 80, 100) if n in errors]
        if len(late) < 3 or not (late[2] < late[1] < late[0]):
            failures.append((case, "repeated-not-shrinking"))
        if 100 in errors and errors[100] == 0:
            failures.append((case, "repeated-exact-hit"))
    report("8 power-iteration-harness", failures)
