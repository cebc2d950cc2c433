import hashlib
import math
import random
from fractions import Fraction
from itertools import product

import pytest

import cfkit.periodic
from cfkit import (
    PeriodicCF,
    as_complexfloat,
    classify,
    conjugate_check,
    galois_analysis,
    quadext,
    reverse_period,
)
from cfkit.errors import InvalidSpec, NotIrrational, TowerMismatch
from cfkit.scalars import QuadExt
from cfkit.periodic import CONVERGENT, DIVERGENT_THIELE
from conftest import footnote_cf, golden_cf, random_periodic, thiele_cf


def F(n, d=1):
    return Fraction(n, d)


PHI = quadext(F(1, 2), F(1, 2), 5)

#: SHA-256 of the reports of the sweep below, one repr a line
SWEEP_DIGEST = "d26f94f7e5ea7ba4e9ff3e30cb00bf3745a5d89953e6939c5acb85ac4374c12e"


def _sweep_cases() -> list:
    """Every period-1..3 block over {-2, -1, 1, 2}, in product order."""
    values = (-2, -1, 1, 2)
    return [PeriodicCF(a, b) for p in (1, 2, 3)
            for a in product(values, repeat=p) for b in product(values, repeat=p)]


def test_sweep_reports_are_pinned():
    # a change that only makes galois_analysis faster leaves each report byte for byte
    cases = _sweep_cases()
    assert len(cases) == 4368
    text = "\n".join(repr(galois_analysis(pcf)) for pcf in cases)
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_DIGEST


#: SHA-256 of the reports of the seeded Fraction sweep below, one repr a line
FRACTION_SWEEP_DIGEST = "9f11c93fdec00022753552ff7f267b48b4a64d1fee61a7531aeefc6b004c75ff"


def _fraction_cases() -> list:
    """3,000 seeded period-1..3 blocks with parts +-1..3 over 1, 2, 3 and 5."""
    rng = random.Random(26)
    part = lambda: F(rng.choice((-1, 1)) * rng.randint(1, 3), rng.choice((1, 2, 3, 5)))
    cases = []
    for _ in range(3000):
        p = rng.randint(1, 3)
        cases.append(PeriodicCF(tuple(part() for _ in range(p)), tuple(part() for _ in range(p))))
    return cases


def test_fraction_sweep_reports_are_pinned():
    # the two period matrices of a case can take different integer multiples,
    # which the relation check must bring to a common one
    reports = [galois_analysis(pcf) for pcf in _fraction_cases()]
    assert all(report.relation_holds for report in reports)
    assert sum(report.alpha.verdict.is_convergent for report in reports) == 2130
    text = "\n".join(map(repr, reports))
    assert hashlib.sha256(text.encode()).hexdigest() == FRACTION_SWEEP_DIGEST


def test_exact_splits_hold_fractions_in_lowest_terms():
    # the exact eigen split builds each Fraction from one gcd of its own, not
    # through Fraction(), so each must come out reduced with a positive denominator
    seen = 0
    for pcf in _sweep_cases() + _fraction_cases():
        report = galois_analysis(pcf)
        for split in (report.alpha.eigen, report.alpha_prime.eigen):
            values = (split.lambda1, split.lambda2, split.x1, split.x2)
            for q in [p for x in values if x is not None for p in ((x.a, x.b) if type(x) is QuadExt else (x,))]:
                assert type(q) is Fraction and q.denominator > 0 and math.gcd(q.numerator, q.denominator) == 1
                seen += 1
    assert seen == 97_272


class TestGaloisAnalysis:
    def test_golden_self_reverse(self):
        record = galois_analysis(golden_cf())
        assert record.alpha.verdict.limit == PHI
        assert record.alpha_prime.verdict.limit == PHI
        # b0 - x2 = 1 - (1 - sqrt5)/2 = (1 + sqrt5)/2
        assert 1 - record.alpha.eigen.x2 == PHI
        assert record.relation_holds

    def test_footnote(self):
        record = galois_analysis(footnote_cf())
        assert record.alpha.verdict.limit == 1
        assert record.alpha_prime.verdict.limit == 1
        assert 2 - record.alpha.eigen.x2 == 1  # x2 = x1 = 1 in the repeated case
        assert record.relation_holds

    def test_thiele_both_orientations_reported(self):
        record = galois_analysis(thiele_cf())
        assert record.alpha.verdict.kind == DIVERGENT_THIELE
        assert record.alpha_prime.verdict.kind is not None
        assert record.relation_holds  # vacuous: the theorem only covers convergent alpha

    def test_reverse_limit_formula_randomized(self, rng):
        seen_convergent = 0
        for _ in range(300):
            pcf = random_periodic(rng, rng.randint(1, 4))
            record = galois_analysis(pcf)
            assert record.relation_holds, pcf
            if record.alpha.verdict.kind == CONVERGENT:
                seen_convergent += 1
                if record.alpha_prime.verdict.kind == CONVERGENT:
                    assert record.alpha_prime.verdict.limit == pcf.b(0) - record.alpha.eigen.x2
        assert seen_convergent > 50

    def test_exception_branch_exists(self, rng):
        # the reversed CF of a convergent CF can genuinely oscillate
        hits = 0
        for _ in range(4000):
            pcf = random_periodic(rng, rng.randint(2, 4), lo=-2, hi=2)
            record = galois_analysis(pcf)
            assert record.relation_holds
            if (
                record.alpha.verdict.kind == CONVERGENT
                and record.alpha_prime.verdict.kind == DIVERGENT_THIELE
            ):
                hits += 1
        assert hits > 0

    def test_relation_fails_when_the_period_is_not_reversed(self, monkeypatch):
        monkeypatch.setattr(cfkit.periodic, "reverse_period", lambda pcf: pcf)
        record = galois_analysis(PeriodicCF((1, 2), (1, 3)))
        assert record.alpha.verdict.kind == CONVERGENT
        assert not record.relation_holds

    def test_complex_tower_matches_exact_tower(self):
        # every period-1..2 CF with coefficients in {-2, -1, 1, 2}, lifted to 128 bits
        values = (-2, -1, 1, 2)
        for p in (1, 2):
            for a_block in product(values, repeat=p):
                for b_block in product(values, repeat=p):
                    exact = galois_analysis(PeriodicCF(a_block, b_block))
                    lifted = galois_analysis(PeriodicCF(
                        tuple(as_complexfloat(a, 128) for a in a_block),
                        tuple(as_complexfloat(b, 128) for b in b_block),
                    ))
                    assert lifted.relation_holds, (a_block, b_block)
                    assert lifted.alpha.verdict.kind == exact.alpha.verdict.kind
                    assert lifted.alpha_prime.verdict.kind == exact.alpha_prime.verdict.kind


class TestConjugateCheck:
    def test_golden(self):
        record = conjugate_check(golden_cf())
        assert record.is_quadratic
        assert record.alpha == PHI
        assert record.conjugate == quadext(F(1, 2), F(-1, 2), 5)
        assert record.identity_verified

    def test_regular_period_two(self):
        # b = (2, 1), a = 1: alpha = 1 + sqrt3
        pcf = PeriodicCF(a_block=(1, 1), b_block=(2, 1))
        record = conjugate_check(pcf)
        assert record.alpha == quadext(1, 1, 3)
        assert record.conjugate == quadext(1, -1, 3)
        assert record.identity_verified

    def test_negative_period_two(self):
        # b = (3, 2), a = -1: alpha = (3 + sqrt3)/2, 1/conjugate = (3 + sqrt3)/3
        pcf = PeriodicCF(a_block=(-1, -1), b_block=(3, 2))
        record = conjugate_check(pcf)
        assert record.alpha == quadext(F(3, 2), F(1, 2), 3)
        assert record.identity_verified
        # cross-check the displayed reversed-block CF by hand
        displayed = PeriodicCF(a_block=(-1, -1), b_block=(2, 3))
        limit = classify(displayed).verdict.limit
        assert limit == 1 / record.conjugate

    def test_rational_limit_rejected(self):
        with pytest.raises(NotIrrational):
            conjugate_check(footnote_cf())

    def test_divergent_rejected(self):
        with pytest.raises(InvalidSpec):
            conjugate_check(thiele_cf())

    def test_non_integer_rejected(self):
        pcf = PeriodicCF(a_block=(1,), b_block=(Fraction(3, 2),))
        with pytest.raises(TowerMismatch):
            conjugate_check(pcf)

    def test_random_regular_cfs(self, rng):
        for _ in range(40):
            p = rng.randint(1, 4)
            pcf = PeriodicCF(
                a_block=(1,) * p,
                b_block=tuple(rng.randint(1, 4) for _ in range(p)),
            )
            record = conjugate_check(pcf)
            assert record.identity_verified, pcf

    def test_random_negative_cfs(self, rng):
        checked = 0
        for _ in range(80):
            p = rng.randint(1, 4)
            pcf = PeriodicCF(
                a_block=(-1,) * p,
                b_block=tuple(rng.randint(2, 5) for _ in range(p)),
            )
            try:
                record = conjugate_check(pcf)
            except NotIrrational:
                continue  # the all-twos style blocks can have rational limits
            checked += 1
            assert record.identity_verified, pcf
        assert checked > 40

    def test_conjugation_swaps_fixed_points(self, rng):
        for _ in range(60):
            pcf = random_periodic(rng, rng.randint(1, 3))
            report = classify(pcf)
            if report.verdict.kind != CONVERGENT:
                continue
            limit = report.verdict.limit
            if isinstance(limit, Fraction) or isinstance(limit, int):
                continue
            assert report.eigen.x2 == limit.conjugate()


class TestReverseClassification:
    def test_reverse_preserves_verdict_kind_for_c1(self, rng):
        # repeated eigenvalues survive reversal (trace and det are shared)
        for _ in range(200):
            pcf = random_periodic(rng, rng.randint(1, 3))
            rep = classify(pcf)
            rev = classify(reverse_period(pcf))
            if rep.verdict.condition == "C1":
                assert rev.verdict.condition == "C1"
                assert rev.verdict.kind == CONVERGENT
