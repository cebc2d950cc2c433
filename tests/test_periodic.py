import subprocess
import sys
from fractions import Fraction

import pytest

import cfkit.periodic
from cfkit import (
    ComplexFloat,
    PeriodMatrix,
    PeriodicCF,
    as_complexfloat,
    build_period_matrix,
    classify,
    convergent_table,
    eigen_split,
    power_iterate,
    quadext,
    reverse_period,
)
from cfkit.cfcore import ConvergentPair
from cfkit.errors import (
    DegenerateMatrix,
    PrecisionExhausted,
    SelfCheckFailure,
    TowerMismatch,
    ZeroStart,
)
from cfkit.periodic import (
    CONVERGENT,
    DIVERGENT_EQUAL_MODULUS,
    DIVERGENT_THIELE,
    DIVERGENT_ZERO_DENOMINATOR,
    DOMINANT_DEGENERATE,
    DOMINANT_GENERIC,
    EQUAL_DISTINCT,
    EQUAL_MODULUS,
    EQUAL_REPEATED,
    REPEATED,
    STRICTLY_DOMINANT,
)
from cfkit.scalars import abs_lt
from conftest import (
    equal_modulus_cf,
    footnote_cf,
    golden_cf,
    random_periodic,
    thiele_cf,
)


def F(n, d=1):
    return Fraction(n, d)


PHI = quadext(F(1, 2), F(1, 2), 5)


class TestPeriodMatrix:
    def test_period_one_shape(self, rng):
        for _ in range(10):
            b0 = rng.randint(1, 5)
            a1 = rng.choice([-2, -1, 1, 2])
            m = build_period_matrix(PeriodicCF(a_block=(a1,), b_block=(b0,)))
            assert (m.m11, m.m12, m.m21, m.m22) == (b0, a1, 1, 0)

    def test_golden_matrix(self):
        m = build_period_matrix(golden_cf())
        assert (m.m11, m.m12, m.m21, m.m22) == (1, 1, 1, 0)
        assert m.trace == 1 and m.det == -1

    def test_thiele_matrix(self):
        m = build_period_matrix(thiele_cf())
        assert (m.m11, m.m12, m.m21, m.m22) == (5, -4, 2, -1)
        assert m.trace == 4
        assert m.det == 3  # (-1)^3 * (-3)*1*1

    def test_matrix_form_equivalence_randomized(self, rng):
        for _ in range(200):
            pcf = random_periodic(rng, rng.randint(1, 4))
            p = pcf.period
            table = convergent_table(pcf, p)
            m = build_period_matrix(pcf)
            b0 = pcf.b(0)
            assert m.m12 == table[p + 1].num - b0 * table[p].num
            assert m.m22 == table[p + 1].den - b0 * table[p].den

    def test_corrupted_table_fails_the_self_check(self, monkeypatch):
        def corrupted_table(spec, n_max):
            table = convergent_table(spec, n_max)
            full = table[-1]
            table[-1] = ConvergentPair(full.n, full.num + 1, full.den)
            return table

        monkeypatch.setattr(cfkit.periodic, "convergent_table", corrupted_table)
        with pytest.raises(SelfCheckFailure, match="m12"):
            build_period_matrix(thiele_cf())

    def test_self_check_survives_optimized_mode(self):
        script = (
            "import cfkit.periodic as periodic\n"
            "from cfkit import PeriodicCF\n"
            "from cfkit.cfcore import ConvergentPair, convergent_table\n"
            "from cfkit.errors import SelfCheckFailure\n"
            "def corrupted(spec, n):\n"
            "    table = convergent_table(spec, n)\n"
            "    table[-1] = ConvergentPair(table[-1].n, table[-1].num, table[-1].den + 1)\n"
            "    return table\n"
            "periodic.convergent_table = corrupted\n"
            "try:\n"
            "    periodic.build_period_matrix(PeriodicCF(a_block=(1,), b_block=(1,)))\n"
            "except SelfCheckFailure:\n"
            "    print('refused')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "refused"

    def test_determinant_formula_randomized(self, rng):
        for _ in range(200):
            pcf = random_periodic(rng, rng.randint(1, 4))
            product = 1
            for a in pcf.a_block:
                product *= a
            assert build_period_matrix(pcf).det == (-1) ** pcf.period * product


class TestEigenSplit:
    def test_golden(self):
        split = eigen_split(build_period_matrix(golden_cf()))
        assert split.lambda1 == PHI
        assert split.lambda2 == quadext(F(1, 2), F(-1, 2), 5)
        assert split.modulus_relation == STRICTLY_DOMINANT
        assert split.x1 == PHI  # B(0) = 1, B(-1) = 0

    def test_footnote_repeated(self):
        split = eigen_split(build_period_matrix(footnote_cf()))
        assert split.lambda1 == split.lambda2 == 1
        assert split.modulus_relation == EQUAL_REPEATED
        assert split.x1 == 1

    def test_conjugate_pair(self):
        split = eigen_split(build_period_matrix(equal_modulus_cf()))
        assert split.modulus_relation == EQUAL_DISTINCT
        assert split.lambda1 == quadext(F(1, 2), F(1, 2), -3)

    def test_square_discriminant_collapses_to_rationals(self):
        split = eigen_split(build_period_matrix(thiele_cf()))
        assert split.lambda1 == 3 and split.lambda2 == 1
        assert split.modulus_relation == STRICTLY_DOMINANT
        assert split.x1 == 2 and split.x2 == 1

    def test_real_equal_modulus_positive_root_first(self):
        # trace zero, positive discriminant
        m = PeriodMatrix(2, 3, 1, -2)  # trace 0, det -7
        split = eigen_split(m)
        assert split.modulus_relation == EQUAL_DISTINCT
        assert split.lambda1 == quadext(0, 1, 28) / 2
        assert split.lambda2 == -split.lambda1

    def test_trace_and_det_identities(self, rng):
        for _ in range(150):
            pcf = random_periodic(rng, rng.randint(1, 4))
            m = build_period_matrix(pcf)
            split = eigen_split(m)
            assert split.lambda1 + split.lambda2 == m.trace
            assert split.lambda1 * split.lambda2 == m.det

    def test_fixed_point_relations(self, rng):
        # lambda_i = x_i B(p-1) + a(p) B(p-2)
        for _ in range(150):
            pcf = random_periodic(rng, rng.randint(1, 4))
            m = build_period_matrix(pcf)
            split = eigen_split(m)
            if split.x1 is None:
                assert m.m21 == 0
                continue
            assert split.x1 * m.m21 + m.m22 == split.lambda1
            assert split.x2 * m.m21 + m.m22 == split.lambda2

    def test_eigen_equation_on_matrix(self, rng):
        # (x_i, 1) are genuine eigenvectors
        for _ in range(80):
            pcf = random_periodic(rng, rng.randint(1, 3))
            m = build_period_matrix(pcf)
            split = eigen_split(m)
            if split.x1 is None:
                continue
            for x, lam in ((split.x1, split.lambda1), (split.x2, split.lambda2)):
                u, v = m.apply(x, 1)
                assert u == lam * x
                assert v == lam

    def test_init_identities(self, rng):
        # A(p-1) - x1 B(p-1) = lambda2 and A(p-1) - x2 B(p-1) = lambda1
        for _ in range(150):
            pcf = random_periodic(rng, rng.randint(1, 4))
            m = build_period_matrix(pcf)
            split = eigen_split(m)
            if split.x1 is None:
                continue
            assert m.m11 - split.x1 * m.m21 == split.lambda2
            assert m.m11 - split.x2 * m.m21 == split.lambda1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMatrix):
            eigen_split(PeriodMatrix(1, 1, 1, 1))

    def test_quadext_entries_rejected(self):
        m = PeriodMatrix(quadext(0, 1, 2), 1, 1, 1)
        with pytest.raises(TowerMismatch):
            eigen_split(m)


class TestClassify:
    def test_footnote_convergent_repeated(self):
        report = classify(footnote_cf())
        assert report.verdict.kind == CONVERGENT
        assert report.verdict.condition == "C1"
        assert report.verdict.limit == 1

    def test_golden_convergent_dominant(self):
        report = classify(golden_cf())
        assert report.verdict.kind == CONVERGENT
        assert report.verdict.condition == "C2"
        assert report.verdict.limit == PHI

    def test_thiele_oscillation(self):
        report = classify(thiele_cf())
        assert report.verdict.kind == DIVERGENT_THIELE
        assert report.verdict.q == 0
        assert report.verdict.sublimit == 1
        assert report.eigen.x1 == 2

    def test_equal_modulus(self):
        report = classify(equal_modulus_cf())
        assert report.verdict.kind == DIVERGENT_EQUAL_MODULUS

    def test_zero_denominator(self):
        # p = 3 with B(2) = b(2) b(1) + a(2) = 2 - 2 = 0
        pcf = PeriodicCF(a_block=(1, -2, 1), b_block=(1, 1, 2))
        assert convergent_table(pcf, 2)[3].den == 0
        report = classify(pcf)
        assert report.verdict.kind == DIVERGENT_ZERO_DENOMINATOR

    def test_thiele_convergents_split_between_fixed_points(self):
        # the q = 0 residue class is pinned at x2 = 1, the rest approach x1 = 2
        pcf = thiele_cf()
        table = convergent_table(pcf, 60)
        for n in range(0, 61, 3):
            assert table[n + 1].num == table[n + 1].den  # A/B = 1 exactly
        for n in range(50, 61):
            if n % 3 == 0 or table[n + 1].den == 0:
                continue
            value = Fraction(table[n + 1].num, table[n + 1].den)
            assert abs(value - 2) < Fraction(1, 10**8)

    def test_golden_limit_matches_iterated_convergents(self):
        table = convergent_table(golden_cf(), 30)
        value = Fraction(table[31].num, table[31].den)
        assert abs_lt(value - PHI, F(1, 10**8))

    def test_equal_modulus_cycles(self):
        # B-values cycle with period 3: 1, 1, 0, -1, -1, 0, ...
        table = convergent_table(equal_modulus_cf(), 12)
        dens = [p.den for p in table[1:]]
        assert dens[:6] == [1, 1, 0, -1, -1, 0]
        assert dens[6:12] == dens[:6]


class TestClassifyComplexTower:
    def _complex_pcf(self, a_values, b_values, prec=128):
        return PeriodicCF(
            a_block=tuple(as_complexfloat(a, prec) for a in a_values),
            b_block=tuple(as_complexfloat(b, prec) for b in b_values),
        )

    def test_golden_float(self):
        report = classify(self._complex_pcf((1,), (1,)))
        assert report.verdict.kind == CONVERGENT
        limit = report.verdict.limit
        err = limit - as_complexfloat(PHI, 128)
        assert err.modulus() < 2.0**-100

    def test_thiele_exact_float_zero(self):
        # the fixed-point test cancels exactly even in floats
        report = classify(self._complex_pcf((-3, 1, 1), (1, -1, -1)))
        assert report.verdict.kind == DIVERGENT_THIELE
        assert report.verdict.q == 0

    def test_perturbed_thiele_precision_exhausted(self):
        eps = 2.0**-100
        pcf = PeriodicCF(
            a_block=tuple(as_complexfloat(a, 128) for a in (-3, 1, 1)),
            b_block=(
                ComplexFloat(1, 0, 128) + ComplexFloat(eps, 0, 128),
                ComplexFloat(-1, 0, 128),
                ComplexFloat(-1, 0, 128),
            ),
        )
        with pytest.raises(PrecisionExhausted):
            classify(pcf)

    def test_purely_imaginary_b_diverges(self):
        # M = (i, 1; 1, 0): disc = 3, eigenvalues (i ± sqrt3)/2 both of modulus 1
        pcf = PeriodicCF(
            a_block=(ComplexFloat(1, 0),), b_block=(ComplexFloat(0, 1),)
        )
        report = classify(pcf)
        assert report.eigen.modulus_relation == EQUAL_DISTINCT
        assert report.verdict.kind == DIVERGENT_EQUAL_MODULUS

    def test_complex_dominant_converges(self):
        # b = 1 + i gives |lambda1| about 1.7 and |lambda2| about 0.59
        pcf = PeriodicCF(
            a_block=(ComplexFloat(1, 0),), b_block=(ComplexFloat(1, 1),)
        )
        report = classify(pcf)
        assert report.eigen.modulus_relation == STRICTLY_DOMINANT
        assert report.verdict.kind == CONVERGENT
        # the limit solves x = b + a/x
        limit = report.verdict.limit
        residual = limit * limit - ComplexFloat(1, 1) * limit - 1
        assert residual.modulus() < 2.0**-100


class TestPowerIterate:
    def test_golden_ratios_approach_dominant_fixed_point(self):
        m = build_period_matrix(golden_cf())
        traj = power_iterate(m, 1, 0, 40)
        assert traj.case == DOMINANT_GENERIC
        assert not any(s.ratio is None for s in traj.steps[1:])
        final = traj.steps[-1].ratio
        assert abs_lt(final - PHI, F(1, 10**8))

    def test_eigenvector_start_stays_fixed(self):
        m = build_period_matrix(thiele_cf())  # x2 = 1 rational
        split = eigen_split(m)
        traj = power_iterate(m, split.x2, 1, 20)
        assert traj.case == DOMINANT_DEGENERATE
        for step in traj.steps:
            assert step.ratio == split.x2

    def test_sixth_root_cycle(self):
        m = PeriodMatrix(1, -1, 1, 0)
        traj = power_iterate(m, 1, 0, 12)
        assert traj.case == EQUAL_MODULUS
        states = [(s.u, s.v) for s in traj.steps]
        assert states[6] == states[0] == (1, 0)
        assert states[12] == states[0]
        assert states[3] == (-1, 0)
        # ratio undefined exactly where v vanishes
        assert [s.ratio is None for s in traj.steps[:6]] == [
            True, False, False, True, False, False,
        ]

    def test_repeated_case_slow_approach(self):
        m = build_period_matrix(footnote_cf())  # (2, -1; 1, 0), repeated eigenvalue 1
        traj = power_iterate(m, 3, 1, 100)
        assert traj.case == REPEATED
        split = eigen_split(m)
        errors = [abs(s.ratio - split.x1) for s in traj.steps if s.ratio is not None]
        assert errors[-1] < errors[50] < errors[10]
        assert errors[-1] > 0  # genuinely slow, never exact

    def test_mu_zero_tests(self, rng):
        for _ in range(60):
            pcf = random_periodic(rng, rng.randint(1, 3))
            m = build_period_matrix(pcf)
            if m.m21 == 0:
                continue
            split = eigen_split(m)
            u0, v0 = rng.randint(-4, 4), rng.randint(-4, 4)
            if u0 == 0 and v0 == 0:
                continue
            traj = power_iterate(m, u0, v0, 3)
            if split.modulus_relation == EQUAL_REPEATED:
                assert (traj.mu2 == 0) == (u0 - v0 * split.x1 == 0)
            else:
                assert (traj.mu1 == 0) == (u0 - v0 * split.x2 == 0)
                assert (traj.mu2 == 0) == (u0 - v0 * split.x1 == 0)

    def test_eigen_decomposition_reconstructs_start(self, rng):
        for _ in range(40):
            pcf = random_periodic(rng, rng.randint(1, 3))
            m = build_period_matrix(pcf)
            if m.m21 == 0:
                continue
            split = eigen_split(m)
            if split.modulus_relation == EQUAL_REPEATED:
                continue
            u0, v0 = rng.randint(-4, 4), rng.randint(-4, 4)
            if u0 == 0 and v0 == 0:
                continue
            traj = power_iterate(m, u0, v0, 1)
            assert traj.mu1 * split.x1 + traj.mu2 * split.x2 == u0
            assert traj.mu1 + traj.mu2 == v0

    def test_zero_start_rejected(self):
        m = build_period_matrix(golden_cf())
        with pytest.raises(ZeroStart):
            power_iterate(m, 0, 0, 5)

    def test_degenerate_matrix_rejected(self):
        with pytest.raises(DegenerateMatrix):
            power_iterate(PeriodMatrix(1, 1, 0, 1), 1, 0, 5)  # m21 = 0
        with pytest.raises(DegenerateMatrix):
            power_iterate(PeriodMatrix(1, 1, 1, 1), 1, 0, 5)  # det = 0

    def test_exact_trajectory_matches_matrix_power(self, rng):
        pcf = random_periodic(rng, 2)
        m = build_period_matrix(pcf)
        if m.m21 == 0 or m.det == 0:
            pytest.skip("degenerate sample")
        traj = power_iterate(m, 2, 3, 8)
        u, v = 2, 3
        for step in traj.steps:
            assert (step.u, step.v) == (u, v)
            u, v = m.apply(u, v)


class TestReversePeriod:
    def test_period_one_is_identity(self):
        assert reverse_period(golden_cf()) == golden_cf()

    def test_palindromic_inner_block(self):
        pcf = PeriodicCF(a_block=(1, 1, 1), b_block=(1, 2, 2))
        assert reverse_period(pcf) == pcf

    def test_period_two_swaps_numerators_only(self):
        pcf = PeriodicCF(a_block=(3, 7), b_block=(5, 11))
        rev = reverse_period(pcf)
        assert rev.a_block == (7, 3)
        assert rev.b_block == (5, 11)

    def test_index_map(self):
        pcf = PeriodicCF(a_block=(1, 2, 3, 4), b_block=(10, 20, 30, 40))
        rev = reverse_period(pcf)
        assert rev.a_block == (4, 3, 2, 1)
        assert rev.b_block == (10, 40, 30, 20)

    def test_involution(self, rng):
        for _ in range(100):
            pcf = random_periodic(rng, rng.randint(1, 5))
            assert reverse_period(reverse_period(pcf)) == pcf

    def test_spectral_match(self, rng):
        # reversed period matrix shares trace and determinant
        for _ in range(150):
            pcf = random_periodic(rng, rng.randint(1, 4))
            m = build_period_matrix(pcf)
            m_rev = build_period_matrix(reverse_period(pcf))
            assert m.trace == m_rev.trace
            assert m.det == m_rev.det


class TestBlockRecurrence:
    def test_period_advance_is_matrix_action(self, rng):
        # A((n+1)p + q) = A(p-1) A(np+q) + a(p) A(p-2) B(np+q), same for B
        for _ in range(60):
            p = rng.randint(1, 4)
            pcf = random_periodic(rng, p)
            m = build_period_matrix(pcf)
            table = convergent_table(pcf, 11 * p)
            for q in range(p):
                for n in range(0, 10):
                    cur = table[n * p + q + 1]
                    nxt = table[(n + 1) * p + q + 1]
                    u, v = m.apply(cur.num, cur.den)
                    assert (nxt.num, nxt.den) == (u, v)


class TestClassifierAgainstSimulation:
    def test_sampled_wider_coefficient_range(self, rng):
        # sampled periods up to 4 with coefficients up to +-3, against the
        # 200-period exact simulation oracle
        from brute import Simulation, matched_verdict

        for _ in range(250):
            pcf = random_periodic(rng, rng.randint(1, 4), lo=-3, hi=3)
            rep = classify(pcf)
            sim = Simulation(pcf, periods=200)
            assert matched_verdict(sim, rep), (pcf, rep.verdict)
