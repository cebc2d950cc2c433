import hashlib
import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mpf
from mpmath.libmp import to_rational

import cfkit.periodic
from cfkit import (
    ComplexFloat,
    PeriodMatrix,
    PeriodicCF,
    QuadExt,
    as_complexfloat,
    build_period_matrix,
    classify,
    convergent_table,
    eigen_split,
    galois_analysis,
    power_iterate,
    quadext,
    reverse_period,
)
from cfkit.cfcore import recurrence
from cfkit.errors import (
    DegenerateMatrix,
    InvalidSpec,
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
from brute import abs_lt
from conftest import (
    equal_modulus_cf,
    footnote_cf,
    golden_cf,
    random_fraction_periodic,
    random_periodic,
    thiele_cf,
)


def F(n, d=1):
    return Fraction(n, d)


PHI = quadext(F(1, 2), F(1, 2), 5)


def complex_pcf(a_values, b_values, prec=128):
    """The CF with each coefficient (int, Fraction or complex) in the complex tower."""
    return PeriodicCF(
        a_block=tuple(as_complexfloat(a, prec) for a in a_values),
        b_block=tuple(as_complexfloat(b, prec) for b in b_values),
    )


def close_to_exact(got, want, prec):
    """got is within 2^-(prec - 4) relative of the exact value want (or both are None)."""
    if want is None:
        return got is None
    want = as_complexfloat(want, 4 * prec)
    return (got - want).modulus() <= want.modulus() * 2.0 ** (4 - prec)


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
        def corrupted_pairs(b0, terms):
            pairs = list(recurrence(b0, terms))
            num, den = pairs[-1]
            pairs[-1] = (num + 1, den)
            return iter(pairs)

        monkeypatch.setattr(cfkit.periodic, "recurrence", corrupted_pairs)
        with pytest.raises(SelfCheckFailure, match="m12"):
            build_period_matrix(thiele_cf())

    def test_self_check_survives_optimized_mode(self):
        script = (
            "import cfkit.periodic as periodic\n"
            "from cfkit import ComplexFloat, PeriodicCF\n"
            "from cfkit.cfcore import recurrence\n"
            "from cfkit.errors import SelfCheckFailure\n"
            "def corrupted(b0, terms):\n"
            "    pairs = list(recurrence(b0, terms))\n"
            "    pairs[-1] = (pairs[-1][0], pairs[-1][1] + 1)\n"
            "    return iter(pairs)\n"
            "periodic.recurrence = corrupted\n"
            "for one in (1, ComplexFloat(1, 2**-70)):  # exact, and on Gaussian integers\n"
            "    try:\n"
            "        periodic.build_period_matrix(PeriodicCF(a_block=(1,), b_block=(one,)))\n"
            "    except SelfCheckFailure:\n"
            "        print('refused')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["refused", "refused"]

    def test_scaled_holds_the_unrounded_entries(self):
        # at 64 bits the products in m11 = b0 b1 + a1 and m12 = a2 b0 are rounded;
        # a matrix built from the spec keeps a Gaussian-integer multiple of them,
        # a hand-built one only of the exact values of the rounded entries it was given
        def gaussian(z):  # a ComplexFloat's exact value, re + im sqrt(-1)
            re, im = (Fraction(*to_rational(part._mpf_)) for part in (z.re, z.im))
            return quadext(re, im, -1)

        def integral(m):
            return all(part.denominator == 1 for part in ((m.a, m.b) if isinstance(m, QuadExt) else (m,)))

        pcf = complex_pcf([complex(1 / 3, 1 / 7), complex(2 / 9, -1 / 5)],
                          [complex(3 / 11, 1 / 13), complex(5 / 17, 2 / 3)], prec=64)
        (a1, a2), (b0, b1) = ([gaussian(z) for z in block] for block in (pcf.a_block, pcf.b_block))
        unrounded = (b0 * b1 + a1, a2 * b0, b1, a2)
        built = build_period_matrix(pcf)
        c, *entries = built.scaled
        assert c > 0 and all(map(integral, entries))
        assert tuple(entries) == tuple(c * m for m in unrounded)
        rounded = (built.m11, built.m12, built.m21, built.m22)
        assert rounded == tuple(as_complexfloat(m, 64) for m in unrounded)
        by_hand = PeriodMatrix(*rounded)
        assert by_hand == built and by_hand.pairs == ()
        c, *entries = by_hand.scaled
        assert c > 0 and all(map(integral, entries))
        assert tuple(entries) == tuple(c * gaussian(m) for m in rounded) != tuple(c * m for m in unrounded)

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
            p = rng.randint(1, 4)
            for pcf in (random_periodic(rng, p), random_fraction_periodic(rng, p)):
                m = build_period_matrix(pcf)
                split = eigen_split(m)
                assert split.lambda1 + split.lambda2 == m.trace
                assert split.lambda1 * split.lambda2 == m.det

    def test_fixed_point_relations(self, rng):
        # lambda_i = x_i B(p-1) + a(p) B(p-2)
        for _ in range(150):
            p = rng.randint(1, 4)
            for pcf in (random_periodic(rng, p), random_fraction_periodic(rng, p)):
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
            p = rng.randint(1, 3)
            for pcf in (random_periodic(rng, p), random_fraction_periodic(rng, p)):
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

    @pytest.mark.parametrize("prec11, prec21", [(128, 256), (256, 128)])
    def test_float_split_runs_at_the_largest_entry_precision(self, prec11, prec21):
        # trace 5, det 5: lambda = (5 +- sqrt5)/2, whichever entry holds 256 bits
        m = PeriodMatrix(ComplexFloat(2, 0, prec11), 1, ComplexFloat(1, 0, prec21), 3)
        split = eigen_split(m)
        assert split.modulus_relation == STRICTLY_DOMINANT
        assert split.lambda1.prec == split.lambda2.prec == 256
        for lam, sign in ((split.lambda1, 1), (split.lambda2, -1)):
            exact = as_complexfloat(quadext(F(5, 2), F(sign, 2), 5), 256)
            assert (lam - exact).modulus() < 2.0**-250

    @pytest.mark.parametrize("prec", [64, 128, 256])
    def test_float_split_keeps_the_working_precision(self, prec):
        # integer period matrices in the complex tower against their exact split,
        # in the same order; named: tr = 0 (D > 0 and D < 0), D = 0, m12 = 0,
        # m12 = D = 0 (a double fixed point at 0), m21 = 0, and m11 - m22 +- s
        # cancelling in x1's sum and then in x2's
        rng = random.Random(20261019)
        cases = [(0, 1, 1, 0), (0, -1, 1, 0), (2, -1, 1, 0), (1, 0, 3, 2), (5, 0, 7, 5), (2, 1, 0, 3),
                 (1, 1, 1, 10**6), (10**6, 1, 1, 1)]
        for _ in range(150):
            p = rng.randint(1, 4)
            pcf = PeriodicCF(a_block=tuple(rng.choice((-1, 1)) * rng.randint(1, 999) for _ in range(p)),
                             b_block=tuple(rng.choice((-1, 1)) * rng.randint(1, 999) for _ in range(p)))
            m = build_period_matrix(pcf)
            cases.append((m.m11, m.m12, m.m21, m.m22))
        for entries in cases:
            exact = eigen_split(PeriodMatrix(*entries))
            split = eigen_split(PeriodMatrix(*(as_complexfloat(m, prec) for m in entries)))
            assert split.modulus_relation == exact.modulus_relation
            for name in ("lambda1", "lambda2", "x1", "x2"):
                assert close_to_exact(getattr(split, name), getattr(exact, name), prec), (entries, name)


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


def complex_split_cases() -> list:
    """Every value the complex split rounds, bit for bit: seeded Gaussian
    dyadic periods at three precisions, +-1 period-3 grids (a(2) = -b(1) b(2)
    makes m21 = B(2) = 0), 2^-3000 parts, and real 3-digit period-4 blocks."""
    rng = random.Random(24)
    tiny = mpf(2) ** -3000
    part = lambda: mpf(rng.choice((0, 0, 1, -1, 2, -3, rng.randint(-99, 99)))) / 2 ** rng.randint(0, 4)
    lift = lambda block, prec: tuple(as_complexfloat(x, prec) for x in block)
    cases = []
    for prec in (64, 128, 300):
        for _ in range(150):
            p = rng.randint(1, 4)
            a = tuple(ComplexFloat(rng.choice((1, -1, 2)), part(), prec) for _ in range(p))
            b = tuple(ComplexFloat(part(), part(), prec) for _ in range(p))
            if 0 not in b:
                cases.append(PeriodicCF(a_block=a, b_block=b))
        cases += [PeriodicCF(a_block=lift(a, prec), b_block=lift(b, prec))
                  for a in itertools.product((1, -1), repeat=3) for b in itertools.product((1, 1j), repeat=3)]
        cases += [PeriodicCF(a_block=(ComplexFloat(1, tiny, prec),) * p,
                             b_block=tuple(ComplexFloat(tiny * k, 1 - k, prec) for k in range(p))) for p in (1, 2)]
    for _ in range(16):
        a, b = ([rng.randint(100, 999) for _ in range(4)] for _ in "ab")
        cases.append(PeriodicCF(a_block=lift(a, 128), b_block=lift(b, 128)))
    return cases


class TestClassifyComplexTower:
    def test_wide_binary_exponents_keep_their_reports(self):
        # 10^-3000 and 10^-10000 are dyadics of some 10^4 and 3.3 * 10^4 bits
        reports = []
        for e in ("1e-3000", "1e-10000"):
            tiny = mpf(e)
            for a, b in (((1,), (ComplexFloat(tiny, 1),)), ((ComplexFloat(-1, tiny),), (ComplexFloat(2 * tiny, 3),))):
                reports.append(repr(classify(PeriodicCF(a_block=a, b_block=b))))
        digest = hashlib.sha256("\n".join(reports).encode()).hexdigest()
        assert digest == "a6d6557e4c6a3fd0cba65820d5b9e14e70cf9e0adab1e0fc1a77568ff117890b"

    @pytest.mark.parametrize("call, exponent, b, timeout", [
        ("classify({})", 50_000, "(ComplexFloat(tiny, 1),)", 2),
        ("classify({})", 100_000, "(ComplexFloat(tiny, 1), ComplexFloat(1, tiny))", 2),
        ("galois_analysis({}).alpha_prime", 100_000, "(ComplexFloat(tiny, 1), ComplexFloat(1, tiny))", 3),
    ], ids=["classify-period-1", "classify-period-2", "galois-period-2"])
    def test_wide_binary_exponent_takes_no_quadratic_time(self, call, exponent, b, timeout):
        # b = (10^-e + i) or (10^-e + i, 1 + 10^-e i): the exact parts have
        # denominators of 3.3 e bits, whose gcds took seconds when the matrix
        # and the decisions ran on Fractions; on Gaussian integers they do not
        script = (
            "from mpmath import mpf\n"
            "from cfkit import ComplexFloat, PeriodicCF, classify, galois_analysis\n"
            f"tiny = mpf('1e-{exponent}')\n"
            f"b = {b}\n"
            f"print({call.format('PeriodicCF(a_block=(1,) * len(b), b_block=b)')}.verdict.kind)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=timeout)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == CONVERGENT

    def test_complex_split_reports_are_pinned(self):
        reports = [classify(pcf) for pcf in complex_split_cases()]
        # M = [[2, 0], [1, 2]]: s = m11 - m22 = 0, so u = 0 and 0 is a double fixed point
        double = eigen_split(PeriodMatrix(*(as_complexfloat(x, 128) for x in (2, 0, 1, 2))))
        assert double.x1 == double.x2 == 0 and double.modulus_relation == EQUAL_REPEATED
        text = "\n".join(map(repr, [*reports, double]))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "afa093aeef853c8b77062c61b357059410dc8ee2d26074c489c97785a6a42675"
        )
        relations = {r.eigen.modulus_relation for r in reports}
        assert relations == {STRICTLY_DOMINANT, EQUAL_DISTINCT, EQUAL_REPEATED}
        assert any(r.matrix.m21 == 0 for r in reports)
        # the fixed points divide by the larger of u = d + s and v = s - d, s = 2 lambda1 - tr
        branches = set()
        for r in reports:
            m = r.matrix
            if m.m21 != 0:
                d, s = m.m11 - m.m22, 2 * r.eigen.lambda1 - m.trace
                branches.add((d + s).modulus() < (s - d).modulus())
        assert branches == {True, False}

    def test_complex_galois_and_power_reports_are_pinned(self):
        # galois_analysis and power_iterate also run the complex period matrix
        # and split: their reports on the same cases, bit for bit
        reports = []
        for pcf in complex_split_cases():
            reports.append(galois_analysis(pcf))
            matrix = build_period_matrix(pcf)
            if matrix.m21 != 0:
                reports.append(power_iterate(matrix, 1, 0, 3))
        text = "\n".join(map(repr, reports))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "537db4fcd69de7bd3d85e1488cd34b6c7e547678bd30315c56daaa712788ef18"
        )

    def test_golden_float(self):
        report = classify(complex_pcf((1,), (1,)))
        assert report.verdict.kind == CONVERGENT
        limit = report.verdict.limit
        err = limit - as_complexfloat(PHI, 128)
        assert err.modulus() < 2.0**-100

    def test_thiele_exact_float_zero(self):
        # the fixed-point test cancels exactly even in floats
        report = classify(complex_pcf((-3, 1, 1), (1, -1, -1)))
        assert report.verdict.kind == DIVERGENT_THIELE
        assert report.verdict.q == 0

    @pytest.mark.parametrize("prec", [128, 512, 2048])
    def test_perturbed_thiele_is_decided_exactly(self, prec):
        # b(0) = 1 + 2^-100 moves the Thiele case off x2 by far less than any
        # fixed float tolerance could resolve, yet the dyadic CF converges,
        # in both towers and at every precision
        b0 = 1 + F(1, 2**100)
        exact = classify(PeriodicCF(a_block=(-3, 1, 1), b_block=(b0, -1, -1)))
        assert exact.verdict.kind == CONVERGENT and exact.verdict.condition == "C2"
        report = classify(complex_pcf((-3, 1, 1), (b0, -1, -1), prec))
        assert report.verdict.kind == CONVERGENT
        assert report.verdict.condition == "C2"
        err = report.verdict.limit - as_complexfloat(exact.verdict.limit, prec)
        assert err.modulus() * 2 ** (prec - 8) < 1

    @pytest.mark.parametrize("e", [150, 200, 300])
    def test_nearly_equal_moduli_are_ordered_exactly(self, e):
        # b = -2^-e + i: the moduli of the eigenvalues differ by about 2^-e, far
        # below the working precision, and the limit is -sqrt3/2 + i/2 at any precision
        def limit(prec):
            report = classify(complex_pcf((1,), (quadext(-F(1, 2**e), 1, -1),), prec))
            assert report.verdict.kind == CONVERGENT and report.verdict.condition == "C2"
            return report.verdict.limit
        assert (limit(128) - limit(2048)).modulus() < 2.0**-120

    @pytest.mark.parametrize("re, im", [("inf", 0), ("-inf", 0), (1, "nan")])
    def test_non_finite_coefficient_is_refused(self, re, im):
        # an exact decision needs finite dyadic coefficients
        pcf = PeriodicCF(a_block=(ComplexFloat(1, 0),), b_block=(ComplexFloat(re, im),))
        with pytest.raises(InvalidSpec, match="not a finite number"):
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

    def test_trajectory_is_immutable(self):
        traj = power_iterate(build_period_matrix(golden_cf()), 1, 0, 3)
        assert isinstance(traj.steps, tuple)
        assert hash(traj) == hash(power_iterate(build_period_matrix(golden_cf()), 1, 0, 3))
        with pytest.raises(AttributeError):
            traj.steps.append(traj.steps[0])

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

    def test_fraction_coefficient_sweep(self):
        # every period <= 2 over {+-1/2, +-1, +-3/2}: the period matrix has
        # Fraction entries, so the classifier scales it to integers first
        from brute import Simulation, matched_verdict

        values = (F(-3, 2), F(-1, 2), F(1, 2), 1, F(3, 2), -1)
        failures = []
        for p in (1, 2):
            for a in itertools.product(values, repeat=p):
                for b in itertools.product(values, repeat=p):
                    pcf = PeriodicCF(a_block=a, b_block=b)
                    rep = classify(pcf)
                    if not matched_verdict(Simulation(pcf, periods=200), rep):
                        failures.append((a, b, rep.verdict.kind))
        assert failures == []

    @pytest.mark.parametrize(
        "a, b, kind",
        [
            # the named cases moved into Q(i) by b -> i b, a -> -a, which
            # multiplies every convergent by i and keeps each verdict
            ((3, -1, -1), (1j, -1j, -1j), DIVERGENT_THIELE),
            ((-1, 2, -1), (1j, 1j, 2j), DIVERGENT_ZERO_DENOMINATOR),
            ((1,), (2j,), CONVERGENT),
            ((1,), (1j,), DIVERGENT_EQUAL_MODULUS),
        ],
    )
    def test_gaussian_named_cases(self, a, b, kind):
        from brute import Simulation, matched_verdict

        pcf = complex_pcf(a, b)
        rep = classify(pcf)
        assert rep.verdict.kind == kind
        assert matched_verdict(Simulation(pcf, periods=200), rep)

    def test_gaussian_sweep(self):
        # period 1 over ten Gaussian integers and period 2 over {+-1, +-i}
        from brute import Simulation, matched_verdict

        small = (1, -1, 2, 1j, -1j, 2j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j)
        cases = [((a,), (b,)) for a in small for b in small]
        units = (1, -1, 1j, -1j)
        cases += [(a, b) for a in itertools.product(units, repeat=2)
                  for b in itertools.product(units, repeat=2)]
        failures = []
        for a, b in cases:
            pcf = complex_pcf(a, b)
            rep = classify(pcf)
            if not matched_verdict(Simulation(pcf, periods=200), rep):
                failures.append((a, b, rep.verdict.kind))
        assert failures == []

    def test_fraction_and_gaussian_sweep_reports_are_pinned(self):
        # the two sweeps above, report by report: Fraction entries take the
        # least-common-denominator scaling, Gaussian ones the rounded ratios
        values = (F(-3, 2), F(-1, 2), F(1, 2), 1, F(3, 2), -1)
        cases = [PeriodicCF(a, b) for p in (1, 2) for a in itertools.product(values, repeat=p)
                 for b in itertools.product(values, repeat=p)]
        small = (1, -1, 2, 1j, -1j, 2j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j)
        units = (1, -1, 1j, -1j)
        gaussian = [((a,), (b,)) for a in small for b in small]
        gaussian += [(a, b) for a in itertools.product(units, repeat=2) for b in itertools.product(units, repeat=2)]
        cases += [complex_pcf(a, b) for a, b in gaussian]
        text = "\n".join(repr(classify(pcf)) for pcf in cases)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5e887512c1cc0c4733f1b10759c2811b935453a62fcafa60c46351870205034d"
        )
