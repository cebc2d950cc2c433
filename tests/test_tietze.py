import math
from fractions import Fraction

import pytest

from cfkit import (
    BoundedValue,
    CFSpec,
    ComplexFloat,
    ConvergentPair,
    FiniteCF,
    PeriodicCF,
    RuleCF,
    denominator_bounds_certificate,
    evaluate_tietze,
    make_generator,
    quadext,
    validate_semiregular,
)
from cfkit import tietze
from cfkit.errors import CertificateFailure, CoefficientUnavailable, InvalidSpec, IterationCap, TowerMismatch
from cfkit.tietze import SemiRegularReport, Violation
from brute import sign_of
from conftest import footnote_cf, golden_cf, random_semiregular


class TestValidation:
    def test_regular_cf_is_valid(self):
        report = validate_semiregular(golden_cf(), 50)
        assert report.valid and report.first_violation is None
        assert report.checked_up_to == 50

    def test_negative_twos_is_valid(self):
        # b + a_next = 2 - 1 = 1 meets the boundary exactly
        assert validate_semiregular(footnote_cf(), 50).valid

    def test_three_halves_negative_fails_on_sum(self):
        spec = PeriodicCF(a_block=(-1,), b_block=(Fraction(3, 2),))
        report = validate_semiregular(spec, 10)
        assert not report.valid
        assert report.first_violation.n == 1
        assert report.first_violation.which == "sum_below_one"

    def test_non_unit_numerator(self):
        spec = PeriodicCF(a_block=(2,), b_block=(3,))
        report = validate_semiregular(spec, 10)
        assert report.first_violation.which == "a_not_unit"
        assert report.first_violation.n == 1

    def test_small_denominator(self):
        spec = PeriodicCF(a_block=(1,), b_block=(Fraction(1, 2),))
        report = validate_semiregular(spec, 10)
        assert report.first_violation.which == "b_below_one"

    def test_violation_order_prefers_a_check(self):
        spec = PeriodicCF(a_block=(3,), b_block=(Fraction(1, 2),))
        assert validate_semiregular(spec, 5).first_violation.which == "a_not_unit"

    def test_later_violation_index(self):
        spec = FiniteCF(a_list=(1, 1, 1, -1, 1), b_list=(1, 2, 2, 1, 2, 2))
        # b(3) = 1 with a(4) = -1 breaks the sum condition at n = 3
        report = validate_semiregular(spec, 4)
        assert report.first_violation.n == 3
        assert report.first_violation.which == "sum_below_one"

    def test_complex_tower_rejected(self):
        spec = PeriodicCF(a_block=(ComplexFloat(1, 0),), b_block=(ComplexFloat(2, 0),))
        with pytest.raises(TowerMismatch):
            validate_semiregular(spec, 3)

    def test_finite_spec_is_checked_to_its_last_index(self):
        # the sum condition at the last index N needs no a(N + 1)
        spec = FiniteCF(a_list=(1, -1, 1), b_list=(0, 2, 2, 1))
        assert validate_semiregular(spec, 3) == SemiRegularReport(True, None, 3)
        assert [(r.k, r.bound_type, r.bound) for r in denominator_bounds_certificate(spec, 3)] == [
            (1, "minus_case", 2), (2, "plus_case", 3),
        ]
        assert evaluate_tietze(spec, Fraction(1, 100)).checked_up_to == 3
        bad = FiniteCF(a_list=(1, 1, 2), b_list=(1, 2, 2, 2))
        assert validate_semiregular(bad, 3).first_violation == Violation(3, "a_not_unit")
        with pytest.raises(CoefficientUnavailable):
            validate_semiregular(spec, 4)

    def test_b0_unconstrained(self):
        spec = FiniteCF(a_list=(1, 1), b_list=(-7, 1, 1))
        assert validate_semiregular(spec, 1).valid


class TestCertificate:
    def test_footnote_meets_minus_bound_with_equality(self):
        records = denominator_bounds_certificate(footnote_cf(), 60)
        assert all(r.bound_type == "minus_case" for r in records)
        assert [r.bound for r in records] == [k + 1 for k in range(1, 60)]
        # B(k) = k + 1 exactly: the bound is met with equality, so any
        # off-by-one in the certificate would raise

    def test_golden_plus_bounds(self):
        records = denominator_bounds_certificate(golden_cf(), 40)
        assert all(r.bound_type == "plus_case" for r in records)

    def test_random_semiregular(self, rng):
        for _ in range(10):
            spec = random_semiregular(rng, 80)
            records = denominator_bounds_certificate(spec, 60)
            assert len(records) == 59

    @pytest.mark.parametrize("n_max", [2, 3])
    @pytest.mark.parametrize("name", ["sqrt2", "golden"])
    def test_smallest_n_max(self, name, n_max):
        # the chain sample keeps k + n <= n_max, and skips k = 3 past n_max = 2
        records = denominator_bounds_certificate(make_generator(name), n_max)
        assert [(r.k, r.bound_type, r.bound) for r in records] == [
            (k, "plus_case", k + 1) for k in range(1, n_max)
        ]

    def test_invalid_input_rejected(self):
        spec = PeriodicCF(a_block=(-1,), b_block=(Fraction(3, 2),))
        with pytest.raises(InvalidSpec):
            denominator_bounds_certificate(spec, 10)

    @pytest.mark.parametrize("spec, k, n, expected", [
        pytest.param(golden_cf(), 0, 5, (1, -1), id="plus_case"),  # min of B(2..10) < 2
        pytest.param(footnote_cf(), 0, 3, (3, 0), id="minus_case"),  # B(3) < 4
        pytest.param(golden_cf(), 2, 3, (2, 3), id="chain"),  # 1 <= B(2,3) breaks
    ])
    def test_a_corrupt_denominator_fails(self, monkeypatch, spec, k, n, expected):
        # the bounds are theorems, so only a broken table can fail them: B(k,n) := 0
        shifted_table = tietze.shifted_table

        def corrupt(source, start, n_max):
            rows = shifted_table(source, start, n_max)
            if start == k:
                rows[n + 1] = ConvergentPair(n, rows[n + 1].num, 0)
            return rows

        monkeypatch.setattr(tietze, "shifted_table", corrupt)
        with pytest.raises(CertificateFailure) as err:
            denominator_bounds_certificate(spec, 10)
        assert (err.value.k, err.value.n) == expected


class TestEvaluate:
    def test_footnote_tenth(self):
        bounded = evaluate_tietze(footnote_cf(), Fraction(1, 10))
        assert bounded.value == Fraction(12, 11)
        assert bounded.n_used == 10
        assert bounded.error_bound == Fraction(1, 11)
        # the limit is exactly 1, the end of the enclosure where every tail is 1
        assert abs(bounded.value - 1) <= bounded.error_bound

    def test_sqrt2(self):
        bounded = evaluate_tietze(make_generator("sqrt2"), Fraction(1, 10**6))
        square_error = bounded.value * bounded.value - 2
        assert abs(square_error) < Fraction(3, 10**6)
        assert bounded.error_bound < Fraction(1, 10**6)

    def test_coarse_epsilon_returns_quickly(self):
        bounded = evaluate_tietze(footnote_cf(), Fraction(1))
        assert bounded.n_used == 1
        assert bounded.error_bound == Fraction(1, 2)

    def test_refinement_consistency(self, rng):
        for _ in range(10):
            spec = random_semiregular(rng, 400)
            eps = Fraction(1, 10**6)
            coarse = evaluate_tietze(spec, eps)
            fine = evaluate_tietze(spec, eps / 10)
            assert abs(coarse.value - fine.value) <= eps + eps / 10

    def test_bound_dominates_true_error_against_deep_value(self, rng):
        for _ in range(10):
            spec = random_semiregular(rng, 400)
            bounded = evaluate_tietze(spec, Fraction(1, 1000))
            deep = evaluate_tietze(spec, Fraction(1, 10**9))
            assert abs(bounded.value - deep.value) <= bounded.error_bound + deep.error_bound

    def test_iteration_cap(self):
        with pytest.raises(IterationCap):
            evaluate_tietze(footnote_cf(), Fraction(1, 10**6), max_terms=100)

    def test_constant_coefficients_certified_or_refused(self):
        # b + a/(b + a/(b + ...)) for a in ±1..6, b in 1..6: the 11
        # semi-regular ones are certified around their closed-form limit
        # (b + sqrt(b^2 + 4a))/2; the other 61 are refused with the first
        # violation validate_semiregular reports
        eps = Fraction(1, 10**4)
        certified = 0
        for a in (*range(-6, 0), *range(1, 7)):
            for b in range(1, 7):
                spec = RuleCF(a_rule=lambda n, a=a: a, b_rule=lambda n, b=b: b)
                report = validate_semiregular(spec, 5)
                if not report.valid:
                    v = report.first_violation
                    with pytest.raises(InvalidSpec) as exc:
                        evaluate_tietze(spec, eps)
                    assert str(exc.value) == f"not semi-regular: {v.which} at n = {v.n}"
                    continue
                bounded = evaluate_tietze(spec, eps)
                limit = quadext(Fraction(b, 2), Fraction(1, 2), b * b + 4 * a)
                assert bounded.error_bound <= eps
                assert sign_of(limit - (bounded.value - bounded.error_bound)) >= 0
                assert sign_of(bounded.value + bounded.error_bound - limit) >= 0
                certified += 1
        assert certified == 11

    def test_violation_past_the_first_terms(self):
        # b(30) = 1/2 breaks b >= 1 long after a validated prefix would end
        spec = RuleCF(a_rule=lambda n: 1, b_rule=lambda n: Fraction(1, 2) if n == 30 else 1)
        assert validate_semiregular(spec, 10).valid
        with pytest.raises(InvalidSpec, match="b_below_one at n = 30"):
            evaluate_tietze(spec, Fraction(1, 10**20))

    def test_finite_spec_read_only_up_to_its_last_term(self):
        # B(2) (B(2) + a(3) B(1)) = 6 > 4 stops at 2; the check reads on to
        # the last index 5, and a(6) must not be read
        spec = FiniteCF(a_list=(1,) * 5, b_list=(1,) * 6)
        bounded = evaluate_tietze(spec, Fraction(1, 4))
        assert (bounded.n_used, bounded.checked_up_to) == (2, 5)
        assert bounded.error_bound == Fraction(1, 6)

    def test_finite_spec_end_is_exact(self):
        # no n < 5 certifies 1e-9, so the last index returns A(5)/B(5) itself
        read = []

        class Counted(CFSpec):
            max_index = 5

            def a(self, n):
                read.append(n)
                return 1

            def b(self, n):
                return 1

        bounded = evaluate_tietze(Counted(), Fraction(1, 10**9))
        assert bounded == BoundedValue(Fraction(13, 8), 5, Fraction(0), 5)
        assert max(read) == 5

    def test_sqrt2_deep_pin(self):
        # half the 2614 terms the window bound max(1/B(n-1), 1/B(n)) needed
        bounded = evaluate_tietze(make_generator("sqrt2"), Fraction(1, 10**1000))
        assert bounded.n_used == 1307
        assert bounded.error_bound < Fraction(1, 10**1000)

    def test_finite_violation_in_the_last_term(self):
        # b(30) turns A(30)/B(30) into about -1.44e8 after 29 terms that
        # certify 34/21 +- 1/13
        last = -Fraction(514229, 832040) + Fraction(1, 10**20)
        spec = FiniteCF(a_list=(1,) * 30, b_list=(1,) * 30 + (last,))
        with pytest.raises(InvalidSpec, match="b_below_one at n = 30"):
            evaluate_tietze(spec, Fraction(1, 10))

    @pytest.mark.parametrize(
        "a_block, b_block, message",
        [
            # B(11) = 0, so the CF diverges
            ((1,) * 12, (1,) * 11 + (Fraction(-55, 89),), "b_below_one at n = 11"),
            # b(12) + a(13) = b(0) + a(1) = 0: only index p + 1 shows it
            ((-1,) + (1,) * 11, (1, 2) + (1,) * 10, "sum_below_one at n = 12"),
        ],
        ids=["b_below_one", "sum_across_the_period"],
    )
    def test_periodic_violation_past_the_stopping_index(self, a_block, b_block, message):
        spec = PeriodicCF(a_block=a_block, b_block=b_block)
        with pytest.raises(InvalidSpec, match=message):
            evaluate_tietze(spec, Fraction(1, 10))

    def test_checked_up_to_covers_every_condition(self):
        finite = FiniteCF(a_list=(1,) * 30, b_list=(1,) * 31)
        periodic = PeriodicCF(a_block=(1,) * 12, b_block=(1,) * 12)
        assert evaluate_tietze(finite, Fraction(1, 10)).checked_up_to == 30
        assert evaluate_tietze(periodic, Fraction(1, 10)).checked_up_to == 13
        # a rule is checked one term ahead of the stopping index; its
        # semi-regularity past the terms read is a premise
        bounded = evaluate_tietze(make_generator("sqrt2"), Fraction(1, 10))
        assert bounded.checked_up_to == bounded.n_used + 1 == 3

    @pytest.mark.parametrize("k", [3, 4])
    def test_rule_read_one_past_the_stopping_index(self, k):
        # 1 + 1/(2 + 1/(2 + ...)) stops at n = 2 (B(2) (B(2) + B(1)) = 35 > 10)
        # after reading term 3; b(k) = 1/2 is seen at k = 3 and never read at 4
        spec = RuleCF(
            a_rule=lambda n: 1,
            b_rule=lambda n: 1 if n == 0 else Fraction(1, 2) if n == k else 2,
        )
        if k == 3:
            with pytest.raises(InvalidSpec, match="b_below_one at n = 3"):
                evaluate_tietze(spec, Fraction(1, 10))
        else:
            assert evaluate_tietze(spec, Fraction(1, 10)) == BoundedValue(
                Fraction(7, 5), 2, Fraction(1, 35), 3
            )

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                PeriodicCF(a_block=(ComplexFloat(1, 0),), b_block=(ComplexFloat(2, 0),)),
                r"a\(1\) is ComplexFloat",
            ),
            (PeriodicCF(a_block=(1,), b_block=(quadext(1, 1, 2),)), r"b\(1\) is QuadExt"),
        ],
        ids=["complex", "quadext"],
    )
    def test_non_rational_tower_rejected(self, spec, message):
        with pytest.raises(TowerMismatch, match=message):
            evaluate_tietze(spec, Fraction(1, 10))

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            evaluate_tietze(footnote_cf(), Fraction(0))


def _plain_tietze(b0, terms, eps):
    """(value, n_used, error_bound) by a plain loop over the (a(n), b(n))
    list, and B(n - 1) at [n] for n = 0 .. n_used + 1."""
    nums, dens = [1, b0], [0, 1]  # A(n) and B(n) at [n + 1]
    for n, (a, b) in enumerate(terms):
        width = Fraction(1) / (dens[-1] * (dens[-1] + a * dens[-2]))
        if width < eps:
            return (Fraction(nums[-1]) / dens[-1], n, width), dens
        nums.append(b * nums[-1] + a * nums[-2])
        dens.append(b * dens[-1] + a * dens[-2])
    # a finite spec's last index: its exact value
    return (Fraction(nums[-1]) / dens[-1], len(terms), Fraction(0)), dens


def _random_block(rng, p):
    """A semi-regular period, b(n) + a(n+1) > 1 for every n, so B grows fast."""
    a = [rng.choice((-1, 1)) for _ in range(p)]  # a[i] = a(i+1), b[i] = b(i)
    dens = [rng.randint(1, 4) for _ in range(p)]
    b = [(2 if a_next == -1 else 1) + Fraction(rng.randint(1, 3 * den), den)
         for a_next, den in zip(a, dens)]
    return tuple(a), tuple(b)


@pytest.mark.parametrize("digits", [6, 60, 600])
def test_minimal_n_used_matches_a_plain_loop(rng, digits):
    # every field equals the plain loop's, and the width at n_used - 1 does
    # not pass eps; checked_up_to is N for a finite spec, n_used + 1 for a
    # rule and max(n_used + 1, p + 1) for a periodic spec
    eps = Fraction(1, 10**digits)

    def check(spec, terms, checked_up_to):
        (value, n_used, bound), dens = _plain_tietze(spec.b(0), terms, eps)
        bounded = evaluate_tietze(spec, eps)
        assert bounded == BoundedValue(value, n_used, bound, checked_up_to(n_used))
        if (n := bounded.n_used) >= 1:
            a = terms[n - 1][0]
            assert Fraction(1) / (dens[n] * (dens[n] + a * dens[n - 1])) >= eps
        return n

    for _ in range(3):
        for length in (3, 40, 1500):
            finite = random_semiregular(rng, length)
            terms = list(zip(finite.a_list, finite.b_list[1:]))
            if check(finite, terms, lambda n: len(terms)) < len(terms):
                # past a finite list a rule runs out
                check(RuleCF(a_rule=finite.a, b_rule=finite.b), terms, lambda n: n + 1)
        a_block, b_block = _random_block(rng, rng.randint(1, 12))
        # a(n) = Fraction(±1) over int b(n): the unit step may keep A and B ints
        units = tuple(map(Fraction, a_block)), tuple(map(math.ceil, b_block))
        for periodic in (PeriodicCF(a_block, b_block), PeriodicCF(*units)):
            terms = [(periodic.a(n), periodic.b(n)) for n in range(1, 4000)]
            assert check(periodic, terms, lambda n: max(n + 1, len(a_block) + 1)) < len(terms)


class TestCauchyEnvelope:
    def test_window_bound_exact(self, rng):
        # |A(n+k)/B(n+k) - A(n-1)/B(n-1)| <= 1/B(n-1) in exact arithmetic
        from cfkit import convergent_table

        for _ in range(10):
            spec = random_semiregular(rng, 60)
            table = convergent_table(spec, 60)
            for n in range(1, 30):
                b_prev = table[n].den
                for k in (0, 1, 2, 7, 20):
                    far = table[n + k + 1]
                    lhs = abs(
                        Fraction(far.num, far.den) - Fraction(table[n].num, b_prev)
                    )
                    assert lhs <= Fraction(1, 1) / b_prev
