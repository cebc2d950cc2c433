from fractions import Fraction

import pytest

from cfkit import (
    ContinuantArgs,
    FiniteCF,
    build_period_matrix,
    continuant,
    continuant_oracle,
    convergent_table,
    denominator_bounds_certificate,
    evaluate_tietze,
    first_column_expansion,
    pair_at,
    power_iterate,
    reverse_relations,
    reversed_args,
    shifted_table,
    validate_semiregular,
)
from cfkit.cfcore import coefficient_lists
from cfkit.errors import CoefficientUnavailable, InvalidSpec, SizeLimit
from conftest import footnote_cf, golden_cf, nonzero_int, random_finite


def random_args(rng, n, lo=-5, hi=5):
    return ContinuantArgs(
        a=tuple(nonzero_int(rng, lo, hi) for _ in range(n)),
        b=tuple(nonzero_int(rng, lo, hi) for _ in range(n + 1)),
    )


def convergent_continuants(spec, n):
    """(A(n), B(n)) as the continuants K(a1..an; b0..bn) and K(a2..an; b1..bn)."""
    a, b = coefficient_lists(spec, n)
    den = continuant(ContinuantArgs(a=a[1:], b=b[1:])) if n >= 1 else 1
    return continuant(ContinuantArgs(a=a, b=b)), den


def tail_formula(spec, n, k):
    """(A(n+k), B(n+k)) from the tail pair and the pairs at n - 1 and n - 2:
    A(n+k) = A(n,k) A(n-1) + a(n) B(n,k) A(n-2), and B(n+k) likewise."""
    prev2, prev = pair_at(spec, 0, n - 1)
    tail = pair_at(spec, n, k)[1]
    return (
        tail.num * prev.num + spec.a(n) * tail.den * prev2.num,
        tail.num * prev.den + spec.a(n) * tail.den * prev2.den,
    )


def far_cross(spec, n, k):
    """A(n+k)B(n-1) - A(n-1)B(n+k) from two `pair_at` calls."""
    far = pair_at(spec, 0, n + k)[1]
    prev = pair_at(spec, 0, n - 1)[1]
    return far.num * prev.den - prev.num * far.den


class TestContinuantBasics:
    def test_base_case(self):
        assert continuant(ContinuantArgs(a=(), b=(5,))) == 5

    def test_single_term(self):
        # a1 + b0*b1 with a1=1, b0=2, b1=3
        assert continuant(ContinuantArgs(a=(1,), b=(2, 3))) == 7

    def test_all_ones_three_terms(self):
        assert continuant(ContinuantArgs(a=(1, 1), b=(1, 1, 1))) == 3

    def test_arity_validation(self):
        with pytest.raises(InvalidSpec):
            ContinuantArgs(a=(1,), b=(1,))


class TestOracle:
    def test_one_by_one(self):
        assert continuant_oracle(ContinuantArgs(a=(), b=(5,))) == 5

    def test_two_by_two(self):
        # a2 + b1*b2 with a2=-1, b1=2, b2=2
        assert continuant_oracle(ContinuantArgs(a=(-1,), b=(2, 2))) == 3

    def test_size_cap(self):
        args = ContinuantArgs(a=(1,) * 13, b=(1,) * 14)
        with pytest.raises(SizeLimit):
            continuant_oracle(args)

    def test_matches_recurrence(self, rng):
        for _ in range(60):
            args = random_args(rng, rng.randint(0, 6))
            assert continuant_oracle(args) == continuant(args)


class TestFirstColumnExpansion:
    def test_all_ones(self):
        args = ContinuantArgs(a=(1, 1), b=(1, 1, 1))
        assert first_column_expansion(args) == 3

    def test_twos(self):
        # 2*K(1; 2,2) + 1*K(*; 2) = 2*5 + 2 = 12
        args = ContinuantArgs(a=(1, 1), b=(2, 2, 2))
        assert first_column_expansion(args) == 12
        assert continuant(args) == 12

    def test_unit_leading_coefficient_algebra(self, rng):
        # with b0 = 1: K = K(a2; b1, b2) + a1*b2
        for _ in range(10):
            a = (nonzero_int(rng), nonzero_int(rng))
            b = (1, nonzero_int(rng), nonzero_int(rng))
            args = ContinuantArgs(a=a, b=b)
            expected = continuant(ContinuantArgs(a=a[1:], b=b[1:])) + a[0] * b[2]
            assert first_column_expansion(args) == expected

    def test_size_floor(self):
        with pytest.raises(SizeLimit):
            first_column_expansion(ContinuantArgs(a=(1,), b=(1, 1)))

    def test_agrees_with_recurrence(self, rng):
        for _ in range(40):
            args = random_args(rng, rng.randint(2, 8))
            assert first_column_expansion(args) == continuant(args)


class TestSymmetry:
    def test_second_diagonal_symmetry(self, rng):
        for _ in range(60):
            args = random_args(rng, rng.randint(0, 6))
            flipped = reversed_args(args)
            assert continuant_oracle(args) == continuant_oracle(flipped)
            assert continuant(args) == continuant(flipped)


class TestConvergentsAreContinuants:
    def test_tables_match(self, rng):
        for _ in range(10):
            spec = random_finite(rng, 30)
            table = convergent_table(spec, 30)
            for n in range(0, 31):
                num, den = convergent_continuants(spec, n)
                assert (num, den) == (table[n + 1].num, table[n + 1].den)

    def test_past_a_finite_end_names_the_requested_index(self):
        # the same error `pair_at` and `reverse_relations` raise: index n, not N + 1
        spec = FiniteCF(a_list=(1, 1, 1), b_list=(1, 2, 3, 4))
        with pytest.raises(CoefficientUnavailable, match="^coefficient at index 6 is") as info:
            convergent_continuants(spec, 6)
        assert info.value.index == 6


class TestReverseRelations:
    def test_golden_n4(self):
        rev = reverse_relations(golden_cf(), 4)
        assert rev.num_n == 8       # A'(4) = A(4)
        assert rev.den_n == 5       # B'(4) = A(3)
        assert rev.num_prev == 5    # A'(3) = B(4)
        assert rev.den_prev == 3    # B'(3) = B(3)

    def test_n1_expansion(self, rng):
        for _ in range(10):
            spec = random_finite(rng, 2)
            rev = reverse_relations(spec, 1)
            assert rev.num_n == spec.b(1) * spec.b(0) + spec.a(1)
            assert rev.den_n == spec.b(0)

    def test_oracle_on_both_orderings(self):
        spec_args = ContinuantArgs(a=(1, 1), b=(1, 2, 3))
        flipped = ContinuantArgs(a=(1, 1), b=(3, 2, 1))
        assert continuant_oracle(spec_args) == continuant_oracle(flipped) == 10

    def test_full_quadruple_randomized(self, rng):
        for _ in range(40):
            n = rng.randint(1, 15)
            spec = random_finite(rng, n)
            table = convergent_table(spec, n)
            rev = reverse_relations(spec, n)
            assert rev.num_n == table[n + 1].num
            assert rev.den_n == table[n].num
            assert rev.num_prev == table[n + 1].den
            assert rev.den_prev == table[n].den


class TestTailCombination:
    def test_k_zero_reduces_to_recurrence(self, rng):
        for _ in range(10):
            spec = random_finite(rng, 8)
            table = convergent_table(spec, 8)
            for n in range(1, 8):
                assert tail_formula(spec, n, 0) == (table[n + 1].num, table[n + 1].den)

    def test_golden_n2_k3(self):
        assert tail_formula(golden_cf(), 2, 3) == (13, 8)

    def test_n1_any_k(self, rng):
        for _ in range(10):
            spec = random_finite(rng, 9)
            table = convergent_table(spec, 9)
            for k in range(0, 8):
                assert tail_formula(spec, 1, k) == (table[k + 2].num, table[k + 2].den)

    def test_matches_direct_recursion(self, rng):
        for _ in range(25):
            spec = random_finite(rng, 30)
            table = convergent_table(spec, 30)
            n = rng.randint(1, 15)
            k = rng.randint(0, 15)
            assert tail_formula(spec, n, k) == (table[n + k + 1].num, table[n + k + 1].den)


class TestGeneralizedCrossDeterminant:
    def test_k_zero_is_plain_cross_determinant(self, rng):
        for _ in range(10):
            spec = random_finite(rng, 10)
            for n in range(1, 10):
                prev, cur = pair_at(spec, 0, n)
                assert far_cross(spec, n, 0) == cur.num * prev.den - prev.num * cur.den

    def test_k_one_skip_formula(self, rng):
        # equals (-1)^(n-1) * prod(a) * b(n+1)
        for _ in range(15):
            spec = random_finite(rng, 12)
            product = 1
            for n in range(1, 11):
                product *= spec.a(n)
                assert far_cross(spec, n, 1) == (
                    (-1) ** (n - 1) * product * spec.b(n + 1)
                )

    def test_golden_n3_k2(self):
        spec = golden_cf()
        assert far_cross(spec, 3, 2) == 2
        assert shifted_table(spec, 3, 2)[3].den == 2  # B(3,2) = 2

    def test_tail_factor_formula(self, rng):
        for _ in range(25):
            spec = random_finite(rng, 30)
            n = rng.randint(1, 15)
            k = rng.randint(0, 15)
            product = 1
            for i in range(1, n + 1):
                product *= spec.a(i)
            tail_den = shifted_table(spec, n, k)[k + 1].den
            assert far_cross(spec, n, k) == (
                (-1) ** (n - 1) * product * tail_den
            )

    def test_difference_form(self, rng):
        # (A(n+k)/B(n+k)) - (A(n-1)/B(n-1)) = (-1)^(n-1) prod a * B(n,k)/(B(n-1)B(n+k))
        count = 0
        for _ in range(40):
            spec = random_finite(rng, 24)
            table = convergent_table(spec, 24)
            n = rng.randint(1, 12)
            k = rng.randint(0, 12)
            b_prev = table[n].den
            b_far = table[n + k + 1].den
            if b_prev == 0 or b_far == 0:
                continue
            count += 1
            product = 1
            for i in range(1, n + 1):
                product *= spec.a(i)
            tail_den = shifted_table(spec, n, k)[k + 1].den
            lhs = Fraction(table[n + k + 1].num, b_far) - Fraction(table[n].num, b_prev)
            assert lhs == Fraction((-1) ** (n - 1) * product * tail_den, b_prev * b_far)
        assert count > 20


def test_footnote_matrix_values_via_continuants():
    # A(n) = n + 2 and B(n) = n + 1 re-derived through determinant slices
    spec = footnote_cf()
    for n in range(0, 7):
        num, den = convergent_continuants(spec, n)
        assert num == n + 2
        assert den == n + 1


@pytest.mark.parametrize("call, message", [
    (lambda: reverse_relations(golden_cf(), 0), "n must be >= 1, got 0"),
    (lambda: validate_semiregular(golden_cf(), 0), "n_max must be >= 1, got 0"),
    (lambda: denominator_bounds_certificate(golden_cf(), 1), "n_max must be >= 2, got 1"),
    (lambda: power_iterate(build_period_matrix(golden_cf()), 1, 0, -1),
     "n_steps must be >= 0, got -1"),
    (lambda: evaluate_tietze(golden_cf(), Fraction(1, 10), max_terms=-1),
     "max_terms must be >= 0, got -1"),
], ids=["reverse_relations", "validate_semiregular", "denominator_bounds_certificate",
        "power_iterate", "evaluate_tietze"])
def test_index_range_checks_keep_their_messages(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
