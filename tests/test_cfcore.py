import copy
import pickle
import random
from fractions import Fraction
from itertools import islice

import pytest

from cfkit import (
    CFSpec,
    ComplexFloat,
    FiniteCF,
    GENERATORS,
    PeriodicCF,
    RuleCF,
    convergent_table,
    evaluate_convergent,
    make_generator,
    pair_at,
    quadext,
    shifted_table,
)
from cfkit import cfcore
from cfkit.errors import (
    CoefficientUnavailable,
    InvalidSpec,
    ZeroDenominator,
)
from cfkit.cfcore import convergent_pair
from conftest import footnote_cf, golden_cf, random_finite, tail_spec


def fibonacci_pair(m):
    """(F(m), F(m+1)) by fast doubling."""
    if m == 0:
        return 0, 1
    f, g = fibonacci_pair(m // 2)
    f2, g2 = f * (2 * g - f), f * f + g * g  # F(2j), F(2j+1)
    return (g2, f2 + g2) if m % 2 else (f2, g2)


class TestConvergentTable:
    def test_fibonacci_numerators_denominators(self):
        table = convergent_table(golden_cf(), 5)
        assert [p.num for p in table] == [1, 1, 2, 3, 5, 8, 13]
        assert [p.den for p in table] == [0, 1, 1, 2, 3, 5, 8]

    def test_seed_rows_for_any_spec(self, rng):
        for _ in range(20):
            spec = random_finite(rng, 4)
            table = convergent_table(spec, 2)
            assert (table[0].num, table[0].den) == (1, 0)
            assert (table[1].num, table[1].den) == (spec.b(0), 1)

    def test_footnote_closed_forms(self):
        table = convergent_table(footnote_cf(), 3)
        assert [p.num for p in table][1:] == [2, 3, 4, 5]  # A(n) = n + 2
        assert [p.den for p in table][1:] == [1, 2, 3, 4]  # B(n) = n + 1

    def test_length_contract(self, rng):
        spec = random_finite(rng, 10)
        assert len(convergent_table(spec, 7)) == 9

    def test_recurrence_holds_on_rows(self, rng):
        spec = random_finite(rng, 12)
        table = convergent_table(spec, 12)
        for n in range(1, 13):
            assert table[n + 1].num == spec.b(n) * table[n].num + spec.a(n) * table[n - 1].num
            assert table[n + 1].den == spec.b(n) * table[n].den + spec.a(n) * table[n - 1].den

    def test_finite_spec_too_short(self):
        spec = FiniteCF(a_list=(1, 1), b_list=(1, 1, 1))
        with pytest.raises(CoefficientUnavailable):
            convergent_table(spec, 5)


class TestEvaluateConvergent:
    def test_golden_n4(self):
        assert evaluate_convergent(golden_cf(), 4) == Fraction(8, 5)

    def test_n0_is_leading_coefficient(self, rng):
        spec = random_finite(rng, 3)
        assert evaluate_convergent(spec, 0) == spec.b(0)

    def test_zero_denominator_reported(self):
        spec = PeriodicCF(a_block=(-1,), b_block=(1,))
        with pytest.raises(ZeroDenominator) as err:
            evaluate_convergent(spec, 2)
        assert err.value.index == 2

    def test_golden_deep_index(self):
        # A(n) = F(n+2) and B(n) = F(n+1); the pair comes from period-matrix powers
        n = 10**6
        f_next, f_next2 = fibonacci_pair(n + 1)
        pair = convergent_pair(golden_cf(), n)
        assert (pair.num, pair.den) == (f_next2, f_next)

    def test_rational_result_canonical(self):
        value = evaluate_convergent(footnote_cf(), 3)
        assert value == Fraction(5, 4)
        assert value.denominator > 0


def cross(spec, n):
    """A(n)B(n-1) - A(n-1)B(n) from the two pairs that one `pair_at` call returns."""
    prev, cur = pair_at(spec, n)
    return cur.num * prev.den - prev.num * cur.den


def difference(spec, n):
    """A(n)/B(n) - A(n-1)/B(n-1); each `value` raises ZeroDenominator at its own index."""
    prev, cur = pair_at(spec, n)
    before = prev.value()
    return cur.value() - before


class TestCrossDeterminant:
    # A(n)B(n-1) - A(n-1)B(n) = (-1)^(n-1) a(1)...a(n)
    def test_n1_is_first_numerator(self, rng):
        for _ in range(10):
            spec = random_finite(rng, 2)
            assert cross(spec, 1) == spec.a(1)

    def test_golden_n3(self):
        # A3*B2 - A2*B3 = 5*2 - 3*3 = 1 = (-1)^2 * 1
        assert cross(golden_cf(), 3) == 1

    def test_footnote_n4(self):
        # 6*4 - 5*5 = -1 = (-1)^3 * (-1)^4
        assert cross(footnote_cf(), 4) == -1

    def test_product_formula_randomized(self, rng):
        for _ in range(30):
            spec = random_finite(rng, 50)
            product = 1
            for n in range(1, 51):
                product *= spec.a(n)
                assert cross(spec, n) == (-1) ** (n - 1) * product


class TestSuccessiveDifference:
    def test_golden_n2(self):
        assert difference(golden_cf(), 2) == Fraction(-1, 2)

    def test_n1_direct_expansion(self, rng):
        for _ in range(10):
            spec = random_finite(rng, 2)
            if spec.b(1) == 0:
                continue
            assert difference(spec, 1) == Fraction(spec.a(1), spec.b(1))

    def test_footnote_n3(self):
        assert difference(footnote_cf(), 3) == Fraction(-1, 12)

    def test_identifies_vanishing_denominator(self):
        spec = PeriodicCF(a_block=(-1,), b_block=(1,))
        with pytest.raises(ZeroDenominator) as err:
            difference(spec, 2)  # B(2) = 0
        assert err.value.index == 2
        with pytest.raises(ZeroDenominator) as err:
            difference(spec, 3)  # B(2) = 0 again, as the earlier index
        assert err.value.index == 2

    def test_agrees_with_evaluations(self, rng):
        for _ in range(20):
            spec = random_finite(rng, 12)
            for n in range(1, 13):
                try:
                    lhs = evaluate_convergent(spec, n) - evaluate_convergent(spec, n - 1)
                except ZeroDenominator:
                    continue
                assert difference(spec, n) == lhs


class TestShiftedTables:
    def test_shift_zero_matches_plain_table(self, rng):
        spec = random_finite(rng, 10)
        plain = convergent_table(spec, 10)
        shifted = shifted_table(spec, 0, 10)
        assert [(p.num, p.den) for p in plain] == [(p.num, p.den) for p in shifted]

    def test_seed_rows(self, rng):
        spec = random_finite(rng, 8)
        for k in range(5):
            rows = shifted_table(spec, k, 0)
            assert (rows[0].num, rows[0].den) == (1, 0)
            assert (rows[1].num, rows[1].den) == (spec.b(k), 1)

    def test_tail_denominator_is_next_tail_numerator(self, rng):
        # B(k, n) = A(k+1, n-1) over the whole sampled grid
        for _ in range(10):
            spec = random_finite(rng, 32)
            tables = {k: shifted_table(spec, k, 20) for k in range(12)}
            for k in range(11):
                for n in range(0, 21):
                    assert tables[k][n + 1].den == tables[k + 1][n].num

    def test_constant_coefficients_are_shift_invariant(self):
        spec = golden_cf()
        plain = convergent_table(spec, 6)
        for k in (1, 2, 3):
            rows = shifted_table(spec, k, 6)
            assert [(p.num, p.den) for p in rows] == [(p.num, p.den) for p in plain]
        assert shifted_table(spec, 3, 2)[3].num == plain[3].num == 3

    def test_head_splitting_recurrences(self, rng):
        # A(k,n+2) = b(k) A(k+1,n+1) + a(k+1) A(k+2,n) and the B analogue
        for _ in range(10):
            spec = random_finite(rng, 32)
            tables = {k: shifted_table(spec, k, 20) for k in range(12)}
            for k in range(10):
                for n in range(-1, 18):
                    lhs = tables[k][n + 3].num
                    rhs = spec.b(k) * tables[k + 1][n + 2].num + spec.a(k + 1) * tables[k + 2][n + 1].num
                    assert lhs == rhs
                    lhs_den = tables[k][n + 3].den
                    rhs_den = spec.b(k + 1) * tables[k + 1][n + 2].den + spec.a(k + 2) * tables[k + 2][n + 1].den
                    assert lhs_den == rhs_den


class TestSpecs:
    def test_finite_arity_enforced(self):
        with pytest.raises(InvalidSpec):
            FiniteCF(a_list=(1, 1), b_list=(1, 1))

    def test_finite_coefficients_end_at_the_last_index(self):
        spec = FiniteCF(a_list=(1, 2), b_list=(1, 2, 3))
        for kind, read in (("partial numerator a", spec.a), ("partial denominator b", spec.b)):
            with pytest.raises(CoefficientUnavailable, match=f"^{kind} at index 3 ") as err:
                read(3)
            assert err.value.index == 3

    def test_periodic_blocks_of_equal_length(self):
        with pytest.raises(InvalidSpec, match=r"^period blocks must have equal length"):
            PeriodicCF(a_block=(1, 2), b_block=(1,))

    def test_periodic_rejects_zero_coefficients(self):
        with pytest.raises(InvalidSpec, match=r"^a\[1\] = 0 "):
            PeriodicCF(a_block=(0,), b_block=(1,))
        with pytest.raises(InvalidSpec, match=r"^b\[1\] = 0 "):
            PeriodicCF(a_block=(1, 1), b_block=(1, 0))

    @pytest.mark.parametrize("zero", [0, Fraction(0), ComplexFloat(0, 0)], ids=["int", "fraction", "complex"])
    def test_periodic_refuses_every_form_of_zero(self, zero):
        # a's indices start at 1 and b's at 0; the first zero of a block is named
        cases = [
            ((zero, 1, 1), (1, 1, 1), "a[1] = 0"),
            ((1, 1, zero), (1, 1, 1), "a[3] = 0"),
            ((1, 1, 1), (zero, 1, 1), "b[0] = 0"),
            ((1, 1, 1), (1, 1, zero), "b[2] = 0"),
            ((1, zero, zero), (1, zero, 1), "a[2] = 0"),
        ]
        for a, b, named in cases:
            with pytest.raises(InvalidSpec) as refused:
                PeriodicCF(a_block=a, b_block=b)
            assert str(refused.value) == f"{named} is not allowed in a periodic CF"

    def test_periodic_accepts_nonzero_complex_and_surd_coefficients(self):
        spec = PeriodicCF(
            a_block=(ComplexFloat(0, 1), quadext(0, 1, 2)),
            b_block=(quadext(1, -1, 3), ComplexFloat(0, -1)),
        )
        assert spec.period == 2 and spec.a(2) == quadext(0, 1, 2)

    def test_periodic_wraparound(self):
        spec = PeriodicCF(a_block=(7, 8), b_block=(5, 6))
        assert [spec.a(n) for n in (1, 2, 3, 4)] == [7, 8, 7, 8]
        assert [spec.b(n) for n in (0, 1, 2, 3)] == [5, 6, 5, 6]

    def test_index_bounds(self):
        spec = golden_cf()
        with pytest.raises(ValueError):
            spec.a(0)
        with pytest.raises(ValueError):
            spec.b(-1)


class _Indexed(CFSpec):
    """Coefficients by index only: `terms` is the CFSpec default."""

    max_index = 7

    def a(self, n):
        return -n

    def b(self, n):
        return Fraction(n, 3)


@pytest.mark.parametrize(
    "spec",
    [
        FiniteCF(a_list=(2, -1, 3, 1, 4), b_list=(5, 9, 2, 6, 5, 3)),
        PeriodicCF(a_block=(7, 8, -9), b_block=(5, 6, 4)),
        make_generator("sqrt2"),
        RuleCF(a_rule=lambda n: n * n, b_rule=lambda n: 1 - n),
        _Indexed(),
    ],
    ids=["finite", "periodic", "rule", "rule_squares", "default"],
)
def test_terms_stream_matches_indexed_coefficients(spec):
    # 6 and 8 are one past the last index of the finite and default specs, and
    # 10**6 + 2 is far past them; 29 and 10**6 + 2 are periods into the periodic spec
    for first in (1, 2, 3, 4, 5, 6, 7, 8, 11, 29, 10**6 + 2):
        end = spec.max_index if spec.max_index is not None else first + 39
        expected = [(spec.a(n), spec.b(n)) for n in range(first, end + 1)][:20]
        assert list(islice(spec.terms(), first - 1, first + 19)) == expected


class TestGenerators:
    def test_golden(self):
        spec = make_generator("golden")
        assert isinstance(spec, PeriodicCF)
        assert evaluate_convergent(spec, 4) == Fraction(8, 5)

    def test_sqrt2_prefix(self):
        spec = make_generator("sqrt2")
        assert isinstance(spec, RuleCF)
        assert [spec.b(n) for n in range(4)] == [1, 2, 2, 2]
        assert spec.a(17) == 1

    def test_regular_and_negative(self):
        reg = make_generator("regular", {"b": [1, 2, 3]})
        assert (reg.a(1), reg.a(2)) == (1, 1)
        neg = make_generator("negative", {"b": [2, 2, 2]})
        assert (neg.a(1), neg.a(2)) == (-1, -1)
        assert neg.b(2) == 2

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generator_copies_pickles_and_builds_equal(self, name):
        # a rule is a module-level function, so it pickles by reference
        params = {"b": (1, 2, 3)} if name in ("regular", "negative") else {}
        spec = make_generator(name, params)
        twin = make_generator(name, params)
        assert twin == spec and hash(twin) == hash(spec)
        for copied in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert type(copied) is type(spec) and copied == spec and hash(copied) == hash(spec)
            assert list(islice(copied.terms(), 5)) == list(islice(spec.terms(), 5))

    def test_unknown_name(self):
        with pytest.raises(InvalidSpec):
            make_generator("banana")

    def test_missing_params(self):
        with pytest.raises(InvalidSpec):
            make_generator("regular", {})

    @pytest.mark.parametrize("name, params, unknown", [
        ("golden", {"b": [5]}, "b"),
        ("sqrt2", {"b": [1]}, "b"),
        ("regular", {"b": [1, 2], "c": [3]}, "c"),
        ("negative", {"a": [1], "b": [2, 2]}, "a"),
    ])
    def test_unknown_params(self, name, params, unknown):
        with pytest.raises(InvalidSpec, match=f"{name!r} does not take parameter {unknown!r}"):
            make_generator(name, params)


def _unit_specs(seed):
    """A PeriodicCF, a FiniteCF and a RuleCF with every a(n) = ±1 and integer
    b(n) of both signs, drawn from seed."""
    rng = random.Random(seed)
    units = [rng.choice((1, -1)) for _ in range(31)]
    ints = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(31)]
    p = rng.randint(1, 4)
    return [
        PeriodicCF(a_block=tuple(units[:p]), b_block=tuple(ints[:p])),
        FiniteCF(a_list=tuple(units[1:]), b_list=tuple(ints)),
        RuleCF(a_rule=units.__getitem__, b_rule=ints.__getitem__),
    ]


class TestConvergentValue:
    """`pair_at` marks a pair coprime when every run of steps it multiplies is
    an integer matrix of determinant ±1; `ConvergentPair.value` then skips the
    gcd, and must give the very Fraction(A(n), B(n))."""

    @pytest.fixture
    def gcd_free(self, monkeypatch):
        # bit lengths, not the ints: a failing assert can print them at any size
        built = []
        coprime_fraction = cfcore.coprime_fraction
        monkeypatch.setattr(
            cfcore, "coprime_fraction",
            lambda num, den: built.append(den.bit_length()) or coprime_fraction(num, den),
        )
        return built

    def test_unit_numerators_match_fraction(self, gcd_free):
        signs = set()
        for seed in range(40):
            for spec in _unit_specs(seed):
                for n in range(31):
                    pair = convergent_pair(spec, n)
                    assert pair.coprime
                    signs.add((pair.den > 0) - (pair.den < 0))
                    if pair.den == 0:
                        with pytest.raises(ZeroDenominator) as err:
                            pair.value()
                        assert err.value.index == n
                        assert str(err.value) == f"denominator B_{n} is zero; convergent undefined"
                        continue
                    built = len(gcd_free)
                    value, expected = pair.value(), Fraction(pair.num, pair.den)
                    assert len(gcd_free) == built + 1
                    assert type(value) is Fraction and value == expected
                    assert hash(value) == hash(expected) and str(value) == str(expected)
                    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
        assert signs == {-1, 0, 1}

    @pytest.mark.parametrize("spec", [
        pytest.param(PeriodicCF(a_block=(1, 2), b_block=(3, -1)), id="non-unit-a"),
        pytest.param(PeriodicCF(a_block=(1, Fraction(-1)), b_block=(3, -1)), id="fraction-a"),
        pytest.param(FiniteCF(a_list=(1,) * 9, b_list=(2,) * 5 + (Fraction(3),) * 5), id="fraction-b"),
        pytest.param(RuleCF(a_rule=lambda n: 1 if n < 7 else 3, b_rule=lambda n: 2), id="late-non-unit"),
    ])
    def test_other_coefficients_take_the_gcd_path(self, gcd_free, spec):
        pair = convergent_pair(spec, 9)
        value = pair.value()
        assert gcd_free == [] and not pair.coprime
        assert value == Fraction(pair.num, pair.den)

    @pytest.mark.parametrize("kind", ["rule", "finite", "periodic"])
    def test_each_term_is_read_once(self, gcd_free, kind):
        # the pair and its coprimality come from one pass over the terms
        reads, rng = [], random.Random(7)
        units = [rng.choice((1, -1)) for _ in range(10**4 + 1)]
        if kind == "rule":
            spec, n = RuleCF(a_rule=lambda j: reads.append(j) or units[j], b_rule=lambda j: 3), 10**4
        else:
            cls = FiniteCF if kind == "finite" else PeriodicCF

            class Counted(cls):
                def terms(self):
                    return (reads.append(term) or term for term in super().terms())

            if kind == "finite":
                spec, n = Counted(a_list=units[1:], b_list=(3,) * (10**4 + 1)), 10**4
            else:  # p + r = 3 + 1 terms
                spec, n = Counted(a_block=(1, -1, 1), b_block=(2, 5, -3)), 1000
        value = evaluate_convergent(spec, n)
        assert len(reads) == (4 if kind == "periodic" else 10**4)
        assert len(gcd_free) == 1
        table = convergent_table(spec, n)
        assert value == Fraction(table[-1].num, table[-1].den)

    def test_one_matrix_product_per_run(self, monkeypatch):
        products = []
        mat_mul = cfcore._mat_mul
        monkeypatch.setattr(cfcore, "_mat_mul", lambda x, y: products.append(1) or mat_mul(x, y))
        n = 10**4
        prev, cur = pair_at(make_generator("sqrt2"), n)
        assert len(products) <= -(-n // 64) + 1
        last = convergent_table(make_generator("sqrt2"), n)[-2:]
        assert [prev, cur] == last and prev.coprime and cur.coprime

    @pytest.mark.parametrize("period", [None, 63, 64, 65, 130])
    def test_run_boundaries_match_the_recurrence(self, period):
        rng = random.Random(period)
        a = [rng.choice((1, -1)) for _ in range(400)]
        b = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(400)]
        if period is None:
            spec = FiniteCF(a_list=a[1:], b_list=b)
        else:
            spec = PeriodicCF(a_block=tuple(a[:period]), b_block=tuple(b[:period]))
        for k in (0, 5):
            for n in (63, 64, 65, 128, 129, 259, 260):
                pairs = pair_at(tail_spec(spec, k), n)
                assert list(pairs) == shifted_table(spec, k, n)[-2:], (k, n)
                assert all(pair.coprime for pair in pairs)

    def test_non_unit_numerator_in_the_second_run(self, gcd_free):
        spec = RuleCF(a_rule=lambda n: 3 if n == 100 else 1, b_rule=lambda n: 2)
        assert convergent_pair(spec, 99).coprime
        for n in (100, 129):
            pair = convergent_pair(spec, n)
            assert not pair.coprime and pair.value() == Fraction(pair.num, pair.den)
        assert gcd_free == []

    @pytest.mark.parametrize("k, n", [(0, 1), (0, 200), (3, 70)])
    def test_a_marked_pair_is_the_plain_record(self, k, n):
        # the mark is no field: == and hash read (n, num, den) alone
        for pair in pair_at(tail_spec(make_generator("sqrt2"), k), n):
            plain = cfcore.ConvergentPair(pair.n, pair.num, pair.den)
            assert pair.coprime and not plain.coprime
            assert pair == plain and hash(pair) == hash(plain) and repr(pair) == repr(plain)

    def test_an_unmarked_pair_takes_the_gcd(self, gcd_free):
        value = cfcore.ConvergentPair(1, 4, 2).value()
        assert gcd_free == [] and value == 2 and value.denominator == 1

    def test_fraction_denominator_in_the_last_run(self, gcd_free):
        spec = FiniteCF(a_list=(1,) * 129, b_list=(2,) * 129 + (Fraction(5, 2),))
        assert convergent_pair(spec, 128).coprime
        pair = convergent_pair(spec, 129)
        assert not pair.coprime and pair.value() == Fraction(pair.num, pair.den)
        assert gcd_free == []

    def test_golden_takes_no_big_gcd(self, gcd_bits):
        value = evaluate_convergent(golden_cf(), 10**4)
        assert max(gcd_bits, default=0) <= 1000
        f_next, f_next2 = fibonacci_pair(10**4 + 1)
        assert (value.numerator, value.denominator) == (f_next2, f_next)


@pytest.mark.parametrize("scale", [1, Fraction(-2, 3), quadext(1, 1, 5)], ids=["int", "fraction", "quadext"])
def test_power_is_the_repeated_product(scale):
    # the Lucas ladder against e - 1 `_mat_mul` steps, at det = 0, det < 0
    # and on seeded matrices, scaled into each tower and then given entries
    # of unlike denominators
    rng = random.Random(5)
    ints = [(1, 2, 2, 4), (1, 2, 3, 4), (0, 1, 1, 0)]
    ints += [tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(5)]
    matrices = [tuple(scale * x for x in m) for m in ints]
    matrices += [tuple(scale * x + Fraction(y, 6) for x, y in zip(m, m[::-1])) for m in ints[3:]]
    for m in matrices:
        product = m
        for e in range(1, 41):
            assert cfcore._power(m, e) == product, (m, e)
            product = cfcore._mat_mul(product, m)
