from fractions import Fraction

import pytest

from cfkit import ComplexFloat, QuadExt, as_complexfloat, quadext
from cfkit.errors import TowerMismatch
from cfkit.scalars import abs_lt, compare_abs, is_zero, sign_of


def F(n, d=1):
    return Fraction(n, d)


class TestQuadExtConstruction:
    def test_factory_collapses_zero_radical_part(self):
        assert quadext(F(3), 0, 5) == F(3)

    def test_factory_collapses_square_radicand(self):
        assert quadext(0, 1, 9) == F(3)
        assert quadext(F(1, 2), F(1, 3), F(9, 4)) == F(1, 2) + F(1, 3) * F(3, 2)

    def test_direct_constructor_rejects_square_radicand(self):
        with pytest.raises(ValueError):
            QuadExt(F(1), F(1), F(4))

    def test_direct_constructor_rejects_zero_b(self):
        with pytest.raises(ValueError):
            QuadExt(F(1), F(0), F(5))

    def test_negative_radicand_is_not_square(self):
        value = quadext(1, 1, -4)
        assert isinstance(value, QuadExt)


class TestQuadExtArithmetic:
    def test_golden_ratio_identities(self):
        phi = quadext(F(1, 2), F(1, 2), 5)
        assert phi * phi == phi + 1
        assert 1 / phi == phi - 1
        assert phi * phi.conjugate() == F(-1)

    def test_sqrt_times_itself_collapses(self):
        root5 = quadext(0, 1, 5)
        assert root5 * root5 == F(5)

    def test_mixed_rational_arithmetic(self):
        x = quadext(1, 2, 3)
        assert x + F(1, 2) == quadext(F(3, 2), 2, 3)
        assert 2 * x == quadext(2, 4, 3)
        assert x - x == F(0)

    def test_division(self):
        x = quadext(1, 1, 2)  # 1 + sqrt2
        assert x / x == F(1)
        assert (x * x) / x == x
        assert 1 / x == quadext(-1, 1, 2)  # 1/(1+sqrt2) = sqrt2 - 1

    def test_division_by_zero_rational(self):
        x = quadext(1, 1, 2)
        with pytest.raises(ZeroDivisionError):
            x / 0

    def test_mixed_radicands_rejected(self):
        with pytest.raises(TowerMismatch):
            quadext(0, 1, 2) + quadext(0, 1, 3)

    def test_compatible_radicands_mix(self):
        assert quadext(0, 1, 12) + quadext(0, 1, 3) == quadext(0, 3, 3)
        assert quadext(0, 1, -12) * quadext(0, 1, -3) == F(-6)
        assert quadext(0, 1, F(1, 2)) * quadext(0, 1, 2) == F(1)

    def test_power(self):
        phi = quadext(F(1, 2), F(1, 2), 5)
        assert phi**2 == phi + 1
        assert phi**0 == F(1)

    def test_equality_with_rationals_is_false(self):
        assert quadext(1, 1, 2) != F(1)
        assert not (quadext(1, 1, 2) == 1)


class TestRadicandIdentity:
    """Equal values are equal whatever form their radicand was written in."""

    def test_square_factor_beyond_trial_division(self):
        p, q = 100003, 100019  # primes above the trial-division bound
        x = quadext(0, 1, p * p * 3 * q)
        y = quadext(0, p, 3 * q)
        assert x == y
        assert hash(x) == hash(y)
        assert x - y == 0
        assert len({x, y}) == 1

    def test_small_square_factor(self):
        x, y = quadext(0, 1, 12), quadext(0, 2, 3)
        assert x == y and hash(x) == hash(y)

    def test_radicand_is_an_integer_fixed_at_construction(self):
        assert quadext(0, 1, 12).d == 12
        value = quadext(1, 1, F(9, 2))  # sqrt(9/2) = sqrt(18)/2
        assert (value.a, value.b, value.d) == (1, F(1, 2), 18)
        assert type(value.d) is int
        assert (value * value).d == 18

    def test_different_fields_differ(self):
        assert quadext(0, 1, 2) != quadext(0, 1, 3)
        assert quadext(0, 1, 3) != quadext(0, -1, 3)
        assert quadext(0, 1, 3) != quadext(0, 1, -3)


class TestQuadExtComparisons:
    def test_sign_all_quadrants(self):
        assert sign_of(quadext(1, 1, 2)) == 1
        assert sign_of(quadext(-1, -1, 2)) == -1
        assert sign_of(quadext(2, -1, 2)) == 1   # 2 - sqrt2 > 0
        assert sign_of(quadext(1, -1, 2)) == -1  # 1 - sqrt2 < 0
        assert sign_of(quadext(-1, 1, 2)) == 1   # sqrt2 - 1 > 0
        assert sign_of(quadext(-2, 1, 2)) == -1  # sqrt2 - 2 < 0

    def test_ordering(self):
        root2 = quadext(0, 1, 2)
        assert F(1) < root2 < F(3, 2)
        assert root2 > 1 and root2 < 2

    def test_complex_not_ordered(self):
        with pytest.raises(TowerMismatch):
            sign_of(quadext(1, 1, -3))

    def test_abs_lt(self):
        assert abs_lt(quadext(0, 1, 2) - F(3, 2), F(1, 10))
        assert not abs_lt(quadext(0, 1, 2) - F(3, 2), F(1, 20))
        assert abs_lt(F(-1, 100), F(1, 10))

    def test_abs_lt_complex(self):
        z = quadext(F(1, 10), F(1, 10), -1)  # modulus sqrt(2)/10
        assert abs_lt(z, F(15, 100))
        assert not abs_lt(z, F(14, 100))

    def test_compare_abs(self):
        assert compare_abs(quadext(0, 1, 2), F(1)) == 1
        assert compare_abs(F(-3), quadext(0, 2, 2)) == 1  # 3 > 2*sqrt2
        assert compare_abs(quadext(1, 1, -3), quadext(1, -1, -3)) == 0

    def test_random_sign_against_float(self, rng):
        for _ in range(300):
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            d = rng.choice([2, 3, 5, 7, 10])
            if b == 0:
                continue
            value = quadext(a, b, d)
            if isinstance(value, Fraction):
                continue
            approx = float(a) + float(b) * d**0.5
            if abs(approx) > 1e-9:
                assert sign_of(value) == (1 if approx > 0 else -1)


class TestComplexFloat:
    def test_minimum_precision_enforced(self):
        with pytest.raises(ValueError):
            ComplexFloat(1, 0, 32)

    def test_default_precision(self):
        assert ComplexFloat(1, 0).prec == 128

    def test_arithmetic_matches_exact(self):
        x = as_complexfloat(F(1, 3), 128)
        y = as_complexfloat(F(1, 7), 128)
        z = x * y + x - y
        expected = F(1, 3) * F(1, 7) + F(1, 3) - F(1, 7)
        err = z - as_complexfloat(expected, 128)
        assert err.modulus() < 2.0**-120

    def test_quadext_promotion(self):
        phi = quadext(F(1, 2), F(1, 2), 5)
        z = as_complexfloat(phi, 128)
        square_minus_shift = z * z - z - 1
        assert square_minus_shift.modulus() < 2.0**-100

    def test_negative_radicand_promotes_to_imaginary(self):
        z = as_complexfloat(quadext(2, 1, -4), 128)
        assert z.re == 2
        assert (z.im - 2).__abs__() < 1e-30

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ComplexFloat(1, 0) / ComplexFloat(0, 0)

    def test_mixed_promotion_in_expressions(self):
        z = ComplexFloat(1, 1)
        w = z + F(1, 2)
        assert isinstance(w, ComplexFloat)
        assert w.im == 1

    def test_real_value_hashes_like_the_rational_it_equals(self):
        assert ComplexFloat(1, 0) == 1
        assert len({ComplexFloat(1, 0), 1}) == 1
        assert len({as_complexfloat(F(1, 2)), F(1, 2)}) == 1
        assert len({ComplexFloat(1, 1), 1}) == 2

    def test_precision_propagates_upward(self):
        lo = ComplexFloat(1, 0, 64)
        hi = ComplexFloat(1, 0, 256)
        assert (lo + hi).prec == 256


class TestHelpers:
    def test_is_zero(self):
        assert is_zero(F(0)) and is_zero(0)
        assert not is_zero(quadext(0, 1, 2))
        assert is_zero(ComplexFloat(0, 0))

    def test_fraction_canonical_form_after_ops(self, rng):
        for _ in range(200):
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            y = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            for value in (x + y, x * y, x - y):
                assert value.denominator > 0
                from math import gcd
                assert gcd(abs(value.numerator), value.denominator) == 1
