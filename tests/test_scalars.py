import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from brute import abs_lt, sign_of, within
from cfkit import ComplexFloat, QuadExt, as_complexfloat, quadext
from cfkit.errors import TowerMismatch
from cfkit.scalars import (
    _ctx,
    _integer_form,
    _libmp,
    _quadext_trusted,
    _rounded_parts,
    coprime_fraction,
    scalar_div,
)


def F(n, d=1):
    return Fraction(n, d)


def _late_convergents(d, past):
    """The first two convergents p/q of sqrt(d) with q > past, by the
    integer recurrence of sqrt(d)'s continued fraction."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p, q_prev, q = 1, a0, 0, 1
    found = []
    while len(found) < 2:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p_prev, p, q_prev, q = p, a * p + p_prev, q, a * q + q_prev
        if q > past:
            found.append((p, q))
    return found


class TestQuadExtConstruction:
    def test_factory_collapses_zero_radical_part(self):
        assert quadext(F(3), 0, 5) == F(3)

    def test_factory_collapses_square_radicand(self):
        assert quadext(0, 1, 9) == F(3)
        assert quadext(F(1, 2), F(1, 3), F(9, 4)) == F(1, 2) + F(1, 3) * F(3, 2)

    def test_direct_constructor_rejects_square_radicand(self):
        with pytest.raises(ValueError):
            QuadExt(F(1), F(1), F(4))

    def test_direct_constructor_rejects_non_integer_radicand(self):
        with pytest.raises(ValueError, match="radicand 1/2 is not an integer"):
            QuadExt(1, 1, F(1, 2))

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

    def test_radicands_of_opposite_sign_are_rejected(self):
        # 2 * -2 = -4 is minus a square: sqrt(-2) is no rational multiple of sqrt(2)
        with pytest.raises(TowerMismatch, match=r"sqrt\(2\) and sqrt\(-2\)"):
            quadext(0, 1, 2) + quadext(0, 1, -2)

    def test_mixed_radicand_past_the_int_string_limit(self):
        # 4401 digits: str() of it raises ValueError on Python >= 3.11
        with pytest.raises(TowerMismatch, match="bit integer"):
            quadext(0, 1, 2 * 10**4400 + 1) + quadext(0, 1, 3)

    def test_repr_past_the_int_string_limit(self):
        huge = 10**4400 + 1
        assert repr(quadext(0, 1, 2 * huge - 1)) == (
            "QuadExt(Fraction(0, 1) + Fraction(1, 1)*sqrt(<14618-bit integer>))"
        )
        assert "Fraction(<14617-bit integer>, 1)*sqrt(3)" in repr(quadext(0, huge, 3))
        assert repr(quadext(F(1, 2), -3, 5)) == (
            "QuadExt(Fraction(1, 2) + Fraction(-3, 1)*sqrt(5))"
        )

    def test_compatible_radicands_mix(self):
        assert quadext(0, 1, 12) + quadext(0, 1, 3) == quadext(0, 3, 3)
        assert quadext(0, 1, -12) * quadext(0, 1, -3) == F(-6)
        assert quadext(0, 1, F(1, 2)) * quadext(0, 1, 2) == F(1)

    def test_power(self):
        # powers are repeated products: phi^n = Fib(n) phi + Fib(n - 1)
        phi = quadext(F(1, 2), F(1, 2), 5)
        power, fib, fib_prev = phi, 1, 0
        for _ in range(40):
            assert power == fib * phi + fib_prev
            power, fib, fib_prev = power * phi, fib + fib_prev, fib

    @pytest.mark.parametrize("expr", [
        lambda x: x < 2, lambda x: 1 <= x, lambda x: x > x, lambda x: x**2,
    ], ids=["x < 2", "1 <= x", "x > x", "x**2"])
    def test_no_order_and_no_power(self, expr):
        # exact order lives in the test oracle (brute.sign_of), not in cfkit
        with pytest.raises(TypeError):
            expr(quadext(0, 1, 2))

    def test_equality_with_rationals_is_false(self):
        assert quadext(1, 1, 2) != F(1)
        assert not (quadext(1, 1, 2) == 1)

    @pytest.mark.parametrize("expr, op", [
        (lambda x: 1.5 - x, "-"), (lambda x: x - 1.5, "-"), (lambda x: 1.5 / x, "/"),
    ], ids=["1.5 - x", "x - 1.5", "1.5 / x"])
    def test_unsupported_operand_names_the_operator(self, expr, op):
        # the derived operators hand NotImplemented back to Python
        with pytest.raises(TypeError, match=f"for {op}: "):
            expr(quadext(0, 1, 2))


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
        assert sign_of(root2 - 1) == 1 and sign_of(root2 - F(3, 2)) == -1
        assert sign_of(root2 - 2) == -1 and sign_of(2 - root2) == 1
        assert sign_of(root2 - root2) == 0 and sign_of(F(-1, 3)) == -1

    def test_complex_not_ordered(self):
        with pytest.raises(TypeError, match="not ordered"):
            sign_of(quadext(1, 1, -3))

    def test_abs_lt(self):
        assert abs_lt(quadext(0, 1, 2) - F(3, 2), F(1, 10))
        assert not abs_lt(quadext(0, 1, 2) - F(3, 2), F(1, 20))
        assert abs_lt(F(-1, 100), F(1, 10))

    def test_abs_lt_complex(self):
        z = quadext(F(1, 10), F(1, 10), -1)  # modulus sqrt(2)/10
        assert abs_lt(z, F(15, 100))
        assert not abs_lt(z, F(14, 100))

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

    @pytest.mark.parametrize("d", [2, 3, 7, 94])
    def test_pell_values_against_decimal(self, d):
        # p - q sqrt(d) for late convergents p/q of sqrt(d): |x| < 1/q, so the
        # sign rests on the last of some 60 digits; the two neighbours differ in sign
        root, seen = quadext(0, 1, d), set()
        for p, q in _late_convergents(d, 10**30):
            x = quadext(p, -q, d)
            with localcontext() as ctx:
                ctx.prec = 200
                approx = Decimal(p) - Decimal(q) * Decimal(d).sqrt()
                size = Fraction(abs(approx))  # |x| to some 130 significant digits
            assert 0 < size < F(1, q)
            assert sign_of(x) == (approx > 0) - (approx < 0) == -sign_of(-x)
            seen.add(sign_of(x))
            above, below = size * (1 + F(1, 10**60)), size * (1 - F(1, 10**60))
            assert abs_lt(x, above) and not abs_lt(x, below)
            assert within(p, q, root, above / q) and not within(p, q, root, below / q)
        assert seen == {-1, 1}


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

    @pytest.mark.parametrize("sign", [1, -1])
    def test_cancelling_quadext_keeps_its_digits(self, sign):
        # x is the sixth Newton iterate for sqrt2, so -x + sqrt2 is about -2.86e-49:
        # rounding -x and sqrt2 apart and adding them would leave no digit
        x = F(1)
        for _ in range(6):
            x = (x + 2 / x) / 2
        ctx = _ctx(2000)
        reference = sign * (ctx.sqrt(2) - ctx.fdiv(x.numerator, x.denominator))
        z = as_complexfloat(quadext(-sign * x, sign, 2), 128)
        assert z.im == 0
        assert abs(z.re - reference) < abs(reference) * 2.0**-124

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ComplexFloat(1, 0) / ComplexFloat(0, 0)

    def test_division_by_a_real_number_rounds_as_complex_division(self):
        # mpmath's shortcut for a real divisor rounds this quotient differently
        # from mpc / mpc, which ComplexFloat division follows
        ctx = _ctx(64)
        a, c = ctx.mpf((0xE04F311DF4AE3E15, -64)), 0xCA6E324C81BA9EFF
        expected = ctx.mpc(a, a) / ctx.mpc(c)
        assert expected._mpc_ != (ctx.mpc(a, a) / ctx.mpf(c))._mpc_
        for divisor in (c, F(c), ComplexFloat(c, 0, 64)):
            q = ComplexFloat(a, a, 64) / divisor
            assert (q.re._mpf_, q.im._mpf_) == expected._mpc_

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


def _gaussian_dyadic(rng, prec):
    """ComplexFloat with random dyadic parts of up to prec + 40 bits, rounded
    by the public constructor; a part is 0 one time in eight."""
    def part():
        if rng.random() < 0.125:
            return 0
        man = rng.getrandbits(rng.randint(1, prec + 40)) or 1
        return (-man if rng.random() < 0.5 else man, rng.randint(-2 * prec, prec))
    return ComplexFloat(part(), part(), prec)


def _oracle(x, prec, wide):
    """x promoted at prec bits as mpmath's own context does it (int by
    ctx.mpf, Fraction by ctx.fdiv, a QuadExt's parts from as_complexfloat),
    then held unrounded by an mpc of the context at wide bits."""
    ctx = _ctx(prec)
    if isinstance(x, int):
        x = ctx.mpf(x)
    elif isinstance(x, Fraction):
        x = ctx.fdiv(x.numerator, x.denominator)
    elif isinstance(x, QuadExt):
        x = as_complexfloat(x, prec)
    value = _ctx(x.prec).mpc(x.re, x.im) if isinstance(x, ComplexFloat) else ctx.mpc(x)
    return _ctx(wide).mpc(value)


#: operator, and the ComplexFloat method that computes `other op self`
_OPERATORS = {
    "+": (lambda x, y: x + y, "__radd__"), "-": (lambda x, y: x - y, "__rsub__"),
    "*": (lambda x, y: x * y, "__rmul__"), "/": (lambda x, y: x / y, "__rtruediv__"),
}

_OTHER_OPERANDS = {
    "ComplexFloat": lambda rng: _gaussian_dyadic(rng, rng.choice((64, 128, 200, 256))),
    "int": lambda rng: rng.randint(-(2**300), 2**300),
    "small int": lambda rng: rng.randint(-9, 9),
    "Fraction": lambda rng: Fraction(rng.randint(-(2**200), 2**200), rng.randint(1, 2**150)),
    "QuadExt d > 0": lambda rng: quadext(F(rng.randint(-99, 99), rng.randint(1, 99)),
                                         rng.randint(1, 9), rng.choice((2, 3, 12))),
    "QuadExt d < 0": lambda rng: quadext(F(rng.randint(-99, 99), rng.randint(1, 99)),
                                         rng.randint(1, 9), rng.choice((-1, -3))),
    "float": lambda rng: rng.uniform(-1e6, 1e6),
}


@pytest.mark.parametrize("prec", [64, 128, 200, 256])
def test_complex_kernels_match_mpmath_bit_for_bit(rng, prec):
    # each ComplexFloat operation against the same operation on mpmath's own
    # mpc objects: the same raw parts, at the larger operand precision
    def raw(z):
        return z.re._mpf_, z.im._mpf_, z.prec

    for _ in range(12):
        z = _gaussian_dyadic(rng, prec)
        for kind, make in _OTHER_OPERANDS.items():
            other = make(rng)
            wide = max(prec, getattr(other, "prec", prec))
            mz, mo = _oracle(z, prec, wide), _oracle(other, prec, wide)
            for name, (op, reflected) in _OPERATORS.items():
                if not (name == "/" and mo == 0):
                    assert raw(op(z, other)) == (*op(mz, mo)._mpc_, wide), (kind, name)
                if not (name == "/" and mz == 0):
                    value = getattr(z, reflected)(other)
                    assert raw(value) == (*op(mo, mz)._mpc_, wide), (kind, reflected)
                    if kind != "ComplexFloat":
                        assert raw(op(other, z)) == raw(value), (kind, name)
        mz = _oracle(z, prec, prec)
        assert raw(-z) == (*(-mz)._mpc_, prec)
        assert raw(z.conjugate()) == (*mz.conjugate()._mpc_, prec)
        assert raw(z.sqrt()) == (*_ctx(prec).sqrt(mz)._mpc_, prec)
        assert z.modulus()._mpf_ == abs(mz)._mpf_
    with pytest.raises(ZeroDivisionError):
        _gaussian_dyadic(rng, prec) / ComplexFloat(0, 0, prec)
    with pytest.raises(ZeroDivisionError):
        F(1, 3) / ComplexFloat(0, 0, prec)
    with pytest.raises(TypeError):
        ComplexFloat(1, 0, prec) + "x"


@pytest.mark.parametrize("prec", [64, 128, 300])
def test_halving_by_shift_is_complex_division_by_two(rng, prec):
    # eigen_split halves t + s by shifting each part's exponent.  libmp's mpc_div
    # by (2, 0) forms 2a + 0b and 2b - 0a exactly at prec + 10 bits and divides
    # them by the exact 4, so for parts of at most prec bits it rounds nothing
    libmp = _libmp()
    for _ in range(100):
        z, w = (_gaussian_dyadic(rng, prec) for _ in range(2))
        raw = (z.re._mpf_, z.im._mpf_)
        for value in (raw, libmp.mpc_add(raw, (w.re._mpf_, w.im._mpf_), prec, "n")):
            halved = tuple(libmp.mpf_shift(part, -1) for part in value)
            assert halved == libmp.mpc_div(value, libmp.mpc_two, prec, "n")
            quotient = ComplexFloat(*value, prec) / 2
            assert halved == (quotient.re._mpf_, quotient.im._mpf_)


@pytest.mark.parametrize("prec", [64, 128, 300])
def test_rounded_parts_round_as_from_rational(rng, prec):
    # the one rounding of every value the complex split and the period matrix
    # report: each part of a Gaussian integer z over den, as libmp's from_rational
    # rounds it, for den = 1, 2^k and odd * 2^k, zero parts included
    libmp = _libmp()

    def part():
        return 0 if rng.random() < 0.2 else rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 3 * prec))

    for _ in range(200):
        re, im = part() << rng.randint(0, 20), part() << rng.randint(0, 20)
        z = _quadext_trusted(re, im, -1)  # an int when im = 0
        for den in (1, 1 << rng.randint(1, 3 * prec), (2 * rng.getrandbits(prec) + 1) << rng.randint(0, 40)):
            expected = [libmp.from_rational(n, den, prec, "n") for n in (re, im)]
            assert list(_rounded_parts(z, den, prec)) == expected, (re, im, den)


class TestHelpers:
    def test_zero_compares_equal_in_every_tower(self):
        # `x == 0` is the zero test: ComplexFloat compares both parts, and a
        # QuadExt has an irrational part, so it never equals 0
        assert F(0) == 0 and 0 == F(0) and 0 == 0
        assert F(1, 3) != 0 and F(-2) != 0
        assert not quadext(0, 1, 2) == 0 and quadext(0, 1, 2) != 0
        assert quadext(0, 1, -1) != 0 and 0 != quadext(F(1, 2), F(-1, 3), 12)
        for prec in (64, 128, 256):
            assert ComplexFloat(0, 0, prec) == 0 and 0 == ComplexFloat(0, 0, prec)
            assert ComplexFloat(0, 1, prec) != 0 and ComplexFloat(1, 0, prec) != 0
            assert ComplexFloat(_ctx(prec).mpf(2) ** -10000, 0, prec) != 0
            assert ComplexFloat(1, 1, prec) - ComplexFloat(1, 1, prec) == 0

    def test_integer_form_scales_by_the_least_denominator(self):
        # (L, L x for each x); dyadic parts are shifted, and the Gaussian
        # integers keep int parts, which divide back exactly
        assert _integer_form((1, -2, 3)) == (1, 1, -2, 3)
        assert _integer_form((F(1, 2), F(-1, 3), 4)) == (6, 3, -2, 24)
        scale, z, w = _integer_form((ComplexFloat(0.5, 0.25), 3), 64)
        assert (scale, z, w) == (4, quadext(2, 1, -1), 12) and type(z.a) is type(z.b) is int
        assert z * z + 1 == quadext(4, 4, -1) and type((z * z + 1).b) is int
        assert z / 2 == quadext(1, F(1, 2), -1) and 1 / z == quadext(F(2, 5), F(-1, 5), -1)
        tiny = _ctx(64).mpf(2) ** -100_000
        assert _integer_form((ComplexFloat(tiny, 1, 64),), 64) == (2**100_000, quadext(1, 2**100_000, -1))

    def test_fraction_canonical_form_after_ops(self, rng):
        for _ in range(200):
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            y = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            for value in (x + y, x * y, x - y):
                assert value.denominator > 0
                from math import gcd
                assert gcd(abs(value.numerator), value.denominator) == 1


@pytest.mark.parametrize(
    "divide",
    [
        lambda: scalar_div(1, 0),
        lambda: scalar_div(F(1, 2), 0),
        lambda: quadext(1, 1, 2) / F(0),
        lambda: scalar_div(quadext(1, 1, 2), 0),
        lambda: ComplexFloat(1, 1) / 0,
        lambda: ComplexFloat(1, 1) / F(0),
        lambda: 1 / ComplexFloat(0, 0),
        lambda: F(1, 3) / ComplexFloat(0, 0, 256),
        lambda: quadext(1, 1, 2) / ComplexFloat(0, 0),
        lambda: scalar_div(ComplexFloat(1, 0), 0),
    ],
    ids=[
        "int/0", "Fraction/0", "QuadExt/Fraction0", "div(QuadExt,0)",
        "ComplexFloat/0", "ComplexFloat/Fraction0", "int/ComplexFloat0",
        "Fraction/ComplexFloat0", "QuadExt/ComplexFloat0", "div(ComplexFloat,0)",
    ],
)
def test_division_by_zero_raises_in_every_tower(divide):
    # with TestQuadExtArithmetic::test_division_by_zero_rational (QuadExt / 0)
    # and TestComplexFloat::test_division_by_zero (ComplexFloat / ComplexFloat0)
    with pytest.raises(ZeroDivisionError):
        divide()


@pytest.mark.parametrize("num, den", [
    (0, 1), (0, -1), (1, 1), (-1, 1), (3, -2), (-3, -2), (7, 10**30 + 1),
    (-(2**89 - 1), 2**61 - 1), (2**127 - 1, -(3**80)),
])
def test_coprime_fraction_is_the_reduced_fraction(num, den):
    value, expected = coprime_fraction(num, den), Fraction(num, den)
    assert type(value) is Fraction
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
    assert value == expected and hash(value) == hash(expected)
    assert str(value) == str(expected) and repr(value) == repr(expected)
    assert value + F(1, 3) == expected + F(1, 3) and value * value == expected * expected
    assert value < expected + 1 and -value == -expected
