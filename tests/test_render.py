from fractions import Fraction

import pytest

from cfkit import format_exact, parse_exact, quadext
from cfkit.errors import SpecFileError
from cfkit.render import format_float, squarefree_split


def F(n, d=1):
    return Fraction(n, d)


class TestFormat:
    def test_integers_and_fractions(self):
        assert format_exact(F(3)) == "3"
        assert format_exact(F(-3, 4)) == "-3/4"
        assert format_exact(7) == "7"

    def test_golden_ratio_canonical(self):
        phi = quadext(F(1, 2), F(1, 2), 5)
        assert format_exact(phi) == "(1 + √5)/2"

    def test_pure_root(self):
        assert format_exact(quadext(0, 1, 2)) == "√2"
        assert format_exact(quadext(0, -1, 2)) == "-√2"
        assert format_exact(quadext(0, 2, 3)) == "2√3"

    def test_negative_radicand(self):
        value = quadext(F(1, 2), F(1, 2), -3)
        assert format_exact(value) == "(1 + √-3)/2"

    def test_squarefree_extraction(self):
        # 1 + (1/3)*sqrt(8) = 1 + (2/3)*sqrt(2) = (3 + 2*sqrt2)/3
        value = quadext(1, F(1, 3), 8)
        assert format_exact(value) == "(3 + 2√2)/3"

    def test_rational_radicand_normalized(self):
        # sqrt(9/2) = 3/sqrt2 = (3/2) sqrt2
        value = quadext(0, 1, F(9, 2))
        assert format_exact(value) == "3√2/2"

    def test_minus_sign_folding(self):
        value = quadext(1, -1, 5)
        assert format_exact(value) == "1 - √5"

    def test_gcd_reduction(self):
        value = quadext(F(2, 4), F(2, 4), 5)  # same as golden
        assert format_exact(value) == "(1 + √5)/2"


class TestParse:
    def test_rationals(self):
        assert parse_exact("3") == F(3)
        assert parse_exact("-3/4") == F(-3, 4)
        assert parse_exact(" 15/9 ") == F(5, 3)

    def test_rejects_junk(self):
        for bad in ("", "abc", "1.5", "1e-3", "3/0", "√", "1 +"):
            with pytest.raises(SpecFileError):
                parse_exact(bad)

    def test_surds(self):
        assert parse_exact("√5") == quadext(0, 1, 5)
        assert parse_exact("-√5") == quadext(0, -1, 5)
        assert parse_exact("2√3") == quadext(0, 2, 3)
        assert parse_exact("(1 + √5)/2") == quadext(F(1, 2), F(1, 2), 5)
        assert parse_exact("1 - √5") == quadext(1, -1, 5)
        assert parse_exact("√-3") == quadext(0, 1, -3)
        assert parse_exact("3√2/2") == quadext(0, F(3, 2), 2)

    def test_square_radicand_collapses(self):
        assert parse_exact("(1 + √4)/2") == F(3, 2)

    def test_round_trip_random(self, rng):
        def same_value(x, y):
            # exact equality across possibly different radicand representations
            if isinstance(x, Fraction) or isinstance(y, Fraction):
                return x == y
            return (
                x.a == y.a
                and x.b * x.b * x.d == y.b * y.b * y.d
                and (x.b > 0) == (y.b > 0)
                and (x.d > 0) == (y.d > 0)
            )

        for _ in range(300):
            a = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            b = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            d = rng.choice([-7, -3, -1, 2, 3, 5, 6, 7, 8, 12, 45])
            value = quadext(a, b, d)
            text = format_exact(value)
            parsed = parse_exact(text)
            assert same_value(parsed, value), text
            # and the canonical form is a fixed point of parse/format
            assert format_exact(parsed) == text

    def test_round_trip_past_the_int_string_limit(self):
        # 4401-digit integers: str() and int() refuse them since Python 3.11
        big = 10**4400 + 1
        for value in (F(big, 3), quadext(F(1, 10**4400), big, 2 * 10**4401)):
            text = format_exact(value)
            assert len(text) > 4400
            assert parse_exact(text) == value

    def test_round_trip_rationals(self, rng):
        for _ in range(100):
            value = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            assert parse_exact(format_exact(value)) == value


class TestFloatRendering:
    def test_rational(self):
        text = format_float(F(1, 4), 128)
        assert text.startswith("0.25")

    def test_quadext(self):
        phi = quadext(F(1, 2), F(1, 2), 5)
        assert format_float(phi, 128).startswith("1.6180339887")

    def test_complex(self):
        z = quadext(1, 1, -1)
        rendered = format_float(z, 128)
        assert "j" in rendered or "i" in rendered


def test_squarefree_split():
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(45) == (3, 5)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(1) == (1, 1)
    s, f = squarefree_split(2**20 * 3)
    assert s == 2**10 and f == 3
