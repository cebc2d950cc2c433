from decimal import MAX_EMAX, MIN_EMIN, ROUND_DOWN, ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
import math
import time

import mpmath
import pytest

from cfkit import ComplexFloat, format_exact, parse_exact, quadext, render
from cfkit.errors import SpecFileError
from cfkit.render import format_float, squarefree_split
from cfkit.specfile import format_literal


def F(n, d=1):
    return Fraction(n, d)


class TestFormat:
    def test_shared_int_texts_render_each_magnitude_once(self, monkeypatch):
        values = [-(7**40), F(7**40, 3**50), 7**40 - 1, quadext(-(3**50), 3**50, 5), 0]
        expected = [format_exact(x) for x in values]
        rendered = []
        int_text = render._int_text
        monkeypatch.setattr(render, "_int_text", lambda n: rendered.append(n) or int_text(n))
        shared = render.int_texts()
        assert [format_exact(x, shared) for x in values] == expected
        assert sorted(rendered) == sorted({0, 5, 7**40 - 1, 7**40, 3**50})

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

    @pytest.mark.parametrize("text, value", [
        ("1/2+√5/3", quadext(F(1, 6), F(1, 3), 5)),  # the trailing /r divides p too
        ("(√5)/2", quadext(0, F(1, 2), 5)),
        ("+4+√2", quadext(4, 1, 2)),
        ("(1+√5)/02", quadext(F(1, 2), F(1, 2), 5)),
        (" - √2 ", quadext(0, -1, 2)),
        ("1/05+√2", quadext(F(1, 5), 1, 2)),
    ])
    def test_surd_grammar_accepts(self, text, value):
        assert parse_exact(text) == value

    @pytest.mark.parametrize("signed, plain", [
        ("-(1+√5)/2", "(-1-√5)/2"), ("- (1 - √5)", "-1+√5"), ("+(1+√5)/2", "(1+√5)/2"), ("-(√5)/2", "-√5/2"),
    ])
    def test_sign_before_the_parenthesis_applies_to_the_whole_value(self, signed, plain):
        assert parse_exact(signed) == parse_exact(plain)

    @pytest.mark.parametrize("text", [
        "(1+√5", "(1+√5)x", "1+√5/x", "√5)", "((1+√5))/2", "1+√5+√2", "--(1+√5)", "-(1+√5", "-1-(√5)",
    ])
    def test_surd_grammar_refuses(self, text):
        with pytest.raises(SpecFileError):
            parse_exact(text)

    @pytest.mark.parametrize("text", ["1/0+√2", "(1+√5)/0", "√5/00", "(1/0 - √3)/2"])
    def test_zero_denominator_refused(self, text):
        with pytest.raises(SpecFileError, match="zero denominator"):
            parse_exact(text)

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


def _split_cases():
    """0, ints at the split threshold and one bit on each side of it, and
    10^k and 10^k - 1 for the largest 10^k below the threshold and the
    smallest above it; each with both signs."""
    bits = render._SPLIT_BITS
    k = math.floor(bits * math.log10(2))  # 10^k < 2^bits < 10^(k + 1)
    cases = {"0": 0, "1": 1}
    for b in (bits - 1, bits, bits + 1):
        cases[f"2^{b - 1}"], cases[f"2^{b}-1"] = 1 << (b - 1), (1 << b) - 1
    for j in (k, k + 1):
        cases[f"10^{j}"], cases[f"10^{j}-1"] = 10**j, 10**j - 1
    cases.update({f"-({name})": -n for name, n in cases.items() if n})
    return [pytest.param(n, id=name) for name, n in cases.items()]


class TestSplitConversion:
    @pytest.mark.parametrize("n", _split_cases())
    def test_agrees_with_decimal_at_the_threshold(self, n):
        text = str(Decimal(n))
        assert render._int_text(n) == text
        assert render._text_int(text) == int(Decimal(text)) == n

    @pytest.mark.parametrize("split_bits", [1, 64])
    def test_deep_splits_agree_with_decimal(self, monkeypatch, rng, split_bits):
        # a small threshold takes every int through many levels of splits
        monkeypatch.setattr(render, "_SPLIT_BITS", split_bits)
        for _ in range(100):
            n = rng.getrandbits(rng.randint(0, 2000)) * rng.choice((1, -1))
            text = str(Decimal(n))
            assert render._int_text(n) == text
            assert render._text_int(text) == n
            assert render._text_int("+" + text.lstrip("-")) == abs(n)
            assert render._text_int("-000" + text.lstrip("-")) == -abs(n)

    def test_far_past_the_threshold(self, rng):
        n = rng.getrandbits(200_000) | 1 << 199_999
        text = render._int_text(n)
        assert text == str(Decimal(n))
        assert render._text_int(text) == n and render._text_int("-" + text) == -n


def _digits(prec_bits):
    return max(6, int(prec_bits * 0.30103))


def _decimal_oracle(a: Fraction, b: Fraction, d: int, n: int) -> Decimal:
    """a + b·sqrt(d), d >= 0, rounded half-up to n significant digits by the
    decimal module alone."""
    size = max(Decimal(k).adjusted() for k in (a.numerator, a.denominator, b.numerator, b.denominator, d))
    with localcontext() as ctx:
        ctx.Emax, ctx.Emin = MAX_EMAX, MIN_EMIN
        # room for the digits a and b·sqrt(d) can cancel; truncation keeps a
        # rational on its side of every n-digit tie, so it is rounded once
        ctx.prec, ctx.rounding = n + 40 + 4 * size, ROUND_DOWN
        value = Decimal(a.numerator) / Decimal(a.denominator)
        if b:
            value += Decimal(b.numerator) / Decimal(b.denominator) * Decimal(d).sqrt()
        ctx.prec, ctx.rounding = n, ROUND_HALF_UP
        return +value


def _parts(text: str) -> tuple[str, str | None]:
    """The real and imaginary texts of "re", or of "(re + imj)" / "(re - imj)"."""
    if not text.startswith("("):
        return text, None
    re, op, im = text[1:-2].split(" ")
    return re, im if op == "+" else f"-{im}"


def _pell_approximant(d: int, terms: int) -> Fraction:
    """A convergent p/q of sqrt(d) from Newton steps, so a = -p/q nearly
    cancels b·sqrt(d) with b = 1."""
    x = Fraction(1)
    for _ in range(terms):
        x = (x + d / x) / 2
    return x


def _exact_values(rng, count):
    for _ in range(count):
        size = rng.choice([1, 3, 12, 40, 120])
        num = rng.randint(-(10**size), 10**size)
        den = rng.randint(1, 10 ** rng.choice([1, 4, 20, 60]))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**size), rng.randint(1, 10**5))
        yield num
        yield Fraction(num, den)
        yield quadext(Fraction(num, den), b, rng.choice([2, 3, 5, 12, 45, 10**9 + 7]))
        yield quadext(Fraction(num, den), b, rng.choice([-1, -3, -12, -(10**9 + 7)]))


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

    @pytest.mark.parametrize("prec_bits, count", [(64, 60), (128, 60), (256, 60), (20000, 2)])
    def test_correctly_rounded_against_decimal(self, rng, prec_bits, count):
        n = _digits(prec_bits)
        named = [
            0, -7, 10**4400 + 1, -(3**9100), F(-1, 3), F(5, 2 * 10**40), quadext(0, 3, 12),
            quadext(-_pell_approximant(2, 7), 1, 2), quadext(_pell_approximant(12, 6), -1, 12),
        ]
        for value in [*named, *_exact_values(rng, count)]:
            text = format_float(value, prec_bits)
            if isinstance(value, (int, Fraction)):
                expected = [_decimal_oracle(Fraction(value), F(0), 0, n), None]
            elif value.d > 0:
                expected = [_decimal_oracle(value.a, value.b, value.d, n), None]
            else:
                expected = [_decimal_oracle(value.a, F(0), 0, n),
                            _decimal_oracle(F(0), value.b, -value.d, n)]
            for part, want in zip(_parts(text), expected):
                assert (part is None) == (want is None), text
                if part is None:
                    continue
                assert Decimal(part) == want, (value, text)
                fixed = want.is_zero() or min(-(n // 3), -5) < want.adjusted() < n
                assert ("e" in part) != fixed, part

    @pytest.mark.parametrize("prec_bits, value, text", [
        (128, 0, "0.0"),
        (128, F(-3, 2), "-1.5"),
        # the window for the fixed layout is min(-(n//3), -5) < exponent < n
        (128, F(15, 10**12), "0.000000000015"),
        (128, F(15, 10**13), "1.5e-12"),
        (128, 15 * 10**36, "15000000000000000000000000000000000000.0"),
        (128, 15 * 10**37, "1.5e+38"),
        (64, F(15, 10**6), "0.000015"),
        (64, F(15, 10**7), "1.5e-6"),
        (16, F(15, 10**5), "0.00015"),
        (16, F(15, 10**6), "1.5e-5"),
        # half-up at the last digit, and rounding into the next power of ten
        (16, F(1234565, 10**6), "1.23457"),
        (16, F(-1234565, 10**6), "-1.23457"),
        (16, 999_999, "999999.0"),
        (16, 9_999_995, "1.0e+7"),
        (128, 10**38 - 1, "99999999999999999999999999999999999999.0"),
        (128, 10**39 - 1, "1.0e+39"),
        (64, quadext(F(1, 2), F(-1, 2), -3), "(0.5 - 0.8660254037844386468j)"),
    ])
    def test_layout_edges(self, prec_bits, value, text):
        assert format_float(value, prec_bits) == text

    @pytest.mark.parametrize("prec_bits", [64, 128, 256])
    def test_complexfloat_text_matches_mpmath(self, rng, prec_bits):
        n = _digits(prec_bits)

        def mpf_part():
            if rng.random() < 0.1:
                return 0
            bits = rng.choice([1, 7, prec_bits // 2, prec_bits])
            man = rng.choice([-1, 1]) * (rng.getrandbits(bits) | 1 << (bits - 1) | 1)
            return mpmath.mpf((man, rng.randint(-3000, 3000) - bits))

        with mpmath.workprec(prec_bits):
            values = [ComplexFloat(mpf_part(), mpf_part() if rng.random() < 0.7 else 0, prec_bits)
                      for _ in range(300)]
            values += [ComplexFloat(re, im, prec_bits) for re, im in [
                ("inf", 0), ("-inf", 1), (1, "-inf"), (1, "nan"), ("nan", "inf"), (0, 0),
            ]]
            assert max(z.re._mpf_[3] for z in values) == prec_bits
            for z in values:
                mp_value = z.re if z.im == 0 else mpmath.mpc(z.re, z.im)
                assert format_float(z, prec_bits) == mpmath.nstr(mp_value, n)

    @pytest.mark.parametrize("exp", [10**7, -(10**7), 3 * 10**9, -(3 * 10**9)])
    def test_complexfloat_with_huge_binary_exponent_is_quick(self, exp):
        # the exact dyadic value would need an int of |exp| bits
        z = ComplexFloat(mpmath.mpf((3, exp)), mpmath.mpf((-5, -exp)), 128)
        start = time.perf_counter()
        text = format_float(z, 128)
        assert time.perf_counter() - start < 1.0
        assert text.startswith("(") and " - " in text and text.endswith("j)")


def test_squarefree_split():
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(45) == (3, 5)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(1) == (1, 1)
    s, f = squarefree_split(2**20 * 3)
    assert s == 2**10 and f == 3


@pytest.mark.parametrize("convert", [
    lambda x: quadext(x, 1, 2),
    format_exact,
    format_float,
    format_literal,
], ids=["quadext", "format_exact", "format_float", "format_literal"])
def test_a_float_has_no_form(convert):
    # each converter names the type it cannot take
    with pytest.raises(TypeError, match=r"\bfloat$"):
        convert(0.5)


class TestNumberReader:
    @pytest.mark.parametrize("text, value", [
        (" 1_0.5e-1_0 ", Decimal("10.5e-10")), ("-22/7", F(-22, 7)), ("+.5", Decimal("0.5")), ("1_0/3", F(10, 3)),
    ])
    def test_reads_decimals_and_ratios(self, text, value):
        assert render.read_number(text) == value

    @pytest.mark.parametrize("text", ["_1", "1_", "1__0", "1e_5", "1_.5", "abc", "1/0", "1.5/2"])
    def test_refuses_malformed_text(self, text):
        # an underscore only between two digits, as in Python's numeric literals
        with pytest.raises((ValueError, ArithmeticError)):
            render.read_number(text)

    def test_refuses_more_digits_than_python_converts(self):
        # as Fraction and mpmath did: an exact value of more digits costs quadratic time
        assert Fraction(render.read_number("7" * 4300 + "e-4300")) == F(int("7" * 4300), 10**4300)
        with pytest.raises(ValueError):
            render.read_number("7" * 4301 + "e-4301")

    def test_bounds_are_exact_for_every_type(self):
        k = render.MAX_EXPONENT
        high = 10**k
        inside = [0, 1, -high, high, F(1, high), F(-3 * high, 3), F(high - 1, 7), Decimal(f"-1e{k}"),
                  Decimal(f"0.0001e-{k - 4}"), Decimal(f"0e{10 * k}"), 2**(3 * k)]
        outside = [high + 1, F(1, high + 1), F(3 * high + 1, 3), Decimal(f"1.000000000000000000001e{k}"),
                   Decimal(f"9.99e-{k + 1}"), Decimal("1e-10000000000"), 2**(4 * k), F(1, 2**(4 * k))]
        assert [render.within_bounds(x) for x in inside] == [True] * len(inside)
        assert [render.within_bounds(x) for x in outside] == [False] * len(outside)

    @pytest.mark.parametrize("x, text", [
        (Decimal("1e-1000001"), "1.0e-1000001"), (Decimal("-123456789e999999"), "-1.23457e+1000007"),
        (10**1000001, "1.0e+1000001"), (F(-1, 3 * 10**1000000), "-3.33333e-1000001"),
    ], ids=["decimal", "long-decimal", "int", "fraction"])
    def test_six_digits_of_a_number_out_of_bounds(self, x, text):
        assert render._six_digits(x) == text
