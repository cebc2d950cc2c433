"""Canonical text form for exact scalars, the matching parser, and decimals.

Rationals print as "p" or "p/q".  Quadratic values print as "(p + q√D)/r"
with integer p, q, r, D, r > 0, gcd(p, q, r) = 1 and D squarefree (squarefree
extraction is by trial division, so a huge square factor hiding behind a
large prime may survive; the printed value is still exact).  Degenerate
pieces are dropped: "√5", "-2√3", "(1 + √5)/2", "1 - √5".

Everything `format_exact` prints, `parse_exact` reads back.

`format_float` prints the decimal digits of an exact value, rounded half-up
(ties away from zero), in mpmath's `nstr` layout, with integers only; a
ComplexFloat, whose input already loaded mpmath, prints through `nstr`.
"""

from __future__ import annotations

import math
import re
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact
from fractions import Fraction
from typing import Callable

from .errors import SpecFileError
from .scalars import (
    ComplexFloat,
    QuadExt,
    _ctx,
    _integer_form,
    quadext,
    squarefree_split,
)


def _surd_parts(x: QuadExt) -> tuple[int, int, int, int]:
    """Normalize a + b*sqrt(d) to integers (p, q, D, r): value = (p + q√D)/r."""
    s, f = squarefree_split(abs(x.d))
    r, p, q = _integer_form((x.a, x.b * s))  # r = lcm of the denominators: gcd(p, q, r) = 1
    return p, q, f if x.d > 0 else -f, r


# Decimal converts ints in both directions without the interpreter's limit on
# int/str conversions (4300 digits by default since Python 3.11), which
# convergents of a few thousand terms already pass.  Its own conversion is
# quadratic, so an int of more than _SPLIT_BITS bits is split as
# n = hi·2^h + lo, h about half its bits, and the parts are joined exactly in
# _EXACT.  Floor division keeps n = hi·2^h + lo for negative n, and divmod's
# truncation keeps it for negative Decimals.

_SPLIT_BITS = 4096
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])


def _int_text(n: int) -> str:
    return str(_to_decimal(n, n.bit_length(), {}))


def _text_int(text: str) -> int:
    """int of a string of decimal digits with an optional sign."""
    d = Decimal(text)
    # k digits hold less than 2^(3.322 k), as log2(10) < 3.322
    return _to_int(d, (d.adjusted() + 1) * 3322 // 1000 + 1, {})


def _power2(h: int, powers: dict) -> Decimal:
    """2^h, computed once per conversion."""
    if h not in powers:
        low = h >> 1
        powers[h] = Decimal(1 << h) if h <= _SPLIT_BITS else _EXACT.multiply(
            _power2(low, powers), _power2(h - low, powers)
        )
    return powers[h]


def _to_decimal(n: int, bits: int, powers: dict) -> Decimal:
    """Decimal of an int n of about `bits` bits."""
    if bits <= _SPLIT_BITS:
        return Decimal(n)
    h = bits >> 1
    hi = n >> h
    return _EXACT.fma(
        _to_decimal(hi, bits - h, powers), _power2(h, powers), _to_decimal(n - (hi << h), h, powers)
    )


def _to_int(d: Decimal, bits: int, powers: dict) -> int:
    """int of an integral Decimal d of about `bits` bits."""
    if bits <= _SPLIT_BITS:
        return int(d)
    h = bits >> 1
    hi, lo = _EXACT.divmod(d, _power2(h, powers))
    return (_to_int(hi, bits - h, powers) << h) + _to_int(lo, h, powers)


def _text_rational(text: str) -> Fraction:
    """Fraction of "p" or "p/q", both integers in decimal digits."""
    num, _, den = text.partition("/")
    return Fraction(_text_int(num), _text_int(den) if den else 1)


def int_texts() -> Callable[[int], str]:
    """An `int_text` for `format_exact` that renders each distinct |n| once,
    so that one report does not pay twice for the same big integer."""
    texts: dict[int, str] = {}

    def int_text(n: int) -> str:
        m = abs(n)
        text = texts.get(m)
        if text is None:
            text = texts[m] = _int_text(m)
        return text if n >= 0 else f"-{text}"

    return int_text


def format_exact(x, int_text: Callable[[int], str] | None = None) -> str:
    """Canonical string for an exact scalar (int, Fraction, or QuadExt);
    `int_text` renders its integers, `_int_text` by default."""
    text = int_text or _int_text
    if isinstance(x, int):
        return text(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return text(x.numerator)
        return f"{text(x.numerator)}/{text(x.denominator)}"
    if isinstance(x, QuadExt):
        p, q, d, r = _surd_parts(x)
        radical = f"√{text(d)}"
        if abs(q) != 1:
            radical = f"{text(abs(q))}{radical}"
        if p == 0:
            core = radical if q > 0 else f"-{radical}"
        else:
            op = "+" if q > 0 else "-"
            core = f"{text(p)} {op} {radical}"
        if r == 1:
            return core
        if " " in core:
            return f"({core})/{text(r)}"
        return f"{core}/{text(r)}"
    raise TypeError(f"no exact form for {type(x).__name__}")


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")
# [[±](][p(+|-)][q]√d[)][/r] without spaces, the parentheses paired; a sign
# before "(" and r apply to the whole value, as in "1/2+√5/3" = (1/2 + √5)/3
_SURD_RE = re.compile(
    r"(?:(?P<sign>[+-])?(?P<open>\())?(?:(?P<p>[+-]?\d+(?:/\d+)?)(?P<op>[+-]))?(?P<q>[+-]?\d*)"
    r"√(?P<d>-?\d+)(?(open)\))(?:/(?P<r>\d+))?"
)


def parse_exact(text: str):
    """Parse "p", "p/q", or a surd in the format_exact grammar."""
    s = text.strip()
    if "√" not in s:
        if not _RATIONAL_RE.match(s):
            raise SpecFileError(f"not an exact number literal: {text!r}")
        return _text_rational(s)
    match = _SURD_RE.fullmatch(s.replace(" ", ""))
    if not match:
        raise SpecFileError(f"not an exact number literal: {text!r}")
    try:
        p = _text_rational(match["p"] or "0")
        r = Fraction(-1 if match["sign"] == "-" else 1, _text_int(match["r"] or "1"))
    except ZeroDivisionError:
        raise SpecFileError(f"zero denominator in {text!r}") from None
    q = match["q"]
    q = _text_int(q + "1" if q in ("", "+", "-") else q)
    return quadext(p * r, (-q if match["op"] == "-" else q) * r, _text_int(match["d"]))


def format_float(x, prec_bits: int = 128) -> str:
    """Decimal rendering of an int, Fraction, QuadExt or ComplexFloat with
    n = max(6, prec_bits log10(2)) significant digits.  An exact value is
    correctly rounded half-up, in mpmath's `nstr` layout: fixed point when
    the decimal exponent e has min(-(n//3), -5) < e < n, else d.ddde±E;
    trailing zeros dropped; complex values as "(re ± imj)".  A ComplexFloat
    prints through `nstr` itself, as its exact dyadic parts may hold far more
    bits than the digits need."""
    n = max(6, int(prec_bits * 0.30103))
    if isinstance(x, (int, Fraction)):
        return _real_text(x.numerator, 0, 0, x.denominator, n)
    if isinstance(x, QuadExt):
        r, p, q = _integer_form((x.a, x.b))
        if x.d > 0:
            return _real_text(p, q, x.d, r, n)
        return _complex_text(_real_text(p, 0, 0, r, n), q < 0, _real_text(0, abs(q), -x.d, r, n))
    if isinstance(x, ComplexFloat):
        ctx = _ctx(max(prec_bits, x.prec))
        return ctx.nstr(x.re if x.im == 0 else ctx.mpc(x.re, x.im), n)
    raise TypeError(f"no decimal form for {type(x).__name__}")


def _complex_text(re: str, negative: bool, im: str) -> str:
    return f"({re} {'-' if negative else '+'} {im}j)"


def _real_text(u: int, v: int, d: int, r: int, n: int) -> str:
    """(u + v√d)/r to n significant digits, for r > 0 and v = 0 or √d
    irrational."""
    if v:
        norm = u * u - v * v * d
        negative = u < 0 if norm > 0 else v < 0
        if negative:
            u, v = -u, -v
        # a lower bound on log2(u + v√d) from the larger term, 2^(top-1) <= it
        # < 2^top, or from |u² - v²d| over their sum when the terms cancel
        top = max(u.bit_length(), ((v * v * d).bit_length() + 1) // 2)
        bits = top - 1 if u * v >= 0 else abs(norm).bit_length() - top - 2
    elif u:
        negative, u = u < 0, abs(u)
        bits = u.bit_length() - 1
    else:
        return "0.0"
    # e never exceeds the decimal exponent, so one exact floor of 2x, for
    # x = 10^t (u + v√d)/r, gives n digits or more
    e = math.floor((bits - r.bit_length()) * math.log10(2)) - 1
    t = n - 1 - e
    scale = 2 * 10**t if t > 0 else 2
    u, v = u * scale, v * scale
    if v:
        # floor(v√d) = ±isqrt(v²d), less one when negative: √d is irrational
        root = math.isqrt(v * v * d)
        u += root if v > 0 else -root - 1
    # floor(u/(r 10^k)) = floor(floor(u/2^k)/(r 5^k)), and 5^k is the smaller power
    twice = u // r if t >= 0 else (u >> -t) // (r * 5**-t)
    high = 20 * 10 ** (n - 1)
    while twice >= high:  # floor(2x/10) = floor(floor(2x)/10)
        twice //= 10
        e += 1
    digits = (twice + 1) >> 1  # floor(x + 1/2) = floor((floor(2x) + 1)/2)
    if digits == high // 2:
        digits, e = high // 20, e + 1
    # str() refuses ints of more than 4300 digits; see _int_text
    text = str(Decimal(digits))
    split = 1
    if min(-(n // 3), -5) < e < n:  # fixed point: no exponent
        text = "0" * -e + text  # leading zeros when e < 0, none otherwise
        split, e = max(e, 0) + 1, 0
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    if e:
        text += f"e{'+' if e > 0 else ''}{e}"
    return ("-" if negative else "") + text
