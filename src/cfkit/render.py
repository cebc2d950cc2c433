"""Canonical text form for exact scalars, and the matching parser.

Rationals print as "p" or "p/q".  Quadratic values print as "(p + q√D)/r"
with integer p, q, r, D, r > 0, gcd(p, q, r) = 1 and D squarefree (squarefree
extraction is by trial division, so a huge square factor hiding behind a
large prime may survive; the printed value is still exact).  Degenerate
pieces are dropped: "√5", "-2√3", "(1 + √5)/2", "1 - √5".

Everything this module prints, `parse_exact` reads back.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction

from .errors import SpecFileError
from .scalars import (
    ComplexFloat,
    QuadExt,
    _ctx,
    as_complexfloat,
    quadext,
    squarefree_split,
)


def _surd_parts(x: QuadExt) -> tuple[int, int, int, int]:
    """Normalize a + b*sqrt(d) to integers (p, q, D, r): value = (p + q√D)/r."""
    s, f = squarefree_split(abs(x.d))
    d_int = f if x.d > 0 else -f
    b = x.b * s
    r = math.lcm(x.a.denominator, b.denominator)
    p = x.a.numerator * (r // x.a.denominator)
    q = b.numerator * (r // b.denominator)
    g = math.gcd(math.gcd(abs(p), abs(q)), r)
    return p // g, q // g, d_int, r // g


# Decimal converts ints in both directions without the interpreter's limit on
# int/str conversions (4300 digits by default since Python 3.11), which
# convergents of a few thousand terms already pass.


def _int_text(n: int) -> str:
    return str(Decimal(n))


def _text_int(text: str) -> int:
    """int of a string of decimal digits with an optional sign."""
    return int(Decimal(text))


def _text_rational(text: str) -> Fraction:
    """Fraction of "p" or "p/q", both integers in decimal digits."""
    num, _, den = text.partition("/")
    return Fraction(_text_int(num), _text_int(den) if den else 1)


def format_exact(x) -> str:
    """Canonical string for an exact scalar (int, Fraction, or QuadExt)."""
    if isinstance(x, int):
        return _int_text(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _int_text(x.numerator)
        return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"
    if isinstance(x, QuadExt):
        p, q, d, r = _surd_parts(x)
        radical = f"√{_int_text(d)}"
        if abs(q) != 1:
            radical = f"{_int_text(abs(q))}{radical}"
        if p == 0:
            core = radical if q > 0 else f"-{radical}"
        else:
            op = "+" if q > 0 else "-"
            core = f"{_int_text(p)} {op} {radical}"
        if r == 1:
            return core
        if " " in core:
            return f"({core})/{_int_text(r)}"
        return f"{core}/{_int_text(r)}"
    raise TypeError(f"no exact form for {type(x).__name__}")


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")
_SURD_CORE_RE = re.compile(
    r"^(?:(?P<p>[+-]?\d+(?:/\d+)?)(?P<op>[+-]))?(?P<q>[+-]?\d*)√(?P<d>-?\d+)$"
)


def parse_exact(text: str):
    """Parse "p", "p/q", or a surd in the format_exact grammar."""
    s = text.strip()
    if "√" not in s:
        if not _RATIONAL_RE.match(s):
            raise SpecFileError(f"not an exact number literal: {text!r}")
        return _text_rational(s)
    compact = s.replace(" ", "")
    r = 1
    if compact.startswith("("):
        close = compact.rfind(")")
        if close < 0:
            raise SpecFileError(f"unbalanced parentheses in {text!r}")
        core, rest = compact[1:close], compact[close + 1 :]
        if rest:
            if not rest.startswith("/") or not rest[1:].isdecimal():
                raise SpecFileError(f"bad denominator in {text!r}")
            r = _text_int(rest[1:])
    else:
        root = compact.rindex("√")
        slash = compact.find("/", root)
        if slash >= 0:
            core, denom = compact[:slash], compact[slash + 1 :]
            if not denom.isdecimal():
                raise SpecFileError(f"bad denominator in {text!r}")
            r = _text_int(denom)
        else:
            core = compact
    match = _SURD_CORE_RE.match(core)
    if not match or r == 0:
        raise SpecFileError(f"not an exact number literal: {text!r}")
    p = _text_rational(match["p"]) if match["p"] else Fraction(0)
    q_text = match["q"]
    if q_text in ("", "+"):
        q = Fraction(1)
    elif q_text == "-":
        q = Fraction(-1)
    else:
        q = _text_rational(q_text)
    if match["op"] == "-":
        q = -q
    d = _text_int(match["d"])
    return quadext(p / r, q / r, d)


def decimal_digits(prec_bits: int) -> int:
    return max(6, int(prec_bits * 0.30103))


def format_float(x, prec_bits: int = 128, digits: int | None = None) -> str:
    """Decimal rendering of any scalar at the requested working precision."""
    digits = digits if digits is not None else decimal_digits(prec_bits)
    value = as_complexfloat(x, prec_bits)
    ctx = _ctx(max(prec_bits, value.prec))
    if value.im == 0:
        return ctx.nstr(value.re, digits)
    return ctx.nstr(ctx.mpc(value.re, value.im), digits)


def format_scalar(x, prec_bits: int = 128) -> str:
    """Exact form when available, decimal otherwise."""
    if isinstance(x, ComplexFloat):
        return format_float(x, prec_bits)
    return format_exact(x)
