"""Exact scalar towers: big rationals, quadratic extensions, big complex floats.

A computation normally stays inside one tower.  Promotion only goes up:
ints and Fractions embed into QuadExt (same radicand) and into ComplexFloat;
QuadExt embeds into ComplexFloat by evaluating its square root numerically
at the target precision.

A QuadExt a + b*sqrt(d) holds an integer radicand d, fixed when the value is
built and never factored: arithmetic trusts it, equality compares values,
and only the printed form reduces d to its squarefree part.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from mpmath.ctx_mp import MPContext

from .errors import TowerMismatch

MIN_PRECISION_BITS = 64
DEFAULT_PRECISION_BITS = 128

RationalLike = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def is_square_rational(x: RationalLike) -> bool:
    """True when x is the square of a rational (0 and 1 included)."""
    f = _as_fraction(x)
    if f < 0:
        return False
    n, d = f.numerator, f.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def sqrt_rational(x: RationalLike) -> Fraction:
    """Exact square root of a rational that is known to be a perfect square."""
    f = _as_fraction(x)
    return Fraction(math.isqrt(f.numerator), math.isqrt(f.denominator))


_TRIAL_DIVISION_BOUND = 100_000


def squarefree_split(m: int) -> tuple[int, int]:
    """Return (s, f) with m = s*s*f and f squarefree (best effort), m > 0.

    Only the printed form of a surd needs this (see render).  Factors by
    trial division, so a square of a prime beyond the bound can
    survive inside f; the decomposition is still exact and deterministic.
    """
    s, f = 1, 1
    p = 2
    while p * p <= m and p <= _TRIAL_DIVISION_BOUND:
        if m % p == 0:
            count = 0
            while m % p == 0:
                m //= p
                count += 1
            s *= p ** (count // 2)
            if count % 2:
                f *= p
        p += 1 if p == 2 else 2
    root = math.isqrt(m)
    if root * root == m:
        return s * root, f
    return s, f * m


def radicand_ratio(d_from: int, d_to: int) -> Fraction | None:
    """Rational r with sqrt(d_from) = r*sqrt(d_to), or None when there is none.

    Two radicands span the same field exactly when their product is a
    square (so they share a sign); then sqrt(d_from) = sqrt(d_from*d_to)/|d_to|
    * sqrt(d_to).
    """
    product = d_from * d_to
    if product <= 0:
        return None
    root = math.isqrt(product)
    if root * root != product:
        return None
    return Fraction(root, abs(d_to))


def quadext(a, b, d) -> "Scalar":
    """Build a + b*sqrt(d), collapsing to a plain Fraction whenever possible.

    A radicand is checked here, when a value enters the tower, and never in
    arithmetic: a zero b or a square d gives a Fraction, and a rational
    radicand becomes an integer one through sqrt(n/m) = sqrt(n*m)/m.  Nothing is factored, so sqrt(12) stays
    sqrt(12); equality and hashing work from the value, and only the printed
    form (render.format_exact) pulls square factors out.
    """
    a = _as_fraction(a)
    b = _as_fraction(b)
    d = _as_fraction(d)
    if b == 0:
        return a
    if is_square_rational(d):
        return a + b * sqrt_rational(d)
    return _quadext_trusted(a, b / d.denominator, d.numerator * d.denominator)


_ZERO = Fraction(0)
_new_object = object.__new__
_set_field = object.__setattr__


def _quadext_trusted(a: Fraction, b: Fraction, d: int) -> "Scalar":
    """a + b*sqrt(d) for a radicand already known to be a non-square integer.

    Arithmetic inside one radicand cannot make sqrt(d) rational, so the only
    collapse left is b == 0.
    """
    if not b:
        return a
    value = _new_object(QuadExt)
    _set_field(value, "a", a)
    _set_field(value, "b", b)
    _set_field(value, "d", d)
    return value


@dataclass(frozen=True)
class QuadExt:
    """Exact number a + b*sqrt(d) with rational a, b != 0 and integer d.

    The invariant, sqrt(d) irrational and d a plain integer, is checked once
    when a value enters the tower (here or in `quadext`) and trusted by the
    arithmetic after that.  The radicand is kept as written, not reduced:
    sqrt(12) and 2*sqrt(3) are two representations of one value, compare and
    hash equal, and mix freely in arithmetic, which rescales the other
    operand onto this operand's radicand.  Radicands of different fields
    (sqrt(2) and sqrt(3)) do not mix: that raises TowerMismatch.  d < 0
    represents the complex value a + b*i*sqrt(|d|); such values are exact but
    not order-comparable.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))
        d = _as_fraction(self.d)
        if d.denominator != 1:
            raise ValueError(f"radicand {d} is not an integer; use quadext()")
        object.__setattr__(self, "d", d.numerator)
        if self.b == 0:
            raise ValueError("rational value must be a Fraction, not QuadExt")
        if is_square_rational(self.d):
            raise ValueError(f"radicand {self.d} is a rational square")

    # -- tower plumbing ----------------------------------------------------

    def _lift(self, other):
        """Return other as (a, b) parts over this radicand, or None."""
        if isinstance(other, QuadExt):
            if other.d == self.d:
                return other.a, other.b
            ratio = radicand_ratio(other.d, self.d)
            if ratio is None:
                raise TowerMismatch(
                    f"mixed radicands sqrt({self.d}) and sqrt({other.d})"
                )
            return other.a, other.b * ratio
        if isinstance(other, (int, Fraction)):
            return _as_fraction(other), _ZERO
        return None

    @property
    def is_real(self) -> bool:
        return self.d > 0

    def conjugate(self) -> "QuadExt":
        return _quadext_trusted(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 - b^2 d (product with the conjugate)."""
        return self.a * self.a - self.b * self.b * self.d

    def modulus_squared(self) -> Fraction:
        """|value|^2; rational for d < 0, equals value^2's rational part only
        when b = 0, so for d > 0 use sign-based comparison instead."""
        if self.d < 0:
            return self.a * self.a - self.b * self.b * self.d
        raise TowerMismatch("modulus_squared is rational only for d < 0")

    def sign(self) -> int:
        """Exact sign of the real value (requires d > 0)."""
        if self.d < 0:
            raise TowerMismatch("complex quadratic values are not ordered")
        a, b = self.a, self.b
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        t = a * a - b * b * self.d
        s = 1 if t > 0 else (-1 if t < 0 else 0)
        return s if a > 0 else -s

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        parts = self._lift(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return _quadext_trusted(self.a + oa, self.b + ob, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _quadext_trusted(-self.a, -self.b, self.d)

    def __sub__(self, other):
        parts = self._lift(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return _quadext_trusted(self.a - oa, self.b - ob, self.d)

    def __rsub__(self, other):
        parts = self._lift(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return _quadext_trusted(oa - self.a, ob - self.b, self.d)

    def __mul__(self, other):
        parts = self._lift(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        if not ob:
            return _quadext_trusted(self.a * oa, self.b * oa, self.d)
        return _quadext_trusted(
            self.a * oa + self.b * ob * self.d,
            self.a * ob + self.b * oa,
            self.d,
        )

    __rmul__ = __mul__

    def _inverse(self):
        n = self.norm()
        # n = 0 would force sqrt(d) rational, excluded by the invariant
        return _quadext_trusted(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        parts = self._lift(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        if oa == 0 and ob == 0:
            raise ZeroDivisionError("division by zero")
        if ob == 0:
            return _quadext_trusted(self.a / oa, self.b / oa, self.d)
        return self * _quadext_trusted(oa, ob, self.d)._inverse()

    def __rtruediv__(self, other):
        parts = self._lift(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return _quadext_trusted(oa, ob, self.d) * self._inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result: Scalar = Fraction(1)
        for _ in range(n):
            result = result * self
        return result

    # -- comparisons ----------------------------------------------------------

    def _value_key(self) -> tuple:
        """(a, b^2 d, sign of b): the same for every form of one value."""
        return self.a, self.b * self.b * self.d, self.b > 0

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if self.d == other.d:
                return self.a == other.a and self.b == other.b
            return self._value_key() == other._value_key()
        if isinstance(other, (int, Fraction)):
            return False  # b != 0 and sqrt(d) irrational
        return NotImplemented

    def __hash__(self):
        return hash(self._value_key())

    def _cmp(self, other) -> int:
        diff = self - other
        if isinstance(diff, Fraction):
            return 0 if diff == 0 else (1 if diff > 0 else -1)
        return diff.sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __repr__(self):
        return f"QuadExt({self.a!r} + {self.b!r}*sqrt({self.d!r}))"


# -- exact comparison helpers ----------------------------------------------


def sign_of(x) -> int:
    """Exact sign of a real exact scalar (int, Fraction, real QuadExt)."""
    if isinstance(x, (int, Fraction)):
        return 0 if x == 0 else (1 if x > 0 else -1)
    if isinstance(x, QuadExt):
        return x.sign()
    raise TowerMismatch(f"no exact sign for {type(x).__name__}")


def abs_lt(x, bound: RationalLike) -> bool:
    """Exact test |x| < bound for rational bound and exact scalar x."""
    bound = _as_fraction(bound)
    if isinstance(x, (int, Fraction)):
        return -bound < x < bound
    if isinstance(x, QuadExt):
        if x.d < 0:
            return x.modulus_squared() < bound * bound
        return sign_of(bound - x) > 0 and sign_of(bound + x) > 0
    raise TowerMismatch(f"no exact comparison for {type(x).__name__}")


def compare_abs(x, y) -> int:
    """Exact comparison of |x| and |y| (-1, 0, or +1) within one context."""
    for v in (x, y):
        if not isinstance(v, (int, Fraction, QuadExt)):
            raise TowerMismatch(f"no exact comparison for {type(v).__name__}")
    complex_x = isinstance(x, QuadExt) and x.d < 0
    complex_y = isinstance(y, QuadExt) and y.d < 0
    if complex_x or complex_y:
        mx = x.modulus_squared() if complex_x else _as_fraction(abs(x)) ** 2
        my = y.modulus_squared() if complex_y else _as_fraction(abs(y)) ** 2
        return 0 if mx == my else (1 if mx > my else -1)
    diff = x * x - y * y
    s = sign_of(diff)
    return s


# -- complex floating tower ---------------------------------------------------

_context_lock = threading.Lock()
_contexts: dict[int, MPContext] = {}


def _ctx(prec_bits: int) -> MPContext:
    """Shared mpmath context per precision; never mutated after creation."""
    with _context_lock:
        ctx = _contexts.get(prec_bits)
        if ctx is None:
            ctx = MPContext()
            ctx.prec = prec_bits
            _contexts[prec_bits] = ctx
    return ctx


@dataclass(frozen=True)
class ComplexFloat:
    """Complex value at an explicit binary precision (>= 64 bits)."""

    re: object
    im: object
    prec: int = DEFAULT_PRECISION_BITS

    def __post_init__(self):
        if self.prec < MIN_PRECISION_BITS:
            raise ValueError(f"precision must be >= {MIN_PRECISION_BITS} bits")
        ctx = _ctx(self.prec)
        object.__setattr__(self, "re", ctx.mpf(self.re))
        object.__setattr__(self, "im", ctx.mpf(self.im))

    def _binary(self, other, op, reverse=False):
        try:
            other_cf = as_complexfloat(other, self.prec)
        except TypeError:
            return NotImplemented
        prec = max(self.prec, other_cf.prec)
        ctx = _ctx(prec)
        lhs = ctx.mpc(self.re, self.im)
        rhs = ctx.mpc(other_cf.re, other_cf.im)
        if reverse:
            lhs, rhs = rhs, lhs
        value = op(lhs, rhs)
        return ComplexFloat(value.real, value.imag, prec)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: a - b, reverse=True)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ComplexFloat) and other.is_zero:
            raise ZeroDivisionError("division by zero")
        if isinstance(other, (int, Fraction)) and other == 0:
            raise ZeroDivisionError("division by zero")
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        if self.is_zero:
            raise ZeroDivisionError("division by zero")
        return self._binary(other, lambda a, b: a / b, reverse=True)

    def __neg__(self):
        return ComplexFloat(-self.re, -self.im, self.prec)

    def __eq__(self, other):
        if isinstance(other, ComplexFloat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the int or Fraction it may equal
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def modulus(self):
        ctx = _ctx(self.prec)
        return ctx.fabs(ctx.mpc(self.re, self.im))

    def conjugate(self) -> "ComplexFloat":
        return ComplexFloat(self.re, -self.im, self.prec)

    def sqrt(self) -> "ComplexFloat":
        ctx = _ctx(self.prec)
        value = ctx.sqrt(ctx.mpc(self.re, self.im))
        return ComplexFloat(value.real, value.imag, self.prec)

    def __repr__(self):
        return f"ComplexFloat({self.re!r}, {self.im!r}, prec={self.prec})"


def as_complexfloat(x, prec: int = DEFAULT_PRECISION_BITS) -> ComplexFloat:
    """Promote any scalar into the complex floating tower at `prec` bits."""
    if isinstance(x, ComplexFloat):
        return x
    ctx = _ctx(prec)
    if isinstance(x, int):
        return ComplexFloat(ctx.mpf(x), 0, prec)
    if isinstance(x, Fraction):
        return ComplexFloat(ctx.fdiv(x.numerator, x.denominator), 0, prec)
    if isinstance(x, QuadExt):
        a = ctx.fdiv(x.a.numerator, x.a.denominator)
        b = ctx.fdiv(x.b.numerator, x.b.denominator)
        root = ctx.sqrt(ctx.mpf(abs(x.d)))
        if x.d > 0:
            return ComplexFloat(a + b * root, 0, prec)
        return ComplexFloat(a, b * root, prec)
    if isinstance(x, float):
        return ComplexFloat(ctx.mpf(x), 0, prec)
    if isinstance(x, complex):
        return ComplexFloat(ctx.mpf(x.real), ctx.mpf(x.imag), prec)
    try:
        value = ctx.mpc(x)
    except (TypeError, ValueError):
        raise TypeError(f"cannot promote {type(x).__name__} to ComplexFloat") from None
    return ComplexFloat(value.real, value.imag, prec)


Scalar = Union[int, Fraction, QuadExt, ComplexFloat]

EXACT_TYPES = (int, Fraction, QuadExt)


def is_exact(x) -> bool:
    return isinstance(x, EXACT_TYPES)


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def is_zero(x) -> bool:
    if isinstance(x, ComplexFloat):
        return x.is_zero
    if isinstance(x, QuadExt):
        return False  # irrational radical part
    return x == 0


def scalar_div(num, den):
    """Exact division that returns Fractions for int/int input."""
    if isinstance(num, int) and isinstance(den, int):
        if den == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(num, den)
    return num / den
