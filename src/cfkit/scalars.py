"""Exact scalar towers: big rationals, quadratic extensions, big complex floats.

A computation normally stays inside one tower.  Promotion only goes up:
ints and Fractions embed into QuadExt (same radicand) and into ComplexFloat;
QuadExt embeds into ComplexFloat by evaluating its square root numerically
at the target precision.  ComplexFloat operators run mpmath's libmp kernels on
raw mpf tuples, bit for bit as mpc; the periodic complex split calls them alike,
on values `_rounded_parts` rounds once, and `_complexfloat_trusted` wraps each.

A QuadExt a + b*sqrt(d) holds an integer radicand d, fixed when the value is
built and never factored: arithmetic trusts it, equality compares values,
and only the printed form reduces d to its squarefree part.  Zero is `x == 0`
in every tower: a QuadExt never equals 0, a ComplexFloat when both parts do.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Union

from .errors import InvalidSpec, TowerMismatch, _int_label, record

MIN_PRECISION_BITS = 64
MAX_PRECISION_BITS = 65_536  # the CLI's ceiling: a classify there takes some 0.2 s
DEFAULT_PRECISION_BITS = 128
# the largest |k| of a number 10^k that a reader takes: Fraction("1e-k") computes
# 10**k at once, and a complex part of 10^-k grows the exact period matrix with k
MAX_EXPONENT = 1_000_000

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
        return a + b * Fraction(math.isqrt(d.numerator), math.isqrt(d.denominator))
    return _quadext_trusted(a, b / d.denominator, d.numerator * d.denominator)


def _quadext_trusted(a: RationalLike, b: RationalLike, d: int) -> "Scalar":
    """a + b*sqrt(d) for a radicand already known to be a non-square integer.

    Arithmetic inside one radicand cannot make sqrt(d) rational, so the only
    collapse left is b == 0.
    """
    return _new_quadext(a, b, d) if b else a


@record
class QuadExt:
    """Exact number a + b*sqrt(d) with rational a, b != 0 and integer d.

    The invariant, sqrt(d) irrational and d a plain integer, is checked once
    when a value enters the tower (here or in `quadext`) and trusted by the
    arithmetic after that.  The radicand is kept as written, not reduced:
    sqrt(12) and 2*sqrt(3) are two representations of one value, compare and
    hash equal, and mix freely in arithmetic, which rescales the other
    operand onto this operand's radicand.  Radicands of different fields
    (sqrt(2) and sqrt(3)) do not mix: that raises TowerMismatch.  d < 0
    represents the complex value a + b*i*sqrt(|d|).
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
                    f"mixed radicands sqrt({_int_label(self.d)}) and "
                    f"sqrt({_int_label(other.d)})"
                )
            return other.a, other.b * ratio
        if isinstance(other, (int, Fraction)):
            return other, 0
        return None

    def conjugate(self) -> "QuadExt":
        return _quadext_trusted(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 - b^2 d (product with the conjugate)."""
        return self.a * self.a - self.b * self.b * self.d

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
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

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
        n = _as_fraction(self.norm())  # a Fraction, also for int parts
        # n = 0 would force sqrt(d) rational, excluded by the invariant
        return _quadext_trusted(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        parts = self._lift(other)
        if parts is None:
            return NotImplemented
        oa, ob = map(_as_fraction, parts)
        if ob == 0:
            return _quadext_trusted(self.a / oa, self.b / oa, self.d)
        return self * _quadext_trusted(oa, ob, self.d)._inverse()

    def __rtruediv__(self, other):
        return self._inverse().__mul__(other)

    # -- equality ------------------------------------------------------------

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

    def __repr__(self):
        a, b = (f"Fraction({_int_label(q.numerator)}, {_int_label(q.denominator)})"
                for q in (self.a, self.b))
        return f"QuadExt({a} + {b}*sqrt({_int_label(self.d)}))"


# -- complex floating tower ---------------------------------------------------

@cache
def _ctx(prec_bits: int):
    """Shared mpmath context per precision (>= 64 bits), which only wraps
    values; never mutated after creation, so two threads racing on a first
    call at worst build two equal contexts.  mpmath is imported on first use."""
    if prec_bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be >= {MIN_PRECISION_BITS} bits")
    from mpmath.ctx_mp import MPContext
    ctx = MPContext()
    ctx.prec = prec_bits
    return ctx


@cache
def _libmp():
    """mpmath's kernels on raw (sign, man, exp, bc) tuples, imported on first use."""
    from mpmath import libmp
    return libmp


def _complexfloat_trusted(re: tuple, im: tuple, prec: int) -> "ComplexFloat":
    """re + im*i from raw mpf tuples already rounded to prec bits, without
    ComplexFloat's conversions, as `_quadext_trusted` skips QuadExt's checks."""
    mpf = _ctx(prec).mpf
    real, imag = object.__new__(mpf), object.__new__(mpf)
    real._mpf_, imag._mpf_ = re, im  # as mpmath's own make_mpf builds a value
    return _new_complexfloat(real, imag, prec)


@record
class ComplexFloat:
    """Complex value at an explicit binary precision (>= 64 bits); each
    operation rounds to nearest at the larger operand precision."""

    re: object
    im: object
    prec: int = DEFAULT_PRECISION_BITS

    def __post_init__(self):
        ctx = _ctx(self.prec)
        object.__setattr__(self, "re", ctx.mpf(self.re))
        object.__setattr__(self, "im", ctx.mpf(self.im))

    def _binary(self, other, kernel: str, reverse=False):
        try:
            other = as_complexfloat(other, self.prec)
        except TypeError:
            return NotImplemented
        prec = max(self.prec, other.prec)
        x, y = (other, self) if reverse else (self, other)
        z = getattr(_libmp(), kernel)((x.re._mpf_, x.im._mpf_), (y.re._mpf_, y.im._mpf_), prec, "n")
        return _complexfloat_trusted(*z, prec)

    def __add__(self, other):
        return self._binary(other, "mpc_add")

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, "mpc_sub")

    def __rsub__(self, other):
        return self._binary(other, "mpc_sub", reverse=True)

    def __mul__(self, other):
        return self._binary(other, "mpc_mul")

    __rmul__ = __mul__

    def __truediv__(self, other):  # mpc_div even for a real divisor, as mpc / mpc rounds
        return self._binary(other, "mpc_div")

    def __rtruediv__(self, other):
        return self._binary(other, "mpc_div", reverse=True)

    def __neg__(self):
        neg = _libmp().mpf_neg
        return _complexfloat_trusted(neg(self.re._mpf_), neg(self.im._mpf_), self.prec)

    def __eq__(self, other):
        if isinstance(other, ComplexFloat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the int or Fraction it may equal
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def modulus(self):
        value = _libmp().mpc_abs((self.re._mpf_, self.im._mpf_), self.prec, "n")
        return _ctx(self.prec).make_mpf(value)

    def conjugate(self) -> "ComplexFloat":
        return _complexfloat_trusted(self.re._mpf_, _libmp().mpf_neg(self.im._mpf_), self.prec)

    def sqrt(self) -> "ComplexFloat":
        value = _libmp().mpc_sqrt((self.re._mpf_, self.im._mpf_), self.prec, "n")
        return _complexfloat_trusted(*value, self.prec)

    def __repr__(self):
        return f"ComplexFloat({self.re!r}, {self.im!r}, prec={self.prec})"

    def __reduce__(self):  # each part's class is made per precision, so it pickles as raw tuples
        return _complexfloat_trusted, (self.re._mpf_, self.im._mpf_, self.prec)


_new_quadext, _new_complexfloat = QuadExt._unchecked, ComplexFloat._unchecked


def as_complexfloat(x, prec: int = DEFAULT_PRECISION_BITS) -> ComplexFloat:
    """Promote any scalar into the complex floating tower at `prec` bits."""
    if isinstance(x, ComplexFloat):
        return x
    ctx = _ctx(prec)
    if isinstance(x, (int, Fraction)):
        return _complexfloat_trusted(*_rounded_parts(x.numerator, x.denominator, prec), prec)
    if isinstance(x, QuadExt):
        a, b = (ctx.make_mpf(_rounded_parts(q.numerator, q.denominator, prec)[0]) for q in (x.a, x.b))
        root = ctx.sqrt(ctx.mpf(abs(x.d)))
        if x.d < 0:
            return ComplexFloat(a, b * root, prec)
        if x.a * x.b < 0:  # a + b sqrt(d) = norm/(a - b sqrt(d)), which does not cancel
            n = x.norm()
            return ComplexFloat(ctx.fdiv(n.numerator, n.denominator) / (a - b * root), 0, prec)
        return ComplexFloat(a + b * root, 0, prec)
    try:
        value = ctx.mpc(x)
    except (TypeError, ValueError):
        raise TypeError(f"cannot promote {type(x).__name__} to ComplexFloat") from None
    return ComplexFloat(value.real, value.imag, prec)


def _rounded_parts(z, den: int, prec: int) -> list:
    """Raw (re, im) of z/den to nearest at prec bits for a Gaussian integer z and an int den > 0,
    as libmp's from_rational rounds it, but in linear time (that strips trailing zero bits 8 at a time)."""
    libmp, k = _libmp(), (den & -den).bit_length() - 1
    re, im = (z.a, z.b) if isinstance(z, QuadExt) else (z, 0)
    if den >> k == 1:  # den = 2^k: round, then shift
        return [libmp.from_man_exp(re, -k, prec, "n"),
                libmp.from_man_exp(im, -k, prec, "n") if im else libmp.fzero]
    # exact odd mantissas, with the zero bits moved to the exponent at once
    return [libmp.mpf_div(libmp.from_man_exp(n >> (j := (n & -n).bit_length() - 1), j - k),
                          libmp.from_int(den >> k), prec, "n") if n else libmp.fzero for n in (re, im)]


def _dyadic(values, prec: int) -> tuple:
    """(L, L*x for each x) at prec: x = m 2^e + n 2^f i, L = 2^k, k >= 0 least with e + k, f + k >= 0."""
    k, parts = 0, []
    for z in values:
        z = z if type(z) is ComplexFloat else as_complexfloat(z, prec)
        (s, m, e, _), (t, n, f, _) = z.re._mpf_, z.im._mpf_
        if not m and e or not n and f:  # mpmath's +-inf and nan
            raise InvalidSpec(f"{z.im if m or not e else z.re} is not a finite number")
        if e + k < 0 or f + k < 0:
            k = -min(e, f)
        parts.append((-m if s else m, e, -n if t else n, f))
    return (1 << k, *[_quadext_trusted(m << e + k, n << f + k, -1) for m, e, n, f in parts])


def _integer_form(values, prec: int = 0) -> tuple:
    """(L, L*x for each x), each an int or a QuadExt with int parts: Gaussian integers from
    the ComplexFloats at prec when it is set (`_dyadic`).  L is the least common denominator."""
    if prec:
        return _dyadic(values, prec)
    for x in values:  # a plain loop: a set of the types, or all() over a generator, costs ~4x
        if type(x) is not int:
            break
    else:
        return (1, *values)
    parts = [(x.a, x.b, x.d) if isinstance(x, QuadExt) else (x, 0, -1) for x in values]
    scale = math.lcm(*(q.denominator for a, b, _ in parts for q in (a, b)))
    up = lambda q: q.numerator * (scale // q.denominator)
    return (scale, *(_quadext_trusted(up(a), up(b), d) for a, b, d in parts))


Scalar = Union[int, Fraction, QuadExt, ComplexFloat]

EXACT_TYPES = (int, Fraction, QuadExt)
RATIONAL_TYPES = (int, Fraction)


def is_exact(x) -> bool:
    return isinstance(x, EXACT_TYPES)


def is_rational(x) -> bool:
    return isinstance(x, RATIONAL_TYPES)


def scalar_div(num, den):
    """Exact division that returns Fractions for int/int input."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def coprime_fraction(num: int, den: int) -> Fraction:
    """num/den for coprime ints and den != 0, without Fraction's gcd: the
    sign moves to num and the two slots are set directly, as CPython's own
    `Fraction._from_coprime_ints` does from 3.12 on."""
    if den < 0:
        num, den = -num, -den
    value = object.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value
