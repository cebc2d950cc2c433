"""Property tests of the exact towers: field laws, value identity, sign, text form."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit import QuadExt, format_exact, parse_exact, quadext
from cfkit.scalars import sign_of

# plain Fraction arithmetic: no example is slow, but a loaded host can be
no_deadline = settings(deadline=None)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=1000)
nonzero_rationals = rationals.filter(bool)
radicands = st.integers(-60, 60).filter(lambda d: d < 0 or math.isqrt(d) ** 2 != d)
real_radicands = st.integers(2, 10**6).filter(lambda d: math.isqrt(d) ** 2 != d)
scales = st.integers(1, 12)


@st.composite
def field_elements(draw, d):
    """a + b*sqrt(d), written over a randomly rescaled radicand d*k^2."""
    a, b, k = draw(rationals), draw(rationals), draw(scales)
    return quadext(a, b / k, d * k * k)


@st.composite
def same_field_triples(draw):
    d = draw(radicands)
    return tuple(draw(field_elements(d)) for _ in range(3))


@no_deadline
@given(same_field_triples())
def test_associativity(xyz):
    x, y, z = xyz
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)


@no_deadline
@given(same_field_triples())
def test_distributivity(xyz):
    x, y, z = xyz
    assert x * (y + z) == x * y + x * z


@no_deadline
@given(radicands.flatmap(field_elements))
def test_inverse_and_negation(x):
    assert x - x == 0
    if x != 0:
        assert x * (1 / x) == 1
        assert x / x == 1


@no_deadline
@given(rationals, nonzero_rationals, radicands, scales)
def test_rescaled_radicands_are_one_value(a, b, d, k):
    x, y = quadext(a, b * k, d), quadext(a, b, d * k * k)
    assert x == y
    assert hash(x) == hash(y)
    assert x - y == 0


def _decimal(f: Fraction) -> Decimal:
    return Decimal(f.numerator) / Decimal(f.denominator)


@no_deadline
@given(rationals, nonzero_rationals, real_radicands)
def test_sign_agrees_with_decimal_evaluation(a, b, d):
    x = quadext(a, b, d)
    with localcontext() as ctx:
        ctx.prec = 200
        approx = _decimal(a) + _decimal(b) * Decimal(d).sqrt()
    assert sign_of(x) == (approx > 0) - (approx < 0)


@no_deadline
@given(st.one_of(rationals, radicands.flatmap(field_elements)))
def test_format_parse_round_trip(x):
    parsed = parse_exact(format_exact(x))
    assert parsed == x
    assert isinstance(parsed, QuadExt) == isinstance(x, QuadExt)
