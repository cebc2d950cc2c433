"""Property tests of the exact towers (field laws, value identity, sign, text
form) and of the recurrence core against the independent loop in brute.py."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest
from brute import raw_table
from cfkit import (
    ContinuantArgs,
    FiniteCF,
    QuadExt,
    continuant,
    convergent_table,
    cross_determinant,
    evaluate_convergent,
    format_exact,
    parse_exact,
    quadext,
    shifted_table,
)
from cfkit.errors import ZeroDenominator
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


small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def finite_specs(draw):
    """A FiniteCF of 1..10 terms mixing rationals and values over one radicand."""
    d = draw(radicands)
    coefficient = st.one_of(
        small_rationals,
        st.builds(lambda a, b: quadext(a, b, d), small_rationals, small_rationals),
    )
    n = draw(st.integers(1, 10))
    a = draw(st.lists(coefficient, min_size=n, max_size=n))
    b = draw(st.lists(coefficient, min_size=n + 1, max_size=n + 1))
    return FiniteCF(a_list=a, b_list=b)


@no_deadline
@given(finite_specs(), st.data())
def test_recurrence_core_agrees_with_brute_loop(spec, data):
    n_total = spec.max_index
    k = data.draw(st.integers(0, n_total), label="k")
    tail = FiniteCF(a_list=spec.a_list[k:], b_list=spec.b_list[k:])
    n_max = n_total - k
    nums, dens = raw_table(tail, n_max)
    rows = shifted_table(spec, k, n_max)
    assert [(r.num, r.den) for r in rows] == [(1, 0), *zip(nums, dens)]
    for n in range(n_max + 1):
        args = ContinuantArgs(a=tail.a_list[:n], b=tail.b_list[: n + 1])
        assert continuant(args) == nums[n]
    nums, dens = raw_table(spec, n_total)
    table = convergent_table(spec, n_total)
    assert [(r.num, r.den) for r in table] == [(1, 0), *zip(nums, dens)]
    for n in range(n_total + 1):
        if dens[n] == 0:
            with pytest.raises(ZeroDenominator):
                evaluate_convergent(spec, n)
        else:
            assert evaluate_convergent(spec, n) == nums[n] / dens[n]
        if n >= 1:
            expected = nums[n] * dens[n - 1] - nums[n - 1] * dens[n]
            assert cross_determinant(spec, n) == expected
