"""Property tests of the exact towers (field laws, value identity, sign, text
form) and of the recurrence core and the single-pair matrix products against
the independent loop in brute.py, of Tietze certificates against it, and of
the periodic classifier against brute.py's exact simulation."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pytest
from brute import Simulation, decided, matched_verdict, raw_table, sign_of
from cfkit import (
    ComplexFloat,
    ContinuantArgs,
    FiniteCF,
    PeriodicCF,
    QuadExt,
    RuleCF,
    as_complexfloat,
    classify,
    continuant,
    convergent_table,
    evaluate_convergent,
    evaluate_tietze,
    format_exact,
    pair_at,
    parse_exact,
    quadext,
    shifted_table,
)
from cfkit.errors import ZeroDenominator
from cfkit.scalars import scalar_div
from conftest import tail_spec

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
            prev, cur = pair_at(spec, n)
            expected = nums[n] * dens[n - 1] - nums[n - 1] * dens[n]
            assert cur.num * prev.den - prev.num * cur.den == expected


def shifted(spec, k):
    """The tail b(k) + a(k+1)/b(k+1) + ... as a plain rule, for brute.py."""
    return RuleCF(a_rule=lambda j: spec.a(k + j), b_rule=lambda j: spec.b(k + j))


def with_zero_denominator(spec, m):
    """spec with b(m) replaced so that B(m) = 0, when B(m-1) != 0 allows it."""
    dens = [0, *raw_table(spec, m - 1)[1]]  # dens[i] = B(i - 1)
    if dens[m] == 0:
        return spec
    b = list(spec.b_list)
    b[m] = scalar_div(-spec.a(m) * dens[m - 1], dens[m])
    return FiniteCF(a_list=spec.a_list, b_list=b)


@st.composite
def pair_cases(draw):
    """(spec, k, n_max): a finite or periodic CF over the rationals or one
    quadratic field, a shift k, and the last index n_max of the shifted tail."""
    d = draw(radicands)
    coefficient = draw(st.sampled_from([
        small_rationals,
        st.builds(lambda a, b: quadext(a, b, d), small_rationals, small_rationals),
    ]))
    if draw(st.booleans()):
        p = draw(st.integers(1, 4))
        blocks = st.lists(coefficient.filter(bool), min_size=p, max_size=p)
        spec = PeriodicCF(a_block=draw(blocks), b_block=draw(blocks))
        return spec, draw(st.integers(0, 6)), draw(st.integers(0, 20))
    n = draw(st.integers(1, 14))
    spec = FiniteCF(
        a_list=draw(st.lists(coefficient, min_size=n, max_size=n)),
        b_list=draw(st.lists(coefficient, min_size=n + 1, max_size=n + 1)),
    )
    if draw(st.booleans()):
        spec = with_zero_denominator(spec, draw(st.integers(1, n)))
    k = draw(st.integers(0, n))
    return spec, k, n - k


@no_deadline
@given(pair_cases())
@example((PeriodicCF(a_block=(-1,), b_block=(1,)), 1, 8))  # B(2) = B(5) = 0
@example((FiniteCF(a_list=(1, -1, 2), b_list=(1, 1, 1, 3)), 0, 3))  # B(2) = 0
def test_single_pairs_agree_with_brute_loop(case):
    spec, k, n_max = case
    nums, dens = raw_table(shifted(spec, k), n_max)
    nums, dens = [*nums, 1], [*dens, 0]  # index -1 reads the seed (1, 0)
    own = tail_spec(spec, k)
    for n in range(n_max + 1):
        prev, cur = pair_at(own, n)
        assert (prev.n, prev.num, prev.den) == (n - 1, nums[n - 1], dens[n - 1])
        assert (cur.n, cur.num, cur.den) == (n, nums[n], dens[n])
    n_total = k + n_max
    nums, dens = raw_table(spec, n_total)
    for n in range(1, n_total + 1):
        prev, cur = pair_at(spec, n)
        assert cur.num * prev.den - prev.num * cur.den == (
            nums[n] * dens[n - 1] - nums[n - 1] * dens[n]
        )
        for pair in (prev, cur):
            if dens[pair.n] == 0:
                with pytest.raises(ZeroDenominator) as err:
                    pair.value()
                assert err.value.index == pair.n
            else:
                assert pair.value() == scalar_div(nums[pair.n], dens[pair.n])
        # A(n+j) = A(n,j) A(n-1) + a(n) B(n,j) A(n-2), and B likewise
        j = n_total - n
        prev2, prev = pair_at(spec, n - 1)
        tail = pair_at(tail_spec(spec, n), j)[1]
        an = spec.a(n)
        assert tail.num * prev.num + an * tail.den * prev2.num == nums[n_total]
        assert tail.num * prev.den + an * tail.den * prev2.den == dens[n_total]
        far = pair_at(spec, n_total)[1]
        assert far.num * prev.den - prev.num * far.den == (
            nums[n_total] * dens[n - 1] - nums[n - 1] * dens[n_total]
        )


@st.composite
def complex_cases(draw):
    """(spec, k, n_max, prec) with ComplexFloat coefficients at precision prec."""
    prec = draw(st.sampled_from([64, 128, 256]))
    part = st.floats(-9, 9, allow_nan=False)
    coefficient = st.builds(lambda re, im: ComplexFloat(re, im, prec), part, part)
    if draw(st.booleans()):
        p = draw(st.integers(1, 3))
        blocks = st.lists(coefficient.filter(lambda z: z != 0), min_size=p, max_size=p)
        spec = PeriodicCF(a_block=draw(blocks), b_block=draw(blocks))
        return spec, draw(st.integers(0, 4)), draw(st.integers(0, 12), label="n_max"), prec
    n = draw(st.integers(1, 10))
    spec = FiniteCF(
        a_list=draw(st.lists(coefficient, min_size=n, max_size=n)),
        b_list=draw(st.lists(coefficient, min_size=n + 1, max_size=n + 1)),
    )
    k = draw(st.integers(0, n))
    return spec, k, n - k, prec


_TINY_I = (ComplexFloat(0, 1, 64), ComplexFloat(0, 1.2186672347189065e-285, 64))


@no_deadline
@given(complex_cases())
# the Lucas ladder of exact powers would cancel B(4) to -1.2e-285 (1 + i) here
@example((PeriodicCF(a_block=_TINY_I, b_block=_TINY_I), 0, 4, 64))
def test_complex_pairs_agree_with_stream_within_tolerance(case):
    """The product tree rounds in another order than the stream, so the two
    agree to 2**-(prec - 16) relative to the continuant of the coefficients'
    moduli, which bounds every term either order adds up."""
    spec, k, n_max, prec = case
    tail = shifted(spec, k)
    nums, dens = raw_table(tail, n_max)
    moduli = RuleCF(
        a_rule=lambda j: float(tail.a(j).modulus()),
        b_rule=lambda j: float(tail.b(j).modulus()),
    )
    num_scale, den_scale = raw_table(moduli, n_max)
    tolerance = 2.0 ** -(prec - 16)

    def gap(x, y):
        return float(as_complexfloat(x - y, prec).modulus())

    own = tail_spec(spec, k)
    for n in range(n_max + 1):
        cur = pair_at(own, n)[1]
        assert gap(cur.num, nums[n]) <= tolerance * num_scale[n]
        assert gap(cur.den, dens[n]) <= tolerance * den_scale[n]


@st.composite
def periodic_cases(draw):
    """Purely periodic CFs of period 1..4 with coefficients up to +-50: nonzero
    ints, or Gaussian dyadic rationals (re + im i) / 2^k at 128 bits."""
    p = draw(st.integers(1, 4))
    part = st.integers(-50, 50)
    if draw(st.booleans()):
        coefficient = part.filter(bool)
    else:
        scale = 2 ** draw(st.integers(0, 2))
        coefficient = st.tuples(part, part).filter(any).map(
            lambda z: ComplexFloat(z[0] / scale, z[1] / scale, 128)
        )
    blocks = st.lists(coefficient, min_size=p, max_size=p).map(tuple)
    return PeriodicCF(a_block=draw(blocks), b_block=draw(blocks))


# each example simulates 200 periods exactly, so keep the count small
@settings(deadline=None, max_examples=40)
@given(periodic_cases())
def test_classify_agrees_with_the_simulation(pcf):
    report = classify(pcf)
    sim = Simulation(pcf, periods=200)
    assume(decided(sim))
    assert matched_verdict(sim, report), report.verdict


@st.composite
def semiregular_cases(draw):
    """(spec, eps): a semi-regular FiniteCF of 1..30 terms or PeriodicCF of
    period 1..4, and eps = 10**-e for e in 1..40."""
    periodic = draw(st.booleans())
    n = draw(st.integers(1, 4 if periodic else 30))
    a = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))  # a[i] = a(i+1)
    b = [draw(small_rationals)]  # b(0) is unconstrained
    for i in range(1, n + 1):
        a_next = a[i % n] if periodic else (a[i] if i < n else 1)
        low = 1 if a_next == 1 else 2  # b(i) >= 1 and b(i) + a(i+1) >= 1
        b.append(low + draw(st.fractions(0, 3, max_denominator=4)))
    if periodic:  # b(0) = b(p)
        spec = PeriodicCF(a_block=a, b_block=b[n:] + b[1:n])
    else:
        spec = FiniteCF(a_list=a, b_list=b)
    return spec, Fraction(1, 10 ** draw(st.integers(1, 40)))


@settings(deadline=None, max_examples=80)
@given(semiregular_cases())
@example((PeriodicCF(a_block=(-1,), b_block=(2,)), Fraction(1, 10)))  # limit 1 = value - bound
def test_tietze_certificate_encloses_the_value(case):
    spec, eps = case
    if isinstance(spec, PeriodicCF):
        # B(n) may grow only linearly, as for 2 - 1/(2 - ...): keep the specs
        # whose 1/eps is within reach of a few hundred terms
        assume(raw_table(spec, 300)[1][-1] > 10**50 or eps == Fraction(1, 10))
    bounded = evaluate_tietze(spec, eps, max_terms=2000)
    assert bounded.error_bound < eps
    n = bounded.n_used
    if isinstance(spec, PeriodicCF):
        depth, checked = 2 * n + 20, max(n + 1, spec.period + 1)
    else:
        depth = checked = spec.max_index
    assert bounded.checked_up_to == checked
    nums, dens = raw_table(spec, depth)
    assert bounded.value == Fraction(nums[n]) / dens[n]
    if n == spec.max_index:
        assert bounded.error_bound == 0
    # any convergent past n is a Moebius image of a tail in [1, oo)
    assert abs(Fraction(nums[depth]) / dens[depth] - bounded.value) <= bounded.error_bound
