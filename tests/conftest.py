import math
import random
from fractions import Fraction

import pytest

from cfkit import FiniteCF, PeriodicCF, RuleCF


def tail_spec(spec, k):
    """The tail b(k) + a(k+1)/b(k+1) + ... as a spec of its own kind: a finite
    CF sliced, a periodic one with both blocks rotated by k mod p, a rule shifted."""
    if isinstance(spec, FiniteCF):
        return FiniteCF(a_list=spec.a_list[k:], b_list=spec.b_list[k:])
    if isinstance(spec, PeriodicCF):
        r = k % spec.period
        return PeriodicCF(a_block=spec.a_block[r:] + spec.a_block[:r],
                          b_block=spec.b_block[r:] + spec.b_block[:r])
    return RuleCF(a_rule=lambda j: spec.a(k + j), b_rule=lambda j: spec.b(k + j))


def golden_cf():
    return PeriodicCF(a_block=(1,), b_block=(1,))


def footnote_cf():
    """The all-twos negative CF whose value is exactly 1."""
    return PeriodicCF(a_block=(-1,), b_block=(2,))


def thiele_cf():
    """Period-3 oscillating instance with accumulation points 2 and 1."""
    return PeriodicCF(a_block=(-3, 1, 1), b_block=(1, -1, -1))


def equal_modulus_cf():
    return PeriodicCF(a_block=(-1,), b_block=(1,))


def nonzero_int(rng, lo=-5, hi=5):
    while True:
        value = rng.randint(lo, hi)
        if value != 0:
            return value


def random_finite(rng, n, lo=-5, hi=5):
    return FiniteCF(
        a_list=tuple(nonzero_int(rng, lo, hi) for _ in range(n)),
        b_list=tuple(nonzero_int(rng, lo, hi) for _ in range(n + 1)),
    )


def random_periodic(rng, p, lo=-3, hi=3):
    return PeriodicCF(
        a_block=tuple(nonzero_int(rng, lo, hi) for _ in range(p)),
        b_block=tuple(nonzero_int(rng, lo, hi) for _ in range(p)),
    )


def random_fraction_periodic(rng, p, lo=-7, hi=7):
    """Periodic CF whose coefficients are Fractions n/d with d in 2..7, so
    that its period matrix has Fraction entries."""
    draw = lambda: Fraction(nonzero_int(rng, lo, hi), rng.randint(2, 7))
    return PeriodicCF(
        a_block=tuple(draw() for _ in range(p)),
        b_block=tuple(draw() for _ in range(p)),
    )


def random_semiregular(rng, length, b_hi=4):
    """Random semi-regular coefficients: a(n) in {-1, 1}, rational b(n) in [lo, b_hi].

    a holds indices 1..length+1 and b holds 0..length+1, so the conditions
    are checkable for n = 1..length.
    """
    a = [rng.choice((-1, 1)) for _ in range(length + 1)]  # a[i] = a(i+1)
    b = [1]  # b(0) is unconstrained
    for n in range(1, length + 2):
        a_next = a[n] if n < len(a) else None
        lo = 1 if a_next == 1 else 2  # b(n) + a(n+1) >= 1, conservative at the end
        den = rng.randint(1, 8)
        num = rng.randint(0, (b_hi - lo) * den)
        b.append(lo + Fraction(num, den))
    return FiniteCF(a_list=tuple(a), b_list=tuple(b))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def gcd_bits(monkeypatch):
    """The bit length of the widest argument of each math.gcd call made
    while the test runs; Fraction reduces through math.gcd."""
    widest = []
    gcd = math.gcd

    def counted(*args):
        widest.append(max((abs(x).bit_length() for x in args), default=0))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", counted)
    return widest
