"""Independent brute-force oracle for periodic CF behaviour.

Runs the convergent recurrence for a fixed number of periods in exact
arithmetic and decides, from the trajectory alone, whether the observed
behaviour matches a claimed verdict.  Nothing here looks at eigenvalues or
period matrices; residue-class tails are judged by three data-driven tests:

  * settled: the last 20 defined convergents all sit within 1e-6 of a value;
  * exact Moebius-in-n tail: a linear-fractional function of the step index
    fitted through three tail points reproduces every other tail point
    exactly (this captures the slow 1/n approach of the repeated-eigenvalue
    case and yields its limit exactly);
  * otherwise the class oscillates.

Comparisons are exact integer/rational arithmetic throughout, which is
strictly stronger than evaluating at any fixed float precision.

Complex-tower input is simulated exactly too: each ComplexFloat coefficient
holds dyadic rationals, which become a `Gaussian` here through mpmath's own
`to_rational`, and the trajectory runs over Q(i).  Its claimed limits are
floats at the working precision, so they are matched within TOL_CONV.

A claimed irrational limit a + b*sqrt(d) is judged by `surd_sign`, the exact
sign of such a value worked out from its rational parts with Fractions alone.
It uses none of cfkit's arithmetic (and cfkit's QuadExt defines no order), so
a limit is checked by code that shares nothing with the code that computed
it.  `sign_of` and `abs_lt` lift it to ints, Fractions and QuadExt values
for the tests.
"""

import math
from fractions import Fraction
from itertools import combinations

from mpmath.libmp import to_rational

from cfkit.scalars import ComplexFloat, QuadExt

TOL_CONV = Fraction(1, 10**6)
TOL_SPLIT = Fraction(1, 10**3)


def _sgn(x):
    return (x > 0) - (x < 0)


def surd_sign(a, b, d):
    """Exact sign of a + b*sqrt(d) for rational a, b and an integer d >= 0.

    With a and b of one sign, or either of them zero, the sign shows at once;
    otherwise the value takes a's sign exactly when a^2 > b^2 d."""
    sa, sb = _sgn(a), _sgn(b) if d else 0
    if sa * sb >= 0:
        return sa or sb
    return sa * _sgn(a * a - b * b * d)


def surd_abs_lt(a, b, d, bound):
    """Exact test |a + b*sqrt(d)| < bound; a complex value when d < 0."""
    if d < 0:  # |a + b i sqrt(-d)|^2 = a^2 - b^2 d
        return bound > 0 and a * a - b * b * d < bound * bound
    return surd_sign(bound - a, -b, d) > 0 and surd_sign(bound + a, b, d) > 0


def _parts(x):
    """(a, b, d) with x = a + b*sqrt(d), for an int, a Fraction or a QuadExt."""
    if isinstance(x, QuadExt):
        return x.a, x.b, x.d
    if isinstance(x, (int, Fraction)):
        return Fraction(x), 0, 0
    raise TypeError(f"no exact value for {type(x).__name__}")


def sign_of(x):
    """Exact sign of an int, a Fraction or a real QuadExt."""
    a, b, d = _parts(x)
    if d < 0:
        raise TypeError("complex quadratic values are not ordered")
    return surd_sign(a, b, d)


def abs_lt(x, bound):
    """Exact test |x| < bound for a rational bound and an int, a Fraction or a
    QuadExt x, complex when its d < 0."""
    return surd_abs_lt(*_parts(x), Fraction(bound))


def raw_table(spec, n_max):
    """Plain (A, B) lists for indices 0..n_max, no dataclass overhead."""
    a_prev2, a_prev = 1, spec.b(0)
    b_prev2, b_prev = 0, 1
    nums = [a_prev]
    dens = [b_prev]
    for n in range(1, n_max + 1):
        an, bn = spec.a(n), spec.b(n)
        a_cur = bn * a_prev + an * a_prev2
        b_cur = bn * b_prev + an * b_prev2
        nums.append(a_cur)
        dens.append(b_cur)
        a_prev2, a_prev = a_prev, a_cur
        b_prev2, b_prev = b_prev, b_cur
    return nums, dens


class Gaussian:
    """Exact re + im*i with rational parts, written apart from cfkit's towers."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = re, im  # ints or Fractions

    @staticmethod
    def of(x):
        if isinstance(x, Gaussian):
            return x
        if isinstance(x, ComplexFloat):
            re, im = (Fraction(*to_rational(part._mpf_)) for part in (x.re, x.im))
            return Gaussian(re, im)
        return Gaussian(x)

    def __add__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __sub__(self, other):
        return self + -Gaussian.of(other)

    def __mul__(self, other):
        other = Gaussian.of(other)
        return Gaussian(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Gaussian.of(other)
        norm = other.norm()
        return self * Gaussian(Fraction(other.re, norm), Fraction(-other.im, norm))

    def __eq__(self, other):
        other = Gaussian.of(other)
        return self.re == other.re and self.im == other.im

    __hash__ = None

    def norm(self):
        return self.re * self.re + self.im * self.im


def parts(x):
    return (x.re, x.im) if isinstance(x, Gaussian) else (x,)


def times(x, c):
    """c * x as an int, or as a Gaussian with int parts; c clears x's denominators."""
    if isinstance(x, Gaussian):
        return Gaussian(int(x.re * c), int(x.im * c))
    return int(x * c)


def ratio(num, den):
    if isinstance(num, Gaussian) or isinstance(den, Gaussian):
        return num / den
    return Fraction(num, den)


def within(num, den, x, tol):
    """Exact test |num/den - x| < tol (den != 0)."""
    if isinstance(x, QuadExt):
        return surd_abs_lt(Fraction(num, den) - x.a, -x.b, x.d, tol)
    if isinstance(x, (Gaussian, ComplexFloat)) or isinstance(num, Gaussian):
        gap = Gaussian.of(num) - Gaussian.of(x) * den
        return gap.norm() < tol * tol * Gaussian.of(den).norm()
    x = Fraction(x)
    lhs = abs(num * x.denominator - x.numerator * den) * tol.denominator
    return lhs < tol.numerator * abs(den) * x.denominator


class Simulation:
    """Exact convergent trajectory of a periodic CF over `periods` periods."""

    def __init__(self, pcf, periods=200):
        self.p = pcf.period
        self.periods = periods
        n_max = periods * self.p + self.p - 1
        a_block, b_block = pcf.a_block, pcf.b_block
        gaussian = any(isinstance(x, ComplexFloat) for x in a_block + b_block)
        if gaussian:
            a_block, b_block = tuple(map(Gaussian.of, a_block)), tuple(map(Gaussian.of, b_block))
        c = math.lcm(*(Fraction(part).denominator for x in a_block + b_block for part in parts(x)))
        if c == 1 and not gaussian:
            self.nums, self.dens = raw_table(pcf, n_max)
            return
        # equivalence transformation b -> c b, a -> c^2 a, which makes every
        # coefficient an integer (Gaussian for complex input): A'(n) = c^(n+1) A(n)
        # and B'(n) = c^n B(n), so (A'(n), c B'(n)) is (A(n), B(n)) times
        # c^(n+1), and every test below is unchanged by such a factor
        scaled = type(pcf)(
            a_block=tuple(times(a, c * c) for a in a_block),
            b_block=tuple(times(b, c) for b in b_block),
        )
        self.nums, dens = raw_table(scaled, n_max)
        self.dens = [den * c for den in dens]

    def defined_tail(self, count):
        """Last `count` defined convergents as (num, den), newest last."""
        out = []
        for i in range(len(self.nums) - 1, -1, -1):
            if self.dens[i] != 0:
                out.append((self.nums[i], self.dens[i]))
                if len(out) == count:
                    break
        return out[::-1]

    def class_points(self, q):
        """Defined (step, num, den) samples of residue class q."""
        pts = []
        for n in range(self.periods + 1):
            i = n * self.p + q
            if i < len(self.nums) and self.dens[i] != 0:
                pts.append((n, self.nums[i], self.dens[i]))
        return pts

    def class_size(self, q):
        return sum(
            1 for n in range(self.periods + 1) if n * self.p + q < len(self.nums)
        )

    def fully_undefined(self, q):
        return not self.class_points(q)

    def undefined_count(self, q):
        return self.class_size(q) - len(self.class_points(q))


def class_is_constant(points):
    if not points:
        return False
    _, a0, b0 = points[0]
    return all(a * b0 == a0 * b for _, a, b in points)


def moebius_tail_limit(points, tail=60):
    """Exact limit of a tail that is a linear-fractional function of the step.

    Fits (P + Q n)/(R + S n) through three spread tail points and verifies
    the fit on every other tail point exactly.  Returns the limit Q/S as a
    Fraction (a Gaussian for complex input), or None when the tail is not of
    this shape.
    """
    pts = points[-tail:]
    if len(pts) < 10:
        return None
    samples = [(Fraction(n), ratio(a, b)) for n, a, b in pts]
    n1, v1 = samples[0]
    n2, v2 = samples[len(samples) // 2]
    n3, v3 = samples[-1]
    # rows of the homogeneous system in (Q, R, S) after eliminating P
    r2 = (n2 - n1, -(v2 - v1), -(v2 * n2 - v1 * n1))
    r3 = (n3 - n1, -(v3 - v1), -(v3 * n3 - v1 * n1))
    q_coef = r2[1] * r3[2] - r2[2] * r3[1]
    r_coef = r2[2] * r3[0] - r2[0] * r3[2]
    s_coef = r2[0] * r3[1] - r2[1] * r3[0]
    if s_coef == 0:
        return None
    p_coef = v1 * r_coef + v1 * n1 * s_coef - q_coef * n1
    for n, v in samples:
        denom = r_coef + s_coef * n
        if denom == 0 or v * denom != p_coef + q_coef * n:
            return None
    return q_coef / s_coef


def matches_convergent(sim, x1):
    """All classes head to x1: fast geometric settling or exact Moebius drift."""
    tail = sim.defined_tail(20)
    if len(tail) == 20 and all(within(a, b, x1, TOL_CONV) for a, b in tail):
        return True
    for q in range(sim.p):
        points = sim.class_points(q)
        if sim.undefined_count(q) > 1:
            return False
        if class_is_constant(points):
            _, a0, b0 = points[0]
            if not at_point(a0, b0, x1):
                return False
            continue
        limit = moebius_tail_limit(points)
        if limit is None or not at_point(limit, 1, x1):
            return False
    return True


def at_point(num, den, x):
    """num/den is the claimed point x: exactly for an exact claim, within
    TOL_CONV for a complex-tower claim made at the working precision."""
    if isinstance(x, ComplexFloat):
        return within(num, den, x, TOL_CONV)
    return not isinstance(x, QuadExt) and ratio(num, den) == x


def matches_thiele(sim, q, x2, x1):
    """Class q pinned exactly at x2 while the last class settles at x1."""
    points = sim.class_points(q)
    if len(points) != sim.class_size(q) or not class_is_constant(points):
        return False
    _, a0, b0 = points[0]
    if not at_point(a0, b0, x2):  # never an irrational x2 for rational convergents
        return False
    last_class = sim.class_points(sim.p - 1)[-10:]
    if len(last_class) < 10:
        return False
    if not all(within(a, b, x1, TOL_CONV) for _, a, b in last_class):
        return False
    return x1 != x2


def matches_equal_modulus(sim):
    """No settling: the last residue class keeps hitting zeros or oscillates."""
    q = sim.p - 1
    if sim.fully_undefined(q):
        return False
    if sim.undefined_count(q) >= 2:
        return True  # undefined convergents recur, so there is no limit
    points = sim.class_points(q)
    if class_is_constant(points):
        return False
    return spreads(points[-30:])


def spreads(points):
    """Two of the points' values lie more than TOL_SPLIT apart."""
    values = [ratio(a, b) for _, a, b in points]
    if isinstance(values[0], Gaussian):
        return any((u - v).norm() > TOL_SPLIT**2 for u, v in combinations(values, 2))
    return max(values) - min(values) > TOL_SPLIT


def reach(points):
    """Largest squared distance of a point's value from the last one's."""
    values = [ratio(a, b) for _, a, b in points]
    if isinstance(values[0], Gaussian):
        return max((v - values[-1]).norm() for v in values)
    return max((v - values[-1]) ** 2 for v in values)


def decided(sim):
    """Whether 200 periods show the last residue class's fate at all: it is
    undefined, constant, settled within TOL_CONV/2, an exact Moebius tail,
    or spread past TOL_SPLIT at least 0.9 times as widely as 150 periods
    before.  A dominant root only slightly larger in modulus than the other
    leaves none of these within reach: its tail still spreads, but narrows
    geometrically, by |lambda2/lambda1|^150 < 0.9 over 150 periods once that
    ratio is below 0.9993.  A property test skips such a case rather than
    judge it."""
    q = sim.p - 1
    points = sim.class_points(q)
    if sim.undefined_count(q) >= 2 or len(points) < 30 or class_is_constant(points):
        return True
    _, a, b = points[-1]
    last = ratio(a, b)
    if all(within(a, b, last, TOL_CONV / 2) for _, a, b in points[-20:]):
        return True
    if spreads(points[-30:]) and 100 * reach(points[-30:]) > 81 * reach(points[-180:-150]):
        return True
    return moebius_tail_limit(points) is not None


def matches_zero_denominator(sim):
    return sim.fully_undefined(sim.p - 1)


def matched_verdict(sim, report):
    """Does the simulated behaviour support this classification report?"""
    verdict = report.verdict
    kind = verdict.kind
    if kind == "convergent":
        return matches_convergent(sim, verdict.limit)
    if kind == "divergent_thiele":
        return matches_thiele(sim, verdict.q, verdict.sublimit, report.eigen.x1)
    if kind == "divergent_equal_modulus":
        return matches_equal_modulus(sim)
    if kind == "divergent_zero_denominator":
        return matches_zero_denominator(sim)
    raise ValueError(f"unknown verdict kind {kind!r}")
