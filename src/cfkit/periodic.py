"""Classification of purely periodic continued fractions.

One period of coefficients determines a 2x2 matrix M whose powers advance
the convergent pairs by whole periods.  The eigenvalues of M decide
everything: with B(p-1) != 0 the CF converges exactly when the eigenvalues
are equal, or when one strictly dominates and no early convergent sits on
the recessive fixed point x2.  In the latter failure mode the convergents
split between the two fixed points (the classical oscillation), and the
report carries the witness index.

Every decision is an exact identity in the entries, tr = m11 + m22 and
D = tr^2 - 4 det: equal moduli exactly when D = 0 or tr^2 conj(D) is a real
<= 0, and A(q) on x2 exactly when w = 2 m21 A(q) - (tr - 2 m22) B(q) has
w^2 = D B(q)^2 and Re(-tr conj(w) B(q)) > 0.  Each is homogeneous, so every
decision reads one integer form c M, c > 0 (`PeriodMatrix.scaled`): complex
input, which is dyadic, is decided on Gaussian integers, and only its values
are rounded, each once.  `classify` is the only fixed-point
(Thiele) scan; the Galois and conjugate checks compare its results.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .cfcore import PeriodicCF, _check_index, recurrence
from .errors import (
    DegenerateMatrix,
    InvalidSpec,
    NotIrrational,
    SelfCheckFailure,
    TowerMismatch,
    ZeroStart,
    record,
)
from .scalars import (
    ComplexFloat,
    QuadExt,
    Scalar,
    _complexfloat_trusted,
    _integer_form,
    _libmp,
    _quadext_trusted,
    _rounded_parts,
    coprime_fraction,
    is_rational,
    scalar_div,
)

STRICTLY_DOMINANT = "strictly_dominant"
EQUAL_DISTINCT = "equal_distinct"
EQUAL_REPEATED = "equal_repeated"

CONVERGENT = "convergent"
DIVERGENT_ZERO_DENOMINATOR = "divergent_zero_denominator"
DIVERGENT_EQUAL_MODULUS = "divergent_equal_modulus"
DIVERGENT_THIELE = "divergent_thiele"

DOMINANT_GENERIC = "dominant_generic"
DOMINANT_DEGENERATE = "dominant_degenerate"
EQUAL_MODULUS = "equal_modulus"
REPEATED = "repeated"


@record
class PeriodMatrix:
    """M = [[A(p-1), a(p)A(p-2)], [B(p-1), a(p)B(p-2)]] plus trace and det.
    `build_period_matrix` sets `scaled`, (c, c m11, c m12, c m21, c m22) with
    c > 0 and each c m integral; `prec`, the largest ComplexFloat precision
    (0 when exact); and `pairs`, c(q) (A(q), B(q)) for q = 0 .. p-2, c(q) > 0."""

    m11: Scalar
    m12: Scalar
    m21: Scalar
    m22: Scalar
    __slots__ = ("__dict__",)  # scaled, prec and pairs
    pairs = ()

    @cached_property
    def scaled(self) -> tuple:
        return _integer_form((self.m11, self.m12, self.m21, self.m22), self.prec)

    @property
    def trace(self) -> Scalar:
        return self.m11 + self.m22

    @property
    def det(self) -> Scalar:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, u: Scalar, v: Scalar) -> tuple[Scalar, Scalar]:
        return self.m11 * u + self.m12 * v, self.m21 * u + self.m22 * v

    @cached_property
    def prec(self) -> int:
        return max((m.prec for m in self._values(self) if isinstance(m, ComplexFloat)), default=0)


@record
class EigenSplit:
    """Eigenvalues ordered by modulus, with the fixed points when defined."""

    lambda1: Scalar
    lambda2: Scalar
    modulus_relation: str
    x1: Scalar | None = None
    x2: Scalar | None = None


@record
class Verdict:
    kind: str
    limit: Scalar | None = None
    q: int | None = None
    sublimit: Scalar | None = None
    condition: str | None = None  # "C1" (repeated) or "C2" (dominant) when convergent

    @property
    def is_convergent(self) -> bool:
        return self.kind == CONVERGENT


@record
class StolzReport:
    matrix: PeriodMatrix
    eigen: EigenSplit
    verdict: Verdict


@record
class TrajectoryStep:
    n: int
    u: Scalar
    v: Scalar
    ratio: Scalar | None


@record
class PowerIterTrajectory:
    steps: tuple[TrajectoryStep, ...]
    mu1: Scalar
    mu2: Scalar
    case: str


def build_period_matrix(pcf: PeriodicCF) -> PeriodMatrix:
    """Period matrix from one exact pass over A(n), B(n) for n = 0 .. p,
    checked by three identities.  A complex period is made Gaussian integer
    here by the equivalence transformation b(n) -> L b(n), a(n) -> L^2 a(n),
    L from `scalars._integer_form`, which keeps the convergents: the pairs
    become L^(n+1) A(n), L^n B(n) and M becomes L^p [[m11, L m12], [m21/L, m22]].
    The pass and its checks run on integers, and each entry is rounded once."""
    p, a_block, b_block, block = pcf.period, pcf.a_block, pcf.b_block, pcf.a_block + pcf.b_block
    prec = max([x.prec for x in block if type(x) is ComplexFloat]) if ComplexFloat in map(type, block) else 0
    if prec:  # L = 1 where every part is an integer, as in all of periodic_long's complex inputs
        scale, *block = _integer_form(block, prec)
        a_block, b_block = [scale * a for a in block[:p]] if scale > 1 else block[:p], block[p:]
    a_p, b0 = a_block[-1], b_block[0]
    # pairs[n + 1] = (A(n), B(n)) for n = -1 .. p, from the terms (a(n), b(n)), n = 1 .. p
    pairs = [(1, 0), *recurrence(b0, zip(a_block, b_block[1:] + b_block[:1]))]
    (a_prev2, b_prev2), (a_prev, b_prev), (a_full, b_full) = pairs[p - 1:]
    m11, m12, m21, m22 = entries = (a_prev, a_p * a_prev2, b_prev, a_p * b_prev2)
    checks = (
        ("m12 = A(p) - b(0) A(p-1)", m12 == a_full - b0 * a_prev),
        ("m22 = B(p) - b(0) B(p-1)", m22 == b_full - b0 * b_prev),
        ("det = (-1)^p a(1)...a(p)", m11 * m22 - m12 * m21 == (-1) ** p * math.prod(a_block)),
    )
    for identity, holds in checks:
        if not holds:
            raise SelfCheckFailure(f"period matrix violates {identity}")
    if prec:  # c = L^p: c m12 = (L a(p)) (L^(p-1) A(p-2)) and c m21 = L (L^(p-1) B(p-1))
        scaled = (scale ** p, m11, block[p - 1] * a_prev2, scale * m21, m22)
        entries = [_complexfloat_trusted(*_rounded_parts(m, scaled[0], prec), prec) for m in scaled[1:]]
        pairs = [(num, scale * den) for num, den in pairs[:p]] if scale > 1 else pairs  # L^(q+1) (A(q), B(q))
    else:
        scaled = _integer_form(entries)
    matrix = PeriodMatrix(*entries)
    object.__setattr__(matrix, "scaled", scaled)
    object.__setattr__(matrix, "prec", prec)
    object.__setattr__(matrix, "pairs", tuple(pairs[1:p]))
    return matrix


def _modulus_relation(disc, z) -> str:
    """Roots (tr +- sqrt(disc))/2 differ in modulus by Re(tr conj(sqrt(disc))),
    which vanishes exactly when z = tr^2 conj(disc) is a real <= 0."""
    if disc == 0:
        return EQUAL_REPEATED
    return EQUAL_DISTINCT if not isinstance(z, QuadExt) and z <= 0 else STRICTLY_DOMINANT


def eigen_split(matrix: PeriodMatrix) -> EigenSplit:
    """Eigenvalues of the period matrix with |lambda1| >= |lambda2|.

    The modulus relation is decided exactly by `_modulus_relation`, and all
    else on the integer form c M (`PeriodMatrix.scaled`): an exact matrix's
    eigenvalues and fixed points come from it exactly.  A floating matrix is
    ordered on it, and its values come from it without cancellation, at the
    largest entry precision: each operand rounded once (`_rounded_parts`), the
    libmp kernels called on raw tuples as the ComplexFloat operators call them,
    and each result wrapped once.
    """
    if QuadExt in map(type, (matrix.m11, matrix.m12, matrix.m21, matrix.m22)):
        raise TowerMismatch("eigenvalue split over quadratic-extension entries would "
                            "need nested radicals; use the complex tower instead")
    (scale, n11, n12, n21, n22), prec = matrix.scaled, matrix.prec
    tr, det = n11 + n22, n11 * n22 - n12 * n21
    if det == 0:
        raise DegenerateMatrix("determinant is zero")
    disc = (tr2 := tr * tr) - 4 * det
    if not prec:
        return _split_integer(scale, tr, disc, n21, n22)
    lib = _libmp()
    z = tr2 * disc.conjugate()  # conj(z) / |tr|^4 = disc / tr^2
    t, relation = _rounded_parts(tr, scale, prec), _modulus_relation(disc, z)
    if relation == STRICTLY_DOMINANT:  # s conj(tr) = |tr|^2 sqrt(disc/tr^2) has Re > 0 exactly
        root = lib.mpc_sqrt(_rounded_parts(z.conjugate(), (tr * tr.conjugate()) ** 2, prec), prec, "n")
        s = lib.mpc_mul(t, root, prec, "n")
    else:
        s = lib.mpc_sqrt(_rounded_parts(disc, scale * scale, prec), prec, "n")
    lam1 = [lib.mpf_shift(x, -1) for x in lib.mpc_add(t, s, prec, "n")]  # no cancellation, exact /2
    values = [lam1, lib.mpc_div(_rounded_parts(det, scale * scale, prec), lam1, prec, "n")]
    if n21 != 0:
        # x = (m11 - m22 +- s)/(2 m21), and u v = 4 m12 m21: divide by the larger of u, v
        d, two_m12, two_m21 = [_rounded_parts(n, scale, prec) for n in (n11 - n22, 2 * n12, 2 * n21)]
        u, v = lib.mpc_add(d, s, prec, "n"), lib.mpc_sub(s, d, prec, "n")
        if lib.mpf_lt(lib.mpc_abs(u, prec, "n"), lib.mpc_abs(v, prec, "n")):
            values += [lib.mpc_div(two_m12, v, prec, "n"), lib.mpc_div(lib.mpc_neg(v), two_m21, prec, "n")]
        else:  # u = 0 only when s = m11 - m22 = 0: a double fixed point at 0
            values += [lib.mpc_div(u, two_m21, prec, "n"),
                       u if u == lib.mpc_zero else lib.mpc_div(lib.mpc_neg(two_m12), u, prec, "n")]
    lam1, lam2, *xs = [_complexfloat_trusted(*z, prec) for z in values]
    return EigenSplit(lam1, lam2, relation, *xs)


def _lowest(num: int, den: int) -> Fraction:  # num/den for ints, den != 0, by one gcd
    g = math.gcd(num, den)
    return coprime_fraction(num // g, den // g)


def _split_integer(scale: int, tr: int, disc: int, n21: int, n22: int) -> EigenSplit:
    """Exact split of M from L*M, its least integer multiple (trace tr, discriminant disc)."""
    sign = -1 if disc > 0 and tr < 0 else 1  # (tr + sign*sqrt(disc))/2 dominates
    root = math.isqrt(disc) if disc > 0 else 0
    if root * root == disc:  # lambda = (tr +- s)/(2 scale), x = (tr +- s - 2 n22)/(2 n21)
        s = sign * root
        values = [_lowest(tr + s, 2 * scale), _lowest(tr - s, 2 * scale)]
        if n21:
            values += [_lowest(tr + s - 2 * n22, 2 * n21), _lowest(tr - s - 2 * n22, 2 * n21)]
    else:
        # sqrt(disc)/scale = sqrt(num*den)/den for disc/scale^2 = num/den in lowest terms
        g = math.gcd(disc, scale * scale)
        num, den = disc // g, scale * scale // g
        parts = [(_lowest(tr, 2 * scale), sign, 2 * den)]
        if n21:
            parts.append((_lowest(tr - 2 * n22, 2 * n21), sign * scale, 2 * n21 * den))
        values = [_quadext_trusted(a, _lowest(b, d), num * den) for a, c, d in parts for b in (c, -c)]
    return EigenSplit(values[0], values[1], _modulus_relation(disc, tr * tr * disc), *values[2:])


def classify(pcf: PeriodicCF) -> StolzReport:
    """Full convergence verdict for a purely periodic CF.

    Never iterates convergents past one period: the verdict comes from the
    period matrix and the pairs of the first period.  It is exact in every
    tower; complex input has its limits reported at the working precision.
    """
    matrix = build_period_matrix(pcf)
    eigen = eigen_split(matrix)
    return StolzReport(matrix, eigen, _verdict(matrix, eigen))


def _verdict(matrix: PeriodMatrix, eigen: EigenSplit) -> Verdict:
    if matrix.scaled[3] == 0:  # c m21
        return Verdict(kind=DIVERGENT_ZERO_DENOMINATOR)
    if eigen.modulus_relation == EQUAL_REPEATED:
        return Verdict(kind=CONVERGENT, limit=eigen.x1, condition="C1")
    if eigen.modulus_relation == EQUAL_DISTINCT:
        return Verdict(kind=DIVERGENT_EQUAL_MODULUS)
    # strict dominance: a rational convergent can sit on x2 only when D is a
    # square, which makes x2 a Fraction; complex input is always scanned
    if type(eigen.x2) in (ComplexFloat, Fraction):
        _, m11, m12, m21, m22 = matrix.scaled
        tr, d, two_m21 = m11 + m22, m11 - m22, 2 * m21
        disc = d * d + 4 * m12 * m21
        for q, (num, den) in enumerate(matrix.pairs):
            # A(q) = x2 B(q) makes w = -sqrt(disc) B(q) with the dominant root's sign
            w = two_m21 * num - d * den  # d = tr - 2 m22
            if w * w == disc * den * den and (r := -tr * w.conjugate() * den) + r.conjugate() > 0:
                return Verdict(kind=DIVERGENT_THIELE, q=q, sublimit=eigen.x2)
    return Verdict(kind=CONVERGENT, limit=eigen.x1, condition="C2")


def power_iterate(
    matrix: PeriodMatrix, u0: Scalar, v0: Scalar, n_steps: int
) -> PowerIterTrajectory:
    """Exact orbit of (u, v) under repeated multiplication by the matrix.

    Records u/v at every step (None where v vanishes) and the coordinates
    (mu1, mu2) of the start vector in the eigenbasis, which decide the
    limiting behaviour of the ratios.
    """
    _check_index(n_steps, 0, "n_steps")
    if u0 == 0 and v0 == 0:
        raise ZeroStart("power iteration needs a nonzero start vector")
    if matrix.m21 == 0:
        raise DegenerateMatrix("matrix must have a nonzero lower-left entry")
    eigen = eigen_split(matrix)
    x1, x2 = eigen.x1, eigen.x2
    if eigen.modulus_relation == EQUAL_REPEATED:
        mu1: Scalar = v0
        mu2 = matrix.m21 * (u0 - v0 * x1)
        case = REPEATED
    else:
        denom = x1 - x2
        mu1 = scalar_div(u0 - v0 * x2, denom)
        mu2 = scalar_div(v0 * x1 - u0, denom)
        if eigen.modulus_relation == STRICTLY_DOMINANT:
            case = DOMINANT_DEGENERATE if mu1 == 0 else DOMINANT_GENERIC
        else:
            case = EQUAL_MODULUS
    steps = []
    u, v = u0, v0
    for n in range(n_steps + 1):
        ratio = None if v == 0 else scalar_div(u, v)
        steps.append(TrajectoryStep(n, u, v, ratio))
        if n < n_steps:
            u, v = matrix.apply(u, v)
    return PowerIterTrajectory(steps=tuple(steps), mu1=mu1, mu2=mu2, case=case)


def reverse_period(pcf: PeriodicCF) -> PeriodicCF:
    """Reverse the period: b'(0) = b(0), b'(k) = b(p-k), a'(k) = a(p+1-k)."""
    a, b = pcf.a_block, pcf.b_block
    return PeriodicCF(a_block=a[::-1], b_block=b[:1] + b[:0:-1])


@record
class GaloisReport:
    alpha: StolzReport
    alpha_prime: StolzReport
    relation_holds: bool


def galois_analysis(pcf: PeriodicCF) -> GaloisReport:
    """Classify a CF and its reversed period, and check the predicted relation.

    The reversed period matrix has the same trace and determinant, so its
    fixed points are b(0) - x2 and b(0) - x1.  When the original converges,
    `relation_holds` is True exactly when the reversed CF's verdict is
    convergent or divergent_thiele with the original's modulus relation, and
    the parts of x = (m11 - m22 +- sqrt(D)) / (2 m21) match exactly in either
    tower: the two matrices' own trace, det and m21 agree, and their rational
    parts add up to b(0).  The reversed CF then converges to b(0) - x2, unless
    `classify`'s own scan found an early convergent on b(0) - x1.  For a CF
    that does not converge it is True.  It is a self-check: always True.
    """
    alpha = classify(pcf)
    alpha_prime = classify(reverse_period(pcf))
    if not alpha.verdict.is_convergent:
        return GaloisReport(alpha, alpha_prime, True)
    c, m11, m12, m21, m22 = alpha.matrix.scaled
    d, n11, n12, n21, n22 = alpha_prime.matrix.scaled
    den, b0 = _integer_form(pcf.b_block[:1], alpha.matrix.prec)
    g = math.gcd(c, d)
    c, d = c // g, d // g  # each side at lcm(c, d), where c M and d N are integral
    holds = (
        alpha_prime.verdict.kind in (CONVERGENT, DIVERGENT_THIELE)
        and alpha_prime.eigen.modulus_relation == alpha.eigen.modulus_relation
        and c * n21 == d * m21
        and c * (n11 + n22) == d * (m11 + m22)
        and c * c * (n11 * n22 - n12 * n21) == d * d * (m11 * m22 - m12 * m21)
        and den * (c * (n11 - n22) + d * (m11 - m22)) == 2 * b0 * d * m21
    )
    return GaloisReport(alpha, alpha_prime, holds)


@record
class ConjugateReport:
    is_quadratic: bool
    alpha: Scalar
    conjugate: Scalar
    identity_verified: bool


def _require_integers(pcf: PeriodicCF):
    for name, block in (("a", pcf.a_block), ("b", pcf.b_block)):
        for value in block:
            if not (is_rational(value) and value.denominator == 1):
                raise TowerMismatch(
                    f"conjugate analysis needs integer coefficients, "
                    f"got {name}-coefficient {value!r}"
                )


def conjugate_check(pcf: PeriodicCF) -> ConjugateReport:
    """Verify the conjugate relations of a convergent integer periodic CF.

    The limit must be a quadratic irrational alpha; its field conjugate is
    then x2, the reversed period converges to b(0) - conjugate, and when
    every a(n) equals a = 1 (regular) or a = -1 (negative) the CF with the
    b-block in descending order converges to -a/conjugate.
    """
    _require_integers(pcf)
    record = galois_analysis(pcf)
    report, reversed_verdict = record.alpha, record.alpha_prime.verdict
    if not report.verdict.is_convergent:
        raise InvalidSpec("conjugate analysis needs a convergent CF")
    alpha = report.verdict.limit
    if is_rational(alpha):
        raise NotIrrational(f"limit {alpha} is rational")
    conjugate = alpha.conjugate()
    checks = [
        report.eigen.x2 == conjugate,
        reversed_verdict.is_convergent
        and reversed_verdict.limit - pcf.b(0) == -conjugate,
    ]
    a = pcf.a_block[0]
    if a in (1, -1) and all(value == a for value in pcf.a_block):
        p = pcf.period
        descending = tuple(pcf.b(p - 1 - i) for i in range(p))
        verdict = classify(PeriodicCF(a_block=pcf.a_block, b_block=descending)).verdict
        checks.append(verdict.is_convergent and verdict.limit == -a / conjugate)
    return ConjugateReport(
        is_quadratic=True,
        alpha=alpha,
        conjugate=conjugate,
        identity_verified=all(checks),
    )
