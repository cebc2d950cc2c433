"""Classification of purely periodic continued fractions.

One period of coefficients determines a 2x2 matrix M whose powers advance
the convergent pairs by whole periods.  The eigenvalues of M decide
everything: with B(p-1) != 0 the CF converges exactly when the eigenvalues
are equal, or when one strictly dominates and no early convergent sits on
the recessive fixed point x2.  In the latter failure mode the convergents
split between the two fixed points (the classical oscillation), and the
report carries the witness index.

Rational input is classified exactly: the discriminant's sign replaces any
modulus comparison and the fixed-point test is decided in the quadratic
extension field.  Complex floating input is classified with the fixed
relative tolerance `TOLERANCE` = 2^-64 and refuses to guess inside the
undecidable band.
`classify` is the only fixed-point (Thiele) scan; the Galois and conjugate
checks compare its results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .cfcore import PeriodicCF, coefficient_product, convergent_table, iter_pairs
from .errors import (
    DegenerateMatrix,
    InvalidSpec,
    NotIrrational,
    PrecisionExhausted,
    SelfCheckFailure,
    TowerMismatch,
    ZeroStart,
)
from .scalars import (
    ComplexFloat,
    QuadExt,
    Scalar,
    _ctx,
    as_complexfloat,
    is_rational,
    is_zero,
    quadext,
    scalar_div,
)

TOLERANCE = Fraction(1, 2**64)

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


@dataclass(frozen=True)
class PeriodMatrix:
    """M = [[A(p-1), a(p)A(p-2)], [B(p-1), a(p)B(p-2)]] plus trace and det."""

    m11: Scalar
    m12: Scalar
    m21: Scalar
    m22: Scalar

    @property
    def trace(self) -> Scalar:
        return self.m11 + self.m22

    @property
    def det(self) -> Scalar:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, u: Scalar, v: Scalar) -> tuple[Scalar, Scalar]:
        return self.m11 * u + self.m12 * v, self.m21 * u + self.m22 * v

    @property
    def prec(self) -> int:
        """Largest precision of a ComplexFloat entry; 0 when the matrix is exact."""
        prec = 0
        for m in (self.m11, self.m12, self.m21, self.m22):
            if isinstance(m, ComplexFloat) and m.prec > prec:
                prec = m.prec
        return prec


@dataclass(frozen=True)
class EigenSplit:
    """Eigenvalues ordered by modulus, with the fixed points when defined."""

    lambda1: Scalar
    lambda2: Scalar
    modulus_relation: str
    x1: Scalar | None = None
    x2: Scalar | None = None


@dataclass(frozen=True)
class Verdict:
    kind: str
    limit: Scalar | None = None
    q: int | None = None
    sublimit: Scalar | None = None
    condition: str | None = None  # "C1" (repeated) or "C2" (dominant) when convergent

    @property
    def is_convergent(self) -> bool:
        return self.kind == CONVERGENT


@dataclass(frozen=True)
class StolzReport:
    matrix: PeriodMatrix
    eigen: EigenSplit
    verdict: Verdict


@dataclass(frozen=True)
class TrajectoryStep:
    n: int
    u: Scalar
    v: Scalar
    ratio: Scalar | None


@dataclass(frozen=True)
class PowerIterTrajectory:
    steps: list[TrajectoryStep]
    mu1: Scalar
    mu2: Scalar
    case: str


def build_period_matrix(pcf: PeriodicCF) -> PeriodMatrix:
    """Period matrix from the convergent table of one full period."""
    p = pcf.period
    table = convergent_table(pcf, p)
    a_p = pcf.a(p)
    prev, prev2, full = table[p], table[p - 1], table[p + 1]
    matrix = PeriodMatrix(
        m11=prev.num, m12=a_p * prev2.num, m21=prev.den, m22=a_p * prev2.den
    )
    if not matrix.prec:
        b0 = pcf.b(0)
        checks = (
            ("m12 = A(p) - b(0) A(p-1)", matrix.m12 == full.num - b0 * prev.num),
            ("m22 = B(p) - b(0) B(p-1)", matrix.m22 == full.den - b0 * prev.den),
            ("det = (-1)^p a(1)...a(p)",
             matrix.det == (-1) ** p * coefficient_product(pcf, p)),
        )
        for identity, holds in checks:
            if not holds:
                raise SelfCheckFailure(f"period matrix violates {identity}")
    return matrix


def _tolerance_mpf(prec: int):
    return _ctx(prec).fdiv(TOLERANCE.numerator, TOLERANCE.denominator)


def _values_match(x, y) -> bool:
    if isinstance(x, ComplexFloat) or isinstance(y, ComplexFloat):
        prec = max(
            x.prec if isinstance(x, ComplexFloat) else 0,
            y.prec if isinstance(y, ComplexFloat) else 0,
        )
        xf, yf = as_complexfloat(x, prec), as_complexfloat(y, prec)
        tol = _tolerance_mpf(prec)
        return (xf - yf).modulus() <= tol * (xf.modulus() + yf.modulus() + 1)
    return x == y


def eigen_split(matrix: PeriodMatrix) -> EigenSplit:
    """Eigenvalues of the period matrix with |lambda1| >= |lambda2|.

    Exact matrices are split by the sign of the discriminant: positive
    discriminant with nonzero trace gives strict dominance, zero trace gives
    a real pair of equal modulus, negative discriminant gives a conjugate
    pair, zero discriminant a repeated root.  Floating matrices use the
    quadratic formula at the largest entry precision, and the relative
    tolerance `TOLERANCE` for the modulus comparison.
    """
    tr, det = matrix.trace, matrix.det
    if is_zero(det):
        raise DegenerateMatrix("determinant is zero")
    for entry in (matrix.m11, matrix.m12, matrix.m21, matrix.m22):
        if isinstance(entry, QuadExt):
            raise TowerMismatch(
                "eigenvalue split over quadratic-extension entries would need "
                "nested radicals; use the complex tower instead"
            )
    prec = matrix.prec
    if prec:
        lam1, lam2, relation = _eigen_split_float(tr, det, prec)
    else:
        lam1, lam2, relation = _eigen_split_exact(Fraction(tr), Fraction(det))
    x1 = x2 = None
    if not is_zero(matrix.m21):
        x1 = scalar_div(lam1 - matrix.m22, matrix.m21)
        x2 = scalar_div(lam2 - matrix.m22, matrix.m21)
    return EigenSplit(lam1, lam2, relation, x1, x2)


def _eigen_split_exact(tr: Fraction, det: Fraction) -> tuple[Scalar, Scalar, str]:
    disc = tr * tr - 4 * det
    root = quadext(0, 1, disc)  # sqrt(disc): Fraction when disc is square
    if disc > 0 and tr < 0:
        root = -root  # (tr - sqrt(disc))/2 is the dominant root
    if disc == 0:
        relation = EQUAL_REPEATED
    elif disc > 0 and tr != 0:
        relation = STRICTLY_DOMINANT
    else:
        relation = EQUAL_DISTINCT
    return (tr + root) / 2, (tr - root) / 2, relation


def _eigen_split_float(tr: Scalar, det: Scalar, prec: int) -> tuple[Scalar, Scalar, str]:
    tr = as_complexfloat(tr, prec)
    det = as_complexfloat(det, prec)
    disc = tr * tr - 4 * det
    root = disc.sqrt()
    lam1 = (tr + root) / 2
    lam2 = (tr - root) / 2
    if lam1.modulus() < lam2.modulus():
        lam1, lam2 = lam2, lam1
    tol = _tolerance_mpf(prec)
    m1, m2 = lam1.modulus(), lam2.modulus()
    gap = (lam1 - lam2).modulus()
    if gap <= tol * (m1 + m2):
        relation = EQUAL_REPEATED
    elif m1 - m2 <= tol * m1:
        relation = EQUAL_DISTINCT
    else:
        relation = STRICTLY_DOMINANT
    return lam1, lam2, relation


def classify(pcf: PeriodicCF) -> StolzReport:
    """Full convergence verdict for a purely periodic CF.

    Never iterates convergents past one period: the verdict comes from the
    period matrix alone.  Exact input yields an exact verdict; floating
    input raises PrecisionExhausted when the fixed-point test cannot be
    decided at the working tolerance.
    """
    matrix = build_period_matrix(pcf)
    eigen = eigen_split(matrix)
    return StolzReport(matrix, eigen, _verdict(pcf, matrix, eigen))


def _verdict(pcf: PeriodicCF, matrix: PeriodMatrix, eigen: EigenSplit) -> Verdict:
    if is_zero(matrix.m21):
        return Verdict(kind=DIVERGENT_ZERO_DENOMINATOR)
    if eigen.modulus_relation == EQUAL_REPEATED:
        return Verdict(kind=CONVERGENT, limit=eigen.x1, condition="C1")
    if eigen.modulus_relation == EQUAL_DISTINCT:
        return Verdict(kind=DIVERGENT_EQUAL_MODULUS)
    # strict dominance: check whether any early convergent sits on x2
    exact = not matrix.prec
    x2 = eigen.x2
    p = pcf.period
    for q, (num, den) in enumerate(islice(iter_pairs(pcf, 0, p - 2), p - 1)):
        on_x2 = x2 * den
        if is_zero(num - on_x2):
            return Verdict(kind=DIVERGENT_THIELE, q=q, sublimit=x2)
        if not exact and _values_match(num, on_x2):
            raise PrecisionExhausted(
                f"fixed-point test at q={q} is inside the tolerance band; "
                f"raise precision or use an exact tower"
            )
    return Verdict(kind=CONVERGENT, limit=eigen.x1, condition="C2")


def power_iterate(
    matrix: PeriodMatrix, u0: Scalar, v0: Scalar, n_steps: int
) -> PowerIterTrajectory:
    """Exact orbit of (u, v) under repeated multiplication by the matrix.

    Records u/v at every step (None where v vanishes) and the coordinates
    (mu1, mu2) of the start vector in the eigenbasis, which decide the
    limiting behaviour of the ratios.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if is_zero(u0) and is_zero(v0):
        raise ZeroStart("power iteration needs a nonzero start vector")
    if is_zero(matrix.m21):
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
            case = DOMINANT_DEGENERATE if is_zero(mu1) else DOMINANT_GENERIC
        else:
            case = EQUAL_MODULUS
    steps = []
    u, v = u0, v0
    for n in range(n_steps + 1):
        ratio = None if is_zero(v) else scalar_div(u, v)
        steps.append(TrajectoryStep(n, u, v, ratio))
        if n < n_steps:
            u, v = matrix.apply(u, v)
    return PowerIterTrajectory(steps=steps, mu1=mu1, mu2=mu2, case=case)


def reverse_period(pcf: PeriodicCF) -> PeriodicCF:
    """Reverse the period: b'(0) = b(0), b'(k) = b(p-k), a'(k) = a(p+1-k)."""
    a = pcf.a_block
    b = pcf.b_block
    return PeriodicCF(
        a_block=tuple(reversed(a)),
        b_block=(b[0],) + tuple(reversed(b[1:])),
    )


@dataclass(frozen=True)
class GaloisReport:
    alpha: StolzReport
    alpha_prime: StolzReport
    relation_holds: bool


def galois_analysis(pcf: PeriodicCF) -> GaloisReport:
    """Classify a CF and its reversed period, and check the predicted relation.

    The reversed period matrix has the same trace and determinant, so its
    fixed points are b(0) - x2 and b(0) - x1.  When the original converges,
    `relation_holds` is True exactly when the reversed CF's verdict is
    convergent or divergent_thiele, its modulus relation equals the
    original's, and its x1 and x2 match b(0) - x2 and b(0) - x1 (within
    `TOLERANCE` in the complex tower).  The reversed CF then converges to
    b(0) - x2, unless `classify`'s own scan found an early convergent on
    b(0) - x1.  For a CF that does not converge it is True.  It is a
    self-check and should always be True.
    """
    alpha = classify(pcf)
    alpha_prime = classify(reverse_period(pcf))
    if not alpha.verdict.is_convergent:
        return GaloisReport(alpha, alpha_prime, True)
    b0 = pcf.b(0)
    eigen, eigen_prime = alpha.eigen, alpha_prime.eigen
    holds = (
        alpha_prime.verdict.kind in (CONVERGENT, DIVERGENT_THIELE)
        and eigen_prime.modulus_relation == eigen.modulus_relation
        and _values_match(eigen_prime.x1, b0 - eigen.x2)
        and _values_match(eigen_prime.x2, b0 - eigen.x1)
    )
    return GaloisReport(alpha, alpha_prime, holds)


@dataclass(frozen=True)
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
