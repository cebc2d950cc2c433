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
extension field.  Complex floating input is classified with an explicit
relative tolerance and refuses to guess inside the undecidable band.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cfcore import PeriodicCF, coefficient_product, convergent_table
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

DEFAULT_TOLERANCE = Fraction(1, 2**64)

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

    def is_exact(self) -> bool:
        return not any(
            isinstance(m, ComplexFloat) for m in (self.m11, self.m12, self.m21, self.m22)
        )


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
    eigen: EigenSplit | None
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
    if matrix.is_exact():
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


def _float_entries(matrix: PeriodMatrix) -> int:
    precs = [
        m.prec for m in (matrix.m11, matrix.m12, matrix.m21, matrix.m22)
        if isinstance(m, ComplexFloat)
    ]
    return max(precs) if precs else 0


def _tolerance_mpf(tolerance: Fraction, prec: int):
    ctx = _ctx(prec)
    return ctx.fdiv(tolerance.numerator, tolerance.denominator)


def eigen_split(
    matrix: PeriodMatrix, tolerance: Fraction | None = None
) -> EigenSplit:
    """Eigenvalues of the period matrix with |lambda1| >= |lambda2|.

    Exact matrices are split by the sign of the discriminant: positive
    discriminant with nonzero trace gives strict dominance, zero trace gives
    a real pair of equal modulus, negative discriminant gives a conjugate
    pair, zero discriminant a repeated root.  Floating matrices use the
    quadratic formula and a relative tolerance for the modulus comparison.
    """
    tolerance = DEFAULT_TOLERANCE if tolerance is None else Fraction(tolerance)
    for entry in (matrix.m11, matrix.m12, matrix.m21, matrix.m22):
        if isinstance(entry, QuadExt):
            raise TowerMismatch(
                "eigenvalue split over quadratic-extension entries would need "
                "nested radicals; use the complex tower instead"
            )
    if matrix.is_exact():
        return _eigen_split_exact(matrix)
    return _eigen_split_float(matrix, tolerance)


def _eigen_split_exact(matrix: PeriodMatrix) -> EigenSplit:
    tr = Fraction(matrix.trace)
    det = Fraction(matrix.det)
    if det == 0:
        raise DegenerateMatrix("determinant is zero")
    disc = tr * tr - 4 * det
    if disc == 0:
        lam: Scalar = tr / 2
        lam1, lam2 = lam, lam
        relation = EQUAL_REPEATED
    else:
        root = quadext(0, 1, disc)  # sqrt(disc): Fraction when disc is square
        if disc > 0:
            if tr > 0:
                lam1, lam2 = (tr + root) / 2, (tr - root) / 2
                relation = STRICTLY_DOMINANT
            elif tr < 0:
                lam1, lam2 = (tr - root) / 2, (tr + root) / 2
                relation = STRICTLY_DOMINANT
            else:
                lam1, lam2 = root / 2, -root / 2
                relation = EQUAL_DISTINCT
        else:
            lam1, lam2 = (tr + root) / 2, (tr - root) / 2
            relation = EQUAL_DISTINCT
    x1 = x2 = None
    if not is_zero(matrix.m21):
        x1 = scalar_div(lam1 - matrix.m22, matrix.m21)
        x2 = scalar_div(lam2 - matrix.m22, matrix.m21)
    return EigenSplit(lam1, lam2, relation, x1, x2)


def _eigen_split_float(matrix: PeriodMatrix, tolerance: Fraction) -> EigenSplit:
    prec = _float_entries(matrix)
    tr = as_complexfloat(matrix.trace, prec)
    det = as_complexfloat(matrix.det, prec)
    if det.is_zero:
        raise DegenerateMatrix("determinant is zero")
    disc = tr * tr - 4 * det
    root = disc.sqrt()
    lam1 = (tr + root) / 2
    lam2 = (tr - root) / 2
    if lam1.modulus() < lam2.modulus():
        lam1, lam2 = lam2, lam1
    tol = _tolerance_mpf(tolerance, prec)
    m1, m2 = lam1.modulus(), lam2.modulus()
    gap = (lam1 - lam2).modulus()
    if gap <= tol * (m1 + m2):
        relation = EQUAL_REPEATED
    elif m1 - m2 <= tol * m1:
        relation = EQUAL_DISTINCT
    else:
        relation = STRICTLY_DOMINANT
    x1 = x2 = None
    if not is_zero(matrix.m21):
        m21 = as_complexfloat(matrix.m21, prec)
        m22 = as_complexfloat(matrix.m22, prec)
        x1 = (lam1 - m22) / m21
        x2 = (lam2 - m22) / m21
    return EigenSplit(lam1, lam2, relation, x1, x2)


def classify(
    pcf: PeriodicCF, tolerance: Fraction | None = None
) -> StolzReport:
    """Full convergence verdict for a purely periodic CF.

    Never iterates convergents past one period: the verdict comes from the
    period matrix alone.  Exact input yields an exact verdict; floating
    input raises PrecisionExhausted when the fixed-point test cannot be
    decided at the working tolerance.
    """
    matrix = build_period_matrix(pcf)
    exact = matrix.is_exact()
    eigen = eigen_split(matrix, tolerance)
    if is_zero(matrix.m21):
        return StolzReport(matrix, eigen, Verdict(kind=DIVERGENT_ZERO_DENOMINATOR))
    if eigen.modulus_relation == EQUAL_REPEATED:
        return StolzReport(
            matrix, eigen, Verdict(kind=CONVERGENT, limit=eigen.x1, condition="C1")
        )
    if eigen.modulus_relation == EQUAL_DISTINCT:
        return StolzReport(matrix, eigen, Verdict(kind=DIVERGENT_EQUAL_MODULUS))
    # strict dominance: check whether any early convergent sits on x2
    p = pcf.period
    if p >= 2:
        table = convergent_table(pcf, p - 2)
        tolerance = DEFAULT_TOLERANCE if tolerance is None else Fraction(tolerance)
        for q in range(0, p - 1):
            pair = table[q + 1]
            test = pair.num - eigen.x2 * pair.den
            if is_zero(test):
                return StolzReport(
                    matrix,
                    eigen,
                    Verdict(kind=DIVERGENT_THIELE, q=q, sublimit=eigen.x2),
                )
            if not exact:
                prec = test.prec
                tol = _tolerance_mpf(tolerance, prec)
                scale = (
                    as_complexfloat(pair.num, prec).modulus()
                    + (eigen.x2 * pair.den).modulus()
                    + 1
                )
                if test.modulus() <= tol * scale:
                    raise PrecisionExhausted(
                        f"fixed-point test at q={q} is inside the tolerance band; "
                        f"raise precision or use an exact tower"
                    )
    return StolzReport(
        matrix, eigen, Verdict(kind=CONVERGENT, limit=eigen.x1, condition="C2")
    )


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
    if is_zero(matrix.det):
        raise DegenerateMatrix("determinant is zero")
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


def _values_match(x, y, tolerance: Fraction) -> bool:
    if isinstance(x, ComplexFloat) or isinstance(y, ComplexFloat):
        prec = max(
            x.prec if isinstance(x, ComplexFloat) else 0,
            y.prec if isinstance(y, ComplexFloat) else 0,
        )
        xf, yf = as_complexfloat(x, prec), as_complexfloat(y, prec)
        tol = _tolerance_mpf(tolerance, prec)
        return (xf - yf).modulus() <= tol * (xf.modulus() + yf.modulus() + 1)
    return x == y


def galois_analysis(
    pcf: PeriodicCF, tolerance: Fraction | None = None
) -> GaloisReport:
    """Classify a CF and its reversed period, and check the predicted relation.

    When the original converges, the reversed period must converge to
    b(0) - x2 unless the dominant case trips the reversed fixed-point test,
    in which case the reversed CF oscillates.  `relation_holds` records that
    the observed verdicts agree with this prediction; it is a self-check and
    should always be True.
    """
    tol = DEFAULT_TOLERANCE if tolerance is None else Fraction(tolerance)
    alpha = classify(pcf, tolerance)
    reversed_pcf = reverse_period(pcf)
    alpha_prime = classify(reversed_pcf, tolerance)
    if not alpha.verdict.is_convergent:
        return GaloisReport(alpha, alpha_prime, True)
    b0 = pcf.b(0)
    x1, x2 = alpha.eigen.x1, alpha.eigen.x2
    expected_limit = b0 - x2
    exception_q: int | None = None
    if alpha.eigen.modulus_relation == STRICTLY_DOMINANT and pcf.period >= 2:
        table = convergent_table(reversed_pcf, pcf.period - 2)
        recessive = b0 - x1  # the reversed CF's own recessive fixed point
        for q in range(0, pcf.period - 1):
            pair = table[q + 1]
            if is_zero(pair.num - recessive * pair.den):
                exception_q = q
                break
    if exception_q is not None:
        holds = (
            alpha_prime.verdict.kind == DIVERGENT_THIELE
            and alpha_prime.verdict.q == exception_q
            and _values_match(alpha_prime.verdict.sublimit, b0 - x1, tol)
        )
    else:
        holds = alpha_prime.verdict.is_convergent and _values_match(
            alpha_prime.verdict.limit, expected_limit, tol
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
            ok = isinstance(value, int) or (
                isinstance(value, Fraction) and value.denominator == 1
            )
            if not ok:
                raise TowerMismatch(
                    f"conjugate analysis needs integer coefficients, "
                    f"got {name}-coefficient {value!r}"
                )


def conjugate_check(pcf: PeriodicCF) -> ConjugateReport:
    """Verify the conjugate relations of a convergent integer periodic CF.

    The limit must be a quadratic irrational alpha; its field conjugate is
    then x2, the reversed period converges to b(0) - conjugate, and for
    regular (all a = 1) and negative (all a = -1) CFs the classical
    reciprocal identities are checked against the reversed-block CF.
    """
    _require_integers(pcf)
    report = classify(pcf)
    if not report.verdict.is_convergent:
        raise InvalidSpec("conjugate analysis needs a convergent CF")
    alpha = report.verdict.limit
    if is_rational(alpha):
        raise NotIrrational(f"limit {alpha} is rational")
    conjugate = alpha.conjugate()
    checks = [report.eigen.x2 == conjugate]

    reversed_report = classify(reverse_period(pcf))
    b0 = pcf.b(0)
    checks.append(
        reversed_report.verdict.is_convergent
        and reversed_report.verdict.limit - b0 == -conjugate
    )

    p = pcf.period
    descending = tuple(pcf.b(p - 1 - i) for i in range(p))
    if all(a == 1 for a in pcf.a_block):
        galois_cf = PeriodicCF(a_block=(1,) * p, b_block=descending)
        galois_report = classify(galois_cf)
        checks.append(
            galois_report.verdict.is_convergent
            and galois_report.verdict.limit == -(1 / conjugate)
        )
    elif all(a == -1 for a in pcf.a_block):
        mobius_cf = PeriodicCF(a_block=(-1,) * p, b_block=descending)
        mobius_report = classify(mobius_cf)
        checks.append(
            mobius_report.verdict.is_convergent
            and mobius_report.verdict.limit == 1 / conjugate
        )
    return ConjugateReport(
        is_quadratic=True,
        alpha=alpha,
        conjugate=conjugate,
        identity_verified=all(checks),
    )
