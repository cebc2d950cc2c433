"""Semi-regular continued fractions: validation, growth certificates, evaluation.

A CF is semi-regular when a(n) is +1 or -1, b(n) >= 1 and b(n) + a(n+1) >= 1
for every n >= 1 (b(0) is unconstrained).  Under these conditions every tail
x(n+1) = b(n+1) + a(n+2)/x(n+2) lies in [1, oo] and the denominators B(n) are
positive and grow without bound, so the value is the Moebius image

    (A(n) x(n+1) + a(n+1) A(n-1)) / (B(n) x(n+1) + a(n+1) B(n-1))

of [1, oo].  Since A(n) B(n-1) - A(n-1) B(n) = +-1, that image is an interval
with one end at A(n)/B(n), the image of oo, and width

    1 / (B(n) (B(n) + a(n+1) B(n-1))),

about the square of the window bound 1/B(n-1) on
|A(n+k)/B(n+k) - A(n-1)/B(n-1)|, so a value can be returned together with a
certified error bound.  The bound needs the conditions on every term of the
tail, so `evaluate_tietze` checks all of a finite CF and p + 1 terms of a
periodic CF of period p; an unbounded rule is checked on the terms read, and
beyond them its semi-regularity is a premise.  The conditions are written
twice: inline in `evaluate_tietze`'s loop, which tests each term as it steps
the recurrence, and in `_check_terms`, which `validate_semiregular` and the
reading-on past the stopping index share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, islice
from math import isqrt
from typing import Literal

from .cfcore import CFSpec, PeriodicCF, _check_index, shifted_table
from .errors import (
    CertificateFailure,
    InvalidSpec,
    IterationCap,
    TowerMismatch,
    record,
)
from .scalars import RATIONAL_TYPES, Scalar, is_rational, scalar_div

DEFAULT_ITERATION_CAP = 1_000_000

ViolationKind = Literal["a_not_unit", "b_below_one", "sum_below_one"]


@record
class Violation:
    n: int
    which: ViolationKind


@record
class SemiRegularReport:
    valid: bool
    first_violation: Violation | None
    checked_up_to: int


@record
class BoundRecord:
    k: int
    bound_type: Literal["plus_case", "minus_case"]
    bound: int


@record
class BoundedValue:
    """Certified evaluation: |true limit - value| <= error_bound."""

    value: Scalar
    n_used: int
    error_bound: Fraction
    #: last index whose coefficients were checked against the conditions
    checked_up_to: int = 0


class NotSemiRegular(InvalidSpec):
    """A coefficient breaks a semi-regular condition; `violation` names it."""

    def __init__(self, violation: Violation):
        super().__init__(f"not semi-regular: {violation.which} at n = {violation.n}")
        self.violation = violation


def _tower_mismatch(n: int, a_n, b_n) -> TowerMismatch:
    name, value = ("b", b_n) if is_rational(a_n) else ("a", a_n)
    return TowerMismatch(
        f"semi-regular analysis needs rational coefficients; "
        f"{name}({n}) is {type(value).__name__}"
    )


def _violation(n: int, b_prev, a_n, b_n) -> Violation | None:
    """First condition broken once a(n), b(n) are read: b(n-1) + a(n) >= 1
    (index n - 1's sum condition, n >= 2), then a(n) = ±1, then b(n) >= 1."""
    if n >= 2 and b_prev + a_n < 1:
        return Violation(n - 1, "sum_below_one")
    if a_n != 1 and a_n != -1:
        return Violation(n, "a_not_unit")
    if b_n < 1:
        return Violation(n, "b_below_one")


def _check_terms(terms, n: int = 1, b_prev=2) -> None:
    """Refuse the first of `terms`, read as (a(n), b(n)), (a(n+1), b(n+1)), ...,
    that is not rational or breaks a semi-regular condition; b_prev is
    b(n-1), and the default 2 makes the sum condition vacuous at n = 1."""
    for n, (a_n, b_n) in enumerate(terms, n):
        if not (isinstance(a_n, RATIONAL_TYPES) and isinstance(b_n, RATIONAL_TYPES)):
            raise _tower_mismatch(n, a_n, b_n)
        if not ((a_n == 1 or a_n == -1) and b_n >= 1 and b_prev + a_n >= 1):
            raise NotSemiRegular(_violation(n, b_prev, a_n, b_n))
        b_prev = b_n


def validate_semiregular(spec: CFSpec, n_max: int) -> SemiRegularReport:
    """Check the semi-regular conditions for 1 <= n <= n_max.

    Reads coefficients up to index n_max + 1, or to a finite spec's last
    index n_max, and reports the first violated condition, if any.
    """
    _check_index(n_max, 1, "n_max")
    spec.require(n_max)
    try:
        _check_terms(islice(spec.terms(), n_max + 1))
    except NotSemiRegular as exc:
        if exc.violation.n <= n_max:
            return SemiRegularReport(False, exc.violation, n_max)
    return SemiRegularReport(True, None, n_max)


def denominator_bounds_certificate(spec: CFSpec, n_max: int) -> list[BoundRecord]:
    """Verify the linear lower bounds on B and the interleaving chain.

    For each k the applicable bound is checked against the exact table:
    a(k+1) = +1 forces B(k+n) >= k+1 for every n >= 1, and a(k+1) = -1
    forces B(k) >= k+1.  For sampled k the chain
    1 <= B(k,n) <= B(k-1,n+1) <= B(k+n) is also verified at every
    n = 0 .. n_max - k, on the tails of `shifted_table`.  These are
    theorems for semi-regular input, so any failure is raised as a bug.
    """
    _check_index(n_max, 2, "n_max")
    report = validate_semiregular(spec, n_max)
    if not report.valid:
        raise NotSemiRegular(report.first_violation)

    @cache
    def tail_dens(k: int) -> list:  # B(k, n) for n = 0 .. n_max - k
        return [pair.den for pair in shifted_table(spec, k, n_max - k)[1:]]

    dens = tail_dens(0)
    # suffix minima of B over indices 0..n_max for the plus-case check
    suffix_min = list(accumulate(reversed(dens), min))[::-1]

    records: list[BoundRecord] = []
    for k in range(1, n_max):
        bound = k + 1
        if spec.a(k + 1) == 1:
            worst = suffix_min[k + 1]  # min over B(k+n), n >= 1
            if worst < bound:
                raise CertificateFailure(k, -1, f"B(k+n) = {worst} < {bound}")
            records.append(BoundRecord(k, "plus_case", bound))
        else:
            if dens[k] < bound:
                raise CertificateFailure(k, 0, f"B({k}) = {dens[k]} < {bound}")
            records.append(BoundRecord(k, "minus_case", bound))

    for k in sorted({1, 2, min(3, n_max), n_max // 4 or 1, n_max // 2, n_max - 1}):
        for n, (b_kn, b_up) in enumerate(zip(tail_dens(k), tail_dens(k - 1)[1:])):
            if not 1 <= b_kn <= b_up <= dens[k + n]:
                raise CertificateFailure(k, n, f"chain broken: 1 <= {b_kn} <= {b_up} <= {dens[k + n]}")
    return records


def evaluate_tietze(
    spec: CFSpec,
    epsilon: Fraction | int,
    max_terms: int = DEFAULT_ITERATION_CAP,
) -> BoundedValue:
    """Certify the value to accuracy epsilon from the Moebius enclosure.

    Stops at the first index n where B(n) (B(n) + a(n+1) B(n-1)) exceeds
    1/epsilon and returns A(n)/B(n) with the error bound
    1/(B(n) (B(n) + a(n+1) B(n-1))) < epsilon: the limit lies between
    A(n)/B(n) and (A(n) + a(n+1) A(n-1))/(B(n) + a(n+1) B(n-1)), the images
    of the tails oo and 1.  The test needs a(n+1), so one loop reads and
    checks (a(n+1), b(n+1)), tests the enclosure at n, and only then steps
    (A, B) to n + 1.  The check has made a(n+1) = ±1, so the step adds or
    subtracts A(n-1) and B(n-1) instead of multiplying them by a(n+1).
    A finite spec that reaches its last index N
    returns A(N)/B(N), its exact value, with error bound 0, and a(N+1) is
    never asked for.

    The bound needs the semi-regular conditions on the whole tail, so each
    term is checked as it is read, and after stopping the check reads on,
    without stepping (A, B), through every coefficient the value depends
    on: to the last index of a finite spec, and to index p + 1 of a periodic
    spec of period p, which covers every condition.  A rule is checked only
    on the terms read, n + 1 of them; beyond them its semi-regularity is a
    premise.  The first broken condition raises `InvalidSpec`, a coefficient
    that is not rational `TowerMismatch`; `checked_up_to` is the last index
    checked.  `max_terms` is the only limit on the loop: with no certificate
    after that many terms it raises `IterationCap`.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _check_index(max_terms, 0, "max_terms")
    # certified once B(n) (B(n) + a(n+1) B(n-1)) eps > 1, in integers; the
    # B are positive, so the product is at most 2 max(B(n-1), B(n))^2 and
    # cannot pass while both are <= floor
    eps_num, eps_den = epsilon.numerator, epsilon.denominator
    floor = isqrt(eps_den // (2 * eps_num))
    # A(n), B(n), A(n-1), B(n-1) and b(n) at n = 0; b(0) is unconstrained,
    # and 2 makes the sum condition vacuous at n = 1
    num, den, num_prev, den_prev, b_n = spec.b(0), 1, 1, 0, 2
    terms, n = spec.terms(), -1
    for n, (a_next, b_next) in enumerate(islice(terms, max_terms)):
        if not (isinstance(a_next, RATIONAL_TYPES) and isinstance(b_next, RATIONAL_TYPES)):
            raise _tower_mismatch(n + 1, a_next, b_next)
        if not ((a_next == 1 or a_next == -1) and b_next >= 1 and b_n + a_next >= 1):
            raise NotSemiRegular(_violation(n + 1, b_n, a_next, b_next))
        if (den > floor or den_prev > floor) and (
            (inverse_width := den * (den + a_next * den_prev)) * eps_num > eps_den
        ):
            last = spec.period + 1 if isinstance(spec, PeriodicCF) else spec.max_index
            checked_up_to = max(n + 1, last or 0)
            _check_terms(islice(terms, checked_up_to - n - 1), n + 2, b_next)
            bound = Fraction(1, 1) / inverse_width
            return BoundedValue(scalar_div(num, den), n, bound, checked_up_to)
        if a_next == 1:
            num, num_prev = b_next * num + num_prev, num
            den, den_prev = b_next * den + den_prev, den
        else:
            num, num_prev = b_next * num - num_prev, num
            den, den_prev = b_next * den - den_prev, den
        b_n = b_next
    if n + 1 == spec.max_index:  # every term read: A(N)/B(N) is the value
        return BoundedValue(scalar_div(num, den), n + 1, Fraction(0), n + 1)
    raise IterationCap(max_terms)
