"""Semi-regular continued fractions: validation, growth certificates, evaluation.

A CF is semi-regular when a(n) is +1 or -1, b(n) >= 1 and b(n) + a(n+1) >= 1
for every n >= 1 (b(0) is unconstrained).  Under these conditions the
denominators B(n) grow without bound, which makes the convergents a Cauchy
sequence with the fully explicit window bound

    |A(n+k)/B(n+k) - A(n-1)/B(n-1)|  <=  1/B(n-1)      (n >= 1, k >= 0),

so a value can be returned together with a certified error bound.  The
bound needs the conditions on every term of the tail, so `evaluate_tietze`
checks all of a finite CF and p + 1 terms of a periodic CF of period p; an
unbounded rule is checked on the terms read, and beyond them its
semi-regularity is a premise.  `_semiregular_terms` is the one loop that
applies the conditions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, count, islice
from typing import Callable, Literal

from .cfcore import CFSpec, PeriodicCF, iter_pairs, recurrence
from .errors import (
    CertificateFailure,
    EvaluationCancelled,
    InvalidSpec,
    IterationCap,
    TowerMismatch,
)
from .scalars import RATIONAL_TYPES, Scalar, is_rational, scalar_div

DEFAULT_ITERATION_CAP = 1_000_000

ViolationKind = Literal["a_not_unit", "b_below_one", "sum_below_one"]


@dataclass(frozen=True)
class Violation:
    n: int
    which: ViolationKind


@dataclass(frozen=True)
class SemiRegularReport:
    valid: bool
    first_violation: Violation | None
    checked_up_to: int


@dataclass(frozen=True)
class BoundRecord:
    k: int
    bound_type: Literal["plus_case", "minus_case"]
    bound: int


@dataclass(frozen=True)
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
    return None


def _semiregular_terms(spec: CFSpec):
    """(a(n), b(n)) for n = 1, 2, ..., refusing the first term that is not
    rational or that breaks a semi-regular condition."""
    b_prev = None
    for n in count(1):
        a_n, b_n = spec.a(n), spec.b(n)
        if not (isinstance(a_n, RATIONAL_TYPES) and isinstance(b_n, RATIONAL_TYPES)):
            raise _tower_mismatch(n, a_n, b_n)
        violation = _violation(n, b_prev, a_n, b_n)
        if violation is not None:
            raise NotSemiRegular(violation)
        yield a_n, b_n
        b_prev = b_n


def validate_semiregular(spec: CFSpec, n_max: int) -> SemiRegularReport:
    """Check the semi-regular conditions for 1 <= n <= n_max.

    Reads coefficients up to index n_max + 1 and reports the first violated
    condition, if any.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    spec.require(n_max + 1)
    try:
        deque(islice(_semiregular_terms(spec), n_max + 1), maxlen=0)
    except NotSemiRegular as exc:
        if exc.violation.n <= n_max:
            return SemiRegularReport(False, exc.violation, n_max)
    return SemiRegularReport(True, None, n_max)


def _chain_sample(n_max: int) -> list[tuple[int, int]]:
    """Deterministic spread of (k, n) pairs with k >= 1, n >= 0, k+n <= n_max."""
    ks = sorted({1, 2, 3, n_max // 4 or 1, n_max // 2 or 1, max(n_max - 1, 1)})
    pairs = []
    for k in ks:
        if k > n_max:
            continue
        span = n_max - k
        ns = sorted({0, 1, span // 3, 2 * span // 3, span})
        pairs.extend((k, n) for n in ns if n >= 0)
    return pairs


def denominator_bounds_certificate(
    spec: CFSpec, n_max: int
) -> list[BoundRecord]:
    """Verify the linear lower bounds on B and the interleaving chain.

    For each k the applicable bound is checked against the exact table:
    a(k+1) = +1 forces B(k+n) >= k+1 for every n >= 1, and a(k+1) = -1
    forces B(k) >= k+1.  On sampled (k, n) the chain
    1 <= B(k,n) <= B(k-1,n+1) <= B(k+n) is also verified.  These are
    theorems for semi-regular input, so any failure is raised as a bug.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    report = validate_semiregular(spec, n_max)
    if not report.valid:
        raise NotSemiRegular(report.first_violation)

    @cache
    def tail_dens(k: int) -> list:  # B(k, n) for n = 0 .. n_max - k
        return [den for _, den in iter_pairs(spec, k, n_max - k)]

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

    for k, n in _chain_sample(n_max):
        b_kn = tail_dens(k)[n]
        b_up = tail_dens(k - 1)[n + 1]
        b_full = dens[k + n]
        if not (1 <= b_kn <= b_up <= b_full):
            raise CertificateFailure(
                k, n, f"chain broken: 1 <= {b_kn} <= {b_up} <= {b_full}"
            )
    return records


def evaluate_tietze(
    spec: CFSpec,
    epsilon: Fraction | int,
    max_terms: int = DEFAULT_ITERATION_CAP,
    should_cancel: Callable[[], bool] | None = None,
) -> BoundedValue:
    """Iterate convergents until the window bound certifies accuracy epsilon.

    Stops at the first index n where both B(n-1) and B(n) exceed 1/epsilon
    and returns A(n)/B(n).  The reported error bound is the larger of
    1/B(n-1) and 1/B(n), which dominates the true error of the returned
    convergent.

    The bound needs the semi-regular conditions on the whole tail, so each
    term is checked as it is read, and after stopping the check reads on,
    without recurrence steps, through every coefficient the value depends
    on: to the last index of a finite spec, and to index p + 1 of a periodic
    spec of period p, which covers every condition.  A rule is checked only
    on the terms read; beyond them its semi-regularity is a premise.  The
    first broken condition raises `InvalidSpec`, a coefficient that is not
    rational `TowerMismatch`; `checked_up_to` is the last index checked.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    # B * eps > 1, in integers: for rational B this also forces B > 0
    eps_num, eps_den = epsilon.numerator, epsilon.denominator
    terms = _semiregular_terms(spec)
    pairs = recurrence(spec.b(0), islice(terms, max_terms))
    _, b_prev = next(pairs)
    for n, (a_cur, b_cur) in enumerate(pairs, 1):
        if should_cancel is not None and n % 1024 == 0 and should_cancel():
            raise EvaluationCancelled(f"cancelled after {n} terms")
        if b_prev * eps_num > eps_den and b_cur * eps_num > eps_den:
            last = spec.period + 1 if isinstance(spec, PeriodicCF) else spec.max_index
            checked_up_to = max(n, last or 0)
            deque(islice(terms, checked_up_to - n), maxlen=0)
            bound = max(Fraction(1, 1) / b_prev, Fraction(1, 1) / b_cur)
            return BoundedValue(scalar_div(a_cur, b_cur), n, bound, checked_up_to)
        b_prev = b_cur
    raise IterationCap(max_terms)
