"""Continuants: tridiagonal determinants that generate convergent pairs.

K(a1..an; b0..bn) is the determinant of the (n+1) x (n+1) matrix with
diagonal b0..bn, superdiagonal -1 and subdiagonal a1..an.  Expanding along
the last row gives the three-term recurrence, so the fast path is the
numerator A(n) of b0 + a1/b1 + ... + an/bn, computed by `cfcore.pair_at` as
a product of 2x2 step matrices; `continuant_oracle` recomputes the same
value by naive cofactor expansion of the explicit matrix so the two routes
share no code.
"""

from __future__ import annotations

from itertools import islice

from .cfcore import CFSpec, FiniteCF, _check_index, pair_at
from .errors import SizeLimit, record
from .scalars import Scalar

ORACLE_MAX_TERMS = 12


@record
class ContinuantArgs:
    """Coefficient lists for one continuant; needs |b| = |a| + 1 >= 1."""

    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        FiniteCF(a_list=self.a, b_list=self.b)  # raises InvalidSpec unless |b| = |a| + 1

    @property
    def n(self) -> int:
        return len(self.a)


def continuant(args: ContinuantArgs) -> Scalar:
    """Continuant value via the last-row expansion K_m = b_m K_{m-1} + a_m K_{m-2},
    the numerator recurrence A(n) of b0 + a1/b1 + ... + an/bn."""
    return pair_at(FiniteCF(a_list=args.a, b_list=args.b), args.n)[1].num


def _det_cofactor(matrix: list[list[Scalar]]) -> Scalar:
    """Determinant by expansion along the first row, skipping exact zeros."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total: Scalar = 0
    for col, entry in enumerate(matrix[0]):
        if entry == 0:
            continue
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        term = entry * _det_cofactor(minor)
        total = total + term if col % 2 == 0 else total - term
    return total


def continuant_oracle(args: ContinuantArgs) -> Scalar:
    """Independent check value: build the tridiagonal matrix and expand cofactors.

    Deliberately does not reuse the recurrence; capped because cofactor
    expansion cost explodes with size.
    """
    n = args.n
    if n > ORACLE_MAX_TERMS:
        raise SizeLimit(f"oracle supports at most {ORACLE_MAX_TERMS} terms, got {n}")
    size = n + 1
    matrix: list[list[Scalar]] = [[0] * size for _ in range(size)]
    for i in range(size):
        matrix[i][i] = args.b[i]
        if i + 1 < size:
            matrix[i][i + 1] = -1
            matrix[i + 1][i] = args.a[i]
    return _det_cofactor(matrix)


def first_column_expansion(args: ContinuantArgs) -> Scalar:
    """Continuant via the first-column split b0*K(tail from 1) + a1*K(tail from 2)."""
    if args.n < 2:
        raise SizeLimit("first-column expansion needs at least two a-coefficients")
    head = ContinuantArgs(a=args.a[1:], b=args.b[1:])
    tail = ContinuantArgs(a=args.a[2:], b=args.b[2:])
    return args.b[0] * continuant(head) + args.a[0] * continuant(tail)


def reversed_args(args: ContinuantArgs) -> ContinuantArgs:
    """Both coefficient lists reversed; the symmetric continuant has equal value."""
    return ContinuantArgs(a=args.a[::-1], b=args.b[::-1])


@record
class ReversedConvergents:
    """Last two convergent pairs of the reversed finite CF b(n) + a(n)/b(n-1) + ..."""

    num_n: Scalar
    den_n: Scalar
    num_prev: Scalar
    den_prev: Scalar


def reverse_relations(spec: CFSpec, n: int) -> ReversedConvergents:
    """Convergents of the order-reversed CF, computed from the reversed
    coefficients: b'(k) = b(n-k), a'(k) = a(n+1-k).

    They coincide with forward values: A'(n) = A(n), B'(n) = A(n-1),
    A'(n-1) = B(n), B'(n-1) = B(n-1).
    """
    _check_index(n, 1)
    spec.require(n)
    a, b = zip(*islice(spec.terms(), n))  # a(1..n), b(1..n)
    reversed_cf = FiniteCF(a_list=a[::-1], b_list=b[::-1] + (spec.b(0),))
    prev, cur = pair_at(reversed_cf, n)
    return ReversedConvergents(cur.num, cur.den, prev.num, prev.den)
