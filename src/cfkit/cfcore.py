"""Coefficient sequences and the fundamental convergent recurrences.

A continued fraction b0 + a1/b1 + a2/b2 + ... is described by a CFSpec that
serves partial numerators a(n) for n >= 1 and partial denominators b(n) for
n >= 0, and streams the terms (a(n), b(n)) from n = 1 on through `terms()`.
Every reader starts at the head; only `shifted_table` skips k terms to read
a tail b(k) + a(k+1)/b(k+1) + ....  Convergent numerators and denominators follow

    A(n) = b(n) A(n-1) + a(n) A(n-2),      A(-1) = 1, A(0) = b(0),
    B(n) = b(n) B(n-1) + a(n) B(n-2),      B(-1) = 0, B(0) = 1,

`recurrence` streams them for the tables and the scans that need every
index; `evaluate_tietze` steps them inline.  A single pair is a product
of 2x2 step matrices instead: `pair_at` builds the product of each run of up
to 64 steps with `recurrence` and multiplies the runs as a balanced tree, or
by powers of the period matrix for a periodic CF, which costs
O(M(n) log n) bit operations where streaming costs O(n^2).  A general
product takes eight big products; a power of exact entries walks the Lucas
sequence of the matrix's trace and determinant, one product and two squares
per bit of the exponent, and ComplexFloat entries keep repeated squaring.
Every operation here is exact: values never leave the tower of the
coefficients that produced them.

A(n)B(n-1) - A(n-1)B(n) = (-1)^(n-1) a(1)...a(n), so integer runs of
determinant ±1 leave A(n) and B(n) coprime: `pair_at` marks such pairs, and
`ConvergentPair.value` then builds A(n)/B(n) without Fraction's gcd.
"""

from __future__ import annotations

from itertools import chain, count, cycle, islice
from typing import Callable, Iterable, Iterator

from .errors import CoefficientUnavailable, InvalidSpec, ZeroDenominator, record
from .scalars import Scalar, coprime_fraction, is_exact, scalar_div


class CFSpec:
    """Coefficient source; subclasses provide `a(n)` (n>=1) and `b(n)` (n>=0),
    and may stream them faster by overriding `terms`."""

    #: largest index n for which b(n) exists, or None when unbounded
    max_index: int | None = None

    def a(self, n: int) -> Scalar:
        raise NotImplementedError

    def b(self, n: int) -> Scalar:
        raise NotImplementedError

    def terms(self) -> Iterator[tuple[Scalar, Scalar]]:
        """(a(n), b(n)) for n = 1, 2, ..., through `max_index` when it is set."""
        last = self.max_index
        indices = count(1) if last is None else range(1, last + 1)
        return ((self.a(n), self.b(n)) for n in indices)

    def require(self, n: int) -> None:
        """Fail fast when coefficients up to index n are not available."""
        if self.max_index is not None and n > self.max_index:
            raise CoefficientUnavailable(n)


def _check_index(n: int, low: int, name: str = "n"):
    if n < low:
        raise ValueError(f"{name} must be >= {low}, got {n}")


@record
class FiniteCF(CFSpec):
    """Finite coefficient lists: a holds indices 1..N, b holds 0..N."""

    a_list: tuple
    b_list: tuple

    def __post_init__(self):
        object.__setattr__(self, "a_list", tuple(self.a_list))
        object.__setattr__(self, "b_list", tuple(self.b_list))
        if len(self.b_list) != len(self.a_list) + 1:
            raise InvalidSpec(
                f"need |b| = |a| + 1, got |a| = {len(self.a_list)}, "
                f"|b| = {len(self.b_list)}"
            )

    @property
    def max_index(self) -> int:  # type: ignore[override]
        return len(self.a_list)

    def a(self, n: int) -> Scalar:
        _check_index(n, 1)
        if n > len(self.a_list):
            raise CoefficientUnavailable(n, "partial numerator a")
        return self.a_list[n - 1]

    def b(self, n: int) -> Scalar:
        _check_index(n, 0)
        if n >= len(self.b_list):
            raise CoefficientUnavailable(n, "partial denominator b")
        return self.b_list[n]

    def terms(self) -> Iterator[tuple[Scalar, Scalar]]:
        return zip(self.a_list, self.b_list[1:])


@record
class PeriodicCF(CFSpec):
    """Purely periodic coefficients: a repeats 1..p, b repeats 0..p-1.

    Every stored coefficient must be nonzero; the classification theory
    needs nonzero a(n) to keep the period matrix invertible, and nonzero
    b(n) is part of the same hypothesis.
    """

    a_block: tuple
    b_block: tuple

    def __post_init__(self):
        object.__setattr__(self, "a_block", tuple(self.a_block))
        object.__setattr__(self, "b_block", tuple(self.b_block))
        if not self.a_block:
            raise InvalidSpec("period must be >= 1")
        if len(self.a_block) != len(self.b_block):
            raise InvalidSpec(
                f"period blocks must have equal length, got "
                f"|a| = {len(self.a_block)}, |b| = {len(self.b_block)}"
            )
        for name, block, first in (("a", self.a_block, 1), ("b", self.b_block, 0)):
            if 0 in block:
                raise InvalidSpec(f"{name}[{block.index(0) + first}] = 0 is not allowed in a periodic CF")

    @property
    def period(self) -> int:
        return len(self.a_block)

    def a(self, n: int) -> Scalar:
        _check_index(n, 1)
        return self.a_block[(n - 1) % self.period]

    def b(self, n: int) -> Scalar:
        _check_index(n, 0)
        return self.b_block[n % self.period]

    def terms(self) -> Iterator[tuple[Scalar, Scalar]]:
        return zip(cycle(self.a_block), cycle(self.b_block[1:] + self.b_block[:1]))


@record
class RuleCF(CFSpec):
    """Unbounded coefficients produced by explicit index rules."""

    a_rule: Callable[[int], Scalar]
    b_rule: Callable[[int], Scalar]
    label: str = "rule"

    def a(self, n: int) -> Scalar:
        _check_index(n, 1)
        return self.a_rule(n)

    def b(self, n: int) -> Scalar:
        _check_index(n, 0)
        return self.b_rule(n)

    def terms(self) -> Iterator[tuple[Scalar, Scalar]]:
        return zip(map(self.a_rule, count(1)), map(self.b_rule, count(1)))


def _make_regular(*, b) -> CFSpec:
    return FiniteCF(a_list=(1,) * (len(b) - 1), b_list=tuple(b))


def _make_negative(*, b) -> CFSpec:
    return FiniteCF(a_list=(-1,) * (len(b) - 1), b_list=tuple(b))


def _one(n: int) -> int:
    return 1


def _sqrt2_b(n: int) -> int:  # rules at module level pickle, and compare, by name
    return 1 if n == 0 else 2


def _make_sqrt2() -> CFSpec:
    return RuleCF(a_rule=_one, b_rule=_sqrt2_b, label="sqrt2")


def _make_golden() -> CFSpec:
    return PeriodicCF(a_block=(1,), b_block=(1,))


#: fixed registry of named coefficient generators usable from spec files; each
#: factory takes its params as keyword-only arguments and nothing else
GENERATORS: dict[str, Callable[..., CFSpec]] = {
    "regular": _make_regular,
    "negative": _make_negative,
    "sqrt2": _make_sqrt2,
    "golden": _make_golden,
}


def make_generator(name: str, params: dict | None = None) -> CFSpec:
    if name not in GENERATORS:
        raise InvalidSpec(
            f"unknown generator {name!r}; known: {', '.join(sorted(GENERATORS))}"
        )
    factory, params = GENERATORS[name], params or {}
    takes = factory.__code__.co_varnames[:factory.__code__.co_kwonlyargcount]
    for key in params:
        if key not in takes:
            raise InvalidSpec(f"generator {name!r} does not take parameter {key!r}")
    for key in takes:
        if key not in params:
            raise InvalidSpec(f"generator {name!r} is missing parameter {key!r}")
    return factory(**params)


# -- the three-term recurrence ------------------------------------------------


def recurrence(
    b0: Scalar, terms: Iterable[tuple[Scalar, Scalar]]
) -> Iterator[tuple[Scalar, Scalar]]:
    """Yield (A(n), B(n)) for n = 0, 1, ... of b0 + a1/b1 + a2/b2 + ...,
    one pair for each (a(n), b(n)) that `terms` yields after the seed pair."""
    a_prev2, b_prev2, a_prev, b_prev = 1, 0, b0, 1
    yield a_prev, b_prev
    for an, bn in terms:
        a_prev2, b_prev2, a_prev, b_prev = (
            a_prev, b_prev, bn * a_prev + an * a_prev2, bn * b_prev + an * b_prev2
        )
        yield a_prev, b_prev


@record
class ConvergentPair:
    """Pair (A(n), B(n)) at index n >= -1, or (A(k,n), B(k,n)) in a shifted table."""

    n: int
    num: Scalar
    den: Scalar
    __slots__ = ("__dict__",)
    coprime = False  # set on a pair by `pair_at` alone, when it proves num, den coprime ints

    def value(self) -> Scalar:
        if self.den == 0:
            raise ZeroDenominator(self.n)
        return (coprime_fraction if self.coprime else scalar_div)(self.num, self.den)


def _table(spec: CFSpec, k: int, n_max: int) -> list[ConvergentPair]:
    """Pairs of the tail b(k) + a(k+1)/b(k+1) + ... for n = -1 .. n_max: the one
    reader of coefficients past index 1, it skips the first k terms."""
    rows = [ConvergentPair(-1, 1, 0)]
    if n_max >= 0:
        spec.require(k + n_max)
        pairs = recurrence(spec.b(k), islice(spec.terms(), k, k + n_max))
        rows += [ConvergentPair(n, a, b) for n, (a, b) in enumerate(pairs)]
    return rows


def convergent_table(spec: CFSpec, n_max: int) -> list[ConvergentPair]:
    """All pairs (A(n), B(n)) for n = -1 .. n_max, computed exactly."""
    _check_index(n_max, 0, "n_max")
    return _table(spec, 0, n_max)


#: 2x2 matrix [[m11, m12], [m21, m22]] as the tuple (m11, m12, m21, m22)
Matrix = tuple[Scalar, Scalar, Scalar, Scalar]


def _mat_mul(x: Matrix, y: Matrix) -> Matrix:
    x11, x12, x21, x22 = x
    y11, y12, y21, y22 = y
    return (
        x11 * y11 + x12 * y21, x11 * y12 + x12 * y22,
        x21 * y11 + x22 * y21, x21 * y12 + x22 * y22,
    )


def _tree_product(matrices: Iterable[Matrix]) -> Matrix:
    """Ordered product of a nonempty stream of matrices, multiplied as a
    balanced tree: a binary-counter stack merges equal-sized partial products
    as they arrive, so at most O(log n) of them are alive at once."""
    stack: list[tuple[int, Matrix]] = []  # (level, product of 2**level leaves)
    for m in matrices:
        level = 0
        while stack and stack[-1][0] == level:
            m = _mat_mul(stack.pop()[1], m)
            level += 1
        stack.append((level, m))
    product = stack.pop()[1]
    while stack:
        product = _mat_mul(stack.pop()[1], product)
    return product


def _power(m: Matrix, e: int) -> Matrix:
    """m**e for e >= 1.  Exact entries follow Cayley-Hamilton,
    m**k = U(k) m - det U(k-1) I with U(0) = 0, U(1) = 1 and
    U(k+1) = tr U(k) - det U(k-1): each bit of e doubles k on (U(k), U(k+1))
    by U(2k) = U(k) (2 U(k+1) - tr U(k)) and U(2k+1) = U(k+1)² - det U(k)²,
    one product and two squares, and a 1 bit then adds 1 to k; at the end
    det U(e-1) = tr U(e) - U(e+1) needs no division.

    ComplexFloat entries keep repeated squaring, five products to a square:
    the identity is exact algebra, and it cancels in floating point."""
    a, b, c, d = m
    if not all(map(is_exact, m)):
        for bit in bin(e)[3:]:
            bc, trace = b * c, a + d
            a, b, c, d = a * a + bc, b * trace, c * trace, d * d + bc
            if bit == "1":
                a, b, c, d = _mat_mul((a, b, c, d), m)
        return a, b, c, d
    tr, det, u, u_next = a + d, a * d - b * c, 1, a + d
    for bit in bin(e)[3:]:
        u, u_next = u * (2 * u_next - tr * u), u_next * u_next - det * (u * u)
        if bit == "1":
            u, u_next = u_next, tr * u_next - det * u
    w = tr * u - u_next
    return a * u - w, b * u, c * u, d * u - w


_RUN = 64  # steps per leaf of `pair_at`'s product tree


def _runs(spec: CFSpec, count: int, units: list[bool]) -> Iterator[Matrix]:
    """S(j) ... S(j+L-1) = [[B(L), B(L-1)], [A(L), A(L-1)]] of `recurrence(0, run)`
    for each run of L <= _RUN steps S(j) = [[b(j), 1], [a(j), 0]] from j = 1
    on, count steps in all; notes in `units` if each is an int matrix of det ±1."""
    terms = islice(spec.terms(), count)
    for run in iter(lambda: tuple(islice(terms, _RUN)), ()):
        *_, (num_prev, den_prev), (num, den) = recurrence(0, run)
        det = den * num_prev - den_prev * num
        units.append(type(det) is int and det in (1, -1))
        yield den, den_prev, num, num_prev


def pair_at(spec: CFSpec, n: int) -> tuple[ConvergentPair, ConvergentPair]:
    """The pairs (A(n-1), B(n-1)) and (A(n), B(n)).

    [[b(0), 1], [1, 0]] S(1) ... S(n) = [[A(n), A(n-1)], [B(n), B(n-1)]].
    A periodic CF raises the product of one period to the q-th power and
    multiplies it by the first r steps, n = q p + r: the steps repeat with
    period p.  Both pairs are marked coprime when b(0) is an int and every
    run's product an int matrix of determinant ±1.
    """
    _check_index(n, 0)
    spec.require(n)
    seed, units = (spec.b(0), 1, 1, 0), []
    if isinstance(spec, PeriodicCF) and n >= spec.period:
        q, r = divmod(n, spec.period)
        period = _tree_product(_runs(spec, spec.period, units))
        factors = chain([seed, _power(period, q)], _runs(spec, r, units))
    else:
        factors = chain([seed], _runs(spec, n, units))
    num, num_prev, den, den_prev = _tree_product(factors)
    pairs = ConvergentPair(n - 1, num_prev, den_prev), ConvergentPair(n, num, den)
    if type(seed[0]) is int and all(units):
        for pair in pairs:
            object.__setattr__(pair, "coprime", True)
    return pairs


def convergent_pair(spec: CFSpec, n: int) -> ConvergentPair:
    """The pair (A(n), B(n)), n >= 0."""
    return pair_at(spec, n)[1]


def evaluate_convergent(spec: CFSpec, n: int) -> Scalar:
    """Value A(n)/B(n) of the n-th convergent; exact in exact towers."""
    return convergent_pair(spec, n).value()


def shifted_table(spec: CFSpec, k: int, n_max: int) -> list[ConvergentPair]:
    """Pairs of the shifted CF b(k) + a(k+1)/b(k+1) + ... for n = -1 .. n_max."""
    _check_index(k, 0, "k")
    _check_index(n_max, -1, "n_max")
    return _table(spec, k, n_max)
