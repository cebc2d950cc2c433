"""Exception hierarchy shared by all cfkit modules."""

from __future__ import annotations


class CFKitError(Exception):
    """Base class for every error raised by cfkit."""


class InvalidSpec(CFKitError):
    """A continued-fraction description violates a structural invariant."""


class CoefficientUnavailable(CFKitError):
    """A finite coefficient source was asked for an index it does not hold."""

    def __init__(self, index: int, kind: str = "coefficient"):
        self.index = index
        super().__init__(f"{kind} at index {index} is not available")


class ZeroDenominator(CFKitError):
    """A convergent denominator vanished; the requested value is undefined."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"denominator B_{index} is zero; convergent undefined")


class SizeLimit(CFKitError):
    """Input size is outside the supported range for this operation."""


class TowerMismatch(CFKitError):
    """Operands or coefficients live in incompatible arithmetic towers."""


class CertificateFailure(CFKitError):
    """A denominator growth certificate failed.

    The bounds being certified are theorems for validated semi-regular
    input, so a failure indicates an implementation bug, not bad data.
    """

    def __init__(self, k: int, n: int, detail: str):
        self.k = k
        self.n = n
        super().__init__(f"certificate violated at (k={k}, n={n}): {detail}")


class SelfCheckFailure(CFKitError):
    """An internal consistency check failed; this is a bug, not bad input."""


class IterationCap(CFKitError):
    """The evaluation loop hit its safety ceiling before certifying."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"no certified value after {cap} terms")


class EvaluationCancelled(CFKitError):
    """A cooperative cancellation token stopped a long evaluation."""


class DegenerateMatrix(CFKitError):
    """The 2x2 matrix does not satisfy the preconditions (det or b entry zero)."""


class ZeroStart(CFKitError):
    """Power iteration was started from the zero vector."""


class PrecisionExhausted(CFKitError):
    """A floating-tower test fell inside the undecidable tolerance band.

    Raise the working precision or switch to an exact tower.
    """


class NotIrrational(CFKitError):
    """Conjugate analysis requires an irrational limit; this one is rational."""


class SpecFileError(CFKitError):
    """A spec file could not be parsed or validated."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
