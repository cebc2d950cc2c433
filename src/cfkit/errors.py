"""Exception hierarchy and the frozen value record shared by all cfkit modules."""

from __future__ import annotations

from operator import attrgetter


def _eq(self, other):
    return self._values(self) == self._values(other) if other.__class__ is self.__class__ else NotImplemented


def _repr(self):
    shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
    return f"{self.__class__.__qualname__}({shown})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")


_SHARED = {"__eq__": _eq, "__hash__": lambda self: hash(self._values(self)), "__repr__": _repr,
           "__setattr__": _frozen, "__delattr__": _frozen}


def record(cls):
    """Make `cls` a frozen value record, as `dataclass(frozen=True)` would: the
    names annotated in its body are the fields, in order, with class attributes
    as defaults.  `__init__` takes them by position or keyword, then calls
    `__post_init__`.  ==, hash and repr use the fields, unless the class
    defines its own.  Derived state is no field but a class attribute or
    property, which only the code that proves it sets, by `object.__setattr__`."""
    names = tuple(cls.__annotations__)
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(names)}):{body}", namespace)
    cls.__init__, cls.__match_args__ = namespace["__init__"], names
    cls.__init__.__defaults__ = tuple(cls.__dict__[name] for name in names if name in cls.__dict__)
    cls._values = attrgetter(*names)  # a tuple for two or more fields
    for name, func in _SHARED.items():
        if name not in cls.__dict__:
            setattr(cls, name, func)
    return cls


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


class DegenerateMatrix(CFKitError):
    """The 2x2 matrix does not satisfy the preconditions (det or b entry zero)."""


class ZeroStart(CFKitError):
    """Power iteration was started from the zero vector."""


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
