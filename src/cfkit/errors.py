"""Exception hierarchy and the frozen value record shared by all cfkit modules."""

from __future__ import annotations

import reprlib
from operator import attrgetter


def _int_label(n: int) -> str:
    """str(n) for messages and repr; past ~3000 digits n is named by its size,
    because str() refuses ints of more than 4300 digits (Python >= 3.11)."""
    if n.bit_length() <= 10_000:
        return str(n)
    return f"<{n.bit_length()}-bit integer>"


def _shown(value) -> str:
    """repr(value), abridged where it holds an int past the int/str limit, named by its size."""
    try:
        return repr(value)
    except ValueError:
        abridged = reprlib.Repr()
        abridged.repr_int = lambda n, level: _int_label(n)
        abridged.repr_Fraction = lambda q, level: f"Fraction({', '.join(map(_int_label, q.as_integer_ratio()))})"
        return abridged.repr(value)


def _eq(self, other):
    return self._values(self) == self._values(other) if other.__class__ is self.__class__ else NotImplemented


def _repr(self):
    shown = ", ".join([f"{name}={_shown(getattr(self, name))}" for name in self.__match_args__])
    return f"{self.__class__.__qualname__}({shown})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")


def _reduce(self):  # copy and pickle rebuild a record from its fields, then restore any derived state
    fields = tuple([getattr(self, name) for name in self.__match_args__])
    return self.__class__, fields, getattr(self, "__dict__", None) or None


_SHARED = {"__eq__": _eq, "__hash__": lambda self: hash(self._values(self)), "__repr__": _repr,
           "__setattr__": _frozen, "__delattr__": _frozen, "__reduce__": _reduce}


def record(cls):
    """Make `cls` a frozen value record, as `dataclass(frozen=True, slots=True)`
    would: the names annotated in its body are the fields, in order, with class
    attributes as defaults, each in a slot.  `__init__` takes them by position or
    keyword, writes each once through its slot, then calls `__post_init__`;
    `cls._unchecked(*fields)` only writes them.  ==, hash, repr, copy and pickle
    use the fields, unless the class defines its own.  Derived state is no field
    but a class attribute or property, kept in the `__dict__` that a body asks for
    by `__slots__ = ("__dict__",)`, and set, by `object.__setattr__`, only by the
    code that proves it."""
    names = tuple(cls.__annotations__)
    body = {k: v for k, v in vars(cls).items() if k not in (*names, "__dict__", "__weakref__")}
    new = type(cls)(cls.__name__, cls.__bases__, {
        **_SHARED, **body, "__slots__": (*names, *body.get("__slots__", ())), "__qualname__": cls.__qualname__,
        "__match_args__": names, "_values": attrgetter(*names)})  # _values: a tuple for two or more fields
    args, sets = ", ".join(names), "".join(f"\n    _set_{name}(self, {name})" for name in names)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    glob = {"_new": object.__new__, "cls": new, **{f"_set_{name}": getattr(new, name).__set__ for name in names}}
    # without a __post_init__ the constructor checks nothing, and is the builder too
    exec(f"def __init__(self, {args}):{sets}{post}\n" + (
        f"def _unchecked({args}):\n    self = _new(cls){sets}\n    return self" if post else "_unchecked = cls"), glob)
    new.__init__, new._unchecked = glob["__init__"], staticmethod(glob["_unchecked"])
    new.__init__.__defaults__ = tuple(vars(cls)[name] for name in names if name in vars(cls))
    return new


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
