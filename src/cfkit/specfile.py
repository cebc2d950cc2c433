"""JSON spec files describing a continued fraction.

Schema (UTF-8 JSON object).  Each mode takes these keys and no others:

    finite          a, b: lists of number literals
    periodic        a, b and period: an integer = |a| = |b| (default |a|)
    generator       generator: {"name": str, "params": {str: list of number
                    literals}}, params holding only names the generator takes
    every mode      mode: "finite" | "periodic" | "generator"
                    tower: "rational" | "quadext" | "complex" (null: inferred)
                    precision_bits: integer in 64..65536, complex tower (default 128)

Number literals are exact strings "p", "p/q", surds like "(1 + √5)/2"
(quadext tower only), JSON integers of any size, or {"re": ..., "im": ...}
objects for the complex tower, whose parts are integers, floats, or decimal
or "p/q" strings.  Floats are accepted only in the complex tower so that
rational parsing stays exact.  A complex value must be finite, and each
nonzero part between 10^-MAX_EXPONENT and 10^MAX_EXPONENT in magnitude.
The a and b lists, or a generator's params, are read in one tower: the
declared one, or else the lowest tower that holds all of their literals.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache

from .cfcore import CFSpec, FiniteCF, PeriodicCF, make_generator
from .errors import InvalidSpec, SpecFileError, _shown, record
from .render import _text_int, format_exact, parse_exact
from .scalars import (
    DEFAULT_PRECISION_BITS,
    MAX_EXPONENT,
    MAX_PRECISION_BITS,
    MIN_PRECISION_BITS,
    ComplexFloat,
    QuadExt,
    _ctx,
    as_complexfloat,
    radicand_ratio,
)

_COMMON_KEYS = {"mode", "tower", "precision_bits"}
_MODE_KEYS = {"finite": {"a", "b"}, "periodic": {"a", "b", "period"}, "generator": {"generator"}}
_TOWERS = ("rational", "quadext", "complex")


def _literal_kind(token) -> str:
    if isinstance(token, (float, dict)):
        return "complex"
    if isinstance(token, str):
        return "quadext" if "√" in token else "rational"
    if isinstance(token, int) and not isinstance(token, bool):
        return "rational"
    raise SpecFileError(f"not a number literal: {_shown(token)}")


def _part(part, prec: int):
    """The re or im of a complex literal: an int, a float, or a string mpmath reads."""
    if isinstance(part, int) and not isinstance(part, bool):
        # rounded at once: mpf(int) first strips trailing zero bits, 8 at a time
        return as_complexfloat(part, prec).re
    if isinstance(part, (float, str)):
        try:
            return _ctx(prec).mpf(part)
        except (ValueError, ZeroDivisionError):  # as for "abc" and "1/0"
            pass
    raise SpecFileError(f"complex literal part {_shown(part)} is not a number")


def _parse_literal(token, tower: str, prec: int):
    if _TOWERS.index(_literal_kind(token)) > _TOWERS.index(tower):
        raise SpecFileError(f"literal {_shown(token)} does not fit the {tower} tower")
    if isinstance(token, int):
        value = token
    elif isinstance(token, str):
        value = parse_exact(token)
    elif isinstance(token, float):
        value = ComplexFloat(token, 0, prec)
    else:
        if set(token) != {"re", "im"}:
            raise SpecFileError(f"complex literal needs exactly re and im: {_shown(token)}")
        value = ComplexFloat(_part(token["re"], prec), _part(token["im"], prec), prec)
    if tower == "complex" and not isinstance(value, ComplexFloat):
        value = as_complexfloat(value, prec)
    if isinstance(value, ComplexFloat):
        ctx, (low, high) = _ctx(prec), _magnitude_bounds(prec)
        if not (ctx.isfinite(value.re) and ctx.isfinite(value.im)):
            raise SpecFileError(f"complex literal {_shown(token)} is not finite")
        for part in (value.re, value.im):
            if part and not low <= abs(part) <= high:
                raise SpecFileError(f"complex part {ctx.nstr(part, 6)} lies outside "
                                    f"10^-{MAX_EXPONENT}..10^{MAX_EXPONENT} in magnitude")
    return value


@cache
def _magnitude_bounds(prec: int) -> tuple:
    """10^-MAX_EXPONENT and 10^MAX_EXPONENT, read as a literal part at `prec` bits is."""
    ctx = _ctx(prec)
    return ctx.mpf(f"1e-{MAX_EXPONENT}"), ctx.mpf(f"1e{MAX_EXPONENT}")


def _infer_tower(tokens) -> str:
    return max(map(_literal_kind, tokens), key=_TOWERS.index, default="rational")


def format_literal(value):
    """Literal in canonical spec-file form: an integer is a bare JSON number,
    or a decimal string when it is past the interpreter's int/str limit."""
    if isinstance(value, (int, Fraction)) and value.denominator == 1:
        try:
            str(value.numerator)
        except ValueError:
            return format_exact(value)
        return value.numerator
    if isinstance(value, (Fraction, QuadExt)):
        return format_exact(value)
    if isinstance(value, ComplexFloat):  # with enough digits to read back the same parts
        from mpmath.libmp import repr_dps, to_str
        return {k: to_str(getattr(value, k)._mpf_, repr_dps(value.prec)) for k in ("re", "im")}
    raise TypeError(f"no literal form for {type(value).__name__}")


@record
class SpecFile:
    """Parsed spec file; `to_cfspec` builds the live coefficient source."""

    mode: str
    a: tuple
    b: tuple
    generator: tuple | None  # (name, ((param, values), ...)), all tuples
    tower: str
    precision_bits: int

    @property
    def period(self) -> int | None:
        return len(self.a) if self.mode == "periodic" else None

    def to_cfspec(self) -> CFSpec:
        try:
            if self.mode == "finite":
                return FiniteCF(a_list=self.a, b_list=self.b)
            if self.mode == "periodic":
                return PeriodicCF(a_block=self.a, b_block=self.b)
            name, params = self.generator
            return make_generator(name, dict(params))
        except InvalidSpec as exc:
            raise SpecFileError(str(exc)) from exc

    def to_json_dict(self) -> dict:
        out: dict = {"mode": self.mode}
        if self.mode == "generator":
            name, params = self.generator
            params = {k: [format_literal(x) for x in v] for k, v in params}
            out["generator"] = {"name": name, "params": params}
        else:
            out["a"] = [format_literal(x) for x in self.a]
            out["b"] = [format_literal(x) for x in self.b]
        if self.mode == "periodic":
            out["period"] = self.period
        out["tower"] = self.tower
        if self.tower == "complex":
            out["precision_bits"] = self.precision_bits
        return out


def _check_keys(obj: dict, allowed: set, what: str):
    unknown = set(obj) - allowed
    if unknown:
        raise SpecFileError(f"unknown {what} fields: {', '.join(sorted(unknown))}")


def parse_spec_dict(data: dict, precision_override: int | None = None) -> SpecFile:
    if not isinstance(data, dict):
        raise SpecFileError("spec file must hold a JSON object")
    mode = data.get("mode")
    if not isinstance(mode, str) or mode not in _MODE_KEYS:
        raise SpecFileError(f"mode must be finite, periodic or generator, got {_shown(mode)}")
    _check_keys(data, _COMMON_KEYS | _MODE_KEYS[mode], f"{mode} spec")

    prec = data.get("precision_bits", DEFAULT_PRECISION_BITS)
    if precision_override is not None:
        prec = precision_override
    if not isinstance(prec, int) or not MIN_PRECISION_BITS <= prec <= MAX_PRECISION_BITS:
        raise SpecFileError(f"precision_bits must be {MIN_PRECISION_BITS}..{MAX_PRECISION_BITS}, "
                            f"got {_shown(prec)}")

    if mode == "generator":
        gen = data.get("generator")
        if not isinstance(gen, dict) or not isinstance(gen.get("name"), str):
            raise SpecFileError("generator mode needs {\"name\": ..., \"params\": ...}")
        _check_keys(gen, {"name", "params"}, "generator")
        lists = gen.get("params", {})
        if not isinstance(lists, dict) or not all(isinstance(v, list) for v in lists.values()):
            raise SpecFileError(f"generator params must map names to lists, got {_shown(lists)}")
    else:
        lists = {"a": data.get("a"), "b": data.get("b")}
        if not all(isinstance(v, list) for v in lists.values()):
            raise SpecFileError(f"{mode} mode needs a and b lists")
    tower = data.get("tower")
    if tower is None:
        tower = _infer_tower(t for v in lists.values() for t in v)
    elif tower not in _TOWERS:
        raise SpecFileError(f"unknown tower {_shown(tower)}")
    lists = {k: tuple(_parse_literal(t, tower, prec) for t in v) for k, v in lists.items()}
    if tower == "quadext":
        radicands = [x.d for v in lists.values() for x in v if isinstance(x, QuadExt)]
        for d in radicands[1:]:
            if radicand_ratio(d, radicands[0]) is None:
                raise SpecFileError(
                    "quadext literals must share one radicand up to a square "
                    f"factor, got √{format_exact(radicands[0])} and √{format_exact(d)}"
                )
    generator = (gen["name"], tuple(lists.items())) if mode == "generator" else None
    a, b = ((), ()) if generator else (lists["a"], lists["b"])
    if mode == "periodic":
        period = len(a) if data.get("period") is None else data["period"]
        if type(period) is not int or not period == len(a) == len(b):
            raise SpecFileError(
                f"periodic mode needs |a| = |b| = period, got |a| = {len(a)}, "
                f"|b| = {len(b)}, period = {_shown(period)}"
            )
    return SpecFile(mode=mode, a=a, b=b, generator=generator, tower=tower, precision_bits=prec)


def load_specfile(path: str, precision_override: int | None = None) -> SpecFile:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle, parse_int=_text_int)  # of any size
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"cannot read spec file: {exc}") from exc
    except RecursionError:
        raise SpecFileError("cannot read spec file: its JSON nests too deeply") from None
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"malformed JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    return parse_spec_dict(data, precision_override)


def specfile_from_periodic(
    pcf: PeriodicCF, tower: str = "rational",
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> SpecFile:
    """Spec file describing a periodic CF (used to emit reversed periods)."""
    return SpecFile("periodic", pcf.a_block, pcf.b_block, None, tower, precision_bits)
