"""JSON spec files describing a continued fraction.

Schema (UTF-8 JSON object; unknown keys are rejected):

    mode            "finite" | "periodic" | "generator"
    a, b            lists of number literals (finite/periodic modes)
    period          integer, required for periodic mode (= |a| = |b|)
    generator       {"name": str, "params": {...}} for generator mode
    tower           "rational" | "quadext" | "complex" (optional, inferred)
    precision_bits  integer >= 64 for the complex tower (default 128)

Number literals are exact strings "p", "p/q", surds like "(1 + √5)/2"
(quadext tower only), bare JSON integers, or {"re": ..., "im": ...} objects
for the complex tower.  Floats are accepted only in the complex tower so
that rational parsing stays exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .cfcore import CFSpec, FiniteCF, PeriodicCF, make_generator
from .errors import InvalidSpec, SpecFileError
from .render import format_exact, parse_exact
from .scalars import (
    DEFAULT_PRECISION_BITS,
    ComplexFloat,
    QuadExt,
    as_complexfloat,
    radicand_ratio,
)

_ALLOWED_KEYS = {"mode", "a", "b", "period", "generator", "tower", "precision_bits"}
_TOWERS = ("rational", "quadext", "complex")


def _literal_kind(token) -> str:
    if isinstance(token, bool):
        raise SpecFileError(f"not a number literal: {token!r}")
    if isinstance(token, int):
        return "rational"
    if isinstance(token, float):
        return "complex"
    if isinstance(token, dict):
        return "complex"
    if isinstance(token, str):
        return "quadext" if "√" in token else "rational"
    raise SpecFileError(f"not a number literal: {token!r}")


def _parse_literal(token, tower: str, prec: int):
    kind = _literal_kind(token)
    if tower == "rational" and kind != "rational":
        raise SpecFileError(f"literal {token!r} does not fit the rational tower")
    if tower == "quadext" and kind == "complex":
        raise SpecFileError(f"literal {token!r} does not fit the quadext tower")
    if isinstance(token, int):
        value = token
    elif isinstance(token, str):
        value = parse_exact(token)
    elif isinstance(token, float):
        value = ComplexFloat(token, 0, prec)
    else:
        missing = {"re", "im"} - set(token)
        extra = set(token) - {"re", "im"}
        if missing or extra:
            raise SpecFileError(f"complex literal needs exactly re and im: {token!r}")
        value = ComplexFloat(token["re"], token["im"], prec)
    if tower == "complex" and not isinstance(value, ComplexFloat):
        value = as_complexfloat(value, prec)
    return value


def _infer_tower(tokens) -> str:
    kinds = {_literal_kind(t) for t in tokens}
    if "complex" in kinds:
        return "complex"
    if "quadext" in kinds:
        return "quadext"
    return "rational"


def format_literal(value):
    """Literal in canonical spec-file form (ints stay bare JSON numbers)."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    if isinstance(value, (Fraction, QuadExt)):
        return format_exact(value)
    if isinstance(value, ComplexFloat):
        return {"re": str(value.re), "im": str(value.im)}
    raise TypeError(f"no literal form for {type(value).__name__}")


@dataclass(frozen=True)
class SpecFile:
    """Parsed spec file; `to_cfspec` builds the live coefficient source."""

    mode: str
    a: tuple
    b: tuple
    period: int | None
    generator: dict | None
    tower: str
    precision_bits: int

    def to_cfspec(self) -> CFSpec:
        try:
            if self.mode == "finite":
                return FiniteCF(a_list=self.a, b_list=self.b)
            if self.mode == "periodic":
                return PeriodicCF(a_block=self.a, b_block=self.b)
            return make_generator(self.generator["name"], self.generator.get("params"))
        except InvalidSpec as exc:
            raise SpecFileError(str(exc)) from exc

    def to_json_dict(self) -> dict:
        out: dict = {"mode": self.mode}
        if self.mode == "generator":
            out["generator"] = self.generator
        else:
            out["a"] = [format_literal(x) for x in self.a]
            out["b"] = [format_literal(x) for x in self.b]
        if self.mode == "periodic":
            out["period"] = self.period
        out["tower"] = self.tower
        if self.tower == "complex":
            out["precision_bits"] = self.precision_bits
        return out


def parse_spec_dict(data: dict, precision_override: int | None = None) -> SpecFile:
    if not isinstance(data, dict):
        raise SpecFileError("spec file must hold a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise SpecFileError(f"unknown spec fields: {', '.join(sorted(unknown))}")
    mode = data.get("mode")
    if mode not in ("finite", "periodic", "generator"):
        raise SpecFileError(f"mode must be finite, periodic or generator, got {mode!r}")

    prec = data.get("precision_bits", DEFAULT_PRECISION_BITS)
    if precision_override is not None:
        prec = precision_override
    if not isinstance(prec, int) or prec < 64:
        raise SpecFileError(f"precision_bits must be an integer >= 64, got {prec!r}")

    if mode == "generator":
        gen = data.get("generator")
        if not isinstance(gen, dict) or "name" not in gen:
            raise SpecFileError("generator mode needs {\"name\": ..., \"params\": ...}")
        if "a" in data or "b" in data:
            raise SpecFileError("generator mode does not take a/b lists")
        tower = data.get("tower", "rational")
        if tower not in _TOWERS:
            raise SpecFileError(f"unknown tower {tower!r}")
        return SpecFile(
            mode=mode, a=(), b=(), period=None,
            generator={"name": gen["name"], "params": gen.get("params", {})},
            tower=tower, precision_bits=prec,
        )

    raw_a = data.get("a")
    raw_b = data.get("b")
    if not isinstance(raw_a, list) or not isinstance(raw_b, list):
        raise SpecFileError(f"{mode} mode needs a and b lists")
    tower = data.get("tower") or _infer_tower(raw_a + raw_b)
    if tower not in _TOWERS:
        raise SpecFileError(f"unknown tower {tower!r}")
    a = tuple(_parse_literal(t, tower, prec) for t in raw_a)
    b = tuple(_parse_literal(t, tower, prec) for t in raw_b)

    period = data.get("period")
    if mode == "periodic":
        if period is None:
            period = len(a)
        if period != len(a) or len(a) != len(b):
            raise SpecFileError(
                f"periodic mode needs |a| = |b| = period, got |a| = {len(a)}, "
                f"|b| = {len(b)}, period = {period}"
            )
    elif period is not None:
        raise SpecFileError("period is only meaningful in periodic mode")

    if tower == "quadext":
        radicands = [x.d for x in (*a, *b) if isinstance(x, QuadExt)]
        for d in radicands[1:]:
            if radicand_ratio(d, radicands[0]) is None:
                raise SpecFileError(
                    "quadext literals must share one radicand up to a square "
                    f"factor, got √{format_exact(radicands[0])} and √{format_exact(d)}"
                )
    return SpecFile(
        mode=mode, a=a, b=b, period=period, generator=None,
        tower=tower, precision_bits=prec,
    )


def load_specfile(path: str, precision_override: int | None = None) -> SpecFile:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file: {exc}") from exc
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
    return SpecFile(
        mode="periodic",
        a=pcf.a_block,
        b=pcf.b_block,
        period=pcf.period,
        generator=None,
        tower=tower,
        precision_bits=precision_bits,
    )
