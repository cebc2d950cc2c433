"""Command-line front end.

Subcommands: eval, continuant, tietze, classify, reverse, galois, power-iter.
Global flags: --json (machine-readable report with a stable field set per
subcommand) and --precision BITS (working precision for the complex tower
and for decimal rendering).

Exit codes: 0 success, 2 parse/arity error, 3 undefined convergent
(zero denominator), 4 continuant oracle disagreement, 5 semi-regular
conditions violated, 6 subcommand needs a periodic spec, 7 any other module
error (the error name is printed to stderr).  Reports go to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cfcore import CFSpec, PeriodicCF, convergent_table
from .continuants import ContinuantArgs, continuant, continuant_oracle
from .errors import CFKitError, InvalidSpec, SpecFileError, ZeroDenominator
from .periodic import (
    PeriodMatrix,
    build_period_matrix,
    classify,
    galois_analysis,
    power_iterate,
    reverse_period,
)
from .render import format_exact, format_float, parse_exact
from .scalars import DEFAULT_PRECISION_BITS, is_exact
from .specfile import SpecFile, load_specfile, specfile_from_periodic
from .tietze import evaluate_tietze, validate_semiregular

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ZERO_DENOMINATOR = 3
EXIT_ORACLE_DISAGREEMENT = 4
EXIT_NOT_SEMIREGULAR = 5
EXIT_NOT_PERIODIC = 6
EXIT_MODULE_ERROR = 7

MAX_INDEX = 1_000_000  # exact entries grow exponentially in bit size


def _diag(message: str):
    print(message, file=sys.stderr)


def _exact_or_none(value) -> str | None:
    if value is None:
        return None
    return format_exact(value) if is_exact(value) else None


def _float_or_none(value, prec: int) -> str | None:
    if value is None:
        return None
    return format_float(value, prec)


def _emit(report: dict, as_json: bool):
    for line in report.get("diagnostics", []):
        _diag(line)
    if as_json:
        print(json.dumps(report, indent=2, ensure_ascii=False))
        return
    print(f"command: {report['command']}")
    for section in ("result", "exact_values", "float_values"):
        body = report.get(section) or {}
        sep = "≈" if section == "float_values" else "="
        for key, value in body.items():
            if key == "trajectory":
                continue
            if value is not None:
                print(f"{key} {sep} {value}")
    trajectory = (report.get("result") or {}).get("trajectory")
    if trajectory:
        print("n\tu\tv\tratio")
        for row in trajectory:
            ratio = row["ratio"] if row["ratio"] is not None else "-"
            print(f"{row['n']}\t{row['u']}\t{row['v']}\t{ratio}")


def _load(args) -> tuple[SpecFile, CFSpec, int]:
    spec_file = load_specfile(args.spec, precision_override=args.precision)
    prec = args.precision or spec_file.precision_bits
    return spec_file, spec_file.to_cfspec(), prec


def _echo(args, spec_file: SpecFile) -> dict:
    return {"spec_path": args.spec, "mode": spec_file.mode, "tower": spec_file.tower}


def _require_periodic(spec: CFSpec) -> PeriodicCF | None:
    return spec if isinstance(spec, PeriodicCF) else None


def _bounded_index(text: str) -> int:
    value = int(text)
    if value < 0 or value > MAX_INDEX:
        raise argparse.ArgumentTypeError(f"index must be in 0..{MAX_INDEX}")
    return value


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc
    return value


def _literal_list(text: str) -> list:
    return [parse_exact(tok) for tok in text.split(",") if tok.strip()]


# -- subcommands ---------------------------------------------------------------


def cmd_eval(args) -> int:
    spec_file, spec, prec = _load(args)
    pair = convergent_table(spec, args.n)[args.n + 1]
    try:
        value = pair.value()
    except ZeroDenominator as exc:
        _diag(f"ZeroDenominator: convergent undefined at index {exc.index}")
        return EXIT_ZERO_DENOMINATOR
    report = {
        "command": "eval",
        "input": {**_echo(args, spec_file), "n": args.n},
        "result": {"n": args.n},
        "exact_values": {
            "A": _exact_or_none(pair.num),
            "B": _exact_or_none(pair.den),
            "value": _exact_or_none(value),
        },
        "float_values": {
            "A": _float_or_none(pair.num, prec),
            "B": _float_or_none(pair.den, prec),
            "value": _float_or_none(value, prec),
        },
        "diagnostics": [],
    }
    _emit(report, args.json)
    return EXIT_OK


def cmd_continuant(args) -> int:
    prec = args.precision or DEFAULT_PRECISION_BITS
    try:
        cont_args = ContinuantArgs(a=tuple(args.a), b=tuple(args.b))
    except InvalidSpec as exc:
        _diag(f"arity error: {exc}")
        return EXIT_PARSE
    value = continuant(cont_args)
    oracle_value = None
    agreement = None
    if args.oracle:
        oracle_value = continuant_oracle(cont_args)
        agreement = oracle_value == value
    report = {
        "command": "continuant",
        "input": {
            "a": [format_exact(x) for x in cont_args.a],
            "b": [format_exact(x) for x in cont_args.b],
        },
        "result": {
            "n_terms": cont_args.n,
            "oracle_checked": bool(args.oracle),
            "agreement": agreement,
        },
        "exact_values": {
            "value": _exact_or_none(value),
            "oracle_value": _exact_or_none(oracle_value),
        },
        "float_values": {"value": _float_or_none(value, prec)},
        "diagnostics": [],
    }
    if args.oracle and not agreement:
        report["diagnostics"].append(
            "oracle disagreement: recurrence and determinant differ"
        )
        _emit(report, args.json)
        return EXIT_ORACLE_DISAGREEMENT
    _emit(report, args.json)
    return EXIT_OK


def cmd_tietze(args) -> int:
    spec_file, spec, prec = _load(args)
    limit = spec.max_index
    n_max = min(args.validate_terms, limit - 1) if limit is not None else args.validate_terms
    n_max = max(n_max, 1)
    validation = validate_semiregular(spec, n_max)
    if not validation.valid:
        v = validation.first_violation
        _diag(f"not semi-regular: {v.which} at n={v.n}")
        return EXIT_NOT_SEMIREGULAR
    bounded = evaluate_tietze(spec, args.eps)
    report = {
        "command": "tietze",
        "input": {**_echo(args, spec_file), "eps": format_exact(args.eps)},
        "result": {
            "valid": True,
            "checked_up_to": validation.checked_up_to,
            "n_used": bounded.n_used,
        },
        "exact_values": {
            "value": _exact_or_none(bounded.value),
            "error_bound": _exact_or_none(bounded.error_bound),
        },
        "float_values": {
            "value": _float_or_none(bounded.value, prec),
            "error_bound": _float_or_none(bounded.error_bound, prec),
        },
        "diagnostics": [],
    }
    _emit(report, args.json)
    return EXIT_OK


def _classify_report(args, spec_file, pcf: PeriodicCF, prec: int) -> dict:
    report = classify(pcf)
    eigen = report.eigen
    verdict = report.verdict
    matrix = report.matrix
    exact = {
        "limit": _exact_or_none(verdict.limit),
        "sublimit": _exact_or_none(verdict.sublimit),
        "lambda1": _exact_or_none(eigen.lambda1) if eigen else None,
        "lambda2": _exact_or_none(eigen.lambda2) if eigen else None,
        "x1": _exact_or_none(eigen.x1) if eigen else None,
        "x2": _exact_or_none(eigen.x2) if eigen else None,
        "trace": _exact_or_none(matrix.trace),
        "det": _exact_or_none(matrix.det),
    }
    floats = {
        "limit": _float_or_none(verdict.limit, prec),
        "sublimit": _float_or_none(verdict.sublimit, prec),
        "lambda1": _float_or_none(eigen.lambda1, prec) if eigen else None,
        "lambda2": _float_or_none(eigen.lambda2, prec) if eigen else None,
        "x1": _float_or_none(eigen.x1, prec) if eigen else None,
        "x2": _float_or_none(eigen.x2, prec) if eigen else None,
    }
    return {
        "command": "classify",
        "input": _echo(args, spec_file),
        "result": {
            "verdict": verdict.kind,
            "condition": verdict.condition,
            "q": verdict.q,
            "period": pcf.period,
            "modulus_relation": eigen.modulus_relation if eigen else None,
        },
        "exact_values": exact,
        "float_values": floats,
        "diagnostics": [],
    }


def cmd_classify(args) -> int:
    spec_file, spec, prec = _load(args)
    pcf = _require_periodic(spec)
    if pcf is None:
        _diag("classify needs a periodic spec")
        return EXIT_NOT_PERIODIC
    report = _classify_report(args, spec_file, pcf, prec)
    _emit(report, args.json)
    return EXIT_OK


def cmd_reverse(args) -> int:
    spec_file, spec, _ = _load(args)
    pcf = _require_periodic(spec)
    if pcf is None:
        _diag("reverse needs a periodic spec")
        return EXIT_NOT_PERIODIC
    reversed_file = specfile_from_periodic(
        reverse_period(pcf), tower=spec_file.tower,
        precision_bits=spec_file.precision_bits,
    )
    print(json.dumps(reversed_file.to_json_dict(), indent=2, ensure_ascii=False))
    return EXIT_OK


def cmd_galois(args) -> int:
    spec_file, spec, prec = _load(args)
    pcf = _require_periodic(spec)
    if pcf is None:
        _diag("galois needs a periodic spec")
        return EXIT_NOT_PERIODIC
    record = galois_analysis(pcf)
    alpha, prime = record.alpha.verdict, record.alpha_prime.verdict
    expected = None
    if alpha.is_convergent:
        expected = pcf.b(0) - record.alpha.eigen.x2
    report = {
        "command": "galois",
        "input": _echo(args, spec_file),
        "result": {
            "alpha_verdict": alpha.kind,
            "alpha_prime_verdict": prime.kind,
            "relation_holds": record.relation_holds,
        },
        "exact_values": {
            "alpha_limit": _exact_or_none(alpha.limit),
            "alpha_prime_limit": _exact_or_none(prime.limit),
            "expected_prime_limit": _exact_or_none(expected),
        },
        "float_values": {
            "alpha_limit": _float_or_none(alpha.limit, prec),
            "alpha_prime_limit": _float_or_none(prime.limit, prec),
            "expected_prime_limit": _float_or_none(expected, prec),
        },
        "diagnostics": [],
    }
    _emit(report, args.json)
    return EXIT_OK


def cmd_power_iter(args) -> int:
    prec = args.precision or DEFAULT_PRECISION_BITS
    if args.matrix:
        entries = _literal_list(args.matrix)
        if len(entries) != 4:
            raise SpecFileError("--matrix needs exactly four entries m11,m12,m21,m22")
        matrix = PeriodMatrix(*entries)
        echo: dict = {"matrix": args.matrix}
    elif args.spec:
        spec_file, spec, prec = _load(args)
        pcf = _require_periodic(spec)
        if pcf is None:
            _diag("power-iter needs a periodic spec or an explicit matrix")
            return EXIT_NOT_PERIODIC
        matrix = build_period_matrix(pcf)
        echo = _echo(args, spec_file)
    else:
        raise SpecFileError("power-iter needs a spec file or --matrix")
    u0 = parse_exact(args.u0)
    v0 = parse_exact(args.v0)
    trajectory = power_iterate(matrix, u0, v0, args.steps)
    rows = [
        {
            "n": step.n,
            "u": _exact_or_none(step.u) or _float_or_none(step.u, prec),
            "v": _exact_or_none(step.v) or _float_or_none(step.v, prec),
            "ratio": _exact_or_none(step.ratio) or _float_or_none(step.ratio, prec),
        }
        for step in trajectory.steps
    ]
    report = {
        "command": "power-iter",
        "input": {**echo, "u0": args.u0, "v0": args.v0, "steps": args.steps},
        "result": {"case": trajectory.case, "trajectory": rows},
        "exact_values": {
            "mu1": _exact_or_none(trajectory.mu1),
            "mu2": _exact_or_none(trajectory.mu2),
        },
        "float_values": {
            "mu1": _float_or_none(trajectory.mu1, prec),
            "mu2": _float_or_none(trajectory.mu2, prec),
        },
        "diagnostics": [],
    }
    _emit(report, args.json)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfkit",
        description="Exact continued-fraction analysis: convergents, continuants, "
        "certified semi-regular evaluation, and classification of periodic CFs.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--precision", type=int, metavar="BITS",
        help="working precision for the complex tower (>= 64, default 128)",
    )
    # the global flags are also accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument(
        "--precision", type=int, metavar="BITS", default=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate one convergent A(n)/B(n)")
    p_eval.add_argument("spec", help="path to a JSON spec file")
    p_eval.add_argument("-n", type=_bounded_index, required=True, help="convergent index")
    p_eval.set_defaults(func=cmd_eval)

    p_cont = sub.add_parser("continuant", parents=[common], help="evaluate a continuant")
    p_cont.add_argument("--a", type=_literal_list, default=[], metavar="LIST",
                        help="comma-separated a-coefficients (may be empty)")
    p_cont.add_argument("--b", type=_literal_list, required=True, metavar="LIST",
                        help="comma-separated b-coefficients, one more than a")
    p_cont.add_argument("--oracle", action="store_true",
                        help="also run the cofactor-expansion determinant")
    p_cont.set_defaults(func=cmd_continuant)

    p_tietze = sub.add_parser("tietze", parents=[common], help="validate and evaluate a semi-regular CF")
    p_tietze.add_argument("spec", help="path to a JSON spec file")
    p_tietze.add_argument("--eps", type=_fraction, required=True,
                          help="target accuracy (rational, e.g. 1/1000 or 1e-6)")
    p_tietze.add_argument("--validate-terms", type=int, default=1000,
                          help="how many leading conditions to check (default 1000)")
    p_tietze.set_defaults(func=cmd_tietze)

    p_classify = sub.add_parser("classify", parents=[common], help="classify a purely periodic CF")
    p_classify.add_argument("spec", help="path to a JSON spec file")
    p_classify.set_defaults(func=cmd_classify)

    p_reverse = sub.add_parser("reverse", parents=[common], help="emit the reversed-period spec file")
    p_reverse.add_argument("spec", help="path to a JSON spec file")
    p_reverse.set_defaults(func=cmd_reverse)

    p_galois = sub.add_parser("galois", parents=[common], help="classify a CF and its reversed period")
    p_galois.add_argument("spec", help="path to a JSON spec file")
    p_galois.set_defaults(func=cmd_galois)

    p_power = sub.add_parser("power-iter", parents=[common], help="iterate (u, v) under the period matrix")
    p_power.add_argument("spec", nargs="?", help="path to a JSON spec file")
    p_power.add_argument("--matrix", metavar="M11,M12,M21,M22",
                         help="explicit matrix entries instead of a spec file")
    p_power.add_argument("--u0", default="1", help="start numerator (default 1)")
    p_power.add_argument("--v0", default="0", help="start denominator (default 0)")
    p_power.add_argument("--steps", type=_bounded_index, default=30,
                         help="number of iterations (default 30)")
    p_power.set_defaults(func=cmd_power_iter)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SpecFileError as exc:
        _diag(f"SpecFileError: {exc}")
        return EXIT_PARSE
    if args.precision is not None and args.precision < 64:
        _diag("precision must be >= 64 bits")
        return EXIT_PARSE
    try:
        return args.func(args)
    except SpecFileError as exc:
        _diag(f"SpecFileError: {exc}")
        return EXIT_PARSE
    except ValueError as exc:
        _diag(f"invalid argument: {exc}")
        return EXIT_PARSE
    except CFKitError as exc:
        _diag(f"{type(exc).__name__}: {exc}")
        return EXIT_MODULE_ERROR


if __name__ == "__main__":
    sys.exit(main())
