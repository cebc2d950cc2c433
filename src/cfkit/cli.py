"""Command-line front end.

Subcommands: eval, continuant, tietze, classify, reverse, galois, power-iter.
Global flags: --json (machine-readable report with a stable field set per
subcommand) and --precision BITS (working precision for the complex tower
and for decimal rendering).

Exit codes: 0 success, 2 parse/arity error, 3 undefined convergent
(zero denominator), 4 continuant oracle disagreement, 5 semi-regular
conditions violated, 6 subcommand needs a periodic spec, 7 any other module
error (the error name is printed to stderr).

Subcommands return 0, or 4 on an oracle disagreement, and raise every
failure: `main` looks the error up in one table, `FAILURES`, for its exit
code and stderr line.  Errors argparse finds in the arguments, and a
--precision out of range, exit 2 before a subcommand runs.  Reports go to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .cfcore import CFSpec, PeriodicCF, convergent_pair
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
from .render import format_exact, format_float, int_texts, parse_exact
from .scalars import DEFAULT_PRECISION_BITS, MAX_EXPONENT, MAX_PRECISION_BITS, MIN_PRECISION_BITS, is_exact
from .specfile import SpecFile, load_specfile, specfile_from_periodic
from .tietze import NotSemiRegular, evaluate_tietze

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ZERO_DENOMINATOR = 3
EXIT_ORACLE_DISAGREEMENT = 4
EXIT_NOT_SEMIREGULAR = 5
EXIT_NOT_PERIODIC = 6
EXIT_MODULE_ERROR = 7

MAX_INDEX = 1_000_000  # exact entries grow exponentially in bit size
# power-iter keeps every exact step and the text of every row, so its memory
# and output grow with the square of the step count
MAX_STEPS = 10_000
#: flags whose value may start with "-", as "-1/2" does, which argparse reads as an option
_VALUE_FLAGS = {"--a", "--b", "--matrix", "--u0", "--v0", "--eps"}


def _diag(message: str):
    print(message, file=sys.stderr)


def _exact_or_none(value, int_text=None) -> str | None:
    return format_exact(value, int_text) if is_exact(value) else None


def _float_or_none(value, prec: int) -> str | None:
    return None if value is None else format_float(value, prec)


def _report(command: str, echo: dict, result: dict, values: dict, prec: int,
            exact_only: dict | None = None) -> dict:
    """The report of one subcommand: each of `values` is rendered into both
    `exact_values` and `float_values`, each of `exact_only` into the first."""
    int_text = int_texts()
    exact = {
        name: _exact_or_none(value, int_text)
        for name, value in {**values, **(exact_only or {})}.items()
    }
    return {
        "command": command,
        "input": echo,
        "result": result,
        "exact_values": exact,
        "float_values": {name: _float_or_none(value, prec) for name, value in values.items()},
        "diagnostics": [],
    }


def _emit(report: dict, as_json: bool):
    for line in report["diagnostics"]:
        _diag(line)
    if as_json:
        json.dump(report, sys.stdout, indent=2, ensure_ascii=False)
        sys.stdout.write("\n")
        return
    print(f"command: {report['command']}")
    for section in ("result", "exact_values", "float_values"):
        sep = "≈" if section == "float_values" else "="
        for key, value in report[section].items():
            if value is not None and key != "trajectory":
                print(f"{key} {sep} {value}")
    trajectory = report["result"].get("trajectory")
    if trajectory:
        print("n\tu\tv\tratio")
        for row in trajectory:
            ratio = row["ratio"] if row["ratio"] is not None else "-"
            print(f"{row['n']}\t{row['u']}\t{row['v']}\t{ratio}")


def _load(args) -> tuple[SpecFile, CFSpec, int]:
    spec_file = load_specfile(args.spec, precision_override=args.precision)
    return spec_file, spec_file.to_cfspec(), spec_file.precision_bits


def _echo(args, spec_file: SpecFile) -> dict:
    return {"spec_path": args.spec, "mode": spec_file.mode, "tower": spec_file.tower}


class _NotPeriodic(Exception):
    """The subcommand needs a periodic spec; `main` maps this to exit 6."""


#: (error type, exit code, stderr line) for each error a subcommand may raise;
#: `main` reports an error by the first row whose type it is an instance of
FAILURES = (
    (_NotPeriodic, EXIT_NOT_PERIODIC, "{exc}"),
    (SpecFileError, EXIT_PARSE, "SpecFileError: {exc}"),
    (ZeroDenominator, EXIT_ZERO_DENOMINATOR, "ZeroDenominator: convergent undefined at index {exc.index}"),
    (NotSemiRegular, EXIT_NOT_SEMIREGULAR, "{exc}"),  # before InvalidSpec, its base
    (InvalidSpec, EXIT_PARSE, "arity error: {exc}"),
    (ValueError, EXIT_PARSE, "invalid argument: {exc}"),
    (CFKitError, EXIT_MODULE_ERROR, "{exc.__class__.__name__}: {exc}"),
)


def _load_periodic(args, needs: str = "a periodic spec") -> tuple[SpecFile, PeriodicCF, int]:
    spec_file, spec, prec = _load(args)
    if not isinstance(spec, PeriodicCF):
        raise _NotPeriodic(f"{args.subcommand} needs {needs}")
    return spec_file, spec, prec


def _bounded(text: str, cap: int, what: str) -> int:
    value = int(text)
    if value < 0 or value > cap:
        raise argparse.ArgumentTypeError(f"{what} must be in 0..{cap}")
    return value


def _bounded_index(text: str) -> int:
    return _bounded(text, MAX_INDEX, "index")


def _bounded_steps(text: str) -> int:
    return _bounded(text, MAX_STEPS, "step count")


def _fraction(text: str) -> Fraction:
    try:
        exponent = re.search(r"[eE]([-+]?[\d_]+)\s*$", text)
        if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
            raise argparse.ArgumentTypeError(f"decimal exponent must be in -{MAX_EXPONENT}..{MAX_EXPONENT}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _literal_list(text: str) -> list:
    return [parse_exact(tok) for tok in text.split(",") if tok.strip()]


# -- subcommands ---------------------------------------------------------------


def cmd_eval(args) -> int:
    spec_file, spec, prec = _load(args)
    pair = convergent_pair(spec, args.n)
    _emit(_report(
        "eval", {**_echo(args, spec_file), "n": args.n}, {"n": args.n},
        {"A": pair.num, "B": pair.den, "value": pair.value()}, prec,
    ), args.json)
    return EXIT_OK


def cmd_continuant(args) -> int:
    prec = args.precision or DEFAULT_PRECISION_BITS
    cont_args = ContinuantArgs(a=tuple(args.a), b=tuple(args.b))
    value = continuant(cont_args)
    oracle_value = continuant_oracle(cont_args) if args.oracle else None
    agreement = oracle_value == value if args.oracle else None
    report = _report(
        "continuant",
        {
            "a": [format_exact(x) for x in cont_args.a],
            "b": [format_exact(x) for x in cont_args.b],
        },
        {
            "n_terms": cont_args.n,
            "oracle_checked": bool(args.oracle),
            "agreement": agreement,
        },
        {"value": value}, prec, exact_only={"oracle_value": oracle_value},
    )
    disagreement = args.oracle and not agreement
    if disagreement:
        report["diagnostics"].append(
            "oracle disagreement: recurrence and determinant differ"
        )
    _emit(report, args.json)
    return EXIT_ORACLE_DISAGREEMENT if disagreement else EXIT_OK


def cmd_tietze(args) -> int:
    spec_file, spec, prec = _load(args)
    bounded = evaluate_tietze(spec, args.eps)
    _emit(_report(
        "tietze",
        {**_echo(args, spec_file), "eps": format_exact(args.eps)},
        {"valid": True, "checked_up_to": bounded.checked_up_to, "n_used": bounded.n_used},
        {"value": bounded.value, "error_bound": bounded.error_bound}, prec,
    ), args.json)
    return EXIT_OK


def cmd_classify(args) -> int:
    spec_file, pcf, prec = _load_periodic(args)
    report = classify(pcf)
    eigen, verdict, matrix = report.eigen, report.verdict, report.matrix
    values = {"limit": verdict.limit, "sublimit": verdict.sublimit}
    values.update((name, getattr(eigen, name)) for name in ("lambda1", "lambda2", "x1", "x2"))
    _emit(_report(
        "classify",
        _echo(args, spec_file),
        {
            "verdict": verdict.kind,
            "condition": verdict.condition,
            "q": verdict.q,
            "period": pcf.period,
            "modulus_relation": eigen.modulus_relation,
        },
        values, prec, exact_only={"trace": matrix.trace, "det": matrix.det},
    ), args.json)
    return EXIT_OK


def cmd_reverse(args) -> int:
    spec_file, pcf, _ = _load_periodic(args)
    reversed_file = specfile_from_periodic(
        reverse_period(pcf), tower=spec_file.tower,
        precision_bits=spec_file.precision_bits,
    )
    print(json.dumps(reversed_file.to_json_dict(), indent=2, ensure_ascii=False))
    return EXIT_OK


def cmd_galois(args) -> int:
    spec_file, pcf, prec = _load_periodic(args)
    record = galois_analysis(pcf)
    alpha, prime = record.alpha.verdict, record.alpha_prime.verdict
    expected = None
    if alpha.is_convergent:
        expected = pcf.b(0) - record.alpha.eigen.x2
    _emit(_report(
        "galois",
        _echo(args, spec_file),
        {
            "alpha_verdict": alpha.kind,
            "alpha_prime_verdict": prime.kind,
            "relation_holds": record.relation_holds,
        },
        {
            "alpha_limit": alpha.limit,
            "alpha_prime_limit": prime.limit,
            "expected_prime_limit": expected,
        },
        prec,
    ), args.json)
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
        spec_file, pcf, prec = _load_periodic(args, "a periodic spec or an explicit matrix")
        matrix = build_period_matrix(pcf)
        echo = _echo(args, spec_file)
    else:
        raise SpecFileError("power-iter needs a spec file or --matrix")
    trajectory = power_iterate(matrix, parse_exact(args.u0), parse_exact(args.v0), args.steps)
    int_text = int_texts()

    def text(value):
        return _exact_or_none(value, int_text) or _float_or_none(value, prec)

    rows = [
        {"n": step.n, "u": text(step.u), "v": text(step.v), "ratio": text(step.ratio)}
        for step in trajectory.steps
    ]
    _emit(_report(
        "power-iter",
        {**echo, "u0": args.u0, "v0": args.v0, "steps": args.steps},
        {"case": trajectory.case, "trajectory": rows},
        {"mu1": trajectory.mu1, "mu2": trajectory.mu2}, prec,
    ), args.json)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # the global flags, taken before and after the subcommand; `main` supplies
    # their defaults, as every parser shares these action objects
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--json", action="store_true", help="emit a JSON report")
    flags.add_argument("--precision", type=int, metavar="BITS", help="working precision for the complex "
                       f"tower ({MIN_PRECISION_BITS}..{MAX_PRECISION_BITS}, default {DEFAULT_PRECISION_BITS})")
    parser = argparse.ArgumentParser(
        prog="cfkit", parents=[flags],
        description="Exact continued-fraction analysis: convergents, continuants, "
        "certified semi-regular evaluation, and classification of periodic CFs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    spec_help = "path to a JSON spec file"

    def command(name, func, help, spec=True):
        """Declare a subcommand, with a spec file positional unless `spec` is False."""
        p = sub.add_parser(name, parents=[flags], help=help)
        p.set_defaults(func=func)
        if spec:
            p.add_argument("spec", help=spec_help)
        return p

    command("eval", cmd_eval, "evaluate one convergent A(n)/B(n)").add_argument(
        "-n", type=_bounded_index, required=True, help="convergent index")

    p_cont = command("continuant", cmd_continuant, "evaluate a continuant", spec=False)
    p_cont.add_argument("--a", type=_literal_list, default=[], metavar="LIST",
                        help="comma-separated a-coefficients (may be empty)")
    p_cont.add_argument("--b", type=_literal_list, required=True, metavar="LIST",
                        help="comma-separated b-coefficients, one more than a")
    p_cont.add_argument("--oracle", action="store_true",
                        help="also run the cofactor-expansion determinant")

    command("tietze", cmd_tietze, "validate and evaluate a semi-regular CF").add_argument(
        "--eps", type=_fraction, required=True,
        help="target accuracy (rational, e.g. 1/1000 or 1e-6)")

    command("classify", cmd_classify, "classify a purely periodic CF")
    command("reverse", cmd_reverse, "emit the reversed-period spec file")
    command("galois", cmd_galois, "classify a CF and its reversed period")

    p_power = command("power-iter", cmd_power_iter, "iterate (u, v) under the period matrix", spec=False)
    source = p_power.add_mutually_exclusive_group()
    source.add_argument("spec", nargs="?", help=spec_help)
    source.add_argument("--matrix", metavar="M11,M12,M21,M22",
                        help="explicit matrix entries instead of a spec file")
    p_power.add_argument("--u0", default="1", help="start numerator (default 1)")
    p_power.add_argument("--v0", default="0", help="start denominator (default 0)")
    p_power.add_argument("--steps", type=_bounded_steps, default=30,
                         help="number of iterations (default 30)")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # `--a -1,2` as `--a=-1,2`
        if argv[i - 1] in _VALUE_FLAGS and re.match(r"-[\d.(√]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = build_parser().parse_args(argv, argparse.Namespace(json=False, precision=None))
        if args.precision is not None and not MIN_PRECISION_BITS <= args.precision <= MAX_PRECISION_BITS:
            _diag(f"precision must be {MIN_PRECISION_BITS}..{MAX_PRECISION_BITS} bits")
            return EXIT_PARSE
        return args.func(args)
    except Exception as exc:
        for kind, code, line in FAILURES:
            if isinstance(exc, kind):
                _diag(line.format(exc=exc))
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
