import argparse
import json
import random
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from cfkit import PeriodicCF, cli, load_specfile, parse_exact, render, reverse_period
from cfkit.cfcore import convergent_pair
from cfkit.cli import MAX_EXPONENT, MAX_STEPS, main
from cfkit.continuants import continuant
from cfkit.scalars import MAX_PRECISION_BITS


#: stands in a spec's data for an int of 5000 digits, which json.dumps refuses
HUGE = "<5000-digit int>"


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data).replace(json.dumps(HUGE), "1" + "2" * 4999), encoding="utf-8")
    return str(path)


@pytest.fixture
def golden_spec(tmp_path):
    return write_spec(tmp_path, {"mode": "periodic", "a": [1], "b": [1], "period": 1})


@pytest.fixture
def footnote_spec(tmp_path):
    return write_spec(tmp_path, {"mode": "periodic", "a": [-1], "b": [2], "period": 1})


@pytest.fixture
def thiele_spec(tmp_path):
    return write_spec(
        tmp_path,
        {"mode": "periodic", "a": [-3, 1, 1], "b": [1, -1, -1], "period": 3},
    )


def run_json(capsys, argv):
    code = main(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestEval:
    def test_golden_fourth_convergent(self, capsys, golden_spec):
        code, report = run_json(capsys, ["eval", golden_spec, "-n", "4"])
        assert code == 0
        assert report["exact_values"]["value"] == "8/5"
        assert report["exact_values"]["A"] == "8"
        assert report["exact_values"]["B"] == "5"

    def test_n_zero_returns_leading_coefficient(self, capsys, footnote_spec):
        code, report = run_json(capsys, ["eval", footnote_spec, "-n", "0"])
        assert code == 0
        assert report["exact_values"]["value"] == "2"

    def test_malformed_json_exits_2_with_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"mode": "finite"', encoding="utf-8")
        code = main(["eval", str(path), "-n", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "line" in captured.err
        assert captured.out == ""

    def test_zero_denominator_exits_3(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"mode": "periodic", "a": [-1], "b": [1], "period": 1})
        code = main(["eval", spec, "-n", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert "index 2" in captured.err

    def test_value_past_the_int_string_limit(self, capsys, tmp_path):
        # F(21002) has 4389 digits, past the 4300-digit int/str default limit
        spec = write_spec(tmp_path, {"mode": "generator", "generator": {"name": "golden"}})
        code, report = run_json(capsys, ["eval", spec, "-n", "21000"])
        assert code == 0
        fib = [0, 1]
        while len(fib) < 21003:
            fib.append(fib[-1] + fib[-2])
        assert parse_exact(report["exact_values"]["value"]) == Fraction(fib[21002], fib[21001])
        assert parse_exact(report["exact_values"]["A"]) == fib[21002]

    def test_golden_value_takes_no_big_gcd(self, capsys, golden_spec, gcd_bits):
        # a(n) = 1 and integer b(n) make A and B coprime: no gcd on them
        code, report = run_json(capsys, ["eval", golden_spec, "-n", "10000"])
        assert code == 0
        assert max(gcd_bits, default=0) <= 1000
        assert report["exact_values"]["value"] == f"{report['exact_values']['A']}/{report['exact_values']['B']}"

    @pytest.mark.parametrize("generator", ["golden", "sqrt2"])
    def test_deep_digits_match_closed_forms(self, capsys, tmp_path, generator):
        # golden: A(n) = F(n+2), B(n) = F(n+1) by fast doubling; sqrt2:
        # [[1, 2], [1, 1]]^(n+1) = [[A(n), 2 B(n)], [B(n), A(n)]] (Pell
        # numbers) by repeated squaring.  The digits are read as integers
        # by decimal, apart from cfkit.
        n = 10**5
        if generator == "golden":
            f, g = 0, 1  # F(j), F(j+1)
            for bit in bin(n + 1)[2:]:
                f, g = f * (2 * g - f), f * f + g * g
                if bit == "1":
                    f, g = g, f + g
            num, den = g, f
        else:
            def mul(x, y):
                return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                        x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])

            power, base, e = (1, 0, 0, 1), (1, 2, 1, 1), n + 1
            while e:
                if e & 1:
                    power = mul(power, base)
                base, e = mul(base, base), e >> 1
            num, den = power[0], power[2]
        spec = write_spec(tmp_path, {"mode": "generator", "generator": {"name": generator}})
        code, report = run_json(capsys, ["eval", spec, "-n", str(n)])
        assert code == 0
        exact = report["exact_values"]
        assert (int(Decimal(exact["A"])), int(Decimal(exact["B"]))) == (num, den)
        value_num, _, value_den = exact["value"].partition("/")
        assert (int(Decimal(value_num)), int(Decimal(value_den))) == (num, den)

    def test_each_big_integer_rendered_once(self, capsys, golden_spec, monkeypatch):
        # value = A/B in lowest terms: its digits are A's and B's, not a third
        # and fourth rendering of the same integers
        rendered = []
        int_text = render._int_text

        def counted(n):
            rendered.append(n)
            return int_text(n)

        monkeypatch.setattr(render, "_int_text", counted)
        code, report = run_json(capsys, ["eval", golden_spec, "-n", "20000"])
        assert code == 0
        assert len([n for n in rendered if n.bit_length() > 64]) == 2
        pair = convergent_pair(PeriodicCF(a_block=(1,), b_block=(1,)), 20000)
        exact = report["exact_values"]
        assert exact["A"] == int_text(pair.num) and exact["B"] == int_text(pair.den)
        assert exact["value"] == f"{exact['A']}/{exact['B']}"

    @pytest.mark.parametrize("generator, n", [
        pytest.param("golden", 20_000, id="golden"),
        pytest.param("sqrt2", 50_000, id="sqrt2"),
    ])
    def test_streams_in_bounded_memory(self, capsys, tmp_path, generator, n):
        # A table of 20000 Fibonacci-sized pairs takes about 39 MB.  golden is
        # a PeriodicCF and takes the period-power path; sqrt2 is a RuleCF and
        # takes the product tree, whose 50000 leaves would take about 4 MB if
        # they were collected in a list.
        spec = write_spec(tmp_path, {"mode": "generator", "generator": {"name": generator}})
        run_json(capsys, ["eval", spec, "-n", "10"])  # warm caches and lazy imports
        tracemalloc.start()
        try:
            code = main(["--json", "eval", spec, "-n", str(n)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 2 * 2**20

    def test_non_finite_complex_literal_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "inf.json"
        spec.write_text(
            '{"mode": "periodic", "tower": "complex", "a": [1], "b": [Infinity], "period": 1}',
            encoding="utf-8",
        )
        assert main(["eval", str(spec), "-n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err

    def test_human_output(self, capsys, golden_spec):
        code = main(["eval", golden_spec, "-n", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "value = 8/5" in out


class TestContinuant:
    def test_single_term(self, capsys):
        code, report = run_json(capsys, ["continuant", "--a", "1", "--b", "2,3"])
        assert code == 0
        assert report["exact_values"]["value"] == "7"

    def test_empty_a(self, capsys):
        code, report = run_json(capsys, ["continuant", "--b", "5"])
        assert code == 0
        assert report["exact_values"]["value"] == "5"

    def test_oracle_agreement(self, capsys):
        code, report = run_json(
            capsys, ["continuant", "--a", "1,1", "--b", "1,1,1", "--oracle"]
        )
        assert code == 0
        assert report["exact_values"]["value"] == "3"
        assert report["result"]["agreement"] is True

    def test_oracle_disagreement_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "continuant_oracle", lambda args: continuant(args) + 1)
        code = main(["--json", "continuant", "--a", "1,1", "--b", "1,1,1", "--oracle"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == "oracle disagreement: recurrence and determinant differ\n"
        report = json.loads(captured.out)
        assert report["result"]["agreement"] is False
        assert report["exact_values"] == {"value": "3", "oracle_value": "4"}
        assert report["diagnostics"] == [captured.err.strip()]

    def test_arity_mismatch_exits_2(self, capsys):
        code = main(["continuant", "--a", "1,1", "--b", "1,1"])
        assert code == 2

    def test_oracle_size_limit_exits_7(self, capsys):
        a = ",".join(["1"] * 13)
        b = ",".join(["1"] * 14)
        code = main(["continuant", "--a", a, "--b", b, "--oracle"])
        captured = capsys.readouterr()
        assert code == 7
        assert "SizeLimit" in captured.err


class TestTietze:
    def test_sqrt2(self, capsys, tmp_path):
        spec = write_spec(tmp_path, {"mode": "generator", "generator": {"name": "sqrt2"}})
        code, report = run_json(capsys, ["tietze", spec, "--eps", "1e-6"])
        assert code == 0
        assert report["float_values"]["value"].startswith("1.41421")
        num, den = map(int, report["exact_values"]["error_bound"].split("/"))
        assert num / den < 1e-6

    def test_eps_past_the_int_string_limit(self, capsys, tmp_path):
        spec = write_spec(tmp_path, {"mode": "generator", "generator": {"name": "sqrt2"}})
        code, report = run_json(capsys, ["tietze", spec, "--eps", "1e-4400"])
        assert code == 0
        assert parse_exact(report["input"]["eps"]) == Fraction(1, 10**4400)
        assert parse_exact(report["exact_values"]["error_bound"]) <= Fraction(1, 10**4400)

    @pytest.mark.parametrize("eps", ["1e-1000000000", "1E+1_000_001", "2.5e-1000001"])
    def test_eps_with_a_huge_exponent_is_refused_up_front(self, tmp_path, eps):
        # Fraction("1e-k") would compute 10**k before anything could check it
        spec = write_spec(tmp_path, {"mode": "generator", "generator": {"name": "sqrt2"}})
        proc = subprocess.run(
            [sys.executable, "-m", "cfkit", "tietze", spec, "--eps", eps],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.endswith(
            f"argument --eps: decimal exponent must be in -{MAX_EXPONENT}..{MAX_EXPONENT}\n"
        )

    def test_eps_at_the_exponent_bound_is_read(self):
        assert cli._fraction(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT

    @pytest.mark.parametrize("eps", [f"100e{MAX_EXPONENT - 1}", f"0.001e-{MAX_EXPONENT - 2}"])
    def test_eps_is_bounded_by_its_value(self, eps):
        # the one magnitude rule of complex spec parts: 100e999999 is 10^1000001,
        # though its written exponent is in range
        with pytest.raises(argparse.ArgumentTypeError, match="decimal exponent must be in"):
            cli._fraction(eps)
        assert cli._fraction(f"0.01e{MAX_EXPONENT + 2}") == 10**MAX_EXPONENT

    @pytest.mark.parametrize("eps", ["inf", "-Infinity", "NaN", "sNaN", "1_", "1__0"])
    def test_eps_that_is_no_finite_rational_is_refused(self, eps):
        with pytest.raises(argparse.ArgumentTypeError, match=f"not a rational: {eps!r}"):
            cli._fraction(eps)

    def test_footnote_closed_form(self, capsys, footnote_spec):
        code, report = run_json(capsys, ["tietze", footnote_spec, "--eps", "1/10"])
        assert code == 0
        assert report["exact_values"]["value"] == "12/11"
        assert report["exact_values"]["error_bound"] == "1/11"
        assert report["result"]["n_used"] == 10

    def test_violation_exits_5(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path, {"mode": "periodic", "a": [-1], "b": ["3/2"], "period": 1}
        )
        code = main(["tietze", spec, "--eps", "1/10"])
        captured = capsys.readouterr()
        assert code == 5
        assert "sum_below_one at n = 1" in captured.err
        assert captured.out == ""

    def test_violation_before_the_stopping_index_exits_5(self, capsys, tmp_path):
        b = [1] * 6 + ["1/2"] + [1] * 20
        spec = write_spec(tmp_path, {"mode": "finite", "a": [1] * 26, "b": b})
        code = main(["tietze", spec, "--eps", "1/1000"])
        captured = capsys.readouterr()
        assert code == 5
        assert "b_below_one at n = 6" in captured.err
        assert captured.out == ""

    def test_violation_in_the_last_term_exits_5(self, capsys, tmp_path):
        # the first 29 terms alone certify 34/21 +- 1/13; b(30) moves the value to -1.44e8
        b = [1] * 30 + ["-1285572499999999999979199/2080100000000000000000000"]
        spec = write_spec(tmp_path, {"mode": "finite", "a": [1] * 30, "b": b})
        code = main(["tietze", spec, "--eps", "1/10"])
        captured = capsys.readouterr()
        assert code == 5
        assert "b_below_one at n = 30" in captured.err
        assert captured.out == ""

    def test_finite_spec_checked_to_its_last_term(self, capsys, tmp_path):
        spec = write_spec(tmp_path, {"mode": "finite", "a": [1] * 30, "b": [1] * 31})
        code, report = run_json(capsys, ["tietze", spec, "--eps", "1/10"])
        assert code == 0
        assert report["result"]["n_used"] == 3
        assert report["result"]["checked_up_to"] == 30


class TestClassify:
    def test_golden(self, capsys, golden_spec):
        code, report = run_json(capsys, ["classify", golden_spec])
        assert code == 0
        assert report["result"]["verdict"] == "convergent"
        assert report["result"]["condition"] == "C2"
        assert report["exact_values"]["limit"] == "(1 + √5)/2"

    def test_thiele(self, capsys, thiele_spec):
        code, report = run_json(capsys, ["classify", thiele_spec])
        assert code == 0
        assert report["result"]["verdict"] == "divergent_thiele"
        assert report["result"]["q"] == 0
        assert report["exact_values"]["x1"] == "2"
        assert report["exact_values"]["x2"] == "1"

    def test_footnote_repeated(self, capsys, footnote_spec):
        code, report = run_json(capsys, ["classify", footnote_spec])
        assert code == 0
        assert report["result"]["verdict"] == "convergent"
        assert report["result"]["condition"] == "C1"
        assert report["exact_values"]["limit"] == "1"

    def test_non_periodic_exits_6(self, capsys, tmp_path):
        spec = write_spec(tmp_path, {"mode": "finite", "a": [1], "b": [1, 1]})
        code = main(["classify", spec])
        assert code == 6

    def test_golden_generator_is_periodic(self, capsys, tmp_path):
        spec = write_spec(tmp_path, {"mode": "generator", "generator": {"name": "golden"}})
        code, report = run_json(capsys, ["classify", spec])
        assert code == 0
        assert report["exact_values"]["limit"] == "(1 + √5)/2"


class TestReverse:
    def test_round_trip(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {"mode": "periodic", "a": [1, -2, 3], "b": [4, 5, 6], "period": 3},
        )
        code = main(["reverse", spec])
        first = capsys.readouterr().out
        assert code == 0
        data = json.loads(first)
        assert data["a"] == [3, -2, 1]
        assert data["b"] == [4, 6, 5]
        # feed the output back in and reverse again
        path2 = tmp_path / "rev.json"
        path2.write_text(first, encoding="utf-8")
        code = main(["reverse", str(path2)])
        second = capsys.readouterr().out
        assert code == 0
        original = json.loads((tmp_path / "spec.json").read_text())
        roundtripped = json.loads(second)
        assert roundtripped["a"] == original["a"]
        assert roundtripped["b"] == original["b"]

    def test_non_periodic_exits_6(self, capsys, tmp_path):
        spec = write_spec(tmp_path, {"mode": "finite", "a": [1], "b": [1, 1]})
        assert main(["reverse", spec]) == 6

    def test_integers_past_the_int_string_limit(self, capsys, tmp_path):
        # 5000 digits: json's int() and str() refuse them past 4300 digits
        digits = "1" + "2" * 4999
        text = '{"mode": "periodic", "a": [1, -2, 3], "b": [%s, 5, 6], "period": 3}'
        bare, quoted = tmp_path / "bare.json", tmp_path / "quoted.json"
        bare.write_text(text % digits, encoding="utf-8")
        quoted.write_text(text % f'"{digits}"', encoding="utf-8")
        outputs = []
        for path in (bare, quoted):
            assert main(["eval", str(path), "-n", "0"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and f"\nA = {digits}\n" in outputs[0]
        assert main(["reverse", str(bare)]) == 0
        reversed_path = tmp_path / "rev.json"
        reversed_path.write_text(capsys.readouterr().out, encoding="utf-8")
        expected = reverse_period(load_specfile(str(quoted)).to_cfspec())
        assert load_specfile(str(reversed_path)).to_cfspec() == expected

    @pytest.mark.parametrize("prec", [64, 128, 256, 1000])
    def test_complex_literals_read_back_exactly(self, capsys, tmp_path, prec):
        # literals with more digits than the precision holds round to full-width
        # binary parts, which the reversed spec must write with enough digits
        rng = random.Random(prec)

        def literal():
            digits = "".join(rng.choices("0123456789", k=prec // 3 + 10))
            return f"{rng.choice(('', '-'))}{rng.randint(1, 999)}.{digits}e{rng.randint(-40, 40)}"

        coefficients = [{"re": literal(), "im": literal()} for _ in range(6)]
        spec = write_spec(tmp_path, {"mode": "periodic", "a": coefficients[:3],
                                     "b": coefficients[3:], "precision_bits": prec})
        assert main(["reverse", spec]) == 0
        reversed_spec = write_spec(tmp_path, json.loads(capsys.readouterr().out), "rev.json")
        loaded = load_specfile(reversed_spec)
        expected = reverse_period(load_specfile(spec).to_cfspec())
        assert (loaded.tower, loaded.precision_bits) == ("complex", prec)
        assert loaded.a == expected.a_block and loaded.b == expected.b_block


class TestGalois:
    def test_golden(self, capsys, golden_spec):
        code, report = run_json(capsys, ["galois", golden_spec])
        assert code == 0
        assert report["result"]["relation_holds"] is True
        assert report["exact_values"]["alpha_prime_limit"] == "(1 + √5)/2"
        assert report["exact_values"]["expected_prime_limit"] == "(1 + √5)/2"

    def test_thiele_reports_both(self, capsys, thiele_spec):
        code, report = run_json(capsys, ["galois", thiele_spec])
        assert code == 0
        assert report["result"]["alpha_verdict"] == "divergent_thiele"
        assert report["result"]["relation_holds"] is True


class TestPowerIter:
    def test_with_spec(self, capsys, golden_spec):
        code, report = run_json(
            capsys, ["power-iter", golden_spec, "--u0", "1", "--v0", "0", "--steps", "10"]
        )
        assert code == 0
        assert report["result"]["case"] == "dominant_generic"
        rows = report["result"]["trajectory"]
        assert len(rows) == 11
        assert rows[0]["ratio"] is None  # v0 = 0
        assert rows[10]["u"] == "89"     # Fibonacci

    def test_with_explicit_matrix(self, capsys):
        code, report = run_json(
            capsys,
            ["power-iter", "--matrix", "1,-1,1,0", "--u0", "1", "--v0", "0", "--steps", "6"],
        )
        assert code == 0
        assert report["result"]["case"] == "equal_modulus"
        rows = report["result"]["trajectory"]
        assert (rows[6]["u"], rows[6]["v"]) == (rows[0]["u"], rows[0]["v"])

    def test_steps_past_the_cap_exit_2_at_parse_time(self, capsys):
        # every step is kept and rendered, so memory grows with steps squared
        with pytest.raises(SystemExit) as exc:
            main(["power-iter", "--matrix", "1,1,1,0", "--steps", str(MAX_STEPS + 1)])
        assert exc.value.code == 2
        assert f"step count must be in 0..{MAX_STEPS}" in capsys.readouterr().err

    def test_plain_text_table(self, capsys):
        assert main(["power-iter", "--matrix", "1,1,1,0", "--steps", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-5:] == ["n\tu\tv\tratio", "0\t1\t0\t-", "1\t1\t1\t1",
                              "2\t2\t1\t2", "3\t3\t2\t3/2"]

    def test_degenerate_matrix_exits_7(self, capsys):
        code = main(["power-iter", "--matrix", "1,1,0,1"])
        captured = capsys.readouterr()
        assert code == 7
        assert "DegenerateMatrix" in captured.err

    def test_requires_input(self, capsys):
        assert main(["power-iter"]) == 2

    @pytest.mark.parametrize("argv", [
        ["/nonexistent.json", "--matrix", "1,1,1,0"],
        ["--matrix", "1,1,1,0", "SPEC"],
    ], ids=["missing-spec-first", "spec-after-matrix"])
    def test_spec_and_matrix_exclude_each_other(self, capsys, golden_spec, argv):
        argv = [golden_spec if arg == "SPEC" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(["power-iter", *argv, "--steps", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err

    def test_each_big_integer_rendered_once(self, capsys, monkeypatch):
        # F(n) is u at step n - 1, v at step n and a term of two ratios
        rendered = []
        int_text = render._int_text

        def counted(n):
            rendered.append(n)
            return int_text(n)

        monkeypatch.setattr(render, "_int_text", counted)
        code, report = run_json(capsys, ["power-iter", "--matrix", "1,1,1,0", "--steps", "200"])
        assert code == 0
        big = [n for n in rendered if n.bit_length() > 64]
        assert big and len(big) == len(set(big))
        fib = [0, 1]
        while len(fib) < 202:
            fib.append(fib[-1] + fib[-2])
        last = report["result"]["trajectory"][200]
        assert (last["u"], last["v"], last["ratio"]) == (
            str(fib[201]), str(fib[200]), f"{fib[201]}/{fib[200]}"
        )


@pytest.mark.parametrize("argv", [
    ["continuant", "--b", "1/0+√2"],
    ["power-iter", "--matrix", "1,1,1,0", "--u0", "1/0+√5"],
    ["eval", "SPEC", "-n", "0"],
], ids=["continuant", "power-iter", "spec"])
def test_zero_denominator_in_a_literal_exits_2(capsys, tmp_path, argv):
    spec = write_spec(tmp_path, {"mode": "finite", "a": [], "b": ["1/0+√2"]})
    code = main([spec if arg == "SPEC" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "SpecFileError: zero denominator" in captured.err


@pytest.mark.parametrize("argv, flag, code", [
    (["continuant", "--b", "1,1,1"], ["--a", "-1,2"], 0),
    (["continuant", "--a", "1"], ["--b", "-1,2"], 0),
    (["power-iter", "--steps", "2"], ["--matrix", "-1,1,1,0"], 0),
    (["power-iter", "--matrix", "1,1,1,0", "--steps", "2"], ["--u0", "-1/2"], 0),
    (["power-iter", "--matrix", "1,1,1,0", "--steps", "2"], ["--v0", "-√5/2"], 0),
    (["power-iter", "--matrix", "1,1,1,0", "--steps", "2"], ["--v0", "-(1+√5)/2"], 0),
    (["tietze", "SPEC"], ["--eps", "-1/2"], 2),
], ids=["a", "b", "matrix", "u0", "v0", "v0-signed-parenthesis", "eps"])
def test_negative_value_after_a_space(capsys, tmp_path, argv, flag, code):
    # argparse alone takes "-1/2" for an option; the --flag=VALUE form always worked
    spec = write_spec(tmp_path, {"mode": "generator", "generator": {"name": "sqrt2"}})
    argv = [spec if arg == "SPEC" else arg for arg in argv]
    assert main([*argv, *flag]) == code
    spaced = capsys.readouterr()
    assert main([*argv, "=".join(flag)]) == code
    assert capsys.readouterr() == spaced
    if code:
        assert spaced.err == "invalid argument: epsilon must be positive\n"
    else:
        assert spaced.out.startswith("command: ") and spaced.err == ""


@pytest.mark.parametrize("argv, message", [
    (["tietze", "SPEC", "--eps", "0"], "invalid argument: epsilon must be positive\n"),
    (["tietze", "SPEC", "--eps", "1/0"], "argument --eps: not a rational: '1/0'\n"),
    (["power-iter", "--matrix", "1,1,1"],
     "SpecFileError: --matrix needs exactly four entries m11,m12,m21,m22\n"),
], ids=["eps-zero", "eps-not-rational", "matrix-three-entries"])
def test_refused_argument_exits_2(capsys, tmp_path, argv, message):
    spec = write_spec(tmp_path, {"mode": "generator", "generator": {"name": "sqrt2"}})
    try:
        code = main([spec if arg == "SPEC" else arg for arg in argv])
    except SystemExit as exc:  # argparse refuses the value itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.endswith(message)


@pytest.mark.parametrize("generator, same_as", [
    ({"name": [1]}, None),
    ({"name": "regular", "params": {"b": 5}}, None),
    ({"name": "regular", "params": [1]}, None),
    ({"name": "regular", "params": {"b": ["x", "y"]}}, None),
    ({"name": "regular", "params": {"b": ["1/2", "3"]}}, {"mode": "finite", "a": [1], "b": ["1/2", 3]}),
], ids=["name-list", "param-int", "params-list", "param-junk", "param-fractions"])
def test_generator_params_are_read_as_literals(capsys, tmp_path, generator, same_as):
    spec = write_spec(tmp_path, {"mode": "generator", "generator": generator})
    code = main(["eval", spec, "-n", "1"])
    captured = capsys.readouterr()
    if same_as is None:
        assert code == 2 and "SpecFileError" in captured.err
    else:
        assert main(["eval", write_spec(tmp_path, same_as, "same.json"), "-n", "1"]) == code == 0
        assert capsys.readouterr().out == captured.out


@pytest.mark.parametrize("data, message", [
    ({"mode": "finite", "a": [1], "b": [1, 1], "generator": {"name": "golden"}},
     "unknown finite spec fields: generator"),
    ({"mode": "periodic", "a": [1], "b": [1], "generator": {"name": "golden"}},
     "unknown periodic spec fields: generator"),
    ({"mode": "generator", "generator": {"name": "golden"}, "period": 7},
     "unknown generator spec fields: period"),
    *(({"mode": "periodic", "a": [1], "b": [1], "tower": tower}, "unknown tower")
      for tower in (False, 0, [], {}, "")),
    ({"mode": "generator", "generator": {"name": "golden", "label": "phi"}},
     "unknown generator fields: label"),
    ({"mode": "periodic", "a": [1], "b": [1], "period": True}, "period = True"),
    ({"mode": "periodic", "a": [1], "b": [1], "period": 1.0}, "period = 1.0"),
    ({"mode": "generator", "generator": {"name": "golden", "params": {"b": [5]}}},
     "generator 'golden' does not take parameter 'b'"),
    ({"mode": "generator", "generator": {"name": "regular", "params": {"b": [1, 2], "c": [3]}}},
     "generator 'regular' does not take parameter 'c'"),
    ([{"mode": "periodic", "a": [1], "b": [1]}], "spec file must hold a JSON object"),
    ({"mode": "periodic", "a": [], "b": []}, "period must be >= 1"),
    ({"mode": "finite", "a": 1, "b": [1, 1]}, "finite mode needs a and b lists"),
    ({"mode": "periodic", "a": [1], "b": [{"re": 1, "im": 0, "abs": 1}]},
     "complex literal needs exactly re and im"),
    *(({"mode": "periodic", "a": [1, 1], "b": [{"re": part, "im": 1}, {"re": 1, "im": 0}]},
       f"complex literal part {part!r} is not a number")
      for part in (None, [1], {"re": 1, "im": 0}, True, "abc", "1/0")),
    # a refusal names an int past the int/str limit by its size, as repr cannot show it
    # (reprlib's abridged form, which sorts a dict's keys)
    ({"mode": "periodic", "a": [1], "b": [1], "precision_bits": HUGE},
     "precision_bits must be 64..65536, got <16607-bit integer>"),
    ({"mode": "periodic", "a": [1], "b": [1], "period": HUGE}, "period = <16607-bit integer>"),
    ({"mode": HUGE, "a": [1], "b": [1]}, "mode must be finite, periodic or generator, got <16607-bit integer>"),
    ({"mode": "periodic", "a": [1], "b": [{"re": HUGE, "im": 0, "abs": 1}]},
     "complex literal needs exactly re and im: {'abs': 1, 'im': 0, 're': <16607-bit integer>}"),
    ({"mode": "periodic", "a": [1], "b": [{"re": HUGE, "im": 1}], "tower": "rational"},
     "literal {'im': 1, 're': <16607-bit integer>} does not fit the rational tower"),
    ({"mode": "periodic", "a": [1], "b": [{"re": HUGE, "im": "inf"}]},
     "complex literal {'im': 'inf', 're': <16607-bit integer>} is not finite"),
    ({"mode": "generator", "generator": {"name": "golden", "params": {"b": HUGE}}},
     "generator params must map names to lists, got {'b': <16607-bit integer>}"),
    ({"mode": "periodic", "a": [1], "b": [1], "tower": [HUGE]}, "unknown tower [<16607-bit integer>]"),
], ids=["finite-generator", "periodic-generator", "generator-period", "tower-false",
        "tower-0", "tower-list", "tower-dict", "tower-empty", "generator-label",
        "period-bool", "period-float", "golden-params", "regular-extra-param",
        "json-array", "empty-period", "a-not-a-list", "complex-third-key",
        "part-null", "part-list", "part-object", "part-true", "part-text", "part-zero-denominator",
        "huge-precision", "huge-period", "huge-mode", "huge-complex-third-key", "huge-complex-rational",
        "huge-complex-infinite", "huge-params", "huge-tower"])
def test_malformed_spec_exits_2(capsys, tmp_path, data, message):
    code = main(["eval", write_spec(tmp_path, data), "-n", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("SpecFileError: ") and message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("content, message", [
    (b'{"mode": "periodic", "a": [1], "b": ' + b"[" * 3000 + b"1" + b"]" * 3000 + b"}", "nests too deeply"),
    ('{"mode": "generator", "generator": {"name": "golden"}} é'.encode("latin-1"), "'utf-8' codec"),
], ids=["nested-3000", "latin-1"])
def test_unreadable_spec_file_exits_2(capsys, tmp_path, content, message):
    spec = tmp_path / "spec.json"
    spec.write_bytes(content)
    code = main(["classify", str(spec)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("SpecFileError: cannot read spec file: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_complex_part_beyond_the_bound_exits_2_at_once(tmp_path):
    # b = (10^-e + i, 1 + 10^-e i): classify took 1.6 s at e = 10^6 and 20 s at e = 10^7
    spec = tmp_path / "spec.json"
    tiny = f'"1e-{MAX_EXPONENT + 1}"'
    spec.write_text('{"mode": "periodic", "a": [1, 1], "b": [{"re": %s, "im": 1}, {"re": 1, "im": %s}]}'
                    % (tiny, tiny), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "cfkit", "classify", str(spec)],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"SpecFileError: complex part 1.0e-{MAX_EXPONENT + 1} lies outside "
                           f"10^-{MAX_EXPONENT}..10^{MAX_EXPONENT} in magnitude\n")


class TestExitContract:
    """`cli.FAILURES` is the one statement of the failure exit codes, and
    both the module docstring and README's "Exit codes" paragraph list them."""

    @staticmethod
    def documented(text: str, code_pattern: str) -> set[int]:
        paragraph = text[text.index("Exit codes:"):].split("\n\n")[0]
        return {int(code) for code in re.findall(code_pattern, paragraph)}

    @pytest.mark.parametrize("source", ["docstring", "readme"])
    def test_documented_codes_are_the_table_codes(self, source):
        if source == "docstring":
            documented = self.documented(cli.__doc__, r"(?:: |, )(\d) ")
        else:
            readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
            documented = self.documented(readme, r"`(\d)`")
        table = {code for _, code, _ in cli.FAILURES}
        assert table <= documented  # every code the table returns is documented
        # every documented failure has a row; 4 reports a result, 0 success
        assert documented - {0, 4} == table

    def test_every_row_can_match(self):
        # the first matching row wins, so a row under one of its base types is dead
        kinds = [kind for kind, _, _ in cli.FAILURES]
        for i, kind in enumerate(kinds):
            assert not any(issubclass(kind, earlier) for earlier in kinds[:i]), kind


REPORT_KEYS = {
    "eval": (["n"], ["A", "B", "value"], ["A", "B", "value"]),
    "continuant": (
        ["n_terms", "oracle_checked", "agreement"], ["value", "oracle_value"], ["value"]
    ),
    "tietze": (
        ["valid", "checked_up_to", "n_used"], ["value", "error_bound"], ["value", "error_bound"]
    ),
    "classify": (
        ["verdict", "condition", "q", "period", "modulus_relation"],
        ["limit", "sublimit", "lambda1", "lambda2", "x1", "x2", "trace", "det"],
        ["limit", "sublimit", "lambda1", "lambda2", "x1", "x2"],
    ),
    "galois": (
        ["alpha_verdict", "alpha_prime_verdict", "relation_holds"],
        ["alpha_limit", "alpha_prime_limit", "expected_prime_limit"],
        ["alpha_limit", "alpha_prime_limit", "expected_prime_limit"],
    ),
    "power-iter": (["case", "trajectory"], ["mu1", "mu2"], ["mu1", "mu2"]),
}


class TestReportHygiene:
    @pytest.mark.parametrize("command", sorted(REPORT_KEYS))
    def test_report_keys_in_order(self, capsys, golden_spec, command):
        extra = {
            "eval": [golden_spec, "-n", "4"],
            "continuant": ["--a", "1", "--b", "2,3", "--oracle"],
            "tietze": [golden_spec, "--eps", "1/100"],
            "classify": [golden_spec],
            "galois": [golden_spec],
            "power-iter": [golden_spec, "--steps", "3"],
        }[command]
        code, report = run_json(capsys, [command] + extra)
        assert code == 0
        assert list(report) == [
            "command", "input", "result", "exact_values", "float_values", "diagnostics"
        ]
        result, exact, floats = REPORT_KEYS[command]
        assert list(report["result"]) == result
        assert list(report["exact_values"]) == exact
        assert list(report["float_values"]) == floats

    def test_json_schema_stable_across_inputs(self, capsys, golden_spec, footnote_spec, thiele_spec):
        reports = []
        for spec in (golden_spec, footnote_spec, thiele_spec):
            _, report = run_json(capsys, ["classify", spec])
            reports.append(report)
        keysets = [
            (
                tuple(sorted(r)),
                tuple(sorted(r["result"])),
                tuple(sorted(r["exact_values"])),
                tuple(sorted(r["float_values"])),
            )
            for r in reports
        ]
        assert len(set(keysets)) == 1

    def test_stdout_carries_report_only(self, capsys, golden_spec):
        code = main(["--json", "classify", golden_spec])
        captured = capsys.readouterr()
        assert code == 0
        json.loads(captured.out)  # pure JSON
        assert captured.err == ""

    def test_precision_flag_controls_rendering(self, capsys, golden_spec):
        _, coarse = run_json(capsys, ["classify", golden_spec])
        code = main(["--json", "--precision", "256", "classify", golden_spec])
        fine = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(fine["float_values"]["limit"]) > len(coarse["float_values"]["limit"])

    def test_precision_floor(self, capsys, golden_spec):
        assert main(["--precision", "16", "classify", golden_spec]) == 2

    @pytest.mark.parametrize("command", [["classify"], ["power-iter", "--steps", "3"]])
    def test_precision_ceiling(self, capsys, tmp_path, golden_spec, command):
        # 2^16 bits is the most either way of setting it takes; at 10^6 bits a
        # classify of this spec ran for 16 s
        assert main(["--precision", str(MAX_PRECISION_BITS), *command, golden_spec]) == 0
        capsys.readouterr()
        assert main(["--precision", str(MAX_PRECISION_BITS + 1), *command, golden_spec]) == 2
        assert "precision must be 64..65536 bits" in capsys.readouterr().err
        spec = write_spec(tmp_path, {"mode": "periodic", "a": [1], "b": [1], "precision_bits": 10**6}, "wide.json")
        assert main([*command, spec]) == 2
        assert "precision_bits must be 64..65536, got 1000000" in capsys.readouterr().err

    def test_global_flags_accepted_after_subcommand(self, capsys, golden_spec):
        code = main(["classify", golden_spec, "--json", "--precision", "256"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["exact_values"]["limit"] == "(1 + √5)/2"

    @pytest.mark.parametrize("argv", [
        ["--json", "classify", "SPEC", "--precision", "256"],
        ["--precision", "256", "classify", "SPEC", "--json"],
    ], ids=["json-first", "precision-first"])
    def test_global_flags_on_either_side_of_the_subcommand(self, capsys, golden_spec, argv):
        _, coarse = run_json(capsys, ["classify", golden_spec])
        code = main([golden_spec if arg == "SPEC" else arg for arg in argv])
        fine = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(fine["float_values"]["limit"]) > len(coarse["float_values"]["limit"])

    def test_subcommand_help_describes_global_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--help"])
        assert exc.value.code == 0
        assert "emit a JSON report" in capsys.readouterr().out

    def test_exact_values_round_trip_through_parser(self, capsys, golden_spec, thiele_spec, footnote_spec):
        from cfkit import parse_exact, format_exact

        for spec in (golden_spec, thiele_spec, footnote_spec):
            _, report = run_json(capsys, ["classify", spec])
            for text in report["exact_values"].values():
                if text is None:
                    continue
                assert format_exact(parse_exact(text)) == text


def test_installed_entry_point(tmp_path):
    spec = write_spec(tmp_path, {"mode": "periodic", "a": [1], "b": [1], "period": 1})
    proc = subprocess.run(
        [sys.executable, "-m", "cfkit", "--json", "classify", spec],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["exact_values"]["limit"] == "(1 + √5)/2"
