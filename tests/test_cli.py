import json
import subprocess
import sys
from fractions import Fraction

import pytest

from cfkit import parse_exact
from cfkit.cli import main


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
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

    def test_footnote_closed_form(self, capsys, footnote_spec):
        code, report = run_json(capsys, ["tietze", footnote_spec, "--eps", "1/10"])
        assert code == 0
        assert report["exact_values"]["value"] == "13/12"
        assert report["exact_values"]["error_bound"] == "1/11"
        assert report["result"]["n_used"] == 11

    def test_violation_exits_5(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path, {"mode": "periodic", "a": [-1], "b": ["3/2"], "period": 1}
        )
        code = main(["tietze", spec, "--eps", "1/10"])
        captured = capsys.readouterr()
        assert code == 5
        assert "sum_below_one" in captured.err
        assert "n=1" in captured.err
        assert captured.out == ""


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

    def test_degenerate_matrix_exits_7(self, capsys):
        code = main(["power-iter", "--matrix", "1,1,0,1"])
        captured = capsys.readouterr()
        assert code == 7
        assert "DegenerateMatrix" in captured.err

    def test_requires_input(self, capsys):
        assert main(["power-iter"]) == 2


class TestReportHygiene:
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

    def test_global_flags_accepted_after_subcommand(self, capsys, golden_spec):
        code = main(["classify", golden_spec, "--json", "--precision", "256"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["exact_values"]["limit"] == "(1 + √5)/2"

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
