import json
from fractions import Fraction

import pytest

from cfkit import ComplexFloat, FiniteCF, PeriodicCF, quadext
from cfkit.errors import SpecFileError
from cfkit.specfile import load_specfile, parse_spec_dict, specfile_from_periodic


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestLiterals:
    def test_rational_strings_exact(self):
        spec = parse_spec_dict({"mode": "finite", "a": ["1/3"], "b": ["2", -5]})
        assert spec.a == (Fraction(1, 3),)
        assert spec.b == (Fraction(2), -5)
        assert spec.tower == "rational"

    def test_floats_rejected_in_rational_tower(self):
        with pytest.raises(SpecFileError):
            parse_spec_dict({"mode": "finite", "a": [1.5], "b": [1, 1], "tower": "rational"})

    def test_complex_literals(self):
        spec = parse_spec_dict(
            {"mode": "finite", "a": [{"re": 1, "im": 2}], "b": [1, 2]}
        )
        assert spec.tower == "complex"
        assert isinstance(spec.a[0], ComplexFloat)
        assert isinstance(spec.b[0], ComplexFloat)
        assert spec.precision_bits == 128

    def test_surd_literals(self):
        spec = parse_spec_dict({"mode": "finite", "a": ["√2"], "b": [1, "1 - √2"]})
        assert spec.tower == "quadext"
        assert spec.a[0] == quadext(0, 1, 2)

    def test_mixed_radicands_rejected(self):
        with pytest.raises(SpecFileError):
            parse_spec_dict({"mode": "finite", "a": ["√2"], "b": [1, "√3"]})

    def test_radicands_of_one_field_accepted(self):
        spec = parse_spec_dict({"mode": "finite", "a": ["√12"], "b": [1, "√3"]})
        assert spec.tower == "quadext"
        assert spec.a[0] == quadext(0, 2, 3)
        assert spec.a[0] + spec.b[1] == quadext(0, 3, 3)

    def test_bool_is_not_a_number(self):
        with pytest.raises(SpecFileError):
            parse_spec_dict({"mode": "finite", "a": [True], "b": [1, 1]})


class TestStructure:
    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecFileError):
            parse_spec_dict({"mode": "finite", "a": [], "b": [1], "extra": 1})

    def test_bad_mode(self):
        with pytest.raises(SpecFileError):
            parse_spec_dict({"mode": "cyclic", "a": [], "b": [1]})

    def test_periodic_arity(self):
        with pytest.raises(SpecFileError):
            parse_spec_dict({"mode": "periodic", "a": [1], "b": [1, 2], "period": 1})
        with pytest.raises(SpecFileError):
            parse_spec_dict({"mode": "periodic", "a": [1, 1], "b": [1, 1], "period": 3})

    def test_periodic_defaults_period(self):
        spec = parse_spec_dict({"mode": "periodic", "a": [1, 2], "b": [3, 4]})
        assert spec.period == 2
        cf = spec.to_cfspec()
        assert isinstance(cf, PeriodicCF)
        assert cf.period == 2

    def test_finite_builds(self):
        spec = parse_spec_dict({"mode": "finite", "a": [1, 1], "b": [1, 1, 1]})
        cf = spec.to_cfspec()
        assert isinstance(cf, FiniteCF)

    def test_finite_arity_error_becomes_specfile_error(self):
        spec = parse_spec_dict({"mode": "finite", "a": [1], "b": [1]})
        with pytest.raises(SpecFileError):
            spec.to_cfspec()

    def test_generator(self):
        spec = parse_spec_dict(
            {"mode": "generator", "generator": {"name": "golden"}}
        )
        cf = spec.to_cfspec()
        assert isinstance(cf, PeriodicCF)

    def test_generator_with_params(self):
        spec = parse_spec_dict(
            {"mode": "generator", "generator": {"name": "regular", "params": {"b": [1, 2]}}}
        )
        cf = spec.to_cfspec()
        assert cf.a(1) == 1

    def test_precision_bounds(self):
        with pytest.raises(SpecFileError):
            parse_spec_dict(
                {"mode": "finite", "a": [], "b": [1], "precision_bits": 32}
            )

    def test_precision_override(self):
        spec = parse_spec_dict(
            {"mode": "finite", "a": [], "b": [1.5], "precision_bits": 64},
            precision_override=256,
        )
        assert spec.precision_bits == 256
        assert spec.b[0].prec == 256

    def test_zero_coefficient_in_periodic_rejected(self):
        spec = parse_spec_dict({"mode": "periodic", "a": [0], "b": [1], "period": 1})
        with pytest.raises(SpecFileError):
            spec.to_cfspec()


class TestFiles:
    def test_load_and_build(self, tmp_path):
        path = write_spec(tmp_path, {"mode": "periodic", "a": [1], "b": [1], "period": 1})
        spec = load_specfile(path)
        assert spec.mode == "periodic"

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mode": "finite",\n  "a": [1,]\n}', encoding="utf-8")
        with pytest.raises(SpecFileError) as err:
            load_specfile(str(path))
        assert err.value.line is not None
        assert err.value.column is not None

    def test_missing_file(self):
        with pytest.raises(SpecFileError):
            load_specfile("/nonexistent/spec.json")


class TestRoundTrip:
    def test_periodic_round_trip(self):
        pcf = PeriodicCF(a_block=(1, -2), b_block=(3, Fraction(7, 2)))
        spec = specfile_from_periodic(pcf)
        data = spec.to_json_dict()
        reparsed = parse_spec_dict(json.loads(json.dumps(data)))
        assert reparsed.to_cfspec() == pcf

    def test_json_dict_is_canonical(self):
        pcf = PeriodicCF(a_block=(Fraction(2),), b_block=(Fraction(5, 1),))
        data = specfile_from_periodic(pcf).to_json_dict()
        assert data["a"] == [2] and data["b"] == [5]  # whole numbers stay bare

    def test_fraction_literal_emitted_as_string(self):
        pcf = PeriodicCF(a_block=(Fraction(1, 3),), b_block=(1,))
        data = specfile_from_periodic(pcf).to_json_dict()
        assert data["a"] == ["1/3"]
