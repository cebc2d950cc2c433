import json
import time
from fractions import Fraction

import pytest

from cfkit import ComplexFloat, FiniteCF, PeriodicCF, quadext
from cfkit.errors import SpecFileError
from cfkit.scalars import MAX_EXPONENT, _ctx
from cfkit.specfile import SpecFile, load_specfile, parse_spec_dict, specfile_from_periodic


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

    @pytest.mark.parametrize("literal", [
        float("inf"), -float("inf"), float("nan"),
        {"re": float("inf"), "im": 0}, {"re": 1, "im": -float("inf")},
        {"re": float("nan"), "im": 1}, {"re": "-inf", "im": 0},
    ], ids=["inf", "-inf", "nan", "re-inf", "im--inf", "re-nan", "re-text-inf"])
    def test_non_finite_complex_literals_rejected(self, tmp_path, literal):
        # json writes these as Infinity, -Infinity and NaN, and reads them back
        path = write_spec(tmp_path, {
            "mode": "periodic", "tower": "complex", "a": [1], "b": [literal], "period": 1,
        })
        with pytest.raises(SpecFileError, match="not finite"):
            load_specfile(path)

    def test_finite_complex_literal_with_huge_exponent_loads(self, tmp_path):
        # finiteness is read off the mpf, without building its exact value;
        # 10^-MAX_EXPONENT and 10^MAX_EXPONENT are the widest parts taken
        path = write_spec(tmp_path, {
            "mode": "periodic", "tower": "complex", "a": [1, 1],
            "b": [{"re": f"1e-{MAX_EXPONENT}", "im": 0}, {"re": 1, "im": f"1e+{MAX_EXPONENT}"}],
            "period": 2,
        })
        start = time.perf_counter()
        spec = load_specfile(path)
        assert time.perf_counter() - start < 5.0
        assert 0 < spec.b[0].re < 1 and spec.b[1].im > 1

    @pytest.mark.parametrize("part", [None, [1], {"re": 1, "im": 0}, True, "abc", "1/0", "√2"],
                             ids=["null", "list", "object", "true", "text", "zero-denominator", "surd"])
    def test_complex_part_that_is_not_a_number_is_refused(self, part):
        for literal in ({"re": part, "im": 0}, {"re": 1, "im": part}):
            with pytest.raises(SpecFileError, match="complex literal part .* is not a number"):
                parse_spec_dict({"mode": "finite", "a": [], "b": [literal]})

    @pytest.mark.parametrize("part", [0, -7, 10**40, 0.1, -2.5e-300, "1.25e-7", "-22/7", " 3 "],
                             ids=["zero", "int", "big-int", "float", "tiny-float", "decimal", "ratio", "spaced"])
    def test_complex_parts_read_as_mpmath_reads_them(self, part):
        spec = parse_spec_dict({"mode": "finite", "a": [], "b": [{"re": part, "im": part}],
                                "precision_bits": 200})
        (value,) = spec.b
        expected = _ctx(200).mpf(part)._mpf_
        assert value.prec == 200 and value.re._mpf_ == value.im._mpf_ == expected

    @pytest.mark.parametrize("part", [f"1e-{MAX_EXPONENT + 1}", f"-1e+{MAX_EXPONENT + 1}", "1e-10000000000",
                                      f"100e{MAX_EXPONENT - 1}", f"0.001e-{MAX_EXPONENT - 2}", 10**(MAX_EXPONENT + 1)],
                             ids=["tiny", "huge", "far-tiny", "huge-by-mantissa", "tiny-by-mantissa", "int"])
    def test_complex_part_beyond_the_exponent_bound_is_refused(self, part):
        # the bound is on the value read, not on the exponent written
        start = time.perf_counter()
        for literal in ({"re": part, "im": 1}, {"re": 1, "im": part}):
            with pytest.raises(SpecFileError, match=f"outside 10\\^-{MAX_EXPONENT}..10\\^{MAX_EXPONENT}"):
                parse_spec_dict({"mode": "finite", "a": [], "b": [literal]})
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("part, same_as", [
        (f"1e-{MAX_EXPONENT}", f"1e-{MAX_EXPONENT}"), (f"-1e{MAX_EXPONENT}", f"-1e{MAX_EXPONENT}"),
        (f"0.01e{MAX_EXPONENT + 2}", f"1e{MAX_EXPONENT}"), (f"100e-{MAX_EXPONENT + 2}", f"1e-{MAX_EXPONENT}"),
        (10**MAX_EXPONENT, f"1e{MAX_EXPONENT}"),
    ], ids=["tiny", "huge", "huge-by-mantissa", "tiny-by-mantissa", "int"])
    def test_complex_part_at_the_exponent_bound_is_read(self, part, same_as):
        start = time.perf_counter()
        for prec in (64, 128, 1000):
            spec = parse_spec_dict({"mode": "finite", "a": [], "b": [{"re": part, "im": 1}],
                                    "precision_bits": prec})
            assert spec.b[0].re == _ctx(prec).mpf(same_as)
        assert time.perf_counter() - start < 5.0

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

    def test_generator_params_read_in_the_spec_tower(self):
        def gen(tower, b):
            return {"mode": "generator", "tower": tower,
                    "generator": {"name": "regular", "params": {"b": b}}}

        spec = parse_spec_dict(gen("complex", [1, "1/2"]))
        assert all(isinstance(x, ComplexFloat) for x in dict(spec.generator[1])["b"])
        inferred = parse_spec_dict(gen(None, [1, "2/4", "√2"]))
        assert inferred.tower == "quadext"
        assert inferred.to_json_dict()["generator"]["params"] == {"b": [1, "1/2", "√2"]}
        with pytest.raises(SpecFileError, match="does not fit the rational tower"):
            parse_spec_dict(gen("rational", ["√2"]))

    def test_generator_is_read_only(self):
        spec = parse_spec_dict(
            {"mode": "generator", "generator": {"name": "regular", "params": {"b": [1, 2]}}}
        )
        name, params = spec.generator
        for held in (spec.generator, params, params[0], params[0][1]):
            with pytest.raises(TypeError):
                held[0] = "golden"
        with pytest.raises(AttributeError):
            spec.generator = ("golden", ())
        assert spec.generator == ("regular", (("b", (1, 2)),))
        assert spec.to_cfspec() == FiniteCF(a_list=(1,), b_list=(1, 2))

    @pytest.mark.parametrize("generator", [
        {"name": "golden"},
        {"name": "regular", "params": {"b": [1, "1/2", "√2"]}},
        {"name": "regular", "params": {"b": [1, {"re": 1, "im": 2}]}},
    ], ids=["golden", "quadext-params", "complex-params"])
    def test_generator_spec_hashes_by_value(self, generator):
        spec, twin = (parse_spec_dict({"mode": "generator", "generator": generator}) for _ in range(2))
        assert spec == twin and hash(spec) == hash(twin)
        assert len({spec, twin}) == 1

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

    def test_deeply_nested_json_is_refused(self, tmp_path):
        # json.load recurses once per level, and 3000 levels pass the recursion limit
        path = tmp_path / "deep.json"
        path.write_text('{"mode": "periodic", "a": [1], "b": ' + "[" * 3000 + "1" + "]" * 3000 + "}",
                        encoding="utf-8")
        with pytest.raises(SpecFileError, match="nests too deeply"):
            load_specfile(str(path))

    def test_file_that_is_not_utf8_is_refused(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"mode": "generator", "generator": {"name": "golden"}} é'.encode("latin-1"))
        with pytest.raises(SpecFileError, match="cannot read spec file: 'utf-8' codec can't decode"):
            load_specfile(str(path))


class TestRoundTrip:
    def test_periodic_round_trip(self):
        pcf = PeriodicCF(a_block=(1, -2), b_block=(3, Fraction(7, 2)))
        spec = specfile_from_periodic(pcf)
        data = spec.to_json_dict()
        reparsed = parse_spec_dict(json.loads(json.dumps(data)))
        assert reparsed.to_cfspec() == pcf

    @pytest.mark.parametrize("mode, b, period", [("periodic", (1, 2), 2), ("finite", (1, 2, 3), None)])
    def test_period_is_read_from_the_blocks(self, mode, b, period):
        spec = SpecFile(mode, (1, -1), b, None, "rational", 128)
        assert spec.period == period
        assert parse_spec_dict(spec.to_json_dict()) == spec

    def test_json_dict_is_canonical(self):
        pcf = PeriodicCF(a_block=(Fraction(2),), b_block=(Fraction(5, 1),))
        data = specfile_from_periodic(pcf).to_json_dict()
        assert data["a"] == [2] and data["b"] == [5]  # whole numbers stay bare

    def test_fraction_literal_emitted_as_string(self):
        pcf = PeriodicCF(a_block=(Fraction(1, 3),), b_block=(1,))
        data = specfile_from_periodic(pcf).to_json_dict()
        assert data["a"] == ["1/3"]
