"""The value records callers see: every field frozen, equality and hashing
by class and field values, `Name(field=value, ...)` reprs, the constructor
signatures, copies and pickles, and the memory a kept record holds."""

import copy
import gc
import inspect
import pickle
import tracemalloc
from fractions import Fraction

import pytest

from cfkit.cfcore import ConvergentPair, FiniteCF, PeriodicCF, RuleCF, convergent_pair, pair_at
from cfkit.continuants import ContinuantArgs, ReversedConvergents
from cfkit.periodic import (
    ConjugateReport,
    EigenSplit,
    GaloisReport,
    PeriodMatrix,
    PowerIterTrajectory,
    StolzReport,
    TrajectoryStep,
    Verdict,
    build_period_matrix,
    classify,
)
from cfkit.scalars import ComplexFloat, QuadExt
from cfkit.specfile import SpecFile
from cfkit.tietze import BoundedValue, BoundRecord, SemiRegularReport, Violation


def _one(n):
    return 1


_MATRIX = PeriodMatrix(1, 1, 1, 0)
_EIGEN = EigenSplit(QuadExt(Fraction(1, 2), Fraction(1, 2), 5), QuadExt(Fraction(1, 2), Fraction(-1, 2), 5),
                    "strictly_dominant", Fraction(1), Fraction(-1))
_STOLZ = StolzReport(_MATRIX, _EIGEN, Verdict("convergent", Fraction(1), condition="C2"))
_STEP = TrajectoryStep(1, 1, 1, Fraction(1))

#: class, field values in declaration order, and the constructor's signature
#: without annotations
RECORDS = [
    (FiniteCF, {"a_list": (1,), "b_list": (1, 2)}, "(a_list, b_list)"),
    (PeriodicCF, {"a_block": (1,), "b_block": (2,)}, "(a_block, b_block)"),
    (RuleCF, {"a_rule": _one, "b_rule": _one, "label": "ones"}, "(a_rule, b_rule, label='rule')"),
    (ConvergentPair, {"n": 3, "num": 5, "den": 3}, "(n, num, den)"),
    (ContinuantArgs, {"a": (1,), "b": (2, 3)}, "(a, b)"),
    (ReversedConvergents, {"num_n": 1, "den_n": 2, "num_prev": 3, "den_prev": 4},
     "(num_n, den_n, num_prev, den_prev)"),
    (PeriodMatrix, {"m11": 1, "m12": 1, "m21": 1, "m22": 0}, "(m11, m12, m21, m22)"),
    (EigenSplit, {"lambda1": 2, "lambda2": 1, "modulus_relation": "strictly_dominant",
                  "x1": Fraction(1, 2), "x2": None},
     "(lambda1, lambda2, modulus_relation, x1=None, x2=None)"),
    (Verdict, {"kind": "divergent_thiele", "limit": None, "q": 3, "sublimit": Fraction(1),
               "condition": None},
     "(kind, limit=None, q=None, sublimit=None, condition=None)"),
    (StolzReport, {"matrix": _MATRIX, "eigen": _EIGEN, "verdict": _STOLZ.verdict},
     "(matrix, eigen, verdict)"),
    (TrajectoryStep, {"n": 2, "u": 2, "v": 1, "ratio": Fraction(2)}, "(n, u, v, ratio)"),
    (PowerIterTrajectory, {"steps": (_STEP,), "mu1": 2, "mu2": -1, "case": "dominant"},
     "(steps, mu1, mu2, case)"),
    (GaloisReport, {"alpha": _STOLZ, "alpha_prime": _STOLZ, "relation_holds": True},
     "(alpha, alpha_prime, relation_holds)"),
    (ConjugateReport, {"is_quadratic": True, "alpha": _EIGEN.lambda1, "conjugate": _EIGEN.lambda2,
                       "identity_verified": True},
     "(is_quadratic, alpha, conjugate, identity_verified)"),
    (QuadExt, {"a": Fraction(1), "b": Fraction(2), "d": 3}, "(a, b, d)"),
    (ComplexFloat, {"re": 0.5, "im": 3, "prec": 64}, "(re, im, prec=128)"),
    (SpecFile, {"mode": "finite", "a": (1,), "b": (1, 2), "generator": None,
                "tower": "rational", "precision_bits": 128},
     "(mode, a, b, generator, tower, precision_bits)"),
    (Violation, {"n": 2, "which": "b_below_one"}, "(n, which)"),
    (SemiRegularReport, {"valid": False, "first_violation": Violation(2, "a_not_unit"),
                         "checked_up_to": 2}, "(valid, first_violation, checked_up_to)"),
    (BoundRecord, {"k": 1, "bound_type": "plus_case", "bound": 5}, "(k, bound_type, bound)"),
    (BoundedValue, {"value": Fraction(3, 2), "n_used": 4, "error_bound": Fraction(1, 100),
                    "checked_up_to": 5}, "(value, n_used, error_bound, checked_up_to=0)"),
]

#: records that keep their own ==, hash and repr: exact values and floats
#: compare by value across representations
OWN_DUNDERS = {
    QuadExt: "QuadExt(Fraction(1, 1) + Fraction(2, 1)*sqrt(3))",
    ComplexFloat: "ComplexFloat(mpf('0.5'), mpf('3.0'), prec=64)",
}


def _bare_signature(cls) -> str:
    sig = inspect.signature(cls)
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=inspect.Signature.empty))


@pytest.mark.parametrize("cls, fields, signature", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_record_contract(cls, fields, signature):
    assert len(RECORDS) == 21
    assert _bare_signature(cls) == signature
    assert cls.__match_args__ == tuple(fields)

    value = cls(**fields)
    same = cls(*fields.values())
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != tuple(fields.values())

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same

    if cls in OWN_DUNDERS:
        assert repr(value) == OWN_DUNDERS[cls]
        return
    shown = ", ".join(f"{name}={v!r}" for name, v in fields.items())
    assert repr(value) == f"{cls.__qualname__}({shown})"

    twin = type(cls.__name__, (cls,), {})(**fields)
    assert value != twin and twin != value


#: state derived from the fields, which only the code that proves it sets:
#: class, field values, the derived name and a value a caller might forge
DERIVED = [
    (ConvergentPair, (1, 4, 2), "coprime", True),
    (PeriodMatrix, (1, 1, 1, 0), "scaled", (1, 2, 0, 1, 3)),
    (PeriodMatrix, (1, 1, 1, 0), "pairs", ((1, 1),)),
    (SpecFile, ("periodic", (1,), (1,), None, "rational", 128), "period", 5),
]


@pytest.mark.parametrize("cls, fields, name, forged", DERIVED, ids=[f"{row[0].__name__}.{row[2]}" for row in DERIVED])
def test_derived_state_is_no_constructor_argument(cls, fields, name, forged):
    with pytest.raises(TypeError):
        cls(*fields, forged)
    with pytest.raises(TypeError):
        cls(*fields, **{name: forged})
    value = cls(*fields)
    with pytest.raises(AttributeError):
        setattr(value, name, forged)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) != forged
    assert name not in cls.__match_args__ and f"{name}=" not in repr(value)


def _copies(value) -> list:
    return [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]


@pytest.mark.parametrize("cls, fields, signature", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_record_copies_and_pickles(cls, fields, signature):
    value = cls(**fields)
    for twin in _copies(value):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)
        with pytest.raises(AttributeError):
            setattr(twin, next(iter(fields)), None)
    if cls is ComplexFloat:  # each part is an mpf of the class made for its precision
        assert {type(twin.re) for twin in _copies(value)} == {type(value.re)}


@pytest.mark.parametrize("pcf", [
    PeriodicCF((1, 2, -1), (1, 2, 3)),
    PeriodicCF((Fraction(1, 2), 3), (Fraction(-2, 5), 1)),
    PeriodicCF((ComplexFloat(1, 0, 64), 2), (ComplexFloat(0.5, 0.25, 64), 1)),
], ids=["int", "fraction", "complex"])
def test_copies_keep_a_period_matrix_s_derived_state(pcf):
    matrix = build_period_matrix(pcf)
    for twin in _copies(matrix):
        assert twin == matrix and vars(twin) == vars(matrix)
        assert (twin.scaled, twin.prec, twin.pairs) == (matrix.scaled, matrix.prec, matrix.pairs)


def test_copies_keep_a_pair_s_coprime_mark():
    for pair in pair_at(PeriodicCF((1,), (1,)), 40):
        assert pair.coprime
        for twin in _copies(pair):
            assert twin.coprime and twin.value() == pair.value()


def test_record_repr_names_deep_ints_by_size():
    # repr() refuses an int past 4300 digits; a record names it by size, as QuadExt does
    big = 10**5000
    assert repr(ConvergentPair(1, big, 3)) == "ConvergentPair(n=1, num=<16610-bit integer>, den=3)"
    assert repr(Verdict("convergent", Fraction(big, 3))) == (
        "Verdict(kind='convergent', limit=Fraction(<16610-bit integer>, 3), q=None, sublimit=None, condition=None)"
    )
    pair = convergent_pair(PeriodicCF((1,), (1,)), 30000)
    assert repr(pair) == (
        f"ConvergentPair(n=30000, num=<{pair.num.bit_length()}-bit integer>, "
        f"den=<{pair.den.bit_length()}-bit integer>)"
    )
    # below the limit every digit is shown, as repr() shows it
    shown = 10**4000 + 1
    assert repr(ConvergentPair(1, shown, 3)) == f"ConvergentPair(n=1, num={shown!r}, den=3)"


def test_kept_verdicts_and_limits_hold_little_memory():
    # the verdict and limit of 10,000 classified CFs [1; b, b, ...], kept alive:
    # each pair holds ~304 B with its parts (Python 3.11), against ~384 B where a
    # record's fields live in a per-instance dict's inline values, and ~592 B where
    # its __init__ writes them into a materialised __dict__
    specs = [PeriodicCF((1,), (b,)) for b in range(1, 10_001)]
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        verdicts, limits = [], []
        for pcf in specs:
            report = classify(pcf)
            verdicts.append(report.verdict)
            limits.append(report.eigen.x1)
        del report
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert all(type(x) is QuadExt and v.limit is x for v, x in zip(verdicts, limits))
    assert held < 340 * len(specs), held
