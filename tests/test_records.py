"""The value records callers see: every field frozen, equality and hashing
by class and field values, `Name(field=value, ...)` reprs, and the
constructor signatures."""

import inspect
from fractions import Fraction

import pytest

from cfkit.cfcore import ConvergentPair, FiniteCF, PeriodicCF, RuleCF
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
