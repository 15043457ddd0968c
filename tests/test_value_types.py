"""The contracts of the per-point value types ``SeriesEval``, ``IqPoint``,
``SpectralParam`` and ``ThetaPair``, and of the report rows ``SweepRow``
and ``SweepReport``: frozen, slotted, with their fields,
defaults, equality, hash and repr as dataclasses define them, and a
round trip through pickle, deepcopy and ``dataclasses.replace``."""

import copy
import dataclasses
import pickle

import pytest

from qsu11 import (
    InvalidArgumentError,
    IqPoint,
    QBase,
    SeriesEval,
    SpectralParam,
    SweepReport,
    SweepRow,
    ThetaPair,
    theta_pair,
)
from qsu11.limitlab import sweep_report

MISSING = dataclasses.MISSING

#: (instance, its fields with their defaults in order, its repr, another
#: value for each field).
CASES = {
    "SeriesEval": (
        SeriesEval(1 + 2j, 3, 0.25),
        (("value", MISSING), ("terms_used", MISSING), ("tail_bound", MISSING),
         ("degenerate", False)),
        "SeriesEval(value=(1+2j), terms_used=3, tail_bound=0.25, degenerate=False)",
        {"value": 2j, "terms_used": 4, "tail_bound": 0.5, "degenerate": True},
    ),
    "IqPoint": (
        IqPoint(-1, 2),
        (("sign", MISSING), ("exponent", MISSING)),
        "IqPoint(sign=-1, exponent=2)",
        {"sign": 1, "exponent": 3},
    ),
    "SpectralParam": (
        SpectralParam(0.5, 0.25j, 1.5 - 1j),
        (("z", MISSING), ("lam", MISSING), ("x", MISSING)),
        "SpectralParam(z=0.5, lam=0.25j, x=(1.5-1j))",
        {"z": 0.75, "lam": 0.5, "x": 1.25},
    ),
    "ThetaPair": (
        ThetaPair(1j, 1.5, 1e-16),
        (("lhs", MISSING), ("rhs", MISSING), ("residual", MISSING),
         ("absolute", False)),
        "ThetaPair(lhs=1j, rhs=1.5, residual=1e-16, absolute=False)",
        {"lhs": 2.0, "rhs": 0.5j, "residual": 0.0, "absolute": True},
    ),
    "SweepRow": (
        SweepRow(0.9, 1 + 2j, 0.25),
        (("param", MISSING), ("value", MISSING), ("deviation", MISSING),
         ("note", ""), ("bound", 0.0)),
        "SweepRow(param=0.9, value=(1+2j), deviation=0.25, note='', bound=0.0)",
        {"param": 0.99, "value": 1j, "deviation": 0.5, "note": "boom", "bound": 0.125},
    ),
    "SweepReport": (
        SweepReport("chain", (SweepRow(None, 1j, 0.5),), "pass", True, 0.5),
        (("label", MISSING), ("rows", MISSING), ("verdict", MISSING),
         ("monotone_deviation", MISSING), ("threshold", MISSING)),
        "SweepReport(label='chain', rows=(SweepRow(param=None, value=1j, "
        "deviation=0.5, note='', bound=0.0),), verdict='pass', "
        "monotone_deviation=True, threshold=0.5)",
        {"label": "check", "rows": (), "verdict": "fail",
         "monotone_deviation": False, "threshold": 0.25},
    ),
}

each_type = pytest.mark.parametrize("name", sorted(CASES))


def _values(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


@each_type
def test_every_field_is_read_only(name):
    obj, fields, _, other = CASES[name]
    for field, _ in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, other[field])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del obj.extra
    assert not hasattr(obj, "__dict__")


@each_type
def test_fields_defaults_and_repr(name):
    obj, fields, text, _ = CASES[name]
    assert tuple((f.name, f.default) for f in dataclasses.fields(obj)) == fields
    assert repr(obj) == text
    assert type(obj).__match_args__ == tuple(f for f, _ in fields)


@each_type
def test_keyword_construction_equality_and_hash(name):
    obj, fields, _, other = CASES[name]
    cls = type(obj)
    same = cls(**{f: getattr(obj, f) for f, _ in fields})
    assert same == obj and same is not obj
    assert hash(same) == hash(obj) == hash(_values(obj))
    assert obj != _values(obj)
    for field, _ in fields:
        changed = dataclasses.replace(obj, **{field: other[field]})
        assert getattr(changed, field) == other[field]
        assert changed != obj


@each_type
def test_defaults_apply(name):
    obj, fields, _, _ = CASES[name]
    required = [getattr(obj, f) for f, d in fields if d is MISSING]
    built = type(obj)(*required)
    for field, default in fields:
        if default is not MISSING:
            assert getattr(built, field) == default


@each_type
def test_pickle_deepcopy_and_replace_round_trip(name):
    obj = CASES[name][0]
    for copied in (pickle.loads(pickle.dumps(obj)),
                   pickle.loads(pickle.dumps(obj, protocol=0)),
                   copy.deepcopy(obj), copy.copy(obj),
                   dataclasses.replace(obj)):
        assert type(copied) is type(obj)
        assert copied == obj and repr(copied) == repr(obj)
        assert hash(copied) == hash(obj)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(copied, dataclasses.fields(obj)[0].name, 0)


@each_type
def test_results_are_these_types(name):
    base = QBase(0.5)
    obj = {"SeriesEval": lambda: SeriesEval(1.0, 1, 0.0) * SeriesEval(2.0, 1, 0.0),
           "IqPoint": lambda: IqPoint.negative(2).shifted(1),
           "SpectralParam": lambda: SpectralParam.from_z(0.3, base),
           "ThetaPair": lambda: theta_pair(0.3, 2, base),
           "SweepRow": lambda: SweepRow(1, 2j, 0.5),
           "SweepReport": lambda: sweep_report("check", (SweepRow(1, 2j, 0.5),),
                                               1.0)}[name]()
    assert type(obj).__name__ == name
    assert dataclasses.replace(obj) == obj


@pytest.mark.parametrize("sign, exponent, message", (
    (0, 1, "sign must be"), (2, 1, "sign must be"), (-2, 3, "sign must be"),
    (1.5, 0, "sign must be"), (-1, 0, "negative points require"),
    (-1, -3, "negative points require")))
def test_iqpoint_refusals(sign, exponent, message):
    for build in (lambda: IqPoint(sign, exponent),
                  lambda: IqPoint(sign=sign, exponent=exponent),
                  lambda: dataclasses.replace(IqPoint(1, 1), sign=sign,
                                              exponent=exponent)):
        with pytest.raises(InvalidArgumentError, match=message):
            build()
