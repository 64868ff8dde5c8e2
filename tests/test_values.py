"""The value classes: descriptors, places and records behave as frozen dataclasses do."""

import copy
import pickle

import pytest

from quatsplit.classify import (
    Biquadratic,
    Certainty,
    Cyclotomic,
    Kummer,
    Outcome,
    Quadratic,
    TraceStep,
    Verdict,
    _resolve,
)
from quatsplit.cyclotomic import FactorizationShape
from quatsplit.hilbert import Place, RamificationData
from quatsplit.oracle import local_degree

# Each value class with one value of each of its fields, in field order.
FIELDS = {
    Quadratic: {"d": -7},
    Biquadratic: {"d1": -1, "d2": 2},
    Cyclotomic: {"n": 7},
    Kummer: {"ell": 3, "k": 2},
    Place: {"prime": 3},
    RamificationData: {"ramified": (Place(2), Place(3)), "reduced_discriminant": 6},
    Verdict: {"outcome": Outcome.DIVISION, "certainty": Certainty.EXACT, "trace": (TraceStep("thm3.1/case1", True),)},
    FactorizationShape: {"e": 1, "f": 3, "g": 2},
}


def _destructure(value):
    match value:
        case Quadratic(a) | Cyclotomic(a) | Place(a):
            return (a,)
        case Biquadratic(a, b) | Kummer(a, b) | RamificationData(a, b):
            return (a, b)
        case Verdict(a, b, c) | FactorizationShape(a, b, c):
            return (a, b, c)
    return None


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_value_class_contract(cls):
    fields = FIELDS[cls]
    values = tuple(fields.values())
    value = cls(*values)
    assert value == cls(**fields) and not value != cls(**fields)
    assert hash(value) == hash(cls(**fields)) == hash(values)
    assert repr(value) == f"{cls.__name__}({', '.join(f'{name}={v!r}' for name, v in fields.items())})"
    assert cls.__match_args__ == tuple(fields)
    assert _destructure(value) == values
    # type-strict: never equal to its field tuple, nor to another class with the same fields
    assert value != values
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value
    for name, v in fields.items():
        assert getattr(value, name) is v
        with pytest.raises(AttributeError):
            setattr(value, name, v)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is v


def test_equal_fields_of_different_classes_stay_apart():
    same = [Quadratic(7), Cyclotomic(7), Place(7)]
    for i, a in enumerate(same):
        for b in same[i + 1 :]:
            assert a != b and not a == b and hash(a) == hash(b)
    assert Biquadratic(3, 2) != Kummer(3, 2)
    match Cyclotomic(7):
        case Quadratic(_) | Place(_):
            pytest.fail("a class pattern matched another class")


@pytest.mark.parametrize("first", [Quadratic(7), Cyclotomic(7)], ids=str)
def test_caches_keep_equal_fields_of_different_classes_apart(first):
    """_resolve and local_degree key their caches by field; Q(sqrt 7) and Q(zeta_7) never share an entry."""
    _resolve.cache_clear()
    local_degree.cache_clear()
    second = Cyclotomic(7) if first == Quadratic(7) else Quadratic(7)
    for field in (first, second):
        _resolve(field)
        local_degree(field, Place(3))
    assert _resolve(Quadratic(7)).verdicts[0].trace[0].criterion == "thm3.1/case1"
    assert _resolve(Cyclotomic(7)).verdicts[0].trace[0].criterion == "prop3.3/case1"
    # 3 splits in Q(sqrt 7), as (7|3) = 1; its order mod 7 is 6
    assert local_degree(Quadratic(7), Place(3)) == 1
    assert local_degree(Cyclotomic(7), Place(3)) == 6
