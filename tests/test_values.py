"""Pins on the value types: construction, equality, hashing, repr, immutability
and copying, which every change to how the types are written must keep."""

import copy
import pickle
from fractions import Fraction

import pytest

from sphereint.exactpi import DomainError, PiRational
from sphereint.fluid import FluidParams, SeriesResult
from sphereint.integrals import SphereDim
from sphereint.oracle import MCConfig, OracleEstimate, sample_batch

# (make, a different value, repr, fields in order)
VALUES = {
    "PiRational": (lambda: PiRational(Fraction(3, 4), 2), PiRational(Fraction(3, 4), 1),
                   "PiRational(q=Fraction(3, 4), m=2)", {"q": Fraction(3, 4), "m": 2}),
    "PiRational zero": (lambda: PiRational(0, 5), PiRational(1),
                        "PiRational(q=Fraction(0, 1), m=0)", {"q": Fraction(0), "m": 0}),
    "SphereDim": (lambda: SphereDim(3), SphereDim(4), "SphereDim(D=3)", {"D": 3}),
    "FluidParams": (lambda: FluidParams(2, [0.6]), FluidParams(2, [-0.6]),
                    "FluidParams(dim=SphereDim(D=2), omegas=(0.6,))",
                    {"dim": SphereDim(2), "omegas": (0.6,)}),
    "MCConfig": (lambda: MCConfig(seed=1, samples=10), MCConfig(1, 11),
                 "MCConfig(seed=1, samples=10)", {"seed": 1, "samples": 10}),
}


@pytest.fixture(params=sorted(VALUES))
def case(request):
    return VALUES[request.param]


def test_equal_values_compare_and_hash_alike(case):
    make, other, _, fields = case
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert {name: getattr(a, name) for name in fields} == fields


def test_values_are_not_tuples(case):
    make, _, _, fields = case
    values = tuple(fields.values())
    assert make() != values and not make() == values and make() != list(values)


def test_repr(case):
    make, _, text, _ = case
    assert repr(make()) == text


def test_assignment_raises(case):
    make, _, _, fields = case
    a = make()
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == make()


def test_no_ordering(case):
    make, other, _, _ = case
    with pytest.raises(TypeError):
        make() < other
    with pytest.raises(TypeError):
        make() >= other


def test_copy_and_pickle_round_trip(case):
    make, _, text, _ = case
    a = make()
    copies = [copy.copy(a), copy.deepcopy(a)]
    copies += [pickle.loads(pickle.dumps(a, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for b in copies:
        assert type(b) is type(a) and b == a and hash(b) == hash(a) and repr(b) == text


def test_constructors_keep_their_signatures_and_messages():
    assert PiRational(q=Fraction(1, 2), m=3) == PiRational(Fraction(1, 2), 3)
    assert PiRational(2) == PiRational(Fraction(2), 0)
    assert type(PiRational(2).q) is Fraction
    with pytest.raises(TypeError, match="coefficient must be exact"):
        PiRational(0.5, 1)
    with pytest.raises(TypeError, match="pi power m must be an integer"):
        PiRational(1, True)
    with pytest.raises(TypeError, match="must be an integer, got 2.0"):
        SphereDim(D=2.0)
    with pytest.raises(DomainError, match="must be >= 1, got 0"):
        SphereDim(0)
    assert FluidParams(dim=SphereDim(3), omegas=(0, 0.5)) == FluidParams(3, [0.0, 0.5])
    with pytest.raises(ValueError, match="has 2 rotation circles, got 1"):
        FluidParams(3, (0.5,))
    with pytest.raises(DomainError, match="w\\^2 >= 1"):
        FluidParams(2, (1.0,))
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        MCConfig(-1, 10)
    with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
        MCConfig(seed=0, samples=0)


@pytest.mark.parametrize("cls, fields, text", [
    (SeriesResult, dict(value=1.5, terms_used=4, last_term_magnitude=0.25, truncation_order=3),
     "SeriesResult(value=1.5, terms_used=4, last_term_magnitude=0.25, truncation_order=3)"),
    (OracleEstimate, dict(value=1.0, error=0.5, samples_or_nodes=10, method="mc"),
     "OracleEstimate(value=1.0, error=0.5, samples_or_nodes=10, method='mc')"),
])
def test_records_keep_field_access_and_repr(cls, fields, text):
    record = cls(**fields)
    assert repr(record) == text
    assert {name: getattr(record, name) for name in fields} == fields
    assert record == cls(*fields.values())
    with pytest.raises(AttributeError):
        record.value = 2.0


def test_point_batch_charts_once():
    batch = sample_batch(3, MCConfig(0, 5))
    assert "mus" not in batch.__dict__ and "phis" not in batch.__dict__
    mus, phis = batch.mus, batch.phis
    assert batch.mus is mus and batch.phis is phis
    assert len(batch) == 5 and mus.shape == (5, 2) and phis.shape == (5, 2)
