"""The package's records behave as the frozen dataclasses they replace:
equality, hash, repr and immutability are checked against a frozen
dataclass twin with the same fields."""

import dataclasses
from fractions import Fraction

import pytest

from equiblow import (
    DEGREVLEX,
    LEX,
    Budget,
    CokernelComparison,
    EquivariantBundle,
    FourTermComplexAtPoint,
    GradedPiece,
    GroebnerBasis,
    Ideal,
    ObstructionAssignment,
    OmegaEquivalenceReport,
    Ring,
    SmallExtension,
    StabilityVerdict,
    Subtorus,
    WeakModelReport,
    WeightMatrix,
    parse_poly,
)
from equiblow.poly import MonomialOrder

R = Ring(["x", "y"])
X, Y = R.gens()


def twin(record):
    """A frozen dataclass of the record's class name and fields, holding
    the record's values."""
    cls = type(record)
    fields = [(name, object) for name in cls.__slots__]
    made = dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)
    return made(*(getattr(record, name) for name in cls.__slots__))


# pairs of records: equal values, then a different one
CASES = [
    (Budget(), Budget(2000, 40), Budget(max_basis=5)),
    (Ideal(R, [X, R.zero(), Y]), Ideal(R, [X, Y]), Ideal(R, [Y, X])),
    (
        GroebnerBasis(R, DEGREVLEX, (X,)),
        GroebnerBasis(R, DEGREVLEX, (X,)),
        GroebnerBasis(R, LEX, (X,)),
    ),
    (WeightMatrix([[1, -1]]), WeightMatrix([(1, -1)]), WeightMatrix([[1, 1]])),
    (Subtorus([[2, 1]], 2), Subtorus([[2, 1]], 2), Subtorus.full(2)),
    (
        GradedPiece((1,), parse_poly("x*y", R)),
        GradedPiece((1,), X * Y),
        GradedPiece((0,), X * Y),
    ),
    (
        WeakModelReport(True, True, False, ("fixed_projection: leaves x",)),
        WeakModelReport(True, True, False, ("fixed_projection: leaves x",)),
        WeakModelReport(True, True, True, ()),
    ),
    (
        OmegaEquivalenceReport(True, True, True, True, ()),
        OmegaEquivalenceReport(True, True, True, True, ()),
        OmegaEquivalenceReport(False, True, True, True, ("same_ideal: differ",)),
    ),
    (
        CokernelComparison(True, 1, 1, ()),
        CokernelComparison(True, 1, 1, ()),
        CokernelComparison(False, 1, 2, ("cokernel dimensions differ",)),
    ),
    (
        ObstructionAssignment((1, Fraction(1, 2)), 2, False),
        ObstructionAssignment((1, Fraction(1, 2)), 2, False),
        ObstructionAssignment((0, 0), 2, True),
    ),
    (
        EquivariantBundle(["a", "b"], [[1], [-1]]),
        EquivariantBundle(("a", "b"), ((1,), (-1,))),
        EquivariantBundle(["a", "b"], [[-1], [1]]),
    ),
    (
        StabilityVerdict(False, [1, -1], [Fraction(2), 0], "chart_x"),
        StabilityVerdict(False, (1, -1), (2, 0), "chart_x"),
        StabilityVerdict(True),
    ),
    (
        SmallExtension(2, [(0, 1, 5)]),
        SmallExtension(2, [(0, 1)]),
        SmallExtension(3, [(0, 1)]),
    ),
    (
        FourTermComplexAtPoint((1, 0), [[1], [0]], [[0, 0], [0, 1]], [[1, 0]], 1, 2, 2),
        FourTermComplexAtPoint((1, 0), ((1,), (0,)), ((0, 0), (0, 1)), ((1, 0),), 1, 2, 2),
        FourTermComplexAtPoint((2, 0), ((1,), (0,)), ((0, 0), (0, 1)), ((1, 0),), 1, 2, 2),
    ),
    (MonomialOrder("degrevlex"), DEGREVLEX, LEX),
]


@pytest.mark.parametrize("a, same, other", CASES, ids=lambda r: type(r).__name__)
def test_records_match_their_frozen_dataclass_twins(a, same, other):
    assert repr(a) == repr(twin(a))
    assert hash(a) == hash(twin(a)) == hash(same)
    assert a == same and not a != same
    assert a != other and not a == other
    assert a != twin(a)  # another class, as between two dataclasses
    for name in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1


def test_a_record_takes_one_value_per_field():
    with pytest.raises(TypeError):
        GradedPiece((1,))
    with pytest.raises(TypeError):
        ObstructionAssignment((), 0, True, ())
