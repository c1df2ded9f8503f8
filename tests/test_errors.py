"""Error taxonomy: one catchable base for every structured failure,
including NonSimpleZero, which only the residue oracle of the tests raises."""

import pytest

from levelcross.errors import (
    BracketingError,
    BranchFailure,
    DegenerateGeometry,
    LevelCrossError,
    MissingColumn,
    NonConvergence,
    ToleranceFailure,
)
from oracles import NonSimpleZero

ALL = [
    BranchFailure,
    DegenerateGeometry,
    BracketingError,
    NonConvergence,
    ToleranceFailure,
    NonSimpleZero,
    MissingColumn,
]


@pytest.mark.parametrize("exc", ALL)
def test_subclasses_base(exc):
    assert issubclass(exc, LevelCrossError)
    assert issubclass(exc, Exception)


def test_base_catches_all():
    for exc in ALL:
        with pytest.raises(LevelCrossError):
            raise exc("boom")


def test_distinct_classes():
    assert len(set(ALL)) == len(ALL)
