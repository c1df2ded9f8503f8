"""Error taxonomy: one catchable base for every structured failure,
including NonSimpleZero, which only the residue oracle of the tests raises."""

import pytest

import levelcross
from levelcross import errors
from levelcross.errors import (
    BranchFailure,
    LevelCrossError,
    MissingColumn,
    NonConvergence,
    ToleranceFailure,
)
from oracles import NonSimpleZero

ALL = [
    BranchFailure,
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


def test_all_is_every_error_class():
    # ALL lists each structured failure the package defines, and the package exports each one
    defined = {getattr(errors, name) for name in errors.__all__}
    assert defined == {exc for exc in ALL if exc is not NonSimpleZero} | {LevelCrossError}
    assert set(errors.__all__) <= set(levelcross.__all__)
