"""The result records are immutable named tuples.

Each of the ten records the library returns is a `typing.NamedTuple`:
assigning to a field, or to any other attribute, raises AttributeError;
it unpacks, equals the plain tuple of its fields and copies with
`_replace`.  The two records that check their arguments check them on
every construction, `_replace` and `_make` included.
"""

import pytest

from cutcx import (
    BettiTable,
    FVector,
    Polynomial,
    RationalGenFun,
    build_chain_complex,
    diagonal_genfun,
    faces_by_dimension,
    nonface_layers,
    q_profile_closed,
    squared_path,
    verify_concentration,
    verify_recurrence,
)
from cutcx.verification import run_jobs

RECORDS = {
    "BadProfile": lambda: q_profile_closed(4, 7),
    "FVector": lambda: FVector.from_profile(q_profile_closed(4, 7)),
    "NonfaceLayers": lambda: nonface_layers(4, 7),
    "RecurrenceEntry": lambda: verify_recurrence(3, 7).entries[0],
    "RecurrenceCheck": lambda: verify_recurrence(3, 7),
    "BettiTable": lambda: BettiTable.from_closed(range(3, 5), range(3, 5)),
    "RationalGenFun": lambda: diagonal_genfun(4),
    "BoundaryMatrix": lambda: build_chain_complex(faces_by_dimension(squared_path(7), 4))[1],
    "ConcentrationReport": lambda: verify_concentration(4, 7),
    "CheckResult": lambda: run_jobs([("empty", list)])[0],
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    rec = RECORDS[request.param]()
    assert type(rec).__name__ == request.param
    return rec


def test_every_field_and_no_new_attribute_can_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_unpacks_equals_its_tuple_and_copies_with_replace(record):
    fields = tuple(record)
    assert len(fields) == len(record._fields)
    assert record == fields and type(record)(*fields) == record
    first = record._fields[0]
    copy = record._replace(**{first: getattr(record, first)})
    assert copy == record and type(copy) is type(record)


def test_repr_names_each_field():
    assert repr(q_profile_closed(4, 7)) == "BadProfile(k=4, n=7, counts={4: 20, 5: 3, 6: 0, 7: 0})"
    assert repr(RationalGenFun(Polynomial([1]), 2)) == "RationalGenFun(numerator=Polynomial([1]), pole_order=2)"
    assert repr(BettiTable({(3, 3): 1})) == "BettiTable(entries={(3, 3): 1})"


def test_pole_order_is_checked_when_replaced():
    gf = RationalGenFun(numerator=Polynomial([1]), pole_order=0)
    for build in (lambda: gf._replace(pole_order=-1), lambda: RationalGenFun._make([Polynomial([1]), -1])):
        with pytest.raises(ValueError, match="^pole order must be nonnegative$"):
            build()


def test_betti_entries_are_checked_when_replaced():
    table = BettiTable(entries={(3, 3): 1})
    for build in (lambda: table._replace(entries={(3, 3): -1}), lambda: BettiTable._make([{(3, 3): -1}])):
        with pytest.raises(RuntimeError, match="^internal error: negative entry at k=3, r=3$"):
            build()
    assert table.provenance == BettiTable.provenance == "closed-form"
    assert BettiTable._fields == ("entries",)
