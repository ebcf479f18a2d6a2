"""The record factory: named tuples whose fields, named in ``_fields``, are checked by ``_check``."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from bchdenom.bch import CongruenceReport, DenominatorReport, GoldbergDegreeResult, TableEntry
from bchdenom.freealgebra import TruncatedSeries, Word
from bchdenom.numtheory import PrimeFactorization

AB = Word((0, 1))

#: one record of each class, as (class, field values in ``_fields`` order)
RECORDS = {
    "Word": (Word, ((0, 1, 1),)),
    "PrimeFactorization": (PrimeFactorization, (((2, 3), (3, 1)),)),
    "TruncatedSeries": (TruncatedSeries, (1, 2, [[Fraction(1)], [Fraction(1), Fraction(1)]])),
    "DenominatorReport": (DenominatorReport, (2, 2, 1, 2, 2, AB)),
    "CongruenceReport": (CongruenceReport, (3, 4, 0, ((AB, 1, 1),), ())),
    "GoldbergDegreeResult": (GoldbergDegreeResult, (11, 2, AB, 4)),
    "TableEntry": (TableEntry, (Fraction(1, 2), PrimeFactorization(((2, 1),)), 1, AB)),
}

#: for each class with a ``_check``, a field value it refuses, and the error it raises
INVALID = {
    Word: ("letters", (0, -1), ValueError, "letters must be >= 0"),
    PrimeFactorization: ("factors", ((3, 1), (2, 1)), ValueError, "strictly increasing"),
    TruncatedSeries: ("tables", [[Fraction(1)], []], ValueError, r"K\^n coefficients"),
}


@pytest.mark.parametrize("cls, values", RECORDS.values(), ids=RECORDS.keys())
def test_positional_and_keyword_construction_agree(cls, values):
    record = cls(*values)
    named = dict(zip(cls._fields, values))
    assert cls(**named) == record
    assert cls(**dict(reversed(named.items()))) == record  # names in any order
    assert cls(values[0], **dict(list(named.items())[1:])) == record
    assert [getattr(record, name) for name in cls._fields] == list(values)
    assert repr(record) == f"{cls.__qualname__}({', '.join(f'{k}={v!r}' for k, v in named.items())})"


@pytest.mark.parametrize("cls, values", RECORDS.values(), ids=RECORDS.keys())
def test_missing_unknown_and_repeated_fields_are_type_errors(cls, values):
    first = cls._fields[0]
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: {cls._fields[-1]!r}"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="missing .*required positional argument"):
        cls()
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        cls(*values, colour=1)
    with pytest.raises(TypeError, match=f"multiple values for argument {first!r}"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match="were given"):
        cls(*values, None)


@pytest.mark.parametrize("cls, values", RECORDS.values(), ids=RECORDS.keys())
def test_copies_are_rebuilt_through_the_check(monkeypatch, cls, values):
    record = cls(*values)
    checked = []
    monkeypatch.setattr(cls, "_check", lambda self: checked.append(self))
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert clone == record and clone is not record
    assert len(checked) == 2 and checked == [record, record]


@pytest.mark.parametrize("cls, values", RECORDS.values(), ids=RECORDS.keys())
def test_records_are_frozen(cls, values):
    record = cls(*values)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.colour = 1  # no field, and no __dict__ to hold one
    assert record == cls(*values)


@pytest.mark.parametrize("cls, values", RECORDS.values(), ids=RECORDS.keys())
def test_a_record_is_the_tuple_of_its_fields(cls, values):
    record = cls(*values)
    assert record == tuple(values) and list(record) == list(values)
    assert record[-1] is values[-1]
    if cls is not TruncatedSeries:  # its list field makes it unhashable
        assert hash(record) == hash(tuple(values))


@pytest.mark.parametrize(
    "cls, name, value, error, message", [(cls, *case) for cls, case in INVALID.items()], ids=[c.__name__ for c in INVALID]
)
def test_replace_and_make_run_the_check(cls, name, value, error, message):
    valid = RECORDS[cls.__name__][1]
    record = cls(*valid)
    assert record._replace() == record and cls._make(valid) == record
    with pytest.raises(error, match=message):
        record._replace(**{name: value})
    with pytest.raises(error, match=message):
        cls._make(value if field == name else old for field, old in zip(cls._fields, valid))


def test_list_fields_change_in_place_and_make_a_record_unhashable():
    table = [Fraction(0)] * 2
    series = TruncatedSeries(1, 2, [[Fraction(0)], table])
    table[1] = Fraction(1, 2)
    assert series.coefficient(Word((1,))) == Fraction(1, 2)
    with pytest.raises(TypeError):
        hash(series)
    assert hash(Word((0, 1))) == hash(AB)


def test_check_runs_on_every_construction():
    with pytest.raises(ValueError, match="letters must be >= 0"):
        Word(letters=(0, -1))
    with pytest.raises(ValueError, match=r"K\^n coefficients"):
        TruncatedSeries(max_degree=1, alphabet_size=2, tables=[[Fraction(1)], []])


def test_report_verdicts_are_read_from_the_fields():
    # degree 4, where n! * d_n = 24: an lcm equal to it, one that divides it, and one that does not
    reports = [DenominatorReport(4, 2, 1, 24, observed, AB) for observed in (24, 12, 16)]
    assert [(r.minimal, r.divisibility_ok) for r in reports] == [(True, True), (False, True), (False, False)]
    passing, failing = GoldbergDegreeResult(10, 6, None, None), GoldbergDegreeResult(11, 2, AB, 4)
    assert (passing.passed, passing.ratio) == (True, None)
    assert (failing.passed, failing.ratio) == (False, Fraction(1, 2))
    # the fields hold what a scan found, and no verdict
    found = ("degree", "alphabet_size", "d_n", "common_denominator", "observed_lcm", "witness_max")
    assert DenominatorReport._fields == found
    assert GoldbergDegreeResult._fields == ("degree", "goldberg_denominator", "witness", "witness_denominator")
