"""The record base: fields named once in ``__slots__``, built by position or by name, checked by ``_check``."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from bchdenom.bch import CongruenceReport, DenominatorReport, GoldbergDegreeResult, TableEntry
from bchdenom.freealgebra import TruncatedSeries, Word
from bchdenom.numtheory import PrimeFactorization

AB = Word((0, 1))

#: one record of each class, as (class, field values in ``__slots__`` order)
RECORDS = {
    "Word": (Word, ((0, 1, 1),)),
    "PrimeFactorization": (PrimeFactorization, (((2, 3), (3, 1)),)),
    "TruncatedSeries": (TruncatedSeries, (1, 2, [[Fraction(1)], [Fraction(1), Fraction(1)]])),
    "DenominatorReport": (DenominatorReport, (2, 2, 1, 2, 2, True, True, AB)),
    "CongruenceReport": (CongruenceReport, (3, 4, 3, 0, ((AB, 1, 1),), ())),
    "GoldbergDegreeResult": (GoldbergDegreeResult, (11, 2, False, AB, 4, Fraction(1, 2))),
    "TableEntry": (TableEntry, (Fraction(1, 2), PrimeFactorization(((2, 1),)), 1, AB)),
}


@pytest.mark.parametrize("cls, values", RECORDS.values(), ids=RECORDS.keys())
def test_positional_and_keyword_construction_agree(cls, values):
    record = cls(*values)
    named = dict(zip(cls.__slots__, values))
    assert cls(**named) == record
    assert cls(**dict(reversed(named.items()))) == record  # names in any order
    assert cls(values[0], **dict(list(named.items())[1:])) == record
    assert [getattr(record, name) for name in cls.__slots__] == list(values)
    assert repr(record) == f"{cls.__qualname__}({', '.join(f'{k}={v!r}' for k, v in named.items())})"


@pytest.mark.parametrize("cls, values", RECORDS.values(), ids=RECORDS.keys())
def test_missing_unknown_and_repeated_fields_are_type_errors(cls, values):
    first = cls.__slots__[0]
    with pytest.raises(TypeError, match=f"missing field.*{cls.__slots__[-1]}"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="missing field"):
        cls()
    with pytest.raises(TypeError, match="unexpected field 'colour'"):
        cls(*values, colour=1)
    with pytest.raises(TypeError, match=f"multiple values for field {first!r}"):
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
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*values)


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
    with pytest.raises(AssertionError):
        DenominatorReport(2, 2, 1, 2, 4, False, True, AB)  # an lcm that does not divide n! * d_n
