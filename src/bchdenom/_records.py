"""Value records built from ``__slots__``, without ``dataclasses``.

``dataclasses`` imports ``inspect`` (with ``ast``, ``dis`` and
``tokenize``) and writes every record's methods through ``exec`` when the
class is defined; every CLI run imports the records, so that would be
start-up time.  A record here names its fields in ``__slots__``, in the
order of its ``__init__`` parameters, and writes that ``__init__``
itself; equality, hashing, ``repr`` and pickling are derived from the
slots, as ``dataclass`` would derive them from the fields.
"""

from __future__ import annotations


class Record:
    """Equal to a record of the same class with equal fields; unhashable, like a mutable dataclass."""

    __slots__ = ()

    def _assign(self, *values) -> None:
        # object.__setattr__ also gets past FrozenRecord's guard
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__, so a copy or an unpickled record is checked again
        return self.__class__, self._fields()


class FrozenRecord(Record):
    """A record whose fields cannot be assigned or deleted after ``__init__``; hashable."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
