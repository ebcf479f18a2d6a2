"""Frozen value records built from ``__slots__``, without ``dataclasses``.

``dataclasses`` imports ``inspect`` (with ``ast``, ``dis`` and
``tokenize``) and writes every record's methods through ``exec`` when the
class is defined; every CLI run imports the records, so that would be
start-up time.  A record names its fields once, in ``__slots__``, is built
from them by position or by name, and validates them in ``_check``.
Equality, hashing, ``repr`` and pickling follow from the slots, as from a
frozen dataclass's fields; a list field makes ``hash`` a ``TypeError``.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    """Equal to a record of the same class with equal fields; fields cannot be reassigned."""

    __slots__ = ()

    def __init__(self, *values, **named) -> None:
        names = self.__slots__
        if named or len(values) != len(names):
            values = self._bind(values, named)
        for name, value in zip(names, values):
            _set(self, name, value)
        self._check()

    def _bind(self, values: tuple, named: dict) -> list:
        # the TypeErrors a written signature would raise
        names, cls = self.__slots__, self.__class__.__qualname__
        if len(values) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} fields but {len(values)} were given")
        if repeated := [name for name in names[: len(values)] if name in named]:
            raise TypeError(f"{cls}() got multiple values for field {repeated[0]!r}")
        if unknown := [name for name in named if name not in names]:
            raise TypeError(f"{cls}() got an unexpected field {unknown[0]!r}")
        if missing := [name for name in names[len(values) :] if name not in named]:
            raise TypeError(f"{cls}() missing field(s): {', '.join(missing)}")
        return [*values, *(named[name] for name in names[len(values) :])]

    def _check(self) -> None:
        """Raise if the fields do not make a valid record."""

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__, so a copy or an unpickled record is checked again
        return self.__class__, self._fields()
