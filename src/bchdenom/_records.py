"""Frozen value records: named tuples whose fields are checked on every construction.

``collections.namedtuple`` gives construction by position or by name, equality, hashing, ``repr``,
immutability and pickling, where ``dataclasses`` would import ``inspect`` (with ``ast``, ``dis`` and
``tokenize``) into every CLI run's start-up.  A record is a tuple of its fields: it iterates, indexes
and equals a plain tuple of the same fields, and a list field makes ``hash`` a ``TypeError``.
"""

from collections import namedtuple


def record(name: str, fields: str) -> type:
    """A ``namedtuple(name, fields)`` whose every record, copy and ``_replace`` passes ``_check``.

    A subclass sets ``__slots__ = ()``, so that it holds its fields alone, and overrides ``_check``.
    """
    base = namedtuple(name, fields)

    class Record(base):
        __slots__ = ()

        def __new__(cls, *values, **named):
            self = base.__new__(cls, *values, **named)
            self._check()
            return self

        @classmethod
        def _make(cls, values):
            return cls(*values)

        def _check(self) -> None:
            """Raise if the fields do not make a valid record."""

    return Record
