"""Plain value records.

A record compares and prints by the attributes named in `_fields`.  Two
records are equal when they are of the same class and those attributes
are equal; a record prints as `Name(field=value, ...)`.  The eleven value
records list their constructor arguments there, in constructor order.
`SMap` and `ConditionalState` list their integer tables and use a record
only for `==`.  A `Record` is mutable and unhashable; a `FrozenRecord`
refuses assignment and deletion and hashes as the tuple of its fields, so
it is unhashable when one of them is.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Field-wise equality and repr over `_fields`; unhashable."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if cls._fields:  # two or more, so `_key` returns a tuple
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"


class FrozenRecord(Record):
    """A record whose constructor sets its fields once, through
    `__dict__`; hashable as the tuple of its fields."""

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
