"""Immutable value records: the one base of the workbench's data classes.

A record's fields are its ``__init__`` parameters, in order; ``__init__`` checks
them and stores them in the instance ``__dict__`` (or slots).  The base gives what
a frozen dataclass would, with no code generated at import: fields that cannot be
assigned or deleted, equality of class and field tuple, the hash of that tuple, a
``Name(field=value, ...)`` repr, and copies and pickles rebuilt through ``__init__``.
A ``kept`` attribute is derived from the fields on first read and stored in the instance
``__dict__``; it stays frozen and takes no lock (``functools.cached_property`` does before 3.12).
"""

from operator import attrgetter
from types import MappingProxyType
from typing import Mapping


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, a field of an immutable record."""


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = fields = code.co_varnames[1 : code.co_argcount]
        get = attrgetter(*fields)
        cls._key = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def _plain(self) -> tuple:
        """The field values, with each read-only mapping shown as the dict it copies."""
        return tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._plain()))
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._plain()  # __init__ checks, and wraps mappings, again


def frozen_copy(mapping: Mapping) -> MappingProxyType:
    """A read-only copy, independent of ``mapping``; a proxy's dict is copied in C by its copy()."""
    try:  # a proxy over another mapping may copy to no dict, or have no copy()
        copied = mapping.copy() if type(mapping) is MappingProxyType else None
    except AttributeError:
        copied = None
    return MappingProxyType(copied if type(copied) is dict else dict(mapping))


class kept:
    """``func(record)``, stored on first read in the ``__dict__``, which shadows this non-data
    descriptor; first reads racing in two threads may both compute it, but keep the first."""

    def __init__(self, func) -> None:
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, record, owner=None):
        if record is None:
            return self
        return record.__dict__.setdefault(self.name, self.func(record))
