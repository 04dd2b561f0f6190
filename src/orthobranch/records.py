"""Plain record classes: field-wise repr, equality and hashing.

The package's result and query types are plain classes on these two bases.
Each names its fields in ``_fields`` and stores them in its own
``__init__``; nothing is generated at import.

``Record`` gives ``repr`` as ``Name(field=value, ...)`` over the fields not
in ``_hidden``, and ``==`` on the ``_fields`` tuples of two instances of the
same class (``NotImplemented`` for any other class).  A ``Record`` defines
``__eq__`` without ``__hash__``, so it is unhashable.  ``FrozenRecord``
also hashes its ``_fields`` tuple and refuses assignment and deletion with
an ``AttributeError``; its ``__init__`` stores the fields through
``self.__dict__``.
"""
from __future__ import annotations

from typing import Tuple


class Record:
    _fields: Tuple[str, ...] = ()
    _hidden: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented


class FrozenRecord(Record):
    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
