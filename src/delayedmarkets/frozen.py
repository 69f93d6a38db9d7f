"""The one base of the package's immutable value types.

A value type names its compared fields in `_fields`, in constructor
order, and its own __init__ checks and normalizes them and puts them in
with one self.__dict__.update(...); derived values and memos (a
partition's atoms, a market's price scale) live in __dict__ too, outside
`_fields`, so equality, hash and repr never read them. After __init__,
assigning or deleting any attribute raises AttributeError. This is the
part of a frozen dataclass the package uses, without importing
dataclasses (and with it inspect) at start-up.
"""

from __future__ import annotations


class Frozen:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
