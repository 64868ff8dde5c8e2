"""The base of quatsplit's immutable value classes: field descriptors, places and records.

A subclass lists its fields in __slots__ and sets each one in its own
__init__ through object.__setattr__, after any check, which raises.  It then
behaves as a frozen dataclass would:

- == holds only between instances of one class with equal fields, so
  Quadratic(7) != Cyclotomic(7), and the two never share an lru_cache entry;
- hash is the hash of the field tuple;
- repr names each field, as in Cyclotomic(n=7);
- __match_args__ is the field order, so `case Cyclotomic(n)` matches;
- assigning or deleting a field raises AttributeError;
- pickle and copy rebuild an instance through its constructor.

Built without the dataclasses module, which loads inspect, ast, dis and
tokenize, so a process that never asks for those does not pay for them.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__match_args__ = cls.__slots__
        get = attrgetter(*fields)  # the field tuple; the bare field when there is one
        cls.__eq__ = lambda self, other: get(self) == get(other) if type(other) is type(self) else NotImplemented
        if len(fields) == 1:
            cls.__hash__ = lambda self: hash((get(self),))
        else:
            cls.__hash__ = lambda self: hash(get(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        # the default would restore each slot by assignment, which raises
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")
