"""Immutable records: @record builds a class as a slotted named tuple.

A record is declared like a frozen dataclass, with annotated fields and
trailing defaults, and @record rebuilds it on a collections.namedtuple of
those fields.  A named tuple is made without exec'ing generated methods and
without importing dataclasses or inspect, so each class costs little at
import, and its instances are tuples with no __dict__.

What a frozen dataclass gives still holds.  Fields cannot be assigned.  Two
records are equal only when they are of one class and their fields are
equal, so a record never equals a record of another class or a plain tuple.
The hash is that of the field tuple, and repr is Name(field=value, ...).
Tuple behaviour a record must not show is turned off: every record is true,
even one with no fields, and ordering, + and * raise TypeError.  A class
that defines its own operators, like Poly, keeps them.
"""

from collections import namedtuple


def _unsupported(self, other):
    return NotImplemented


class _Record:
    __slots__ = ()
    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __mul__ = __rmul__ = _unsupported

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __bool__(self):
        return True


def record(cls: type) -> type:
    """cls rebuilt on a named tuple of its annotated fields, with its
    methods, class attributes and bases kept."""
    ns = dict(cls.__dict__)
    fields = tuple(ns.get("__annotations__", {}))
    defaults = [ns.pop(name) for name in fields if name in ns]
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    ns["__slots__"] = ()
    base = namedtuple(cls.__name__, fields, defaults=defaults, module=cls.__module__)
    return type(cls.__name__, (_Record, base, *cls.__bases__), ns)
