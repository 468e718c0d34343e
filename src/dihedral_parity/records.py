"""Small immutable records without the dataclass machinery.

A record class names its fields in `__slots__` and assigns them once, in
its own `__init__`, with whatever validation it needs; like
`fractions.Fraction`, it is immutable by convention.  `Record` derives the
rest from the slots, taken in declaration order from the base class down:

* a dataclass-style repr, `Name(field=value, ...)`;
* equality only between instances of one exact type, over the compared
  fields, and a hash that agrees with it.

A slot whose name starts with "_" is a cache: it is neither shown nor
compared.  Fields listed in a class's `_uncompared` are shown but not
compared.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for klass in reversed(cls.__mro__)
                            for name in klass.__dict__.get("__slots__", ())
                            if not name.startswith("_"))
        cls._compared = tuple(name for name in cls._fields
                              if name not in cls._uncompared)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"
