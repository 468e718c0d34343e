"""Small immutable records without the dataclass machinery.

A record class names its fields in `__slots__` and assigns them once, in
its own `__init__`, with whatever validation it needs; like
`fractions.Fraction`, it is immutable by convention.  `Record` derives the
rest from the slots, taken in declaration order from the base class down:

* a dataclass-style repr, `Name(field=value, ...)`;
* equality only between instances of one exact type, over the compared
  fields, and a hash that agrees with it; both read the tuple of compared
  fields through one `operator.attrgetter` per class.

A slot whose name starts with "_" is a cache: it is neither shown nor
compared.  A property listed in a class's `_computed` is a field after
the slots, shown and compared like one.  Fields listed in `_uncompared`
are shown but not compared; such a name that is no slot, a property
computed from the fields, is shown after the slots.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _computed: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = tuple(name for klass in reversed(cls.__mro__)
                      for name in klass.__dict__.get("__slots__", ())
                      if not name.startswith("_"))
        cls._fields = slots + tuple(name for name in cls._computed + cls._uncompared
                                    if name not in slots)
        compared = cls._compared = tuple(name for name in cls._fields
                                         if name not in cls._uncompared)
        # the tuple of compared fields, read by one attrgetter; for fewer
        # than two names attrgetter returns no tuple, so a loop builds it
        cls._key = staticmethod(
            attrgetter(*compared) if len(compared) > 1
            else lambda record: tuple([getattr(record, name) for name in compared]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"
