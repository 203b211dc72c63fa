"""Frozen value records, built without `dataclasses`.

A record class names its fields in `_fields`, in `__init__` order, and
writes its own `__init__`: it checks its arguments and sets each field
once with `setfield(self, name, value)`, which goes past the frozen
`__setattr__`.  `Record` then supplies, once for every record:

  * `__eq__`: same class and equal field tuples, else NotImplemented;
  * `__hash__`: the hash of the field tuple;
  * `__repr__`: `Name(field=value, ...)`, leaving out the names in
    `_hidden`;
  * assignment and deletion raising AttributeError;
  * `_replace(**changes)`, a copy built by `__init__`, so it is checked
    the same way.

This is the contract of a frozen dataclass, field hashes included, so
set and dict orders are the same as they were under `dataclasses`.
Records keep a `__dict__`, so `functools.cached_property` works on them.
The field tuple is read by one `operator.attrgetter`, built once per
class; a one-field record still hashes its 1-tuple.
"""

from __future__ import annotations

from operator import attrgetter

# Sets a field in __init__ without the frozen __setattr__; unlike
# assigning to `self.__dict__`, it keeps CPython's compact instance
# layout and its fast attribute reads.
setfield = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # the field tuple, read in C; one name alone gives a bare value
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1
                                else lambda rec: (get(rec),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields if name not in self._hidden)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return self.__class__(**values)
