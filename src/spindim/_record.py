"""Frozen value records, built without `dataclasses`.

A record class names its fields in `_fields`, in argument order, and
the trailing fields that may be left out in `_defaults`, a dict from
field name to default value.  `Record` then supplies, once for every
record:

  * `__init__(*values, **named)`: values in `_fields` order, then the
    named ones, then `_defaults`; too many values, a missing field or
    an unknown name raise TypeError.  Each field is set once with
    `setfield`, which goes past the frozen `__setattr__`;
  * `__eq__`: same class and equal field tuples, else NotImplemented;
  * `__hash__`: the hash of the field tuple;
  * `__repr__`: `Name(field=value, ...)`, leaving out the names in
    `_hidden`;
  * assignment and deletion raising AttributeError;
  * `_replace(**changes)`, a copy built by `__init__`, so it is checked
    the same way.

A record that checks its input writes its own `__init__` with one
parameter per field and ends it with `super().__init__(...)`.

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
    _defaults: dict = {}
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # the field tuple, read in C; one name alone gives a bare value
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1
                                else lambda rec: (get(rec),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            setfield(self, name, value)

    def _bind(self, args, kwargs) -> list:
        # the field values in _fields order, for the slow path
        fields, name = self._fields, self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} values, "
                            f"got {len(args)}")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected field {key!r}")
            if key in values:
                raise TypeError(f"{name}() got two values for field {key!r}")
        values.update(kwargs)
        defaults = self._defaults
        missing = [f for f in fields if f not in values and f not in defaults]
        if missing:
            raise TypeError(f"{name}() missing field(s): {', '.join(missing)}")
        return [values[f] if f in values else defaults[f] for f in fields]

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
