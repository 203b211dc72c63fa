"""Frozen value records: tuples of their fields, built without
`dataclasses`.

A record class names its fields in `_fields`, in argument order, and
the trailing fields that may be left out in `_defaults`, a dict from
field name to default value.  A record is the tuple of its field
values, and `Record` supplies, once for every record:

  * `__new__(*values, **named)`: values in `_fields` order, then the
    named ones, then `_defaults`; too many values, a missing field or
    an unknown name raise TypeError;
  * a read-only property per field, which wins over a tuple method of
    the same name (`WittDecomposition.index` is a field);
  * `==` and `!=`: same class and equal field tuples, so a record never
    equals a plain tuple or a record of another class, on either side;
  * the tuple's hash, as a frozen dataclass hashes, so set and dict
    orders are the same as they were under `dataclasses`;
  * `__repr__`: `Name(field=value, ...)`, leaving out the names in
    `_hidden`;
  * assignment and deletion raising AttributeError;
  * `_replace(**changes)`, a copy built by `__new__`, so it is checked
    the same way.

A record that checks its input writes its own `__new__(cls, ...)` with
one parameter per field, ending in `return super().__new__(cls, ...)`,
or in `tuple.__new__(cls, (...))` when it is built on a warm path.
Iteration, `len`, indexing, `in` and ordering (by field tuple, with no
class check) are the tuple's.  `+` and `*` raise TypeError, where a
tuple would return a plain tuple, unless a record defines its own
(`GroupElement`, `SymbolSum`, `WeylElt`).  Records keep a `__dict__`,
so `functools.cached_property` works on them.
"""

from __future__ import annotations

from operator import itemgetter


class Record(tuple):
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _hidden: tuple[str, ...] = ()

    __add__ = __radd__ = __mul__ = __rmul__ = None

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        return tuple.__new__(cls, args)

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        # the field values in _fields order, for the slow path
        fields, name = cls._fields, cls.__qualname__
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
        defaults = cls._defaults
        missing = [f for f in fields if f not in values and f not in defaults]
        if missing:
            raise TypeError(f"{name}() missing field(s): {', '.join(missing)}")
        return [values[f] if f in values else defaults[f] for f in fields]

    # A record subclasses tuple, so these run first even with the plain
    # tuple on the left of `==`.
    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __getnewargs__(self):
        # copy and pickle rebuild a record from its fields, not one tuple
        return tuple(self)

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._fields, self)
                          if name not in self._hidden)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        return self.__class__(**dict(zip(self._fields, self), **changes))
