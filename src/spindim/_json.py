"""`dumps(obj)`: the text of `json.dumps(obj, indent=2)`, written
directly.

With `indent` set, the standard library runs its pure-Python encoder, a
chain of generators that took about a tenth of a warm form request.
This writer covers the values the command-line payloads hold: dicts
with str keys, lists, strs, ints, bools and None, each of exactly that
class.  Anything else raises TypeError, so it never prints
what `json.dumps` would not.  A str of printable ASCII with no '"' or
'\\' is written as is; any other str is escaped by `json.dumps` itself,
imported only then.
"""

from __future__ import annotations


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2)` for a dict, list, str, int, bool or
    None, nested of the same; TypeError for any other value or key."""
    return _encode(obj, "\n")


def _encode(o, nl: str) -> str:
    cls = o.__class__
    if cls is str:
        return _string(o)
    if cls is int:
        return int.__repr__(o)
    if cls is bool:
        return "true" if o else "false"
    if o is None:
        return "null"
    inner = nl + "  "
    if cls is list:
        if not o:
            return "[]"
        flat = set(map(type, o)) == {str} and "".join(o)   # no call per item
        if flat and flat.isascii() and flat.isprintable() \
                and '"' not in flat and "\\" not in flat:  # no call per str
            body = ('",' + inner + '"').join(o)
            return "[" + inner + '"' + body + '"' + nl + "]"
        body = ("," + inner).join([_encode(x, inner) for x in o])
        return "[" + inner + body + nl + "]"
    if cls is dict:
        if not o:
            return "{}"
        items = []
        for key, value in o.items():
            if key.__class__ is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            # a plain key and a str (checked with it), int or bool value
            # need no call
            vcls = value.__class__
            flat = vcls is str
            both = key + value if flat else key
            if both.isascii() and both.isprintable() and '"' not in both \
                    and "\\" not in both:
                items.append('"' + key + '": ' + (
                    '"' + value + '"' if flat
                    else int.__repr__(value) if vcls is int
                    else ("true" if value else "false") if vcls is bool
                    else _encode(value, inner)))
            else:
                items.append(_string(key) + ": " + _encode(value, inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _string(s: str) -> str:
    # json.dumps (ensure_ascii) writes ' ' to '~' unescaped, but for
    # '"' and '\'
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json
    return json.dumps(s)
