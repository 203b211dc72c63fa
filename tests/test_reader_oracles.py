"""Differential tests of the command-line readers and writers against
reference copies of the versions they replaced.

The references below are the slower readers and writers the library
used before each request's text was read in one pass: `parse_form` with
`_parse_element` and `_grow_form`, `parse_matrix`, `parse_symbol_expr`,
`format_qform`, `format_symbol` with `format_mono`, `cli._table_args`
(now `cli._read`) and `_json._encode` with `_string`, kept verbatim bar
the module prefixes they need here.  So are the torsor-form printer
`format_tagged` with its nested `fmt_part`, and `_freeze_counter` with
its sort key of nested tuples, which `invariant` used before it built
and printed a request in one pass.  On well-formed input the library
must return an equal value; on malformed input (one-character inserts,
deletes and replacements of well-formed text) it must raise the same
exception with byte-identical text.  `cli._read` also reads the argv
whose values start with '-', which the reference refused, and names its
own faults, where the reference returned None.

The example counts come from the hypothesis profile (see conftest.py).
"""

import json
import math
import random
import re
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_corpus import HAND_ARGV, workloads
from spindim import _json, cli, invariants, qform2
from spindim.invariants import (PARAM_COUNT, PfisterBase, ScaledPfister,
                                SpinId, SymbolSum, SymbolTerm, TaggedForm,
                                TorsorData, label, pfister_expand)
from spindim.qform2 import BinaryBlock, QForm, pfister_build
from test_cli import add_argument_keywords, form_summands, read_outcome
from test_invariants import _SUM
from test_json import _VALUES

# ---------------------------------------------------------------------------
# the references

MAX_FORM_DIM = qform2.MAX_FORM_DIM
MAX_MATRIX_DIM = qform2.MAX_MATRIX_DIM
MAX_SYMBOL_EXPANSION = invariants.MAX_SYMBOL_EXPANSION
_ELEMENT_RE = re.compile(r"[0-9a-fA-F]+")
_BLOCK_RE = re.compile(r"\[[^][]*\]")
_DIAG_RE = re.compile(r"<[^<>]*>")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_TERM_PLUS_RE = re.compile(r"(?<=\])\+|\+(?=[{0])")
# `cli._COMMANDS` in the form the reference `_table_args` reads: each
# option is its flag and the keywords of its `add_argument` call
_COMMANDS = {name: (fn, None, description,
                    tuple((flag, add_argument_keywords(kind, default))
                          for flag, kind, default in options))
             for name, (fn, description, options) in cli._COMMANDS.items()}


def _parse_element(field, tok: str) -> int:
    tok = tok.strip()
    if not _ELEMENT_RE.fullmatch(tok):
        raise ValueError(f"bad field element {tok!r} (expected hex digits)")
    x = int(tok, 16)
    if x >= field.order:    # quote the hex as typed, not x in decimal
        raise ValueError(f"not an element of F_{{2^{field.k}}}: {tok!r}")
    return x


def _grow_form(dim: int, extra: int) -> int:
    dim += extra
    if dim > MAX_FORM_DIM:
        raise ValueError(f"form dimension is larger than {MAX_FORM_DIM}")
    return dim


def parse_form(field, text: str) -> QForm:
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty form expression")
    if text == "0":     # the empty form, as `format_qform` prints it
        return QForm(field)
    blocks, diag, dim = [], [], 0
    for part in text.split("+"):
        if _BLOCK_RE.fullmatch(part):
            toks = part[1:-1].split(",")
            if len(toks) != 2:
                raise ValueError(f"block needs two entries: {part!r}")
            dim = _grow_form(dim, 2)
            blocks.append(BinaryBlock(_parse_element(field, toks[0]),
                                      _parse_element(field, toks[1])))
        elif _DIAG_RE.fullmatch(part):
            dim = _grow_form(dim, 1)
            diag.append(_parse_element(field, part[1:-1]))
        elif part.startswith("pf(") and part.endswith(")"):
            inner = part[3:-1]
            if ";" not in inner:
                raise ValueError(f"pf(...) needs 'slots;unit', e.g. "
                                 f"pf(2,3;1): {part!r}")
            slots_text, b_text = inner.rsplit(";", 1)
            slots = ([_parse_element(field, t) for t in slots_text.split(",")]
                     if slots_text else [])
            b = _parse_element(field, b_text)
            dim = _grow_form(dim, 2 << len(slots))
            blocks += pfister_build(field, slots, b).blocks
        else:
            raise ValueError(f"cannot parse form summand {part!r}")
    return QForm(field, tuple(blocks), tuple(diag))


def parse_matrix(field, text: str):
    text = text.replace(" ", "")
    if not (text.startswith("mat(") and text.endswith(")")):
        raise ValueError("normalize expects mat(row;row;...)")
    cells = [row.split(",") for row in text[4:-1].split(";")]
    if max(len(cells), *map(len, cells)) > MAX_MATRIX_DIM:
        raise ValueError(f"coefficient matrix is larger than "
                         f"{MAX_MATRIX_DIM}x{MAX_MATRIX_DIM}")
    rows = [[_parse_element(field, t) for t in row] for row in cells]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("coefficient matrix must be square")
    return rows


def format_qform(q: QForm) -> str:
    # `QForm.__new__` has checked every coefficient
    parts = [f"[{a:x},{b:x}]" for a, b in q.blocks]
    parts += [f"<{c:x}>" for c in q.diag]
    return "+".join(parts) if parts else "0"


def format_mono(m) -> str:
    if len(m) == 1:     # a single name needs no sort
        (name,) = m
        return name
    return "*".join(sorted(m)) if m else "1"


def format_symbol(s: SymbolSum) -> str:
    if not s.terms:
        return "0"
    parts = []
    for a_slots, b_slot in s.terms:
        slots = list(map(format_mono, a_slots))
        slots.append("+".join(map(format_mono, b_slot)))
        parts.append("{" + ",".join(slots) + "]")
    return " + ".join(parts)


def parse_symbol_expr(text: str) -> SymbolSum:
    """Parse a sum of symbol terms."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty symbol expression")

    def mono(mono_text, additive=False):
        # the product of the factors, '1' adding nothing; a repeat cancels,
        # but not in the additive slot, where b*b is b modulo x^2 + x
        out = frozenset()
        for piece in mono_text.split("*"):
            if piece == "1":
                continue
            if not _NAME_RE.fullmatch(piece):
                raise ValueError(f"bad monomial factor {piece!r}")
            if additive and piece in out:
                raise ValueError(f"repeated additive factor {piece!r}")
            out ^= frozenset({piece})
        return out

    terms, expansion = [], 0
    for part in _TERM_PLUS_RE.split(text):
        if part == "0":
            continue
        if not (part.startswith("{") and part.endswith("]")):
            raise ValueError(f"cannot parse symbol term {part!r}")
        slots = part[1:-1].split(",")
        if len(slots) < 2:
            raise ValueError(f"a symbol needs at least two slots: {part!r}")
        a_slots = tuple(map(mono, slots[:-1]))
        b_pieces = slots[-1].split("+")
        b_slot = tuple(mono(m, True) for m in b_pieces)
        expansion += len(b_pieces) * math.prod(
            s.count("*") + 1 for s in slots[:-1])
        if expansion > MAX_SYMBOL_EXPANSION:
            raise ValueError(f"symbol expression expands to more than "
                             f"{MAX_SYMBOL_EXPANSION} terms")
        terms.append(SymbolTerm(a_slots, b_slot))
    return SymbolSum(tuple(terms))


def format_tagged(form: "TaggedForm") -> str:
    def fmt_part(p):
        base = "<<" + ",".join(format_mono(s) for s in p.base.a_slots) \
               + ";" + format_mono(p.base.b) + "]]"
        if p.scalar:
            return f"({format_mono(p.scalar)})*{base}"
        return base

    pieces = ["H"] * form.h_copies + [fmt_part(p) for p in form.parts]
    return " + ".join(pieces)


def _freeze_counter(cnt: Counter) -> tuple:
    def key(item):
        (scalar, base), _ = item
        return (tuple(sorted(scalar)),
                tuple(tuple(sorted(s)) for s in base.a_slots),
                tuple(sorted(base.b)))
    return tuple(sorted(cnt.items(), key=key))


def _table_args(argv):
    """The parse of a well-formed argv, read from `_COMMANDS` alone, or
    None.  Well formed: a subcommand, then distinct `flag value` pairs,
    each flag one of the subcommand's exactly, no value starting with
    '-', each value of its option's type and among its choices, and
    every required flag given."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    given = dict(zip(argv[1::2], argv[2::2]))
    if entry is None or 2 * len(given) + 1 != len(argv):
        return None     # no subcommand, a flag with no value, or a repeat
    fn, _, _, options = entry
    args = types.SimpleNamespace(command=argv[0])
    for flag, kwargs in options:
        if flag in given:
            value = given.pop(flag)
            if value.startswith("-"):
                return None
            if "type" in kwargs:
                try:
                    value = kwargs["type"](value)
                except ValueError:
                    return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
        elif kwargs.get("required"):
            return None
        else:
            value = kwargs.get("default")
        setattr(args, flag[2:].replace("-", "_"), value)
    if given:
        return None     # a flag the subcommand does not have
    args.fn = fn
    return args


def _encode(o, nl: str) -> str:
    cls = o.__class__
    if cls is str:
        return _string(o)
    if cls is int:
        return int.__repr__(o)
    if o is True:
        return "true"
    if o is False:
        return "false"
    if o is None:
        return "null"
    inner = nl + "  "
    if cls is list:
        if not o:
            return "[]"
        body = ("," + inner).join([_encode(x, inner) for x in o])
        return "[" + inner + body + nl + "]"
    if cls is dict:
        if not o:
            return "{}"
        items = []
        for key, value in o.items():
            if key.__class__ is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_string(key) + ": " + _encode(value, inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _string(s: str) -> str:
    # json.dumps (ensure_ascii) writes ' ' to '~' unescaped, but for
    # '"' and '\'
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    return json.dumps(s)


# ---------------------------------------------------------------------------
# inputs


def outcome(fn, *args):
    """("ok", value) or (exception class name, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:    # the class and text are what is compared
        return type(exc).__name__, str(exc)


# the grammars' characters, whitespace that `str.strip` and `\s` both
# drop, and digits and signs that `int()` would read but the grammar
# does not allow
_WHITESPACE = "\t\n\x0b\x0c\r\x1c\x1f\x85\xa0   　"
_ALPHABET = st.sampled_from(
    "[]<>(),;+* 0123456789abcdefABCDEFpfgxz_'{}-" + _WHITESPACE
    + "٣３²")


@st.composite
def mutated(draw, text):
    """`text` after one insert, delete or replace of a character."""
    text = draw(text)
    i = draw(st.integers(0, len(text)))
    kind = draw(st.sampled_from("idr" if text else "i"))
    if kind == "i":
        return text[:i] + draw(_ALPHABET) + text[i:]
    i = min(i, len(text) - 1)
    return text[:i] + (draw(_ALPHABET) if kind == "r" else "") + text[i + 1:]


_FORMS = form_summands().map(
    lambda case: (case[0], "+".join(t for t, _ in case[1])))

@st.composite
def matrices(draw):
    """A field f2^k and `mat(...)` text of an n x n matrix over it, n <=
    8, with entries in either case, some with leading zeros."""
    field = qform2.ConcreteField2(draw(st.integers(1, 16)))
    n = draw(st.integers(1, 8))
    cell = st.builds(lambda x, zeros, upper: ("0" * zeros + f"{x:x}").upper()
                     if upper else "0" * zeros + f"{x:x}",
                     st.integers(0, field.order - 1), st.integers(0, 2),
                     st.booleans())
    rows = [",".join(draw(st.lists(cell, min_size=n, max_size=n)))
            for _ in range(n)]
    return field, "mat(" + ";".join(rows) + ")"


# symbol text in the printed syntax, from `_SUM`, and written by hand
# with repeated factors and '1's, which the printer never writes
_FACTOR = st.sampled_from(["a", "b", "c", "1", "x_1", "y'"])
_PRODUCT = st.lists(_FACTOR, min_size=1, max_size=3).map("*".join)
_TERM_TEXT = st.builds(
    lambda a, b: "{" + ",".join([*a, "+".join(b)]) + "]",
    st.lists(_PRODUCT, min_size=1, max_size=3),
    st.lists(_PRODUCT, min_size=1, max_size=2))
_SYMBOLS = st.one_of(_SUM.map(format_symbol),
                     st.lists(_TERM_TEXT, min_size=1, max_size=3).map("+".join))

# Pfister forms, scaled copies and multisets of them over monomials in
# a few names, with any number of slots
_NAME_MONO = st.frozensets(st.sampled_from("abcde"), max_size=3)
_BASE = st.builds(PfisterBase, st.lists(_NAME_MONO, max_size=4).map(tuple),
                  _NAME_MONO)
_TAGGED = st.builds(TaggedForm, st.integers(0, 2), st.lists(
    st.builds(ScaledPfister, _NAME_MONO, _BASE), max_size=4).map(tuple))
_MULTISET = st.dictionaries(st.tuples(_NAME_MONO, _BASE), st.integers(1, 3),
                            max_size=8).map(Counter)

# every argv of the dispatch corpus, and each one changed by dropping a
# word, repeating a flag and its value, or putting a word in a value
_ARGV = st.sampled_from(HAND_ARGV + [argv for w in workloads.WORKLOADS
                                     for argv in workloads.generate(w, 1)])


@st.composite
def changed_argv(draw):
    argv = list(draw(_ARGV))
    i = draw(st.integers(0, max(len(argv) - 1, 0)))
    kind = draw(st.sampled_from("kdrv"))
    if kind == "d" and argv:
        del argv[i]
    elif kind == "r" and len(argv) > 2:
        j = 1 + 2 * ((i // 2) % ((len(argv) - 1) // 2 or 1))
        argv += argv[j:j + 2]
    elif kind == "v" and argv:
        argv[i] = draw(st.sampled_from(
            ["-1", "0", "7", "json", "odd", "arf", "--min", "--form", "",
             "spin7", "f2^3", "[1,1]", "{a,b]", "a,b,c,d"]))
    return argv


# ---------------------------------------------------------------------------
# the differential tests


@settings(deadline=None)
@given(_FORMS)
def test_parse_form_matches_the_reference(case):
    field, text = case
    assert outcome(qform2.parse_form, field, text) == \
        outcome(parse_form, field, text)


@settings(deadline=None)
@given(st.data())
def test_parse_form_faults_match_the_reference(data):
    field, _ = data.draw(_FORMS)
    text = data.draw(mutated(_FORMS.map(lambda case: case[1])))
    assert outcome(qform2.parse_form, field, text) == \
        outcome(parse_form, field, text)


def test_every_whitespace_around_an_entry_is_read_as_the_reference_reads_it():
    # `\s` in the one-match reader and `str.strip` in `_parse_element`
    # must drop the same characters
    field = qform2.ConcreteField2(4)
    for code in range(0x3001):
        ch = chr(code)
        for text in (f"[{ch}1,2]", f"[1,2{ch}]", f"<{ch}3{ch}>", f"[{ch},1]"):
            assert outcome(qform2.parse_form, field, text) == \
                outcome(parse_form, field, text), (hex(code), text)


@settings(deadline=None)
@given(matrices())
def test_parse_matrix_matches_the_reference(case):
    field, text = case
    assert outcome(qform2.parse_matrix, field, text) == \
        outcome(parse_matrix, field, text)


@settings(deadline=None)
@given(st.data())
def test_parse_matrix_faults_match_the_reference(data):
    field, _ = data.draw(matrices())
    text = data.draw(mutated(matrices().map(lambda case: case[1])))
    assert outcome(qform2.parse_matrix, field, text) == \
        outcome(parse_matrix, field, text)


@settings(deadline=None)
@given(form_summands())
def test_format_qform_matches_the_reference(case):
    field, summands = case
    for q in [q for _, q in summands] + [qform2.parse_form(
            field, "+".join(t for t, _ in summands)), QForm(field)]:
        assert qform2.format_qform(q) == format_qform(q)


@settings(deadline=None)
@given(_SYMBOLS)
def test_parse_symbol_expr_matches_the_reference(text):
    assert outcome(invariants.parse_symbol_expr, text) == \
        outcome(parse_symbol_expr, text)


@settings(deadline=None)
@given(mutated(_SYMBOLS))
def test_parse_symbol_expr_faults_match_the_reference(text):
    assert outcome(invariants.parse_symbol_expr, text) == \
        outcome(parse_symbol_expr, text)


@settings(deadline=None)
@given(_SUM)
def test_format_symbol_matches_the_reference(s):
    for t in (s, invariants.symbol_normalize(s)):
        assert invariants.format_symbol(t) == format_symbol(t)


@pytest.mark.parametrize("group", list(SpinId))
def test_torsor_forms_and_multisets_match_the_reference(group):
    # seeded labels from names, "1" and repeats: each torsor form prints
    # the same text, and each multiset of `invariant_f` freezes the same
    rng = random.Random(f"tagged {group.value}")
    for _ in range(300):
        t = TorsorData(group, tuple(rng.choice("abcde1")
                                    for _ in range(PARAM_COUNT[group])))
        rep = invariants.invariant_f(t)
        for form in rep.forms:
            assert invariants.format_tagged(form) == format_tagged(form)
        f = t.formal_field()
        lab = [label(f, n) for n in t.labels]
        expansion = pfister_expand(f, (*lab[3:], lab[0], lab[1]), lab[2],
                                   peel=len(lab) - 3)
        assert invariants._freeze_counter(expansion) == \
            _freeze_counter(expansion) == rep.summands, t.labels


@settings(deadline=None)
@given(_TAGGED)
def test_format_tagged_matches_the_reference(form):
    assert invariants.format_tagged(form) == format_tagged(form)


@settings(deadline=None)
@given(_MULTISET)
def test_freeze_counter_matches_the_reference(cnt):
    assert invariants._freeze_counter(cnt) == _freeze_counter(cnt)


@settings(deadline=None)
@given(st.one_of(_ARGV, changed_argv()))
def test_table_args_matches_the_reference(argv):
    # `cli._read` reads what the reference reads, to the same values;
    # of the rest it reads only argv with a value that starts with '-',
    # which it takes as is where the reference refused it
    got, want = read_outcome(argv), _table_args(argv)
    if want is not None:
        assert got == [getattr(want, flag[2:].replace("-", "_"))
                       for flag, _, _ in cli._COMMANDS[argv[0]][2]], argv
    elif got not in ("usage error", "help"):
        assert any(value.startswith("-") for value in argv[2::2]), argv


@settings(deadline=None)
@given(st.one_of(_VALUES, st.dictionaries(st.sampled_from(["a", 1, "b"]),
                                          _VALUES, max_size=3)))
def test_json_encode_matches_the_reference(obj):
    assert outcome(_json._encode, obj, "\n") == outcome(_encode, obj, "\n")
