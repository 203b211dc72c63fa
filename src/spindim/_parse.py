"""Parsers for the form, matrix, field and symbol expressions that
`qform` and `symbol` take on the command line.

The syntax is described in the `cli` docstring.  Neither grammar
nests, so plain splits read both, bar one regex between symbol terms.
Like the layers, this module is registered lazily by `spindim/__init__`,
so it compiles on the first request that parses an expression and
never on a lattice request.
"""

from __future__ import annotations

import math
import re

from . import invariants, qform2


# Largest coefficient matrix `qform --op normalize` accepts.  The
# reduction and its certificate cost O(n^3) field multiplies; a cold
# normalize over f2^16 takes about 0.22 s at n = 32 and 1.05 s at n = 64.
MAX_MATRIX_DIM = 64

# Largest dimension of a parsed form.  Each Pfister slot doubles the
# form, so the sum is checked summand by summand, before any
# pf(...) that would pass it is built.
MAX_FORM_DIM = 4096

# Largest number of terms a symbol expression may expand into: for each
# term, the product of its multiplicative slots' factor counts (as
# written) times the number of its additive pieces, summed over the
# terms.  `symbol_normalize` walks that many choices.
MAX_SYMBOL_EXPANSION = 4096


_ELEMENT_RE = re.compile(r"[0-9a-fA-F]+")
_BLOCK_RE = re.compile(r"\[[^][]*\]")
_DIAG_RE = re.compile(r"<[^<>]*>")
_FIELD_RE = re.compile(r"f2\^([0-9]+)")
# '+' between symbol terms: after a ']', or before a '{' or '0' term
_TERM_PLUS_RE = re.compile(r"(?<=\])\+|\+(?=[{0])")


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


def parse_form(field, text: str) -> qform2.QForm:
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty form expression")
    if text == "0":     # the empty form, as `format_qform` prints it
        return qform2.QForm(field)
    blocks, diag, dim = [], [], 0
    for part in text.split("+"):
        if _BLOCK_RE.fullmatch(part):
            toks = part[1:-1].split(",")
            if len(toks) != 2:
                raise ValueError(f"block needs two entries: {part!r}")
            dim = _grow_form(dim, 2)
            blocks.append(qform2.BinaryBlock(_parse_element(field, toks[0]),
                                             _parse_element(field, toks[1])))
        elif _DIAG_RE.fullmatch(part):
            dim = _grow_form(dim, 1)
            diag.append(_parse_element(field, part[1:-1]))
        elif part.startswith("pf(") and part.endswith(")"):
            inner = part[3:-1]
            if ";" not in inner:
                raise ValueError("pf(...) needs 'slots;unit', e.g. pf(2,3;1)")
            slots_text, b_text = inner.rsplit(";", 1)
            slots = ([_parse_element(field, t) for t in slots_text.split(",")]
                     if slots_text else [])
            b = _parse_element(field, b_text)
            dim = _grow_form(dim, 2 << len(slots))
            blocks += qform2.pfister_build(field, slots, b).blocks
        else:
            raise ValueError(f"cannot parse form summand {part!r}")
    return qform2.QForm(field, tuple(blocks), tuple(diag))


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


def parse_field_name(text: str) -> qform2.ConcreteField2:
    m = _FIELD_RE.fullmatch(text)
    if not m:
        raise ValueError(f"bad field {text!r} (expected f2^K)")
    # int() refuses a string of more than 4300 digits; a degree with
    # more digits than MAX_FIELD_BITS is out of range anyway, so the
    # field gets one that is and reports it
    digits = m.group(1).lstrip("0")
    top = qform2.MAX_FIELD_BITS
    k = int(digits or "0") if len(digits) <= len(str(top)) else top + 1
    return qform2.ConcreteField2(k)


def parse_symbol_expr(text: str) -> invariants.SymbolSum:
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
            if not invariants._NAME_RE.fullmatch(piece):
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
            raise ValueError("a symbol needs at least two slots")
        a_slots = tuple(map(mono, slots[:-1]))
        b_pieces = slots[-1].split("+")
        b_slot = tuple(mono(m, True) for m in b_pieces)
        expansion += len(b_pieces) * math.prod(
            s.count("*") + 1 for s in slots[:-1])
        if expansion > MAX_SYMBOL_EXPANSION:
            raise ValueError(f"symbol expression expands to more than "
                             f"{MAX_SYMBOL_EXPANSION} terms")
        terms.append(invariants.SymbolTerm(a_slots, b_slot))
    return invariants.SymbolSum(tuple(terms))
