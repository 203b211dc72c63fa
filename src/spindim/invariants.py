"""Mod-2 symbol calculus and the cohomological invariants of the small
spin groups, tracked through explicit quadratic form data.

Symbols {a_1, ..., a_n-1, b] have multiplicative slots a_i (square-free
monomials in named indeterminates, the elements of a `FormalField2`)
and one additive slot b.  They are the degree-n analogue in
characteristic 2 of Milnor symbols mod 2: the calculus implemented here
is purely formal, using only

  * additivity in each slot (products expand multilinearly),
  * {.., 1, ..]  = 0,
  * terms with two equal multiplicative slots vanish,
  * mod-2 cancellation of identical terms,
  * symmetry (slots are sorted into a canonical order).

No Steinberg-type relation is available (the coefficient monoid has no
addition), so a normalized nonzero sum is not automatically nonzero in
cohomology; `symbol_generic_nonzero` only certifies sums containing a
term of pairwise-distinct single indeterminates, citing the known
nonvanishing of such generic symbols over rational function fields.

The invariant of a generic torsor is assembled exactly as the
underlying quadratic forms dictate: the torsor data pins down scaled
Pfister forms, their sum is checked (as an exact multiset of scaled
Pfister summands) against the multilinear expansion of one bigger
Pfister form, and the symbol of that bigger form is returned.  Those
forms are kept symbolically, as `PfisterBase` keys with monomial
scalars; this module owns the monomial field and the expansion
(`pfister_expand`), and needs nothing from `qform2`, whose forms live
over F_{2^k}.  It serves `symbol` and `invariant`; `parse_symbol_expr`
reads what `format_symbol` prints: plain splits, bar one regex between terms.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from enum import Enum
from itertools import chain, product

from . import _json
from ._record import Record

Label = frozenset


class FormalField2:
    """Square-free monomials in named indeterminates, multiplicative only.

    Elements are frozensets of names; the empty set is 1.  Multiplying
    is symmetric difference (each generator squares to 1), so every
    element is its own inverse.  There is no addition and no zero.
    """

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate indeterminate names")
        for n in names:
            if not n or not isinstance(n, str):
                raise ValueError(f"bad indeterminate name: {n!r}")
        self.names = names
        self._name_set = frozenset(names)
        self.one = frozenset()

    def __eq__(self, other):
        return isinstance(other, FormalField2) and other.names == self.names

    def __hash__(self):
        return hash(("formal", self.names))

    def __repr__(self):
        return f"FormalField2({self.names!r})"

    def var(self, name: str) -> frozenset:
        if name not in self.names:
            raise ValueError(f"unknown indeterminate {name!r}")
        return frozenset([name])

    def check(self, x) -> frozenset:
        if not isinstance(x, frozenset) or not x <= self._name_set:
            raise ValueError(f"not a monomial in {self.names}: {x!r}")
        return x

    def mul(self, x, y) -> frozenset:
        """x * y.  Unchecked: both operands must already be monomials
        (see `check`); callers check values where they enter."""
        return x ^ y

    def is_zero(self, x) -> bool:
        self.check(x)
        return False


def label(field: FormalField2, *names: str) -> Label:
    """Product of named indeterminates; "1" factors are allowed and
    drop out.  Repeated factors cancel (everything squares to 1)."""
    out = field.one
    for n in names:
        if n != "1":
            out = field.mul(out, field.var(n))
    return out


# ---------------------------------------------------------------------------
# Pfister forms, symbolically


class PfisterBase(Record):
    """A symbolic Pfister form <<a_slots..., b]], used as an expansion key."""

    _fields = ("a_slots", "b")


def pfister_expand(field, a_slots, b, peel: int) -> Counter:
    """Expand the first `peel` slots of <<a_slots, b]] multilinearly:
    the result is the multiset of scaled copies

        << c_1, ..., c_peel, rest, b]]
            = sum over subsets J of {c_i} of  (prod J) * <<rest, b]]

    returned as a Counter over (scalar, PfisterBase(rest, b)).  With
    peel = 0 this is {1 * <<a_slots, b]]: 1}.  Repeated scalars simply
    raise multiplicities; nothing is cancelled here.  Any field with
    `one`, `mul`, `check` and `is_zero` works: a `FormalField2` here,
    and F_{2^k} in the tests, which compare it with
    `qform2.pfister_build`.
    """
    a_slots = tuple(a_slots)
    if not 0 <= peel <= len(a_slots):
        raise ValueError("peel out of range")
    for a in a_slots:
        if field.is_zero(a):
            raise ValueError("Pfister slots must be nonzero")
    field.check(b)
    outer, inner = a_slots[:peel], a_slots[peel:]
    base = PfisterBase(inner, b)
    out: Counter = Counter()
    for picks in product([False, True], repeat=peel):
        s = field.one
        for chosen, a in zip(picks, outer):
            if chosen:
                s = field.mul(s, a)
        out[(s, base)] += 1
    return out


# ---------------------------------------------------------------------------
# symbols


class SymbolTerm(Record):
    """One symbol {a_slots..., b_slot].  The multiplicative slots are
    monomials; the additive slot is a formal sum of monomials."""

    _fields = ("a_slots", "b_slot")

    def degree(self) -> int:
        return len(self.a_slots) + 1


class SymbolSum(Record):
    """Formal mod-2 sum of symbol terms (repeats allowed until
    normalization)."""

    _fields = ("terms",)

    def __add__(self, other: "SymbolSum") -> "SymbolSum":
        return SymbolSum(self.terms + other.terms)


def symbol(a_slots, b_slot) -> SymbolSum:
    """Single-term sum; `b_slot` may be one monomial or a sequence of
    monomials understood as their sum."""
    if isinstance(b_slot, frozenset):
        b_slot = (b_slot,)
    return SymbolSum((SymbolTerm(tuple(a_slots), tuple(b_slot)),))


ZERO_SYMBOL = SymbolSum(())


def symbol_normalize(s: SymbolSum) -> SymbolSum:
    """Canonical form: expand products, drop vanishing terms, split
    additive slots, cancel mod 2, sort.  The rules are confluent (the
    tests drive them in random orders); this computes the fixpoint in
    one pass."""
    # a term is keyed by its sorted slot names and the sorted names of its
    # additive monomial (with the monomial, to reuse); ordering the keys
    # orders the monomials by their sorted names, as the normal form does
    odd = {}    # the keys seen an odd number of times
    for a_slots, b_slot in s.terms:
        b_keys = [(tuple(sorted(b)), frozenset(b)) for b in b_slot]
        # expand multilinearly; a slot equal to 1 has no choices at
        # all, so the term dies
        for picked in product(*a_slots):
            if len(set(picked)) < len(picked):    # equal slots vanish
                continue
            a_key = tuple(sorted(picked))
            for b in b_keys:                      # split the additive slot
                key = a_key, b
                if odd.pop(key, None) is None:
                    odd[key] = True
    # every slot is a monomial, so the terms are built as bare tuples;
    # sorted, the terms of one slot key are adjacent and share its slots,
    # and the slots hold one monomial per name
    mono, terms, last = {}, [], None
    for a_key, (_, b) in sorted(odd):
        if a_key != last:
            last, a_slots = a_key, tuple([
                mono.get(n) or mono.setdefault(n, frozenset((n,)))
                for n in a_key])
        terms.append(tuple.__new__(SymbolTerm, (a_slots, (b,))))
    return tuple.__new__(SymbolSum, (tuple(terms),))


def format_mono(m: Label) -> str:
    return "*".join(sorted(m)) or "1"


def format_symbol(s: SymbolSum) -> str:
    parts, last = [], None
    for a_slots, b_slot in s.terms:
        # a normal form's slots: one name each, written once for the
        # adjacent terms that share them; and one additive monomial
        if a_slots is not last:
            last, head = a_slots, [*chain.from_iterable(a_slots)]
            if len(head) != len(a_slots) or not all(a_slots):
                head = map(format_mono, a_slots)
            head = ",".join(head) + "," if a_slots else ""
        parts.append(head + ("*".join(sorted(b_slot[0])) or "1"
                             if len(b_slot) == 1
                             else "+".join(map(format_mono, b_slot))))
    return "{" + "] + {".join(parts) + "]" if parts else "0"


# Largest number of terms a symbol expression may expand into: for each
# term, the product of its multiplicative slots' factor counts (as
# written) times the number of its additive pieces, summed over the
# terms.  `symbol_normalize` walks that many choices.
MAX_SYMBOL_EXPANSION = 4096

# an indeterminate name, in labels and in the symbol syntax
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_PRODUCT_RE = re.compile(rf"{_NAME_RE.pattern}(?:\*{_NAME_RE.pattern})*")
# '+' between symbol terms: after a ']', or before a '{' or '0' term
_TERM_PLUS_RE = re.compile(r"(?<=\])\+|\+(?=[{0])")


def _mono(text: str, additive: bool = False) -> frozenset:
    # the factors' product; a repeat cancels, or raises in the additive slot
    if _PRODUCT_RE.fullmatch(text):     # distinct names: no factor loop
        names = text.split("*")
        out = frozenset(names)
        if len(out) == len(names):
            return out
    out = frozenset()
    for piece in text.split("*"):
        if piece == "1":
            continue
        if not _NAME_RE.fullmatch(piece):
            raise ValueError(f"bad monomial factor {piece!r}")
        if additive and piece in out:
            raise ValueError(f"repeated additive factor {piece!r}")
        out ^= frozenset({piece})
    return out


def parse_symbol_expr(text: str) -> SymbolSum:
    """Parse a sum of symbol terms."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty symbol expression")
    terms, expansion = [], 0
    for part in _TERM_PLUS_RE.split(text):
        if part == "0":
            continue
        if not (part.startswith("{") and part.endswith("]")):
            raise ValueError(f"cannot parse symbol term {part!r}")
        *a_texts, b_text = part[1:-1].split(",")
        if not a_texts:
            raise ValueError(f"a symbol needs at least two slots: {part!r}")
        a_slots = tuple(map(_mono, a_texts))
        b_pieces = b_text.split("+")
        b_slot = tuple([_mono(t, True) for t in b_pieces])
        expansion += len(b_pieces) * math.prod(
            [t.count("*") + 1 for t in a_texts])
        if expansion > MAX_SYMBOL_EXPANSION:
            raise ValueError(f"symbol expression expands to more than "
                             f"{MAX_SYMBOL_EXPANSION} terms")
        terms.append(tuple.__new__(SymbolTerm, (a_slots, b_slot)))
    return tuple.__new__(SymbolSum, (tuple(terms),))


def format_tagged(form: "TaggedForm") -> str:
    pieces = ["H"] * form.h_copies
    for scalar, (a_slots, b) in form.parts:
        base = ("<<" + ",".join(map(format_mono, a_slots)) + ";"
                + format_mono(b) + "]]")
        pieces.append(f"({format_mono(scalar)})*{base}" if scalar else base)
    return " + ".join(pieces)


class Nonvanishing(Enum):
    ZERO = "zero"
    CERTIFIED_NONZERO = "certified_nonzero"
    UNKNOWN = "unknown"


class NonvanishingReport(Record):
    _fields = ("verdict", "witness", "note")
    _defaults = {"witness": None, "note": ""}


def symbol_generic_nonzero(s: SymbolSum, indeterminates) -> NonvanishingReport:
    """Sound, incomplete nonvanishing test for a normalized symbol sum.

    Zero is decided exactly (the normalized sum is empty).  A sum is
    certified nonzero when it contains a term whose slots, the additive
    one included, are pairwise distinct single indeterminates from the
    given set: such a generic symbol is nonzero over the rational
    function field on those indeterminates.  That step is a citation,
    not a computation, and is labelled as such in the report.
    Everything else is reported unknown.  Additive monomials must be
    sets of names, never `FormalField2.mul` products (b*b is b, not 1).
    """
    return _nonzero_normal(symbol_normalize(s), set(indeterminates))


def _nonzero_normal(s: SymbolSum, indeterminates: set) -> NonvanishingReport:
    """`symbol_generic_nonzero` of a sum already in normal form, whose
    multiplicative slots are pairwise-distinct single names and whose
    additive slot is one monomial."""
    if not s.terms:
        return NonvanishingReport(Nonvanishing.ZERO, None, "")
    for term in s.terms:
        (b,) = term.b_slot
        names = {v for m in term.a_slots for v in m}
        if len(b) == 1 and not b & names and names | b <= indeterminates:
            return NonvanishingReport(
                Nonvanishing.CERTIFIED_NONZERO, term,
                "certified by citation: a symbol in pairwise-distinct "
                "indeterminates is nonzero over their rational function field")
    return NonvanishingReport(Nonvanishing.UNKNOWN, None, "")


# ---------------------------------------------------------------------------
# torsor form data for the small spin groups


class SpinId(Enum):
    SPIN7 = "spin7"
    SPIN8 = "spin8"
    SPIN9 = "spin9"
    SPIN10 = "spin10"


# how many generic parameters each group's torsor carries
PARAM_COUNT = {SpinId.SPIN7: 4, SpinId.SPIN8: 5,
               SpinId.SPIN9: 5, SpinId.SPIN10: 4}


class TorsorData(Record):
    """A generic torsor described by its parameter labels.

    The first three labels are the slots of the common 3-fold Pfister
    form P = <<a, b, c]]; the remaining one or two scale its copies.
    Each label is a name, or the literal "1", meaning that parameter is
    trivial; the identities below still hold and the symbol degenerates.
    """

    _fields = ("group", "labels")

    def __new__(cls, group: SpinId, labels: tuple):
        if not isinstance(group, SpinId):
            raise ValueError(f"group must be a SpinId, got {group!r}")
        if not isinstance(labels, tuple):   # the record must hash
            raise ValueError(f"labels must be a tuple, got "
                             f"{type(labels).__name__}")
        want = PARAM_COUNT[group]
        if len(labels) != want:
            raise ValueError(
                f"{group.value} needs {want} parameters, got {len(labels)}")
        for name in labels:
            # the printed symbol has room only for names and "1"
            if not (isinstance(name, str)
                    and (name == "1" or _NAME_RE.fullmatch(name))):
                raise ValueError(f"bad parameter label: {name!r}")
        return super().__new__(cls, group, labels)

    def formal_field(self) -> FormalField2:
        names = []
        for n in self.labels:
            if n != "1" and n not in names:
                names.append(n)
        return FormalField2(names)


class ScaledPfister(Record):
    _fields = ("scalar", "base")


class TaggedForm(Record):
    """A sum of scaled copies of one Pfister form, plus hyperbolic
    planes.  This is the exact shape of the torsor forms below."""

    _fields = ("h_copies", "parts")


def torsor_forms(t: TorsorData) -> tuple:
    """The quadratic forms attached to a generic torsor.

    With P = <<a,b,c]]:
      spin7  (a,b,c,d):    q1 = P,          q2 = d P
      spin8  (a,b,c,d,e):  q1 = d P,  q2 = e P,  q3 = de P
      spin9  (a,b,c,d,e):  r = H + d P,     s = e P + de P
      spin10 (a,b,c,d):    r = H + d P
    """
    f = t.formal_field()
    return _torsor_forms(t, f, _monomials(t))


def _monomials(t: TorsorData) -> list:
    # `TorsorData` checked every label; `formal_field()` holds every name
    return [frozenset() if n == "1" else frozenset((n,)) for n in t.labels]


def _torsor_forms(t: TorsorData, f: FormalField2, lab: list) -> tuple:
    # `torsor_forms` over the field and monomials its caller has built
    base = PfisterBase((lab[0], lab[1]), lab[2])
    if t.group is SpinId.SPIN7:
        return (TaggedForm(0, (ScaledPfister(f.one, base),)),
                TaggedForm(0, (ScaledPfister(lab[3], base),)))
    if t.group is SpinId.SPIN8:
        d, e = lab[3], lab[4]
        return (TaggedForm(0, (ScaledPfister(d, base),)),
                TaggedForm(0, (ScaledPfister(e, base),)),
                TaggedForm(0, (ScaledPfister(f.mul(d, e), base),)))
    if t.group is SpinId.SPIN9:
        d, e = lab[3], lab[4]
        return (TaggedForm(1, (ScaledPfister(d, base),)),
                TaggedForm(0, (ScaledPfister(e, base),
                               ScaledPfister(f.mul(d, e), base))))
    return (TaggedForm(1, (ScaledPfister(lab[3], base),)),)


def pfister_recover(form: TaggedForm) -> PfisterBase:
    """Base Pfister form of a single scaled copy, hyperbolic summands
    and the scale stripped.  Anything that is not literally one scaled
    Pfister copy is rejected: recovery from an arbitrary form is out
    of scope."""
    if len(form.parts) != 1:
        raise ValueError("form is not a single scaled Pfister copy")
    return form.parts[0].base


class InvariantReport(Record):
    _fields = ("group", "labels", "forms",
               # the verified identity: multiset of (scalar, base) on each side
               "summands", "expansion",
               "symbol", "nonvanishing")


def invariant_f(t: TorsorData) -> InvariantReport:
    """Degree-4 or 5 invariant of a generic torsor.

    The scaled Pfister copies carried by the torsor forms (with q0
    adjoined where the construction calls for the base copy itself)
    must add up, as an exact multiset, to the multilinear expansion of
    the bigger Pfister form <<scales..., a, b, c]]; the invariant is
    that form's symbol.  The identity is verified here and a failure
    raises, since it would mean the form data is inconsistent.
    """
    f = t.formal_field()
    lab = _monomials(t)
    forms = _torsor_forms(t, f, lab)
    a, b, c = lab[0], lab[1], lab[2]
    scales = lab[3:]

    collected: Counter = Counter()
    if t.group is not SpinId.SPIN7:
        # q0, the base copy recovered from the first form (hyperbolic
        # summands are never parts, so nothing else is stripped)
        collected[(f.one, pfister_recover(forms[0]))] += 1
    collected.update((p.scalar, p.base) for form in forms for p in form.parts)

    expansion = pfister_expand(f, tuple(scales) + (a, b), c, peel=len(scales))
    if collected != expansion:
        raise AssertionError("torsor forms do not match the Pfister expansion")

    sym = symbol_normalize(symbol(tuple(scales) + (a, b), c))
    indet = {n for n in t.labels if n != "1" and t.labels.count(n) == 1}
    # the two multisets were just found equal: one frozen copy serves both
    frozen = _freeze_counter(expansion)
    return InvariantReport(t.group, t.labels, forms, frozen, frozen,
                           sym, _nonzero_normal(sym, indet))


def _freeze_counter(cnt: Counter) -> tuple:
    # by sorted names: lists of names compare as tuples of them would
    def key(item):
        (scalar, (a_slots, b)), _ = item
        return [sorted(scalar), list(map(sorted, a_slots)), sorted(b)]
    return tuple(sorted(cnt.items(), key=key))


def symbol_request(expr: str) -> str:
    """`symbol --normalize` stdout: the normal form of `expr`."""
    # beyond the `cli` docstring's syntax (the --help text): an additive
    # monomial names each factor at most once, as b*b is b there, not 1
    return format_symbol(symbol_normalize(parse_symbol_expr(expr))) + "\n"


def invariant_request(group: str, labels: str) -> tuple[int, str]:
    """`invariant` stdout: (exit code, JSON); 1 if `invariant_f` fails."""
    labels = tuple(labels.split(","))
    try:     # a failed self-check, not bad input
        rep = invariant_f(TorsorData(SpinId(group), labels))
    except AssertionError as exc:
        return 1, _json.dumps({"group": group, "labels": list(labels),
                               "ok": False, "error": str(exc)}) + "\n"
    nv = rep.nonvanishing
    payload = {
        "group": group,
        "labels": list(labels),
        "torsor_forms": [format_tagged(f) for f in rep.forms],
        # true: a failed identity makes `invariant_f` raise (exit 1 above)
        "expansion_identity_ok": True,
        "symbol": format_symbol(rep.symbol),
        "nonvanishing": nv.verdict.value,
        "ok": True,
    }
    if nv.note:
        payload["nonvanishing_note"] = nv.note
    return 0, _json.dumps(payload) + "\n"
