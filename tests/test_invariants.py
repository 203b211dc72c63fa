"""Symbols, their normal form, and the torsor invariants.

The normalization is checked for confluence the hard way: a one-step
rewrite engine applies the defining relations in random order until
nothing applies, and the terminal multiset must match the library's
one-pass normal form on every input tried.
"""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindim.invariants import (PARAM_COUNT, ZERO_SYMBOL, InvariantReport,
                                Nonvanishing, SpinId, SymbolSum, SymbolTerm,
                                TaggedForm, TorsorData, format_symbol,
                                invariant_f, label, pfister_recover, symbol,
                                symbol_generic_nonzero, symbol_normalize,
                                torsor_forms)
from spindim.invariants import (FormalField2, NonvanishingReport,
                                PfisterBase, _nonzero_normal,
                                pfister_expand)

NAMES = ("a", "b", "c", "d", "e")
FIELD = FormalField2(NAMES)


def mono(*names):
    return frozenset(names)


def sym(*slot_names, b=("c",)):
    return symbol(tuple(mono(n) for n in slot_names),
                  tuple(mono(n) for n in b))


def _sort_key(m):
    # the normal form orders monomials by their sorted names
    return tuple(sorted(m))


# ---------------------------------------------------------------------------
# a deliberately naive normalizer: one random rewrite at a time


def naive_normalize(s: SymbolSum, rng: random.Random) -> SymbolSum:
    work = list(s.terms)
    done = []
    guard = 0
    while work:
        guard += 1
        assert guard < 20000, "rewriting failed to terminate"
        t = work.pop(rng.randrange(len(work)))
        if len(t.b_slot) > 1:
            # additive slot splits anywhere
            cut = rng.randrange(1, len(t.b_slot))
            work.append(SymbolTerm(t.a_slots, t.b_slot[:cut]))
            work.append(SymbolTerm(t.a_slots, t.b_slot[cut:]))
            continue
        big = [j for j, sl in enumerate(t.a_slots) if len(sl) > 1]
        if big:
            # multiplicative slots are linear: {uv,..] = {u,..] + {v,..]
            j = rng.choice(big)
            v = rng.choice(sorted(t.a_slots[j]))
            for repl in (frozenset([v]), t.a_slots[j] - {v}):
                work.append(SymbolTerm(
                    t.a_slots[:j] + (repl,) + t.a_slots[j + 1:], t.b_slot))
            continue
        if any(len(sl) == 0 for sl in t.a_slots):
            continue        # a slot equal to 1 makes the symbol split
        if len(set(t.a_slots)) < len(t.a_slots):
            continue        # two equal slots make the symbol split
        done.append(SymbolTerm(tuple(sorted(t.a_slots, key=_sort_key)),
                               t.b_slot))
    parity: Counter = Counter()
    for t in done:
        parity[t] ^= 1
    kept = sorted((t for t, p in parity.items() if p),
                  key=lambda t: (tuple(map(_sort_key, t.a_slots)),
                                 tuple(map(_sort_key, t.b_slot))))
    return SymbolSum(tuple(kept))


_MONO = st.frozensets(st.sampled_from(NAMES[:4]), max_size=2)
_TERM = st.builds(SymbolTerm,
                  st.lists(_MONO, max_size=3).map(tuple),
                  st.lists(_MONO, min_size=1, max_size=2).map(tuple))
_SUM = st.lists(_TERM, max_size=3).map(lambda ts: SymbolSum(tuple(ts)))


@settings(max_examples=200, deadline=None)
@given(_SUM, st.integers(0, 10**6))
def test_normalization_is_confluent(s, seed):
    assert symbol_normalize(s) == naive_normalize(s, random.Random(seed))


@settings(max_examples=100, deadline=None)
@given(_SUM)
def test_normalization_is_idempotent(s):
    once = symbol_normalize(s)
    assert symbol_normalize(once) == once


@settings(max_examples=100, deadline=None)
@given(_SUM, _SUM)
def test_normalization_is_additive(s1, s2):
    # normalizing a sum = symmetric difference of the normal forms
    n1, n2 = symbol_normalize(s1), symbol_normalize(s2)
    want = sorted(set(n1.terms) ^ set(n2.terms),
                  key=lambda t: (tuple(map(_sort_key, t.a_slots)),
                                 tuple(map(_sort_key, t.b_slot))))
    assert symbol_normalize(s1 + s2) == SymbolSum(tuple(want))


def normalize_with_a_monomial_per_slot(s: SymbolSum) -> SymbolSum:
    """`symbol_normalize` as it was before its terms shared their parts,
    with a new frozenset for every slot of every term."""
    odd = {}    # the keys seen an odd number of times
    for a_slots, b_slot in s.terms:
        b_keys = [(tuple(sorted(b)), frozenset(b)) for b in b_slot]
        for picked in product(*a_slots):
            if len(set(picked)) < len(picked):    # equal slots vanish
                continue
            a_key = tuple(sorted(picked))
            for b in b_keys:                      # split the additive slot
                key = a_key, b
                if odd.pop(key, None) is None:
                    odd[key] = True
    return tuple.__new__(SymbolSum, (tuple([
        tuple.__new__(SymbolTerm, (tuple(map(frozenset, zip(a_key))), (b,)))
        for a_key, (_, b) in sorted(odd)]),))


@settings(max_examples=100, deadline=None)
@given(_SUM)
def test_normal_form_shares_one_monomial_per_name(s):
    n = symbol_normalize(s)
    assert n == normalize_with_a_monomial_per_slot(s)
    # one monomial object per name, one slots tuple per distinct slots
    slots = [m for t in n.terms for m in t.a_slots]
    assert len(set(map(id, slots))) == len(set(slots))
    assert len({id(t.a_slots) for t in n.terms}) == \
        len({t.a_slots for t in n.terms})


# ---------------------------------------------------------------------------
# golden normalization cases


def test_multilinear_expansion():
    s = symbol((mono("a", "b"), mono("c")), mono("d"))
    assert symbol_normalize(s) == symbol_normalize(
        sym("a", "c", b=("d",)) + sym("b", "c", b=("d",)))


def test_slot_equal_to_one_kills_the_term():
    assert symbol_normalize(symbol((mono(), mono("c")), mono("d"))) == ZERO_SYMBOL


def test_equal_slots_kill_the_term():
    assert symbol_normalize(sym("a", "a", b=("c",))) == ZERO_SYMBOL
    # ... even when the equality only appears after expansion
    s = symbol((mono("a", "b"), mono("a"), mono("c")), mono("d"))
    t = symbol((mono("b"), mono("a"), mono("c")), mono("d"))
    assert symbol_normalize(s) == symbol_normalize(t)


def test_mod_two_cancellation():
    s = sym("a", "b", b=("c",))
    assert symbol_normalize(s + s) == ZERO_SYMBOL
    assert symbol_normalize(sym("b", "a") + sym("a", "b")) == ZERO_SYMBOL


def test_additive_slot_splits():
    s = symbol((mono("a"),), (mono("b"), mono("c")))
    assert symbol_normalize(s) == symbol_normalize(
        sym("a", b=("b",)) + sym("a", b=("c",)))


def test_additive_slot_is_not_expanded_multiplicatively():
    s = symbol_normalize(symbol((mono("a"),), mono("b", "c")))
    assert s.terms == (SymbolTerm((mono("a"),), (mono("b", "c"),)),)


def test_trivial_additive_slot_survives():
    s = symbol_normalize(symbol((mono("a"),), mono()))
    assert s.terms == (SymbolTerm((mono("a"),), (mono(),)),)


def test_slots_are_sorted():
    assert symbol_normalize(sym("d", "a", "b")) == symbol_normalize(
        sym("a", "b", "d"))


def test_format_symbol():
    assert format_symbol(ZERO_SYMBOL) == "0"
    assert format_symbol(symbol_normalize(sym("a", "b"))) == "{a,b,c]"
    s = symbol((mono("a"),), (mono("b"), mono("c", "d")))
    assert format_symbol(s) == "{a,b+c*d]"
    assert format_symbol(symbol((mono(),), mono())) == "{1,1]"


def test_label_builder():
    assert label(FIELD, "a", "b") == mono("a", "b")
    assert label(FIELD, "a", "1", "a") == mono()
    assert label(FIELD) == FIELD.one
    with pytest.raises(ValueError):
        label(FIELD, "z")


# ---------------------------------------------------------------------------
# the nonvanishing certificate


def test_nonvanishing_zero():
    rep = symbol_generic_nonzero(ZERO_SYMBOL, {"a"})
    assert rep.verdict is Nonvanishing.ZERO
    assert rep.witness is None


def test_nonvanishing_certified_generic_term():
    rep = symbol_generic_nonzero(sym("a", "b", b=("c",)), {"a", "b", "c"})
    assert rep.verdict is Nonvanishing.CERTIFIED_NONZERO
    assert rep.witness == SymbolTerm((mono("a"), mono("b")), (mono("c"),))
    assert "citation" in rep.note


def test_nonvanishing_needs_pairwise_distinct_names():
    # the additive slot repeats a multiplicative one: no certificate
    rep = symbol_generic_nonzero(sym("a", "b", b=("a",)), {"a", "b"})
    assert rep.verdict is Nonvanishing.UNKNOWN


def test_nonvanishing_needs_declared_indeterminates():
    rep = symbol_generic_nonzero(sym("a", "b", b=("c",)), {"a", "b"})
    assert rep.verdict is Nonvanishing.UNKNOWN


def test_nonvanishing_composite_additive_slot_is_unknown():
    s = symbol((mono("a"),), mono("b", "c"))
    rep = symbol_generic_nonzero(s, {"a", "b", "c"})
    assert rep.verdict is Nonvanishing.UNKNOWN


def test_nonvanishing_any_generic_term_suffices():
    s = symbol((mono("a"),), mono("a")) + sym("a", "b", b=("c",))
    rep = symbol_generic_nonzero(s, {"a", "b", "c"})
    assert rep.verdict is Nonvanishing.CERTIFIED_NONZERO


def generic_nonzero_by_renormalizing(s, indeterminates):
    """`symbol_generic_nonzero` as it was before the invariant stopped
    normalizing its symbol twice: every slot of every normal term is
    walked as a monomial."""
    indeterminates = set(indeterminates)
    s = symbol_normalize(s)
    if not s.terms:
        return NonvanishingReport(Nonvanishing.ZERO)
    for term in s.terms:
        slots = list(term.a_slots) + list(term.b_slot)
        names = [next(iter(m)) for m in slots if len(m) == 1]
        if (len(names) == len(slots)
                and len(set(names)) == len(names)
                and set(names) <= indeterminates):
            return NonvanishingReport(
                Nonvanishing.CERTIFIED_NONZERO, term,
                "certified by citation: a symbol in pairwise-distinct "
                "indeterminates is nonzero over their rational function field")
    return NonvanishingReport(Nonvanishing.UNKNOWN)


def random_sum(rng):
    # mostly single names, so that generic terms, and so certificates,
    # are common; "1" slots and composite monomials kill or block them
    def mono_(size):
        return frozenset(rng.sample(NAMES, size))
    terms = []
    for _ in range(rng.randint(0, 4)):
        a = tuple(mono_(rng.choice((0, 1, 1, 1, 1, 2)))
                  for _ in range(rng.randint(0, 3)))
        b = tuple(mono_(rng.choice((0, 1, 1, 2)))
                  for _ in range(rng.randint(1, 2)))
        terms.append(SymbolTerm(a, b))
    return SymbolSum(tuple(terms))


def test_nonvanishing_matches_the_renormalizing_walk():
    rng = random.Random(11)
    verdicts = Counter()
    for _ in range(2000):
        s = random_sum(rng)
        indet = set(rng.sample(NAMES, rng.randint(0, len(NAMES))))
        want = generic_nonzero_by_renormalizing(s, indet)
        normal = symbol_normalize(s)
        for got in (symbol_generic_nonzero(s, indet),
                    symbol_generic_nonzero(normal, indet),
                    _nonzero_normal(normal, indet)):
            assert got == want, (s, indet)
        verdicts[want.verdict] += 1
    assert len(verdicts) == 3


# ---------------------------------------------------------------------------
# torsor data


def test_torsor_data_validation():
    with pytest.raises(ValueError):
        TorsorData(SpinId.SPIN7, ("a", "b", "c"))
    with pytest.raises(ValueError):
        TorsorData(SpinId.SPIN10, ("a", "b", "c", ""))
    with pytest.raises(ValueError):
        TorsorData(SpinId.SPIN8, ("a", "b", "c", "d", 5))
    # a group name where a SpinId belongs, and labels that would leave
    # the record unhashable
    with pytest.raises(ValueError):
        TorsorData("spin7", ("a", "b", "c", "d"))
    with pytest.raises(ValueError):
        TorsorData(SpinId.SPIN7, ["a", "b", "c", "d"])
    # `format_symbol` would print a label that is not a name as part of
    # another symbol
    for bad in ("a*b", "{x]", " c", "a+b"):
        with pytest.raises(ValueError) as err:
            TorsorData(SpinId.SPIN7, ("a", "b", "c", bad))
        assert str(err.value) == f"bad parameter label: {bad!r}"
    labels = ("1", "x_1", "b'", "_")
    assert TorsorData(SpinId.SPIN7, labels).labels == labels
    t = TorsorData(SpinId.SPIN8, ("a", "b", "c", "d", "d"))
    assert t.formal_field().names == ("a", "b", "c", "d")


def test_param_counts():
    assert PARAM_COUNT == {SpinId.SPIN7: 4, SpinId.SPIN8: 5,
                           SpinId.SPIN9: 5, SpinId.SPIN10: 4}


BASE = PfisterBase((frozenset("a"), frozenset("b")), frozenset("c"))


def test_torsor_forms_shapes():
    q1, q2 = torsor_forms(TorsorData(SpinId.SPIN7, ("a", "b", "c", "d")))
    assert (q1.h_copies, q2.h_copies) == (0, 0)
    assert [p.scalar for p in q1.parts] == [frozenset()]
    assert [p.scalar for p in q2.parts] == [frozenset("d")]

    forms8 = torsor_forms(TorsorData(SpinId.SPIN8, ("a", "b", "c", "d", "e")))
    assert [[p.scalar for p in fm.parts] for fm in forms8] == [
        [frozenset("d")], [frozenset("e")], [frozenset(("d", "e"))]]
    assert all(fm.h_copies == 0 for fm in forms8)

    r, s = torsor_forms(TorsorData(SpinId.SPIN9, ("a", "b", "c", "d", "e")))
    assert r.h_copies == 1 and s.h_copies == 0
    assert [p.scalar for p in r.parts] == [frozenset("d")]
    assert [p.scalar for p in s.parts] == [frozenset("e"), frozenset(("d", "e"))]

    (r10,) = torsor_forms(TorsorData(SpinId.SPIN10, ("a", "b", "c", "d")))
    assert r10.h_copies == 1
    assert [p.scalar for p in r10.parts] == [frozenset("d")]

    for t in (TorsorData(SpinId.SPIN7, ("a", "b", "c", "d")),
              TorsorData(SpinId.SPIN9, ("a", "b", "c", "d", "e"))):
        for fm in torsor_forms(t):
            assert all(p.base == BASE for p in fm.parts)


def test_recover_and_strip():
    t = TorsorData(SpinId.SPIN10, ("a", "b", "c", "d"))
    (r,) = torsor_forms(t)
    assert pfister_recover(r) == PfisterBase(
        (frozenset("a"), frozenset("b")), frozenset("c"))
    two = torsor_forms(TorsorData(SpinId.SPIN9, ("a", "b", "c", "d", "e")))[1]
    with pytest.raises(ValueError):
        pfister_recover(two)


# ---------------------------------------------------------------------------
# the invariant


GENERIC = {
    SpinId.SPIN7: ("a", "b", "c", "d"),
    SpinId.SPIN8: ("a", "b", "c", "d", "e"),
    SpinId.SPIN9: ("a", "b", "c", "d", "e"),
    SpinId.SPIN10: ("a", "b", "c", "d"),
}


def assert_expansion_identity(rep):
    """The scaled Pfister copies of `rep.forms`, with q0 adjoined for
    spin8/9/10 as `invariant_f` does, recollected here: as an exact
    multiset they must be `rep.expansion`."""
    collected = Counter((p.scalar, p.base)
                        for form in rep.forms for p in form.parts)
    if rep.group is not SpinId.SPIN7:
        one = TorsorData(rep.group, rep.labels).formal_field().one
        collected[(one, pfister_recover(rep.forms[0]))] += 1
    assert collected == Counter(dict(rep.expansion))


@pytest.mark.parametrize("group", list(SpinId))
def test_invariant_generic_labels(group):
    rep = invariant_f(TorsorData(group, GENERIC[group]))
    assert isinstance(rep, InvariantReport)
    assert_expansion_identity(rep)
    assert rep.nonvanishing.verdict is Nonvanishing.CERTIFIED_NONZERO
    assert "citation" in rep.nonvanishing.note
    assert len(rep.symbol.terms) == 1
    (term,) = rep.symbol.terms
    assert term.degree() == len(GENERIC[group])
    assert rep.forms == torsor_forms(TorsorData(group, GENERIC[group]))


def test_invariant_symbol_slots():
    rep = invariant_f(TorsorData(SpinId.SPIN8, ("a", "b", "c", "d", "e")))
    (term,) = rep.symbol.terms
    assert set(term.a_slots) == {mono("a"), mono("b"), mono("d"), mono("e")}
    assert term.b_slot == (mono("c"),)


def test_invariant_trivial_scale_gives_zero_symbol():
    rep = invariant_f(TorsorData(SpinId.SPIN7, ("a", "b", "c", "1")))
    assert rep.symbol == ZERO_SYMBOL
    assert rep.nonvanishing.verdict is Nonvanishing.ZERO
    assert_expansion_identity(rep)     # the identity still holds


def test_invariant_repeated_scales_give_zero_symbol():
    rep = invariant_f(TorsorData(SpinId.SPIN8, ("a", "b", "c", "d", "d")))
    assert rep.symbol == ZERO_SYMBOL
    assert_expansion_identity(rep)


def test_invariant_spin9_with_trivial_e():
    rep = invariant_f(TorsorData(SpinId.SPIN9, ("a", "b", "c", "d", "1")))
    assert rep.symbol == ZERO_SYMBOL
    assert_expansion_identity(rep)


def test_invariant_repeated_pfister_slot():
    # d = a repeats a multiplicative slot, so the symbol dies outright
    rep = invariant_f(TorsorData(SpinId.SPIN7, ("a", "b", "c", "a")))
    assert rep.symbol == ZERO_SYMBOL
    assert rep.nonvanishing.verdict is Nonvanishing.ZERO
    assert_expansion_identity(rep)


def test_invariant_expansion_multiset_spin9():
    rep = invariant_f(TorsorData(SpinId.SPIN9, ("a", "b", "c", "d", "e")))
    scalars = sorted(
        ("".join(sorted(sc)), mult) for (sc, _), mult in rep.summands)
    assert scalars == [("", 1), ("d", 1), ("de", 1), ("e", 1)]


def invariant_by_two_freezes(t):
    """`invariant_f` as it was before it froze one multiset for both
    sides and normalized its symbol once, freezing with the reference
    `_freeze_counter` (imported here: that module imports this one)."""
    from test_reader_oracles import _freeze_counter
    f = t.formal_field()
    forms = torsor_forms(t)
    lab = [label(f, n) for n in t.labels]
    a, b, c = lab[0], lab[1], lab[2]
    scales = lab[3:]
    collected = Counter()
    if t.group is not SpinId.SPIN7:
        collected[(f.one, pfister_recover(forms[0]))] += 1
    collected.update((p.scalar, p.base) for form in forms for p in form.parts)
    expansion = pfister_expand(f, tuple(scales) + (a, b), c, peel=len(scales))
    assert collected == expansion
    sym_ = symbol_normalize(symbol(tuple(scales) + (a, b), c))
    indet = {n for n in t.labels if n != "1" and t.labels.count(n) == 1}
    return InvariantReport(
        group=t.group, labels=t.labels, forms=forms,
        summands=_freeze_counter(collected),
        expansion=_freeze_counter(expansion),
        symbol=sym_, nonvanishing=generic_nonzero_by_renormalizing(sym_, indet))


@pytest.mark.parametrize("group", list(SpinId))
def test_invariant_matches_the_two_freeze_version(group):
    rng = random.Random(group.value)
    for _ in range(100):
        labels = tuple(rng.choice(NAMES + ("1",))
                       for _ in range(PARAM_COUNT[group]))
        t = TorsorData(group, labels)
        assert invariant_f(t) == invariant_by_two_freezes(t), labels
