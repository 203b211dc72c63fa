"""Minimal faithful dimension and the divisibility bound.

The main oracle is a completely naive one: at rank <= 2 every
multiplicity vector on S below a budget is enumerated and filtered by
the translation condition written out directly, then compared against
the library's constraint-propagation enumeration.
"""

import itertools
import math

import pytest

from spindim import repdim
from spindim.repdim import (CharMultiset, build_char_data, divisibility_report,
                            enumerate_invariant_multisets, is_center_faithful,
                            is_invariant, merkurjev_index_bound,
                            min_faithful_dim, orbit_multiset,
                            orbits_on_faithful, _constraint_components)
from spindim.spinlat import Parity

PARITIES = (Parity.ODD, Parity.EVEN)


def naive_invariant(data, counts):
    """Translation stability, spelled out: every acting mask must
    permute the multiplicity function."""
    def mult(c):
        return counts.get(c, 0)
    return all(mult(s + data.shift(m)) == mult(s)
               for m in data.acting_masks for s in data.faithful)


def element_components(data):
    """The constraint-graph walk on `GroupElement`s, edge by edge: the
    reference for the packed-code walk in `_constraint_components`."""
    remaining = set(data.faithful)
    comps = []
    while remaining:
        start = min(remaining)
        comp = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for mask in data.acting_masks:
                    v = u + data.shift(mask)
                    if v not in comp:
                        comp.add(v)
                        nxt.append(v)
            frontier = nxt
        comps.append(tuple(sorted(comp)))
        remaining -= comp
    comps.sort(key=lambda c: c[0])
    return comps


def naive_multisets(data, max_total):
    support = sorted(data.faithful)
    found = set()
    for vec in itertools.product(range(max_total + 1), repeat=len(support)):
        total = sum(vec)
        if not 1 <= total <= max_total:
            continue
        counts = {c: v for c, v in zip(support, vec) if v}
        if naive_invariant(data, counts):
            found.add(CharMultiset.from_dict(counts))
    return found


def test_multiset_validation():
    data = build_char_data(1, Parity.ODD)
    with pytest.raises(ValueError):
        CharMultiset.from_dict({})
    with pytest.raises(ValueError):
        CharMultiset.from_dict({data.A: -1})
    for bad in (0.5, 1.0, True, "1", None):
        with pytest.raises(ValueError):
            CharMultiset.from_dict({data.A: bad})
    ms = CharMultiset.from_dict({data.A: 2, data.x[0]: 0})
    assert ms.total_dim == 2
    assert ms.support() == {data.A}
    assert ms.multiplicity(data.A) == 2
    assert ms.multiplicity(data.x[0]) == 0


def test_multiset_order_is_canonical():
    data = build_char_data(2, Parity.ODD)
    a = CharMultiset.from_dict({data.A: 1, data.A + data.x[0]: 3})
    b = CharMultiset.from_dict({data.A + data.x[0]: 3, data.A: 1})
    assert a == b


def test_is_invariant_rejects_foreign_characters():
    data = build_char_data(2, Parity.ODD)
    ms = CharMultiset.from_dict({data.xT.element([1, 0, 0]): 1})
    with pytest.raises(ValueError):
        is_invariant(data, ms)


def test_single_character_is_not_invariant_odd():
    for r in (1, 2, 3):
        data = build_char_data(r, Parity.ODD)
        ms = CharMultiset.from_dict({data.A: 1})
        assert not is_invariant(data, ms)


def test_kernel_multiset_is_invariant_but_not_faithful():
    data = build_char_data(2, Parity.ODD)
    ms = CharMultiset.from_dict({k: 1 for k in data.xK.members})
    assert is_invariant(data, ms)
    assert not is_center_faithful(data, ms)


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("r", (2, 3, 4))
def test_bumped_multiplicity_is_not_invariant(r, parity):
    # orbits have at least two members here, so raising one
    # multiplicity breaks the constancy along its orbit
    data = build_char_data(r, parity)
    for orbit in orbits_on_faithful(data):
        counts = {c: 1 for c in orbit}
        assert is_invariant(data, CharMultiset.from_dict(counts))
        counts[orbit[-1]] = 2
        assert not is_invariant(data, CharMultiset.from_dict(counts))


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("r", (1, 2, 3, 4))
def test_orbit_multisets_are_invariant_and_faithful(r, parity):
    data = build_char_data(r, parity)
    for orbit in orbits_on_faithful(data):
        ms = orbit_multiset(data, orbit)
        assert is_invariant(data, ms)
        assert is_center_faithful(data, ms)
        assert ms.total_dim == len(orbit)


@pytest.mark.parametrize("r", range(1, 7))
def test_min_dim_and_gcd_closed_forms(r):
    odd = build_char_data(r, Parity.ODD)
    assert min_faithful_dim(odd) == 2 ** r
    assert merkurjev_index_bound(odd) == 2 ** r
    even = build_char_data(r, Parity.EVEN)
    assert min_faithful_dim(even) == 2 ** (r - 1)
    assert merkurjev_index_bound(even) == 2 ** (r - 1)


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("r", (1, 2, 3, 4, 5))
def test_components_agree_with_orbits(r, parity):
    data = build_char_data(r, parity)
    comps = _constraint_components(data)
    assert comps == element_components(data)
    assert tuple(comps) == orbits_on_faithful(data)


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("r", (1, 2))
def test_enumeration_matches_naive_filter(r, parity):
    data = build_char_data(r, parity)
    budget = 2 * min_faithful_dim(data) + 1
    naive = naive_multisets(data, budget)
    library = set(enumerate_invariant_multisets(data, budget))
    assert library == naive
    dims = sorted({ms.total_dim for ms in naive})
    assert dims[0] == min_faithful_dim(data)
    assert math.gcd(*dims) == merkurjev_index_bound(data)


@pytest.mark.parametrize("parity", PARITIES)
def test_enumeration_respects_budget(parity):
    data = build_char_data(3, parity)
    for ms in enumerate_invariant_multisets(data, 20):
        assert 1 <= ms.total_dim <= 20
        assert is_invariant(data, ms)
        assert is_center_faithful(data, ms)


def test_enumeration_is_empty_below_min_dim():
    data = build_char_data(2, Parity.ODD)
    assert list(enumerate_invariant_multisets(data, 3)) == []


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("r", (1, 2, 3, 4))
def test_divisibility_report_exhaustive(r, parity):
    data = build_char_data(r, parity)
    rep = divisibility_report(data, exhaustive=True)
    assert rep.exhaustive_ok is True
    assert rep.exhaustive_checked_to == 2 * max(rep.orbit_sizes)
    assert rep.min_dim == min(rep.orbit_sizes)
    assert rep.gcd_dim == math.gcd(*rep.orbit_sizes)
    assert rep.min_achieving.total_dim == rep.min_dim
    assert is_invariant(data, rep.min_achieving)
    assert is_center_faithful(data, rep.min_achieving)


@pytest.mark.parametrize("check", ("is_invariant", "is_center_faithful"))
def test_exhaustive_report_fails_on_a_multiset_that_fails_a_check(
        check, monkeypatch):
    # the enumeration is trusted only as far as each multiset it yields
    # passes both checks again
    monkeypatch.setattr(repdim, check, lambda data, ms: False)
    rep = divisibility_report(build_char_data(3, Parity.ODD), exhaustive=True)
    assert rep.exhaustive_ok is False
    assert rep.exhaustive_checked_to == 2 * max(rep.orbit_sizes)


def test_report_without_exhaustive_leaves_fields_unset():
    data = build_char_data(5, Parity.EVEN)
    rep = divisibility_report(data)
    assert rep.exhaustive_checked_to is None and rep.exhaustive_ok is None
    assert rep.orbit_sizes == (16, 16)
