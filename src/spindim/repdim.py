"""Dimension arithmetic for center-faithful representations.

A representation of the finite Heisenberg-type subgroup restricts to
X(L) as a multiset of characters; conjugation by the group of sign
flips permutes the multiset, and the center acts faithfully exactly
when the support lies in S.  So the combinatorial shadow of a
center-faithful representation is a nonempty sign-flip-invariant
multiset supported on S, and its dimension is the total multiplicity.

Invariance forces the multiplicity to be constant along every orbit,
hence each dimension is a nonnegative integer combination of orbit
sizes.  The minimum is the smallest orbit size and the gcd of all
achievable dimensions is the gcd of the orbit sizes.  Both facts are
also checkable by brute force: `enumerate_invariant_multisets` walks
the raw constraint graph m(s) = m(s + t) with no appeal to the orbit
decomposition and lists every invariant multiset below a dimension
bound.
"""

from __future__ import annotations

import math

from ._record import Record
from .abelian import GroupElement
from .spinlat import Parity, SpinCharData, orbit_codes


class CharMultiset(Record):
    """Multiset of characters with positive multiplicities, stored as a
    sorted tuple of (character, multiplicity) pairs."""

    _fields = ("counts",)

    @staticmethod
    def from_dict(d) -> "CharMultiset":
        for m in d.values():
            if not isinstance(m, int) or isinstance(m, bool):
                raise ValueError(f"multiplicity must be an integer: {m!r}")
        items = [(c, m) for c, m in d.items() if m]
        if not items:
            raise ValueError("multiset must be nonempty")
        if any(m < 0 for _, m in items):
            raise ValueError("multiplicities must be positive")
        return CharMultiset(tuple(sorted(items, key=lambda cm: cm[0].coords)))

    @property
    def total_dim(self) -> int:
        return sum(m for _, m in self.counts)

    def multiplicity(self, c: GroupElement) -> int:
        for elem, m in self.counts:
            if elem == c:
                return m
        return 0

    def support(self):
        return frozenset(c for c, _ in self.counts)


def is_invariant(data: SpinCharData, ms: CharMultiset) -> bool:
    """True when every sign-flip translation preserves the multiset.

    Characters outside X(L) are rejected outright; support outside S is
    allowed here (invariance is a property of the action alone).  Each
    character is packed once and translated as a code.
    """
    xL = data.xL
    for c, _ in ms.counts:
        if c.group is not xL:
            raise ValueError("multiset contains characters outside X(L)")
    packed = [(xL.pack(c), m) for c, m in ms.counts]
    table = dict(packed)
    keep = xL.keep_mask
    for mask in data.acting_masks:
        t = data.shift_codes[mask]
        for code, m in packed:
            if table.get((code + t) & keep, 0) != m:
                return False
    return True


def is_center_faithful(data: SpinCharData, ms: CharMultiset) -> bool:
    return ms.support() <= data.faithful


def orbit_multiset(data: SpinCharData, orbit) -> CharMultiset:
    """The multiplicity-one multiset on a single orbit."""
    return CharMultiset.from_dict({c: 1 for c in orbit})


def min_faithful_dim(data: SpinCharData) -> int:
    """Least total dimension of a nonempty invariant multiset on S.

    Invariance pins the multiplicity on each orbit, so the dimension is
    a nonnegative combination of orbit sizes and the minimum nonzero
    value is the smallest orbit size (achieved by `orbit_multiset`).
    """
    return min(map(len, orbit_codes(data)))


def merkurjev_index_bound(data: SpinCharData) -> int:
    """gcd of the dimensions of all invariant multisets on S, i.e. the
    gcd of the orbit sizes.  Every achievable dimension is a multiple
    of this, and it is itself achieved up to sums."""
    return math.gcd(*map(len, orbit_codes(data)))


def _constraint_components(data: SpinCharData):
    """Connected components of the constraint graph on S whose edges
    are s -- s + t for each acting translation t.  Any invariant
    multiset is constant on each component, by chaining single
    constraints; no orbit theory is consulted.  The walk runs on packed
    codes, edge by edge; each component is decoded once, at the end."""
    keep = data.xL.keep_mask
    shifts = [data.shift_codes[mask] for mask in data.acting_masks]
    remaining = set(data.faithful_codes)
    comps = []
    while remaining:
        start = min(remaining)
        comp = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for t in shifts:
                    v = (u + t) & keep
                    if v not in comp:
                        comp.add(v)
                        nxt.append(v)
            frontier = nxt
        comps.append(sorted(comp))
        remaining -= comp
    # code order is element order (`FgAbGroup.pack`)
    comps.sort(key=lambda c: c[0])
    unpack = data.xL.unpack
    return [tuple(map(unpack, c)) for c in comps]


def enumerate_invariant_multisets(data: SpinCharData, max_total: int):
    """Every invariant multiset supported on S with 1 <= dim <= max_total.

    Exhaustive by construction: multiplicities are assigned component
    by component after propagating the equality constraints, and each
    component value ranges over everything the dimension budget allows.
    """
    comps = _constraint_components(data)

    def rec(idx, budget, chosen):
        if idx == len(comps):
            if any(chosen):
                counts = {}
                for comp, v in zip(comps, chosen):
                    if v:
                        for c in comp:
                            counts[c] = v
                yield CharMultiset.from_dict(counts)
            return
        size = len(comps[idx])
        for v in range(budget // size + 1):
            yield from rec(idx + 1, budget - v * size, chosen + [v])

    yield from rec(0, max_total, [])


class DivisibilityReport(Record):
    _fields = ("r", "parity", "orbit_sizes", "min_dim", "gcd_dim",
               "min_achieving", "exhaustive_checked_to", "exhaustive_ok")
    _defaults = {"exhaustive_checked_to": None, "exhaustive_ok": None}


def divisibility_report(data: SpinCharData, exhaustive: bool = False
                        ) -> DivisibilityReport:
    """Summarize orbit sizes, minimal faithful dimension and the gcd
    bound; optionally confirm both against the brute-force enumeration
    (everything below min_dim is absent, everything up to twice the
    largest orbit is divisible by the gcd)."""
    orbits = orbit_codes(data)
    sizes = tuple(map(len, orbits))
    mind = min(sizes)
    gcdd = math.gcd(*sizes)
    smallest = map(data.xL.unpack, min(orbits, key=len))
    checked_to = ok = None
    if exhaustive:
        checked_to = 2 * max(sizes)
        ok = True
        seen_dims = set()
        for ms in enumerate_invariant_multisets(data, checked_to):
            if not (is_invariant(data, ms) and is_center_faithful(data, ms)):
                ok = False
                break
            seen_dims.add(ms.total_dim)
        if ok:
            ok = (min(seen_dims) == mind
                  and all(d % gcdd == 0 for d in seen_dims)
                  and math.gcd(*seen_dims) == gcdd)
    return DivisibilityReport(
        r=data.r, parity=data.parity, orbit_sizes=sizes, min_dim=mind,
        gcd_dim=gcdd, min_achieving=orbit_multiset(data, smallest),
        exhaustive_checked_to=checked_to, exhaustive_ok=ok)
