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

All of this needs X(K) and S listed in full, which takes 2^r work, so
the enumeration lives here: `build_char_data` (capped at `MAX_RANK`),
the sign-flip orbits as lists (`orbit_codes`) and the Weyl action.  It
is the oracle of `spinlat.orbit_structure`, which reads the same orbit
shape at any rank with no 2^r work.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

from ._record import Record
from .abelian import GroupElement, Subgroup
from .spinlat import Parity, _require, _smith_lattice

# The enumeration cap of `build_char_data`, whose codes of X(K) and S
# grow as 2^r.
MAX_RANK = 16


class WeylElt(Record):
    """Signed permutation: x_i -> (+/-) x_{perm[i]}, indices 0-based.

    Bit i of `signs` set means x_i picks up a minus sign *after*
    permuting, i.e. x_i -> -x_{perm[i]}.  On the affine generator the
    action is A -> A - sum over flipped targets x_{perm[i]}, which is
    the unique extension compatible with 2A = sum x_i.
    """

    _fields = ("perm", "signs")

    def __new__(cls, perm: tuple[int, ...], signs: int):
        r = len(perm)
        # True == 1 and 1.0 == 1, so the checks below need ints
        for x in (*perm, signs):
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"perm and signs must be integers: {x!r}")
        if sorted(perm) != list(range(r)):
            raise ValueError("perm is not a permutation of 0..r-1")
        if not 0 <= signs < (1 << r):
            raise ValueError("sign bitmask out of range")
        return super().__new__(cls, perm, signs)

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        # (self * other) acts as other first, then self
        if len(self.perm) != len(other.perm):
            raise ValueError("rank mismatch")
        r = len(self.perm)
        perm = tuple(self.perm[other.perm[i]] for i in range(r))
        signs = 0
        for i in range(r):
            if bool(other.signs >> i & 1) ^ bool(self.signs >> other.perm[i] & 1):
                signs |= 1 << i
        return WeylElt(perm, signs)


def weyl_identity(r: int) -> WeylElt:
    return WeylElt(tuple(range(r)), 0)


class SpinCharData(Record):
    """Everything the orbit computations downstream need, precomputed.

    Characters of L are held as packed codes of X(L) (`FgAbGroup.pack`),
    so translation is `(code + t) & xL.keep_mask`.  `xK` and `faithful`
    give the same sets as `GroupElement`s, decoded on first access, and
    `shift(mask)` decodes one translation."""

    _fields = ("r", "parity", "xT", "xL",
               "x",               # images of x_1..x_r in X(L)
               "A",               # image of A in X(L)
               "acting_masks",    # sign-flip subsets as bitmasks
               "shift_codes",     # mask -> code of sum_{i in mask} x_i
               "xK_codes",        # codes of X(K)
               "faithful_codes")  # codes of S = X(L) minus X(K)

    @cached_property
    def xK(self) -> Subgroup:
        return Subgroup(self.xL, frozenset(map(self.xL.unpack, self.xK_codes)))

    @cached_property
    def faithful(self) -> frozenset:
        return frozenset(map(self.xL.unpack, self.faithful_codes))

    def shift(self, mask: int) -> GroupElement:
        """sum_{i in mask} x_i."""
        return self.xL.unpack(self.shift_codes[mask])


@lru_cache(maxsize=None, typed=True)   # typed: True is not rank 1
def build_char_data(r: int, parity: Parity) -> SpinCharData:
    """Construct X(T), X(L), X(K) and the sign-flip translation data.

    X(K) is read off the subset sums of x_1..x_r, since 2x_i = 0, and S
    is the coset A + X(K).  S is certified to be the complement of X(K)
    without enumerating X(L): A is not in X(K), A + X(K) has 2^r
    elements none of which lie in X(K), and 2^r + 2^r = |X(L)|.
    Only the acting sign flips depend on the parity.  MAX_RANK is the
    enumeration cap: the codes of X(K) and S are held in full, so
    memory grows as 2^r; `orbit_structure` has no such cap.  Results
    are cached; the returned data is shared and must be treated as
    read-only.
    """
    if type(r) is not int or not 1 <= r <= MAX_RANK:
        raise ValueError(f"rank must be between 1 and {MAX_RANK}")
    if not isinstance(parity, Parity):
        raise ValueError("parity must be a Parity")
    xT, xL, x, A = _smith_lattice(r)
    keep = xL.keep_mask
    shift_codes = [0]
    for xi in map(xL.pack, x):
        # bit i of the mask selects x_i
        shift_codes += [(c + xi) & keep for c in shift_codes]
    xK_codes = frozenset(shift_codes)
    _require(len(xK_codes) == 1 << r, "X(K) must have order 2^r")

    a = xL.pack(A)
    _require(a not in xK_codes, "A must not lie in X(K)")
    faithful_codes = frozenset({(a + t) & keep for t in shift_codes})
    _require(len(faithful_codes) == 1 << r
             and faithful_codes.isdisjoint(xK_codes)
             and len(xK_codes) + len(faithful_codes) == xL.order(),
             "A + X(K) must be the complement of X(K) in X(L)")
    if parity is Parity.ODD:
        masks = tuple(range(1 << r))
    else:
        masks = tuple(m for m in range(1 << r) if m.bit_count() % 2 == 0)
    return SpinCharData(r, parity, xT, xL, x, A, masks, tuple(shift_codes),
                        xK_codes, faithful_codes)


def center_restriction(data: SpinCharData, c: GroupElement) -> str:
    """Restriction of a character of L to the central mu_2:
    'trivial' exactly when c lies in X(K)."""
    if c.group is not data.xL:
        raise ValueError("character does not live on X(L)")
    return "trivial" if data.xL.pack(c) in data.xK_codes else "faithful"


def weyl_act(data: SpinCharData, w: WeylElt, c: GroupElement) -> GroupElement:
    """Apply a signed permutation to a character of T or of L.

    The element is lifted to a word in x_1..x_r, A, the word is mapped
    through x_i -> (+/-)x_{perm[i]},  A -> A - sum_{i flipped} x_{perm[i]},
    and the image is reduced again.  The action descends to both
    quotients because it preserves the relation lattice (the tests
    check this on the relation words themselves).
    """
    if len(w.perm) != data.r:
        raise ValueError("Weyl element has the wrong rank")
    group = c.group
    if group is not data.xT and group is not data.xL:
        raise ValueError("character must live on X(T) or X(L)")
    r = data.r
    word = group.lift(c)
    out = [0] * (r + 1)
    for i in range(r):
        s = -1 if w.signs >> i & 1 else 1
        out[w.perm[i]] += s * word[i]
    out[r] += word[r]
    for i in range(r):
        if w.signs >> i & 1:
            out[w.perm[i]] -= word[r]
    return group.element(out)


class FreeTransitiveReport(Record):
    """Freeness and orbit sizes of the sign-flip action on S.  `orbits`
    and `witness` are decoded to `GroupElement`s on first access."""

    _fields = ("r", "parity", "is_free", "orbit_sizes", "data")
    _hidden = ("data",)

    @property
    def is_transitive(self) -> bool:
        return len(self.orbit_sizes) == 1

    @property
    def orbits(self) -> tuple[tuple[GroupElement, ...], ...]:
        return orbits_on_faithful(self.data)

    @cached_property
    def witness(self) -> dict:
        """mask -> A + shift(mask), the orbit chart at A."""
        data = self.data
        a, keep = data.xL.pack(data.A), data.xL.keep_mask
        return {m: data.xL.unpack((a + data.shift_codes[m]) & keep)
                for m in data.acting_masks}


def orbit_codes(data: SpinCharData) -> tuple[tuple[int, ...], ...]:
    """Orbits of the sign-flip subsets on S as packed codes, each
    sorted, ordered by smallest member (code order is element order).

    The translations T = {shift(m)} form a subgroup of X(L) (the shift
    is additive in the mask), so the orbit of s is the single coset
    s + T; the closure check below catches any failure of that.
    """
    keep = data.xL.keep_mask
    translations = [data.shift_codes[m] for m in data.acting_masks]
    remaining = set(data.faithful_codes)
    orbits = []
    while remaining:
        start = min(remaining)
        orbit = {(start + t) & keep for t in translations}
        _require(orbit <= remaining, "translation set failed to be a subgroup")
        orbits.append(tuple(sorted(orbit)))
        remaining -= orbit
    orbits.sort()
    return tuple(orbits)


def orbits_on_faithful(data: SpinCharData):
    """`orbit_codes` decoded: the orbits of the sign-flip subsets on S,
    each sorted, deterministically ordered by smallest member."""
    unpack = data.xL.unpack
    return tuple(tuple(map(unpack, o)) for o in orbit_codes(data))


def free_transitive_check(data: SpinCharData) -> FreeTransitiveReport:
    """Decide freeness of the sign-flip action on S and list its orbits.

    The action is by translations s -> s + t_I, so it is free exactly
    when no nonempty acting subset has zero translation; that is checked
    directly, mask by mask.
    """
    is_free = all(data.shift_codes[m] for m in data.acting_masks if m != 0)
    return FreeTransitiveReport(
        r=data.r, parity=data.parity, is_free=is_free,
        orbit_sizes=tuple(map(len, orbit_codes(data))), data=data)


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
