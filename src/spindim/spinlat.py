"""Character lattices for the split spin groups in every characteristic.

With r the rank, the weight lattice of the torus T is presented on
generators x_1, ..., x_r, A with the single relation 2A = x_1 + ... + x_r
(A is the highest weight of the spin representation).  Pulling back to
the finite 2-group L = ker(spin rep restricted to a maximal torus
normaliser kernel) adds the relations 2x_i = 0, giving

    X(L) = Z/4 x (Z/2)^(r-1),     |X(L)| = 2^(r+1).

X(K) is the subgroup generated by the x_i, of order 2^r; its complement
S (the characters restricting nontrivially to the central mu_2) is a
coset of X(K) and is permuted by the Weyl group.  Sign flips act on S
by translation:  flipping the signs in a subset I sends a character s
to s + sum_{i in I} x_i, since every s in S is A - (partial sum) and
2x_i = 0.  The whole orbit analysis therefore reduces to bookkeeping
with subset-sum translations, which is what this module does.  It runs
on packed integer codes of X(L) (`FgAbGroup.pack`), where translation
is one add and one mask; `GroupElement`s appear only at the public
boundary and are decoded on demand.

Everything is a function of the rank r.  `orbit_structure` reads the
orbit shape at any rank from the Smith form and one elimination over
F_2; `build_char_data` enumerates X(K) and S in full and serves as its
oracle up to MAX_RANK.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache

from ._record import Record
from .abelian import FgAbGroup, GroupElement, Presentation, Subgroup

MAX_RANK = 16
# The one rank cap of `verify-lattice`, `verify-heisenberg` and the
# ed-table, whose gcd step at n has rank n // 2: edcalc.MAX_N = 2 * MAX_R.
MAX_R = 32


class Parity(Enum):
    ODD = "odd"       # Spin(2r+1): all sign flips
    EVEN = "even"     # Spin(2r): only evenly many sign flips


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


def _require(ok: bool, message: str) -> None:
    # an explicit raise, so the check also runs under python -O
    if not ok:
        raise AssertionError(message)


@lru_cache(maxsize=None)
def _smith_lattice(r: int):
    """The Smith-form half of the lattice, built once per rank with no
    2^r work: (xT, xL, x, A)."""
    # generators x_1..x_r, A;  relation rows: 2x_i = 0 (only in X(L)),
    # and x_1 + ... + x_r - 2A = 0 written as (-1,...,-1,2)
    half_spin_rel = tuple([-1] * r + [2])
    xT = FgAbGroup(Presentation(r + 1, (half_spin_rel,)))
    two_torsion = tuple(
        tuple(2 if j == i else 0 for j in range(r + 1)) for i in range(r))
    xL = FgAbGroup(Presentation(r + 1, two_torsion + (half_spin_rel,)))

    x = tuple(xL.generator(i) for i in range(r))
    A = xL.generator(r)
    _require(xL.order() == 1 << (r + 1), "X(L) must have order 2^(r+1)")
    _require(2 * A == sum(x[1:], x[0]), "2A = sum x_i must survive the quotient")
    _require(all((2 * xi).is_identity() for xi in x), "2x_i must vanish in X(L)")
    return xT, xL, x, A


@lru_cache(maxsize=None)
def _lattice(r: int):
    """The enumerated half of `build_char_data`, built once per rank:
    (shift_codes, xK_codes, faithful_codes)."""
    _, xL, x, A = _smith_lattice(r)
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
    return tuple(shift_codes), xK_codes, faithful_codes


@lru_cache(maxsize=None, typed=True)   # typed: True is not rank 1
def build_char_data(r: int, parity: Parity) -> SpinCharData:
    """Construct X(T), X(L), X(K) and the sign-flip translation data.

    X(K) is read off the subset sums of x_1..x_r, since 2x_i = 0, and S
    is the coset A + X(K).  S is certified to be the complement of X(K)
    without enumerating X(L): A is not in X(K), A + X(K) has 2^r
    elements none of which lie in X(K), and 2^r + 2^r = |X(L)|.
    Only the acting sign flips depend on the parity; the lattice itself
    is built once per rank and shared by both parities.
    MAX_RANK is the enumeration cap: the codes of X(K) and S are held
    in full, so memory grows as 2^r; `orbit_structure` has no such
    cap.  Results are cached; the returned data is shared and must be
    treated as read-only.
    """
    if type(r) is not int or not 1 <= r <= MAX_RANK:
        raise ValueError(f"rank must be between 1 and {MAX_RANK}")
    if not isinstance(parity, Parity):
        raise ValueError("parity must be a Parity")
    xT, xL, x, A = _smith_lattice(r)
    shift_codes, xK_codes, faithful_codes = _lattice(r)
    if parity is Parity.ODD:
        masks = tuple(range(1 << r))
    else:
        masks = tuple(m for m in range(1 << r) if m.bit_count() % 2 == 0)
    return SpinCharData(r, parity, xT, xL, x, A, masks, shift_codes,
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


class OrbitStructure(Record):
    """The shape of the sign-flip action on S, without its elements:
    S splits into `orbit_count` orbits of `orbit_size` each."""

    _fields = ("xT", "xL", "xK_order", "is_free", "orbit_size", "orbit_count")

    @property
    def faithful_count(self) -> int:
        return self.xL.order() - self.xK_order

    @property
    def orbit_sizes(self) -> tuple[int, ...]:
        return (self.orbit_size,) * self.orbit_count


def expected_orbit_size(r: int, parity: Parity) -> int:
    """The size the paper gives every sign-flip orbit on S: 2^r for
    ODD, 2^(r-1) for EVEN (only even-weight masks act)."""
    return 1 << (r if parity is Parity.ODD else r - 1)


def _f2_rank(vectors) -> int:
    """Rank over F_2 of integers read as bit vectors."""
    pivots = {}   # leading bit -> reduced vector
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def orbit_structure(r: int, parity: Parity) -> OrbitStructure:
    """Orbit shape of the sign-flip action on S from one elimination
    over F_2, at any rank r >= 1 (the cost is polynomial in r).

    The x_i are 2-torsion (`_smith_lattice` checks it), and on codes of
    2-torsion elements `(a + b) & keep_mask` is `a ^ b`, so the shift
    map from masks is F_2-linear on the packed codes.  Hence |X(K)| is
    2^(rank of x_1..x_r), and the translation group T is spanned by the
    acting generators: every x_i for ODD, the adjacent sums
    x_i + x_{i+1}, which span the even-weight masks, for EVEN.  The
    action is free exactly when those generators are independent, and
    S, a union of X(K)-cosets, splits into cosets of T, each an orbit.
    """
    if type(r) is not int or r < 1:
        raise ValueError("rank must be an integer >= 1")
    if not isinstance(parity, Parity):
        raise ValueError("parity must be a Parity")
    xT, xL, x, _ = _smith_lattice(r)
    x_codes = [xL.pack(xi) for xi in x]
    if parity is Parity.ODD:
        acting = x_codes
    else:
        acting = [a ^ b for a, b in zip(x_codes, x_codes[1:])]
    xK_order = 1 << _f2_rank(x_codes)
    t_rank = _f2_rank(acting)
    return OrbitStructure(
        xT=xT, xL=xL, xK_order=xK_order, is_free=t_rank == len(acting),
        orbit_size=1 << t_rank, orbit_count=(xL.order() - xK_order) >> t_rank)
