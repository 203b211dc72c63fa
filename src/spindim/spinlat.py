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
with subset-sum translations, on packed integer codes of X(L)
(`FgAbGroup.pack`), where translation is one add and one mask.

Everything is a function of the rank r.  `verify-lattice` and
`verify-heisenberg` read the orbit shape at any rank from the Smith form
and one elimination over F_2 (`orbit_structure`).  Its oracle up to
`repdim.MAX_RANK`, the full enumeration of X(K) and S, lives in `repdim`
with the orbit lists and the Weyl action, so a request that needs only
the shape never compiles it.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

# spindim/__init__ registers repdim lazily, so binding it here runs nothing
from . import _json, repdim
from ._record import Record
from .abelian import FgAbGroup, Presentation

# The one rank cap of `verify-lattice`, `verify-heisenberg` and the
# ed-table, whose gcd step at n has rank n // 2: edcalc.MAX_N = 2 * MAX_R.
MAX_R = 32


class Parity(Enum):
    ODD = "odd"       # Spin(2r+1): all sign flips
    EVEN = "even"     # Spin(2r): only evenly many sign flips


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


def verify_lattice(r_max: int) -> tuple[int, str]:
    """`verify-lattice`: (exit code, JSON) of one row per rank r <= r_max
    and parity, checked against the paper's shapes; 1 if a row fails."""
    if not 1 <= r_max <= MAX_R:
        raise ValueError(f"--r-max must be between 1 and {MAX_R}")
    rows = []
    for r in range(1, r_max + 1):
        for parity in (Parity.ODD, Parity.EVEN):
            shape = orbit_structure(r, parity)
            size = expected_orbit_size(r, parity)
            ok = (shape.xL.invariant_factors == (2,) * (r - 1) + (4,)
                  and shape.xT.free_rank == r
                  and shape.xT.invariant_factors == ()
                  and shape.xK_order == 1 << r
                  and shape.faithful_count == 1 << r
                  and shape.is_free
                  # |S| = 2^r splits into orbits of the expected size
                  and shape.orbit_sizes == (size,) * ((1 << r) // size))
            rows.append({
                "r": r, "parity": parity.value,
                "xL_invariant_factors": list(shape.xL.invariant_factors),
                "xT_free_rank": shape.xT.free_rank,
                "xK_order": shape.xK_order,
                "faithful_count": shape.faithful_count,
                "action_free": shape.is_free,
                "orbit_sizes": list(shape.orbit_sizes),
                "ok": ok,
            })
    all_ok = all(row["ok"] for row in rows)
    payload = {"r_max": r_max, "ok": all_ok, "rows": rows}
    return 0 if all_ok else 1, _json.dumps(payload) + "\n"


def verify_heisenberg(r: int, parity: str) -> tuple[int, str]:
    """`verify-heisenberg`: (exit code, JSON) of one rank's orbit shape,
    brute-force confirmed by `repdim` for r <= 6; 1 if a check fails."""
    if not 1 <= r <= MAX_R:
        raise ValueError(f"--r must be between 1 and {MAX_R}")
    parity = Parity(parity)
    # The orbits all have one size, so it is both the least dimension
    # (one orbit with multiplicity one) and the gcd of the dimensions.
    shape = orbit_structure(r, parity)
    size = shape.orbit_size
    expected = expected_orbit_size(r, parity)
    ok = size == expected
    checked_to = exhaustive_ok = None
    if r <= 6:
        # the 2^r brute force, an oracle independent of the shape
        rep = repdim.divisibility_report(
            repdim.build_char_data(r, parity), exhaustive=True)
        checked_to, exhaustive_ok = rep.exhaustive_checked_to, rep.exhaustive_ok
        ok = (ok and exhaustive_ok is True
              and rep.orbit_sizes == shape.orbit_sizes
              and rep.min_dim == rep.gcd_dim == size
              and rep.min_achieving.total_dim == size)
    payload = {
        "r": r, "parity": parity.value,
        "orbit_sizes": list(shape.orbit_sizes),
        "min_faithful_dim": size,
        "gcd_dim": size,
        "expected": expected,
        "achieving_multiset_size": size,
        "exhaustive_checked_to": checked_to,
        "exhaustive_ok": exhaustive_ok,
        "ok": ok,
    }
    return 0 if ok else 1, _json.dumps(payload) + "\n"


# bench/tracer.py spans `build_char_data`, `orbits_on_faithful` and
# `free_transitive_check` on this module and reads the cache of
# `spinlat.build_char_data`, so these three names, and no others, are
# served from `repdim`, where they live.  The next benchmark-only change
# spans them on `repdim` and deletes this.
_SERVED_FROM_REPDIM = ("build_char_data", "orbits_on_faithful",
                       "free_transitive_check")


def __getattr__(name):
    if name in _SERVED_FROM_REPDIM:
        return getattr(repdim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
