"""Quadratic forms over fields of characteristic 2.

Forms are kept in the shape

    [a_1,b_1] + ... + [a_s,b_s] + <c_1> + ... + <c_t>

where [a,b] is the binary form ax^2 + xy + by^2 and <c> is the
diagonal summand cz^2.  The polar bilinear form of a block is the
hyperbolic pairing, so the diagonal coordinates span the radical of
the polar form; a form is nonsingular when the radical has dimension
at most 1 and the form does not vanish on it.

The coefficient field is always F_{2^k} (`ConcreteField2`), with
elements encoded as polynomial bit patterns; `QForm` refuses any
other field with TypeError, so no form operation needs to ask which
field it holds.  The formal Pfister forms of the symbol calculus are
not `QForm`s: `invariants` keeps them, over its own field of formal
monomials.

Classification facts used and checked against brute force in the test
suite, for F_{2^k}:

  * x^2 + x = t is solvable iff the absolute trace of t vanishes, so
    [a,b] with a,b != 0 is isotropic iff trace(ab) = 0;
  * every nonsingular form of dimension >= 3 is isotropic, hence the
    anisotropic kernel has dimension <= 2 and is determined by the
    dimension parity and the Arf invariant;
  * every element is a square (Frobenius is bijective), so <c> ~ <1>.

So `witt_decompose` is the one classification: isotropy is a positive
Witt index (or a singular form), and equivalence of nonsingular forms
is equality of Witt decompositions (Witt cancellation).  The modulus
of F_{2^k} is the smallest irreducible polynomial of degree k, found
by trial division.

`ConcreteField2.mul` is the one multiply entry point, so a wrapper on
the class counts every product.  Up to k = 8 it looks products up in
log/exp tables, which, like the trace mask, are built through `mul` on
first use of each k.  Otherwise its one kernel forms the carry-less
product a 4-bit window of y at a time and reduces the bits from k up
through two tables per k, of 256 and 2^(k-9) entries, built from
`_poly_mod` when the first field of that degree is made.  `inv` is the
extended Euclidean algorithm over F_2[t] and makes no multiply.

This module serves `qform`: it reads the syntax `format_qform` prints
(`parse_form`), and the other inputs: `parse_matrix`, `parse_field_name`.
The grammar, which does not nest, is in the `cli` docstring.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain, compress
from operator import xor

from . import _json
from ._record import Record

MAX_FIELD_BITS = 16


# ---------------------------------------------------------------------------
# fields


def _poly_mod(x: int, mod: int) -> int:
    dm = mod.bit_length() - 1
    while x.bit_length() - 1 >= dm:
        x ^= mod << (x.bit_length() - 1 - dm)
    return x


@lru_cache(maxsize=None)
def min_poly_for(k: int) -> int:
    """The canonical modulus for F_{2^k}: the irreducible degree-k
    polynomial with the smallest integer encoding (constant term 1).
    A candidate is irreducible when no polynomial of degree 1..k/2
    divides it.  Only odd divisors are tried: one with constant term 0
    is a multiple of x, which divides no candidate.  At k <=
    MAX_FIELD_BITS that is at most 255 divisors."""
    for cand in range((1 << k) + 1, 1 << (k + 1), 2):
        if all(_poly_mod(cand, d) for d in range(3, 1 << (k // 2 + 1), 2)):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


# fields up to this degree multiply through log/exp tables
MAX_TABLE_BITS = 8


# per-degree tables and trace masks, keyed by the int k so that a
# lookup hashes in C; each is built once, through `mul`, on first use
_TABLES: dict = {}   # k -> (log, exp)
_MASKS: dict = {}    # k -> trace mask
_REDUCE: dict = {}   # k -> (low, high) reduction tables, see `mul`


def _reduction(mod: int, shift: int, bits: int) -> list:
    """t[j] = j t^shift mod `mod` for j < 2^bits (just t[0] = 0 when
    bits <= 0), as bit patterns; t is linear in j, so each power of two
    is reduced once and the rest are sums."""
    table = [0]
    for i in range(bits):
        r = _poly_mod(1 << shift + i, mod)
        table += [x ^ r for x in table]
    return table


def _log_exp(field) -> tuple:
    """(log, exp) tables of `field` for a generator g of its unit group:
    exp[i] = g^i for i < 2 (2^k - 1), so exp[log[x] + log[y]] = x y
    for nonzero x, y without a reduction; log[0] is unused.  The
    modulus need not be primitive (t is no generator of F_256 mod
    0x11B), so g is the smallest element whose powers reach every
    unit.  No power list outgrows the unit group, so a wrong multiply
    cannot hang the search.  Uncached: `ConcreteField2` keeps the
    result in `_TABLES`."""
    units = field.order - 1
    for g in range(1, field.order):
        exp, x = [1], g
        while x != 1 and len(exp) < units:
            exp.append(x)
            x = field.mul(x, g)
        if x == 1 and len(exp) == units:
            break
    else:   # explicit, so it also runs under python -O
        raise AssertionError("no generator found")
    log = [0] * field.order
    for i, x in enumerate(exp):
        log[x] = i
    return tuple(log), tuple(exp + exp)


class ConcreteField2:
    """F_{2^k} with elements 0 .. 2^k - 1 as polynomial bit patterns."""

    def __init__(self, k: int):
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"field degree must be an int, not {k!r}")
        if not 1 <= k <= MAX_FIELD_BITS:
            raise ValueError(f"field degree must be between 1 and {MAX_FIELD_BITS}")
        self.k = k
        self.order = 1 << k
        self.min_poly = min_poly_for(k)
        self.zero = 0
        self.one = 1
        self._low, self._high = _REDUCE.get(k) or _REDUCE.setdefault(k, (
            _reduction(self.min_poly, k, 8),
            _reduction(self.min_poly, k + 8, k - 9)))
        # built through mul, which runs its kernel while _exp is None
        self._log = self._exp = None
        if k <= MAX_TABLE_BITS:
            self._log, self._exp = (_TABLES.get(k)
                                    or _TABLES.setdefault(k, _log_exp(self)))

    def __eq__(self, other):
        return isinstance(other, ConcreteField2) and other.k == self.k

    def __hash__(self):
        return hash(("concrete", self.k))

    def __repr__(self):
        return f"ConcreteField2({self.k})"

    def check(self, x) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.order:
            raise ValueError(f"not an element of F_{{2^{self.k}}}: {x!r}")
        return x

    def add(self, x: int, y: int) -> int:
        """x + y.  Unchecked: both operands must already be elements
        (see `check`); callers check values where they enter."""
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        """x * y.  Unchecked: both operands must already be elements
        (see `check`); callers check values where they enter.

        The one multiply entry point, so a wrapper on the class sees
        every product.  Once the field has log/exp tables a product is
        one lookup; otherwise this frame forms the carry-less product p
        from x's 16 multiples by a 4-bit window of y (y < 2^16), then
        reduces p's bits k..k+7 and those from k+8 up (at most k - 9 of
        them) through the two `_REDUCE` tables."""
        if self._exp is not None:
            if x and y:
                log = self._log
                return self._exp[log[x] + log[y]]
            return 0
        x2, x4, x8 = x << 1, x << 2, x << 3
        w = (0, x, x2, x2 ^ x, x4, x4 ^ x, x4 ^ x2, x4 ^ x2 ^ x, x8, x8 ^ x,
             x8 ^ x2, x8 ^ x2 ^ x, x8 ^ x4, x8 ^ x4 ^ x, x8 ^ x4 ^ x2,
             x8 ^ x4 ^ x2 ^ x)
        p = (w[y & 15] ^ w[y >> 4 & 15] << 4 ^ w[y >> 8 & 15] << 8
             ^ w[y >> 12] << 12)
        k = self.k
        return (p & self.order - 1 ^ self._low[p >> k & 255]
                ^ self._high[p >> k + 8])

    def pow(self, x: int, e: int) -> int:
        self.check(x)
        if e < 0:
            x = self.inv(x)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            e >>= 1
        return r

    def inv(self, x: int) -> int:
        """1 / x by the extended Euclidean algorithm over F_2[t], with
        no multiply: u x = a and v x = b (mod the modulus) hold
        throughout, and each step cancels the top bit of the
        higher-degree remainder until a = 1."""
        if self.check(x) == 0:
            raise ZeroDivisionError("0 has no inverse")
        a, b, u, v = x, self.min_poly, 1, 0
        while a != 1:
            j = a.bit_length() - b.bit_length()
            if j < 0:
                a, b, u, v = b, a, v, u
                j = -j
            a ^= b << j
            u ^= v << j
        return u

    def sqrt(self, x: int) -> int:
        # Frobenius is bijective; its inverse is squaring k-1 times
        return self.pow(x, 1 << (self.k - 1))

    def trace(self, x: int) -> int:
        """Absolute trace, as the parity of x's overlap with the trace
        mask (the trace is F_2-linear)."""
        mask = _MASKS.get(self.k) or _MASKS.setdefault(self.k, _trace_mask(self))
        return (self.check(x) & mask).bit_count() & 1

    def trace_one_element(self) -> int:
        """Smallest element of absolute trace 1: the lowest set bit of
        the trace mask, since every smaller integer misses the mask."""
        mask = _MASKS.get(self.k) or _MASKS.setdefault(self.k, _trace_mask(self))
        return mask & -mask

    def elements(self):
        return range(self.order)

    def is_zero(self, x) -> bool:
        return self.check(x) == 0


def _trace_mask(field) -> int:
    """Bit i set iff Tr(x^i) = 1, for the generator x of F_{2^k}, with
    each trace taken as the Frobenius sum t + t^2 + ... + t^(2^(k-1)).
    Tr is F_2-linear, so Tr(y) is the parity of y & mask.  Uncached:
    `ConcreteField2` keeps the result in `_MASKS`."""
    mask = 0
    for i in range(field.k):
        t = acc = 1 << i
        for _ in range(field.k - 1):
            t = field.mul(t, t)
            acc ^= t
        # explicit raises, so the checks also run under python -O
        if acc not in (0, 1):
            raise AssertionError("the trace must lie in F_2")
        mask |= acc << i
    if not mask:
        raise AssertionError("trace cannot be identically zero")
    return mask


# ---------------------------------------------------------------------------
# forms


class BinaryBlock(Record):
    """The binary quadratic form a x^2 + x y + b y^2."""

    _fields = ("a", "b")


class QForm(Record):
    """Orthogonal sum of binary blocks and diagonal summands over F_{2^k}.

    The one field gate: every form operation reads `q.field`, so none
    of them checks the field again."""

    _fields = ("field", "blocks", "diag")

    def __new__(cls, field, blocks: tuple = (), diag: tuple = ()):
        if not isinstance(field, ConcreteField2):
            raise TypeError(f"quadratic forms need a ConcreteField2, "
                            f"not {field!r}")
        # an exact int in range is an element; `check` judges the rest
        order = field.order
        for bl in blocks:
            if not isinstance(bl, BinaryBlock):
                raise ValueError("blocks must be BinaryBlock instances")
            for x in bl:
                if not (x.__class__ is int and 0 <= x < order):
                    field.check(x)
        for x in diag:
            if not (x.__class__ is int and 0 <= x < order):
                field.check(x)
        return tuple.__new__(cls, (field, blocks, diag))  # all fields given

    @property
    def dim(self) -> int:
        return 2 * len(self.blocks) + len(self.diag)


def block(field, a, b) -> QForm:
    return QForm(field, (tuple.__new__(BinaryBlock, (a, b)),))


def diag_form(field, *entries) -> QForm:
    return QForm(field, diag=tuple(entries))


def hyperbolic(field, copies: int = 1) -> QForm:
    return QForm(field, blocks=(BinaryBlock(0, 0),) * copies)


def evaluate(q: QForm, vec) -> object:
    """Value of q at a coordinate vector."""
    f = q.field
    if len(vec) != q.dim:
        raise ValueError(f"vector length {len(vec)} != dim {q.dim}")
    vec = [f.check(x) for x in vec]
    acc = 0
    i = 0
    for bl in q.blocks:
        x, y = vec[i], vec[i + 1]
        acc ^= f.mul(bl.a, f.mul(x, x)) ^ f.mul(x, y) ^ f.mul(bl.b, f.mul(y, y))
        i += 2
    for c in q.diag:
        z = vec[i]
        acc ^= f.mul(c, f.mul(z, z))
        i += 1
    return acc


def orth_sum(q1: QForm, q2: QForm) -> QForm:
    if q1.field != q2.field:
        raise ValueError("forms live over different fields")
    return QForm(q1.field, q1.blocks + q2.blocks, q1.diag + q2.diag)


def _fold_scale(a, q: QForm) -> QForm:
    # substitution (x, y) -> (x/a, y) in each block, z -> z in <c>:
    # a[c,d] = [ac, d/a], a<c> = <ac>.  Callers check a != 0, each with
    # its own message.
    f = q.field
    a_inv = f.inv(a)
    blocks = tuple(BinaryBlock(f.mul(a, bl.a), f.mul(a_inv, bl.b))
                   for bl in q.blocks)
    diag = tuple(f.mul(a, c) for c in q.diag)
    return QForm(f, blocks, diag)


def scale(a, q: QForm) -> QForm:
    """The form a*q, the scalar folded into the coefficients."""
    if q.field.is_zero(a):
        raise ValueError("cannot scale by zero")
    return _fold_scale(a, q)


def tensor_bilinear(entries, q: QForm) -> QForm:
    """<a_1, ..., a_n> (x) q  =  a_1 q + ... + a_n q, scalars folded."""
    entries = list(entries)
    if not entries:
        raise ValueError("bilinear factor must have at least one entry")
    f = q.field
    for a in entries:
        if f.is_zero(a):
            raise ValueError("bilinear diagonal entries must be nonzero")
    out = _fold_scale(entries[0], q)
    for a in entries[1:]:
        out = orth_sum(out, _fold_scale(a, q))
    return out


def pfister_build(field, a_slots, b) -> QForm:
    """The quadratic Pfister form <<a_1, ..., a_m-1, b]]
    = <1,a_1> (x) ... (x) <1,a_m-1> (x) [1,b], of dimension 2^m."""
    a_slots = list(a_slots)
    for a in a_slots:
        if field.is_zero(a):
            raise ValueError("Pfister slots must be nonzero")
    field.check(b)
    q = block(field, field.one, b)      # the field gate
    # fold each slot as orth_sum(q, _fold_scale(a, q)) would, into one
    # block list, so that only the result is checked as a form
    mul, new, blocks = field.mul, tuple.__new__, list(q.blocks)
    for a in reversed(a_slots):
        a_inv = field.inv(a)
        blocks += [new(BinaryBlock, (mul(a, x), mul(a_inv, y))) for x, y in blocks]
    return QForm(field, tuple(blocks))


# ---------------------------------------------------------------------------
# classification


NONDEGENERATE = "nondegenerate"
NONSINGULAR_RADICAL_1 = "nonsingular_radical_dim_1"
SINGULAR = "singular"


class FormClass(Record):
    _fields = ("kind", "radical_dim",
               # a nonzero radical vector on which q vanishes, when one exists
               "vanishing_radical_vector")
    _defaults = {"vanishing_radical_vector": None}


def classify_form(q: QForm) -> FormClass:
    """Radical of the polar form and singularity of q.

    The diagonal coordinates span the polar radical.  On the radical q
    is additive and q(cz) = c^2 q(z), so q vanishes somewhere nonzero
    on it iff an entry is zero or there are two entries (solve
    c_1^2 d_1 = c_2^2 d_2 using square roots).
    """
    f = q.field
    t = len(q.diag)
    offset = 2 * len(q.blocks)
    # every field is given, so the record is built as a bare tuple
    if t == 0:
        return tuple.__new__(FormClass, (NONDEGENERATE, 0, None))
    for j, c in enumerate(q.diag):
        if f.is_zero(c):
            vec = [0] * q.dim
            vec[offset + j] = 1
            return tuple.__new__(FormClass, (SINGULAR, t, tuple(vec)))
    if t == 1:
        return tuple.__new__(FormClass, (NONSINGULAR_RADICAL_1, 1, None))
    vec = [0] * q.dim
    vec[offset] = f.sqrt(q.diag[1])
    vec[offset + 1] = f.sqrt(q.diag[0])
    if evaluate(q, vec) != 0:   # explicit, so it also runs under python -O
        raise AssertionError("radical vector does not vanish")
    return tuple.__new__(FormClass, (SINGULAR, t, tuple(vec)))


def is_nonsingular(q: QForm) -> bool:
    return classify_form(q).kind in (NONDEGENERATE, NONSINGULAR_RADICAL_1)


def arf(q: QForm) -> int:
    """Arf invariant of a nonsingular even-dimensional form, as the
    trace bit of sum a_i b_i (the class in k modulo p(c) = c^2 + c;
    for finite fields that quotient is F_2 via the absolute trace)."""
    f = q.field
    if q.diag:
        raise ValueError("Arf invariant is defined for even nonsingular forms")
    acc, mul = 0, f.mul
    for a, b in q.blocks:
        acc ^= mul(a, b)
    return f.trace(acc)


def is_isotropic(q: QForm) -> bool:
    """Whether q has a nonzero zero: a singular form vanishes on a
    radical vector, a nonsingular one has a hyperbolic plane."""
    return classify_form(q).kind == SINGULAR or witt_decompose(q).index > 0


class WittDecomposition(Record):
    _fields = ("index",
               "kernel")          # anisotropic, canonical representative


def witt_decompose(q: QForm) -> WittDecomposition:
    """q ~ index * H + kernel with the kernel anisotropic.

    Nonsingular forms only.  Over F_{2^k} the anisotropic kernel has
    dimension <= 2, so it is pinned by invariants: for even dimension
    the kernel is empty or the unique anisotropic plane [1, b0]
    according to the Arf bit, and for odd dimension it is <1> (every
    <c> is equivalent to <1> since c is a square).  The index follows
    by dimension count.  The tests re-derive both outputs with an
    exhaustive splitting search on small inputs.
    """
    f, new = q.field, tuple.__new__     # a bare tuple of the two fields
    cls = classify_form(q)
    if cls.kind == SINGULAR:
        raise ValueError("Witt decomposition needs a nonsingular form")
    s = len(q.blocks)
    if cls.kind == NONSINGULAR_RADICAL_1:
        return new(WittDecomposition, (s, diag_form(f, f.one)))
    if arf(q) == 0:
        return new(WittDecomposition, (s, QForm(f)))
    return new(WittDecomposition, (s - 1, block(f, f.one, f.trace_one_element())))


def equivalent_ff(q1: QForm, q2: QForm) -> bool:
    """Equivalence of nonsingular forms over the same finite field: by
    Witt cancellation, equal Witt index and equal anisotropic kernel.
    Singular inputs are not supported."""
    if q1.field != q2.field:
        raise ValueError("forms live over different fields")
    # witt_decompose classifies each form once, and a singular form is
    # the one ValueError it raises
    try:
        return witt_decompose(q1) == witt_decompose(q2)
    except ValueError:
        raise ValueError("equivalence of singular forms is not supported") from None


# ---------------------------------------------------------------------------
# reduction of a raw coefficient matrix to block shape


def _polar_gram(M):
    """S = M + M^T, the Gram matrix of the polar form: b(u, v) = u^T S v.
    Symmetric with zero diagonal, and unchanged by folding M's lower
    triangle up."""
    return [list(map(xor, row, col)) for row, col in zip(M, zip(*M))]


def _check_certificate(M, q: QForm, basis, S=None) -> None:
    """Raise unless q is M written in `basis`: each q(b_j) is its emitted
    coefficient, and b(b_i, b_j) is 1 for a block pair and 0 for any
    other i < j.  Sums run over supports: q(b) over the pairs t <= u of
    b's (M[t][t], then S[t][u]), b S over S's nonzero entries, and
    b(b_i, b_j) = b_i (b_j S) over b_i's.  O(n^3) multiplies; S is
    built from M when not given."""
    mul = q.field.mul
    coeffs = [*chain(*q.blocks), *q.diag]
    paired = 2 * len(q.blocks)
    S = _polar_gram(M) if S is None else S
    cols = range(len(S))
    failed = AssertionError("block reduction failed its certificate")
    if len(basis) != len(coeffs):
        raise failed
    supports = []
    for j, b in enumerate(basis):
        sup = list(compress(cols, b))
        supports.append(sup)
        value, bs = 0, [0] * len(S)
        for p, t in enumerate(sup):
            row, s = S[t], M[t][t] and mul(M[t][t], b[t])
            for u in sup[p + 1:]:
                if row[u]:
                    s ^= mul(row[u], b[u])
            if s:
                value ^= mul(b[t], s)
            for u in compress(cols, row):
                bs[u] ^= mul(b[t], row[u])
        if value != coeffs[j]:
            raise failed
        for i in range(j):
            acc = 0
            for t in supports[i]:
                if bs[t]:
                    acc ^= mul(basis[i][t], bs[t])
            if acc != (i == j - 1 and j < paired and j % 2):
                raise failed


def block_normalize_with_basis(field, coeffs):
    """Reduce the quadratic form sum_{i<=j} M[i][j] x_i x_j to block
    shape; also return the new basis, rows in old coordinates.

    Symplectic reduction of the polar form: repeatedly pick a pair of
    basis vectors with nonzero pairing, normalize it to 1, and make
    the rest orthogonal to the pair; what remains spans the radical
    and contributes diagonal summands.

    The reduction tracks the polar Gram matrix B[m][m'] = b(b_m, b_m')
    and the values Q[m] = q(b_m) of the current basis.  For the pair
    (i, j), scaled so that B[i][j] = 1, each other vector moves by
    b_m += a_m b_i + d_m b_j with a_m = b(b_m, b_j), d_m = b(b_m, b_i),
    so that, in characteristic 2,

        Q[m]     += a_m^2 Q[i] + d_m^2 Q[j] + a_m d_m
        B[m][m'] += a_m d_m' + d_m a_m'

    and a step costs O(n^2) multiplies, the whole reduction O(n^3).
    No product with a zero operand is taken.

    The result is certified at every size.  In characteristic 2,
    q(sum x_i b_i) = sum x_i^2 q(b_i) + sum_{i<j} x_i x_j b(b_i, b_j),
    so the values q(b_i), which must be the emitted coefficients, and
    the pairings b(b_i, b_j), which must be 1 inside a block pair and 0
    otherwise, fix the form in the new basis.  Both are recomputed from
    M and S = M + M^T, not from B and Q.  A mismatch raises
    AssertionError.
    """
    if not isinstance(field, ConcreteField2):
        raise TypeError("matrix reduction needs a concrete field")
    n = len(coeffs)
    M = list(map(list, coeffs))
    # an exact int in range is an element; `check` judges the rest
    for row in M:
        for x in row:
            if not (x.__class__ is int and 0 <= x < field.order):
                field.check(x)
    if set(map(len, M)) - {n}:
        raise ValueError("coefficient matrix must be square")

    mul = field.mul
    cols = range(n)
    basis, Q = [], []
    for i in cols:
        basis.append([0] * n)
        basis[i][i] = 1
        Q.append(M[i][i])
    # S folds the lower triangle up: x_i x_j and x_j x_i are one monomial
    S = _polar_gram(M)
    B = list(map(list, S))
    remaining = list(cols)
    blocks = []
    new_basis = []
    while True:
        pair = next(((i, j) for ii, i in enumerate(remaining)
                     for j in remaining[ii + 1:] if B[i][j]), None)
        if pair is None:
            break
        i, j = pair
        remaining.remove(i)
        remaining.remove(j)
        # scale b_j so that b(b_i, b_j) = 1; row and column j of B are
        # only read once more, through the a_m
        c = field.inv(B[i][j])
        bi, bj = basis[i], basis[j]
        si, sj = list(compress(cols, bi)), list(compress(cols, bj))
        for t in sj:
            bj[t] = mul(c, bj[t])
        qi, qj = Q[i], Q[j] and mul(mul(c, c), Q[j])
        # each remaining m with the components a_m, d_m of b_m
        ad = [(m, B[j][m] and mul(c, B[j][m]), B[i][m]) for m in remaining]
        for p, (m, am, dm) in enumerate(ad):
            bm, row = basis[m], B[m]
            if am:
                for t in si:
                    bm[t] ^= mul(am, bi[t])
            if dm:
                for t in sj:
                    bm[t] ^= mul(dm, bj[t])
            Q[m] ^= ((am and qi and mul(mul(am, am), qi))
                     ^ (dm and qj and mul(mul(dm, dm), qj))
                     ^ (am and dm and mul(am, dm)))
            for m2, a2, d2 in ad[p + 1:]:
                s = (am and d2 and mul(am, d2)) ^ (dm and a2 and mul(dm, a2))
                if s:
                    row[m2] ^= s
                    B[m2][m] ^= s
        blocks.append(BinaryBlock(qi, qj))
        new_basis.extend([bi, bj])
    diag = tuple(map(Q.__getitem__, remaining))
    new_basis.extend(map(basis.__getitem__, remaining))
    out = QForm(field, tuple(blocks), diag)
    _check_certificate(M, out, new_basis, S)
    return out, new_basis


def block_normalize(field, coeffs) -> QForm:
    """Block + diagonal shape of an upper-triangular coefficient matrix."""
    out, _ = block_normalize_with_basis(field, coeffs)
    return out


def format_qform(q: QForm) -> str:
    # `QForm.__new__` has checked every coefficient
    return "+".join(["[%x,%x]" % bl for bl in q.blocks]
                    + ["<%x>" % c for c in q.diag]) or "0"


# ---------------------------------------------------------------------------
# reading forms, matrices and fields


# Largest coefficient matrix `qform --op normalize` accepts.  The
# reduction and its certificate cost O(n^3) field multiplies.
MAX_MATRIX_DIM = 64

# Largest dimension of a parsed form.  Each Pfister slot doubles the
# form, so the sum is checked summand by summand, before any
# pf(...) that would pass it is built.
MAX_FORM_DIM = 4096

_ELEMENT_RE = re.compile(r"[0-9a-fA-F]+")
_BLOCK_RE = re.compile(r"\[[^][]*\]")
_DIAG_RE = re.compile(r"<[^<>]*>")
# a block or diagonal summand; around each hex entry `\s*` is what `strip` drops
_SUMMAND_RE = re.compile(r"\[\s*([0-9a-fA-F]+)\s*,\s*([0-9a-fA-F]+)\s*\]"
                         r"|<\s*([0-9a-fA-F]+)\s*>")
_FIELD_RE = re.compile(r"f2\^([0-9]+)")
_MATRIX_RE = re.compile(r"[0-9a-fA-F]+(?:[,;][0-9a-fA-F]+)*")


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
    order, blocks, diag, dim = field.order, [], [], 0
    for part in text.split("+"):
        m = _SUMMAND_RE.fullmatch(part)
        if m is not None:   # one match reads a block or a diagonal entry
            a, b, c = m.groups()
            if c is None:
                x, y = int(a, 16), int(b, 16)
                if x < order > y and dim + 2 <= MAX_FORM_DIM:
                    dim += 2
                    blocks.append(tuple.__new__(BinaryBlock, (x, y)))
                    continue
            elif (x := int(c, 16)) < order and dim < MAX_FORM_DIM:
                dim += 1
                diag.append(x)
                continue
        if part.startswith("pf(") and part.endswith(")"):
            inner = part[3:-1]
            if ";" not in inner:
                raise ValueError(f"pf(...) needs 'slots;unit', e.g. "
                                 f"pf(2,3;1): {part!r}")
            slots_text, b_text = inner.rsplit(";", 1)
            slots = ([_parse_element(field, t) for t in slots_text.split(",")]
                     if slots_text else [])
            b = _parse_element(field, b_text)
            dim = _grow_form(dim, 2 << len(slots))
            if part == text:    # the whole form, checked as it is built
                return pfister_build(field, slots, b)
            blocks += pfister_build(field, slots, b).blocks
            continue
        # not a summand, or one with a fault: raise the first, read in order
        if _BLOCK_RE.fullmatch(part):
            toks = part[1:-1].split(",")
            if len(toks) != 2:
                raise ValueError(f"block needs two entries: {part!r}")
        elif _DIAG_RE.fullmatch(part):
            toks = [part[1:-1]]
        else:
            raise ValueError(f"cannot parse form summand {part!r}")
        _grow_form(dim, len(toks))
        for tok in toks:
            _parse_element(field, tok)
        raise AssertionError(f"summand {part!r} has no fault")
    return QForm(field, tuple(blocks), tuple(diag))


def parse_matrix(field, text: str):
    text = text.replace(" ", "")
    if not (text.startswith("mat(") and text.endswith(")")):
        raise ValueError("normalize expects mat(row;row;...)")
    body = text[4:-1]
    cells = [row.split(",") for row in body.split(";")]
    if max(len(cells), *map(len, cells)) > MAX_MATRIX_DIM:
        raise ValueError(f"coefficient matrix is larger than "
                         f"{MAX_MATRIX_DIM}x{MAX_MATRIX_DIM}")
    # cells of hex digits alone are read with one match and `int`; other
    # text, or an entry out of range, is read again by `_parse_element`,
    # which strips each cell and raises the first fault
    rows = (_MATRIX_RE.fullmatch(body)
            and [[int(t, 16) for t in row] for row in cells])
    if not rows or max(map(max, rows)) >= field.order:
        rows = [[_parse_element(field, t) for t in row] for row in cells]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("coefficient matrix must be square")
    return rows


def parse_field_name(text: str) -> ConcreteField2:
    m = _FIELD_RE.fullmatch(text)
    if not m:
        raise ValueError(f"bad field {text!r} (expected f2^K)")
    # int() refuses a string of more than 4300 digits; a degree with
    # more digits than MAX_FIELD_BITS is out of range anyway, so the
    # field gets one that is and reports it
    digits = m.group(1).lstrip("0")
    top = MAX_FIELD_BITS
    k = int(digits or "0") if len(digits) <= len(str(top)) else top + 1
    return ConcreteField2(k)


def qform_request(field_name: str, op: str, form: str, form2) -> str:
    """`qform` stdout: the JSON of `op` on the forms over `f2^K`."""
    if form2 is not None and op != "equiv":
        raise ValueError("--form2 is only valid with --op equiv")
    field = parse_field_name(field_name)
    q = (block_normalize(field, parse_matrix(field, form)) if op == "normalize"
         else parse_form(field, form))
    out = {"op": op, "field": field_name, "form": format_qform(q)}
    if op != "normalize":
        out["dim"] = q.dim
    if op == "arf":
        out["arf"] = arf(q)
    elif op == "witt":
        dec = witt_decompose(q)
        out["witt_index"] = dec.index
        out["kernel"] = format_qform(dec.kernel)
    elif op == "classify":
        cls = classify_form(q)
        out["class"] = cls.kind
        out["radical_dim"] = cls.radical_dim
        if cls.vanishing_radical_vector is not None:
            out["vanishing_radical_vector"] = [
                format(x, "x") for x in cls.vanishing_radical_vector]
    elif op == "equiv":
        if form2 is None:
            raise ValueError("--op equiv needs --form2")
        q2 = parse_form(field, form2)
        out["form2"] = format_qform(q2)
        out["equivalent"] = equivalent_ff(q, q2)
    return _json.dumps(out) + "\n"
