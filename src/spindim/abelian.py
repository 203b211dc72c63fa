"""Finitely generated abelian groups in exact integer arithmetic.

A group is presented as Z^g modulo the row span of an integer relation
matrix.  Smith normal form of the relation matrix gives coordinates in
which the group splits as a direct sum of cyclic factors

    Z/d_1 x ... x Z/d_k x Z^f        with d_1 | d_2 | ... | d_k,

and every element has a unique reduced coordinate vector.  All
arithmetic uses Python integers, so entries can grow without bound and
no overflow is possible.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import prod

from ._record import Record

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*mat*V = D diagonal and U, V unimodular.

    The diagonal entries of D are nonnegative and satisfy the
    divisibility chain d_1 | d_2 | ... ; zeros come last.  One pivot
    loop does it all: the smallest nonzero entry of the remaining
    block is moved to (t, t) and divided out of its row and column; a
    remainder, or an entry the pivot does not divide (whose row is
    added to row t), sends the loop back to pick a smaller pivot.  At
    one t the picked |pivot| never grows, falls strictly after a
    remainder and repeats at most once after a bad row; a pick that
    breaks this raises AssertionError.
    Rejects empty or ragged input and entries that are not ints.
    """
    if not mat or not mat[0]:
        raise ValueError("matrix must be non-empty")
    n, g = len(mat), len(mat[0])
    if any(len(row) != g for row in mat):
        raise ValueError("matrix rows must all have the same length")
    for row in mat:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"matrix entries must be integers: {x!r}")
    A = [list(row) for row in mat]
    U = _identity(n)
    V = _identity(g)

    def add_row(src, dst, q):
        # row_dst += q * row_src
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for row in A + V:
            row[dst] += q * row[src]

    # progress at one t: each |pivot| is at most the last one, and below
    # it after a remainder; a bad-row step lets it repeat once
    t, last, again = 0, None, False
    while True:
        # the smallest nonzero entry of the remaining block, first in
        # row-major order on ties, is swapped to (t, t)
        pick = min(((abs(A[i][j]), i, j) for i in range(t, n)
                    for j in range(t, g) if A[i][j]), default=None)
        if pick is None:
            return U, A, V
        size, i, j = pick
        if last is not None and (size > last or size == last and not again):
            # raised, not asserted, so that it holds under -O too
            raise AssertionError("Smith reduction made no progress")
        A[t], A[i] = A[i], A[t]
        U[t], U[i] = U[i], U[t]
        for row in A + V:
            row[t], row[j] = row[j], row[t]
        p = A[t][t]
        for i in range(t + 1, n):
            q = A[i][t] // p
            if q:
                add_row(t, i, -q)
        for j in range(t + 1, g):
            q = A[t][j] // p
            if q:
                add_col(t, j, -q)
        # a remainder left in row or column t is smaller than p, so
        # picking again makes progress
        if (any(A[i][t] for i in range(t + 1, n))
                or any(A[t][j] for j in range(t + 1, g))):
            last, again = size, False
            continue
        bad = next((i for i in range(t + 1, n)
                    if any(A[i][j] % p for j in range(t + 1, g))), None)
        if bad is not None:
            # row t now holds an entry p does not divide: p may be picked
            # again, unless this pick was that repeat, and its division
            # then leaves a remainder
            add_row(bad, t, 1)
            last, again = size, size != last
            continue
        if p < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t, last = t + 1, None


class Presentation(Record):
    """Generators e_1..e_g of Z^g subject to the rows of `relations`."""

    _fields = ("num_generators", "relations")

    def __new__(cls, num_generators: int,
                relations: tuple[tuple[int, ...], ...]):
        if (not isinstance(num_generators, int)
                or isinstance(num_generators, bool)):
            raise ValueError(
                f"generator count must be an integer: {num_generators!r}")
        if num_generators < 1:
            raise ValueError("need at least one generator")
        for row in relations:
            if len(row) != num_generators:
                raise ValueError("relation length does not match generator count")
        return super().__new__(cls, num_generators, relations)


class GroupElement(Record):
    """An element in reduced Smith coordinates.  As the tuple (group,
    coords) it hashes, compares equal and orders by its coordinates
    within one group instance: `FgAbGroup` compares by identity."""

    _fields = ("group", "coords")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if self.group is not other.group:
            raise ValueError("elements belong to different groups")
        return self.group._from_reduced(
            [a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "GroupElement":
        return self.group._from_reduced([-a for a in self.coords])

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __rmul__(self, k: int) -> "GroupElement":
        return self.group._from_reduced([k * a for a in self.coords])

    def is_identity(self) -> bool:
        return all(a == 0 for a in self.coords)


class FgAbGroup:
    """Z^g modulo the row span of a relation matrix.

    `invariant_factors` lists the cyclic orders > 1 in divisibility
    order, and `free_rank` counts the Z summands.  Reduced coordinates
    run over the torsion factors first, then the free ones.
    """

    def __init__(self, presentation: Presentation):
        g = presentation.num_generators
        self.presentation = presentation
        # no relations reduces like one zero row: V = I, zero diagonal
        _, D, self._V = smith_normal_form(presentation.relations or [[0] * g])
        diag = [D[j][j] if j < len(D) else 0 for j in range(g)]
        # unit factors carry no information and are dropped
        self._kept = [j for j in range(g) if diag[j] != 1]
        self._moduli = tuple(diag[j] for j in self._kept)
        self.invariant_factors = tuple(m for m in self._moduli if m > 1)
        self.free_rank = sum(1 for m in self._moduli if m == 0)

    # -- construction of elements ------------------------------------

    def _from_reduced(self, coords) -> GroupElement:
        out = tuple(c % m if m else c for c, m in zip(coords, self._moduli))
        return GroupElement(self, out)

    def identity(self) -> GroupElement:
        return GroupElement(self, (0,) * len(self._moduli))

    def element(self, word) -> GroupElement:
        """Reduce a word in the generators (length-g integer vector)."""
        g = self.presentation.num_generators
        if len(word) != g:
            raise ValueError("word length does not match generator count")
        full = [sum(word[i] * self._V[i][j] for i in range(g)) for j in range(g)]
        return self._from_reduced([full[j] for j in self._kept])

    def generator(self, i: int) -> GroupElement:
        """The image of e_i: `element` of the unit word, which is row i
        of V."""
        return self._from_reduced([self._V[i][j] for j in self._kept])

    def lift(self, elem: GroupElement) -> list[int]:
        """A word in the generators mapping to `elem` (a section of
        `element`; positions of dropped unit factors are set to 0)."""
        if elem.group is not self:
            raise ValueError("element belongs to a different group")
        g = self.presentation.num_generators
        full = [0] * g
        for pos, c in zip(self._kept, elem.coords):
            full[pos] = c
        return [sum(full[j] * self._V_inv[j][i] for j in range(g)) for i in range(g)]

    @cached_property
    def _V_inv(self) -> Matrix:
        """V^-1, built on the first `lift`: V is unimodular, so its own
        Smith form is U'*V*W = I, and V^-1 = W*U'."""
        U, _, W = smith_normal_form(self._V)
        return [[sum(w * U[k][j] for k, w in enumerate(row))
                 for j in range(len(U))] for row in W]

    # -- global structure ---------------------------------------------

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        if not self.is_finite():
            raise ValueError("group is infinite")
        return prod(self.invariant_factors)

    def elements(self) -> list[GroupElement]:
        """All elements of a finite group, in a fixed coordinate order."""
        if not self.is_finite():
            raise ValueError("cannot enumerate an infinite group")
        return [GroupElement(self, c)
                for c in itertools.product(*(range(m) for m in self._moduli))]

    # -- packed integer codes -----------------------------------------

    @cached_property
    def _fields(self) -> tuple[tuple[int, int], ...]:
        """(shift, modulus - 1) per reduced coordinate, coordinate 0 in
        the most significant field.  A factor 2^k gets k bits plus one
        guard bit above them, which catches the carry of a sum."""
        if not self.is_finite() or any(m & (m - 1) for m in self._moduli):
            raise ValueError("packed codes need a finite group whose "
                             "invariant factors are powers of 2")
        fields, shift = [], 0
        for m in reversed(self._moduli):
            fields.append((shift, m - 1))
            shift += m.bit_length()
        return tuple(reversed(fields))

    @cached_property
    def keep_mask(self) -> int:
        """The value bits of every field: (pack(a) + pack(b)) & keep_mask
        is pack(a + b), and codes order like elements."""
        return sum(mask << shift for shift, mask in self._fields)

    def pack(self, elem: GroupElement) -> int:
        """The packed code of `elem`; ValueError unless the group is
        finite with all invariant factors powers of 2."""
        if elem.group is not self:
            raise ValueError("element belongs to a different group")
        return sum(c << shift for c, (shift, _) in zip(elem.coords, self._fields))

    def unpack(self, code: int) -> GroupElement:
        """The element whose packed code is `code`."""
        if code < 0 or code & ~self.keep_mask:
            raise ValueError("not a packed code of this group")
        return GroupElement(self, tuple(code >> shift & mask
                                        for shift, mask in self._fields))


class Subgroup(Record):
    """A finite subgroup given by its full element set."""

    _fields = ("group", "members")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, elem: GroupElement) -> bool:
        return elem in self.members


def subgroup_span(group: FgAbGroup, gens) -> Subgroup:
    """Closure of `gens` under the group operation.

    Breadth-first: each pass adds generator translates of the frontier.
    Only supported when the span is finite; in an infinite ambient group
    a generator of infinite order makes the closure diverge, so the
    ambient group is required to be finite.
    """
    if not group.is_finite():
        raise ValueError("subgroup enumeration needs a finite ambient group")
    gens = list(gens)
    for e in gens:
        if e.group is not group:
            raise ValueError("generator belongs to a different group")
    seen = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        nxt = []
        for e in frontier:
            for h in gens:
                s = e + h
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return Subgroup(group, frozenset(seen))
