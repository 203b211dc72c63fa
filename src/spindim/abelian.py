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
from dataclasses import dataclass
from fractions import Fraction
from math import prod

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*mat*V = D diagonal and U, V unimodular.

    The diagonal entries of D are nonnegative and satisfy the
    divisibility chain d_1 | d_2 | ... ; zeros come last.  Pivots are
    chosen by minimal absolute value, which keeps intermediate entries
    small in practice.  Rejects empty or ragged input.
    """
    if not mat or not mat[0]:
        raise ValueError("matrix must be non-empty")
    n, g = len(mat), len(mat[0])
    if any(len(row) != g for row in mat):
        raise ValueError("matrix rows must all have the same length")
    A = [[int(x) for x in row] for row in mat]
    U = _identity(n)
    V = _identity(g)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, g):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                swap_rows(t, pivot[0])
            if pivot[1] != t:
                swap_cols(t, pivot[1])
        while True:
            moved = False
            # a nonzero remainder anywhere in the pivot row or column
            # yields a strictly smaller pivot, so this loop terminates
            for i in range(t + 1, n):
                if A[i][t] % A[t][t]:
                    add_row(t, i, -(A[i][t] // A[t][t]))
                    swap_rows(t, i)
                    moved = True
                    break
            if moved:
                continue
            for j in range(t + 1, g):
                if A[t][j] % A[t][t]:
                    add_col(t, j, -(A[t][j] // A[t][t]))
                    swap_cols(t, j)
                    moved = True
                    break
            if moved:
                continue
            for i in range(t + 1, n):
                if A[i][t]:
                    add_row(t, i, -(A[i][t] // A[t][t]))
            for j in range(t + 1, g):
                if A[t][j]:
                    add_col(t, j, -(A[t][j] // A[t][t]))
            bad = None
            for i in range(t + 1, n):
                if any(A[i][j] % A[t][t] for j in range(t + 1, g)):
                    bad = i
                    break
            if bad is None:
                break
            add_row(bad, t, 1)
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, A, V


def _int_inverse(mat: Matrix) -> Matrix:
    """Exact inverse of a unimodular integer matrix."""
    n = len(mat)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col])
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    out = [[row[n + j] for j in range(n)] for row in work]
    assert all(x.denominator == 1 for row in out for x in row), "matrix was not unimodular"
    return [[int(x) for x in row] for row in out]


@dataclass(frozen=True)
class Presentation:
    """Generators e_1..e_g of Z^g subject to the rows of `relations`."""

    num_generators: int
    relations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_generators < 1:
            raise ValueError("need at least one generator")
        for row in self.relations:
            if len(row) != self.num_generators:
                raise ValueError("relation length does not match generator count")


@dataclass(frozen=True)
class GroupElement:
    """An element in reduced Smith coordinates.  Hashable; equality is
    equality of reduced coordinates within the same group instance."""

    group: "FgAbGroup"
    coords: tuple[int, ...]

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

    def __hash__(self):
        return hash((id(self.group), self.coords))

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.group is other.group and self.coords == other.coords)

    def __lt__(self, other: "GroupElement"):
        # a fixed total order, used for deterministic listings
        return self.coords < other.coords

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
        if presentation.relations:
            _, D, V = smith_normal_form([list(r) for r in presentation.relations])
            diag = [D[j][j] if j < len(D) else 0 for j in range(g)]
        else:
            V = _identity(g)
            diag = [0] * g
        self._V = V
        self._V_inv = _int_inverse(V)
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
        word = [0] * self.presentation.num_generators
        word[i] = 1
        return self.element(word)

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


@dataclass(frozen=True)
class Subgroup:
    """A finite subgroup given by its full element set."""

    group: FgAbGroup
    members: frozenset

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
