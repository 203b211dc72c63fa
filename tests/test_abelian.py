"""Smith normal form and group structure checks.

The fixed matrices below were reduced by hand first; the expected
diagonals are frozen.  Matrix identities are verified with local
helpers so the checks do not depend on the code under test.
"""

import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spindim
from spindim import abelian
from spindim.abelian import (FgAbGroup, Presentation, smith_normal_form,
                             subgroup_span)
from spindim.repdim import build_char_data
from spindim.spinlat import Parity


def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def det(M):
    """Fraction-free Gaussian elimination (Bareiss)."""
    n = len(M)
    M = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if M[i][k]), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def assert_snf_contract(M):
    U, D, V = smith_normal_form(M)
    assert matmul(matmul(U, M), V) == D, "U*M*V must equal D"
    assert abs(det(U)) == 1 and abs(det(V)) == 1, "U, V must be unimodular"
    n, g = len(M), len(M[0])
    for i in range(n):
        for j in range(g):
            if i != j:
                assert D[i][j] == 0, "D must be diagonal"
    diag = [D[i][i] for i in range(min(n, g))]
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    assert diag[:len(nz)] == nz, "zero diagonal entries must come last"
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0, f"divisibility chain broken: {nz}"
    return D


def test_snf_hand_checked_rank2_kernel_lattice():
    # rows: 2x1, 2x2, x1 + x2 - 2A flipped to (-1,-1,2); by hand the
    # diagonal comes out (1, 2, 4)
    M = [[2, 0, 0], [0, 2, 0], [-1, -1, 2]]
    D = assert_snf_contract(M)
    assert [D[i][i] for i in range(3)] == [1, 2, 4]
    assert abs(det(M)) == 8


def test_snf_hand_checked_rank3_kernel_lattice():
    M = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [-1, -1, -1, 2]]
    D = assert_snf_contract(M)
    assert [D[i][i] for i in range(4)] == [1, 2, 2, 4]
    assert abs(det(M)) == 16


def test_snf_divisibility_fix_up():
    # diag(2, 3) is diagonal but 2 does not divide 3; the loop must
    # fold row 2 into row 1 and come out with the chain (1, 6)
    D = assert_snf_contract([[2, 0], [0, 3]])
    assert [D[0][0], D[1][1]] == [1, 6]


def test_snf_of_a_zero_row():
    U, D, V = smith_normal_form([[0, 0, 0]])
    assert U == [[1]] and D == [[0, 0, 0]]
    assert V == [[int(i == j) for j in range(3)] for i in range(3)]


def assert_inverse_tracked(M):
    group = FgAbGroup(Presentation(len(M[0]), tuple(map(tuple, M))))
    V, V_inv = group._V, group._V_inv
    assert V == smith_normal_form(M)[2]
    identity = [[int(i == j) for j in range(len(V))] for i in range(len(V))]
    assert matmul(V, V_inv) == identity
    assert matmul(V_inv, V) == identity


@pytest.mark.parametrize("r", range(1, 33))
def test_snf_contract_on_lattice_relations(r):
    # the relation matrices of X(T) and X(L), as spinlat builds them
    half_spin = [-1] * r + [2]
    two_torsion = [[2 if j == i else 0 for j in range(r + 1)]
                   for i in range(r)]
    for M in ([half_spin], two_torsion + [half_spin]):
        assert_snf_contract(M)
        assert_inverse_tracked(M)


def test_snf_seeded_wide_entries():
    # entries up to +-100 leave remainders round after round, which the
    # small-entry property test rarely reaches
    rng = random.Random(29)
    for _ in range(150):
        n, g = rng.randint(1, 8), rng.randint(1, 8)
        M = [[rng.randint(-100, 100) for _ in range(g)] for _ in range(n)]
        assert_snf_contract(M)
        assert_inverse_tracked(M)


# the largest entry as the pivot, on the seeded wide matrices above
MAX_PIVOT = """
import random
import pytest
from spindim import abelian
rng = random.Random(29)
with pytest.MonkeyPatch.context() as patch:
    patch.setattr(abelian, "min", max, raising=False)
    for _ in range(150):
        n, g = rng.randint(1, 8), rng.randint(1, 8)
        M = [[rng.randint(-100, 100) for _ in range(g)] for _ in range(n)]
        try:
            abelian.smith_normal_form(M)
        except AssertionError as exc:
            print(exc)
            break
"""


def test_a_pivot_rule_that_makes_no_progress_fails_fast():
    # the largest pivot leaves remainders as large as itself, round
    # after round; the progress guard stops the reduction at once, and
    # under -O too, where an assert statement would be gone
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(spindim.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", MAX_PIVOT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "Smith reduction made no progress\n", proc.stderr


def test_snf_rejects_bad_input():
    with pytest.raises(ValueError):
        smith_normal_form([])
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])
    # entries are never truncated or parsed: 2.7 is not 2, "3" is not 3
    for bad in (1.5, True, "3"):
        with pytest.raises(ValueError, match="must be integers"):
            smith_normal_form([[2, bad], [0, 4]])
    with pytest.raises(ValueError):
        FgAbGroup(Presentation(2, ((2.7, 0), (0, 4))))


def test_presentation_rejects_a_generator_count_that_is_not_an_int():
    # True would be kept and printed as num_generators=True, and 2.0
    # would pass the length check only to fail later with a TypeError
    for bad in (True, False, 2.0, "2"):
        with pytest.raises(ValueError, match="generator count must be"):
            Presentation(bad, ())
    with pytest.raises(ValueError, match="generator count must be"):
        FgAbGroup(Presentation(True, ((2,),)))
    assert FgAbGroup(Presentation(1, ((2,),))).invariant_factors == (2,)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_snf_random_matrices(n, g, data):
    M = [[data.draw(st.integers(-5, 5)) for _ in range(g)] for _ in range(n)]
    if all(all(x == 0 for x in row) for row in M):
        M[0][0] = 1
    assert_snf_contract(M)


def test_snf_tracks_the_inverse_of_v():
    rng = random.Random(13)
    for _ in range(200):
        n, g = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-6, 6) for _ in range(g)] for _ in range(n)]
        assert_inverse_tracked(M)


def test_group_reduces_through_smith_normal_form(monkeypatch):
    # one reduction when X(L) at r = 3 is built, one more for V^-1 on
    # the first lift, none after
    calls = []

    def counted(mat):
        calls.append(mat)
        return smith_normal_form(mat)
    monkeypatch.setattr(abelian, "smith_normal_form", counted)
    xL = FgAbGroup(Presentation(4, ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0),
                                    (-1, -1, -1, 2))))
    assert xL.invariant_factors == (2, 2, 4) and len(calls) == 1
    A = xL.generator(3)
    assert xL.element(xL.lift(A)) == A and len(calls) == 2
    xL.lift(A)
    assert len(calls) == 2


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_group_structure_invariant_under_presentation_shuffles(data):
    n = data.draw(st.integers(1, 4))
    g = data.draw(st.integers(1, 4))
    rels = tuple(tuple(data.draw(st.integers(-4, 4)) for _ in range(g))
                 for _ in range(n))
    base = FgAbGroup(Presentation(g, rels))

    rows = [list(r) for r in rels]
    # row shuffle, column shuffle (renames generators), and a few
    # unimodular row operations; none of it changes the quotient type
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    rng.shuffle(rows)
    perm = rng.sample(range(g), g)
    rows = [[row[p] for p in perm] for row in rows]
    for _ in range(4):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-3, 3)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    other = FgAbGroup(Presentation(g, tuple(map(tuple, rows))))
    assert other.invariant_factors == base.invariant_factors
    assert other.free_rank == base.free_rank
    # generator(i) reads row i of V; element() of the unit word agrees
    for i in range(g):
        unit = [0] * g
        unit[i] = 1
        assert base.generator(i) == base.element(unit)


@pytest.fixture
def z2_z4():
    # Z/2 x Z/4 as the rank-2 kernel lattice
    return FgAbGroup(Presentation(3, ((2, 0, 0), (0, 2, 0), (-1, -1, 2))))


def test_group_structure_of_kernel_lattice(z2_z4):
    assert z2_z4.invariant_factors == (2, 4)
    assert z2_z4.free_rank == 0
    assert z2_z4.order() == 8
    assert len(z2_z4.elements()) == 8
    assert len(set(z2_z4.elements())) == 8


def test_identities_in_kernel_lattice(z2_z4):
    x1, x2, A = (z2_z4.generator(i) for i in range(3))
    assert 2 * A == x1 + x2
    assert (2 * x1).is_identity() and (2 * x2).is_identity()
    assert not (2 * A).is_identity()
    assert (4 * A).is_identity()


def test_group_axioms_exhaustive_order_64():
    # Z/4 x Z/4 x Z/4: every triple associates, inverses work
    g = FgAbGroup(Presentation(3, ((4, 0, 0), (0, 4, 0), (0, 0, 4))))
    assert g.order() == 64
    els = g.elements()
    for a in els:
        assert (a + (-a)).is_identity()
        assert a + g.identity() == a
    rng = random.Random(3)
    sample = rng.sample(els, 16)
    for a, b, c in itertools.product(sample, repeat=3):
        assert (a + b) + c == a + (b + c)
    for a, b in itertools.product(sample, repeat=2):
        # subtraction, against the difference of lifted words
        assert a - b == g.element([x - y for x, y in zip(g.lift(a), g.lift(b))])
        assert (a - b) + b == a
    for a, b in itertools.product(els, repeat=2):
        assert a + b == b + a


def test_element_lift_round_trip(z2_z4):
    rng = random.Random(11)
    for _ in range(300):
        word = [rng.randint(-9, 9) for _ in range(3)]
        e = z2_z4.element(word)
        again = z2_z4.element(z2_z4.lift(e))
        assert again == e, "reduce(lift(reduce(w))) must be reduce(w)"
    for e in z2_z4.elements():
        assert z2_z4.element(z2_z4.lift(e)) == e


def test_reduce_respects_relations(z2_z4):
    for rel in z2_z4.presentation.relations:
        assert z2_z4.element(list(rel)).is_identity()


def test_order_equals_det_for_full_rank_square_relations():
    rng = random.Random(5)
    found = 0
    while found < 25:
        n = rng.randint(1, 4)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        d = det(M)
        if d == 0:
            continue
        found += 1
        g = FgAbGroup(Presentation(n, tuple(map(tuple, M))))
        assert g.is_finite()
        assert g.order() == abs(d)


def test_infinite_groups_are_guarded():
    free = FgAbGroup(Presentation(2, ()))
    assert free.free_rank == 2 and not free.is_finite()
    with pytest.raises(ValueError):
        free.order()
    with pytest.raises(ValueError):
        free.elements()
    with pytest.raises(ValueError):
        subgroup_span(free, [free.generator(0)])


def test_shape_and_foreign_element_guards(z2_z4):
    with pytest.raises(ValueError, match="at least one generator"):
        Presentation(0, ())
    with pytest.raises(ValueError, match="relation length"):
        Presentation(2, ((1,),))
    other = FgAbGroup(Presentation(1, ((2,),)))
    with pytest.raises(ValueError, match="element belongs to a different"):
        z2_z4.lift(other.generator(0))
    with pytest.raises(ValueError, match="generator belongs to a different"):
        subgroup_span(z2_z4, [z2_z4.generator(0), other.generator(0)])


def test_subgroup_span(z2_z4):
    x1, x2, A = (z2_z4.generator(i) for i in range(3))
    k = subgroup_span(z2_z4, [x1, x2])
    assert k.order == 4
    assert x1 in k and x1 + x2 in k
    assert A not in k
    assert subgroup_span(z2_z4, []).order == 1
    assert subgroup_span(z2_z4, [A]).order == 4   # A has order 4
    # the span is a subgroup: closed under + and -
    for a in k.members:
        assert -a in k
        for b in k.members:
            assert a + b in k


def test_mixed_group_elements_do_not_mix(z2_z4):
    other = FgAbGroup(Presentation(3, ((2, 0, 0), (0, 2, 0), (-1, -1, 2))))
    with pytest.raises(ValueError):
        z2_z4.generator(0) + other.generator(0)


def test_word_length_validation(z2_z4):
    with pytest.raises(ValueError):
        z2_z4.element([1, 2])


# ---------------------------------------------------------------------------
# packed codes, checked against GroupElement arithmetic


@pytest.mark.parametrize("r", range(1, 9))
def test_pack_round_trip_and_order(r):
    xL = build_char_data(r, Parity.ODD).xL
    els = xL.elements()
    codes = [xL.pack(e) for e in els]
    assert len(set(codes)) == len(els) == 2 ** (r + 1)
    assert [xL.unpack(c) for c in codes] == els
    assert sorted(els) == sorted(els, key=xL.pack)


@pytest.mark.parametrize("r", range(1, 5))
def test_packed_addition_matches_group_addition(r):
    xL = build_char_data(r, Parity.ODD).xL
    keep = xL.keep_mask
    for a, b in itertools.product(xL.elements(), repeat=2):
        assert xL.pack(a + b) == (xL.pack(a) + xL.pack(b)) & keep


def test_packing_needs_finite_two_power_factors(z2_z4):
    xT = build_char_data(3, Parity.ODD).xT
    with pytest.raises(ValueError):
        xT.pack(xT.identity())
    z6 = FgAbGroup(Presentation(1, ((6,),)))
    with pytest.raises(ValueError):
        z6.pack(z6.generator(0))
    with pytest.raises(ValueError):
        z6.unpack(0)
    with pytest.raises(ValueError):
        z2_z4.pack(z6.generator(0))
    with pytest.raises(ValueError):
        z2_z4.unpack(z2_z4.keep_mask + 1)
