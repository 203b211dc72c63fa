"""Quadratic forms over fields of two elements and their extensions.

Everything classification-shaped is checked against brute force here:
isotropy by scanning all vectors, the Witt index by searching for
totally singular subspaces, equivalence by comparing value counts and,
at tiny sizes, by enumerating actual changes of basis.  The helpers at
the top are deliberately naive reimplementations.
"""

import importlib.util
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from spindim.invariants import FormalField2, PfisterBase, pfister_expand
from spindim.qform2 import (MAX_FIELD_BITS, BinaryBlock, ConcreteField2,
                            NONDEGENERATE, NONSINGULAR_RADICAL_1, SINGULAR,
                            QForm, arf, block, block_normalize,
                            block_normalize_with_basis, classify_form,
                            diag_form, equivalent_ff, evaluate, format_qform,
                            hyperbolic, is_isotropic, is_nonsingular,
                            min_poly_for, orth_sum, pfister_build, scale,
                            tensor_bilinear, witt_decompose,
                            _check_certificate, _fold_scale, _log_exp,
                            _polar_gram, _poly_mod, _trace_mask)
from spindim import qform2

F2 = ConcreteField2(1)
F4 = ConcreteField2(2)
F8 = ConcreteField2(3)


# ---------------------------------------------------------------------------
# naive helpers, independent of the library internals


def poly_deg(p):
    return p.bit_length() - 1


def poly_divmod(num, den):
    q = 0
    while poly_deg(num) >= poly_deg(den) > -1 and num:
        shift = poly_deg(num) - poly_deg(den)
        q ^= 1 << shift
        num ^= den << shift
    return q, num


def carry_less_product(x, y):
    out = 0
    while y:
        if y & 1:
            out ^= x
        x <<= 1
        y >>= 1
    return out


def ref_mul(k, x, y):
    """x * y in F_{2^k}: carry-less product, then long division."""
    return poly_divmod(carry_less_product(x, y), min_poly_for(k))[1]


def ref_inv(k, x):
    """1 / x in F_{2^k} as x^(2^k - 2), by square and multiply."""
    r, e = 1, (1 << k) - 2
    while e:
        if e & 1:
            r = ref_mul(k, r, x)
        x = ref_mul(k, x, x)
        e >>= 1
    return r


def frobenius_trace(k, x):
    """x + x^2 + x^4 + ... + x^(2^(k-1)), squaring with ref_mul."""
    acc = t = x
    for _ in range(k - 1):
        t = ref_mul(k, t, t)
        acc ^= t
    return acc


def irreducible_by_trial_division(p, k):
    if poly_deg(p) != k or not p & 1:
        return False
    for d in range(2, 1 << (k // 2 + 1)):
        if poly_deg(d) < 1:
            continue
        if poly_divmod(p, d)[1] == 0:
            return False
    return True


def all_vectors(field, dim):
    return list(itertools.product(field.elements(), repeat=dim))


def value_counts(q):
    return Counter(evaluate(q, v) for v in all_vectors(q.field, q.dim))


def value_set(q):
    """Represented values via per-summand value sets and sumsets."""
    f = q.field
    acc = {0}
    for bl in q.blocks:
        piece = {evaluate(block(f, bl.a, bl.b), v) for v in all_vectors(f, 2)}
        acc = {a ^ b for a in acc for b in piece}
    for c in q.diag:
        piece = {f.mul(c, f.mul(z, z)) for z in f.elements()}
        acc = {a ^ b for a in acc for b in piece}
    return acc


def brute_isotropic(q):
    return any(any(v) and evaluate(q, v) == 0 for v in all_vectors(q.field, q.dim))


def brute_witt_index(q):
    """Largest totally singular subspace, found by hand (dim <= 4, so
    the index is at most 2 for nonsingular forms)."""
    f = q.field
    assert q.dim <= 4
    singular = [v for v in all_vectors(f, q.dim)
                if any(v) and evaluate(q, v) == 0]
    if not singular:
        return 0
    if q.dim < 4:
        return 1
    sing = set(singular)
    for i, u in enumerate(singular):
        multiples = {tuple(f.mul(lam, x) for x in u) for lam in f.elements()}
        for v in singular[i + 1:]:
            if v in multiples:
                continue
            w = tuple(a ^ b for a, b in zip(u, v))
            # q(u) = q(v) = 0, so q(u + v) is the polar pairing
            if w in sing:
                return 2
    return 1


def all_forms(field, dim):
    """Every block-and-diagonal form of the given dimension."""
    for nb in range(dim // 2 + 1):
        nd = dim - 2 * nb
        for coeffs in itertools.product(field.elements(), repeat=2 * nb + nd):
            blocks = tuple(BinaryBlock(coeffs[2 * i], coeffs[2 * i + 1])
                           for i in range(nb))
            yield QForm(field, blocks, tuple(coeffs[2 * nb:]))


def nonsingular_forms(field, dim):
    return [q for q in all_forms(field, dim) if is_nonsingular(q)]


def mat_eval(field, M, v):
    acc = 0
    for i in range(len(M)):
        for j in range(i, len(M)):
            if M[i][j]:
                acc ^= field.mul(M[i][j], field.mul(v[i], v[j]))
    return acc


def coeff_matrix(q):
    n = q.dim
    M = [[0] * n for _ in range(n)]
    i = 0
    for bl in q.blocks:
        M[i][i] = bl.a
        M[i][i + 1] = 1
        M[i + 1][i + 1] = bl.b
        i += 2
    for c in q.diag:
        M[i][i] = c
        i += 1
    return M


def compose_matrix(field, M, T):
    """Coefficient matrix of v -> q(Tv), with (Tv)_i = sum_k T[i][k] v_k."""
    n = len(M)
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if not M[i][j]:
                continue
            for k in range(n):
                for l in range(n):
                    c = field.mul(M[i][j], field.mul(T[i][k], T[j][l]))
                    if c:
                        a, b = min(k, l), max(k, l)
                        C[a][b] ^= c
    return C


def is_invertible(field, T):
    n = len(T)
    M = [row[:] for row in T]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            return False
        M[col], M[piv] = M[piv], M[col]
        inv = field.inv(M[col][col])
        M[col] = [field.mul(inv, x) for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                c = M[r][col]
                M[r] = [x ^ field.mul(c, y) for x, y in zip(M[r], M[col])]
    return True


def random_invertible(field, n, rng):
    while True:
        T = [[rng.randrange(field.order) for _ in range(n)] for _ in range(n)]
        if is_invertible(field, T):
            return T


def random_nonsingular_form(field, rng, max_dim=4):
    while True:
        nb = rng.randint(0, max_dim // 2)
        nd = rng.randint(0, 1)
        if 2 * nb + nd == 0 or 2 * nb + nd > max_dim:
            continue
        blocks = tuple(BinaryBlock(rng.randrange(field.order),
                                   rng.randrange(field.order))
                       for _ in range(nb))
        diag = tuple(rng.randrange(1, field.order) for _ in range(nd))
        return QForm(field, blocks, diag)


# ---------------------------------------------------------------------------
# the field layer


FROZEN_MIN_POLYS = {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101,
                    6: 0b1000011, 7: 0b10000011, 8: 0b100011011,
                    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009,
                    13: 0x201B, 14: 0x4021, 15: 0x8003, 16: 0x1002B}


@pytest.mark.parametrize("k", range(1, MAX_FIELD_BITS + 1))
def test_min_poly_is_smallest_irreducible(k):
    p = min_poly_for(k)
    assert p == FROZEN_MIN_POLYS[k]
    assert irreducible_by_trial_division(p, k)
    for smaller in range(1 << k, p):
        assert not irreducible_by_trial_division(smaller, k)


def min_poly_all_divisors(k):
    """The modulus search as it was before it skipped even divisors:
    every polynomial of degree 1..k/2 is tried."""
    for cand in range((1 << k) + 1, 1 << (k + 1), 2):
        if all(_poly_mod(cand, d) for d in range(2, 1 << (k // 2 + 1))):
            return cand
    raise AssertionError("no irreducible polynomial found")


@pytest.mark.parametrize("k", range(1, MAX_FIELD_BITS + 1))
def test_min_poly_search_matches_the_all_divisor_search(k):
    # the odd divisors suffice: every candidate has constant term 1, so
    # no multiple of x divides it
    assert min_poly_for.__wrapped__(k) == min_poly_all_divisors(k)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_field_axioms_exhaustive(k):
    f = ConcreteField2(k)
    els = list(f.elements())
    for x, y in itertools.product(els, repeat=2):
        assert f.mul(x, y) == f.mul(y, x)
        assert f.add(x, y) == f.add(y, x)
    for x, y, z in itertools.product(els, repeat=3):
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    for x in els:
        assert f.mul(x, f.one) == x
        assert f.add(x, x) == f.zero


@pytest.mark.parametrize("k", range(1, 9))
def test_inverse_sqrt_trace(k):
    f = ConcreteField2(k)
    els = list(f.elements())
    for x in els[1:]:
        assert f.mul(x, f.inv(x)) == f.one
    # squaring is a field automorphism, so sqrt is its inverse bijection
    assert sorted(f.mul(x, x) for x in els) == els
    for x in els:
        assert f.mul(f.sqrt(x), f.sqrt(x)) == x
        assert f.trace(x) in (0, 1)
        assert f.trace(f.mul(x, x)) == f.trace(x)
    for x, y in ((0, 1), (1, els[-1])):
        assert f.trace(x ^ y) == f.trace(x) ^ f.trace(y)
    assert f.trace(f.trace_one_element()) == 1
    assert all(f.trace(y) == 0 for y in range(f.trace_one_element()))


@pytest.mark.parametrize("k", range(1, 9))
def test_artin_schreier_image_is_trace_kernel(k):
    # the fact that makes the Arf bit well defined over these fields
    f = ConcreteField2(k)
    image = {f.mul(x, x) ^ x for x in f.elements()}
    kernel = {y for y in f.elements() if f.trace(y) == 0}
    assert image == kernel
    assert len(image) == f.order // 2


def field_pairs(k):
    """Every pair for k <= 6; 2000 seeded pairs above that."""
    f = ConcreteField2(k)
    if k <= 6:
        return itertools.product(f.elements(), repeat=2)
    rng = random.Random(k)
    return [(rng.randrange(f.order), rng.randrange(f.order))
            for _ in range(2000)]


def edge_elements(k):
    """0, 1, the top element, and every element whose 4-bit windows are
    each all ones or all zeros: the extremes of each window lookup and
    of the reduction tables."""
    top = (1 << k) - 1
    nibbles = [sum(15 << 4 * i for i in range(4) if mask >> i & 1) & top
               for mask in range(16)]
    return sorted({0, 1, top, *nibbles})


@pytest.mark.parametrize("k", range(1, MAX_FIELD_BITS + 1))
def test_mul_matches_carry_less_product_and_long_division(k):
    # both kernels: log/exp tables up to k = 8, the windowed product
    # above, with its edge pairs at k = 9..16
    f = ConcreteField2(k)
    edges = itertools.product(edge_elements(k), repeat=2) if k > 8 else ()
    for x, y in itertools.chain(field_pairs(k), edges):
        assert f.mul(x, y) == ref_mul(k, x, y), (x, y)


@pytest.mark.parametrize("k", range(9, MAX_FIELD_BITS + 1))
def test_inverse_beyond_exhaustive_sizes(k):
    f = ConcreteField2(k)
    rng = random.Random(k)
    xs = [1, 2, f.order - 1] + [rng.randrange(1, f.order) for _ in range(500)]
    for x in xs:
        y = f.inv(x)
        assert 0 < y < f.order and ref_mul(k, x, y) == 1, x


@pytest.mark.parametrize("k", (1, 3, 8, 9, 16))
def test_pow_with_negative_exponent_inverts_first(k):
    f = ConcreteField2(k)
    rng = random.Random(k)
    for x in [1, f.order - 1] + [rng.randrange(1, f.order) for _ in range(50)]:
        for e in (1, 2, 5, f.order):
            assert ref_mul(k, f.pow(x, -e), f.pow(x, e)) == 1, (x, e)
        assert f.pow(x, -1) == f.inv(x) == ref_inv(k, x)
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def test_log_exp_tables():
    # tables stop at k = 8: at most 2^8 log slots (slot 0 unused) and
    # 2 * 255 exp entries, one generator of the unit group
    for k in range(1, 9):
        log, exp = _log_exp(ConcreteField2(k))
        units = (1 << k) - 1
        assert len(log) == units + 1 and len(exp) == 2 * units
        assert sorted(exp[:units]) == list(range(1, units + 1))
        assert all(exp[log[x]] == x for x in range(1, units + 1))
    # 0x11B is not primitive: t has order 51, so the generator is t + 1
    assert min_poly_for(8) == 0x11B and _log_exp(ConcreteField2(8))[1][1] == 3
    f16 = ConcreteField2(16)
    assert f16.mul(3, 5) == 15
    assert f16._exp is None and 16 not in qform2._TABLES


def test_no_table_is_built_at_import():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("from spindim import qform2\n"
            "print(len(qform2._TABLES), len(qform2._MASKS))\n"
            "qform2.ConcreteField2(4)\n"
            "print(len(qform2._TABLES), len(qform2._MASKS))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          check=True)
    assert proc.stdout.split() == ["0", "0", "1", "0"]


def test_tables_are_built_through_mul():
    # mul holds the one shift-and-add loop: each table is built by
    # counted products, one per power of each generator candidate tried
    # (k = 8: 0 for 1, 50 for t of order 51, 254 for the generator t + 1)
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("from spindim.qform2 import ConcreteField2\n"
            "real, count = ConcreteField2.mul, [0]\n"
            "def mul(self, x, y):\n"
            "    count[0] += 1\n"
            "    return real(self, x, y)\n"
            "ConcreteField2.mul = mul\n"
            "for k in (1, 2, 3, 4, 8, 8, 9):\n"
            "    count[0] = 0\n"
            "    ConcreteField2(k)\n"
            "    print(count[0])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          check=True)
    assert proc.stdout.split() == ["0", "2", "6", "14", "304", "0", "0"]


@pytest.mark.parametrize("wrong", [lambda self, x, y: 0,
                                   lambda self, x, y: x,
                                   lambda self, x, y: 2,
                                   lambda self, x, y: x ^ y],
                         ids=["zero", "left", "constant", "add"])
def test_generator_search_ends_on_a_wrong_multiply(monkeypatch, wrong):
    # no power list outgrows the unit group, so the search raises where
    # it would loop; _log_exp itself caches nothing
    field = ConcreteField2(5)
    monkeypatch.setattr(ConcreteField2, "mul", wrong)
    with pytest.raises(AssertionError, match="no generator found"):
        _log_exp(field)


def test_fields_do_not_depend_on_build_order():
    # tables and moduli are cached per k; build every field from empty
    # caches, ascending and then descending, and compare what they compute
    def sample(k):
        rng = random.Random(k)
        return [(rng.randrange(1 << k), rng.randrange(1, 1 << k))
                for _ in range(200)]

    def build(ks):
        min_poly_for.cache_clear()
        qform2._TABLES.clear()
        qform2._MASKS.clear()
        fields = {k: ConcreteField2(k) for k in ks}
        return {k: ([f.mul(x, y) for x, y in sample(k)],
                    [f.inv(y) for _, y in sample(k)],
                    f.trace_one_element())
                for k, f in fields.items()}

    ks = range(1, MAX_FIELD_BITS + 1)
    up = build(ks)
    assert build(reversed(ks)) == up
    for k, (prods, invs, _) in up.items():
        assert prods == [ref_mul(k, x, y) for x, y in sample(k)]
        assert invs == [ref_inv(k, y) for _, y in sample(k)]


def test_trace_mask_checks_fire(monkeypatch):
    # a multiply that loses the Frobenius sum must be caught before the
    # mask is used; the field is built before mul is patched, since its
    # tables are built through mul, and _trace_mask itself caches nothing
    field = ConcreteField2(4)
    monkeypatch.setattr(ConcreteField2, "mul", lambda self, x, y: 0)
    with pytest.raises(AssertionError, match="the trace must lie in F_2"):
        _trace_mask(field)
    # squaring as the identity makes every Frobenius sum of even length 0
    monkeypatch.setattr(ConcreteField2, "mul", lambda self, x, y: x)
    with pytest.raises(AssertionError, match="trace cannot be identically zero"):
        _trace_mask(field)


@pytest.mark.parametrize("k", (*range(1, 11), 16))
def test_trace_mask_matches_frobenius_sum(k):
    f = ConcreteField2(k)
    if k <= 10:
        xs = f.elements()
    else:
        rng = random.Random(k)
        xs = [rng.randrange(f.order) for _ in range(500)]
    for x in xs:
        want = frobenius_trace(k, x)
        assert want in (0, 1)
        assert f.trace(x) == want, x


@pytest.mark.parametrize("k", range(1, MAX_FIELD_BITS + 1))
def test_trace_one_element_matches_linear_scan(k):
    first = next(x for x in range(1, 1 << k) if frobenius_trace(k, x) == 1)
    assert ConcreteField2(k).trace_one_element() == first
    if k == 16:
        assert first == 2048


def _dot(mul, u, v):
    acc = 0
    for x, y in zip(u, v):
        if x and y:
            acc ^= mul(x, y)
    return acc


def _matrix_eval(field, M, vec):
    """q(v) = sum_i v_i (sum_{j>=i} M[i][j] v_j) of an upper-triangular
    M, dense: the value oracle of `dense_certificate` and
    `reference_reduction`."""
    acc = 0
    for i, vi in enumerate(vec):
        if vi:
            s = _dot(field.mul, M[i][i:], vec[i:])
            if s:
                acc ^= field.mul(vi, s)
    return acc


def dense_certificate(M, q, basis):
    """The certificate of `qform2._check_certificate` over dense rows:
    every q(b_i) by `_matrix_eval`, and each pairing b(b_i, b_j) as
    row i of P times row j of P S, S = M + M^T.  Raises the same
    AssertionError."""
    f = q.field
    mul = f.mul
    coeffs = [c for bl in q.blocks for c in (bl.a, bl.b)] + list(q.diag)
    paired = 2 * len(q.blocks)
    S = _polar_gram(M)
    ps_rows = ([_dot(mul, b, col) for col in S] for b in basis)   # P S, lazily
    if (len(basis) != len(coeffs)
            or any(_matrix_eval(f, M, b) != c for b, c in zip(basis, coeffs))
            or any(_dot(mul, basis[i], ps)
                   != int(j == i + 1 and j < paired and i % 2 == 0)
                   for j, ps in enumerate(ps_rows) for i in range(j))):
        raise AssertionError("block reduction failed its certificate")


def polar(field, M, u, v):
    """The polar form of an upper-triangular M, pairing by pairing:
    b(u, v) = q(u+v) + q(u) + q(v) = sum_{i<j} M[i][j] (u_i v_j + u_j v_i).
    The oracle of `reference_reduction`."""
    mul = field.mul
    n = len(M)
    acc = 0
    for i in range(n):
        row, ui, vi = M[i], u[i], v[i]
        for j in range(i + 1, n):
            if row[j]:
                s = mul(ui, v[j]) ^ mul(u[j], vi)
                if s:
                    acc ^= mul(row[j], s)
    return acc


@pytest.mark.parametrize("field", (F2, F4, ConcreteField2(8),
                                   ConcreteField2(16)))
def test_polar_matches_value_differences(field):
    # b(u, v) = q(u+v) + q(u) + q(v), on upper-triangular matrices with
    # zero entries
    rng = random.Random(field.k)
    for _ in range(40):
        n = rng.randint(1, 6)
        M = [[rng.randrange(field.order) if j >= i and rng.random() < 0.6
              else 0 for j in range(n)] for i in range(n)]
        u, v = ([rng.choice((0, rng.randrange(field.order)))
                 for _ in range(n)] for _ in range(2))
        uv = [a ^ b for a, b in zip(u, v)]
        want = (_matrix_eval(field, M, uv) ^ _matrix_eval(field, M, u)
                ^ _matrix_eval(field, M, v))
        assert polar(field, M, u, v) == want


def test_elements_are_checked_where_they_enter():
    # mul and add take checked elements; every entry point checks
    q = block(F4, 1, 2)
    entries = [lambda: QForm(F4, diag=(4,)),
               lambda: QForm(F4, blocks=(BinaryBlock(1, -1),)),
               lambda: evaluate(q, (4, 0)),
               lambda: evaluate(q, (1, True)),
               lambda: block_normalize(F4, [[1, 4], [0, 1]]),
               lambda: block_normalize(F4, [[1, 1, 4], [0, 1, 0], [0, 0, 1]]),
               lambda: block_normalize(F4, [[1, True], [0, 1]]),
               lambda: block_normalize(F4, [[1, 0], [-1, 1]]),
               lambda: F4.pow(4, 3),
               lambda: F4.inv(7),
               lambda: F4.sqrt(4),
               lambda: F4.trace(4),
               lambda: F4.trace(-1)]
    for entry in entries:
        with pytest.raises(ValueError):
            entry()


def test_formal_monomials_are_checked_where_they_enter():
    # FormalField2.mul is unchecked like ConcreteField2.mul; a monomial
    # outside the field must still be refused at every entry point
    f = FormalField2(("a", "b"))
    a, bad = f.var("a"), frozenset(["z"])
    entries = [lambda: pfister_expand(f, [a, bad], f.one, 1),
               lambda: pfister_expand(f, [a], bad, 1)]
    for entry in entries:
        with pytest.raises(ValueError):
            entry()


def test_forms_over_formal_monomials_are_refused():
    # a QForm lives over F_{2^k}: valid formal monomials do not make one,
    # whichever constructor is asked
    f = FormalField2(("a", "d"))
    a, d = f.var("a"), f.var("d")
    entries = [lambda: QForm(f, blocks=(BinaryBlock(f.one, a),), diag=(d,)),
               lambda: QForm(f),
               lambda: hyperbolic(f),
               lambda: pfister_build(f, (a,), d),
               lambda: scale(d, pfister_build(f, (), a)),
               lambda: tensor_bilinear([f.one, d], QForm(f, diag=(a,)))]
    for entry in entries:
        with pytest.raises(TypeError, match="ConcreteField2"):
            entry()
    with pytest.raises(TypeError, match="needs a concrete field"):
        block_normalize(f, [[a]])


def test_field_guards():
    with pytest.raises(ValueError):
        ConcreteField2(0)
    with pytest.raises(ValueError):
        ConcreteField2(MAX_FIELD_BITS + 1)
    with pytest.raises(ValueError):
        F4.check(True)
    with pytest.raises(ValueError):
        F4.check(4)
    with pytest.raises(ValueError):
        F4.check("1")
    with pytest.raises(ZeroDivisionError):
        F4.inv(0)
    # a bool would share k = 1's cached tables, and print as True
    for k in (True, False, 2.0, "2", None):
        with pytest.raises(ValueError, match="field degree must be an int"):
            ConcreteField2(k)
    assert repr(ConcreteField2(16)) == "ConcreteField2(16)"


def test_formal_field_basics():
    f = FormalField2(("a", "b", "c"))
    # equal and hashed by the names, in order
    assert f == FormalField2(("a", "b", "c"))
    assert len({f, FormalField2(("a", "b", "c"))}) == 1
    for other in (FormalField2(("a", "b")), FormalField2(("b", "a", "c")),
                  ConcreteField2(3), ("a", "b", "c")):
        assert f != other and other != f
    a = f.var("a")
    assert f.mul(a, a) == f.one
    assert not f.is_zero(f.one)
    with pytest.raises(ValueError):
        f.var("z")
    with pytest.raises(ValueError):
        FormalField2(("a", "a"))
    for bad in ("", 3):
        with pytest.raises(ValueError, match="bad indeterminate name"):
            FormalField2(("a", bad))


# ---------------------------------------------------------------------------
# evaluation and the basic constructors


def test_evaluate_by_hand_f2():
    q = block(F2, 1, 1)     # x^2 + xy + y^2
    assert [evaluate(q, v) for v in ((0, 0), (1, 0), (0, 1), (1, 1))] == [0, 1, 1, 1]
    h = hyperbolic(F2)      # xy
    assert [evaluate(h, v) for v in ((0, 0), (1, 0), (0, 1), (1, 1))] == [0, 0, 0, 1]
    assert evaluate(diag_form(F2, 1, 0), (1, 1)) == 1


def test_evaluate_by_hand_f4():
    w = 2                   # a root of t^2 + t + 1
    assert F4.mul(w, w) == w ^ 1
    q = block(F4, 1, w)
    # q(w, 1) = w^2 + w + w = w^2
    assert evaluate(q, (w, 1)) == F4.mul(w, w)


def test_orth_sum_evaluates_to_sum():
    q1, q2 = block(F4, 1, 2), diag_form(F4, 3)
    s = orth_sum(q1, q2)
    assert s.dim == 3
    for v in all_vectors(F4, 3):
        assert evaluate(s, v) == evaluate(q1, v[:2]) ^ evaluate(q2, v[2:])


def test_orth_sum_guards():
    with pytest.raises(ValueError):
        orth_sum(block(F2, 1, 1), block(F4, 1, 1))


def test_hyperbolic_needs_concrete_field():
    assert hyperbolic(F4, 3).dim == 6


def test_form_validation():
    with pytest.raises(ValueError):
        QForm(F4, blocks=((1, 2),))
    with pytest.raises(ValueError):
        diag_form(F4, 5)
    with pytest.raises(ValueError, match="vector length 1 != dim 2"):
        evaluate(block(F4, 1, 2), (1,))


# ---------------------------------------------------------------------------
# scaling and tensoring


@pytest.mark.parametrize("field", (F2, F4, F8))
def test_scale_is_a_substitution(field):
    rng = random.Random(field.order)
    for _ in range(12):
        q = random_nonsingular_form(field, rng, max_dim=3)
        for a in range(1, field.order):
            scaled = scale(a, q)
            want = Counter(field.mul(a, evaluate(q, v))
                           for v in all_vectors(field, q.dim))
            assert value_counts(scaled) == want


def test_scale_identity_and_zero():
    q = block(F4, 3, 2)
    assert scale(1, q) == q
    with pytest.raises(ValueError):
        scale(0, q)


def test_tensor_bilinear_block_shape():
    a, b = 2, 3
    t = tensor_bilinear((1, a), block(F4, 1, b))
    assert t.blocks == (BinaryBlock(1, b),
                        BinaryBlock(a, F4.mul(F4.inv(a), b)))


def test_tensor_bilinear_value_counts():
    q = block(F4, 1, 2)
    t = tensor_bilinear((2, 3), q)
    want = Counter(
        F4.mul(2, evaluate(q, u)) ^ F4.mul(3, evaluate(q, v))
        for u in all_vectors(F4, 2) for v in all_vectors(F4, 2))
    assert value_counts(t) == want
    with pytest.raises(ValueError):
        tensor_bilinear((), q)
    with pytest.raises(ValueError):
        tensor_bilinear((0,), q)


# ---------------------------------------------------------------------------
# Pfister forms


def test_pfister_build_shapes():
    assert pfister_build(F4, (), 2) == block(F4, 1, 2)
    for m, slots in ((1, ()), (2, (3,)), (3, (3, 2))):
        assert pfister_build(F4, slots, 2).dim == 2 ** m
    # the block order the CLI prints: the last slot folds in first, and
    # a[1,b] = [a, b/a]
    a1, a2, b = 2, 3, 5
    a12 = F8.mul(a1, a2)
    assert pfister_build(F8, (a1, a2), b).blocks == tuple(
        BinaryBlock(a, F8.mul(F8.inv(a), b)) for a in (1, a2, a1, a12))
    with pytest.raises(ValueError):
        pfister_build(F4, (0,), 2)


def test_pfister_build_inverts_each_slot_once(monkeypatch):
    # one inverse per slot, however many blocks the slot scales
    slots = range(2, 12)
    k = 16
    want = [(1, 1)]
    for a in reversed(slots):
        a_inv = ref_inv(k, a)
        want += [(ref_mul(k, a, c), ref_mul(k, a_inv, d)) for c, d in want]
    calls = []
    inv = ConcreteField2.inv

    def counted(self, x):
        calls.append(x)
        return inv(self, x)

    monkeypatch.setattr(ConcreteField2, "inv", counted)
    q = pfister_build(ConcreteField2(k), slots, 1)
    assert len(calls) == 10
    assert q.blocks == tuple(BinaryBlock(a, b) for a, b in want)


def pfister_by_folds(field, a_slots, b):
    """`pfister_build` as it was before it folded every slot into one
    block list: one checked form per fold and per sum."""
    q = block(field, field.one, b)
    for a in reversed(a_slots):
        q = orth_sum(q, _fold_scale(a, q))
    return q


@pytest.mark.parametrize("k", (1, 2, 3, 4, 8, 16))
def test_pfister_build_matches_the_fold_by_fold_build(k):
    field = ConcreteField2(k)
    rng = random.Random(k)
    for m in range(4):
        for _ in range(20):
            slots = [rng.randrange(1, field.order) for _ in range(m)]
            b = rng.randrange(field.order)
            assert pfister_build(field, slots, b) == \
                pfister_by_folds(field, slots, b)


def test_pfister_expand_identities():
    f = FormalField2(("a1", "a2", "b"))
    a1, a2, b = (f.var(n) for n in ("a1", "a2", "b"))
    base_full = PfisterBase((a1, a2), b)
    assert pfister_expand(f, (a1, a2), b, 0) == Counter({(f.one, base_full): 1})
    inner = PfisterBase((), b)
    assert pfister_expand(f, (a1, a2), b, 2) == Counter({
        (f.one, inner): 1, (a1, inner): 1, (a2, inner): 1,
        (f.mul(a1, a2), inner): 1})
    # repeated scalars fold pairwise to 1 but keep their multiplicity
    assert pfister_expand(f, (a1, a1), b, 2) == Counter({
        (f.one, inner): 2, (a1, inner): 2})
    with pytest.raises(ValueError):
        pfister_expand(f, (a1,), b, 2)


def convolve(c1, c2):
    # value counts of an orthogonal sum multiply out coordinatewise;
    # that additivity is checked directly in test_orth_sum_evaluates_to_sum
    out = Counter()
    for a, m in c1.items():
        for b, n in c2.items():
            out[a ^ b] += m * n
    return out


@pytest.mark.parametrize("field,slots,b", [
    (F2, (1, 1), 1), (F4, (2, 3), 2), (F4, (3, 3), 1), (F8, (5,), 3),
])
def test_pfister_expand_matches_build(field, slots, b):
    # summing the scaled inner copies must reproduce the full form
    built = pfister_build(field, slots, b)
    want = value_counts(built)
    for peel in range(len(slots) + 1):
        pieces = pfister_expand(field, slots, b, peel)
        total_dim = 0
        counts = Counter({0: 1})
        for (s, base), mult in pieces.items():
            inner = pfister_build(field, base.a_slots, base.b)
            piece = value_counts(scale(s, inner))
            for _ in range(mult):
                counts = convolve(counts, piece)
                total_dim += inner.dim
        assert total_dim == built.dim
        assert counts == want


def test_pfister_expand_guards():
    with pytest.raises(ValueError, match="slots must be nonzero"):
        pfister_expand(F4, (2, 0), 1, 1)
    with pytest.raises(ValueError, match="peel out of range"):
        pfister_expand(F4, (2,), 1, 2)


@pytest.mark.parametrize("field", (F2, F4))
def test_pfister_hyperbolicity_over_finite_fields(field):
    els = list(field.elements())
    # one slot: <<b]] = [1, b] is anisotropic exactly when trace(b) = 1
    for b in els:
        w = witt_decompose(pfister_build(field, (), b))
        assert w.index == 1 - field.trace(b)
    # two or more slots: always hyperbolic
    for slots in itertools.product(els[1:], repeat=2):
        for b in els:
            p = pfister_build(field, slots, b)
            w = witt_decompose(p)
            assert w.index == p.dim // 2 and w.kernel.dim == 0


@pytest.mark.parametrize("field", (F2, F4))
def test_pfister_multiplicativity(field):
    els = list(field.elements())
    nonzero = els[1:]
    for m in (1, 2, 3):
        for slots in itertools.product(nonzero, repeat=m - 1):
            for b in els:
                p = pfister_build(field, slots, b)
                represented = value_set(p)
                assert field.one in represented
                for a in represented - {0}:
                    assert equivalent_ff(scale(a, p), p)


def test_pfister_isotropic_when_b_is_a_trace_zero_element():
    for field in (F4, F8):
        for b in field.elements():
            if field.trace(b) == 0:
                q = pfister_build(field, (), b)
                assert witt_decompose(q).index == 1


# ---------------------------------------------------------------------------
# classification


def naive_classify(q):
    f = q.field
    vecs = all_vectors(f, q.dim)
    basis = [tuple(f.one if j == i else 0 for j in range(q.dim))
             for i in range(q.dim)]

    def polar(u, v):
        s = tuple(a ^ b for a, b in zip(u, v))
        return evaluate(q, s) ^ evaluate(q, u) ^ evaluate(q, v)

    radical = [v for v in vecs if all(polar(v, e) == 0 for e in basis)]
    rad_dim = round(math.log(len(radical), f.order))
    vanishing = [v for v in radical if any(v) and evaluate(q, v) == 0]
    if rad_dim == 0:
        kind = NONDEGENERATE
    elif not vanishing:
        kind = NONSINGULAR_RADICAL_1
    else:
        kind = SINGULAR
    return kind, rad_dim


@pytest.mark.parametrize("field,dim", [(F2, 2), (F2, 3), (F2, 4), (F4, 2), (F4, 3)])
def test_classify_matches_naive_radical(field, dim):
    for q in all_forms(field, dim):
        cls = classify_form(q)
        kind, rad_dim = naive_classify(q)
        assert (cls.kind, cls.radical_dim) == (kind, rad_dim)
        if cls.kind == SINGULAR:
            w = cls.vanishing_radical_vector
            assert any(w) and evaluate(q, w) == 0


def test_classify_witness_lies_in_radical():
    q = QForm(F4, (BinaryBlock(1, 2),), (3, 2))
    cls = classify_form(q)
    assert cls.kind == SINGULAR and cls.radical_dim == 2
    w = cls.vanishing_radical_vector
    for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
        s = tuple(a ^ b for a, b in zip(w, e))
        assert evaluate(q, s) ^ evaluate(q, w) ^ evaluate(q, e) == 0


def test_classify_radical_check_fires(monkeypatch):
    # a wrong square root gives a radical vector on which q does not
    # vanish: q(1, 1) = 1 + 2 = 3 on <1, 2> over F_4
    monkeypatch.setattr(ConcreteField2, "sqrt", lambda self, x: 1)
    with pytest.raises(AssertionError, match="radical vector does not vanish"):
        classify_form(diag_form(F4, 1, 2))


def test_classify_needs_concrete_field():
    f = FormalField2(("a",))
    with pytest.raises(TypeError):
        classify_form(pfister_build(f, (), f.one))


# ---------------------------------------------------------------------------
# Arf invariant


def test_arf_values_on_blocks():
    for field in (F2, F4, F8):
        for a in field.elements():
            for b in field.elements():
                assert arf(block(field, a, b)) == field.trace(field.mul(a, b))


def test_arf_is_additive():
    # exhaustive over all pairs of blocks, so every form of dim <= 4
    for field in (F2, F4):
        blocks = [block(field, a, b)
                  for a, b in itertools.product(field.elements(), repeat=2)]
        for q1, q2 in itertools.product(blocks, repeat=2):
            assert arf(orth_sum(q1, q2)) == arf(q1) ^ arf(q2)


def test_arf_is_insensitive_to_scaling():
    for field in (F2, F4, F8):
        for a in range(1, field.order):
            for b1, b2 in itertools.product(field.elements(), repeat=2):
                q = block(field, b1, b2)
                assert arf(scale(a, q)) == arf(q)


def test_arf_guards():
    with pytest.raises(ValueError):
        arf(diag_form(F4, 1))
    f = FormalField2(("a",))
    with pytest.raises(TypeError):
        arf(pfister_build(f, (), f.one))


def test_arf_survives_change_of_basis():
    rng = random.Random(17)
    for field in (F2, F4):
        for _ in range(15):
            q = random_nonsingular_form(field, rng)
            if q.diag:
                continue
            M = coeff_matrix(q)
            T = random_invertible(field, q.dim, rng)
            C = compose_matrix(field, M, T)
            # the composed matrix still computes q after substitution
            want = Counter(mat_eval(field, C, v)
                           for v in all_vectors(field, q.dim))
            assert want == value_counts(q)
            q2 = block_normalize(field, C)
            assert not q2.diag
            assert arf(q2) == arf(q)


# ---------------------------------------------------------------------------
# isotropy


@pytest.mark.parametrize("field,dim", [
    (F2, 1), (F2, 2), (F2, 3), (F2, 4), (F4, 1), (F4, 2), (F4, 3), (F8, 2),
])
def test_isotropy_rules_match_exhaustive_search(field, dim):
    for q in all_forms(field, dim):
        assert is_isotropic(q) == brute_isotropic(q), format_qform(q)


def test_isotropy_spot_checks_f8_dim3():
    rng = random.Random(29)
    for _ in range(60):
        q = random_nonsingular_form(F8, rng, max_dim=3)
        assert is_isotropic(q) == brute_isotropic(q)
    assert is_isotropic(QForm(F8, (), (0,)))
    assert not is_isotropic(QForm(F8, (), (5,)))


# ---------------------------------------------------------------------------
# Witt decomposition


def check_witt_against_brute(q):
    w = witt_decompose(q)
    assert w.index == brute_witt_index(q)
    assert w.kernel.dim == q.dim - 2 * w.index
    if w.kernel.dim:
        assert not brute_isotropic(w.kernel)
    rebuilt = hyperbolic(q.field, w.index) if w.index else QForm(q.field)
    if w.kernel.dim:
        rebuilt = orth_sum(rebuilt, w.kernel) if w.index else w.kernel
    assert value_counts(rebuilt) == value_counts(q)


@pytest.mark.parametrize("field,dim", [(F2, 2), (F2, 3), (F2, 4), (F4, 2), (F4, 3)])
def test_witt_decompose_exhaustive(field, dim):
    for q in nonsingular_forms(field, dim):
        check_witt_against_brute(q)


def test_witt_decompose_sampled_larger():
    rng = random.Random(37)
    for _ in range(50):
        check_witt_against_brute(random_nonsingular_form(F4, rng, max_dim=4))
    for a, b in itertools.product(F8.elements(), repeat=2):
        check_witt_against_brute(block(F8, a, b))


def test_witt_examples_by_hand():
    # x^2 + xy + y^2 has no zero over F_2 but splits over F_4
    assert witt_decompose(block(F2, 1, 1)).index == 0
    assert witt_decompose(block(F4, 1, 1)).index == 1
    assert witt_decompose(hyperbolic(F2, 2)).index == 2
    w = witt_decompose(orth_sum(hyperbolic(F4), diag_form(F4, 3)))
    assert w.index == 1 and w.kernel == diag_form(F4, 1)


def test_witt_rejects_singular():
    with pytest.raises(ValueError):
        witt_decompose(diag_form(F4, 1, 2))


# ---------------------------------------------------------------------------
# equivalence


@pytest.mark.parametrize("field,maxdim", [(F2, 4), (F4, 3)])
def test_equivalence_agrees_with_value_counts(field, maxdim):
    by_dim = {}
    for dim in range(1, maxdim + 1):
        by_dim[dim] = [(q, value_counts(q)) for q in nonsingular_forms(field, dim)]
    for dim, forms in by_dim.items():
        for (q1, c1), (q2, c2) in itertools.combinations(forms, 2):
            assert equivalent_ff(q1, q2) == (c1 == c2), (
                format_qform(q1), format_qform(q2))
    # across dimensions nothing is equivalent
    assert not equivalent_ff(by_dim[1][0][0], by_dim[3][0][0])


def gl_equivalent(field, q1, q2):
    if q1.dim != q2.dim:
        return False
    n = q1.dim
    M1, M2 = coeff_matrix(q1), coeff_matrix(q2)
    vecs = all_vectors(field, n)
    for T in itertools.product(field.elements(), repeat=n * n):
        T = [list(T[i * n:(i + 1) * n]) for i in range(n)]
        if not is_invertible(field, T):
            continue
        C = compose_matrix(field, M1, T)
        if all(mat_eval(field, C, v) == mat_eval(field, M2, v) for v in vecs):
            return True
    return False


def test_equivalence_matches_change_of_basis_tiny():
    # every invertible substitution is enumerated, nothing is assumed
    forms2 = nonsingular_forms(F2, 2)
    for q1, q2 in itertools.combinations_with_replacement(forms2, 2):
        assert equivalent_ff(q1, q2) == gl_equivalent(F2, q1, q2)
    forms3 = nonsingular_forms(F2, 3)
    for q1, q2 in itertools.combinations_with_replacement(forms3, 2):
        assert equivalent_ff(q1, q2) == gl_equivalent(F2, q1, q2)


def test_equivalence_matches_change_of_basis_f4_dim2():
    forms = nonsingular_forms(F4, 2)
    rng = random.Random(43)
    pairs = [(rng.choice(forms), rng.choice(forms)) for _ in range(40)]
    for q1, q2 in pairs:
        assert equivalent_ff(q1, q2) == gl_equivalent(F4, q1, q2)


@pytest.mark.parametrize("order", (2, 4, 8))
def test_witt_cancellation(order):
    field = ConcreteField2({2: 1, 4: 2, 8: 3}[order])
    rng = random.Random(order)
    h = hyperbolic(field)
    for _ in range(500):
        q1 = random_nonsingular_form(field, rng)
        if rng.random() < 0.5:
            # cook up a likely-equivalent partner by scaling
            q2 = scale(rng.randrange(1, field.order), q1)
        else:
            q2 = random_nonsingular_form(field, rng)
        assert equivalent_ff(orth_sum(q1, h), orth_sum(q2, h)) == \
            equivalent_ff(q1, q2)


def test_equivalence_guards():
    with pytest.raises(ValueError):
        equivalent_ff(block(F2, 1, 1), block(F4, 1, 1))
    with pytest.raises(ValueError):
        equivalent_ff(diag_form(F4, 1, 2), diag_form(F4, 1, 2))


def equivalent_by_classifying_first(q1, q2):
    """`equivalent_ff` as it was before it classified each form once:
    both forms are classified, then decomposed."""
    if q1.field != q2.field:
        raise ValueError("forms live over different fields")
    for q in (q1, q2):
        if classify_form(q).kind == SINGULAR:
            raise ValueError("equivalence of singular forms is not supported")
    return witt_decompose(q1) == witt_decompose(q2)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_equivalence_matches_the_classify_first_version():
    # a singular form first, second and on both sides, each singular
    # shape (a zero entry, two entries), and forms over another field
    rng = random.Random(5)
    singular = [diag_form(F8, 0), diag_form(F8, 3, 0), diag_form(F8, 2, 5),
                orth_sum(block(F8, 1, 2), diag_form(F8, 1, 1))]
    nonsingular = [random_nonsingular_form(F8, rng) for _ in range(6)]
    others = [block(F4, 1, 1), diag_form(F4, 0, 1)]
    forms = singular + nonsingular + others
    seen = Counter()
    for q1, q2 in itertools.product(forms, repeat=2):
        got = outcome(equivalent_ff, q1, q2)
        assert got == outcome(equivalent_by_classifying_first, q1, q2), (q1, q2)
        seen[got] += 1
    assert seen["ValueError: equivalence of singular forms is not supported"]
    assert seen["ValueError: forms live over different fields"]
    assert seen[True] and seen[False]


# ---------------------------------------------------------------------------
# matrix reduction


def test_block_normalize_hand_examples():
    assert block_normalize(F2, [[1, 1], [0, 1]]) == block(F2, 1, 1)
    # folding the lower triangle first: same form, same answer
    assert block_normalize(F2, [[1, 0], [1, 1]]) == block(F2, 1, 1)
    assert block_normalize(F2, [[0, 0], [0, 0]]) == diag_form(F2, 0, 0)
    assert block_normalize(F4, [[3]]) == diag_form(F4, 3)
    with pytest.raises(ValueError):
        block_normalize(F2, [[1, 0]])


@pytest.mark.parametrize("field,dim", [(F2, 2), (F2, 3), (F4, 2)])
def test_block_normalize_preserves_values_exhaustive(field, dim):
    vecs = all_vectors(field, dim)
    idx = [(i, j) for i in range(dim) for j in range(i, dim)]
    for entries in itertools.product(field.elements(), repeat=len(idx)):
        M = [[0] * dim for _ in range(dim)]
        for (i, j), c in zip(idx, entries):
            M[i][j] = c
        q = block_normalize(field, M)
        assert q.dim == dim
        assert Counter(mat_eval(field, M, v) for v in vecs) == value_counts(q)


def test_block_normalize_basis_is_a_change_of_coordinates():
    rng = random.Random(53)
    for _ in range(20):
        dim = rng.randint(1, 4)
        M = [[rng.randrange(8) for _ in range(dim)] for _ in range(dim)]
        q, basis = block_normalize_with_basis(F8, M)
        assert is_invertible(F8, basis)
        assert q.dim == dim


def emitted(q):
    """Coefficients q(b_i) and standard pairing b(b_i, b_j) of block shape."""
    coeffs = [c for bl in q.blocks for c in (bl.a, bl.b)] + list(q.diag)
    n = len(coeffs)
    gram = [[int(i // 2 == j // 2 and i != j and max(i, j) < 2 * len(q.blocks))
             for j in range(n)] for i in range(n)]
    return coeffs, gram


@pytest.mark.parametrize("field,dim", [(ConcreteField2(16), 4),
                                       (ConcreteField2(1), 13)])
def test_block_normalize_basis_gram_beyond_exhaustive_sizes(field, dim):
    # order^dim > 4096: recompute the values and the polar Gram matrix
    # of the returned basis, b(u, v) = q(u+v) + q(u) + q(v)
    rng = random.Random(61)
    for _ in range(3):
        M = [[rng.randrange(field.order) if j >= i else 0 for j in range(dim)]
             for i in range(dim)]
        q, basis = block_normalize_with_basis(field, M)
        assert is_invertible(field, basis)
        coeffs, gram = emitted(q)
        assert [mat_eval(field, M, b) for b in basis] == coeffs
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                uv = [x ^ y for x, y in zip(u, v)]
                got = (mat_eval(field, M, uv) ^ mat_eval(field, M, u)
                       ^ mat_eval(field, M, v))
                assert got == gram[i][j]


def test_certificate_rejects_tampering():
    M = [[1, 2, 3, 1], [0, 2, 1, 3], [0, 0, 3, 2], [0, 0, 0, 1]]
    q, basis = block_normalize_with_basis(F4, M)
    assert q.blocks
    _check_certificate(M, q, basis)
    bl = q.blocks[0]
    bad_coeff = QForm(F4, (BinaryBlock(bl.a ^ 1, bl.b),) + q.blocks[1:],
                      q.diag)
    with pytest.raises(AssertionError, match="certificate"):
        _check_certificate(M, bad_coeff, basis)
    # b(b_1, b_1) = 0, so a first block vector replaced by its partner
    # cannot pair to 1 with it
    bad_basis = [basis[1]] + basis[1:]
    with pytest.raises(AssertionError, match="certificate"):
        _check_certificate(M, q, bad_basis)


def reference_reduction(field, M):
    """The O(n^4) reduction: the same pair search and updates as the
    library's, with every pairing recomputed through `polar`.  M is
    upper triangular; returns (QForm, basis rows)."""
    n = len(M)
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    remaining = list(range(n))
    blocks, out_basis = [], []
    while True:
        pair = next(((i, j) for ii, i in enumerate(remaining)
                     for j in remaining[ii + 1:]
                     if polar(field, M, basis[i], basis[j])), None)
        if pair is None:
            break
        i, j = pair
        c = field.inv(polar(field, M, basis[i], basis[j]))
        basis[j] = [field.mul(c, x) for x in basis[j]]
        for m in remaining:
            if m in (i, j):
                continue
            ci = polar(field, M, basis[m], basis[j])
            cj = polar(field, M, basis[m], basis[i])
            basis[m] = [x ^ field.mul(ci, yi) ^ field.mul(cj, yj)
                        for x, yi, yj in zip(basis[m], basis[i], basis[j])]
        blocks.append(BinaryBlock(_matrix_eval(field, M, basis[i]),
                                  _matrix_eval(field, M, basis[j])))
        out_basis += [basis[i], basis[j]]
        remaining.remove(i)
        remaining.remove(j)
    diag = tuple(_matrix_eval(field, M, basis[m]) for m in remaining)
    out_basis += [basis[m] for m in remaining]
    return QForm(field, tuple(blocks), diag), out_basis


def normalize_shapes():
    """(k, n) of the normalize requests in the benchmark's forms-warm
    workload, read from bench/workloads.py."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.NORMALIZE_SHAPES


def test_block_normalize_matches_reference_reduction():
    # seeded matrices with zero entries, then one dense matrix (every
    # entry on and above the diagonal nonzero) of each benchmark shape
    rng = random.Random(67)
    cases = []
    for k in (1, 2, 3, 4, 8, 16):
        field = ConcreteField2(k)
        for n in range(1, 11):
            for _ in range(2):
                cases.append((field, [
                    [rng.randrange(field.order)
                     if j >= i and rng.random() < 0.6 else 0
                     for j in range(n)] for i in range(n)]))
    shapes = normalize_shapes()
    assert len(shapes) == 8
    for k, n in shapes:
        field = ConcreteField2(k)
        cases.append((field, [[rng.randrange(1, field.order) if j >= i else 0
                               for j in range(n)] for i in range(n)]))
    for field, M in cases:
        assert block_normalize_with_basis(field, M) == \
            reference_reduction(field, M)


def test_certificate_rejects_a_stray_pairing_at_n24():
    # over F_2^16 at n = 24: add c * b_0 to b_4, the first row of the
    # third block, and fix up the emitted coefficient, so every value
    # q(b_i) still matches and only the pairing b(b_1, b_4) = c, of two
    # rows that are not neighbours, is wrong
    field = ConcreteField2(16)
    rng = random.Random(71)
    n = 24
    M = [[rng.randrange(field.order) if j >= i else 0 for j in range(n)]
         for i in range(n)]
    q, basis = block_normalize_with_basis(field, M)
    assert len(q.blocks) >= 3
    _check_certificate(M, q, basis)
    c = 0x1234
    bad_basis = [list(b) for b in basis]
    bad_basis[4] = [x ^ field.mul(c, y) for x, y in zip(basis[4], basis[0])]
    bl = q.blocks[2]
    a4 = bl.a ^ field.mul(field.mul(c, c), q.blocks[0].a)
    bad_q = QForm(field, q.blocks[:2] + (BinaryBlock(a4, bl.b),)
                  + q.blocks[3:], q.diag)
    assert _matrix_eval(field, M, bad_basis[4]) == a4
    with pytest.raises(AssertionError, match="certificate"):
        _check_certificate(M, bad_q, bad_basis)


def certificate_cases():
    """Seeded upper-triangular matrices for k in {1, 2, 3, 4, 8, 16} and
    n = 1..12, in turn dense (every entry on and above the diagonal
    nonzero), 60% filled, and block-diagonal with blocks of size 1..3."""
    rng = random.Random(73)
    for k in (1, 2, 3, 4, 8, 16):
        field = ConcreteField2(k)
        for n in range(1, 13):
            kind = (n + k) % 3
            starts = [0]
            while starts[-1] < n:
                starts.append(starts[-1] + rng.randint(1, 3))
            block_of = [max(s for s in starts if s <= i) for i in range(n)]
            M = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if kind == 0:
                        M[i][j] = rng.randrange(1, field.order)
                    elif kind == 1 and rng.random() < 0.6:
                        M[i][j] = rng.randrange(field.order)
                    elif kind == 2 and block_of[i] == block_of[j]:
                        M[i][j] = rng.randrange(field.order)
            yield field, M, rng


def verdict(check, M, q, basis):
    try:
        check(M, q, basis)
    except AssertionError as exc:
        assert str(exc) == "block reduction failed its certificate"
        return False
    return True


def test_certificate_agrees_with_the_dense_certificate():
    # on the true basis and on every single-entry corruption of a basis
    # row or of an emitted coefficient, the sparse certificate and the
    # dense one reach the same verdict
    rejected = 0
    for field, M, rng in certificate_cases():
        q, basis = block_normalize_with_basis(field, M)
        assert verdict(_check_certificate, M, q, basis)
        assert verdict(dense_certificate, M, q, basis)
        n = len(M)
        for r in range(n):
            for col in range(n):
                bad = [list(b) for b in basis]
                bad[r][col] ^= rng.randrange(1, field.order)
                want = verdict(dense_certificate, M, q, bad)
                assert verdict(_check_certificate, M, q, bad) == want
                rejected += not want
        coeffs = [c for bl in q.blocks for c in bl] + list(q.diag)
        paired = 2 * len(q.blocks)
        for r in range(n):
            bad = list(coeffs)
            bad[r] ^= rng.randrange(1, field.order)
            bad_q = QForm(field, tuple(BinaryBlock(*bad[i:i + 2])
                                       for i in range(0, paired, 2)),
                          tuple(bad[paired:]))
            assert not verdict(dense_certificate, M, bad_q, basis)
            assert not verdict(_check_certificate, M, bad_q, basis)
        # a basis one row short of the emitted coefficients
        assert not verdict(dense_certificate, M, q, basis[:-1])
        assert not verdict(_check_certificate, M, q, basis[:-1])
    assert rejected > 0


def test_every_reduction_checks_its_certificate(monkeypatch):
    # the certificate tests nothing unless the reduction runs it: with a
    # certificate that refuses everything, no reduction returns
    checked = []

    def refuse(M, q, basis, S=None):
        checked.append(len(basis))
        raise AssertionError("block reduction failed its certificate")

    monkeypatch.setattr(qform2, "_check_certificate", refuse)
    cases = 0
    for field, M, _ in certificate_cases():
        cases += 1
        with pytest.raises(AssertionError, match="certificate"):
            block_normalize_with_basis(field, M)
    assert len(checked) == cases


# ---------------------------------------------------------------------------
# formatting


def test_format_qform():
    assert format_qform(block(F2, 1, 1)) == "[1,1]"
    assert format_qform(orth_sum(hyperbolic(F4), diag_form(F4, 3))) == "[0,0]+<3>"
    assert format_qform(QForm(F2)) == "0"
