"""Acceptance checks, one per shipped guarantee, each timed.

Run with -s to see one PASS line per criterion; each test also fails
loudly if its wall-clock budget is exceeded, so a regression in the
orbit or enumeration code cannot hide behind a green assert.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

from spindim.cli import run
from spindim.edcalc import (LOW_TABLE, consistency_check, ed_value,
                            verify_trace)
from spindim.invariants import Nonvanishing, SpinId, TorsorData, invariant_f
from spindim.qform2 import (ConcreteField2, BinaryBlock, QForm, arf, block,
                            block_normalize_with_basis, equivalent_ff,
                            evaluate, hyperbolic, is_nonsingular, orth_sum,
                            pfister_build, scale, witt_decompose)
from spindim.repdim import (build_char_data, divisibility_report,
                            free_transitive_check)
from spindim.spinlat import Parity
from test_invariants import assert_expansion_identity


def report(num, description, started, budget):
    elapsed = time.monotonic() - started
    verdict = "PASS" if elapsed < budget else "FAIL"
    line = f"ACCEPTANCE {num}: {verdict} ({elapsed:.2f}s / {budget:.0f}s) {description}"
    print(line)
    assert elapsed < budget, f"budget exceeded: {line}"


def closed_form(n):
    dim = n * (n - 1) // 2
    if n % 2:
        return 2 ** ((n - 1) // 2) - dim
    if n % 4 == 2:
        return 2 ** ((n - 2) // 2) - dim
    if n == 16:
        return 2 ** 7 + 16 - 120
    return 2 ** ((n - 2) // 2) - dim + (n & -n)


def test_acceptance_1_cli_table_matches_formulas():
    t0 = time.monotonic()
    code, out, err = run(["ed-table", "--min", "15", "--max", "40"])
    assert (code, err) == (0, "")
    lines = out.strip().split("\n")
    assert len(lines) == 26
    for n, line in zip(range(15, 41), lines):
        cells = line.split("\t")
        assert int(cells[0]) == n
        assert int(cells[1]) == int(cells[2]) == int(cells[3]) == closed_form(n)
        # re-derive each value through the step-by-step arithmetic checker
        e = ed_value(n)
        assert verify_trace(e.upper_trace) and verify_trace(e.lower_trace)
    assert lines[0].startswith("15\t23") and lines[1].startswith("16\t24")
    report(1, "CLI table 15..40 equals the case formulas", t0, 1)


def test_acceptance_2_anchor_values():
    t0 = time.monotonic()
    for n in range(3, 7):
        assert ed_value(n).value == 0
    assert {n: ed_value(n).value for n in (7, 8, 9, 10)} == LOW_TABLE
    for n in range(11, 15):
        e = ed_value(n)
        assert e.value is None and e.upper is None and e.lower is None
    anchors = {15: 23, 16: 24, 17: 120, 18: 103, 19: 341, 20: 326,
               64: 2147481696}
    for n, v in anchors.items():
        e = ed_value(n)
        assert e.value == e.upper == e.lower == v
    report(2, "trivial, known-low, open and anchor entries all exact", t0, 1)


def test_acceptance_3_lattice_structure_to_rank_12():
    t0 = time.monotonic()
    for r in range(1, 13):
        for parity in (Parity.ODD, Parity.EVEN):
            data = build_char_data(r, parity)
            assert data.xL.invariant_factors == (2,) * (r - 1) + (4,)
            assert data.xT.free_rank == r and not data.xT.invariant_factors
            assert data.xK.order == 1 << r
            assert len(data.faithful) == 1 << r
            rep = free_transitive_check(data)
            assert rep.is_free
            want = (1 << r,) if parity is Parity.ODD else (1 << (r - 1),) * 2
            assert rep.orbit_sizes == want
            # the witness chart mask -> A + shift(mask) is the bijection:
            # distinct images, one per acting mask, filling the orbit of A
            images = set(rep.witness.values())
            assert len(images) == len(rep.witness) == want[0]
            if parity is Parity.ODD:
                assert images == set(data.faithful)
    report(3, "lattice shapes and free sign-flip orbits for r = 1..12", t0, 10)


def test_acceptance_4_divisibility_exhaustive_to_rank_4():
    t0 = time.monotonic()
    for r in range(1, 5):
        for parity in (Parity.ODD, Parity.EVEN):
            rep = divisibility_report(build_char_data(r, parity),
                                      exhaustive=True)
            expect = 1 << (r if parity is Parity.ODD else r - 1)
            assert rep.min_dim == expect and rep.gcd_dim == expect
            assert rep.exhaustive_ok is True
            assert rep.exhaustive_checked_to >= 2 * expect
    report(4, "brute-force multiset enumeration confirms min and gcd, r <= 4",
           t0, 60)


def test_acceptance_5_consistency_15_to_64():
    t0 = time.monotonic()
    live_seen = 0
    for n in range(15, 65):
        rep = consistency_check(n)
        assert rep.ok and rep.problems == ()
        live_seen += len(rep.live_checks)
        for chk in rep.live_checks:
            assert chk.ok
    assert live_seen == 50    # every gcd, r = 7..32, was recomputed live
    report(5, "entries 15..64 re-verified, gcds recomputed from orbits", t0, 10)


def test_acceptance_6_quadratic_form_suite():
    t0 = time.monotonic()

    # Witt cancellation on 500 random pairs per field
    def random_form(field, rng):
        while True:
            nb = rng.randint(0, 2)
            nd = rng.randint(0, 1)
            if not 1 <= 2 * nb + nd <= 4:
                continue
            q = QForm(field,
                      tuple(BinaryBlock(rng.randrange(field.order),
                                        rng.randrange(field.order))
                            for _ in range(nb)),
                      tuple(rng.randrange(1, field.order) for _ in range(nd)))
            if is_nonsingular(q):
                return q

    for k in (1, 2, 3):
        field = ConcreteField2(k)
        rng = random.Random(k)
        h = hyperbolic(field)
        for _ in range(500):
            q1, q2 = random_form(field, rng), random_form(field, rng)
            assert equivalent_ff(orth_sum(q1, h), orth_sum(q2, h)) == \
                equivalent_ff(q1, q2)

    # Pfister multiplicativity, exhaustive over represented scalars
    for k in (1, 2):
        field = ConcreteField2(k)
        nonzero = list(field.elements())[1:]
        for m in (1, 2, 3):
            for slots in itertools.product(nonzero, repeat=m - 1):
                for b in field.elements():
                    p = pfister_build(field, slots, b)
                    values = {0}
                    for bl in p.blocks:
                        piece = {evaluate(block(field, bl.a, bl.b), v)
                                 for v in itertools.product(
                                     field.elements(), repeat=2)}
                        values = {x ^ y for x in values for y in piece}
                    for a in values - {0}:
                        assert equivalent_ff(scale(a, p), p)

    # Arf additivity, exhaustive over block pairs (= all dims <= 4)
    for k in (1, 2):
        field = ConcreteField2(k)
        blocks = [block(field, a, b)
                  for a, b in itertools.product(field.elements(), repeat=2)]
        for q1, q2 in itertools.product(blocks, repeat=2):
            assert arf(orth_sum(q1, q2)) == arf(q1) ^ arf(q2)

    # matrix reduction round-trips: push every vector through the
    # recorded change of basis and compare the normalized form against
    # v -> v^T M v pointwise.  Upper-triangular matrices are scanned
    # exhaustively wherever the scan fits (every combination except
    # order 4 at dim 4, which gets a dense random sample); general
    # matrices are sampled on top.
    def mat_value(field, M, v):
        acc = 0
        for i, vi in enumerate(v):
            for j, vj in enumerate(v):
                acc ^= field.mul(M[i][j], field.mul(vi, vj))
        return acc

    def roundtrip(field, M):
        n = len(M)
        q, basis = block_normalize_with_basis(field, M)
        assert q.dim == n
        for w in itertools.product(field.elements(), repeat=n):
            old = [0] * n
            for wi, row in zip(w, basis):
                for j in range(n):
                    old[j] ^= field.mul(wi, row[j])
            assert evaluate(q, w) == mat_value(field, M, old)

    rng = random.Random(99)
    for k in (1, 2):
        field = ConcreteField2(k)
        for n in (1, 2, 3, 4):
            cells = [(i, j) for i in range(n) for j in range(i, n)]
            if field.order ** len(cells) <= 1 << 12:
                for entries in itertools.product(field.elements(),
                                                 repeat=len(cells)):
                    M = [[0] * n for _ in range(n)]
                    for (i, j), e in zip(cells, entries):
                        M[i][j] = e
                    roundtrip(field, M)
            else:
                for _ in range(300):
                    M = [[0] * n for _ in range(n)]
                    for i, j in cells:
                        M[i][j] = rng.randrange(field.order)
                    roundtrip(field, M)
            for _ in range(25):    # general matrices, lower triangle folds
                M = [[rng.randrange(field.order) for _ in range(n)]
                     for _ in range(n)]
                roundtrip(field, M)

    # the hand-checked pair of Witt decompositions
    assert witt_decompose(block(ConcreteField2(1), 1, 1)).index == 0
    assert witt_decompose(block(ConcreteField2(2), 1, 1)).index == 1
    report(6, "cancellation, Arf additivity, multiplicativity, reductions",
           t0, 120)


def test_acceptance_7_invariant_suite():
    t0 = time.monotonic()
    generic = {
        SpinId.SPIN7: ("a", "b", "c", "d"),
        SpinId.SPIN8: ("a", "b", "c", "d", "e"),
        SpinId.SPIN9: ("a", "b", "c", "d", "e"),
        SpinId.SPIN10: ("a", "b", "c", "d"),
    }
    for group, labels in generic.items():
        rep = invariant_f(TorsorData(group, labels))
        assert_expansion_identity(rep)
        assert rep.nonvanishing.verdict is Nonvanishing.CERTIFIED_NONZERO
    degenerate = [
        TorsorData(SpinId.SPIN7, ("a", "b", "c", "1")),
        TorsorData(SpinId.SPIN8, ("a", "b", "c", "d", "d")),
        TorsorData(SpinId.SPIN9, ("a", "b", "c", "d", "1")),
        TorsorData(SpinId.SPIN10, ("a", "b", "c", "1")),
    ]
    for t in degenerate:
        rep = invariant_f(t)
        assert_expansion_identity(rep)
        assert rep.nonvanishing.verdict is Nonvanishing.ZERO
    report(7, "expansion identity + certificates for all four groups", t0, 1)


def test_acceptance_8_cli_determinism():
    t0 = time.monotonic()
    invocations = [
        ["ed-table", "--min", "3", "--max", "64", "--format", "json"],
        ["verify-lattice", "--r-max", "6"],
        ["verify-heisenberg", "--r", "6", "--parity", "even"],
        ["qform", "--field", "f2^3", "--op", "witt", "--form", "pf(2,3;1)+<1>"],
        ["symbol", "--normalize", "{a*b,c,d]+{b,c,d]"],
        ["invariant", "--group", "spin9", "--labels", "a,b,c,d,e"],
    ]
    for argv in invocations:
        first, second = run(argv), run(argv)
        assert first == second
        assert first[0] == 0
    report(8, "identical invocations print identical bytes", t0, 10)


# the fast criteria; 4 and 6 take seconds, not fractions of one
FAST_UNDER_O = ("1_cli_table_matches_formulas", "2_anchor_values",
                "3_lattice_structure_to_rank_12", "5_consistency_15_to_64",
                "7_invariant_suite", "8_cli_determinism")


def test_fast_acceptance_survives_python_dash_o():
    # -O strips bare assert statements from the library.  pytest still
    # checks the asserts of this file, which it rewrites into explicit
    # raises, so the subset passes under -O only if every runtime check
    # it relies on raises explicitly.
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=src)
    ids = [f"{os.path.abspath(__file__)}::test_acceptance_{name}"
           for name in FAST_UNDER_O]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *ids], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert f"{len(FAST_UNDER_O)} passed" in proc.stdout
