"""Character lattices of the spin groups and the sign-flip action.

The structural facts frozen here (invariant factors, subgroup orders,
orbit shapes) were worked out by hand for small rank; the action tests
recompute images at the word level so they do not trust the lift/reduce
plumbing they are checking.
"""

import importlib.util
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindim import cli, repdim, spinlat
from spindim.abelian import subgroup_span
from spindim.repdim import (MAX_RANK, SpinCharData, WeylElt, build_char_data,
                            center_restriction, free_transitive_check,
                            orbits_on_faithful, weyl_act, weyl_identity)
from spindim.spinlat import (Parity, _f2_rank, expected_orbit_size,
                             orbit_structure)

PARITIES = (Parity.ODD, Parity.EVEN)


def signed_perm_word(r, w, word):
    """Image of a generator word under x_i -> (+/-)x_{perm[i]},
    A -> A - sum over flipped i of x_{perm[i]}.  Kept independent of
    the library implementation on purpose."""
    out = [0] * (r + 1)
    for i in range(r):
        sign = -1 if w.signs >> i & 1 else 1
        out[w.perm[i]] += sign * word[i]
        if w.signs >> i & 1:
            out[w.perm[i]] -= word[r]
    out[r] += word[r]
    return out


def random_weyl(rng, data):
    perm = tuple(rng.sample(range(data.r), data.r))
    signs = rng.choice(data.acting_masks)
    return WeylElt(perm, signs)


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("r", range(1, 7))
def test_lattice_shapes(r, parity):
    data = build_char_data(r, parity)
    assert data.xT.free_rank == r
    assert data.xT.invariant_factors == ()
    assert data.xL.invariant_factors == (2,) * (r - 1) + (4,)
    assert data.xL.order() == 2 ** (r + 1)
    assert data.xK.order == 2 ** r
    assert len(data.faithful) == 2 ** r
    assert data.faithful.isdisjoint(data.xK.members)
    assert data.faithful | data.xK.members == set(data.xL.elements())


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("r", range(1, 9))
def test_xK_equals_breadth_first_span(r, parity):
    # X(K) is built from the subset sums of the x_i; the generic
    # closure of the same generators is the independent oracle.
    data = build_char_data(r, parity)
    assert subgroup_span(data.xL, data.x).members == data.xK.members


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("r", range(1, 7))
def test_defining_identities(r, parity):
    data = build_char_data(r, parity)
    assert 2 * data.A == sum(data.x[1:], data.x[0])
    for xi in data.x:
        assert (2 * xi).is_identity()
    assert data.A in data.faithful
    # A has order 4, so the extension X(L) of X(K) does not split off it
    assert not (2 * data.A).is_identity()
    assert (4 * data.A).is_identity()


def test_faithful_set_r2_by_hand():
    data = build_char_data(2, Parity.ODD)
    x1, x2 = data.x
    A = data.A
    assert data.faithful == {A, A + x1, A + x2, A + x1 + x2}


def test_acting_masks_follow_parity():
    for r in range(1, 7):
        odd = build_char_data(r, Parity.ODD)
        assert sorted(odd.acting_masks) == list(range(2 ** r))
        even = build_char_data(r, Parity.EVEN)
        assert sorted(even.acting_masks) == [
            m for m in range(2 ** r) if bin(m).count("1") % 2 == 0]


def test_shift_is_additive_in_the_mask():
    data = build_char_data(4, Parity.ODD)
    for m1, m2 in itertools.product(range(16), repeat=2):
        assert data.shift(m1) + data.shift(m2) == data.shift(m1 ^ m2)


def test_build_guards():
    with pytest.raises(ValueError):
        build_char_data(0, Parity.ODD)
    with pytest.raises(ValueError):
        build_char_data(MAX_RANK + 1, Parity.ODD)
    with pytest.raises(ValueError):
        build_char_data(3, "odd")


def test_build_is_cached():
    assert build_char_data(3, Parity.ODD) is build_char_data(3, Parity.ODD)


@pytest.mark.parametrize("r", range(1, 9))
def test_both_parities_share_one_lattice(r):
    # only the acting masks depend on the parity; the Smith form is built
    # once per rank, the codes once per (rank, parity)
    odd, even = build_char_data(r, Parity.ODD), build_char_data(r, Parity.EVEN)
    assert odd is not even
    assert odd.xL is even.xL and odd.xT is even.xT
    assert odd.shift_codes == even.shift_codes
    assert odd.faithful_codes == even.faithful_codes
    assert len(odd.acting_masks) == 2 * len(even.acting_masks)


def test_a_bool_rank_is_rejected_and_leaves_the_cache_alone():
    # True == 1 and hash(True) == hash(1): an untyped cache would hand
    # the data built for one to the other
    build_char_data(1, Parity.ODD)
    for build in (build_char_data, orbit_structure):
        with pytest.raises(ValueError, match="rank must be"):
            build(True, Parity.ODD)
    data = build_char_data(1, Parity.ODD)
    assert type(data.r) is int
    assert "r=1," in repr(free_transitive_check(data))


def test_weyl_elt_validation():
    with pytest.raises(ValueError):
        WeylElt((0, 0), 0)
    with pytest.raises(ValueError):
        WeylElt((0, 1), 4)
    with pytest.raises(ValueError):
        WeylElt((0, 1), 0) * WeylElt((0, 1, 2), 0)


def test_weyl_elt_rejects_bools_and_floats():
    # each of these compares equal to a valid int, so the range checks
    # alone let it through
    for perm, signs in (((0, 1), True), ((0, 1), 1.0), ((True, False), 0),
                        ((1.0, 0), 0)):
        with pytest.raises(ValueError, match="must be integers"):
            WeylElt(perm, signs)
    assert WeylElt((1, 0), 1).signs == 1


def test_weyl_act_guards():
    data = build_char_data(2, Parity.ODD)
    with pytest.raises(ValueError, match="wrong rank"):
        weyl_act(data, weyl_identity(3), data.xL.generator(0))
    stranger = build_char_data(3, Parity.ODD).xL.generator(0)
    with pytest.raises(ValueError, match=r"on X\(T\) or X\(L\)"):
        weyl_act(data, weyl_identity(2), stranger)


@pytest.mark.parametrize("parity", PARITIES)
def test_action_preserves_relation_lattice(parity):
    # image of every relation word must die in the quotient, which is
    # exactly what makes the action well defined on X(T) and X(L)
    rng = random.Random(7)
    for r in (1, 2, 3, 5):
        data = build_char_data(r, parity)
        rels = list(data.xL.presentation.relations)
        for _ in range(20):
            w = random_weyl(rng, data)
            for rel in rels:
                img = signed_perm_word(r, w, list(rel))
                assert data.xL.element(img).is_identity()
            # X(T) has only the half-spin relation
            for rel in data.xT.presentation.relations:
                img = signed_perm_word(r, w, list(rel))
                assert data.xT.element(img).is_identity()


@pytest.mark.parametrize("parity", PARITIES)
def test_action_matches_word_level_formula(parity):
    rng = random.Random(19)
    for r in (1, 2, 3, 4):
        data = build_char_data(r, parity)
        for _ in range(30):
            w = random_weyl(rng, data)
            word = [rng.randint(-5, 5) for _ in range(r + 1)]
            for group in (data.xT, data.xL):
                c = group.element(word)
                expect = group.element(signed_perm_word(r, w, word))
                assert weyl_act(data, w, c) == expect


def test_action_commutes_with_reduction_to_xl():
    # X(T) -> X(L) is induced by the identity on words
    rng = random.Random(23)
    data = build_char_data(3, Parity.EVEN)
    for _ in range(50):
        w = random_weyl(rng, data)
        word = [rng.randint(-5, 5) for _ in range(4)]
        top = weyl_act(data, w, data.xT.element(word))
        down = data.xL.element(data.xT.lift(top))
        assert down == weyl_act(data, w, data.xL.element(word))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.data())
def test_action_is_a_group_action(r, odd, data_st):
    parity = Parity.ODD if odd else Parity.EVEN
    data = build_char_data(r, parity)
    perm = st.permutations(range(r)).map(tuple)
    signs = st.integers(0, 2 ** r - 1)
    w1 = WeylElt(data_st.draw(perm), data_st.draw(signs))
    w2 = WeylElt(data_st.draw(perm), data_st.draw(signs))
    word = [data_st.draw(st.integers(-4, 4)) for _ in range(r + 1)]
    c = data.xL.element(word)
    assert weyl_act(data, w1 * w2, c) == weyl_act(data, w1, weyl_act(data, w2, c))
    assert weyl_act(data, weyl_identity(r), c) == c


def test_action_permutes_faithful_and_kernel_sets():
    rng = random.Random(31)
    for parity in PARITIES:
        data = build_char_data(3, parity)
        for _ in range(25):
            w = WeylElt(tuple(rng.sample(range(3), 3)), rng.randrange(8))
            assert {weyl_act(data, w, s) for s in data.faithful} == data.faithful
            assert {weyl_act(data, w, k) for k in data.xK.members} == data.xK.members


def test_sign_flips_act_as_translations_on_faithful():
    # the orbit computation models the sign-flip subset I as adding
    # t_I; check that against the real action for every mask
    ident = lambda r: tuple(range(r))
    for parity in PARITIES:
        for r in (1, 2, 3, 4):
            data = build_char_data(r, parity)
            for mask in range(2 ** r):
                w = WeylElt(ident(r), mask)
                for s in data.faithful:
                    assert weyl_act(data, w, s) == s + data.shift(mask)


def test_center_restriction_values():
    data = build_char_data(2, Parity.ODD)
    for s in data.faithful:
        assert center_restriction(data, s) == "faithful"
    for k in data.xK.members:
        assert center_restriction(data, k) == "trivial"
    with pytest.raises(ValueError):
        center_restriction(data, data.xT.element([0, 0, 1]))


def brute_orbits(data):
    """Closure under the actual Weyl sign-flip action, no shift model."""
    ident = tuple(range(data.r))
    flips = [WeylElt(ident, m) for m in data.acting_masks]
    remaining = set(data.faithful)
    orbits = []
    while remaining:
        start = min(remaining)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for s in frontier:
                for w in flips:
                    t = weyl_act(data, w, s)
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        orbits.append(tuple(sorted(seen)))
        remaining -= seen
    orbits.sort(key=lambda o: o[0])
    return tuple(orbits)


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("r", (1, 2, 3))
def test_orbits_match_brute_force_closure(r, parity):
    data = build_char_data(r, parity)
    assert orbits_on_faithful(data) == brute_orbits(data)


def test_orbit_closure_check_rejects_a_tampered_translation_set():
    # {0, x_1, x_1 + x_2} is not a subgroup, so the orbit of the second
    # start point runs into the first orbit
    data = build_char_data(2, Parity.EVEN)
    tampered = data._replace(acting_masks=(0, 1, 3))
    with pytest.raises(AssertionError, match="failed to be a subgroup"):
        orbits_on_faithful(tampered)
    with pytest.raises(AssertionError, match="failed to be a subgroup"):
        free_transitive_check(tampered)


@pytest.mark.parametrize("r", range(1, 7))
def test_orbit_shapes(r):
    odd = free_transitive_check(build_char_data(r, Parity.ODD))
    assert odd.is_free and odd.is_transitive
    assert odd.orbit_sizes == (2 ** r,)

    even = free_transitive_check(build_char_data(r, Parity.EVEN))
    assert even.is_free and not even.is_transitive
    assert even.orbit_sizes == (2 ** (r - 1),) * 2


@pytest.mark.parametrize("parity", PARITIES)
@pytest.mark.parametrize("r", range(1, MAX_RANK + 1))
def test_orbit_structure_matches_the_enumeration(r, parity):
    # the F_2 elimination against the enumerated X(K), S and orbits
    shape = orbit_structure(r, parity)
    data = build_char_data(r, parity)
    rep = free_transitive_check(data)
    assert shape.xL is data.xL and shape.xT is data.xT
    assert shape.xK_order == len(data.xK_codes)
    assert shape.faithful_count == len(data.faithful_codes)
    assert shape.is_free == rep.is_free
    assert (shape.orbit_size,) * shape.orbit_count == rep.orbit_sizes


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 63), max_size=7))
def test_f2_rank_counts_the_xor_span(vectors):
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    assert 1 << _f2_rank(vectors) == len(span)


def test_orbit_structure_sees_dependent_generators(monkeypatch):
    # a lattice where x_1 = x_2: X(K) halves, and neither parity acts
    # freely any more
    xT, xL, x, A = spinlat._smith_lattice(3)
    monkeypatch.setattr(spinlat, "_smith_lattice",
                        lambda r: (xT, xL, (x[0], x[0], x[2]), A))
    odd, even = orbit_structure(3, Parity.ODD), orbit_structure(3, Parity.EVEN)
    assert odd.xK_order == even.xK_order == 4
    assert not odd.is_free and odd.orbit_sizes == (4,) * 3
    assert not even.is_free and even.orbit_sizes == (2,) * 6


def test_expected_orbit_size_is_the_computed_one():
    assert expected_orbit_size(5, Parity.ODD) == 32
    assert expected_orbit_size(5, Parity.EVEN) == 16
    for r in range(1, 33):
        for parity in PARITIES:
            shape = orbit_structure(r, parity)
            assert shape.orbit_size == expected_orbit_size(r, parity)
            assert shape.faithful_count == 1 << r


def test_orbit_structure_guards():
    for r, parity in ((0, Parity.ODD), ("7", Parity.ODD), (3, "odd")):
        with pytest.raises(ValueError):
            orbit_structure(r, parity)


@pytest.mark.parametrize("parity", PARITIES)
def test_orbits_partition_faithful(parity):
    data = build_char_data(5, parity)
    orbits = orbits_on_faithful(data)
    seen = [s for o in orbits for s in o]
    assert len(seen) == len(set(seen)) == len(data.faithful)
    assert set(seen) == data.faithful


def test_witness_is_an_orbit_chart():
    # mask -> A + t_mask enumerates the orbit of A without repeats,
    # which is what freeness plus transitivity on that orbit means
    for parity in PARITIES:
        data = build_char_data(4, parity)
        rep = free_transitive_check(data)
        values = list(rep.witness.values())
        assert len(values) == len(set(values)) == len(data.acting_masks)
        orbit_of_a = next(o for o in rep.orbits if data.A in o)
        assert set(values) == set(orbit_of_a)


# bench/tracer.py, loaded read-only by path
_TRACER = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parent.parent / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_TRACER)
_TRACER.loader.exec_module(tracer)


def test_spinlat_serves_only_the_three_traced_names_from_repdim():
    # the tracer spans these on `spinlat` and reads the cache of
    # `spinlat.build_char_data`; the alias must not grow past them
    for name in ("build_char_data", "orbits_on_faithful",
                 "free_transitive_check"):
        assert getattr(spinlat, name) is getattr(repdim, name)
    with pytest.raises(AttributeError, match="WeylElt"):
        spinlat.WeylElt
    repdim.build_char_data.cache_clear()
    real = repdim.build_char_data
    t = tracer.Tracer()
    t.install()
    try:
        argv = ["verify-heisenberg", "--r", "4", "--parity", "odd"]
        assert cli.run(argv)[0] == 0
        summary = t.summary()
        spans = [name for name, _, _, _ in t.spans]
    finally:
        t.uninstall()
    assert repdim.build_char_data is real
    assert summary["spinlat.build_char_data.misses"] == 1
    assert spans.count("repdim.divisibility_report") == 1
