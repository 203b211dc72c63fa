"""Differential test of the case analysis against a reference copy of
the version it replaced.

The references below are `_case_of`, `ed_upper_char2`, `ed_lower_char2`
and `_ed_entry` as the library had them before `_ed_entry` walked the
case analysis once per row: each bound re-checked n, re-ran `_case_of`
and built its own `dim-so` step (and `pow2-part` where 4 | n).  They are
kept verbatim, built on the library's `_step` and `EdEntry`.  The
library must give equal entries, bounds and traces, step for step, and
raise the same ValueError text for the same bad n.
"""

import pytest

from spindim import edcalc
from spindim.edcalc import LOW_TABLE, MAX_N, MIN_N, EdEntry, _step


def _case_of(n: int) -> str:
    if n <= 6:
        return "trivial"
    if n <= 14:
        return "low"
    if n % 2:
        return "odd"
    if n % 4 == 2:
        return "2mod4"
    return "16" if n == 16 else "0mod4"


def ed_upper_char2(n: int):
    """Upper bound for n >= 15 with its derivation trace."""
    if type(n) is not int or not 15 <= n <= MAX_N:
        raise ValueError("the case analysis starts at n = 15")
    case = _case_of(n)
    dim = _step("dim-so", n=n)
    if case == "odd":
        dv = _step("spin-dim-odd", n=n)
        top = _step("generically-free-upper", dim_v=dv.out, dim_g=dim.out)
        return top.out, (dim, dv, top)
    dv = _step("half-spin-dim", n=n)
    if case == "2mod4":
        top = _step("generically-free-upper", dim_v=dv.out, dim_g=dim.out)
        return top.out, (dim, dv, top)
    if case == "16":
        plus = _step("add-vector-rep", dim_v=dv.out, n=n)
        top = _step("generically-free-upper", dim_v=plus.out, dim_g=dim.out)
        return top.out, (dim, dv, plus, top)
    gerbe = _step("pow2-part", n=n)
    top = _step("central-quotient-upper",
                dim_v=dv.out, dim_g=dim.out, gerbe_index=gerbe.out)
    return top.out, (dim, dv, gerbe, top)


def ed_lower_char2(n: int):
    """Lower bound for n >= 15 with its derivation trace.  The gcd
    steps recompute from the character-lattice orbit structure."""
    if type(n) is not int or not 15 <= n <= MAX_N:
        raise ValueError("the case analysis starts at n = 15")
    case = _case_of(n)
    dim = _step("dim-so", n=n)
    if case == "odd":
        r = (n - 1) // 2
        gcd = _step("heisenberg-gcd-odd", r=r)
        low = _step("gerbe-index-lower", index=gcd.out, dim_g=dim.out)
        return low.out, (dim, gcd, low)
    r = n // 2
    gcd = _step("heisenberg-gcd-even", r=r)
    if case == "2mod4":
        low = _step("gerbe-index-lower", index=gcd.out, dim_g=dim.out)
        return low.out, (dim, gcd, low)
    ind_a = _step("pow2-part", n=n)
    low = _step("index-sum-lower",
                index_a=ind_a.out, index_c=gcd.out, dim_g=dim.out)
    return low.out, (dim, gcd, ind_a, low)


def _ed_entry(n: int) -> EdEntry:
    """`ed_value` without its check that the bounds agree, so that
    `consistency_check` can report a mismatch instead."""
    if type(n) is not int or not MIN_N <= n <= MAX_N:
        raise ValueError(f"n must be between {MIN_N} and {MAX_N}")
    case = _case_of(n)
    if case == "trivial":
        s = _step("trivial-low", n=n)
        return EdEntry(n, 0, 0, 0, case, (s,), (s,))
    if case == "low":
        if n in LOW_TABLE:
            s = _step("low-range-value", n=n)
            return EdEntry(n, s.out, s.out, s.out, case, (s,), (s,))
        return EdEntry(n, None, None, None, case, (), ())
    upper, ut = ed_upper_char2(n)
    lower, lt = ed_lower_char2(n)
    return EdEntry(n, upper, upper, lower, case, ut, lt)


def outcome(fn, n):
    """fn(n), or the text of the ValueError it raises."""
    try:
        return fn(n)
    except ValueError as exc:
        return ("ValueError", str(exc))


def step_fields(trace):
    return [(s.rule, s.statement, s.inputs, s.out) for s in trace]


@pytest.mark.parametrize("n", range(MIN_N, MAX_N + 1))
def test_each_entry_matches_the_reference(n):
    got, ref = edcalc._ed_entry(n), _ed_entry(n)
    assert step_fields(got.upper_trace) == step_fields(ref.upper_trace)
    assert step_fields(got.lower_trace) == step_fields(ref.lower_trace)
    assert got == ref


@pytest.mark.parametrize("n", range(15, MAX_N + 1))
def test_each_bound_matches_the_reference(n):
    assert edcalc.ed_upper_char2(n) == ed_upper_char2(n)
    assert edcalc.ed_lower_char2(n) == ed_lower_char2(n)


@pytest.mark.parametrize("n", (2, 14, 65, 15.0, True))
def test_each_entry_point_refuses_as_the_reference(n):
    for name in ("_ed_entry", "ed_upper_char2", "ed_lower_char2"):
        assert outcome(getattr(edcalc, name), n) == outcome(globals()[name], n)
