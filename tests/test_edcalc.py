"""Essential dimension table and its derivation traces.

The anchor values below are frozen from hand evaluation of the case
formulas; the trace tests re-run every step's arithmetic and the
consistency tests recompute the 2-power inputs from orbit data.
"""

import json
from types import SimpleNamespace

import pytest

from spindim import edcalc
from spindim.edcalc import (CHAR_NOTE, LOW_TABLE, MAX_N, MIN_N, RULES,
                            DerivationStep, EdEntry,
                            consistency_check, ed_lower_char2, ed_table,
                            ed_upper_char2, ed_value, group_numerics,
                            verify_trace, _heisenberg_gcd)
from spindim.spinlat import Parity

ANCHORS = {15: 23, 16: 24, 17: 120, 18: 103, 19: 341, 20: 326,
           64: 2147481696}


def closed_form(n):
    """The case formulas, restated flat for regression."""
    dim = n * (n - 1) // 2
    if n % 2:
        return 2 ** ((n - 1) // 2) - dim
    if n % 4 == 2:
        return 2 ** ((n - 2) // 2) - dim
    if n == 16:
        return 2 ** 7 + 16 - 120
    return 2 ** ((n - 2) // 2) - dim + (n & -n)


@pytest.mark.parametrize("n,value", sorted(ANCHORS.items()))
def test_anchor_values(n, value):
    entry = ed_value(n)
    assert entry.value == entry.upper == entry.lower == value


@pytest.mark.parametrize("n", range(3, 7))
def test_trivial_range(n):
    entry = ed_value(n)
    assert entry.value == 0 and entry.case == "trivial"
    assert verify_trace(entry.upper_trace)


@pytest.mark.parametrize("n,value", sorted(LOW_TABLE.items()))
def test_low_range_values(n, value):
    entry = ed_value(n)
    assert entry.value == value and entry.case == "low"


@pytest.mark.parametrize("n", range(11, 15))
def test_open_entries(n):
    entry = ed_value(n)
    assert entry.value is None
    assert entry.upper is None and entry.lower is None
    assert entry.case == "low"
    assert entry.upper_trace == () and entry.lower_trace == ()


def test_closed_form_regression():
    for n in range(15, MAX_N + 1):
        assert ed_value(n).value == closed_form(n)


def test_case_labels():
    assert ed_value(15).case == "odd"
    assert ed_value(16).case == "16"
    assert ed_value(18).case == "2mod4"
    assert ed_value(20).case == "0mod4"


def test_group_numerics():
    g = group_numerics(15)
    assert (g.dim_so, g.spin_dim, g.half_spin_dim, g.pow2_part) == (105, 128, None, 1)
    g = group_numerics(16)
    assert (g.dim_so, g.spin_dim, g.half_spin_dim, g.pow2_part) == (120, None, 128, 16)
    assert group_numerics(18).pow2_part == 2
    assert group_numerics(20).pow2_part == 4
    with pytest.raises(ValueError):
        group_numerics(2)
    with pytest.raises(ValueError):
        group_numerics(MAX_N + 1)
    with pytest.raises(ValueError):
        group_numerics(15.0)


def test_bound_functions_reject_small_n():
    with pytest.raises(ValueError):
        ed_upper_char2(14)
    with pytest.raises(ValueError):
        ed_lower_char2(14)
    with pytest.raises(ValueError):
        ed_value(2)
    # a float or bool n: an exact int, as everywhere in the table
    for bad in (8.0, 15.0, 16.0, True):
        for fn in (ed_value, consistency_check, group_numerics):
            with pytest.raises(ValueError):
                fn(bad)
    for fn in (ed_upper_char2, ed_lower_char2):
        with pytest.raises(ValueError):
            fn(15.0)
    for lo, hi in ((3, 64.0), (3.0, 64), (False, 10)):
        with pytest.raises(ValueError):
            ed_table(lo, hi)


def test_trace_rule_sequences():
    up, ut = ed_upper_char2(15)
    assert [s.rule for s in ut] == ["dim-so", "spin-dim-odd",
                                    "generically-free-upper"]
    _, ut16 = ed_upper_char2(16)
    assert [s.rule for s in ut16] == ["dim-so", "half-spin-dim",
                                      "add-vector-rep", "generically-free-upper"]
    _, lt20 = ed_lower_char2(20)
    assert [s.rule for s in lt20] == ["dim-so", "heisenberg-gcd-even",
                                      "pow2-part", "index-sum-lower"]
    _, lt18 = ed_lower_char2(18)
    assert [s.rule for s in lt18] == ["dim-so", "heisenberg-gcd-even",
                                      "gerbe-index-lower"]


def test_every_trace_reverifies():
    for n in range(MIN_N, MAX_N + 1):
        entry = ed_value(n)
        assert verify_trace(entry.upper_trace)
        assert verify_trace(entry.lower_trace)


def test_verify_trace_catches_tampering():
    good = ed_value(15).upper_trace
    bad = DerivationStep(good[0].rule, good[0].statement,
                         good[0].inputs, good[0].out + 1)
    assert not verify_trace((bad,) + good[1:])
    assert not verify_trace((DerivationStep("no-such-rule", "", (), 0),))
    assert verify_trace(())


def test_verify_trace_rejects_malformed_steps():
    # a missing input, rank 0, a string rank, a rank beyond the table,
    # an ill-typed input, inputs that are not name-value pairs, and
    # steps whose arithmetic holds but whose n or r no table row has
    # (beyond the table, a float, a bool), or whose other inputs or
    # output are not exact ints, or whose statement is not its rule's,
    # and an unhashable rule: the checker answers False instead of
    # raising
    def step(rule, inputs, out, statement=None):
        if statement is None:
            statement = RULES[rule].statement
        return DerivationStep(rule, statement, inputs, out)

    top = MAX_N // 2 + 1
    last_up = ed_value(15).upper_trace[-1]
    assert last_up.inputs == (("dim_g", 105), ("dim_v", 128))
    assert verify_trace((last_up,))
    steps = [step("dim-so", (), 0),
             step("heisenberg-gcd-odd", (("r", 0),), 1),
             step("heisenberg-gcd-odd", (("r", "7"),), 128),
             step("heisenberg-gcd-even", (("r", top),), 1 << (top - 1)),
             step("generically-free-upper", (("dim_g", 1), ("dim_v", "9")), 8),
             step("dim-so", (("n", 15, 0),), 105),
             step("dim-so", (("n", MAX_N + 1),), (MAX_N + 1) * MAX_N // 2),
             step("dim-so", (("n", 15.0),), 105),
             step("heisenberg-gcd-odd", (("r", True),), 2),
             step(last_up.rule, (("dim_g", 105.0), ("dim_v", 128.0)), 23),
             step(last_up.rule, last_up.inputs, 23.0),
             step("trivial-low", (("n", 5),), False),
             step(last_up.rule, last_up.inputs, 23, RULES["dim-so"].statement),
             step(["dim-so"], (("n", 15),), 105, RULES["dim-so"].statement)]
    # items that are no DerivationStep, a bare tuple of its fields too
    steps += [None, ("dim-so", RULES["dim-so"].statement, (("n", 15),), 105),
              ("dim-so", "x", (("n", 15),), 105), "abc"]
    for s in steps:
        assert verify_trace((s,)) is False, s


def test_steps_carry_statements_and_inputs():
    for s in ed_value(20).upper_trace + ed_value(20).lower_trace:
        assert s.statement == RULES[s.rule].statement
        assert s.statement
        assert all(isinstance(k, str) for k, _ in s.inputs)


def test_live_rules_are_marked():
    assert RULES["heisenberg-gcd-odd"].live
    assert RULES["heisenberg-gcd-even"].live
    assert not RULES["dim-so"].live


def test_heisenberg_gcd_live_at_every_rank():
    # the gcd is recomputed from the lattice at every rank the table uses
    for r in range(1, MAX_N // 2 + 1):
        assert _heisenberg_gcd(r, Parity.ODD) == 1 << r
        assert _heisenberg_gcd(r, Parity.EVEN) == 1 << (r - 1)


def test_consistency_all_n():
    for n in range(MIN_N, MAX_N + 1):
        rep = consistency_check(n)
        assert rep.ok, (n, rep.problems)
        assert rep.problems == ()
        for chk in rep.live_checks:
            assert chk.ok


def test_consistency_reports_a_bound_mismatch(monkeypatch):
    # a wrong orbit size breaks the lower bound's gcd step; the report
    # says so, with the live check filled in, where ed_value raises
    monkeypatch.setattr(edcalc, "orbit_structure",
                        lambda r, parity: SimpleNamespace(orbit_size=3))
    rep = consistency_check(18)
    assert not rep.ok
    assert (rep.entry.upper, rep.entry.lower) == (103, -150)
    assert "value does not equal both bounds" in rep.problems
    assert [(c.expected, c.got) for c in rep.live_checks] == [(256, 3)]
    with pytest.raises(AssertionError, match="disagree at n=18: 103 vs -150"):
        ed_value(18)


@pytest.mark.parametrize("side", ("upper_trace", "lower_trace"))
def test_consistency_reports_a_trace_that_fails_to_reverify(side,
                                                            monkeypatch):
    # the last step of one trace is off by one, its bound untouched:
    # the report says so, where ed_value would print the row
    real = edcalc._ed_entry

    def tampered(n):
        entry = real(n)
        *head, last = getattr(entry, side)
        bad = last._replace(out=last.out + 1)
        return entry._replace(**{side: (*head, bad)})

    monkeypatch.setattr(edcalc, "_ed_entry", tampered)
    rep = consistency_check(18)
    assert not rep.ok
    assert rep.problems == ("trace arithmetic failed to re-verify",)


def test_consistency_live_checks_cover_every_rank():
    for n in range(MIN_N, 15):
        assert consistency_check(n).live_checks == ()
    for n in range(15, MAX_N + 1):
        assert len(consistency_check(n).live_checks) == 1
    got = consistency_check(18).live_checks
    assert len(got) == 1 and got[0].expected == got[0].got == 256
    got = consistency_check(MAX_N).live_checks
    assert got[0].expected == got[0].got == 1 << 31


def test_char_note_attached():
    assert ed_value(8).char_note == CHAR_NOTE
    assert "characteristic 2" in CHAR_NOTE


def test_ed_table_tsv():
    out = ed_table(15, 20)
    lines = out.splitlines()
    assert out.endswith("\n")
    assert lines[0] == "15\t23\t23\t23\todd"
    assert lines[1] == "16\t24\t24\t24\t16"
    assert lines[3] == "18\t103\t103\t103\t2mod4"
    assert lines[5] == "20\t326\t326\t326\t0mod4"
    assert ed_table(11, 11) == "11\t?\t?\t?\tlow\n"


def test_ed_table_json():
    rows = json.loads(ed_table(13, 16, fmt="json"))
    assert [r["n"] for r in rows] == [13, 14, 15, 16]
    open_row = rows[0]
    assert open_row["value"] == "unknown" and open_row["trace"] == []
    assert open_row["upper"] == "unknown" and open_row["lower"] == "unknown"
    full_row = rows[2]
    assert full_row["value"] == 23
    assert {"rule", "quote", "out"} <= set(full_row["trace"][0])
    quotes = [s["quote"] for s in full_row["trace"]]
    assert any("generically free" in q for q in quotes)


def test_ed_table_json_steps_say_what_they_used():
    # each step names the trace it is in (the upper trace first), its
    # rule's live flag and its inputs by name, and its out follows from
    # those inputs by its rule
    keys = ["rule", "side", "live", "quote", "inputs", "out"]
    for row in json.loads(ed_table(MIN_N, MAX_N, fmt="json")):
        entry = ed_value(row["n"])
        assert [s["side"] for s in row["trace"]] == (
            ["upper"] * len(entry.upper_trace)
            + ["lower"] * len(entry.lower_trace)), row["n"]
        assert [s["rule"] for s in row["trace"]] == [
            s.rule for s in entry.upper_trace + entry.lower_trace]
        for s in row["trace"]:
            assert list(s) == keys
            rule = RULES[s["rule"]]
            assert s["live"] is rule.live and s["quote"] == rule.statement
            assert list(s["inputs"]) == sorted(s["inputs"])
            assert rule.fn(s["inputs"]) == s["out"], (row["n"], s)


def test_ed_table_guards(monkeypatch):
    # every guard fires before the first row is computed
    def no_rows(n):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(edcalc, "ed_value", no_rows)
    with pytest.raises(ValueError):
        ed_table(2, 10)
    with pytest.raises(ValueError):
        ed_table(20, 15)
    with pytest.raises(ValueError):
        ed_table(60, MAX_N + 1)
    for fmt in ("csv", "xml", "TSV", None):
        with pytest.raises(ValueError, match="unknown format"):
            ed_table(3, MAX_N, fmt)


def test_ed_table_deterministic():
    assert ed_table(15, 30, fmt="json") == ed_table(15, 30, fmt="json")
    assert ed_table(3, 64) == ed_table(3, 64)
