"""End-to-end command-line checks through run(); subprocess tests cover
the `python -m` entry points and the process exit in `main`.

Exit code contract: 0 success, 1 a verification failed, 2 usage error,
141 stdout closed before the output was written.
The failure paths that cannot be reached with honest inputs (the
verifications all pass on real data) are driven by monkeypatching the
library functions the commands call.
"""

import argparse
import gc
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spindim
from cli_corpus import HAND_ARGV, corpus, workloads
from spindim import cli, invariants, qform2
from spindim.cli import run
from spindim.edcalc import MAX_N, ed_table
from spindim.repdim import MAX_RANK, build_char_data, divisibility_report
from spindim.spinlat import Parity

# the source tree, for the subprocess tests' PYTHONPATH
SRC = os.path.dirname(os.path.dirname(spindim.__file__))


def ok_json(argv):
    code, out, err = run(argv)
    assert code == 0 and err == ""
    return json.loads(out)


def usage_error(argv):
    code, out, err = run(argv)
    assert code == 2, (out, err)
    assert out == ""
    assert err
    return err


# ---------------------------------------------------------------------------
# ed-table


def test_ed_table_tsv_matches_library():
    code, out, err = run(["ed-table", "--min", "15", "--max", "20"])
    assert (code, err) == (0, "")
    assert out == ed_table(15, 20)
    assert out.splitlines()[0] == "15\t23\t23\t23\todd"


def test_ed_table_json():
    rows = ok_json(["ed-table", "--min", "11", "--max", "16",
                    "--format", "json"])
    assert [r["n"] for r in rows] == list(range(11, 17))
    assert rows[0]["value"] == "unknown"
    assert rows[4]["value"] == 23
    assert rows[5]["trace"]


def test_ed_table_usage_errors():
    err = usage_error(["ed-table", "--min", "2", "--max", "10"])
    assert "range must satisfy" in err
    usage_error(["ed-table", "--min", "15"])
    usage_error(["ed-table", "--min", "15", "--max", "20", "--format", "csv"])
    usage_error(["ed-table", "--min", "20", "--max", "15"])


# ---------------------------------------------------------------------------
# verify-lattice


def test_verify_lattice():
    payload = ok_json(["verify-lattice", "--r-max", "4"])
    assert payload["ok"] is True
    assert len(payload["rows"]) == 8
    row = payload["rows"][0]
    assert {"r", "parity", "xL_invariant_factors", "xT_free_rank",
            "xK_order", "faithful_count", "action_free", "orbit_sizes",
            "ok"} <= set(row)
    odd4 = next(r for r in payload["rows"]
                if r["r"] == 4 and r["parity"] == "odd")
    assert odd4["xL_invariant_factors"] == [2, 2, 2, 4]
    assert odd4["orbit_sizes"] == [16]


def test_verify_lattice_at_max_rank():
    # the enumeration cap, and the table's own rank range above it
    for r_max in (MAX_RANK, MAX_N // 2):
        payload = ok_json(["verify-lattice", "--r-max", str(r_max)])
        assert payload["ok"] is True
        assert len(payload["rows"]) == 2 * r_max
        assert all(row["ok"] for row in payload["rows"])


def test_verify_lattice_usage():
    usage_error(["verify-lattice", "--r-max", "0"])
    usage_error(["verify-lattice", "--r-max", str(MAX_N // 2 + 1)])
    usage_error(["verify-lattice", "--r-max", "99"])
    usage_error(["verify-lattice"])


def test_verify_lattice_failure_exit_code(monkeypatch):
    real = cli.spinlat.orbit_structure

    def broken(r, parity):
        return real(r, parity)._replace(is_free=False)

    monkeypatch.setattr(cli.spinlat, "orbit_structure", broken)
    code, out, err = run(["verify-lattice", "--r-max", "2"])
    assert code == 1
    assert json.loads(out)["ok"] is False


# ---------------------------------------------------------------------------
# verify-heisenberg


def test_verify_heisenberg_exhaustive_small_rank():
    payload = ok_json(["verify-heisenberg", "--r", "4", "--parity", "odd"])
    assert payload["ok"] is True
    assert payload["expected"] == 16
    assert payload["min_faithful_dim"] == 16 and payload["gcd_dim"] == 16
    assert payload["exhaustive_checked_to"] == 32
    assert payload["exhaustive_ok"] is True


def test_verify_heisenberg_even_parity():
    payload = ok_json(["verify-heisenberg", "--r", "3", "--parity", "even"])
    assert payload["expected"] == 4
    assert payload["orbit_sizes"] == [4, 4]


def test_verify_heisenberg_skips_brute_force_at_large_rank():
    payload = ok_json(["verify-heisenberg", "--r", "8", "--parity", "even"])
    assert payload["ok"] is True
    assert payload["exhaustive_checked_to"] is None
    assert payload["exhaustive_ok"] is None


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_verify_heisenberg_at_max_rank(parity):
    for r in (MAX_RANK, MAX_N // 2):
        payload = ok_json(["verify-heisenberg", "--r", str(r),
                           "--parity", parity])
        assert payload["ok"] is True
        assert payload["achieving_multiset_size"] == payload["expected"]


def test_verify_heisenberg_usage():
    for r in ("0", str(MAX_N // 2 + 1)):
        assert "between 1 and 32" in usage_error(
            ["verify-heisenberg", "--r", r, "--parity", "odd"])
    usage_error(["verify-heisenberg", "--r", "3", "--parity", "both"])
    usage_error(["verify-heisenberg", "--parity", "odd"])


def test_verify_heisenberg_enumerates_nothing_above_rank_6(monkeypatch):
    def forbidden(r, parity):
        raise AssertionError("verify-heisenberg enumerated the characters")

    monkeypatch.setattr(spindim.repdim, "build_char_data", forbidden)
    for r in range(7, MAX_N // 2 + 1):
        for parity in ("odd", "even"):
            payload = ok_json(["verify-heisenberg", "--r", str(r),
                               "--parity", parity])
            assert payload["ok"] is True


@pytest.mark.parametrize("parity", list(Parity))
@pytest.mark.parametrize("r", range(1, MAX_RANK + 1))
def test_verify_heisenberg_matches_enumerated_report(r, parity):
    payload = ok_json(["verify-heisenberg", "--r", str(r),
                       "--parity", parity.value])
    rep = divisibility_report(build_char_data(r, parity), exhaustive=r <= 6)
    assert payload["orbit_sizes"] == list(rep.orbit_sizes)
    assert payload["min_faithful_dim"] == rep.min_dim
    assert payload["gcd_dim"] == rep.gcd_dim
    assert payload["achieving_multiset_size"] == rep.min_achieving.total_dim
    assert payload["exhaustive_checked_to"] == rep.exhaustive_checked_to
    assert payload["exhaustive_ok"] == rep.exhaustive_ok


def test_verify_heisenberg_failure_exit_code(monkeypatch):
    real = spindim.repdim.divisibility_report

    def broken(data, exhaustive=False):
        return real(data, exhaustive=exhaustive)._replace(gcd_dim=3)

    monkeypatch.setattr(spindim.repdim, "divisibility_report", broken)
    code, out, err = run(["verify-heisenberg", "--r", "2", "--parity", "odd"])
    assert code == 1
    assert json.loads(out)["ok"] is False


# ---------------------------------------------------------------------------
# qform


def test_qform_witt():
    payload = ok_json(["qform", "--field", "f2^2", "--op", "witt",
                       "--form", "[1,1]+[2,3]"])
    assert payload["witt_index"] == 2
    assert payload["kernel"] == "0"
    assert payload["dim"] == 4


def test_qform_witt_anisotropic_over_f2():
    payload = ok_json(["qform", "--field", "f2^1", "--op", "witt",
                       "--form", "[1,1]"])
    assert payload["witt_index"] == 0
    assert payload["kernel"] == "[1,1]"


def test_qform_arf():
    payload = ok_json(["qform", "--field", "f2^2", "--op", "arf",
                       "--form", "pf(2;1)"])
    assert payload["arf"] == 0
    assert payload["dim"] == 4
    payload = ok_json(["qform", "--field", "f2^1", "--op", "arf",
                       "--form", "[1,1]"])
    assert payload["arf"] == 1


def test_qform_classify():
    payload = ok_json(["qform", "--field", "f2^2", "--op", "classify",
                       "--form", "[1,1]+<0>"])
    assert payload["class"] == "singular"
    assert payload["radical_dim"] == 1
    assert payload["vanishing_radical_vector"] == ["0", "0", "1"]
    payload = ok_json(["qform", "--field", "f2^2", "--op", "classify",
                       "--form", "[1,2]"])
    assert payload["class"] == "nondegenerate"


def test_qform_normalize():
    payload = ok_json(["qform", "--field", "f2^1", "--op", "normalize",
                       "--form", "mat(1,1;0,1)"])
    assert payload["form"] == "[1,1]"
    # entries below the diagonal fold up to the same form
    payload2 = ok_json(["qform", "--field", "f2^1", "--op", "normalize",
                        "--form", "mat(1,0;1,1)"])
    assert payload2["form"] == "[1,1]"


def test_qform_normalize_size_limit():
    # the limit is checked before any entry is parsed, so an oversized
    # matrix of bad entries is a size error, not an element error
    limit = qform2.MAX_MATRIX_DIM

    def normalize(n, entry="1"):
        rows = ";".join(",".join(entry if j >= i else "0" for j in range(n))
                        for i in range(n))
        return ["qform", "--field", "f2^1", "--op", "normalize",
                "--form", f"mat({rows})"]

    assert "larger than" in usage_error(normalize(limit + 1))
    assert "larger than" in usage_error(normalize(limit + 1, entry="g"))
    wide = ["qform", "--field", "f2^1", "--op", "normalize",
            "--form", "mat(" + ",".join(["1"] * (limit + 1)) + ")"]
    assert "larger than" in usage_error(wide)
    payload = ok_json(normalize(limit))
    # the --help text names the cap, so changing the cap alone fails here
    assert f"at most {limit} rows" in " ".join(cli.__doc__.split())
    # q = sum_{i<=j} x_i x_j over F_2: its polar Gram matrix is J - I,
    # nonsingular at even n, so the form splits into n/2 blocks
    assert payload["form"].count("[") == limit // 2


def test_qform_equiv():
    payload = ok_json(["qform", "--field", "f2^2", "--op", "equiv",
                       "--form", "[1,1]", "--form2", "[0,0]"])
    assert payload["equivalent"] is True
    payload = ok_json(["qform", "--field", "f2^1", "--op", "equiv",
                       "--form", "[1,1]", "--form2", "[0,0]"])
    assert payload["equivalent"] is False


def test_qform_usage_errors():
    assert "needs --form2" in usage_error(
        ["qform", "--field", "f2^2", "--op", "equiv", "--form", "[1,1]"])
    for op in ("arf", "witt", "classify", "normalize"):
        assert "--form2 is only valid with --op equiv" in usage_error(
            ["qform", "--field", "f2^2", "--op", op, "--form", "[1,1]",
             "--form2", "garbage"])
    assert "Arf invariant" in usage_error(
        ["qform", "--field", "f2^2", "--op", "arf", "--form", "<1>"])
    usage_error(["qform", "--field", "f2^2", "--op", "witt", "--form", "<0>"])
    usage_error(["qform", "--field", "f3^2", "--op", "arf", "--form", "[1,1]"])
    usage_error(["qform", "--field", "f2^0", "--op", "arf", "--form", "[1,1]"])
    usage_error(["qform", "--field", "f2^2", "--op", "arf", "--form", "[g,1]"])
    usage_error(["qform", "--field", "f2^2", "--op", "arf", "--form", "foo"])
    usage_error(["qform", "--field", "f2^2", "--op", "arf", "--form", "[4,1]"])
    usage_error(["qform", "--field", "f2^2", "--op", "normalize",
                 "--form", "mat(1,2)"])
    usage_error(["qform", "--field", "f2^2", "--op", "transmogrify",
                 "--form", "[1,1]"])


@pytest.mark.parametrize("field", ["f2^\u0663", "f2^\uff13", "f2^\u00b2",
                                   "f2^3 ", "f2^0x3"])
def test_field_degree_is_ascii_digits(field):
    # Arabic-Indic and fullwidth 3 are \d digits that int() reads as 3
    err = usage_error(["qform", "--field", field, "--op", "arf",
                       "--form", "[1,1]"])
    assert err == f"bad field {field!r} (expected f2^K)\n"


@pytest.mark.parametrize("field, form, message", [
    ("f2^3", "[a,1]", "not an element of F_{2^3}: 'a'"),
    ("f2^3", "<" + "f" * 5000 + ">",
     "not an element of F_{2^3}: '" + "f" * 5000 + "'"),
    ("f2^" + "9" * 5000, "[1,1]", "field degree must be between 1 and 16"),
    ("f2^" + "0" * 5000 + "17", "[1,1]",
     "field degree must be between 1 and 16"),
], ids=["letter", "long-element", "long-degree", "long-degree-zeros"])
def test_element_and_degree_errors_quote_the_input(field, form, message):
    # the element as typed, not its value in decimal, and no int() digit
    # limit error for a long element or degree
    assert usage_error(["qform", "--field", field, "--op", "arf",
                        "--form", form]) == message + "\n"


def test_long_degree_with_leading_zeros_builds_the_field():
    field = "f2^" + "0" * 5000 + "3"
    argv = ["qform", "--field", "f2^3", "--op", "arf", "--form", "[1,5]"]
    want = ok_json(argv)
    assert ok_json(argv[:2] + [field] + argv[3:]) == dict(want, field=field)


def _qform(form, op="arf"):
    return ["qform", "--field", "f2^2", "--op", op, "--form", form]


@pytest.mark.parametrize("argv, message", [
    (_qform(""), "empty form expression"),
    (_qform("[1,2,3]"), "block needs two entries: '[1,2,3]'"),
    (_qform("pf(1,2)"),
     "pf(...) needs 'slots;unit', e.g. pf(2,3;1): 'pf(1,2)'"),
    (_qform("foo"), "cannot parse form summand 'foo'"),
    (_qform("[1,1]", "normalize"), "normalize expects mat(row;row;...)"),
    (_qform("mat(1,2)", "normalize"), "coefficient matrix must be square"),
    (["symbol", "--normalize", ""], "empty symbol expression"),
    (["symbol", "--normalize", "{a,&,c]"], "bad monomial factor '&'"),
    (["symbol", "--normalize", "{a]"],
     "a symbol needs at least two slots: '{a]'"),
    (["symbol", "--normalize", "nonsense"],
     "cannot parse symbol term 'nonsense'"),
    # neither grammar nests: a '+' or ',' inside brackets splits there
    (_qform("[1+1,2]"), "cannot parse form summand '[1'"),
    (_qform("pf(1+2;3)"), "cannot parse form summand 'pf(1'"),
    (["symbol", "--normalize", "{a,{b,c]]"], "bad monomial factor '{b'"),
    (["symbol", "--normalize", "{a,b+c"], "cannot parse symbol term '{a,b+c'"),
    # b*b is b modulo x^2 + x, not 1: {a,b*b] + {a,b] = {a, b^2 + b] = 0,
    # so reading b*b as 1 would print {a,1] + {a,b]
    (["symbol", "--normalize", "{a,b*b]+{a,b]"],
     "repeated additive factor 'b'"),
    (["symbol", "--normalize", "{a,b*b*b]"], "repeated additive factor 'b'"),
])
def test_expression_parser_guards(argv, message):
    assert run(argv) == (2, "", message + "\n")


def test_pfister_slots_must_not_be_empty():
    for form in ("pf(1,,2;1)", "pf(1,;1)", "pf(,1;1)", "pf(,;1)"):
        assert "bad field element ''" in usage_error(
            ["qform", "--field", "f2^2", "--op", "witt", "--form", form])
    # no slots at all is still the 0-fold form [1, b]
    assert ok_json(["qform", "--field", "f2^2", "--op", "witt",
                    "--form", "pf(;1)"]) == ok_json(
        ["qform", "--field", "f2^2", "--op", "witt", "--form", "[1,1]"])


@st.composite
def form_summands(draw):
    """A field f2^k, k in 1..16, and a list of summand texts with the
    QForm each one stands for on its own."""
    field = qform2.ConcreteField2(draw(st.integers(1, 16)))
    elem = st.integers(0, (1 << field.k) - 1)
    unit = st.integers(1, (1 << field.k) - 1)
    summands = []
    for kind in draw(st.lists(st.sampled_from("bdp"), min_size=1, max_size=5)):
        if kind == "b":
            a, b = draw(elem), draw(elem)
            summands.append((f"[{a:x},{b:x}]", qform2.block(field, a, b)))
        elif kind == "d":
            c = draw(elem)
            summands.append((f"<{c:x}>", qform2.diag_form(field, c)))
        else:
            slots = draw(st.lists(unit, max_size=3))
            b = draw(elem)
            text = "pf(" + ",".join(f"{a:x}" for a in slots) + f";{b:x})"
            summands.append((text, qform2.pfister_build(field, slots, b)))
    return field, summands


@settings(max_examples=200, deadline=None)
@given(form_summands())
def test_parse_form_equals_orth_sum_fold(case):
    field, summands = case
    want = qform2.QForm(field)
    for _, q in summands:
        want = qform2.orth_sum(want, q)
    assert qform2.parse_form(field, "+".join(t for t, _ in summands)) == want


def test_every_printed_form_parses_back():
    # `format_qform` is one-to-one, so format(parse(t)) == t for each
    # printed t = format(q) says parse(t) == q
    printed = set()
    for argv in corpus():
        if argv[:1] != ["qform"]:
            continue
        out = run(argv)[1]
        if not out.startswith("{"):     # help or a usage error
            continue
        payload = json.loads(out)
        field = qform2.parse_field_name(payload["field"])
        for key in ("form", "form2", "kernel"):
            if key in payload:
                text = payload[key]
                q = qform2.parse_form(field, text)
                assert qform2.format_qform(q) == text, (argv, key)
                printed.add(text)
    assert "0" in printed and len(printed) > 300


def test_every_printed_symbol_parses_back():
    # normalizing a printed symbol prints it again: the `symbol` output
    # and the `invariant` payload's "symbol" both read back unchanged
    printed = set()
    for argv in corpus():
        if argv[:1] not in (["symbol"], ["invariant"]):
            continue
        code, out, _ = run(argv)
        if code != 0 or out.startswith("usage"):
            continue
        text = (json.loads(out)["symbol"] if argv[0] == "invariant"
                else out.rstrip("\n"))
        s = invariants.parse_symbol_expr(text)
        assert invariants.format_symbol(invariants.symbol_normalize(s)) \
            == text, (argv, text)
        printed.add(text)
    assert "0" in printed and len(printed) > 300


def test_form_dimension_limit(monkeypatch):
    limit = qform2.MAX_FORM_DIM
    f = qform2.ConcreteField2(1)
    # pf with m slots has dimension 2^(m+1); the limit is a power of two
    slots = limit.bit_length() - 2
    at_limit = "pf(" + ",".join(["1"] * slots) + ";1)"
    assert qform2.parse_form(f, at_limit).dim == limit
    # limit - 1 = 2^(m+1) - 1 = pf(m-1 slots) + ... + pf(0 slots) + <1>
    below = "+".join("pf(" + ",".join(["1"] * m) + ";1)"
                     for m in range(slots)) + "+<1>"
    assert qform2.parse_form(f, below).dim == limit - 1

    def qform(form):
        return ["qform", "--field", "f2^2", "--op", "arf", "--form", form]

    assert f"larger than {limit}" in usage_error(qform(at_limit + "+<1>"))
    assert f"larger than {limit}" in usage_error(qform(below + "+[1,1]"))
    diagonal = "+".join(["<1>"] * (limit + 1))
    assert f"larger than {limit}" in usage_error(qform(diagonal))
    # a Pfister summand past the limit is refused before it is built
    monkeypatch.setattr(cli.qform2, "pfister_build", None)
    eighteen = "pf(" + ",".join(["1"] * 18) + ";1)"
    assert f"larger than {limit}" in usage_error(qform(eighteen))
    assert f"larger than {limit}" in usage_error(qform("<1>+" + at_limit))


# ---------------------------------------------------------------------------
# symbol


@pytest.mark.parametrize("expr,want", [
    ("{a*b,c,d] + {b,c,d]", "{a,c,d]"),
    ("{b,a,c] + {a,b,c]", "0"),
    ("{1,c,d]", "0"),
    ("{a,a,c]", "0"),
    ("{a*a,b]", "0"),     # a square in a multiplicative slot is trivial
    ("{a,b+c]", "{a,b] + {a,c]"),
    ("0", "0"),
    ("{d,a]", "{d,a]"),
])
def test_symbol_normalize(expr, want):
    code, out, err = run(["symbol", "--normalize", expr])
    assert (code, err) == (0, "")
    assert out.rstrip("\n") == want


def test_symbol_usage_errors():
    usage_error(["symbol", "--normalize", "{a]"])
    usage_error(["symbol", "--normalize", "nonsense"])
    usage_error(["symbol", "--normalize", "{a,&,c]"])
    usage_error(["symbol", "--normalize", ""])


def test_symbol_expansion_limit():
    limit = invariants.MAX_SYMBOL_EXPANSION
    # three slots of 16 factors: 16^3 = limit choices for one additive piece
    mono = "*".join(f"x{i}" for i in range(16))
    at_limit = "{" + ",".join([mono] * 3) + ",b]"
    assert 16 ** 3 == limit
    code, out, err = run(["symbol", "--normalize", at_limit])
    # every pick of three distinct factors comes in 3! orders: all cancel
    assert (code, out, err) == (0, "0\n", "")
    for past in (at_limit + "+{a,b]",
                 "{" + ",".join([mono] * 3) + ",b+c]",
                 "{" + ",".join([mono] * 5) + ",b]"):
        assert f"more than {limit}" in usage_error(["symbol", "--normalize", past])


def test_a_long_symbol_expression_splits_in_linear_time():
    # an argument as long as Linux allows (128 KiB with its NUL): a term
    # split that rescans the rest of the text after each '+' takes many
    # seconds on it, a linear one milliseconds
    t0 = time.perf_counter()
    err = usage_error(["symbol", "--normalize", "+" * 131071])
    assert time.perf_counter() - t0 < 1.0
    assert err.startswith("cannot parse symbol term '+")


# ---------------------------------------------------------------------------
# invariant


def test_invariant_spin9():
    payload = ok_json(["invariant", "--group", "spin9",
                       "--labels", "a,b,c,d,e"])
    assert payload["ok"] is True
    assert payload["expansion_identity_ok"] is True
    assert payload["symbol"] == "{a,b,d,e,c]"
    assert payload["nonvanishing"] == "certified_nonzero"
    assert "citation" in payload["nonvanishing_note"]
    assert payload["torsor_forms"] == [
        "H + (d)*<<a,b;c]]",
        "(e)*<<a,b;c]] + (d*e)*<<a,b;c]]",
    ]


def test_invariant_spin7_trivial_scale():
    payload = ok_json(["invariant", "--group", "spin7",
                       "--labels", "a,b,c,1"])
    assert payload["ok"] is True
    assert payload["symbol"] == "0"
    assert payload["nonvanishing"] == "zero"
    assert payload["torsor_forms"] == ["<<a,b;c]]", "<<a,b;c]]"]


def test_invariant_spin10():
    payload = ok_json(["invariant", "--group", "spin10",
                       "--labels", "a,b,c,d"])
    assert payload["symbol"] == "{a,b,d,c]"
    assert payload["torsor_forms"] == ["H + (d)*<<a,b;c]]"]


def test_invariant_usage_errors():
    assert "needs 5 parameters" in usage_error(
        ["invariant", "--group", "spin8", "--labels", "a,b,c,d"])
    usage_error(["invariant", "--group", "spin11", "--labels", "a,b,c,d"])
    usage_error(["invariant", "--group", "spin7"])


@pytest.mark.parametrize("group,labels,message", [
    ("spin8", "a,,b,c,d", "bad parameter label: ''"),
    ("spin8", "a,b,c,d,", "bad parameter label: ''"),
    ("spin8", ",a,b,c,d", "bad parameter label: ''"),
    ("spin7", "a,b,c,d,", "needs 4 parameters, got 5"),
    ("spin7", "a,,b,c,d", "needs 4 parameters, got 5"),
    ("spin7", "a,b,c,a*b", "bad parameter label: 'a*b'"),
    ("spin7", "a,b,{x],d", "bad parameter label: '{x]'"),
    ("spin7", "a,b, c,d", "bad parameter label: ' c'"),
    ("spin7", "a,b,c,a+b", "bad parameter label: 'a+b'"),
])
def test_invariant_rejects_empty_labels(group, labels, message):
    # an empty piece is a label of its own, not a separator to skip; a
    # label must be a name or "1", which the printed symbol can show
    assert message in usage_error(
        ["invariant", "--group", group, "--labels", labels])


def test_invariant_failure_exit_code(monkeypatch):
    def broken(t):
        raise AssertionError("torsor forms do not match the Pfister expansion")

    monkeypatch.setattr(cli.invariants, "invariant_f", broken)
    code, out, err = run(["invariant", "--group", "spin7",
                          "--labels", "a,b,c,d"])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert "Pfister expansion" in payload["error"]


@pytest.mark.parametrize("group", ["spin7", "spin8", "spin9", "spin10"])
def test_invariant_identity_check_fires(group, monkeypatch):
    # one stray summand in the expansion: invariant_f's own check, not a
    # stand-in for it, must refuse the torsor forms
    inv = cli.invariants
    real = inv.pfister_expand

    def stray(field, a_slots, b, peel):
        out = real(field, a_slots, b, peel)
        out[(field.one, inv.PfisterBase((), b))] += 1
        return out

    monkeypatch.setattr(inv, "pfister_expand", stray)
    message = "torsor forms do not match the Pfister expansion"
    labels = "a,b,c,d,e"[:2 * inv.PARAM_COUNT[inv.SpinId(group)] - 1]
    with pytest.raises(AssertionError, match=message):
        inv.invariant_f(inv.TorsorData(inv.SpinId(group),
                                       tuple(labels.split(","))))
    code, out, err = run(["invariant", "--group", group, "--labels", labels])
    assert (code, err) == (1, "")
    assert json.loads(out) == {"group": group, "labels": labels.split(","),
                               "ok": False, "error": message}


# ---------------------------------------------------------------------------
# global behavior


def test_help_exits_zero():
    code, out, err = run(["--help"])
    assert code == 0
    for name in ("ed-table", "verify-lattice", "verify-heisenberg",
                 "qform", "symbol", "invariant"):
        assert name in out
    code, out, _ = run(["qform", "--help"])
    assert code == 0 and "--op" in out


def test_help_is_the_usage_line_and_the_text_of_the_cli():
    top = f"usage: spindim [-h] SUBCOMMAND [--flag value]...\n\n{cli.__doc__}"
    for argv in (["-h"], ["--help"], ["--help", "qform"], ["-h", "--bogus"]):
        assert run(argv) == (0, top, "")
    help_ = run(["ed-table", "--help"])[1]
    assert help_ == (
        "usage: spindim ed-table [-h] --min N --max N [--format {tsv,json}]"
        "\n\n" + cli._COMMANDS["ed-table"][1] + "\n")
    # in any flag position, after well-formed pairs, even with a
    # required flag missing; a value is taken as is
    assert run(["ed-table", "--min", "3", "-h"]) == (0, help_, "")
    assert run(["ed-table", "--min", "3", "-h", "--max", "x"])[1] == help_
    assert run(["ed-table", "--bogus", "3", "-h"])[0] == 2
    assert "invalid int value: '-h'" in usage_error(
        ["ed-table", "--min", "-h"])


@pytest.mark.parametrize("argv, fault", [
    ([], "expected a subcommand (ed-table, verify-lattice, "
         "verify-heisenberg, qform, symbol, invariant)"),
    (["frobnicate"], "expected a subcommand (ed-table, verify-lattice, "
                     "verify-heisenberg, qform, symbol, invariant), "
                     "got 'frobnicate'"),
    (["--min", "3", "ed-table"], "expected a subcommand (ed-table, "
     "verify-lattice, verify-heisenberg, qform, symbol, invariant), "
     "got '--min'"),
    (["ed-table", "--min=3", "--max=4"], "unrecognized argument '--min=3'"),
    (["ed-table", "--mi", "3", "--max", "4"], "unrecognized argument '--mi'"),
    (["ed-table", "--", "--min", "3"], "unrecognized argument '--'"),
    (["ed-table", "--min", "3", "--max", "4", "extra"],
     "unrecognized argument 'extra'"),
    (["ed-table", "--min", "3", "--min", "3", "--max", "4"],
     "argument --min: given twice"),
    (["ed-table", "--min", "3", "--max"], "argument --max: expected a value"),
    (["ed-table", "--min", "x", "--max", "y"],
     "argument --min: invalid int value: 'x'"),
    (["ed-table", "--min", "3", "--max", "4", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from tsv, json)"),
    (["qform", "--field", "f2^2"],
     "the following arguments are required: --op, --form"),
])
def test_a_usage_error_names_the_first_fault_and_the_usage(argv, fault):
    name = argv[0] if argv and argv[0] in cli._COMMANDS else None
    prog = f"spindim {name}" if name else "spindim"
    assert run(argv) == (2, "", f"{prog}: error: {fault}\n"
                                f"{cli._usage(name)}\n")


def test_every_usage_line_is_written_from_the_table():
    assert [cli._usage(name) for name in cli._COMMANDS] == [
        "usage: spindim ed-table [-h] --min N --max N [--format {tsv,json}]",
        "usage: spindim verify-lattice [-h] --r-max N",
        "usage: spindim verify-heisenberg [-h] --r N --parity {odd,even}",
        "usage: spindim qform [-h] --field f2^K --op "
        "{classify,arf,witt,normalize,equiv} --form FORM [--form2 FORM]",
        "usage: spindim symbol [-h] --normalize EXPR",
        "usage: spindim invariant [-h] --group {spin7,spin8,spin9,spin10} "
        "--labels LABELS"]


@pytest.mark.parametrize("argv", [
    ["--help"], ["qform", "--help"], ["ed-table", "--min", "x"], [],
    ["qform", "--field", "f2^2"], ["frobnicate"]])
def test_help_and_errors_ignore_the_terminal_width(argv, monkeypatch):
    seen = set()
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        seen.add(run(argv))
    assert len(seen) == 1


def test_no_arguments_is_a_usage_error():
    usage_error([])


def test_unknown_subcommand_is_a_usage_error():
    usage_error(["frobnicate"])


# the hand-written parser probes, then every request the benchmark's
# three workloads send (seed 1)
DISPATCH_CORPUS = HAND_ARGV + [argv for w in workloads.WORKLOADS
                               for argv in workloads.generate(w, 1)]


def add_argument_keywords(kind, default) -> dict:
    """The keywords of the `add_argument` call that declares an option of
    value kind `kind` and default `default` of `cli._COMMANDS`."""
    keywords = ({"required": True} if default is cli._REQUIRED
                else {"default": default})
    if kind is int:
        keywords["type"] = int
    elif isinstance(kind, tuple):
        keywords["choices"] = kind
    return keywords


class OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


@pytest.fixture(scope="module")
def full_parser():
    """The argparse parser of `cli._COMMANDS`, with argparse's defaults."""
    parser = OracleParser(prog="spindim")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, description, options) in cli._COMMANDS.items():
        command = sub.add_parser(name, description=description)
        for flag, kind, default in options:
            command.add_argument(flag, **add_argument_keywords(kind, default))
    return parser


def read_outcome(argv):
    try:
        values = cli._read(argv)
    except ValueError:
        return "usage error"
    return "help" if values is None else values


def oracle_outcome(parser, argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            namespace = vars(parser.parse_args(argv))
        except ValueError:
            return "usage error"
        except SystemExit:
            return "help"
    return [namespace[flag[2:].replace("-", "_")]
            for flag, _, _ in cli._COMMANDS[namespace["command"]][2]]


# The argv of DISPATCH_CORPUS that argparse reads otherwise than `_read`,
# by the form `_read` leaves out on purpose: argparse reads
# `--flag=value`, unambiguous abbreviations and repeated flags (the last
# wins), and refuses a value that starts with '-' unless it reads as a
# negative number.  Its '--' (the end of the options) is the fourth
# dropped form, but every '--' argv of the corpus is an error either way.
DROPPED_FORMS = {
    "--flag=value": [["ed-table", "--min=3", "--max=4"]],
    "abbreviation": [["ed-table", "--mi", "3", "--ma", "4"],
                     ["verify-heisenberg", "--r", "3", "--par", "odd"],
                     ["qform", "--he"]],
    "repeated flag": [["ed-table", "--min", "3", "--min", "5", "--max", "6"],
                      ["qform", "--field", "f2^2", "--op", "arf",
                       "--form", "[1,1]", "--op", "witt"],
                      # '--r' abbreviates '--r-max', given again
                      ["verify-lattice", "--r-max", "3", "--r", "2"]],
    "value starting with '-'": [["symbol", "--normalize", "-{a,b]"]],
}


@pytest.mark.parametrize("argv", DISPATCH_CORPUS)
def test_dispatch_matches_full_parser(argv, full_parser):
    # argparse, built from the same table, is the independent oracle of
    # the reader: the same values, help or usage error for every argv,
    # but for the forms the reader refuses or reads as is on purpose
    dropped = [form for form, listed in DROPPED_FORMS.items()
               if argv in listed]
    assert (read_outcome(argv) == oracle_outcome(full_parser, argv)) \
        == (not dropped), dropped


def test_every_dropped_form_is_in_the_dispatch_corpus():
    # so that no listed exception goes stale unseen
    assert all(argv in DISPATCH_CORPUS
               for forms in DROPPED_FORMS.values() for argv in forms)


@pytest.mark.parametrize("argv", [
    ["ed-table", "--min", "15", "--max", "25", "--format", "json"],
    ["verify-heisenberg", "--r", "5", "--parity", "even"],
    ["qform", "--field", "f2^3", "--op", "witt", "--form", "pf(2,3;1)"],
    ["symbol", "--normalize", "{a*b,c,d]+{b,c,d]"],
    ["invariant", "--group", "spin8", "--labels", "a,b,c,d,e"],
])
def test_identical_invocations_print_identical_bytes(argv):
    assert run(argv) == run(argv)


def test_main_raises_system_exit(capsys, monkeypatch):
    # the recorder stands in for gc.freeze, so pytest's own heap is never
    # frozen; main freezes once, after stdout holds the output
    freezes = []
    monkeypatch.setattr(gc, "freeze",
                        lambda: freezes.append(capsys.readouterr()))
    monkeypatch.setattr(cli.sys, "argv",
                        ["spindim", "ed-table", "--min", "15", "--max", "15"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0
    assert [(c.out, c.err) for c in freezes] == [("15\t23\t23\t23\todd\n", "")]
    assert capsys.readouterr() == ("", "")


def _refuse_freeze():
    raise AssertionError("gc.freeze called outside main")


@pytest.mark.parametrize("argv", [
    ["ed-table", "--min", "3", "--max", "8"],
    ["verify-lattice", "--r-max", "4"],
    ["verify-heisenberg", "--r", "3", "--parity", "odd"],
    ["qform", "--field", "f2^3", "--op", "arf", "--form", "[1,3]"],
    ["symbol", "--normalize", "{a,b]"],
    ["invariant", "--group", "spin7", "--labels", "a,b,c"],
    ["ed-table", "--min", "2"],
    ["--help"],
])
def test_run_never_freezes_the_collector(argv, monkeypatch):
    # library callers and the warm worker keep a working collector
    monkeypatch.setattr(gc, "freeze", _refuse_freeze)
    code, out, err = run(argv)
    assert code in (0, 2) and (out or err)


@pytest.mark.parametrize("module", ["spindim", "spindim.cli"])
def test_python_dash_m_matches_run(module):
    # exit 0, usage errors (exit 2) from a layer and from the reader, and
    # help
    env = dict(os.environ, PYTHONPATH=SRC)
    for argv in (["ed-table", "--min", "15", "--max", "20"],
                 ["verify-heisenberg", "--r", "0", "--parity", "odd"],
                 ["qform", "--field", "f2^2"],
                 ["--help"],
                 ["qform", "--help"]):
        proc = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(argv)


def test_help_survives_python_dash_oo():
    # -OO strips docstrings, but not the text help prints
    env = dict(os.environ, PYTHONPATH=SRC)
    for argv in (["--help"], ["qform", "-h"]):
        proc = subprocess.run([sys.executable, "-OO", "-m", "spindim", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(argv)


AT_EXIT = """
import atexit, gc, sys
atexit.register(lambda: print("at exit, frozen:", gc.get_freeze_count() > 0))
sys.argv = ["spindim", "ed-table", "--min", "15", "--max", "15"]
from spindim.cli import main
main()
"""


def test_main_keeps_atexit_handlers():
    # main exits through SystemExit, so atexit handlers still run, and
    # by then the collector is frozen
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", AT_EXIT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "15\t23\t23\t23\todd\nat exit, frozen: True\n", "")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["symbol", "--normalize", "{a,b]"],
    ["ed-table", "--min", "3", "--max", str(MAX_N), "--format", "json"],
], ids=["small", "large"])
def test_closed_stdout_exits_141_quietly(argv, unbuffered):
    # the read end is closed before the child starts, so its first write
    # to stdout fails; the small output fails at the flush when stdout is
    # buffered, the large one (over the 8 KiB buffer) inside the write
    assert (len(run(argv)[1]) > 8192) == (argv[0] == "ed-table")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with subprocess.Popen([sys.executable, "-m", "spindim", *argv], env=env,
                          stdout=write_end, stderr=subprocess.PIPE) as proc:
        os.close(write_end)
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stderr_keeps_the_exit_code(unbuffered):
    # a usage error whose reader closed stderr: its write fails, and the
    # request still exits 2, not 1 from an uncaught BrokenPipeError
    argv = ["ed-table", "--min", "2", "--max", "5"]
    assert run(argv)[:2] == (2, "")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with subprocess.Popen([sys.executable, "-m", "spindim", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=write_end) as proc:
        os.close(write_end)
        out = proc.stdout.read()
    assert (proc.returncode, out) == (2, b"")


TAMPERED_ORBITS = """
from spindim.repdim import build_char_data, orbits_on_faithful
from spindim.spinlat import Parity
data = build_char_data(2, Parity.EVEN)
try:
    orbits_on_faithful(data._replace(acting_masks=(0, 1, 3)))
except AssertionError as exc:
    print(exc)
"""


def test_lattice_checks_survive_python_dash_o():
    # -O strips assert statements; the lattice checks raise explicitly.
    # test_cli_digests runs the corpus under -O, and the corpus holds
    # verify-lattice up to the rank cap and the whole table, whose gcd
    # rows rest on the same checks; a tampered translation set is still
    # caught
    for argv in (["verify-lattice", "--r-max", str(MAX_N // 2)],
                 ["ed-table", "--min", "3", "--max", str(MAX_N),
                  "--format", "json"]):
        assert argv in corpus()
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", TAMPERED_ORBITS],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout == "translation set failed to be a subgroup\n"


CHECKS_UNDER_O = """
from spindim import qform2
from spindim.qform2 import ConcreteField2, classify_form, diag_form
f = ConcreteField2(3)
real_eval = qform2.evaluate
qform2.evaluate = lambda q, vec: 1
try:
    classify_form(diag_form(f, 1, 2))
except AssertionError as exc:
    print(exc)
qform2.evaluate = real_eval
M = [[1, 2, 3], [0, 2, 1], [0, 0, 3]]
q, basis = qform2.block_normalize_with_basis(f, M)
try:
    qform2._check_certificate(M, q, [basis[1]] + basis[1:])
except AssertionError as exc:
    print(exc)
f5 = ConcreteField2(5)
ConcreteField2.mul = lambda self, x, y: 2
for build in (lambda: f5.trace(1), lambda: ConcreteField2(6)):
    try:
        build()
    except AssertionError as exc:
        print(exc)
"""


def test_qform_checks_survive_python_dash_o(monkeypatch):
    # the vanishing-vector check, the normalize certificate, the
    # trace-in-F_2 check and the bound on the generator search raise
    # explicitly, so -O keeps them.  The corpus, which test_cli_digests
    # runs under -O, holds classify requests that reach the
    # vanishing-vector check
    real, evaluated = qform2.evaluate, []

    def evaluate(q, vec):
        evaluated.append(vec)
        return real(q, vec)

    monkeypatch.setattr(qform2, "evaluate", evaluate)
    for argv in corpus():
        if argv[:1] == ["qform"] and "classify" in argv:
            run(argv)
    assert evaluated
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", CHECKS_UNDER_O],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout == ("radical vector does not vanish\n"
                           "block reduction failed its certificate\n"
                           "the trace must lie in F_2\n"
                           "no generator found\n"), proc.stderr
