"""Tests of the benchmark's own code: seeding, span arithmetic, output
checks.  Real program outputs come from child processes so that the
package caches of the test process stay cold."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
for path in (str(BENCH), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def cli_output(argv):
    got = subprocess.run([sys.executable, "-c", run.CLI_MAIN] + argv,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC)}, check=True)
    return got.stdout


# ---------------------------------------------------------------------------
# seeding


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_argv(workload):
    a = json.dumps(workloads.generate(workload, 7))
    assert a == json.dumps(workloads.generate(workload, 7))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_values_not_request_mix(workload):
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert a != b
    shape = lambda reqs: sorted((r[0], r[r.index("--op") + 1] if "--op" in r
                                 else None) for r in reqs)
    assert shape(a) == shape(b)


# ---------------------------------------------------------------------------
# spans


def test_self_times_of_nested_spans():
    spans = [["outer", 0.0, 10.0, -1], ["mid", 1.0, 7.0, 0],
             ["leaf", 2.0, 3.0, 1], ["leaf", 4.0, 6.0, 1], ["outer", 11.0, 12.0, -1]]
    got = tracer.self_times(spans)
    assert got == {"outer.self_s": 5.0, "mid.self_s": 3.0, "leaf.self_s": 3.0}


def test_traced_calls_self_times_add_up_and_uninstall_restores():
    import spindim.cli as cli
    import spindim.qform2 as qform2
    before = (cli.run, qform2.arf, qform2.ConcreteField2.mul)
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.run(["qform", "--field", "f2^2", "--op", "witt",
                        "--form", "[1,1]+[2,3]"])[0] == 0
        assert cli.run(["symbol", "--normalize", "{a*b,c]"])[0] == 0
        summary = t.summary()
    finally:
        t.uninstall()
    assert (cli.run, qform2.arf, qform2.ConcreteField2.mul) == before
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert all(v >= 0 for k, v in summary.items() if k.endswith(".self_s"))
    root_total = sum(end - start for _, start, end, parent in t.spans
                     if parent < 0)
    assert self_total <= root_total + 1e-9
    assert summary["cli.run.calls"] == 2
    assert summary["qform2.witt_decompose.calls"] == 1
    assert summary["qform2.arf.calls"] >= 1        # nested inside witt
    assert summary["invariants.symbol_normalize.calls"] == 1
    assert summary["qform2.field_muls"] > 0
    assert summary["spinlat.build_char_data.misses"] == 0
    assert "abelian.group_adds" not in summary


# ---------------------------------------------------------------------------
# reference speed


def test_scaled_time_divides_out_reference_speed():
    speedo = run.Speedometer()
    # the loop runs at its nominal speed until t = 1, then half as fast
    speedo.samples = [(i / 10, run.REF_SECONDS * (1 if i < 10 else 2))
                      for i in range(20)]
    speedo.smooth()
    assert speedo.scaled(0.2, 0.6) == pytest.approx(0.4)
    assert speedo.scaled(1.3, 1.7) == pytest.approx(0.2)
    # the cell of the sample at 0.9 ends half-way to the next one
    assert speedo.scaled(0.5, 1.5) == pytest.approx(0.45 + 0.55 / 2)


# ---------------------------------------------------------------------------
# checks


def test_ed_table_closed_form():
    assert [checks.expected_row(n) for n in (6, 11, 15, 16, 18, 20)] == [
        (0, "trivial"), (None, "low"), (23, "odd"), (24, "16"),
        (103, "2mod4"), (326, "0mod4")]


def flip_arf(out):
    payload = json.loads(out)
    payload["arf"] ^= 1
    return json.dumps(payload, indent=2)


def test_tampered_outputs_count_as_failures():
    table = ["ed-table", "--min", "15", "--max", "20"]
    table_json = table + ["--format", "json"]
    heis = ["verify-heisenberg", "--r", "3", "--parity", "even"]
    arf = ["qform", "--field", "f2^2", "--op", "arf", "--form", "[1,1]+[2,3]"]
    good = {tuple(a): cli_output(a) for a in (table, table_json, heis, arf)}
    passes = [{"results": [(list(a), 0, out, 0.1) for a, out in good.items()]}]
    assert run.tally(passes) == (4, 0, [])

    tampered = [
        (table, 0, good[tuple(table)].replace("17\t120\t120", "17\t121\t121")),
        (table_json, 0, good[tuple(table_json)].replace('"value": 24', '"value": 25')),
        (heis, 0, good[tuple(heis)].replace('"ok": true', '"ok": false')),
        (arf, 0, flip_arf(good[tuple(arf)])),
        (arf, 2, good[tuple(arf)]),
        (table, 0, "not a table"),
    ]
    for argv, code, out in tampered:
        assert out != good[tuple(argv)] or code != 0
        assert checks.check(argv, code, out) is not None, (argv, out)
    passes.append({"results": [(a, c, o, 0.1) for a, c, o in tampered]})
    attempted, failed, reasons = run.tally(passes)
    assert (attempted, failed) == (10, 6) and reasons


def test_tail_needs_ten_samples_beyond():
    data = list(range(1, 101))
    assert run.tail(data, 99) == (90, 90)
    assert run.tail(data, 75) == (75, 75)
    assert run.tail(list(range(15)), 99) == (None, None)
