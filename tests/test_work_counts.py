"""Work counts of single requests on the form, symbol and lattice
layers, and the benchmark traffic that the library's caches rely on.

Unlike wall-clock time, a count of calls or constructions is exact and
the same on every host, so each test here pins an upper bound on the
work one request does, or the cache hits that keep a cache worth its
code.
"""

import json
import os
import random
import subprocess
import sys
from functools import cache

import pytest

import spindim
from cli_corpus import workloads
from spindim import cli, invariants, qform2
from spindim._record import Record
from spindim.qform2 import ConcreteField2, QForm
from test_qform2 import normalize_shapes


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_binds(monkeypatch):
    binds = []
    real = Record._bind.__func__

    def counted(cls, args, kwargs):
        binds.append(cls.__name__)
        return real(cls, args, kwargs)

    monkeypatch.setattr(Record, "_bind", classmethod(counted))
    return binds


@pytest.mark.parametrize("group,labels", [("spin7", "a,b,c,d"),
                                          ("spin9", "a,b,c,d,e"),
                                          ("spin8", "a,b,c,d,d")])
def test_an_invariant_request_normalizes_its_symbol_once(monkeypatch,
                                                         group, labels):
    calls = count_calls(monkeypatch, invariants, "symbol_normalize")
    binds = count_binds(monkeypatch)
    code, out, _ = cli.run(["invariant", "--group", group, "--labels", labels])
    assert code == 0 and '"ok": true' in out
    assert len(calls) == 1
    # the report records are built from every field, not by keyword
    assert "InvariantReport" not in binds
    assert "NonvanishingReport" not in binds


@pytest.mark.parametrize("group,labels", [("spin7", "a,b,c,d"),
                                          ("spin10", "a,b,c,d")])
def test_an_invariant_request_builds_its_formal_field_once(monkeypatch,
                                                           group, labels):
    calls = count_calls(monkeypatch, invariants.TorsorData, "formal_field")
    code, out, _ = cli.run(["invariant", "--group", group, "--labels", labels])
    assert code == 0 and '"ok": true' in out
    assert len(calls) == 1


@pytest.mark.parametrize("group,labels", [
    ("spin7", "a,b,c,1"), ("spin8", "a,b,c,d,a"), ("spin9", "a,b,c,d,e"),
    ("spin10", "1,b,c,d")])
def test_an_invariant_request_builds_each_label_monomial_directly(
        monkeypatch, group, labels):
    # `TorsorData` has checked every label, so no monomial is checked again
    labels_built = count_calls(monkeypatch, invariants, "label")
    vars_built = count_calls(monkeypatch, invariants.FormalField2, "var")
    code, out, _ = cli.run(["invariant", "--group", group, "--labels", labels])
    assert code == 0 and '"ok": true' in out
    invariants.torsor_forms(invariants.TorsorData(
        invariants.SpinId(group), tuple(labels.split(","))))
    assert labels_built == vars_built == []


@pytest.mark.parametrize("form2", ["[1,1]+[2,3]", "[1,1]+<1>", "<3>+<5>"])
def test_an_equiv_request_classifies_each_form_once(monkeypatch, form2):
    calls = count_calls(monkeypatch, qform2, "classify_form")
    code, _, err = cli.run(["qform", "--field", "f2^3", "--op", "equiv",
                            "--form", "[1,1]+[2,3]", "--form2", form2])
    # a singular second form still ends the request with the usage error
    assert (code, err) in ((0, ""), (
        2, "equivalence of singular forms is not supported\n"))
    assert len(calls) == 2


@pytest.mark.parametrize("k", (1, 4, 16))
def test_a_two_slot_pfister_build_checks_at_most_two_forms(monkeypatch, k):
    made = []
    real = QForm.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    field = ConcreteField2(k)
    monkeypatch.setattr(QForm, "__new__", counted)
    q = qform2.pfister_build(field, (1, field.order - 1), 1)
    assert q.dim == 8
    assert len(made) <= 2


def test_classify_form_builds_nonsingular_classes_by_position(monkeypatch):
    f = ConcreteField2(3)
    forms = [qform2.block(f, 1, 2), qform2.hyperbolic(f, 2),
             qform2.diag_form(f, 5), QForm(f),
             qform2.orth_sum(qform2.block(f, 3, 4), qform2.diag_form(f, 1))]
    binds = count_binds(monkeypatch)
    for q in forms:
        assert qform2.is_nonsingular(q)
    assert binds == []


def count_record_news(monkeypatch):
    """The classes built through a Python-level `__new__`: `Record`'s,
    or that of a record that checks its input (QForm, TorsorData, ...),
    whose own may hand on to `Record`'s, so such a record can count
    twice."""
    made = []
    for cls in [Record, *(c for c in Record.__subclasses__()
                          if "__new__" in vars(c))]:
        def counted(kls, *args, _real=cls.__new__, **kwargs):
            made.append(kls.__name__)
            return _real(kls, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", staticmethod(counted))
    return made


# Python-level `__new__` calls of one request of each warm kind (see
# `count_record_news`).  The readers and writers build blocks, symbol
# terms and sums, form classes and Witt decompositions as bare tuples,
# and `QForm` builds itself once it has checked; building them all
# through the checked constructors, these requests made 11, 8, 4, 20,
# 4, 15 and 15 calls.  A form that is one `pf(...)` summand is the
# Pfister form `pfister_build` checked, so the pf-only equiv makes 6
# calls, not the 8 of checking each form again.  A change that puts a
# checked construction per block or per term back on the warm path
# exceeds a bound here.
RECORD_NEWS = {
    "arf": (["qform", "--field", "f2^8", "--op", "arf",
             "--form", "pf(3,5;7)+[1,2]"], 3),
    "witt": (["qform", "--field", "f2^4", "--op", "witt",
              "--form", "[1,2]+[3,4]+<5>"], 2),
    "classify": (["qform", "--field", "f2^3", "--op", "classify",
                  "--form", "[1,2]+<3>+<5>"], 1),
    "equiv": (["qform", "--field", "f2^16", "--op", "equiv",
               "--form", "pf(3;7)+<1>", "--form2", "[1,2]+[3,4]+<5>"], 6),
    "pf-equiv": (["qform", "--field", "f2^16", "--op", "equiv",
                  "--form", "pf(3,5;7)", "--form2", "pf(5,3;7)"], 6),
    "normalize": (["qform", "--field", "f2^8", "--op", "normalize",
                   "--form", "mat(1,2,3,4;0,5,6,7;0,0,8,9;0,0,0,a)"], 3),
    "symbol": (["symbol", "--normalize",
                "{a*b,c*d,e]+{f,g,h+1]+{a,b*c,d+e*f]"], 0),
    "invariant": (["invariant", "--group", "spin9",
                   "--labels", "a,b,c,d,e"], 13),
}


@pytest.mark.parametrize("argv,bound", RECORD_NEWS.values(),
                         ids=RECORD_NEWS)
def test_a_request_makes_at_most_the_pinned_checked_records(monkeypatch,
                                                           argv, bound):
    cli.run(argv)                   # builds fields and tables first
    made = count_record_news(monkeypatch)
    code, out, err = cli.run(argv)
    assert (code, err) == (0, "") and out
    assert len(made) <= bound, (argv, made)


# Python-level calls in `spindim` frames of one warm `cli.run` of each
# RECORD_NEWS argv, counted as the profiler's "call" events, which take
# in comprehensions and each resume of a generator.  Each pin is an
# upper bound because later interpreters inline comprehensions, and so
# count fewer calls.
RUN_CALLS = {"arf": 47, "witt": 22, "classify": 51, "equiv": 50,
             "pf-equiv": 92, "normalize": 115, "symbol": 32, "invariant": 82}


@pytest.mark.parametrize("kind", RUN_CALLS)
def test_a_request_makes_at_most_the_pinned_python_calls(kind):
    argv, _ = RECORD_NEWS[kind]
    cli.run(argv)                   # builds fields and tables first
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get(
                "__name__", "").startswith("spindim"):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        code, out, err = cli.run(argv)
    finally:
        sys.setprofile(None)
    assert (code, err) == (0, "") and out
    assert len(calls) <= RUN_CALLS[kind], (argv, calls)


# field multiplies of one reduction and its certificate, per benchmark
# normalize shape (k, n), on a dense matrix: every entry on and above the
# diagonal nonzero, as in the benchmark
NORMALIZE_MULS = {(1, 12): 1746, (2, 6): 212, (3, 4): 74, (4, 3): 35,
                  (1, 8): 524, (2, 4): 74, (8, 4): 74, (16, 4): 74}


def test_normalize_multiplies_at_most_the_pinned_count(monkeypatch):
    assert sorted(normalize_shapes()) == sorted(NORMALIZE_MULS)
    for k, n in normalize_shapes():
        rng = random.Random(100 * k + n)
        field = ConcreteField2(k)     # builds any tables before counting
        M = [[rng.randrange(1, field.order) if j >= i else 0
              for j in range(n)] for i in range(n)]
        with monkeypatch.context() as patch:
            calls = count_calls(patch, ConcreteField2, "mul")
            qform2.block_normalize_with_basis(field, M)
        assert len(calls) <= NORMALIZE_MULS[k, n], (k, n, len(calls))


def test_a_ten_slot_pfister_build_multiplies_at_most_the_pinned_count(
        monkeypatch):
    # two multiplies per block of each fold: 2 * (2 + 4 + ... + 1024)
    field = ConcreteField2(16)
    calls = count_calls(monkeypatch, ConcreteField2, "mul")
    q = qform2.pfister_build(field, tuple(range(1, 11)), 1)
    assert q.dim == 2048
    assert len(calls) <= 2046


# runs `cli.run` on the argv in sys.argv in a fresh process, so that no
# cache of lattices or Smith forms helps, and prints the Smith work and
# the derivation steps it did, counted with the profiler
LATTICE_PROBE = """
import collections, json, sys
from spindim import abelian, cli, edcalc
smith = abelian.smith_normal_form.__code__
add = abelian.GroupElement.__add__.__code__
step = edcalc._step.__code__
counts = collections.Counter()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call":
        if code is smith or code is add:
            counts["smith calls" if code is smith else "group adds"] += 1
        elif code is step:
            counts["derivation steps"] += 1
        elif code.co_name in ("add_row", "add_col") \\
                and frame.f_back.f_code is smith:
            counts["row ops" if code.co_name == "add_row"
                   else "column ops"] += 1
    elif event == "c_call" and arg is min and code is smith:
        counts["pivots"] += 1

sys.setprofile(profile)
code = cli.run(sys.argv[1:])[0]
sys.setprofile(None)
print(json.dumps({"exit": code, **counts}))
"""

# the work of each request as counted above: every pick of a pivot is
# one `min` over the remaining block, the last of each reduction finding
# none.  Each row builds each derivation step once: one for n = 3..10,
# none for 11..14, and for n >= 15 five, or six where 4 | n (seven at
# n = 16), the two traces sharing their `dim-so` and `pow2-part` steps
LATTICE_WORK = {
    "verify-lattice --r-max 14": (
        ["verify-lattice", "--r-max", "14"],
        {"smith calls": 28, "pivots": 161, "row ops": 105,
         "column ops": 210, "group adds": 91}),
    "ed-table 3..64 json": (
        ["ed-table", "--min", "3", "--max", "64", "--format", "json"],
        {"smith calls": 52, "pivots": 611, "row ops": 507,
         "column ops": 1014, "group adds": 481, "derivation steps": 272}),
}


@cache
def lattice_work(request: str) -> dict:
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(spindim.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", LATTICE_PROBE, *LATTICE_WORK[request][0]],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("request_, counter", [
    (request, counter) for request, (_, bounds) in LATTICE_WORK.items()
    for counter in bounds])
def test_a_lattice_request_does_at_most_the_pinned_smith_work(request_,
                                                              counter):
    work = lattice_work(request_)
    assert work["exit"] == 0
    # a counter the probe never saw is a KeyError, not a pass
    assert work[counter] <= LATTICE_WORK[request_][1][counter], work


# runs the JSON list of argv on stdin through `cli.run` in a fresh
# process, then prints the `cache_info()` of `module.name`
CACHE_PROBE = """
import importlib, json, sys
from spindim import cli
fn = getattr(importlib.import_module(sys.argv[1]), sys.argv[2])
for argv in json.load(sys.stdin):
    cli.run(argv)
print(json.dumps(fn.cache_info()._asdict()))
"""


def cold_cache_info(requests, module, name):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(spindim.__file__)))
    proc = subprocess.run([sys.executable, "-c", CACHE_PROBE, module, name],
                          input=json.dumps(requests), env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_the_option_table_reads_every_benchmark_request(workload, seed):
    # so no benchmark request is a usage error or asks for help
    for argv in workloads.generate(workload, seed):
        assert cli._read(argv) is not None, argv


def test_a_forms_warm_pass_hits_the_min_poly_cache():
    # every qform request builds its field, and the modulus of each k is
    # found once per process
    info = cold_cache_info(workloads.generate("forms-warm", 1),
                           "spindim.qform2", "min_poly_for")
    assert info["hits"] > 0 and info["misses"] > 0, info


def test_a_cold_ed_table_hits_the_smith_lattice_cache():
    # the ed-table's gcd steps and the consistency checks read the same
    # ranks' Smith forms
    info = cold_cache_info([["ed-table", "--min", "3", "--max", "64",
                             "--format", "json"]],
                           "spindim.spinlat", "_smith_lattice")
    assert info["hits"] > 0 and info["misses"] > 0, info
