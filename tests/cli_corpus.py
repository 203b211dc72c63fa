"""The argv corpus whose output `tests/data/cli_digests.json` pins.

Each digest is the first 16 hex digits of the sha256 of
f"{code}\\0{stdout}\\0{stderr}" from `cli.run`.  The corpus: every
distinct request of the three benchmark workloads for seeds 1..3, help
and bare argv for the top level and each subcommand, the hand-written
argv of `test_cli.py`'s dispatch test, the rank caps, and both
`ed-table 3..64` formats.  `cli` writes help and usage errors from its
option table, so every digest holds on every Python version and
terminal width.

Regenerate after a change that alters output on purpose, and list the
changed argv it prints in CHANGES.md:

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

from spindim import cli

TESTS = Path(__file__).resolve().parent
DIGESTS = TESTS / "data" / "cli_digests.json"

# bench/workloads.py, loaded read-only by path
_WORKLOADS = importlib.util.spec_from_file_location(
    "bench_workloads", TESTS.parent / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_WORKLOADS)
_WORKLOADS.loader.exec_module(workloads)

SUBCOMMANDS = tuple(cli._COMMANDS)

# argv that probe the parser: well formed, help, '--', abbreviations,
# repeats, extras, bad values and missing arguments
HAND_ARGV = [
    # every subcommand, well formed
    ["ed-table", "--min", "3", "--max", "9", "--format", "json"],
    ["verify-lattice", "--r-max", "3"],
    ["verify-heisenberg", "--r", "2", "--parity", "even"],
    ["qform", "--field", "f2^3", "--op", "equiv", "--form", "[1,3]",
     "--form2", "[3,1]"],
    ["symbol", "--normalize", "{a,b]"],
    ["invariant", "--group", "spin8", "--labels", "a,b,c,d,e"],
    # help, before and after the subcommand, and abbreviated
    [], ["-h"], ["--help"], ["-h", "qform"], ["qform", "-h"],
    ["symbol", "--help"], ["ed-table", "--min", "3", "-h"], ["qform", "--he"],
    # '--' and option-like strings
    ["--", "ed-table", "--min", "3", "--max", "4"],
    ["ed-table", "--", "--min", "3", "--max", "4"],
    ["ed-table", "--min", "3", "--max", "4", "--"],
    ["ed-table", "--min=3", "--max=4"],
    ["ed-table", "--min", "-3", "--max", "4"],
    # abbreviations, ambiguous and not
    ["ed-table", "--mi", "3", "--ma", "4"], ["ed-table", "--m", "3"],
    ["verify-heisenberg", "--r", "3", "--par", "odd"],
    ["qform", "--fi", "f2^2", "--o", "arf", "--fo", "[1,1]"],
    # repeated options: the last one wins
    ["ed-table", "--min", "3", "--min", "5", "--max", "6"],
    ["qform", "--field", "f2^2", "--op", "arf", "--form", "[1,1]",
     "--op", "witt"],
    # extras
    ["ed-table", "--min", "3", "--max", "4", "extra"],
    ["ed-table", "--min", "3", "--max", "4", "--bogus", "x", "y"],
    ["symbol", "--normalize", "{a,b]", "junk"],
    # bad values and missing arguments
    ["ed-table", "--min", "x", "--max", "4"],
    ["ed-table", "--min", "3", "--max", "4", "--format", "xml"],
    ["qform", "--field", "f2^2", "--op", "arf", "--form"],
    ["qform", "--field", "f2^2"], ["symbol"],
    # unknown subcommand, option before the subcommand
    ["frobnicate"], ["frobnicate", "--x"], ["--min", "3", "ed-table"],
    # every spelling int() reads: the table path must accept them too
    ["ed-table", "--min", "+3", "--max", "4"],
    ["ed-table", "--min", " 3 ", "--max", "4"],
    ["ed-table", "--min", "1_0", "--max", "12"],
    ["ed-table", "--min", "\u0661\u0660", "--max", "12"],
    # an empty value, a trailing flag, an unknown flag after valid pairs,
    # a missing required flag, a value that starts with '-'
    ["qform", "--field", "f2^2", "--op", "arf", "--form", ""],
    ["ed-table", "--min", "3", "--max", "4", "--format"],
    ["verify-lattice", "--r-max", "3", "--r", "2"],
    ["verify-heisenberg", "--r", "3"],
    ["symbol", "--normalize", "-{a,b]"],
    # a repeated option whose last value is good but first is not
    ["ed-table", "--min", "x", "--min", "5", "--max", "6"],
    # the zero form, as the form layer prints it; only '0' alone is one
    ["qform", "--field", "f2^3", "--op", "witt", "--form", "0"],
    ["qform", "--field", "f2^1", "--op", "equiv", "--form", " 0 ",
     "--form2", "0"],
    ["qform", "--field", "f2^2", "--op", "arf", "--form", "[1,1]+0"],
    # a Pfister summand with no ';', a symbol term with one slot
    ["qform", "--field", "f2^2", "--op", "arf", "--form", "pf(1,2)"],
    ["symbol", "--normalize", "{a]"],
    # one argv per remaining message of the form, matrix, field, symbol
    # and label readers
    ["qform", "--field", "f2^2", "--op", "arf", "--form", "[g,1]"],
    ["qform", "--field", "f2^2", "--op", "arf", "--form", "[4,1]"],
    ["qform", "--field", "f2^2", "--op", "arf", "--form", "[1,2,3]"],
    ["qform", "--field", "f2^1", "--op", "classify",
     "--form", "pf(" + ",".join(["1"] * 12) + ";1)+<1>"],
    ["qform", "--field", "f2^2", "--op", "normalize", "--form", "[1,1]"],
    ["qform", "--field", "f2^2", "--op", "normalize",
     "--form", "mat(" + ";".join(["1"] * 65) + ")"],
    ["qform", "--field", "f2^2", "--op", "normalize", "--form", "mat(1,2)"],
    ["qform", "--field", "f3^2", "--op", "arf", "--form", "[1,1]"],
    ["symbol", "--normalize", ""],
    ["symbol", "--normalize", "{a,&]"],
    ["symbol", "--normalize", "{a,b*b]"],
    ["symbol", "--normalize", "nonsense"],
    ["symbol", "--normalize",
     "{" + ",".join(["*".join(f"x{i}" for i in range(16))] * 3) + ",b+c]"],
    ["invariant", "--group", "spin7", "--labels", "a,b,c,&"],
]


def corpus() -> list[list[str]]:
    """Every argv of the digest file, each once, in a fixed order."""
    found = [argv for w in workloads.WORKLOADS for seed in (1, 2, 3)
             for argv in workloads.generate(w, seed)]
    found += [["--help"], *([name, "--help"] for name in SUBCOMMANDS),
              *([name] for name in SUBCOMMANDS), *HAND_ARGV]
    for cap in ("0", "32", "33"):
        found.append(["verify-lattice", "--r-max", cap])
        found += (["verify-heisenberg", "--r", cap, "--parity", p]
                  for p in ("odd", "even"))
    found += (["ed-table", "--min", "3", "--max", "64", "--format", f]
              for f in ("tsv", "json"))
    seen = {}
    for argv in found:
        seen.setdefault(json.dumps(argv), argv)
    return list(seen.values())


def digests() -> dict[str, str]:
    """JSON-encoded argv -> digest, for the whole corpus."""
    out = {}
    for argv in corpus():
        code, stdout, stderr = cli.run(argv)
        blob = f"{code}\0{stdout}\0{stderr}".encode()
        out[json.dumps(argv)] = hashlib.sha256(blob).hexdigest()[:16]
    return out


def main() -> None:
    old = (json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]
           if DIGESTS.exists() else {})
    new = digests()
    for key in [*new, *(k for k in old if k not in new)]:
        if old.get(key) != new.get(key):
            print(f"{old.get(key)} -> {new.get(key)}  {key}")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({"digests": new}, indent=0) + "\n",
                       encoding="utf-8")


if __name__ == "__main__":
    main()
