"""A standing mutation gate: each mutant below breaks one check that the
tests claim to keep, and the test named with it must then fail.

For each mutant this copies `src`, `tests`, `bench`, `README.md` and
`pyproject.toml` to a temporary directory, replaces the mutant's old
text, which must occur exactly once in its file, with the new text, and
runs only the named test there, with a timeout.  A test that fails
catches the mutant; one that passes or runs out of time lets it
survive.  First the named tests run once on an unchanged copy, where
they must pass.  It prints one line per mutant and exits 1 if any
mutant survives.  Standard library only:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
TIMEOUT_S = 60

# (name, file, old text, new text, the test that must fail)
MUTANTS = [
    ("Smith pivot: the largest entry", "src/spindim/abelian.py",
     "pick = min(", "pick = max(", "tests/test_abelian.py"),
    ("normalize certificate skipped", "src/spindim/qform2.py",
     "    _check_certificate(M, out, new_basis, S)\n", "",
     "tests/test_qform2.py::test_every_reduction_checks_its_certificate"),
    ("repeated additive factor accepted", "src/spindim/invariants.py",
     "if additive and piece in out:", "if False:",
     "tests/test_cli.py::test_expression_parser_guards"),
    ("argv reader accepts a repeated flag", "src/spindim/cli.py",
     "j = free.index(flag)", "j = flags.index(flag)",
     "tests/test_cli.py::test_dispatch_matches_full_parser"),
    ("JSON list check dropped", "src/spindim/_json.py",
     'flat = set(map(type, o)) == {str} and "".join(o)', 'flat = "".join(o)',
     "tests/test_json.py"),
    ("normalize entry gate admits the field order", "src/spindim/qform2.py",
     "0 <= x < field.order", "0 <= x <= field.order",
     "tests/test_qform2.py::test_elements_are_checked_where_they_enter"),
    ("option table refuses json", "src/spindim/cli.py",
     '("--format", ("tsv", "json"), "tsv")', '("--format", ("tsv",), "tsv")',
     "tests/test_work_counts.py"
     "::test_the_option_table_reads_every_benchmark_request"),
    ("min_poly_for uncached", "src/spindim/qform2.py",
     "@lru_cache(maxsize=None)\ndef min_poly_for", "def min_poly_for",
     "tests/test_work_counts.py"
     "::test_a_forms_warm_pass_hits_the_min_poly_cache"),
    ("_smith_lattice uncached", "src/spindim/spinlat.py",
     "@lru_cache(maxsize=None)\ndef _smith_lattice", "def _smith_lattice",
     "tests/test_work_counts.py"
     "::test_a_cold_ed_table_hits_the_smith_lattice_cache"),
    # entry 255 of the low table only, which no k <= 8 reads, so the
    # log/exp tables still build when the test module is imported
    ("one wrong reduction entry", "src/spindim/qform2.py",
     "    return table\n", "    table[-1] ^= bits == 8\n    return table\n",
     "tests/test_qform2.py"
     "::test_mul_matches_carry_less_product_and_long_division"),
    ("even-parity oracle: every sign flip acts", "src/spindim/repdim.py",
     "if m.bit_count() % 2 == 0", "", "tests/test_repdim.py"),
    ("even-parity shape: every x_i acts", "src/spindim/spinlat.py",
     "acting = [a ^ b for a, b in zip(x_codes, x_codes[1:])]",
     "acting = x_codes", "tests/test_spinlat.py"),
    ("invariant identity check dropped", "src/spindim/invariants.py",
     "    if collected != expansion:\n", "    if False:\n",
     "tests/test_cli.py::test_invariant_identity_check_fires"),
    ("torsor form printed without its scalar", "src/spindim/invariants.py",
     'pieces.append(f"({format_mono(scalar)})*{base}" if scalar else base)',
     "pieces.append(base)", "tests/test_cli.py::test_invariant_spin9"),
    ("invariant multiset frozen in reverse", "src/spindim/invariants.py",
     "tuple(sorted(cnt.items(), key=key))",
     "tuple(sorted(cnt.items(), key=key, reverse=True))",
     "tests/test_invariants.py::test_invariant_matches_the_two_freeze_version"),
    # the gcd and the half-spin dimension are equal at every even n, so
    # the 2-adic part is the input a half-spin mix-up can break
    ("4 | n lower bound: the half-spin dimension for the 2-adic part",
     "src/spindim/edcalc.py", "index_a=pow2.out", "index_a=dv.out",
     "tests/test_edcalc.py::test_closed_form_regression"),
    ("the n = 16 case taken at n = 20", "src/spindim/edcalc.py",
     "if n == 16:", "if n == 20:", "tests/test_edcalc.py::test_case_labels"),
    ("ed-table json: side labels swapped", "src/spindim/edcalc.py",
     '"side": side,', '"side": {"upper": "lower"}.get(side, "upper"),',
     "tests/test_edcalc.py::test_ed_table_json_steps_say_what_they_used"),
]


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        else:
            shutil.copy2(ROOT / name, dest / name)


def pytest_exit(root: Path, tests: list[str], timeout: float):
    """pytest's exit code for `tests` in the tree at `root`, or None if
    it ran out of time."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests], cwd=root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def run_mutant(file: str, old: str, new: str, test: str) -> str:
    """'caught', or why the mutant survived."""
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        path = Path(tmp) / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"stale: the old text occurs {text.count(old)} times"
        path.write_text(text.replace(old, new), encoding="utf-8")
        code = pytest_exit(Path(tmp), [test], TIMEOUT_S)
    return ("caught" if code == 1 else "survived: timed out" if code is None
            else f"survived: pytest exit {code}")


def main() -> int:
    tests = sorted({mutant[-1] for mutant in MUTANTS})
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        code = pytest_exit(Path(tmp), tests, TIMEOUT_S * len(tests))
    if code != 0:
        print(f"the named tests fail unmutated (pytest exit {code})")
        return 1
    survived = 0
    for name, *mutant in MUTANTS:
        start = time.perf_counter()
        verdict = run_mutant(*mutant)
        survived += verdict != "caught"
        print(f"{verdict:<24} {time.perf_counter() - start:5.1f} s  {name} "
              f"({mutant[-1]})", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
