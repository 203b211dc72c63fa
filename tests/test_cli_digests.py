"""Byte identity of the command-line output over a fixed corpus: every
argv of `cli_corpus.corpus()` must print what `tests/data/cli_digests.json`
recorded, in this process and in one `python -O` child.  A change that
alters output on purpose regenerates the file with
`python tests/cli_corpus.py` and lists the argv it prints."""

import json
import os
import subprocess
import sys

import cli_corpus
import spindim

SRC = os.path.dirname(os.path.dirname(spindim.__file__))

DIGESTS_UNDER_O = """
import json, sys
import cli_corpus
print(json.dumps({"optimize": sys.flags.optimize,
                  "digests": cli_corpus.digests()}))
"""


def moved_argv(got: dict) -> list:
    """Keys of `got` whose digest is not the recorded one."""
    want = json.loads(cli_corpus.DIGESTS.read_text(encoding="utf-8"))["digests"]
    assert list(got) == list(want), "corpus changed: regenerate the file"
    return [key for key in got if got[key] != want[key]]


def test_cli_output_matches_the_recorded_digests():
    moved = moved_argv(cli_corpus.digests())
    assert not moved, (f"{len(moved)} argv print other bytes, first: "
                       + ", ".join(moved[:5]))


def test_cli_output_survives_python_dash_o():
    # -O strips assert statements; every runtime check raises
    # explicitly, so the whole corpus prints the same bytes
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([SRC, str(cli_corpus.TESTS)]))
    proc = subprocess.run([sys.executable, "-O", "-c", DIGESTS_UNDER_O],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    moved = moved_argv(out["digests"])
    assert not moved, (f"{len(moved)} argv print other bytes under -O, "
                       "first: " + ", ".join(moved[:5]))
