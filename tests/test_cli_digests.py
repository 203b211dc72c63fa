"""Byte identity of the command-line output over a fixed corpus: every
argv of `cli_corpus.corpus()` must print what `tests/data/cli_digests.json`
recorded.  A change that alters output on purpose regenerates the file
with `python tests/cli_corpus.py` and lists the argv it prints."""

import json

import cli_corpus


def test_cli_output_matches_the_recorded_digests(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    pinned = json.loads(cli_corpus.DIGESTS.read_text(encoding="utf-8"))
    want, got = pinned["digests"], cli_corpus.digests()
    assert list(got) == list(want), "corpus changed: regenerate the file"
    # argparse output is compared only on the version that recorded it
    same_python = pinned["python"] == cli_corpus.python_version()
    moved = [key for key in got if got[key] != want[key]
             and (same_python or not cli_corpus.via_argparse(json.loads(key)))]
    assert not moved, (f"{len(moved)} argv print other bytes, first: "
                       + ", ".join(moved[:5]))
