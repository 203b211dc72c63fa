"""Every `$ spindim ...` example in README.md, run through `cli.run`.

An example's output is the lines under its command, up to the next
command or the end of the block.  A one-line `{ ... }` output shows only
some keys of the JSON the command prints; any other output is the exact
stdout."""

import json
import shlex
from pathlib import Path

import pytest

from spindim.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def examples():
    found, block = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            block = None if block is not None else []
        elif block is not None and line.startswith("$ spindim "):
            block = [line[len("$ spindim "):], []]
            found.append(block)
        elif block:
            block[1].append(line)
    return [(argv, "\n".join(out).strip("\n")) for argv, out in found]


EXAMPLES = examples()


def test_the_readme_has_an_example_of_every_subcommand():
    names = {shlex.split(argv)[0] for argv, _ in EXAMPLES}
    assert names == {"ed-table", "verify-lattice", "verify-heisenberg",
                     "qform", "symbol", "invariant"}
    assert all(shown for _, shown in EXAMPLES)


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[a for a, _ in EXAMPLES])
def test_readme_example(argv, shown):
    code, out, err = run(shlex.split(argv))
    assert (code, err) == (0, "")
    if shown.startswith("{ ") and shown.endswith(" }") and "..." in shown:
        inner = shown[1:-1].replace("...", "").strip().strip(",")
        got = json.loads(out)
        for key, value in json.loads("{" + inner + "}").items():
            assert got[key] == value, key
    else:
        assert out == shown + "\n"
