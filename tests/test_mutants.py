"""The mutation gate's table stays applicable: every mutant's old text
occurs exactly once in its file, and the test named to catch it exists.
`python tests/mutants.py` runs the mutants themselves; this checks the
table alone, by reading files and parsing them, with no subprocess."""

import ast

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name,file,old,new,test", MUTANTS,
                         ids=[mutant[0] for mutant in MUTANTS])
def test_each_mutant_applies_once_and_names_a_test_that_exists(
        name, file, old, new, test):
    assert old != new
    assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1
    path, _, function = test.partition("::")
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    if function:
        assert function in {node.name for node in tree.body
                            if isinstance(node, ast.FunctionDef)}
