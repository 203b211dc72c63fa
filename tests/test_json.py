"""`spindim._json.dumps` against its oracle, `json.dumps(obj, indent=2)`:
on generated values, on every JSON stdout of the digest corpus, and on
the values outside its domain, which it refuses."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_corpus
from spindim import cli
from spindim._json import dumps

# text that reaches every escape: quotes, backslashes, control
# characters, DEL, non-ASCII and lone surrogates, plus any code point
_AWKWARD = '"\\\x00\x08\x1f\x7f\x80\xe9\u2028\ud800\udfff\U0001f600 ~'
_TEXT = st.text(st.one_of(st.sampled_from(_AWKWARD),
                          st.characters(exclude_categories=())))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.integers(-10**300, 10**300), _TEXT)
_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids,
                                                              max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_dumps_is_json_dumps_with_indent_2(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


def test_every_json_stdout_of_the_corpus_is_what_json_dumps_writes():
    seen = 0
    for argv in cli_corpus.corpus():
        out = cli.run(argv)[1]
        if not out.startswith(("{\n", "[\n")):    # tsv or a symbol
            continue
        obj = json.loads(out)
        assert out == json.dumps(obj, indent=2) + "\n", argv
        assert dumps(obj) + "\n" == out, argv
        seen += 1
    assert seen > 900


@pytest.mark.parametrize("obj", [
    {1: "a"}, {"a": {None: 1}}, 1.5, [0.0], {1, 2}, {"a": {"b"}}, (1, 2),
])
def test_values_outside_the_domain_raise_type_error(obj):
    with pytest.raises(TypeError):
        dumps(obj)
