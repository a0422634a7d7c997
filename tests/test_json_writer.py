"""The CLI's `--json` writer (`cli._json`) against the standard library: on
every tree of the payload types it gives the text of
`json.dumps(tree, indent=2, sort_keys=True)`, and it refuses every other type."""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ptsskit.cli import _json

SETTINGS = settings(derandomize=True, max_examples=500, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# any code point, lone surrogates and control characters among them
TEXT = st.one_of(
    st.text(st.characters() | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF), max_size=8),
    st.sampled_from(["", "é", "\x00", "\x1f", "\x7f", "\ud800", "\udfff", " ", '"\\/', "\U0001f600", "a b"]),
)
LEAVES = st.one_of(st.none(), st.booleans(), st.sampled_from([0, 1, -1, True, False]), st.integers(), TEXT)
TREES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4), max_leaves=24
)


@SETTINGS
@given(tree=TREES)
@example(tree=[])
@example(tree={})
@example(tree=[[], {}, [[]], {"": {}}])
@example(tree={"b": True, "a": 1, "c": [True, 1, False, 0, None]})
@example(tree={"\ud800": ["\udfff", "\x00\x1f"], "é": " "})
def test_the_writer_prints_what_json_dumps_prints(tree):
    assert _json(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, (1, 2), Fraction(1, 2), {"a": [0.5]}, [(0,)], {1: "x"}, {"a": Fraction(1)}])
def test_the_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json(value)
