"""The report writer: canonical JSON, byte for byte that of json.dumps."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equiblow.report import render

TEXT = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\r\t\b\f  aé€😀\ud800'),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    TEXT,
)
REPORTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(REPORTS)
def test_render_is_json_dumps_with_sorted_keys_and_indent(value):
    assert render(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_render_on_empty_and_nested_containers():
    value = {"b": [], "a": {}, "c": [[], {}, ()], "d": {"z": {"y": [()]}}}
    assert render(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [1.5, Fraction(1, 2), {1: "x"}, {"a": [0.0]}, {"a": {"b": Fraction(3)}}, {None: 1}],
)
def test_render_refuses_what_a_report_cannot_hold(value):
    with pytest.raises(TypeError):
        render(value)
