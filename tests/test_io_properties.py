"""A hypothesis property of the JSON writer: ``io.dumps`` of any value built
of dicts with string keys, lists, tuples, strings, ints, booleans and
``None`` is the standard library's ``indent=2`` text, byte for byte."""

import json

from hypothesis_or_skip import given, settings, st

from conceptual.io import dumps

# characters JSON must escape, or must pass through unescaped: quotes,
# backslashes, control characters, the two line separators JavaScript reads
# as line ends, astral characters and lone surrogates
AWKWARD = st.sampled_from(
    ['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "/", " ", " ",
     "\U0001F600", "\ud800", "\udfff", "é", "a", " "]
)
strings = st.one_of(st.text(max_size=6), st.text(AWKWARD, max_size=6))
ints = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=2**64, max_value=2**200),
)
# a matrix row, and a row with booleans mixed into its 0s and 1s
rows = st.lists(st.sampled_from([0, 1]), max_size=8)
mixed_rows = st.lists(st.sampled_from([0, 1, True, False]), max_size=8)
scalars = st.one_of(strings, ints, st.booleans(), st.none(), rows, mixed_rows)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.lists(strings, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, database=None)
@given(values)
def test_dumps_is_the_standard_library_text(value):
    assert dumps(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"
