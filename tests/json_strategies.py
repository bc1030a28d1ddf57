"""Hypothesis strategies for values a JSON reply can decode to."""

from hypothesis import strategies as st

# Any code point, lone surrogates included: json.loads turns "\ud800" into one.
ANY_TEXT = st.text(st.characters(exclude_categories=[]), max_size=8)

NUMBERS = (
    st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
)

JSON_SCALARS = st.none() | st.booleans() | NUMBERS | ANY_TEXT

JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(ANY_TEXT, children, max_size=4),
    max_leaves=12,
)
