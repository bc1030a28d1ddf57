"""Hypothesis strategies for values a JSON reply can decode to, and JSON
texts that nest deeper than the parser can recurse."""

from hypothesis import strategies as st

# Any code point, lone surrogates included: json.loads turns "\ud800" into one.
ANY_TEXT = st.text(st.characters(exclude_categories=[]), max_size=8)
# Text ``core.read_json_object`` lets through: no lone surrogate.
READABLE_TEXT = st.text(st.characters(exclude_categories=["Cs"]), max_size=8)

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

DEEPEST = 100_000


def nested_arrays(depth: int) -> bytes:
    """``depth`` arrays, one inside the next."""
    return b"[" * depth + b"]" * depth


# Nested arrays, bare or as a request field's value, from one level to
# ``DEEPEST``: from about a thousand levels on, deeper than json.loads can
# recurse.
NESTED_ARRAYS = st.builds(
    lambda depth, wrap: wrap % nested_arrays(depth),
    st.integers(1, 2_000) | st.integers(2_000, DEEPEST),
    st.sampled_from([b"%s", b'{"prompt": %s}', b'{"inputs": %s}']),
)
