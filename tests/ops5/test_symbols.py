"""Symbols and numbers as join keys: the values themselves.

Both hashed matchers -- the compiled kernel's join keys and the indexed
Rete's ``JoinNode`` keys -- file a WME under its attribute values and
let a dict find its partners.  That is correct only if dict equality
*is* OPS5 equality (:func:`~repro.ops5.wme.values_equal`) on every value
a WME may hold: ``1`` joins ``1.0`` and ``-0.0`` joins ``0``, a symbol
never joins an equal-looking number, and an int past 2**53 does not
join the float it rounds to.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ops5 import ProductionSystem
from repro.ops5.wme import values_equal

#: One equality test (a bare key) and two (a tuple key, ``^w`` always "k").
PROGRAMS = {
    "bare": "(p pair (left ^v <x>) (right ^v <x>) --> (halt))",
    "tuple": "(p pair (left ^w <y> ^v <x>) (right ^w <y> ^v <x>) --> (halt))",
}

HASHED = ("compiled", "rete-indexed")

EDGES = (0, -0.0, 0.0, 1, 1.0, "1", 7, 7.0, float("inf"), float("-inf"),
         2**53 + 1, float(2**53 + 1), 2**53, "inf", "0")

values = st.one_of(
    st.text(max_size=6),
    st.integers(-5, 5),
    st.floats(-5, 5, allow_nan=False),
    st.sampled_from(EDGES),
)


def _twin(value):
    """An equal value, as a different object where the type allows."""
    return (value + "!")[:-1] if isinstance(value, str) else value


pairs = st.one_of(
    st.tuples(values, values),
    values.map(lambda v: (v, _twin(v))),
    st.tuples(st.sampled_from(EDGES), st.sampled_from(EDGES)),
)


def joined(matcher: str, shape: str, left, right, left_first: bool) -> bool:
    ps = ProductionSystem(PROGRAMS[shape], matcher=matcher)
    sides = [("left", left), ("right", right)]
    for cls, value in sides if left_first else sides[::-1]:
        ps.add(cls, v=value, w="k")
    return len(ps.conflict_set) == 1


def check_keys_join_as_values_equal(pair):
    left, right = pair
    expected = values_equal(left, right)
    for matcher in HASHED:
        for shape in PROGRAMS:
            for left_first in (True, False):
                got = joined(matcher, shape, left, right, left_first)
                assert got == expected, (matcher, shape, left_first, left, right)


def test_symbol_ids_never_collide_with_numbers_in_join_keys():
    """A symbol never joins an equal-looking number; numbers join by
    OPS5 equality, so 7 joins 7.0."""
    for matcher in HASHED:
        for shape in PROGRAMS:
            assert not joined(matcher, shape, "7", 7, True)
            assert not joined(matcher, shape, 7, "7", False)
            assert joined(matcher, shape, "collider", "collider", True)
            assert joined(matcher, shape, 7, 7.0, True)
            assert joined(matcher, shape, 7.0, 7, False)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@example(pair=(2**53 + 1, float(2**53 + 1)))
@example(pair=("1", 1))
@given(pair=pairs)
def test_hashed_matchers_join_exactly_when_values_equal(pair):
    check_keys_join_as_values_equal(pair)


@pytest.mark.fuzz
@settings(max_examples=3000, deadline=None, database=None)
@given(pair=pairs)
def test_hashed_matchers_join_exactly_when_values_equal_long(pair):
    check_keys_join_as_values_equal(pair)
