"""Properties of the value-code table.

Two invariants everything keyed on value codes rests on: equal codes
mean OPS5-equal values (and codes are dense), and a symbol's code can
never be mistaken for an equal number in a join key.
"""

from hypothesis import given, settings, strategies as st

from repro.kernel import CODES as KERNEL_CODES
from repro.ops5 import parse_program
from repro.ops5.symbols import CODES, encode_value
from repro.ops5.wme import WME, values_equal
from repro.rete.network import ReteNetwork


def make_wme(cls, attrs, timetag):
    wme = WME(cls, attrs)
    wme.timetag = timetag
    return wme


values = st.one_of(
    st.text(max_size=20), st.integers(-5, 5), st.floats(-5, 5, allow_nan=False)
)


@given(st.lists(values, max_size=40))
@settings(max_examples=50, deadline=None)
def test_intern_table_is_a_bijection(items):
    codes = [encode_value(v) for v in items]
    # Same value -> same code, and codes partition values exactly as
    # OPS5 equality does (1 and 1.0 share one; "1" and 1 never do).
    assert codes == [CODES[v] for v in items]
    for a, code_a in zip(items, codes):
        for b, code_b in zip(items, codes):
            assert (code_a == code_b) == values_equal(a, b), (a, b)
    assert sorted(CODES.values()) == list(range(len(CODES)))
    # One table per process: the kernel's columns use this very object.
    assert KERNEL_CODES is CODES


def test_symbol_ids_never_collide_with_numbers_in_join_keys():
    """A symbol whose code happens to equal a numeric join value must not
    hash-collide into the same bucket and produce phantom matches."""
    program = parse_program(
        """
        (p pair (left ^v <x>) (right ^v <x>) --> (make hit))
        """
    )
    network = ReteNetwork(indexed=True)  # the join keys under test
    for production in program.productions:
        network.add_production(production)
    sym = "collider"
    ident = CODES[sym]
    assert CODES[ident] != CODES[sym]  # the number gets a code of its own
    # A number equal to the symbol's code on the opposite side.
    network.add_wme(make_wme("left", {"v": sym}, 1))
    network.add_wme(make_wme("right", {"v": ident}, 2))
    assert len(network.conflict_set) == 0
    network.add_wme(make_wme("right", {"v": sym}, 3))
    assert len(network.conflict_set) == 1
    # Numbers still join by OPS5 equality: 7 and 7.0 land in one bucket.
    network.add_wme(make_wme("left", {"v": 7}, 4))
    network.add_wme(make_wme("right", {"v": 7.0}, 5))
    assert len(network.conflict_set) == 2
