"""Properties of the symbol intern table.

Two invariants everything keyed on intern ids rests on: the table is a
bijection between texts and dense ids, and an interned symbol id can
never be mistaken for an equal number in a join key.
"""

from hypothesis import given, settings, strategies as st

from repro.ops5 import parse_program
from repro.ops5.symbols import SYMBOLS, SymbolTable
from repro.ops5.wme import WME
from repro.rete.network import ReteNetwork


def make_wme(cls, attrs, timetag):
    wme = WME(cls, attrs)
    wme.timetag = timetag
    return wme


@given(st.lists(st.text(max_size=20), max_size=50))
@settings(max_examples=50, deadline=None)
def test_intern_table_is_a_bijection(texts):
    table = SymbolTable()
    ids = [table.intern_id(t) for t in texts]
    # Same text -> same id; every id resolves back to its text.
    assert ids == [table.intern_id(t) for t in texts]
    for text, ident in zip(texts, ids):
        assert table.text_of(ident) == text
    assert len(table) == len(set(texts))
    assert sorted(set(ids)) == list(range(len(table)))


def test_symbol_ids_never_collide_with_numbers_in_join_keys():
    """The regression the key bitmask exists for: a symbol whose intern
    id happens to equal a numeric join value must not hash-collide into
    the same bucket and produce phantom matches."""
    program = parse_program(
        """
        (p pair (left ^v <x>) (right ^v <x>) --> (make hit))
        """
    )
    network = ReteNetwork(indexed=True)  # the join keys under test
    for production in program.productions:
        network.add_production(production)
    sym = "collider"
    ident = SYMBOLS.intern_id(sym)
    # A number equal to the symbol's intern id on the opposite side.
    network.add_wme(make_wme("left", {"v": sym}, 1))
    network.add_wme(make_wme("right", {"v": ident}, 2))
    assert len(network.conflict_set) == 0
    network.add_wme(make_wme("right", {"v": sym}, 3))
    assert len(network.conflict_set) == 1
