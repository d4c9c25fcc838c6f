"""Rete network semantics: joins, negation, incremental updates."""

import pytest

from repro.ops5 import Ops5Error, parse_program
from repro.ops5.wme import WME, WorkingMemory, make_wme
from repro.rete import ReteNetwork


def _net(source: str) -> tuple[ReteNetwork, WorkingMemory]:
    net = ReteNetwork()
    for production in parse_program(source).productions:
        net.add_production(production)
    return net, net.memory


def _add(net, memory, cls, **attrs):
    wme = memory.add(WME(cls, attrs))
    net.add_wme(wme)
    return wme


def _keys(net):
    return net.conflict_set.snapshot()


class TestSingleProduction:
    SRC = "(p find (goal ^want <c>) (block ^color <c>) --> (halt))"

    def test_join_on_shared_variable(self):
        net, memory = _net(self.SRC)
        goal = _add(net, memory, "goal", want="red")
        _add(net, memory, "block", color="blue")
        assert len(net.conflict_set) == 0
        block = _add(net, memory, "block", color="red")
        assert _keys(net) == {("find", (goal.timetag, block.timetag))}

    def test_remove_retracts(self):
        net, memory = _net(self.SRC)
        goal = _add(net, memory, "goal", want="red")
        block = _add(net, memory, "block", color="red")
        assert len(net.conflict_set) == 1
        memory.remove(block)
        net.remove_wme(block)
        assert len(net.conflict_set) == 0
        memory.remove(goal)
        net.remove_wme(goal)
        assert len(net.conflict_set) == 0

    def test_either_arrival_order_works(self):
        net, memory = _net(self.SRC)
        block = _add(net, memory, "block", color="red")
        goal = _add(net, memory, "goal", want="red")
        assert _keys(net) == {("find", (goal.timetag, block.timetag))}

    def test_remove_unknown_wme_rejected(self):
        net, _ = _net(self.SRC)
        stray = make_wme("block", color="red")
        stray.timetag = 99
        with pytest.raises(Ops5Error):
            net.remove_wme(stray)

    def test_bindings_delivered_to_instantiation(self):
        net, memory = _net(self.SRC)
        _add(net, memory, "goal", want="red")
        _add(net, memory, "block", color="red")
        [inst] = net.conflict_set.members()
        assert inst.bindings == {"c": "red"}


class TestCrossProducts:
    def test_no_tests_yields_cross_product(self):
        net, memory = _net("(p all (a) (b) --> (halt))")
        for _ in range(3):
            _add(net, memory, "a")
        for _ in range(2):
            _add(net, memory, "b")
        assert len(net.conflict_set) == 6

    def test_same_class_pairs(self):
        net, memory = _net("(p pair (n ^v <x>) (n ^v { <y> > <x> }) --> (halt))")
        _add(net, memory, "n", v=1)
        _add(net, memory, "n", v=3)
        _add(net, memory, "n", v=2)
        # ordered pairs with y > x: (1,3), (1,2), (2,3)
        assert len(net.conflict_set) == 3


class TestNegation:
    SRC = """
      (p quiet (goal ^want <c>) - (block ^color <c>) --> (halt))
    """

    def test_negation_blocks_and_unblocks(self):
        net, memory = _net(self.SRC)
        _add(net, memory, "goal", want="red")
        assert len(net.conflict_set) == 1
        blocker = _add(net, memory, "block", color="red")
        assert len(net.conflict_set) == 0
        memory.remove(blocker)
        net.remove_wme(blocker)
        assert len(net.conflict_set) == 1

    def test_negation_counts_multiple_blockers(self):
        net, memory = _net(self.SRC)
        _add(net, memory, "goal", want="red")
        b1 = _add(net, memory, "block", color="red")
        b2 = _add(net, memory, "block", color="red")
        memory.remove(b1)
        net.remove_wme(b1)
        assert len(net.conflict_set) == 0  # b2 still blocks
        memory.remove(b2)
        net.remove_wme(b2)
        assert len(net.conflict_set) == 1

    def test_unrelated_blocker_ignored(self):
        net, memory = _net(self.SRC)
        _add(net, memory, "goal", want="red")
        _add(net, memory, "block", color="blue")
        assert len(net.conflict_set) == 1

    def test_trailing_negation_with_predicate(self):
        net, memory = _net(
            "(p max (n ^v <x>) - (n ^v > <x>) --> (halt))"
        )
        _add(net, memory, "n", v=1)
        _add(net, memory, "n", v=5)
        _add(net, memory, "n", v=3)
        [inst] = net.conflict_set.members()
        assert inst.bindings["x"] == 5

    def test_negation_then_positive_with_same_name(self):
        # A variable name first used inside a negated CE is local to it;
        # the later positive CE binds it independently.
        net, memory = _net(
            "(p scoped (goal) - (taken ^v <w>) (free ^v <w>) --> (halt))"
        )
        _add(net, memory, "goal")
        _add(net, memory, "free", v=7)
        assert len(net.conflict_set) == 1
        _add(net, memory, "taken", v=99)  # matches the wildcard: blocks
        assert len(net.conflict_set) == 0


class TestIncrementalConsistency:
    def test_add_remove_roundtrip_restores_state(self):
        net, memory = _net(
            "(p three (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
        )
        a = _add(net, memory, "a", v=1)
        b = _add(net, memory, "b", v=1)
        before = net.state_size()
        c = _add(net, memory, "c", v=1)
        assert len(net.conflict_set) == 1
        memory.remove(c)
        net.remove_wme(c)
        assert len(net.conflict_set) == 0
        assert net.state_size() == before

    def test_wme_count_tracked(self):
        net, memory = _net("(p x (a) --> (halt))")
        wme = _add(net, memory, "a")
        assert len(net.memory) == 1
        memory.remove(wme)
        net.remove_wme(wme)
        assert len(net.memory) == 0

    def test_stats_record_affected_productions(self):
        net, memory = _net(
            "(p one (a ^v 1) --> (halt)) (p two (a ^v <x>) --> (halt))"
        )
        net.stats.keep_rows()
        _add(net, memory, "a", v=1)
        assert net.stats.changes[-1].affected_productions == 2
        _add(net, memory, "a", v=2)
        assert net.stats.changes[-1].affected_productions == 1
        _add(net, memory, "unrelated")
        assert net.stats.changes[-1].affected_productions == 0
