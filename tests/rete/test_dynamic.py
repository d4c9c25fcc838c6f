"""Dynamic production addition/removal against live working memory."""

import pytest

from repro.ops5 import Ops5Error, parse_production
from repro.ops5.wme import WME
from repro.rete import ReteNetwork


def _fill(net, memory, items):
    for cls, attrs in items:
        wme = memory.add(WME(cls, attrs))
        net.add_wme(wme)


class TestAddProduction:
    def test_existing_memory_matched_at_compile(self):
        net = ReteNetwork()
        memory = net.memory
        _fill(net, memory, [("goal", {"want": "red"}), ("block", {"color": "red"})])
        net.add_production(
            parse_production("(p late (goal ^want <c>) (block ^color <c>) --> (halt))")
        )
        assert len(net.conflict_set) == 1

    def test_negations_respected_at_compile(self):
        net = ReteNetwork()
        memory = net.memory
        _fill(net, memory, [("goal", {}), ("block", {"color": "red"})])
        net.add_production(
            parse_production("(p late (goal) - (block ^color red) --> (halt))")
        )
        assert len(net.conflict_set) == 0

    def test_incremental_behaviour_after_late_add(self):
        net = ReteNetwork()
        memory = net.memory
        _fill(net, memory, [("block", {"color": "red"})])
        net.add_production(
            parse_production("(p late (goal ^want <c>) (block ^color <c>) --> (halt))")
        )
        assert len(net.conflict_set) == 0
        goal = memory.add(WME("goal", {"want": "red"}))
        net.add_wme(goal)
        assert len(net.conflict_set) == 1

    def test_shared_prefix_extension(self):
        net = ReteNetwork()
        memory = net.memory
        net.add_production(
            parse_production("(p short (a ^v <x>) (b ^v <x>) --> (halt))")
        )
        _fill(net, memory, [("a", {"v": 1}), ("b", {"v": 1}), ("c", {"v": 1})])
        net.add_production(
            parse_production("(p long (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))")
        )
        keys = {key[0] for key in net.conflict_set.snapshot()}
        assert keys == {"short", "long"}

    def test_duplicate_name_rejected(self):
        net = ReteNetwork()
        net.add_production(parse_production("(p one (a) --> (halt))"))
        with pytest.raises(Ops5Error):
            net.add_production(parse_production("(p one (b) --> (halt))"))


class TestRemoveProduction:
    def test_instantiations_retracted(self):
        net = ReteNetwork()
        memory = net.memory
        net.add_production(parse_production("(p gone (a) --> (halt))"))
        _fill(net, memory, [("a", {})])
        assert len(net.conflict_set) == 1
        net.remove_production("gone")
        assert len(net.conflict_set) == 0
        assert list(net.productions) == []

    def test_shared_nodes_survive_sibling_removal(self):
        net = ReteNetwork()
        memory = net.memory
        net.add_production(parse_production("(p one (a ^v 1) --> (halt))"))
        net.add_production(parse_production("(p two (a ^v 1) --> (halt))"))
        _fill(net, memory, [("a", {"v": 1})])
        net.remove_production("one")
        assert net.conflict_set.snapshot() == {("two", (1,))}
        # The surviving production still matches future changes.
        wme = memory.add(WME("a", {"v": 1}))
        net.add_wme(wme)
        assert len(net.conflict_set) == 2

    def test_unshared_nodes_pruned(self):
        net = ReteNetwork()
        net.add_production(parse_production("(p only (weird ^v 9) --> (halt))"))
        node_count = len(net.share_registry)
        assert node_count > 0
        net.remove_production("only")
        assert len(net.share_registry) == 0
        assert net.class_roots == {}

    def test_removed_production_stops_matching(self):
        net = ReteNetwork()
        memory = net.memory
        net.add_production(parse_production("(p gone (a) --> (halt))"))
        net.remove_production("gone")
        wme = memory.add(WME("a", {}))
        net.add_wme(wme)
        assert len(net.conflict_set) == 0

    def test_unknown_name_rejected(self):
        with pytest.raises(Ops5Error):
            ReteNetwork().remove_production("ghost")

    def test_re_add_after_remove(self):
        net = ReteNetwork()
        memory = net.memory
        production = parse_production("(p cycle (a) --> (halt))")
        net.add_production(production)
        _fill(net, memory, [("a", {})])
        net.remove_production("cycle")
        net.add_production(parse_production("(p cycle (a) --> (halt))"))
        assert len(net.conflict_set) == 1
