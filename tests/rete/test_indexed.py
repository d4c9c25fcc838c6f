"""Hash-indexed join memories: identical semantics, less effort."""

from hypothesis import given, settings

from repro.naive import NaiveMatcher
from repro.ops5 import parse_program
from repro.ops5.wme import WME
from repro.rete import ReteNetwork

from tests.rete.test_differential import _drive, change_scripts, programs


class TestIndexedSemantics:
    def test_join_results_identical(self):
        src = "(p find (goal ^want <c>) (block ^color <c>) --> (halt))"

        def run(indexed):
            net = ReteNetwork(indexed=indexed)
            for production in parse_program(src).productions:
                net.add_production(production)
            memory = net.memory
            snaps = []
            for cls, attrs in [
                ("goal", {"want": "red"}),
                ("block", {"color": "red"}),
                ("block", {"color": "blue"}),
                ("block", {"color": "red"}),
            ]:
                wme = memory.add(WME(cls, attrs))
                net.add_wme(wme)
                snaps.append(net.conflict_set.snapshot())
            return snaps

        assert run(True) == run(False)

    def test_deletion_maintains_index(self):
        src = "(p find (a ^v <x>) (b ^v <x>) --> (halt))"
        net = ReteNetwork(indexed=True)
        for production in parse_program(src).productions:
            net.add_production(production)
        memory = net.memory
        a = memory.add(WME("a", {"v": 1}))
        b = memory.add(WME("b", {"v": 1}))
        net.add_wme(a)
        net.add_wme(b)
        assert len(net.conflict_set) == 1
        memory.remove(b)
        net.remove_wme(b)
        assert len(net.conflict_set) == 0
        memory.remove(a)
        net.remove_wme(a)
        # Index buckets emptied, not leaked.
        from repro.rete.nodes import JoinNode

        for node in net.share_registry.values():
            if isinstance(node, JoinNode) and node.indexed:
                assert node.left_index == {}
                assert node.right_index == {}

    def test_late_production_initialises_index_from_memory(self):
        net = ReteNetwork(indexed=True)
        memory = net.memory
        for cls, v in [("a", 1), ("b", 1), ("b", 2)]:
            wme = memory.add(WME(cls, {"v": v}))
            net.add_wme(wme)
        from repro.ops5 import parse_production

        net.add_production(parse_production("(p late (a ^v <x>) (b ^v <x>) --> (halt))"))
        assert len(net.conflict_set) == 1

    def test_residual_predicates_still_checked(self):
        src = "(p ord (n ^v <x>) (n ^v <x> ^w > <x>) --> (halt))"
        net = ReteNetwork(indexed=True)
        for production in parse_program(src).productions:
            net.add_production(production)
        memory = net.memory
        for v, w in [(1, 5), (1, 0)]:
            wme = memory.add(WME("n", {"v": v, "w": w}))
            net.add_wme(wme)
        # Pairs with matching v: 4 combos; only w > v survives, for
        # each left token whose v == 1: both wmes have v 1; w>1 only wme1.
        keys = net.conflict_set.snapshot()
        assert all(tags[1] == 1 for _, tags in keys)  # second CE is wme 1 (w=5)

    def test_effort_reduced_on_selective_joins(self):
        src = "(p find (a ^v <x>) (b ^v <x>) --> (halt))"

        def comparisons(indexed):
            net = ReteNetwork(indexed=indexed)
            for production in parse_program(src).productions:
                net.add_production(production)
            memory = net.memory
            for v in range(40):
                net.add_wme(memory.add(WME("a", {"v": v})))
            for v in range(40):
                net.add_wme(memory.add(WME("b", {"v": v})))
            assert len(net.conflict_set) == 40
            return net.stats.total_comparisons

        assert comparisons(True) < comparisons(False) / 5


@settings(max_examples=80, deadline=None)
@given(program=programs(), script=change_scripts())
def test_indexed_network_matches_naive(program, script):
    naive = _drive(NaiveMatcher(), program, script)
    indexed = _drive(ReteNetwork(indexed=True), program, script)
    assert indexed == naive
