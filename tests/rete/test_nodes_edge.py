"""Node-level edge cases: direct exercises of the Rete node classes."""

import pytest

from repro.ops5 import Ops5Error, parse_program
from repro.ops5.wme import WME
from repro.rete import ReteNetwork, assert_network_consistent
from repro.rete.nodes import DELETE, AlphaMemory, JoinNode, NegativeNode


def _session(source):
    net = ReteNetwork()
    for production in parse_program(source).productions:
        net.add_production(production)
    return net, net.memory


def _add(net, memory, cls, **attrs):
    wme = memory.add(WME(cls, attrs))
    net.add_wme(wme)
    return wme


class TestJoinNodeInternals:
    def test_eq_and_residual_split(self):
        net, _ = _session(
            "(p x (a ^v <q>) (b ^v <q> ^w > <q>) --> (halt))"
        )
        joins = [
            n for n in net.share_registry.values()
            if isinstance(n, JoinNode) and n.ce_index == 1
        ]
        [join] = joins
        assert len(join.eq_tests) == 1
        assert len(join.residual_tests) == 1
        assert join.eq_tests[0].own_attribute == "v"

    def test_intra_ce_predicate_not_indexed(self):
        # A predicate against a locally bound variable references the
        # candidate WME itself (other_ce == own index): never hashable.
        net, _ = _session("(p x (a) (b ^u <k> ^v > <k>) --> (halt))")
        [join] = [
            n for n in net.share_registry.values()
            if isinstance(n, JoinNode) and n.ce_index == 1
        ]
        assert join.eq_tests == ()

    def test_cross_product_join_has_no_tests(self):
        net, memory = _session("(p x (a) (b) --> (halt))")
        [join] = [
            n for n in net.share_registry.values()
            if isinstance(n, JoinNode) and n.ce_index == 1
        ]
        assert join.tests == ()
        _add(net, memory, "a")
        _add(net, memory, "b")
        assert len(net.conflict_set) == 1


class TestNegativeNodeInternals:
    def test_counts_tracked_per_token(self):
        net, memory = _session(
            "(p x (goal ^want <c>) - (block ^color <c>) --> (halt))"
        )
        _add(net, memory, "goal", want="red")
        _add(net, memory, "goal", want="blue")
        blocker = _add(net, memory, "block", color="red")
        [neg] = [n for n in net.share_registry.values() if isinstance(n, NegativeNode)]
        counts = sorted(count for _t, count in neg.stored.values())
        assert counts == [0, 1]  # blue unblocked, red blocked
        memory.remove(blocker)
        net.remove_wme(blocker)
        counts = sorted(count for _t, count in neg.stored.values())
        assert counts == [0, 0]
        assert_network_consistent(net)

    def test_negation_against_same_amem_as_positive(self):
        # One alpha memory feeds both a join and a negative node of the
        # same production: (a X) with no *other* (a X).
        net, memory = _session(
            "(p unique (item ^v <x>) - (item ^v <x> ^tag dup) --> (halt))"
        )
        _add(net, memory, "item", v=1)
        assert len(net.conflict_set) == 1
        _add(net, memory, "item", v=1, tag="dup")
        # The dup element blocks the v=1 match but also matches the
        # positive CE itself (and isn't blocked by itself? it is: its
        # own tag matches the negation with x=1).
        assert_network_consistent(net)


class TestAlphaMemoryCorruptedState:
    def test_delete_miss_raises_ops5error_with_context(self):
        # A delete reaching a memory that never stored the WME means the
        # network state is corrupted; the node must fail loudly with
        # node/WME context, not leak a bare KeyError.
        net, memory = _session("(p x (block ^color red) --> (halt))")
        [amem] = [
            n for n in net.share_registry.values() if isinstance(n, AlphaMemory)
        ]
        ghost = WME("block", {"color": "red"})
        ghost.timetag = 999
        with pytest.raises(Ops5Error) as excinfo:
            amem.activate(ghost, DELETE)
        message = str(excinfo.value)
        assert f"node {amem.id}" in message
        assert "t999" in message
        assert "block" in message
        assert "corrupted" in message

    def test_stored_wmes_still_delete_cleanly(self):
        net, memory = _session("(p x (block ^color red) --> (halt))")
        wme = _add(net, memory, "block", color="red")
        [amem] = [
            n for n in net.share_registry.values() if isinstance(n, AlphaMemory)
        ]
        assert wme.timetag in amem.items
        memory.remove(wme)
        net.remove_wme(wme)
        assert wme.timetag not in amem.items
        assert_network_consistent(net)


class TestAlphaMemoryBookkeeping:
    def test_production_names_shrink_on_removal(self):
        net, _ = _session("""
          (p one (block ^color red) --> (halt))
          (p two (block ^color red) --> (halt))
        """)
        [amem] = [n for n in net.share_registry.values() if isinstance(n, AlphaMemory)]
        assert amem.production_names == {"one", "two"}
        net.remove_production("one")
        # The shared memory survives; the name set is advisory and may
        # retain stale names only if nobody prunes -- ours prunes via
        # rebuild on next add; assert at minimum the live name remains.
        assert "two" in amem.production_names

    def test_disjunction_chains_shared_by_value_set(self):
        net, _ = _session("""
          (p one (block ^color << red green >>) --> (halt))
          (p two (block ^color << red green >>) --> (halt))
          (p three (block ^color << red blue >>) --> (halt))
        """)
        memories = [n for n in net.share_registry.values() if isinstance(n, AlphaMemory)]
        assert len(memories) == 2  # {red,green} shared; {red,blue} separate


class TestDetachEdgeCases:
    def test_class_root_survives_until_last_user(self):
        net, _ = _session("""
          (p one (block ^color red) --> (halt))
          (p two (block ^size 3) --> (halt))
        """)
        net.remove_production("one")
        assert "block" in net.class_roots
        net.remove_production("two")
        assert net.class_roots == {}

    def test_matching_still_works_after_sibling_detach(self):
        net, memory = _session("""
          (p long (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))
          (p short (a ^v <x>) (b ^v <x>) --> (halt))
        """)
        net.remove_production("long")
        _add(net, memory, "a", v=1)
        _add(net, memory, "b", v=1)
        _add(net, memory, "c", v=1)  # class root for c is gone: no-op
        assert {key[0] for key in net.conflict_set.snapshot()} == {"short"}
        assert_network_consistent(net)
