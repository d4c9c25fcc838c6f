"""Node sharing: identical tests and prefixes compile to shared nodes."""

from repro.ops5 import parse_program
from repro.rete import ReteNetwork, collect_stats
from repro.rete.nodes import AlphaMemory, JoinNode


def _net(source: str) -> ReteNetwork:
    net = ReteNetwork()
    for production in parse_program(source).productions:
        net.add_production(production)
    return net


def _count(net, kind):
    return sum(1 for n in net.share_registry.values() if n.kind == kind)


class TestAlphaSharing:
    def test_identical_ces_share_alpha_memory(self):
        net = _net("""
          (p one (block ^color red) --> (halt))
          (p two (block ^color red) --> (halt))
        """)
        assert _count(net, "amem") == 1
        assert net.nodes_shared > 0

    def test_different_constants_do_not_share_memory(self):
        net = _net("""
          (p one (block ^color red) --> (halt))
          (p two (block ^color blue) --> (halt))
        """)
        assert _count(net, "amem") == 2

    def test_class_root_shared(self):
        net = _net("""
          (p one (block ^color red) --> (halt))
          (p two (block ^size 3) --> (halt))
        """)
        assert len(net.class_roots) == 1

    def test_variables_do_not_split_alpha(self):
        # Variable tests are beta concerns; the alpha chains coincide.
        net = _net("""
          (p one (block ^color <c>) --> (halt))
          (p two (block ^color <d>) --> (halt))
        """)
        assert _count(net, "amem") == 1


class TestBetaSharing:
    def test_identical_prefix_shares_join(self):
        net = _net("""
          (p one (goal ^want <c>) (block ^color <c>) --> (halt))
          (p two (goal ^want <c>) (block ^color <c>) (extra) --> (halt))
        """)
        # The first join (goal x block) exists once.
        joins = [
            n
            for n in net.share_registry.values()
            if isinstance(n, JoinNode) and n.ce_index == 1
        ]
        assert len(joins) == 1
        assert joins[0].refcount == 2

    def test_different_join_tests_not_shared(self):
        net = _net("""
          (p one (goal ^want <c>) (block ^color <c>) --> (halt))
          (p two (goal ^want <c>) (block ^size <c>) --> (halt))
        """)
        joins = [
            n
            for n in net.share_registry.values()
            if isinstance(n, JoinNode) and n.ce_index == 1
        ]
        assert len(joins) == 2

    def test_sharing_ratio_reflects_reuse(self):
        shared = _net("""
          (p one (a ^v 1) (b ^w 2) --> (halt))
          (p two (a ^v 1) (b ^w 2) --> (halt))
        """)
        unshared = _net("""
          (p one (a ^v 1) (b ^w 2) --> (halt))
          (p two (c ^v 1) (d ^w 2) --> (halt))
        """)
        assert collect_stats(shared).sharing_ratio > collect_stats(unshared).sharing_ratio


class TestStatsSnapshot:
    def test_node_census(self):
        net = _net("(p one (a ^v 1) (b) --> (halt))")
        stats = collect_stats(net)
        assert stats.productions == 1
        assert stats.nodes_by_kind["term"] == 1
        assert stats.nodes_by_kind["amem"] == 2
        assert stats.nodes_by_kind["join"] == 2
        assert stats.total_nodes == sum(stats.nodes_by_kind.values())

    def test_state_volume_counts_live_entries(self):
        net = _net("(p one (a ^v <x>) (b ^v <x>) --> (halt))")
        from repro.ops5.wme import WME

        memory = net.memory
        for cls, v in [("a", 1), ("a", 2), ("b", 1)]:
            wme = memory.add(WME(cls, {"v": v}))
            net.add_wme(wme)
        stats = collect_stats(net)
        assert stats.alpha_wmes == 3
        # beta: two tokens for the two a's, plus one full match token.
        assert stats.beta_tokens == 3

    def test_amem_production_names_maintained(self):
        net = _net("""
          (p one (block ^color red) --> (halt))
          (p two (block ^color red) --> (halt))
        """)
        [amem] = [n for n in net.share_registry.values() if isinstance(n, AlphaMemory)]
        assert amem.production_names == {"one", "two"}
