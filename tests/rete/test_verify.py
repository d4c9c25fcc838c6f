"""The network consistency checker: a deep oracle over internal state."""

from hypothesis import given, settings

from repro.ops5 import parse_program
from repro.ops5.wme import WME
from repro.rete import ReteNetwork, assert_network_consistent, check_network

from tests.rete.test_differential import change_scripts, programs


def _loaded(source, items):
    net = ReteNetwork()
    for production in parse_program(source).productions:
        net.add_production(production)
    memory = net.memory
    wmes = []
    for cls, attrs in items:
        wme = memory.add(WME(cls, attrs))
        net.add_wme(wme)
        wmes.append(wme)
    return net, wmes


class TestChecker:
    def test_clean_network_passes(self):
        net, _ = _loaded(
            "(p find (goal ^want <c>) (block ^color <c>) --> (halt))",
            [("goal", {"want": "red"}), ("block", {"color": "red"})],
        )
        assert check_network(net) == []

    def test_negation_state_audited(self):
        net, wmes = _loaded(
            "(p quiet (goal ^want <c>) - (block ^color <c>) --> (halt))",
            [("goal", {"want": "red"}), ("block", {"color": "red"}),
             ("block", {"color": "red"})],
        )
        assert check_network(net) == []
        net.memory.remove(wmes[1])
        net.remove_wme(wmes[1])
        assert check_network(net) == []

    def test_detects_corrupted_alpha_memory(self):
        net, wmes = _loaded(
            "(p find (block ^color red) --> (halt))",
            [("block", {"color": "red"})],
        )
        from repro.rete.nodes import AlphaMemory

        [amem] = [n for n in net.share_registry.values() if isinstance(n, AlphaMemory)]
        del amem.items[wmes[0].timetag]  # sabotage
        problems = check_network(net)
        assert problems and "alpha memory" in problems[0]

    def test_detects_corrupted_beta_memory(self):
        net, _ = _loaded(
            "(p find (a ^v <x>) (b ^v <x>) --> (halt))",
            [("a", {"v": 1}), ("b", {"v": 1})],
        )
        from repro.rete.nodes import BetaMemory

        memories = [
            n for n in net.share_registry.values()
            if isinstance(n, BetaMemory) and n.items
        ]
        memories[0].items.clear()  # sabotage
        assert check_network(net)

    def test_detects_stale_conflict_set(self):
        net, _ = _loaded(
            "(p find (a) --> (halt))",
            [("a", {})],
        )
        for instantiation in list(net.conflict_set):
            net.conflict_set.delete(instantiation)  # sabotage
        problems = check_network(net)
        assert problems and "terminal" in problems[0]

    def test_assert_raises_with_detail(self):
        net, wmes = _loaded("(p find (a) --> (halt))", [("a", {})])
        net.conflict_set.clear()
        import pytest

        with pytest.raises(AssertionError):
            assert_network_consistent(net)


@settings(max_examples=60, deadline=None)
@given(program=programs(), script=change_scripts())
def test_internal_state_always_consistent(program, script):
    """After any add/remove sequence, every memory equals its recomputed
    ground truth -- a much deeper check than conflict-set equality."""
    net = ReteNetwork()
    for production in program:
        net.add_production(production)
    memory = net.memory
    live = []
    for op in script:
        if op[0] == "add":
            cls, attrs = op[1]
            wme = memory.add(WME(cls, attrs))
            net.add_wme(wme)
            live.append(wme)
        else:
            wme = live.pop(op[1])
            memory.remove(wme)
            net.remove_wme(wme)
        assert_network_consistent(net)
