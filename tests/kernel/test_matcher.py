"""Compiled-matcher semantics: differential vs Rete, edits, contracts."""

import json

import pytest

from repro.kernel import CompiledMatcher, check_kernel, codegen
from repro.ops5 import Ops5Error, parse_program
from repro.ops5.wme import WME
from repro.rete import ReteNetwork
from repro.workloads.programs import SYSTEM_PROGRAMS


def _loaded(source):
    compiled, rete = CompiledMatcher(), ReteNetwork()
    rete.memory = compiled.memory
    for production in parse_program(source).productions:
        compiled.add_production(production)
        rete.add_production(production)
    return compiled, rete, compiled.memory


def _differential(source, script):
    """Run *script* (``("add", cls, attrs)`` / ``("remove", index)``) on
    the compiled kernel and the interpreted Rete, comparing conflict-set
    snapshots after **every** change, not just at the end."""
    compiled, rete, memory = _loaded(source)
    wmes = []
    for step, op in enumerate(script):
        if op[0] == "add":
            _, cls, attrs = op
            wme = memory.add(WME(cls, attrs))
            wmes.append(wme)
            compiled.add_wme(wme)
            rete.add_wme(wme)
        else:
            wme = wmes[op[1]]
            memory.remove(wme)
            compiled.remove_wme(wme)
            rete.remove_wme(wme)
        ours = compiled.conflict_set.snapshot()
        theirs = rete.conflict_set.snapshot()
        assert ours == theirs, (step, op, ours ^ theirs)
    return compiled


JOIN = "(p find (goal ^want <c>) (block ^color <c>) --> (halt))"
NEGATED = "(p quiet (goal ^want <c>) - (block ^color <c>) --> (halt))"
THREE_WAY = """
  (p chain (edge ^a <x> ^b <y>) (edge ^a <y> ^b <z>) (mark ^node <z>)
     --> (halt))
"""


class TestDifferentialVsRete:
    def test_join_every_arrival_order(self):
        _differential(JOIN, [
            ("add", "goal", {"want": "red"}),
            ("add", "block", {"color": "blue"}),
            ("add", "block", {"color": "red"}),
            ("remove", 2),
            ("add", "block", {"color": "red"}),
            ("remove", 0),
        ])
        _differential(JOIN, [
            ("add", "block", {"color": "red"}),
            ("add", "goal", {"want": "red"}),
            ("remove", 1),
        ])

    def test_negation_blocker_transitions(self):
        _differential(NEGATED, [
            ("add", "goal", {"want": "red"}),      # fires (no blocker)
            ("add", "block", {"color": "red"}),    # retracts
            ("add", "block", {"color": "red"}),    # still blocked (count 2)
            ("remove", 1),                         # still blocked (count 1)
            ("remove", 2),                         # fires again
            ("add", "block", {"color": "blue"}),   # irrelevant blocker
        ])

    def test_three_way_join_and_retraction(self):
        _differential(THREE_WAY, [
            ("add", "edge", {"a": "n1", "b": "n2"}),
            ("add", "edge", {"a": "n2", "b": "n3"}),
            ("add", "mark", {"node": "n3"}),
            ("add", "edge", {"a": "n2", "b": "n3"}),  # duplicate pairing
            ("remove", 1),
            ("remove", 0),
        ])

    def test_intra_ce_predicate(self):
        _differential(
            "(p pair (n ^v <x>) (n ^v { <y> > <x> }) --> (halt))",
            [
                ("add", "n", {"v": 1}),
                ("add", "n", {"v": 3}),
                ("add", "n", {"v": 2}),
                ("remove", 1),
            ],
        )

    def test_numeric_symbol_value_edges(self):
        # 1 == 1.0 in OPS5; "1" is a symbol and equals neither.
        source = "(p find (goal ^want <c>) (block ^color <c>) --> (halt))"
        _differential(source, [
            ("add", "goal", {"want": 1}),
            ("add", "block", {"color": 1.0}),   # pairs (values_equal)
            ("add", "block", {"color": "1"}),   # symbol: no pair
            ("add", "goal", {"want": "1"}),     # pairs with the symbol only
            ("remove", 1),
        ])

    def test_bindings_and_keys_identical_to_rete(self):
        compiled, rete, memory = _loaded(JOIN)
        for cls, attrs in [("goal", {"want": "red"}), ("block", {"color": "red"})]:
            wme = memory.add(WME(cls, attrs))
            compiled.add_wme(wme)
            rete.add_wme(wme)
        [ours] = compiled.conflict_set.members()
        [theirs] = rete.conflict_set.members()
        assert ours.key == theirs.key
        assert ours.bindings == theirs.bindings == {"c": "red"}


class TestDynamicRulesetEdits:
    def test_add_production_with_wm_nonempty_folds_existing_wm(self):
        compiled, _, memory = _loaded(JOIN)
        goal = memory.add(WME("goal", {"want": "red"}))
        compiled.add_wme(goal)
        block = memory.add(WME("block", {"color": "red"}))
        compiled.add_wme(block)
        assert len(compiled.conflict_set) == 1
        late = parse_program(
            "(p late (block ^color <c>) --> (halt))"
        ).productions[0]
        compiled.add_production(late)
        keys = compiled.conflict_set.snapshot()
        assert ("late", (block.timetag,)) in keys
        assert ("find", (goal.timetag, block.timetag)) in keys

    def test_remove_production_with_wm_nonempty_drops_instantiations(self):
        compiled, _, memory = _loaded(JOIN)
        compiled.add_wme(memory.add(WME("goal", {"want": "red"})))
        compiled.add_wme(memory.add(WME("block", {"color": "red"})))
        assert len(compiled.conflict_set) == 1
        compiled.remove_production("find")
        assert len(compiled.conflict_set) == 0

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_a_rebuild_replay_counts_no_effort(self, partitions):
        _, rete, memory = _loaded(JOIN + NEGATED)
        compiled = CompiledMatcher(partitions=partitions)
        compiled.memory = memory
        for production in rete.productions:
            compiled.add_production(production)
        stats = compiled.stats  # held across the rebuild, as callers do
        for cls, attrs in [("goal", {"want": "red"}), ("block", {"color": "red"})]:
            wme = memory.add(WME(cls, attrs))
            compiled.add_wme(wme)
            rete.add_wme(wme)
        effort = (stats.total_node_activations, stats.total_tokens_built)
        assert effort[0] > 0 and effort[1] > 0
        late = parse_program("(p late (goal ^want <c>) (block ^color <c>) --> (halt))")
        compiled.add_production(late.productions[0])  # rebuild: quiet replay
        assert compiled.kernel_summary()["replayed_wmes"] == 2
        assert (stats.total_node_activations, stats.total_tokens_built) == effort
        assert stats.total_changes == 2
        # ... and the same object keeps counting real changes.
        compiled.add_wme(memory.add(WME("block", {"color": "red"})))
        assert stats.total_node_activations > effort[0]

    def test_lazy_compile_while_wm_empty(self):
        compiled = CompiledMatcher()
        for production in parse_program(JOIN + NEGATED).productions:
            compiled.add_production(production)
        # No WMEs yet: both edits fold into the single deferred compile.
        assert compiled.kernel_summary()["compiles"] == 0
        compiled.add_wme(compiled.memory.add(WME("goal", {"want": "red"})))
        assert compiled.kernel_summary()["compiles"] == 1

    def test_the_lazy_compile_matches_the_entering_wme_once(self):
        """Working memory already holds the WME whose ``add_wme`` runs
        the deferred compile: the replay leaves it out, and it is
        matched once, as the change it is."""
        compiled, _, memory = _loaded(JOIN + NEGATED)
        goal = memory.add(WME("goal", {"want": "red"}))
        compiled.add_wme(goal)
        summary = compiled.kernel_summary()
        assert (summary["compiles"], summary["replayed_wmes"]) == (1, 0)
        assert summary["store_rows"] == 1
        assert compiled.conflict_set.snapshot() == {("quiet", (goal.timetag,))}
        assert compiled.stats.total_changes == 1
        assert check_kernel(compiled) == []

    def test_the_lazy_compile_replays_no_wme_filed_after_the_entering_one(self):
        """Two WMEs filed before the first ``add_wme``: the compile that
        call runs replays neither, so each matches once, as in Rete."""
        compiled, rete, memory = _loaded("(p r (a ^x <v>) (b ^x <v>) --> (halt))")
        wmes = [memory.add(WME("a", {"x": 1})), memory.add(WME("b", {"x": 1}))]
        for wme in wmes:
            compiled.add_wme(wme)
            rete.add_wme(wme)
        assert compiled.conflict_set.snapshot() == rete.conflict_set.snapshot() == {
            ("r", (1, 2)),
        }
        assert compiled.kernel_summary()["replayed_wmes"] == 0
        assert check_kernel(compiled) == []


class TestErrorContracts:
    def test_duplicate_production_rejected(self):
        compiled, _, _ = _loaded(JOIN)
        with pytest.raises(Ops5Error):
            compiled.add_production(parse_program(JOIN).productions[0])

    def test_remove_unknown_production_rejected(self):
        compiled = CompiledMatcher()
        with pytest.raises(Ops5Error):
            compiled.remove_production("ghost")


class TestEngineIntegration:
    def test_matcher_named_returns_compiled(self):
        from repro.ops5.engine import matcher_named

        assert isinstance(matcher_named("compiled"), CompiledMatcher)

    def test_full_run_matches_rete_outcome(self):
        from repro.workloads.programs import closure

        expected = closure.expected_chain_facts(5)
        system = closure.build(closure.chain(5), matcher=CompiledMatcher())
        system.run(5000)
        assert closure.derived_facts(system) == expected


class TestKernelSummary:
    @pytest.mark.parametrize("partitions", [1, 2])
    def test_the_ruleset_is_planned_once_per_rebuild(self, monkeypatch, partitions):
        """``stats`` describes every session on a worker's loop: a second
        summary plans no store, and says what the first said, until a
        production edit changes the ruleset."""
        system = SYSTEM_PROGRAMS["r1-soar"].build(matcher=CompiledMatcher(partitions=partitions))
        matcher = system.matcher
        first = matcher.kernel_summary()
        plans = []
        real = codegen.plan_stores
        monkeypatch.setattr(codegen, "plan_stores", lambda ps: plans.append(ps) or real(ps))
        second = matcher.kernel_summary()
        assert json.dumps(second) == json.dumps(first) and plans == []
        second["sharing"]["sizes"].clear()  # a caller's edit stays its own
        assert matcher.kernel_summary()["sharing"] == first["sharing"]
        halt = next(p for p in matcher.productions if p.name == "r1-soar-halt")
        system.remove_production(halt.name)  # WM is not empty: rebuilds now
        plans.clear()
        edited = matcher.kernel_summary()
        assert plans and sum(edited["sharing"]["sizes"]) == sum(first["sharing"]["sizes"]) - 1
        assert edited["compiles"] == first["compiles"] + 1
