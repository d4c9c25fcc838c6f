"""Compiled-matcher semantics: differential vs Rete, edits, contracts."""

import pytest

from repro.kernel import CompiledMatcher
from repro.ops5 import Ops5Error, parse_program
from repro.ops5.wme import WME, WorkingMemory, make_wme
from repro.rete import ReteNetwork


def _loaded(source):
    compiled, rete = CompiledMatcher(), ReteNetwork()
    for production in parse_program(source).productions:
        compiled.add_production(production)
        rete.add_production(production)
    return compiled, rete, WorkingMemory()


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
        block = memory.add(WME("block", {"color": "red"}))
        compiled.add_wme(goal)
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
        compiled.add_wme(WorkingMemory().add(WME("goal", {"want": "red"})))
        assert compiled.kernel_summary()["compiles"] == 1


class TestErrorContracts:
    def test_duplicate_production_rejected(self):
        compiled, _, _ = _loaded(JOIN)
        with pytest.raises(Ops5Error):
            compiled.add_production(parse_program(JOIN).productions[0])

    def test_remove_unknown_production_rejected(self):
        compiled = CompiledMatcher()
        with pytest.raises(Ops5Error):
            compiled.remove_production("ghost")

    def test_remove_never_added_wme_rejected(self):
        compiled, _, _ = _loaded(JOIN)
        stray = make_wme("block", color="red")
        stray.timetag = 99
        with pytest.raises(Ops5Error):
            compiled.remove_wme(stray)


class TestOracleMode:
    def test_bundled_programs_run_clean_under_oracle(self):
        from repro.workloads.programs import hanoi, monkey

        result = hanoi.run(3, matcher=CompiledMatcher(oracle=True))
        assert result.halted and result.fired == 14
        result = monkey.run(matcher=CompiledMatcher(oracle=True))
        assert result.halted

    def test_oracle_reports_divergence(self):
        compiled, _, memory = _loaded(JOIN)
        oracle = CompiledMatcher(oracle=True)
        for production in parse_program(JOIN).productions:
            oracle.add_production(production)
        goal = memory.add(WME("goal", {"want": "red"}))
        oracle.add_wme(goal)
        # Sabotage the kernel's conflict set behind the oracle's back.
        block = memory.add(WME("block", {"color": "red"}))
        oracle.add_wme(block)
        oracle.conflict_set.delete_key(("find", (goal.timetag, block.timetag)))
        with pytest.raises(Ops5Error, match="diverged"):
            oracle.add_wme(memory.add(WME("block", {"color": "blue"})))


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
