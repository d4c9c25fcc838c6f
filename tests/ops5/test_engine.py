"""The recognize--act engine."""

import pytest

from repro.ops5 import (
    WME,
    DuplicateProductionError,
    EngineListener,
    ExecutionError,
    ProductionSystem,
    parse_program,
)
from repro.ops5.engine import QUIESCENT
from repro.naive import NaiveMatcher
from repro.rete import ReteNetwork


COUNTER = """
(p count-down
  (counter ^n { <n> > 0 })
  -->
  (modify 1 ^n (compute <n> - 1))
  (write tick <n>))

(p done
  (counter ^n 0)
  -->
  (remove 1)
  (halt))
"""


@pytest.fixture(params=["rete", "naive"])
def matcher(request):
    return ReteNetwork() if request.param == "rete" else NaiveMatcher()


class TestRunLoop:
    def test_counts_down_and_halts(self, matcher):
        ps = ProductionSystem(COUNTER, matcher=matcher)
        ps.add("counter", n=3)
        result = ps.run()
        assert result.fired == 4
        assert result.halted and result.halt_reason == "halt action"
        assert result.output == ["tick 3", "tick 2", "tick 1"]
        assert len(ps.memory) == 0

    def test_halts_when_nothing_satisfied(self, matcher):
        ps = ProductionSystem(COUNTER, matcher=matcher)
        result = ps.run()
        assert result.fired == 0
        assert result.halt_reason == "no satisfied production"

    def test_cycle_limit(self, matcher):
        ps = ProductionSystem(COUNTER, matcher=matcher)
        ps.add("counter", n=100)
        result = ps.run(max_cycles=5)
        assert result.fired == 5
        assert not result.halted
        assert result.halt_reason == "cycle limit"

    def test_step_returns_fired_instantiation(self):
        ps = ProductionSystem(COUNTER)
        ps.add("counter", n=1)
        fired = ps.step()
        assert fired.production.name == "count-down"
        assert ps.step().production.name == "done"
        assert ps.step() is None

    def test_refraction_prevents_refiring(self):
        # A production whose RHS does not invalidate its own match would
        # loop forever without refraction.
        ps = ProductionSystem("(p noisy (thing) --> (write hi))")
        ps.add("thing")
        result = ps.run(max_cycles=10)
        assert result.fired == 1
        assert result.output == ["hi"]


class TestModifySemantics:
    def test_modify_assigns_fresh_timetag(self):
        ps = ProductionSystem(
            "(p bump (c ^n 1) --> (modify 1 ^n 2))"
        )
        wme = ps.add("c", n=1)
        ps.run()
        [survivor] = ps.memory.snapshot()
        assert survivor.get("n") == 2
        assert survivor.timetag > wme.timetag

    def test_modify_preserves_unmentioned_attributes(self):
        ps = ProductionSystem("(p bump (c ^n 1) --> (modify 1 ^n 2))")
        ps.add("c", n=1, keep="me")
        ps.run()
        [survivor] = ps.memory.snapshot()
        assert survivor.get("keep") == "me"

    def test_modify_counts_as_remove_plus_add(self):
        ps = ProductionSystem("(p bump (c ^n 1) --> (modify 1 ^n 2))")
        ps.add("c", n=1)
        result = ps.run()
        [cycle] = result.cycles
        assert (cycle.adds, cycle.removes) == (1, 1)
        assert result.mean_changes_per_firing == 2.0

    def test_modify_after_remove_fails(self):
        ps = ProductionSystem(
            "(p bad (c) --> (remove 1) (modify 1 ^n 5))"
        )
        ps.add("c")
        with pytest.raises(ExecutionError):
            ps.run()

    def test_second_modify_sees_first(self):
        ps = ProductionSystem(
            "(p twice (c ^n <n>) --> (modify 1 ^n 5) (modify 1 ^m 6))"
        )
        ps.add("c", n=1)
        ps.run(1)
        [survivor] = ps.memory.snapshot()
        assert survivor.get("n") == 5
        assert survivor.get("m") == 6


class TestProgramManagement:
    def test_duplicate_production_rejected(self):
        ps = ProductionSystem("(p one (a) --> (halt))")
        with pytest.raises(DuplicateProductionError):
            ps.add_production(parse_program("(p one (b) --> (halt))").productions[0])

    def test_add_production_matches_existing_memory(self):
        ps = ProductionSystem()
        ps.add("c", n=1)
        ps.add_production(parse_program("(p now (c ^n 1) --> (halt))").productions[0])
        assert len(ps.conflict_set) == 1

    def test_remove_production(self):
        ps = ProductionSystem("(p gone (c) --> (halt))")
        ps.add("c")
        assert len(ps.conflict_set) == 1
        ps.remove_production("gone")
        assert len(ps.conflict_set) == 0

    def test_load_memory(self):
        ps = ProductionSystem()
        wmes = ps.load_memory([("a", {"x": 1}), ("b", {})])
        assert [w.cls for w in wmes] == ["a", "b"]
        assert len(ps.memory) == 2


class TestListener:
    def test_hooks_fire_in_order(self):
        events = []

        class Recorder(EngineListener):
            def on_cycle(self, cycle, fired):
                events.append(("cycle", cycle, fired.production.name))

            def on_change(self, cycle, kind, wme):
                events.append(("change", cycle, kind, wme.cls))

            def on_halt(self, cycle, reason):
                events.append(("halt", reason))

        ps = ProductionSystem(COUNTER, listener=Recorder())
        ps.add("counter", n=1)
        ps.run()
        assert events[0] == ("change", 0, "add", "counter")
        assert ("cycle", 1, "count-down") in events
        assert events[-1] == ("halt", "halt action")

    def test_strategies_selectable_by_name(self):
        ps = ProductionSystem(COUNTER, strategy="mea")
        ps.add("counter", n=1)
        assert ps.run().fired == 2

    def test_no_listener_by_default(self):
        ps = ProductionSystem(COUNTER)
        assert ps.listener is None
        ps.add("counter", n=1)
        assert ps.run().fired == 2


COPY = "(p copy (a ^x <v>) - (block ^x <v>) --> (make b ^x <v>))"


@pytest.fixture(params=["compiled", "rete"])
def quiescent(request):
    """An engine that fired once and then found nothing to fire."""
    ps = ProductionSystem(COPY, matcher=request.param)
    ps.add("a", x=1)
    assert ps.run().fired == 1
    assert ps.halted
    return ps


class TestQuiescenceIsRechecked:
    """A quiescence halt describes the working memory of its cycle;
    ``run`` and ``step`` check it again, whatever path the changes
    since then took.  A ``halt`` action stays sticky."""

    def test_run_after_add(self, quiescent):
        quiescent.add("a", x=2)
        result = quiescent.run()
        assert (result.fired, result.halted, result.halt_reason) == (1, True, QUIESCENT)
        assert [c.timetags for c in result.cycles] == [(3,)]

    def test_step_after_add_wme(self, quiescent):
        wme = quiescent.add_wme(WME("a", {"x": 2}))
        assert quiescent.step().wmes == (wme,)
        assert quiescent.step() is None and quiescent.halted

    def test_run_after_load_memory(self, quiescent):
        quiescent.load_memory([("a", {"x": 2}), ("a", {"x": 3})])
        assert quiescent.run().fired == 2

    def test_run_after_remove_wme_unblocks(self, quiescent):
        blocker = quiescent.add("block", x=5)
        quiescent.add("a", x=5)
        assert quiescent.run().fired == 0
        quiescent.remove_wme(blocker)
        assert quiescent.run().fired == 1

    def test_nothing_new_stays_quiescent(self, quiescent):
        for _ in range(2):
            result = quiescent.run()
            assert (result.fired, result.halted, result.halt_reason) == (0, True, QUIESCENT)
            assert quiescent.step() is None and quiescent.halted

    @pytest.mark.parametrize("matcher", ["compiled", "rete"])
    def test_nothing_new_is_not_checked_again(self, matcher):
        # No select, no second halt event: a re-run costs what it did.
        halts = []

        class Halts(EngineListener):
            def on_halt(self, cycle, reason):
                halts.append(reason)

        ps = ProductionSystem(COPY, matcher=matcher, listener=Halts())
        ps.add("a", x=1)
        ps.run()
        selects = ps.conflict_set.selects
        ps.add("b", x=7)  # satisfies nothing
        ps.run()
        ps.step()
        assert (ps.conflict_set.selects, halts) == (selects, [QUIESCENT])
        ps.add("a", x=2)
        assert ps.run().fired == 1
        assert halts == [QUIESCENT, QUIESCENT]

    @pytest.mark.parametrize("max_cycles", [0, -1])
    def test_no_cycles_check_nothing(self, quiescent, max_cycles):
        quiescent.add("a", x=2)
        result = quiescent.run(max_cycles=max_cycles)
        assert (result.fired, result.halted, result.halt_reason) == (0, True, QUIESCENT)
        assert quiescent.export_state()["halted"]
        assert quiescent.run().fired == 1

    def test_a_halt_action_stays_sticky(self, quiescent):
        quiescent.add_production(parse_program("(p stop (b ^x 2) --> (halt))").productions[0])
        quiescent.add("a", x=2)
        assert quiescent.run().fired == 2  # copy, then stop
        quiescent.add("a", x=3)
        for _ in range(2):
            result = quiescent.run()
            assert (result.fired, result.halt_reason) == (0, "halt action")
            assert quiescent.step() is None
        quiescent.resume()
        assert quiescent.run().fired == 1

    def test_a_batch_still_clears_the_flag_at_once(self, quiescent):
        # What serve replies and describe() report after a batch.
        quiescent.apply_changes([("assert", "a", {"x": 2})])
        assert not quiescent.halted
        assert quiescent.run().fired == 1

    def test_an_explicit_resume_is_no_longer_needed_and_harmless(self, quiescent):
        quiescent.add("a", x=2)
        state = quiescent.export_state()
        assert state["halted"] and state["halt_reason"] == QUIESCENT
        fired = []
        for resume in (False, True):
            target = ProductionSystem(COPY, matcher="compiled")
            target.restore_state(state)
            if resume:
                target.resume()
            result = target.run()
            fired.append([(c.production, c.timetags) for c in result.cycles])
        assert fired[0] == fired[1] == [("copy", (3,))]


class TestReset:
    def test_reset_allows_a_fresh_run_on_the_same_network(self):
        ps = ProductionSystem(COUNTER)
        ps.add("counter", n=2)
        first = ps.run()
        assert first.fired == 3
        ps.reset()
        assert len(ps.memory) == 0
        assert not ps.halted
        ps.add("counter", n=4)
        second = ps.run()
        assert second.fired == 5
        assert second.output == ["tick 4", "tick 3", "tick 2", "tick 1"]

    def test_timetags_not_reused_across_resets(self):
        ps = ProductionSystem(COUNTER)
        ps.add("counter", n=1)
        ps.run()
        ps.reset()
        wme = ps.add("counter", n=1)
        assert wme.timetag > 2  # earlier run consumed tags

    def test_refraction_cleared_by_reset(self):
        ps = ProductionSystem("(p once (thing) --> (write hi))")
        ps.add("thing")
        assert ps.run().output == ["hi"]
        ps.reset()
        ps.add("thing")
        assert ps.run().output == ["hi"]  # fires again: new instantiation

    def test_reset_keeps_productions(self):
        ps = ProductionSystem(COUNTER)
        ps.reset()
        assert ps.matcher.production_names() == {"count-down", "done"}
