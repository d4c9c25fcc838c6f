"""Engine state export/restore: the session-migration payload.

Contract: exporting mid-run and restoring onto a fresh engine with the
same program must continue the firing sequence bit-identically -- WMEs
keep their original timetags (recency ordering), refraction memory
survives (nothing re-fires), and the blob is JSON-round-trippable and
matcher-independent.
"""

import json

import pytest

from repro.ops5 import parse_program
from repro.ops5.engine import ProductionSystem
from repro.ops5.errors import ExecutionError, WorkingMemoryError
from repro.ops5.wme import WME, WorkingMemory

CHAIN = """
  (p advance (step ^at <n>) (link ^src <n> ^dst <m>)
     --> (modify 1 ^at <m>) (write step <m>))
  (p finish (step ^at done) --> (write finished) (halt))
"""


def _build(matcher="rete"):
    system = ProductionSystem(parse_program(CHAIN), matcher=matcher, history=True)
    system.add("step", at=0)
    for i in range(6):
        system.add("link", src=i, dst=i + 1 if i < 5 else "done")
    return system


def _trace(system):
    return [(c.production, c.timetags) for c in system.cycles]


class TestAdopt:
    def test_adopt_preserves_timetag_and_advances_counter(self):
        memory = WorkingMemory()
        wme = WME("goal", {"want": "red"})
        wme.timetag = 7
        memory.adopt(wme)
        assert memory.by_timetag(7) is wme
        assert memory.next_timetag == 8
        assert memory.add(WME("goal", {})).timetag == 8

    def test_adopt_rejects_untagged_and_duplicate_tags(self):
        memory = WorkingMemory()
        with pytest.raises(WorkingMemoryError):
            memory.adopt(WME("goal", {}))
        first = WME("goal", {})
        first.timetag = 3
        memory.adopt(first)
        clash = WME("goal", {})
        clash.timetag = 3
        with pytest.raises(WorkingMemoryError):
            memory.adopt(clash)

    def test_reserve_timetags_never_rewinds(self):
        memory = WorkingMemory()
        memory.reserve_timetags(10)
        assert memory.next_timetag == 10
        memory.reserve_timetags(4)
        assert memory.next_timetag == 10


class TestExportRestore:
    @pytest.mark.parametrize("matcher", ["rete", "compiled"])
    def test_midrun_restore_continues_bit_identically(self, matcher):
        reference = _build(matcher)
        reference.run()
        assert reference.output[-1] == "finished"

        source = _build(matcher)
        source.run(max_cycles=3)
        prefix = _trace(source)
        state = json.loads(json.dumps(source.export_state()))

        target = ProductionSystem(parse_program(CHAIN), matcher=matcher, history=True)
        target.restore_state(state)
        source.run()
        target.run()

        # Cycle *records* are summaries and are not exported; the firing
        # sequence from the checkpoint onward must match exactly.
        assert _trace(target) == _trace(source)[len(prefix):]
        assert prefix + _trace(target) == _trace(reference)
        assert target.output == source.output == reference.output
        assert [w.timetag for w in target.memory.snapshot()] == [
            w.timetag for w in source.memory.snapshot()
        ]

    def test_restore_across_matcher_backends(self):
        source = _build("rete")
        source.run(max_cycles=2)
        prefix = len(_trace(source))
        state = source.export_state()
        target = ProductionSystem(parse_program(CHAIN), matcher="compiled", history=True)
        target.restore_state(state)
        source.run()
        target.run()
        assert _trace(target) == _trace(source)[prefix:]
        assert target.output == source.output

    def test_refraction_survives_restore(self):
        # A production that fires once and leaves its WMEs in place:
        # without restored refraction keys it would fire again.
        source = ProductionSystem("(p once (spark) --> (write lit))")
        source.add("spark")
        source.run()
        assert source.output == ["lit"]
        target = ProductionSystem("(p once (spark) --> (write lit))")
        target.restore_state(source.export_state())
        target.resume()
        result = target.run()
        assert result.fired == 0
        assert target.output == ["lit"]

    def test_restored_counters_and_halt_state(self):
        source = _build()
        source.run()
        state = source.export_state()
        target = ProductionSystem(parse_program(CHAIN))
        target.restore_state(state)
        assert target.halted and target.cycle == source.cycle
        assert target.total_firings == source.total_firings
        # Change counters restart at the replay: engine and matcher must
        # agree on the stream they both saw (obs consistency invariant).
        assert target.total_wme_changes == len(state["wmes"])
        assert target.matcher.peek_stats().total_changes == len(state["wmes"])
        assert target.memory.next_timetag == source.memory.next_timetag

    def test_restore_refuses_nonempty_memory_and_bad_schema(self):
        source = _build()
        state = source.export_state()
        occupied = _build()
        with pytest.raises(ExecutionError):
            occupied.restore_state(state)
        fresh = ProductionSystem(parse_program(CHAIN))
        with pytest.raises(ExecutionError):
            fresh.restore_state({"schema": "bogus/9"})
