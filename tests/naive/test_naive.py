"""The naive reference matcher."""

from repro.naive import NaiveMatcher
from repro.ops5 import parse_production, parse_program
from repro.ops5.wme import WME, WorkingMemory


class _Session:
    def __init__(self, source: str):
        self.matcher = NaiveMatcher()
        self.matcher.stats.keep_rows()
        for production in parse_program(source).productions:
            self.matcher.add_production(production)
        self.memory = WorkingMemory()

    def add(self, cls, **attrs):
        wme = self.memory.add(WME(cls, attrs))
        self.matcher.add_wme(wme)
        return wme

    def remove(self, wme):
        self.memory.remove(wme)
        self.matcher.remove_wme(wme)


class TestSemantics:
    def test_join(self):
        s = _Session("(p find (goal ^want <c>) (block ^color <c>) --> (halt))")
        goal = s.add("goal", want="red")
        block = s.add("block", color="red")
        assert s.matcher.conflict_set.snapshot() == {
            ("find", (goal.timetag, block.timetag))
        }

    def test_negation_positioned_midway(self):
        s = _Session("(p x (a ^v <n>) - (blocker ^v <n>) (b ^v <n>) --> (halt))")
        s.add("a", v=1)
        s.add("b", v=1)
        assert len(s.matcher.conflict_set) == 1
        s.add("blocker", v=1)
        assert len(s.matcher.conflict_set) == 0

    def test_effort_scales_with_memory(self):
        s = _Session("(p x (a ^v <n>) (b ^v <n>) --> (halt))")
        for v in range(10):
            s.add("a", v=v)
        baseline = s.matcher.stats.changes[-1].comparisons
        for v in range(10):
            s.add("b", v=v)
        grown = s.matcher.stats.changes[-1].comparisons
        # Every change re-matches the whole memory: later changes cost
        # more than earlier ones -- the non-state-saving signature.
        assert grown > baseline

    def test_production_removal(self):
        s = _Session("(p x (a) --> (halt)) (p y (a) --> (halt))")
        s.add("a")
        assert len(s.matcher.conflict_set) == 2
        s.matcher.remove_production("x")
        assert {k[0] for k in s.matcher.conflict_set.snapshot()} == {"y"}

    def test_late_production_addition(self):
        s = _Session("(p x (a) --> (halt))")
        wme = s.add("a")
        s.matcher.add_production(parse_production("(p late (a) --> (halt))"))
        assert ("late", (wme.timetag,)) in s.matcher.conflict_set.snapshot()

    def test_affected_counts_alpha_hits(self):
        s = _Session("(p x (a ^v 1) (b) --> (halt))")
        s.add("a", v=1)
        assert s.matcher.stats.changes[-1].affected_productions == 1
        s.add("a", v=2)
        assert s.matcher.stats.changes[-1].affected_productions == 0
