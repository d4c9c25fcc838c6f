"""TREAT matcher semantics and state accounting."""

from repro.ops5 import parse_production, parse_program
from repro.ops5.wme import WME, WorkingMemory
from repro.treat import TreatMatcher


def _matcher(source: str) -> TreatMatcher:
    matcher = TreatMatcher()
    for production in parse_program(source).productions:
        matcher.add_production(production)
    return matcher


class _Session:
    def __init__(self, source: str):
        self.matcher = _matcher(source)
        self.matcher.stats.keep_rows()
        self.memory = WorkingMemory()

    def add(self, cls, **attrs):
        wme = self.memory.add(WME(cls, attrs))
        self.matcher.add_wme(wme)
        return wme

    def remove(self, wme):
        self.memory.remove(wme)
        self.matcher.remove_wme(wme)

    @property
    def keys(self):
        return self.matcher.conflict_set.snapshot()


class TestBasics:
    def test_join_and_retract(self):
        s = _Session("(p find (goal ^want <c>) (block ^color <c>) --> (halt))")
        goal = s.add("goal", want="red")
        block = s.add("block", color="red")
        assert s.keys == {("find", (goal.timetag, block.timetag))}
        s.remove(block)
        assert s.keys == set()

    def test_deletion_is_cheap_scan(self):
        s = _Session("(p find (a) (b) --> (halt))")
        a = s.add("a")
        b = s.add("b")
        before = s.matcher.stats.total_comparisons
        s.remove(a)
        # Removal only scans the conflict set + negation bookkeeping; no
        # join recomputation happens for a production with no negations.
        assert s.matcher.stats.total_comparisons == before
        assert s.keys == set()

    def test_duplicate_suppression_same_wme_two_positions(self):
        # One WME matching both CEs: the pair (w, w) must appear once.
        s = _Session("(p twin (n ^v <x>) (n ^w <y>) --> (halt))")
        w = s.add("n", v=1, w=2)
        assert s.keys == {("twin", (w.timetag, w.timetag))}

    def test_bindings_captured(self):
        s = _Session("(p find (goal ^want <c>) (block ^color <c>) --> (halt))")
        s.add("goal", want="red")
        s.add("block", color="red")
        [inst] = s.matcher.conflict_set.members()
        assert inst.bindings["c"] == "red"


class TestNegation:
    SRC = "(p quiet (goal ^want <c>) - (block ^color <c>) --> (halt))"

    def test_block_on_add(self):
        s = _Session(self.SRC)
        s.add("goal", want="red")
        assert len(s.keys) == 1
        s.add("block", color="red")
        assert s.keys == set()

    def test_unblock_on_remove(self):
        s = _Session(self.SRC)
        s.add("goal", want="red")
        blocker = s.add("block", color="red")
        other = s.add("block", color="red")
        s.remove(blocker)
        assert s.keys == set()  # second blocker remains
        s.remove(other)
        assert len(s.keys) == 1

    def test_negation_scoping_of_reused_names(self):
        s = _Session("(p scoped (goal) - (taken ^v <w>) (free ^v <w>) --> (halt))")
        s.add("goal")
        s.add("free", v=7)
        assert len(s.keys) == 1
        s.add("taken", v=99)
        assert s.keys == set()


class TestProductionManagement:
    def test_add_production_against_live_memory(self):
        matcher = TreatMatcher()
        memory = WorkingMemory()
        wme = memory.add(WME("a", {}))
        matcher.add_wme(wme)
        matcher.add_production(parse_production("(p late (a) --> (halt))"))
        assert matcher.conflict_set.snapshot() == {("late", (wme.timetag,))}

    def test_remove_production_retracts_and_frees_memories(self):
        matcher = _matcher("(p only (weird ^v 9) --> (halt))")
        assert matcher._amem  # has alpha memories
        matcher.remove_production("only")
        assert matcher._amem == {}
        assert len(matcher.conflict_set) == 0

    def test_shared_alpha_memory_survives(self):
        matcher = _matcher("""
          (p one (a ^v 1) --> (halt))
          (p two (a ^v 1) --> (halt))
        """)
        assert len(matcher._amem) == 1
        matcher.remove_production("one")
        assert len(matcher._amem) == 1


class TestStateAccounting:
    def test_alpha_only_state(self):
        s = _Session("(p find (a ^v <x>) (b ^v <x>) --> (halt))")
        s.add("a", v=1)
        s.add("b", v=1)
        sizes = s.matcher.state_size()
        assert sizes["beta_tokens"] == 0
        assert sizes["alpha_wmes"] == 2

    def test_affected_production_stats(self):
        s = _Session("""
          (p one (a ^v 1) --> (halt))
          (p two (a ^v <x>) --> (halt))
        """)
        s.add("a", v=1)
        assert s.matcher.stats.changes[-1].affected_productions == 2
        s.add("a", v=2)
        assert s.matcher.stats.changes[-1].affected_productions == 1
