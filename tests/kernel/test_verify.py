"""The kernel state auditor behind ``repro run --verify``."""

from repro.kernel import CompiledMatcher, check_kernel
from repro.ops5 import parse_program
from repro.ops5.wme import WME, WorkingMemory

SRC = """
  (p find (goal ^want <c>) (block ^color <c>) --> (halt))
  (p quiet (goal ^want <c>) - (block ^color <c>) --> (halt))
"""


def _loaded(items):
    matcher = CompiledMatcher()
    for production in parse_program(SRC).productions:
        matcher.add_production(production)
    memory = WorkingMemory()
    wmes = []
    for cls, attrs in items:
        wme = memory.add(WME(cls, attrs))
        matcher.add_wme(wme)
        wmes.append(wme)
    return matcher, wmes


class TestChecker:
    def test_clean_matcher_passes(self):
        matcher, wmes = _loaded([
            ("goal", {"want": "red"}),
            ("block", {"color": "red"}),
            ("block", {"color": "blue"}),
        ])
        assert check_kernel(matcher) == []
        matcher.remove_wme(wmes[1])
        assert check_kernel(matcher) == []

    def test_empty_matcher_passes(self):
        matcher = CompiledMatcher()
        assert check_kernel(matcher) == []

    def test_detects_dropped_store_row(self):
        matcher, wmes = _loaded([("block", {"color": "red"})])
        store = next(
            s for s in matcher.runtime.stores if wmes[0].timetag in s.rows
        )
        del store.rows[wmes[0].timetag]  # sabotage: row gone, columns stay
        problems = check_kernel(matcher)
        assert problems and any("diverge" in p or "missing" in p for p in problems)

    def test_detects_corrupted_dispatch_table(self):
        """A table entry that loses a store is a false negative: the
        auditor's own linear scan of every predicate names the WME."""
        matcher, _ = _loaded([("goal", {"want": "red"})])
        matcher.runtime.by_class["block"] = ((), ())  # sabotage: no candidates
        memory = WorkingMemory()
        memory.reserve_timetags(10)
        matcher.add_wme(memory.add(WME("block", {"color": "red"})))
        problems = check_kernel(matcher)
        assert any(
            "WME 10 passes the alpha tests but is missing from the store" in p
            for p in problems
        )

    def test_detects_corrupted_column_encoding(self):
        matcher, wmes = _loaded([("block", {"color": "red"})])
        store = next(
            s for s in matcher.runtime.stores if wmes[0].timetag in s.rows
        )
        attr, col = next(iter(store.cols.items()))
        col[wmes[0].timetag] ^= 0xFFFF  # sabotage the encoded value
        problems = check_kernel(matcher)
        assert problems and any("column" in p for p in problems)

    def test_detects_conflict_set_divergence(self):
        matcher, wmes = _loaded([
            ("goal", {"want": "red"}),
            ("block", {"color": "red"}),
        ])
        key = ("find", (wmes[0].timetag, wmes[1].timetag))
        matcher.conflict_set.delete_key(key)  # sabotage
        problems = check_kernel(matcher)
        assert any("conflict set diverges" in p for p in problems)
