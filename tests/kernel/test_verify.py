"""The kernel state auditor behind ``repro run --verify``."""

from repro.kernel import CompiledMatcher, check_kernel
from repro.ops5 import parse_program
from repro.ops5.wme import WME

SRC = """
  (p find (goal ^want <c>) (block ^color <c>) --> (halt))
  (p quiet (goal ^want <c>) - (block ^color <c>) --> (halt))
"""


def _loaded(items, partitions=1):
    matcher = CompiledMatcher(partitions=partitions)
    for production in parse_program(SRC).productions:
        matcher.add_production(production)
    memory = matcher.memory
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
        matcher.memory.remove(wmes[1])
        matcher.remove_wme(wmes[1])
        assert check_kernel(matcher) == []

    def test_empty_matcher_passes(self):
        matcher = CompiledMatcher()
        assert check_kernel(matcher) == []

    def test_detects_dropped_store_row(self):
        matcher, _wmes = _loaded([("block", {"color": "red"})])
        counts = matcher.runtimes[0].counts
        (s,) = [s for s, n in enumerate(counts) if n]  # the store that filed it
        counts[s] -= 1  # sabotage: the store's count misses it
        assert check_kernel(matcher) == [
            f"partition 0 store {s}: counts 0 WMEs, 1 pass its alpha tests"
        ]

    def test_detects_a_store_sabotaged_in_the_second_partition(self):
        matcher, wmes = _loaded(
            [("goal", {"want": "red"}), ("block", {"color": "red"})], partitions=2
        )
        assert len(matcher.runtimes) == 2 and check_kernel(matcher) == []
        (index,) = [i for i in matcher.runtimes[1].indexes if i]
        assert index == {"red": wmes[1]}
        del index["red"]  # sabotage: the block is gone from its right index
        problems = check_kernel(matcher)
        assert problems and all(p.startswith("partition 1 ") for p in problems)

    def test_detects_a_sabotaged_right_index_entry(self):
        matcher, wmes = _loaded([("goal", {"want": "red"}), ("block", {"color": "red"})])
        # ``find`` and ``quiet`` read the block store 1 under ^color: one index.
        (index,) = matcher.runtimes[0].indexes
        assert index == {"red": wmes[1]} and check_kernel(matcher) == []
        index["blue"] = index.pop("red")  # sabotage: filed under another key
        assert check_kernel(matcher) == [
            "partition 0 right index ri1_0: not the WMEs passing store 1's alpha tests, by key"
        ]

    def test_detects_corrupted_dispatch_table(self):
        """A class entry that files nothing is a false negative: the
        auditor's own scan of the interpreted alpha tests counts the WME."""
        matcher, _ = _loaded([("goal", {"want": "red"})])
        matcher.runtimes[0].adds["block"] = lambda wme: 0  # sabotage: no store
        memory = matcher.memory
        memory.reserve_timetags(10)
        matcher.add_wme(memory.add(WME("block", {"color": "red"})))
        problems = check_kernel(matcher)
        assert "partition 0 store 1: counts 0 WMEs, 1 pass its alpha tests" in problems

    def test_detects_a_row_that_fails_its_alpha_tests(self):
        matcher, wmes = _loaded([("goal", {"want": "red"})])
        runtime = matcher.runtimes[0]
        (s,) = [s for s, store in enumerate(runtime.stores) if store.cls == "block"]
        # Sabotage: a goal filed in the block store, as its entry would.
        runtime.counts[s] += 1
        runtime.file(runtime.indexes[0], "red", wmes[0].timetag, wmes[0])
        assert check_kernel(matcher) == [
            f"partition 0 store {s}: counts 1 WMEs, 0 pass its alpha tests",
            "partition 0 right index ri1_0: not the WMEs passing store 1's alpha tests, by key",
        ]

    def test_unassigned_and_nan_values_pass(self):
        # A join key reads the WME's own value object: nil for an unset
        # attribute, and a NaN (possible through in-process ``add``)
        # that never equals itself under ``==``.
        matcher, _ = _loaded([("goal", {}), ("block", {"color": float("nan")})])
        assert check_kernel(matcher) == []

    def test_detects_conflict_set_divergence(self):
        matcher, wmes = _loaded([
            ("goal", {"want": "red"}),
            ("block", {"color": "red"}),
        ])
        key = ("find", (wmes[0].timetag, wmes[1].timetag))
        matcher.conflict_set.delete_key(key)  # sabotage
        problems = check_kernel(matcher)
        assert any("conflict set diverges" in p for p in problems)
