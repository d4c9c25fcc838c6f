"""The unified metrics snapshot and its cross-section consistency."""

from repro.obs import SCHEMA, consistency_problems, snapshot
from repro.obs.recorder import Recorder
from repro.ops5 import ProductionSystem, parse_program
from repro.parallel import ParallelMatcher
from repro.serve.stats import Telemetry
from repro.workloads.programs import blocks, hanoi

PROGRAM = """
(p step (count ^n <x>) --> (modify 1 ^n (compute <x> - 1)))
"""


class TestSnapshotSections:
    def test_rete_engine_snapshot(self):
        system = hanoi.build(3)
        system.run()
        data = snapshot(system)
        assert data["schema"] == SCHEMA
        assert data["engine"]["halted"] is True
        assert data["engine"]["cycles"] == data["engine"]["firings"]
        assert data["engine"]["wme_changes"] == data["match"]["wme_changes"]
        rete = data["rete"]
        assert rete["nodes"] > 0
        assert 0.0 <= rete["sharing_ratio"] <= 1.0
        assert sum(rete["nodes_by_kind"].values()) == rete["nodes"]

    def test_history_is_reported_as_retained_or_not(self):
        for history, word in ((False, "not retained"), (True, "retained")):
            system = hanoi.build(3, history=history)
            system.run()
            data = snapshot(system)
            assert data["engine"]["history"] == data["match"]["history"] == word
            # The totals never depended on the rows.
            assert data["match"]["wme_changes"] == system.total_wme_changes > 0
            assert consistency_problems(data) == []

    def test_kernel_section_describes_the_alpha_index(self):
        system = hanoi.build(3, matcher="compiled")
        system.run()
        kernel = snapshot(system)["kernel"]
        index = kernel["alpha_index"]
        assert index["indexed_stores"] + index["linear_tail_stores"] == kernel["stores"]
        assert index["largest_tail"] <= index["linear_tail_stores"]
        assert 0 < index["classes"] <= index["groups"] + index["linear_tail_stores"]

    def test_kernel_section_describes_first_level_sharing(self):
        system = blocks.build(matcher="compiled")
        system.run()
        kernel = snapshot(system)["kernel"]
        # All five blocks-world rules open on one goal CE.
        assert kernel["sharing"] == {
            "groups": 1,
            "sizes": [5],
            "grouped_productions": 5,
            "largest_group": 5,
            "left_memories_saved": 4,
        }
        # What a partition costs: the same five rules in two partitions.
        split = snapshot(blocks.build(matcher=ParallelMatcher(workers=2)))["parallel"]
        assert sorted(map(tuple, split["shard_group_sizes"])) == [(2,), (3,)]

    def test_parallel_section(self):
        system = hanoi.build(3, matcher=ParallelMatcher(workers=0))
        system.run()
        data = snapshot(system)
        assert "rete" not in data and "scheduler" not in data
        assert "faults" not in data and "transport" not in data
        parallel = data["parallel"]
        assert set(parallel) == {
            "workers", "shards", "productions_per_shard", "shard_weights",
            "shard_group_sizes",
        }
        assert parallel["workers"] == 0
        assert parallel["shards"] == 1
        assert sum(parallel["productions_per_shard"]) == 5

    def test_conflict_set_section(self):
        system = hanoi.build(3)
        system.run()
        section = snapshot(system)["conflict_set"]
        conflict_set = system.conflict_set
        assert section == {
            "size": len(conflict_set),
            "total_inserts": conflict_set.total_inserts,
            "total_deletes": conflict_set.total_deletes,
            "selects": conflict_set.selects,
            "members_examined": conflict_set.members_examined,
        }
        # One select per firing plus the one that halted the run; the
        # counters move once per select, so a snapshot costs nothing.
        assert section["selects"] >= system.total_firings
        assert section["members_examined"] >= system.total_firings
        assert snapshot(system)["conflict_set"] == section

    def test_optional_sections_appear_when_given(self):
        system = ProductionSystem(PROGRAM)
        telemetry = Telemetry()
        telemetry.firings = 0
        recorder = Recorder()
        data = snapshot(system, telemetry=telemetry, recorder=recorder)
        assert "serve" in data
        assert data["recorder"] == {"enabled": True, "events": 0}
        bare = snapshot(system)
        assert "serve" not in bare and "recorder" not in bare


class TestPeekStats:
    def test_serial_matchers_peek_equals_stats(self):
        # Every matcher is serial now; "parallel" used to flush on read.
        for matcher in ("rete", "parallel"):
            system = ProductionSystem(PROGRAM, matcher=matcher)
            system.add("count", n=5)
            assert system.matcher.peek_stats() is system.matcher.stats
            assert system.matcher.peek_conflict_set() is system.matcher.conflict_set
            assert snapshot(system)["match"]["wme_changes"] == 1


class TestConsistencyProblems:
    def test_clean_snapshot_has_none(self):
        system = hanoi.build(3)
        system.run()
        assert consistency_problems(snapshot(system)) == []

    def test_wme_change_disagreement_reported(self):
        problems = consistency_problems(
            {"engine": {"wme_changes": 5, "firings": 1, "cycles": 1},
             "match": {"wme_changes": 3}}
        )
        assert len(problems) == 1
        assert "5" in problems[0] and "3" in problems[0]

    def test_firings_behind_cycles_reported(self):
        problems = consistency_problems(
            {"engine": {"wme_changes": 0, "firings": 1, "cycles": 2},
             "match": {"wme_changes": 0}}
        )
        assert any("fell behind" in p for p in problems)

    def test_conflict_set_size_disagreeing_with_its_counters_reported(self):
        problems = consistency_problems(
            {"engine": {"wme_changes": 0, "firings": 0, "cycles": 0},
             "match": {"wme_changes": 0},
             "conflict_set": {"size": 3, "total_inserts": 9, "total_deletes": 5}}
        )
        assert len(problems) == 1 and "conflict set holds 3" in problems[0]

    def test_conflict_set_counters_survive_a_ruleset_rebuild(self):
        # clear() (the compiled matcher's rebuild) counts what it drops.
        system = ProductionSystem(PROGRAM, matcher="compiled")
        system.add("count", n=5)
        system.add_production(
            parse_program("(p other (count ^n <x>) --> (halt))").productions[0]
        )
        data = snapshot(system)
        assert data["conflict_set"]["size"] == 2
        assert consistency_problems(data) == []

    def test_serve_firings_exceeding_engine_reported(self):
        problems = consistency_problems(
            {"engine": {"wme_changes": 0, "firings": 1, "cycles": 1},
             "match": {"wme_changes": 0},
             "serve": {"firings": 2}}
        )
        assert any("serve telemetry" in p for p in problems)
