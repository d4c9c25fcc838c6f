"""Unit tests for the parallel executor's moving parts.

The differential harness (test_differential_matchers.py) proves the
end-to-end semantics; these tests pin down the individual mechanisms --
partitioning, the shard state, the work queue, backfill, dynamic
production changes, and pool lifecycle -- so a regression points at the
broken part directly.
"""

import pytest

from repro.ops5 import Ops5Error, ProductionSystem, parse_program
from repro.ops5.wme import WME, WorkingMemory
from repro.parallel import (
    ParallelMatcher,
    WorkQueue,
    assign_productions,
    measure_sharing_loss,
    route_classes,
    validate_parallel,
)
from repro.parallel import messages
from repro.parallel.local import LocalKernelState
from repro.rete import ReteNetwork

CLOSURE = """
(p base (parent ^from <x> ^to <y>) - (anc ^from <x> ^to <y>)
   --> (make anc ^from <x> ^to <y>))
(p step (anc ^from <x> ^to <y>) (parent ^from <y> ^to <z>)
        - (anc ^from <x> ^to <z>)
   --> (make anc ^from <x> ^to <z>))
"""

CHAIN = [("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(5)]


def _closure_productions():
    return parse_program(CLOSURE).productions


# -- partitioning -------------------------------------------------------------


def test_assign_productions_is_balanced_and_deterministic():
    productions = _closure_productions()  # two productions
    first = assign_productions(productions, 2)
    second = assign_productions(list(reversed(productions)), 2)
    assert [p.names for p in first] == [p.names for p in second]
    assert all(len(p.productions) == 1 for p in first)


def test_assign_productions_handles_more_shards_than_rules():
    partitions = assign_productions(_closure_productions(), 4)
    assert len(partitions) == 4
    assert sum(len(p.productions) for p in partitions) == 2
    assert [p.index for p in partitions] == [0, 1, 2, 3]


def test_route_classes_maps_each_class_to_its_shards():
    partitions = assign_productions(_closure_productions(), 2)
    routes = route_classes(partitions)
    # Both productions test parent and anc, so both classes reach both shards.
    assert routes["parent"] == (0, 1)
    assert routes["anc"] == (0, 1)


def test_sharing_loss_is_at_least_one():
    loss = measure_sharing_loss(assign_productions(_closure_productions(), 2))
    assert loss.distributed_nodes >= loss.serial_nodes
    assert loss.factor >= 1.0


# -- shard state ---------------------------------------------------------------


def test_shard_state_rejects_unknown_ops():
    with pytest.raises(ValueError):
        LocalKernelState().apply_batch([("??",)])


def test_shard_state_stat_rows_count_wme_ops_only():
    """Stat-row indices must align with the coordinator's change map,
    which counts WME ops and skips production ops."""
    state = LocalKernelState()
    memory = WorkingMemory()
    production = _closure_productions()[0]
    wme = memory.add(WME("parent", {"from": "a", "to": "b"}))
    ops = [(messages.ADD_PRODUCTION, production), (messages.ADD_WME_REF, wme)]
    _, stat_rows = state.apply_batch(ops)
    assert [row[0] for row in stat_rows] == [0]


# -- the work queue -------------------------------------------------------------


def test_work_queue_tracks_changes_per_shard():
    queue = WorkQueue(2)
    change = queue.open_change("add", "goal")
    queue.push(0, ("+wr", None), change=change)
    queue.push(1, ("+wr", None), change=change)
    queue.push(0, ("+p", None))  # production ops carry no change
    assert queue.dirty
    pending, change_map, changes = queue.take()
    assert [len(ops) for ops in pending] == [2, 1]
    assert change_map == [[0], [0]]
    assert changes == [("add", "goal")]
    assert not queue.dirty


# -- matcher behaviour (workers=0: no scheduler, same shard code) ---------------


def test_inline_matcher_matches_serial_rete():
    report = validate_parallel(CLOSURE, CHAIN, workers=0)
    assert report.agree, report.divergences()


def test_late_production_backfills_existing_memory():
    with ParallelMatcher(workers=0) as matcher:
        memory = WorkingMemory()
        for cls, attrs in CHAIN:
            matcher.add_wme(memory.add(WME(cls, attrs)))
        matcher.flush()
        base, step = _closure_productions()
        matcher.add_production(base)
        serial = ReteNetwork()
        serial.add_production(base)
        for wme in memory:
            serial.add_wme(wme)
        assert matcher.conflict_set.snapshot() == serial.conflict_set.snapshot()


def test_remove_production_retracts_its_instantiations():
    with ParallelMatcher(workers=0) as matcher:
        base, step = _closure_productions()
        matcher.add_production(base)
        matcher.add_production(step)
        memory = WorkingMemory()
        for cls, attrs in CHAIN:
            matcher.add_wme(memory.add(WME(cls, attrs)))
        assert len(matcher.conflict_set) > 0
        matcher.remove_production("base")
        remaining = {key[0] for key in matcher.conflict_set.snapshot()}
        assert "base" not in remaining


def test_remove_production_in_same_batch_as_wme_changes():
    """A rule removed before the flush must leave no trace, even though
    its shard already queued work for it."""
    with ParallelMatcher(workers=0) as matcher:
        base, step = _closure_productions()
        matcher.add_production(base)
        memory = WorkingMemory()
        for cls, attrs in CHAIN:
            matcher.add_wme(memory.add(WME(cls, attrs)))
        matcher.remove_production("base")  # same batch, never flushed
        assert matcher.conflict_set.snapshot() == frozenset()


def test_clear_resets_for_reuse():
    with ParallelMatcher(workers=0) as matcher:
        base, step = _closure_productions()
        matcher.add_production(base)
        memory = WorkingMemory()
        for cls, attrs in CHAIN:
            matcher.add_wme(memory.add(WME(cls, attrs)))
        matcher.flush()
        matcher.clear()
        assert len(matcher.conflict_set) == 0
        assert list(matcher.productions) == []
        # The pool is reusable with a different program.
        matcher.add_production(step)
        matcher.add_wme(WorkingMemory().add(WME("anc", {"from": "a", "to": "b"})))
        matcher.flush()


def test_duplicate_production_and_unknown_removal_raise():
    with ParallelMatcher(workers=0) as matcher:
        base, _ = _closure_productions()
        matcher.add_production(base)
        with pytest.raises(Ops5Error):
            matcher.add_production(base)
        with pytest.raises(Ops5Error):
            matcher.remove_production("nope")


def test_remove_unknown_wme_raises():
    with ParallelMatcher(workers=0) as matcher:
        with pytest.raises(Ops5Error):
            matcher.remove_wme(WorkingMemory().add(WME("a", {})))


def test_closed_matcher_rejects_new_work():
    matcher = ParallelMatcher(workers=0)
    matcher.close()
    with pytest.raises(Ops5Error):
        matcher.add_wme(WorkingMemory().add(WME("a", {})))


def test_negative_worker_count_rejected():
    with pytest.raises(Ops5Error):
        ParallelMatcher(workers=-1)


def test_partition_snapshot_before_and_after_start():
    with ParallelMatcher(workers=0) as matcher:
        base, step = _closure_productions()
        matcher.add_production(base)
        matcher.add_production(step)
        preview = matcher.partition_snapshot()
        assert sorted(n for p in preview for n in p.names) == ["base", "step"]
        matcher.flush()  # starts the pool
        actual = matcher.partition_snapshot()
        assert sorted(n for p in actual for n in p.names) == ["base", "step"]


# -- thread shards --------------------------------------------------------------


def test_thread_pool_matches_serial_rete():
    report = validate_parallel(CLOSURE, CHAIN, workers=2)
    assert report.agree, report.divergences()


def test_worker_error_propagates_and_pool_survives():
    """An exception inside a shard batch raises from the flush -- on the
    caller's-thread fast path and through the deques alike -- leaves no
    stale reply behind, and after clear() the same pool matches again."""
    base, _ = _closure_productions()
    with ParallelMatcher(workers=1) as matcher:
        for filler in (0, 40):  # one grain is 16 ops: fast path, then deques
            matcher.add_production(base)
            memory = WorkingMemory()
            matcher.add_wme(memory.add(WME("parent", {"from": "a", "to": "b"})))
            matcher.flush()
            before = matcher.scheduler_summary()
            # Legal filler ops (re-adding a production is idempotent
            # shard-side), then the op no shard understands.
            for _ in range(filler):
                matcher._queue.push(0, (messages.ADD_PRODUCTION, base))
            matcher._queue.push(0, ("??",))
            with pytest.raises(RuntimeError, match="shard worker 0 failed"):
                matcher.flush()
            after = matcher.scheduler_summary()
            queued = (after["tasks_executed"] + after["tasks_helped"]) - (
                before["tasks_executed"] + before["tasks_helped"]
            )
            assert (queued > 0) == bool(filler)
            assert (after["fast_batches"] > before["fast_batches"]) != bool(filler)
            assert not matcher._shards[0].lane.replies
            assert not any(matcher._inflight)
            # The shard lost its state; the coordinator can clear and go on.
            matcher.clear()
            matcher.add_production(base)
            matcher.add_wme(
                WorkingMemory().add(WME("parent", {"from": "x", "to": "y"}))
            )
            assert len(matcher.conflict_set) == 1
            matcher.clear()


def test_error_discards_the_batches_in_flight_behind_it():
    """Batches dispatched after the failing one ran against a reset
    shard; the flush must collect and drop every one of their replies."""
    base, _ = _closure_productions()
    with ParallelMatcher(workers=1) as matcher:
        matcher.add_production(base)
        matcher.flush()
        memory = WorkingMemory()
        matcher._queue.push(0, ("??",))
        matcher._dispatch_shard(0, eager=True)
        for i in range(3):
            matcher.add_wme(memory.add(WME("parent", {"from": i, "to": i + 1})))
            matcher._dispatch_shard(0, eager=True)
        assert len(matcher._inflight[0]) == 4
        with pytest.raises(RuntimeError):
            matcher.flush()
        assert not matcher._shards[0].lane.replies
        assert not any(matcher._inflight)


def test_engine_runs_with_parallel_string_backend():
    system = ProductionSystem(CLOSURE, matcher="parallel")
    try:
        for cls, attrs in CHAIN:
            system.add(cls, **attrs)
        result = system.run()
        assert result.halted
        assert result.fired > 0
    finally:
        system.matcher.close()
