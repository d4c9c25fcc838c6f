"""Thread shards on one compiled kernel: the parallel backend's shard.

The differential fuzz harness exercises the backend end to end; these
tests pin its own mechanisms -- the compiled-kernel shard state, the
work-stealing scheduler's counters, its granularity fast path, and the
deque / eager-dispatch / helper paths a bulk load drives.
"""

import threading

import pytest

from repro.kernel.matcher import CompiledMatcher
from repro.kernel.shared import shared_kernel
from repro.ops5 import ProductionSystem, parse_program
from repro.ops5.conflict import ConflictSet
from repro.ops5.wme import WME, WorkingMemory
from repro.parallel import ParallelMatcher
from repro.parallel import messages
from repro.parallel.local import LocalKernelState, LocalScheduler, _LocalShard
from repro.parallel.validate import run_recorded
from repro.rete import ReteNetwork
from repro.workloads.programs import SYSTEM_PROGRAMS

CLOSURE = """
(p base (parent ^from <x> ^to <y>) - (anc ^from <x> ^to <y>)
   --> (make anc ^from <x> ^to <y>))
(p step (anc ^from <x> ^to <y>) (parent ^from <y> ^to <z>)
        - (anc ^from <x> ^to <z>)
   --> (make anc ^from <x> ^to <z>))
"""

CHAIN = [("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(6)]


def _closure_state():
    """A LocalKernelState loaded with the closure rules + chain facts."""
    productions = parse_program(CLOSURE).productions
    memory = WorkingMemory()
    wmes = [memory.add(WME(cls, dict(attrs))) for cls, attrs in CHAIN]
    state = LocalKernelState()
    ops = [(messages.ADD_PRODUCTION, p) for p in productions]
    ops += [(messages.ADD_WME_REF, w) for w in wmes]
    edits, rows = state.apply_batch(ops)
    return state, edits, rows, memory


# -- differential identity ----------------------------------------------------


def _firings(result):
    return [(c.production, c.timetags) for c in result.cycles]


@pytest.mark.parametrize("name", sorted(SYSTEM_PROGRAMS))
def test_system_program_bit_identical(name):
    """Every system-class program fires as on the node-walking Rete on
    the unsharded kernel, on one schedulerless shard and on two thread
    shards -- all three drive the one ``KernelRuntime`` entry -- and a
    kernel attached mid-run (``replay``) re-derives Rete's conflict set."""
    mod = SYSTEM_PROGRAMS[name]
    reference = mod.run(matcher=ReteNetwork())
    assert reference.fired > 0
    subjects = [("compiled", mod.run(matcher=CompiledMatcher()))]
    for workers in (0, 2):
        with ParallelMatcher(workers=workers) as matcher:
            subjects.append((workers, mod.run(matcher=matcher)))
    for label, subject in subjects:
        assert _firings(subject) == _firings(reference), label
        assert subject.halted == reference.halted, label
        assert subject.halt_reason == reference.halt_reason, label
        assert tuple(subject.output) == tuple(reference.output), label

    midway = mod.build(matcher=ReteNetwork())
    midway.run(max_cycles=reference.fired // 2)
    productions = list(midway.matcher.productions)
    attached = ConflictSet()
    shared_kernel(productions).attach(
        attached, productions, midway.memory.snapshot()
    )
    assert len(attached) > 0
    assert attached.snapshot() == midway.conflict_set.snapshot()


def test_clear_allows_pool_reuse():
    with ParallelMatcher(workers=2) as matcher:
        first = run_recorded(CLOSURE, CHAIN, matcher)
        matcher.clear()
        second = run_recorded(CLOSURE, CHAIN, matcher)
    assert first.fired == second.fired
    assert first.conflict_sets == second.conflict_sets


# -- kernel shard state -------------------------------------------------------


def test_production_edits_emit_conflict_set_diff():
    """With WMEs resident, a ruleset edit rebuilds and emits only the
    conflict-set *diff* -- the coordinator maintains its view
    incrementally and never re-reads the whole set."""
    state, edits, rows, _ = _closure_state()
    inserted = {e[1].production.name for e in edits if e[0] == messages.INSERT_REF}
    assert inserted == {"base"}  # step needs anc facts that don't exist yet
    assert len(rows) == len(CHAIN)
    removal, _ = state.apply_batch([(messages.REMOVE_PRODUCTION, "base")])
    deletes = {(e[0], e[1]) for e in removal}
    assert deletes == {(messages.DELETE, "base")}
    assert not [e for e in removal if e[0] == messages.INSERT_REF]


def test_bad_op_resets_inline_shard_state():
    """An op error must answer ERROR and leave the shard reusable with
    fresh state."""
    shard = _LocalShard(0, scheduler=None)
    shard.dispatch([("bogus-tag", None)])
    status, payload, _ = shard.collect()
    assert status == messages.ERROR
    assert "bogus-tag" in payload
    productions = parse_program(CLOSURE).productions
    shard.dispatch([(messages.ADD_PRODUCTION, productions[0])])
    status, _, _ = shard.collect()
    assert status == messages.OK
    assert "base" in shard.state.productions


# -- scheduler ----------------------------------------------------------------


def test_scheduler_summary_is_side_effect_free():
    """Observability reads never advance the epoch barrier or mutate
    counters: two consecutive snapshots after quiescence are equal."""
    with ParallelMatcher(workers=2) as matcher:
        system = ProductionSystem(CLOSURE, matcher=matcher)
        for cls, attrs in CHAIN:
            system.add(cls, **attrs)
        system.run(max_cycles=200)
        first = matcher.scheduler_summary()
        second = matcher.scheduler_summary()
    assert first is not None
    assert first == second
    assert first["workers"] == 2
    assert first["epochs"] > 0
    # The run's small per-cycle batches take the granularity fast path.
    assert first["fast_batches"] > 0
    assert all(depth == 0 for depth in first["queue_depths"])


def test_scheduler_summary_absent_off_local_transport():
    with ParallelMatcher(workers=0) as matcher:
        run_recorded(CLOSURE, CHAIN, matcher)
        assert matcher.scheduler_summary() is None


def test_oversize_batches_run_through_the_deques():
    """A batch bigger than one grain skips the fast path and is split
    into stealable grain-sized tasks; the result still matches a
    one-shot serial application of the same ops."""
    productions = parse_program(CLOSURE).productions
    memory = WorkingMemory()
    wmes = [
        memory.add(WME("parent", {"from": f"n{i}", "to": f"n{i + 1}"}))
        for i in range(40)
    ]
    ops = [(messages.ADD_PRODUCTION, p) for p in productions]
    ops += [(messages.ADD_WME_REF, w) for w in wmes]
    scheduler = LocalScheduler(2, grain=4)
    try:
        shard = _LocalShard(0, scheduler=scheduler)
        shard.dispatch(list(ops))
        status, edits, rows = shard.collect()
        stats = scheduler.stats()
    finally:
        scheduler.shutdown()
    assert status == messages.OK
    # Grains ran on worker threads or on the helping coordinator --
    # either way they went through the deques, not the fast path.
    assert stats["tasks_executed"] + stats["tasks_helped"] > 0
    assert stats["fast_batches"] == 0
    serial_edits, serial_rows = LocalKernelState().apply_batch(list(ops))
    keys = lambda es: sorted(
        e[1].key for e in es if e[0] == messages.INSERT_REF
    )
    assert keys(edits) == keys(serial_edits)
    assert len(rows) == len(serial_rows)


# -- bulk loads: eager dispatch, deques, helping ------------------------------


def test_bulk_load_pipelines_through_the_deques():
    """Hundreds of adds before the first conflict-set read: batches go
    out eagerly, several are in flight per shard, grains run on worker
    threads or the helping coordinator -- and every conflict set along
    the way is the unsharded kernel's."""
    facts = [("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(240)]
    reference = run_recorded(CLOSURE, facts, CompiledMatcher(), max_cycles=60)
    with ParallelMatcher(workers=2) as matcher:
        subject = run_recorded(CLOSURE, facts, matcher, max_cycles=60)
        stats = matcher.scheduler_summary()
        assert matcher.eager_dispatches > 0
        assert matcher.dispatches > matcher.eager_dispatches
    assert subject == reference
    assert stats["tasks_executed"] + stats["tasks_helped"] > 0
    assert all(depth == 0 for depth in stats["queue_depths"])


def test_close_joins_the_scheduler_threads():
    before = set(threading.enumerate())
    matcher = ParallelMatcher(workers=2)
    run_recorded(CLOSURE, CHAIN, matcher)
    workers = [t for t in threading.enumerate() if t not in before]
    assert sorted(t.name for t in workers) == ["repro-local-0", "repro-local-1"]
    matcher.close()
    for thread in workers:
        thread.join(timeout=5.0)
    assert not any(thread.is_alive() for thread in workers)
