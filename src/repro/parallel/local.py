"""The parallel backend's shards: compiled-kernel shards as threads.

The paper's Sections 4-5 argue that production-system parallelism only
pays when a dispatch costs about one scheduler operation -- the PSM gets
there with a hardware task queue over a *shared* match network.  This
backend keeps coordinator and shards in one address space for the same
reason (the message-passing variants that marshalled ops across a
process boundary were measured, lost by 50x before a byte crossed a
wire, and were deleted -- see EXPERIMENTS.md):

* Shards are **threads in the coordinator's address space**.  They
  share the process-wide symbol intern table, the
  :class:`~repro.kernel.shared.SharedKernel` registry (one codegen +
  module exec per ruleset shape, whichever shard gets there first), and
  the columnar alpha-store layout.
* Each shard executes the **compiled kernel**
  (:mod:`repro.kernel`) rather than the interpreted Rete -- per-activation
  match cost, not coordination, dominates the budget.
* A dispatch is an **append to a shared deque**.  WME inserts travel as
  ``("+wr", wme)`` object references
  (:data:`~repro.parallel.messages.ADD_WME_REF`), and conflict-set
  inserts come back as live
  :class:`~repro.ops5.production.Instantiation` references.
* Scheduling is **work stealing at node-activation granularity**: a
  shard's lane of ops is drained in small grains, and between grains
  the lane returns to a per-worker ready deque where any idle worker
  (or the coordinator itself, while it waits at the barrier) may steal
  it.  The flush barrier is a **counting epoch**: per-lane
  published/completed counters, no channel round-trip.

Correctness discipline
----------------------
A lane is executed by **at most one thread at a time** (it is enqueued
on exactly one ready deque, or being drained, never both), so kernel
state needs no locks; stealing moves whole lanes between workers, never
splits one.  Replies preserve batch order because lanes are FIFO.  A
thread shard shares the coordinator's fate, so there is nothing to
supervise: the one failure a shard reports is an exception inside a
batch, answered with an ``error`` reply and a fresh (empty) state.
"""

from __future__ import annotations

import threading
import traceback
from collections import deque
from typing import Iterable, Optional, Sequence

from ..kernel.runtime import KernelRuntime
from ..kernel.shared import shared_kernel
from ..ops5.conflict import ConflictSet
from ..ops5.production import Production
from ..ops5.wme import WME
from . import messages

__all__ = [
    "LocalKernelState",
    "LocalScheduler",
    "_LocalShard",
]

#: How many queued ops a worker runs before returning the lane to a
#: ready deque -- the steal window, i.e. the node-activation grain.
DEFAULT_GRAIN = 16


class _RecordingConflictSet(ConflictSet):
    """A conflict set that journals its edits as zero-copy tuples.

    Shard and coordinator share an address space, so an insert is
    recorded as ``("I", instantiation)`` -- the coordinator files the
    very same object into its own conflict set.  Deletes are ``("d",
    name, timetags)``.  ``delete_key`` is the override point (generated
    kernels bind it directly as ``cs_delete``); ``delete`` funnels
    through it, so nothing records twice.
    """

    def __init__(self) -> None:
        super().__init__()
        self.edits: list[tuple] = []

    def insert(self, inst) -> None:
        super().insert(inst)
        self.edits.append((messages.INSERT_REF, inst))

    def delete_key(self, key) -> None:
        super().delete_key(key)
        self.edits.append((messages.DELETE, key[0], key[1]))

    def drain(self) -> list[tuple]:
        edits, self.edits = self.edits, []
        return edits


class LocalKernelState:
    """One shard's match state: a compiled kernel over its rule slice.

    Mirrors :class:`~repro.kernel.matcher.CompiledMatcher`'s rebuild policy:
    production edits while WM is empty only mark the state dirty (one
    compile per final ruleset shape, so loading N productions does not
    pollute the process-wide kernel cache with N-1 prefix shapes); once
    WMEs exist an edit rebuilds immediately and emits the conflict-set
    *diff* as edits, because the coordinator incrementally maintains its
    merged view.
    """

    def __init__(self) -> None:
        self.productions: dict[str, Production] = {}
        self.wmes: dict[int, WME] = {}
        self.conflict_set = _RecordingConflictSet()
        self._rt: Optional[KernelRuntime] = None
        self._dirty = False

    # -- op application ----------------------------------------------------

    def apply_op(self, op: Sequence, wme_ordinal: int) -> Optional[tuple]:
        """Apply one batch op; return a stats row for WME ops, else None."""
        tag = op[0]
        if tag == messages.ADD_WME_REF:
            self._ensure_built()
            wme = self.wmes[op[1].timetag] = op[1]
            return self._change(KernelRuntime.add_wme, wme, wme_ordinal)
        if tag == messages.REMOVE_WME:
            self._ensure_built()
            wme = self.wmes.pop(op[1])
            return self._change(KernelRuntime.remove_wme, wme, wme_ordinal)
        if tag == messages.ADD_PRODUCTION:
            production = op[1]
            self.productions[production.name] = production
            self._ruleset_edit()
            return None
        if tag == messages.REMOVE_PRODUCTION:
            del self.productions[op[1]]
            self._ruleset_edit()
            return None
        if tag == messages.RESET:
            self.productions = {}
            self.wmes = {}
            self.conflict_set = _RecordingConflictSet()
            self._rt = None
            self._dirty = False
            return None
        raise ValueError(f"unknown op tag {tag!r}")

    def apply_batch(self, ops: Iterable[Sequence]) -> tuple[list, list]:
        """Apply *ops* in order; return ``(edits, stat_rows)``.

        Used when a batch is served on the caller's thread; the
        scheduled path applies ops one at a time so grains interleave.
        """
        stat_rows: list[tuple] = []
        ordinal = 0
        for op in ops:
            row = self.apply_op(op, ordinal)
            if row is not None:
                stat_rows.append(row)
                ordinal += 1
        return self.conflict_set.drain(), stat_rows

    def _change(self, apply, wme: WME, ordinal: int) -> tuple:
        """One kernel entry as a stats row: affected count + counter deltas."""
        rt = self._rt
        if rt is None:
            return (ordinal, 0, 0, 0, 0)
        counters = rt.counters
        b0, b1, b2 = counters
        affected = apply(rt, wme)
        return (ordinal, affected, counters[0] - b0, counters[1] - b1, counters[2] - b2)

    # -- (re)compilation ---------------------------------------------------

    def _ruleset_edit(self) -> None:
        if self.wmes:
            self._rebuild(diff=True)
        else:
            self._dirty = True

    def _ensure_built(self) -> None:
        if self._dirty:
            self._rebuild(diff=False)

    def _rebuild(self, diff: bool) -> None:
        """Re-attach a kernel for the current ruleset over the WM mirror.

        Always builds a *fresh* recording conflict set and swaps it in:
        generated kernels bind ``cs_insert``/``cs_delete`` at attach
        time, so re-using the old set under a new runtime would leave
        stale closures writing into it.  Replay edits are discarded
        (replay is quiet); with ``diff=True`` the membership difference
        against the old set is appended instead, keeping the
        coordinator's incrementally-merged view exact.
        """
        pending = self.conflict_set.edits
        old_keys = self.conflict_set.snapshot() if diff else None
        cs = _RecordingConflictSet()
        productions = list(self.productions.values())
        rt = None
        if productions:
            kernel = shared_kernel(productions)
            rt = kernel.attach(
                cs, productions, (self.wmes[t] for t in sorted(self.wmes))
            )
        cs.edits = pending
        if diff:
            new_keys = cs.snapshot()
            for key in sorted(old_keys - new_keys):
                cs.edits.append((messages.DELETE, key[0], key[1]))
            for key in sorted(new_keys - old_keys):
                cs.edits.append((messages.INSERT_REF, cs.get(key)))
        self.conflict_set = cs
        self._rt = rt
        self._dirty = False

    def state_size(self) -> int:
        return self._rt.state_size() if self._rt is not None else 0


class _Lane:
    """One shard's FIFO of pending tasks plus its epoch counters.

    ``scheduled`` is the single-executor token: True exactly while the
    lane sits on a ready deque or is being drained, so two workers can
    never run the same shard's kernel concurrently.  ``published`` /
    ``completed`` are the counting-epoch pair: the barrier for this
    lane is simply ``completed == published``, no message round-trip.
    """

    __slots__ = (
        "index",
        "home",
        "state",
        "tasks",
        "lock",
        "scheduled",
        "published",
        "completed",
        "replies",
    )

    def __init__(self, index: int, home: int, state: LocalKernelState) -> None:
        self.index = index
        self.home = home
        self.state = state
        self.tasks: deque = deque()
        self.lock = threading.Lock()
        self.scheduled = False
        self.published = 0
        self.completed = 0
        self.replies: deque = deque()


class _BatchJob:
    """Book-keeping for one dispatched batch as its ops flow as tasks."""

    __slots__ = ("remaining", "stat_rows", "wme_ordinal", "failed", "error")

    def __init__(self, remaining: int) -> None:
        self.remaining = remaining
        self.stat_rows: list[tuple] = []
        self.wme_ordinal = 0
        self.failed = False
        self.error: Optional[tuple[str, str]] = None


class LocalScheduler:
    """Work-stealing task scheduler over the thread shards.

    *workers* daemon threads each own a ready deque of lanes.  A lane is
    pushed to its home worker's deque on dispatch; the owning worker
    drains it ``grain`` ops at a time, re-queueing between grains so the
    lane is stealable at node-activation granularity.  Idle workers
    steal from the *back* of peers' deques (classic Chase-Lev
    discipline, minus the lock-free part -- one condition variable
    guards all deques, which is proportionate under a GIL).  The
    coordinator thread "helps": while it waits at the flush barrier it
    drains lanes too, so on few-core hosts the barrier wait converts
    into match work instead of a context switch.
    """

    def __init__(self, workers: int, grain: int = DEFAULT_GRAIN) -> None:
        self.workers = max(1, workers)
        self.grain = max(1, grain)
        self._cv = threading.Condition()
        self._ready: list[deque] = [deque() for _ in range(self.workers)]
        self._stopped = False
        # Counters (ints; single-writer or GIL-atomic += under CPython,
        # and read only for reporting).
        self.steals = 0
        self.executed = 0
        self.helped = 0
        self.fast_batches = 0
        self.epoch_waits = 0
        self.epochs = 0
        self.max_queue_depth = 0
        self._threads = [
            threading.Thread(
                target=self._run, args=(w,), daemon=True, name=f"repro-local-{w}"
            )
            for w in range(self.workers)
        ]
        for t in self._threads:
            t.start()

    # -- dispatch ----------------------------------------------------------

    def enqueue(self, lane: _Lane, tasks: Sequence[tuple]) -> None:
        """Publish *tasks* onto *lane* and make the lane runnable."""
        with lane.lock:
            lane.tasks.extend(tasks)
            lane.published += len(tasks)
            need_schedule = not lane.scheduled
            if need_schedule:
                lane.scheduled = True
        if need_schedule:
            with self._cv:
                self._ready[lane.home].append(lane)
                depth = sum(len(q) for q in self._ready)
                if depth > self.max_queue_depth:
                    self.max_queue_depth = depth
                self._cv.notify(1)

    # -- worker side -------------------------------------------------------

    def _run(self, worker: int) -> None:
        while True:
            with self._cv:
                while True:
                    if self._stopped:
                        return
                    lane = self._take(worker)
                    if lane is not None:
                        break
                    self._cv.wait(0.05)
            self.executed += self._drain(lane, worker)

    def _take(self, worker: int) -> Optional[_Lane]:
        """Pop a runnable lane: own deque first, then steal. CV held."""
        own = self._ready[worker]
        if own:
            return own.popleft()
        for offset in range(1, self.workers):
            peer = self._ready[(worker + offset) % self.workers]
            if peer:
                self.steals += 1
                return peer.popleft()
        return None

    def _drain(self, lane: _Lane, worker: int, helper: bool = False) -> int:
        """Execute *lane*'s queued tasks on the calling thread.

        A worker thread runs one task (= one grain of ops) and returns
        the lane to its deque, keeping it stealable at node-activation
        granularity.  The helping coordinator runs the lane dry in one
        visit instead -- at the barrier every lane must drain anyway,
        so grain-by-grain requeueing would be pure lock traffic.

        Returns the number of tasks executed.  The single-executor
        invariant holds because ``lane.scheduled`` stays True from the
        enqueue that scheduled the lane until this method observes an
        empty task deque under the lane lock.
        """
        ran = 0
        while True:
            task = None
            with lane.lock:
                if lane.tasks:
                    task = lane.tasks.popleft()
                else:
                    lane.scheduled = False
            if task is None:
                break
            self._execute(lane, task)
            lane.completed += 1
            ran += 1
            if not helper:
                requeue = False
                with lane.lock:
                    if lane.tasks:
                        requeue = True  # keep scheduled; stay stealable
                    else:
                        lane.scheduled = False
                if requeue:
                    with self._cv:
                        self._ready[worker].append(lane)
                        self._cv.notify(1)
                    return ran
                break
        if not helper:
            # A reply may have completed an epoch; wake barrier waiters.
            with self._cv:
                self._cv.notify_all()
        return ran

    def _execute(self, lane: _Lane, task: tuple) -> None:
        job, ops = task
        if not job.failed:
            state = lane.state
            apply_op = state.apply_op
            rows = job.stat_rows
            try:
                for op in ops:
                    row = apply_op(op, job.wme_ordinal)
                    if row is not None:
                        rows.append(row)
                        job.wme_ordinal += 1
            except Exception as exc:  # noqa: BLE001 - reported as the reply
                job.failed = True
                job.error = (repr(exc), traceback.format_exc())
                # State is torn mid-batch; start fresh so whatever is
                # still queued behind this batch cannot run against it.
                lane.state = LocalKernelState()
        job.remaining -= 1
        if job.remaining == 0:
            if job.failed:
                reply = (messages.ERROR, job.error[0], job.error[1])
            else:
                reply = (messages.OK, lane.state.conflict_set.drain(), job.stat_rows)
            lane.replies.append(reply)
            # One wakeup per completed batch (not per op): a parked
            # barrier waiter learns its reply is ready immediately.
            with self._cv:
                self._cv.notify_all()

    # -- coordinator side --------------------------------------------------

    def help_until_reply(self, lane: _Lane) -> None:
        """Run tasks on the caller's thread until *lane* has a reply.

        This is the counting-epoch barrier: instead of blocking, the
        coordinator drains ready lanes (preferring *lane*'s home deque)
        while it waits.
        """
        while not lane.replies:
            with self._cv:
                claimed = None if self._stopped else self._take(lane.home)
            if claimed is not None:
                self.helped += self._drain(claimed, claimed.home, helper=True)
                continue
            # Nothing runnable here -- a worker may be mid-grain on the
            # lane we need.  Park briefly; reply/requeue notifies us.
            with self._cv:
                if lane.replies:
                    return
                self.epoch_waits += 1
                self._cv.wait(0.01)

    def end_epoch(self) -> None:
        """Mark a flush-barrier epoch complete (reporting only)."""
        self.epochs += 1

    # -- lifecycle / reporting ---------------------------------------------

    def shutdown(self) -> None:
        with self._cv:
            self._stopped = True
            self._cv.notify_all()
        for t in self._threads:
            t.join(timeout=1.0)

    def stats(self) -> dict:
        """Side-effect-free counters snapshot (never advances the epoch)."""
        return {
            "workers": self.workers,
            "grain": self.grain,
            "tasks_executed": self.executed,
            "tasks_helped": self.helped,
            "fast_batches": self.fast_batches,
            "steals": self.steals,
            "epochs": self.epochs,
            "epoch_waits": self.epoch_waits,
            "max_queue_depth": self.max_queue_depth,
            "queue_depths": [len(q) for q in self._ready],
        }


class _LocalShard:
    """Coordinator-side handle for one thread shard.

    With a scheduler its lane is shared with the worker threads; with
    ``scheduler=None`` (``workers=0``) every batch is served
    synchronously on the caller's thread -- same state, same replies,
    no threads.
    """

    def __init__(self, index: int, scheduler: Optional[LocalScheduler] = None) -> None:
        self.scheduler = scheduler
        home = index % scheduler.workers if scheduler is not None else 0
        self.lane = _Lane(index, home, LocalKernelState())

    @property
    def state(self) -> LocalKernelState:
        return self.lane.state

    def dispatch(self, ops: Sequence) -> None:
        """Serve *ops* (non-empty): exactly one reply becomes collectable."""
        lane = self.lane
        scheduler = self.scheduler
        if scheduler is None:
            lane.replies.append(self._serve(ops))
            return
        grain = scheduler.grain
        if len(ops) <= grain and lane.completed >= lane.published and not lane.tasks:
            # Granularity shortcut -- the paper's Section 4 trade-off
            # measured live: below one grain of work the enqueue/notify/
            # steal round-trip costs more than the match work itself, so
            # a quiescent lane serves the batch on the caller's thread.
            # The single-executor discipline holds (nothing is queued,
            # nothing mid-drain), and batches bigger than a grain still
            # go through the deques where workers and thieves share them.
            scheduler.fast_batches += 1
            lane.replies.append(self._serve(ops))
            return
        # One task per grain of ops: the work-stealing (and helping)
        # granularity without per-op task bookkeeping.
        job = _BatchJob(0)
        tasks = [
            (job, ops[start : start + grain]) for start in range(0, len(ops), grain)
        ]
        job.remaining = len(tasks)
        scheduler.enqueue(lane, tasks)

    def _serve(self, ops: Sequence) -> tuple:
        """Apply one whole batch on the caller's thread; return its reply."""
        lane = self.lane
        try:
            edits, stat_rows = lane.state.apply_batch(ops)
        except Exception as exc:  # noqa: BLE001 - reported as the reply
            lane.state = LocalKernelState()  # torn mid-batch; start fresh
            return (messages.ERROR, repr(exc), traceback.format_exc())
        return (messages.OK, edits, stat_rows)

    def collect(self) -> tuple:
        """The oldest uncollected reply, helping the scheduler while it
        is not there yet."""
        lane = self.lane
        if self.scheduler is not None:
            self.scheduler.help_until_reply(lane)
        return lane.replies.popleft()
