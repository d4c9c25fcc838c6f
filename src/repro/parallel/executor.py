"""The live parallel match executor: a coordinator over thread shards.

This is the one matcher backend that *executes* match work on more than
one thread instead of simulating it.  The design maps the paper's
Section 5 machine onto what CPython can actually do (see
``examples/gil_wall.py`` and EXPERIMENTS.md: threads share one
interpreter lock, and shipping facts to other processes lost by two
orders of magnitude, so the shards stay in this address space):

* **Partitioned alpha/beta memories.**  Productions are distributed
  over shards (:mod:`repro.parallel.partition`); each shard compiles
  its share into a private kernel (:mod:`repro.parallel.local`), so
  every alpha store and join memory lives in exactly one shard.
* **Per-node locks by ownership.**  A shard's state is only ever
  touched by the one thread currently draining its lane, which
  serialises activations of one node (the paper's node-memory lock,
  uncontended by construction).
* **A work queue mirroring the hardware task scheduler.**  The
  coordinator routes each working-memory change to the shards whose
  partitions contain a condition element of the WME's class (the
  partitioned alpha network's top level) and queues it; a *flush*
  dispatches every queued op batch, then collects conflict-set edits
  and measurement rows back.
* **A batch barrier per recognize--act cycle.**  Changes buffer while
  the RHS runs; reading :attr:`ParallelMatcher.conflict_set` (which the
  engine does at the top of every cycle, during conflict resolution)
  is the barrier that flushes them -- the same cycle-level barrier
  semantics the discrete-event simulator encodes in its batches.

The coordinator merges shard edit streams into the real
:class:`~repro.ops5.conflict.ConflictSet`.  Because shards hold
disjoint production sets, their edits are disjoint by production and
the merged set -- and therefore conflict resolution, firing order, and
every downstream result -- is bit-identical for every worker count,
including ``workers=0``, which runs the same shard code with no
scheduler and no threads.

There is no supervision: a thread shard shares the coordinator's fate.
The one failure a shard can report is an exception inside a batch; the
flush drains every other reply and raises ``RuntimeError``, after which
the matcher is good for :meth:`ParallelMatcher.clear` and
:meth:`ParallelMatcher.close` only.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Optional, Sequence

from ..obs.recorder import NULL_RECORDER
from ..ops5.errors import Ops5Error
from ..ops5.conflict import ConflictSet
from ..ops5.matcher import Matcher, MatchStats
from ..ops5.production import Production
from ..ops5.wme import WME
from . import messages
from .local import LocalScheduler, _LocalShard
from .partition import Partition, assign_productions, production_weight


def default_worker_count() -> int:
    """Workers to use when unspecified: the host's cores, capped at 4."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


#: Eager dispatch: a shard's pending batch goes out *before* the cycle
#: barrier once it is as deep as half the shard's recent ops per flush
#: epoch (an EWMA), clamped to this range -- small cycles stay
#: single-batch while bulk loads pipeline through the scheduler.
EAGER_MIN_OPS = 16
EAGER_MAX_OPS = 1024
#: Where the per-shard EWMA starts (a first threshold of 64 ops).
EAGER_INITIAL_EPOCH_OPS = 128.0


class _InflightBatch:
    """One dispatched-but-uncollected batch (the executor's send window)."""

    __slots__ = ("op_count", "change_map", "sent_at", "eager")

    def __init__(self, op_count, change_map, sent_at, eager):
        self.op_count = op_count
        self.change_map = change_map
        self.sent_at = sent_at  # recorder clock (0 when disabled)
        self.eager = eager


class WorkQueue:
    """Per-shard op queues plus the change log of the open batch.

    The software analogue of the paper's hardware task scheduler: it
    accepts routed ops, remembers which global change each WME op
    belongs to, and hands every shard its batch at dispatch time.
    """

    def __init__(self, shard_count: int) -> None:
        self.pending: list[list] = [[] for _ in range(shard_count)]
        #: Local WME-op position -> global change index, per shard.
        self.change_map: list[list[int]] = [[] for _ in range(shard_count)]
        #: (kind, wme_class) per global change in this batch.
        self.changes: list[tuple[str, str]] = []

    def push(self, shard: int, op: Sequence[Any], change: int | None = None) -> None:
        self.pending[shard].append(op)
        if change is not None:
            self.change_map[shard].append(change)

    def open_change(self, kind: str, wme_class: str) -> int:
        self.changes.append((kind, wme_class))
        return len(self.changes) - 1

    @property
    def dirty(self) -> bool:
        return bool(self.changes) or any(self.pending)

    def take(self) -> tuple[list[list], list[list[int]], list[tuple[str, str]]]:
        pending, change_map, changes = self.pending, self.change_map, self.changes
        count = len(pending)
        self.pending = [[] for _ in range(count)]
        self.change_map = [[] for _ in range(count)]
        self.changes = []
        return pending, change_map, changes

    def take_shard(self, shard: int) -> tuple[list, list[int]]:
        """Detach one shard's pending batch (eager dispatch path).

        The change log stays put: change indices stay valid for the
        whole flush epoch, eager batches included.
        """
        ops, change_map = self.pending[shard], self.change_map[shard]
        self.pending[shard] = []
        self.change_map[shard] = []
        return ops, change_map


#: Backfill WME ops carry this change index: their (zero-work) stat rows
#: belong to no engine-visible change and are dropped at merge time.
_BACKFILL = -1


class ParallelMatcher(Matcher):
    """A :class:`~repro.ops5.matcher.Matcher` over a pool of thread shards.

    Parameters
    ----------
    workers:
        Number of shards, each with a scheduler thread.  ``0`` runs a
        single shard with no scheduler and no threads -- the degenerate
        serial configuration with identical semantics.  ``None`` picks
        :func:`default_worker_count`.
    recorder:
        Optional :class:`~repro.obs.Recorder`.  When enabled, every
        flush barrier records a coordinator span (lane 0) and one
        ``shard-batch`` span per dispatched shard on lane ``1 + shard``
        -- coordinator-observed wall-clock from dispatch to collection,
        with queue depths (ops per batch) and edit counts as args.
    transport:
        ``"local"``, the one value left: shards are threads in this
        address space.  The process transports (``pipe``, ``ring``,
        ``auto``) were removed; naming one raises :class:`Ops5Error`.

    Use as a context manager (or call :meth:`close`) so the scheduler
    threads are joined deterministically; they are daemonic, so an
    unclosed matcher still cannot outlive the interpreter.
    """

    def __init__(
        self,
        workers: int | None = None,
        recorder=None,
        transport: str = "local",
    ) -> None:
        # Matcher.__init__ is deliberately not called: `conflict_set` and
        # `stats` are flush-on-read properties here, not attributes.
        if workers is None:
            workers = default_worker_count()
        if workers < 0:
            raise Ops5Error("workers must be >= 0")
        if transport != "local":
            raise Ops5Error(
                f"transport {transport!r} is not available: the process "
                "transports (pipe, ring, auto) were removed; shards are "
                "threads in the caller's address space ('local')"
            )
        self.workers = workers
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._shard_count = max(1, workers)
        self._conflict_set = ConflictSet()
        self._stats = MatchStats()
        self._queue = WorkQueue(self._shard_count)
        self._shards: list[_LocalShard] | None = None
        #: Work-stealing thread scheduler (``None`` for ``workers=0``).
        self._scheduler: Optional[LocalScheduler] = None
        self._productions: dict[str, Production] = {}
        #: Production name -> owning shard index.
        self._assignment: dict[str, int] = {}
        #: Static weight currently assigned to each shard.
        self._weights: list[float] = [0.0] * self._shard_count
        #: Classes each shard has ever subscribed to.  Sticky: once a
        #: shard hears about a class it keeps receiving its changes, so
        #: its working-memory view never silently goes stale.
        self._subscribed: list[set[str]] = [set() for _ in range(self._shard_count)]
        #: Productions registered before the pool starts; partitioned in
        #: one balanced pass at start time.
        self._unpartitioned: list[Production] = []
        #: Live WMEs by timetag (the coordinator's working-memory view).
        self._wmes: dict[int, WME] = {}
        self._pending_removals: list[int] = []
        self._closed = False
        #: Dispatched-but-uncollected batches, FIFO per shard.
        self._inflight: list[list[_InflightBatch]] = [
            [] for _ in range(self._shard_count)
        ]
        #: EWMA of WME+production ops per flush epoch, per shard (drives
        #: the eager threshold).
        self._ewma: list[float] = [EAGER_INITIAL_EPOCH_OPS] * self._shard_count
        self._epoch_ops: list[int] = [0] * self._shard_count
        #: Batches handed to shards so far, and how many of them went
        #: out before the barrier.
        self.dispatches = 0
        self.eager_dispatches = 0

    # -- pool lifecycle ------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._shards is not None

    def _ensure_started(self) -> None:
        if self._shards is not None:
            return
        if self._closed:
            raise Ops5Error("this ParallelMatcher has been closed")
        if self.workers:
            self._scheduler = LocalScheduler(self._shard_count)
        self._shards = [
            _LocalShard(i, self._scheduler) for i in range(self._shard_count)
        ]
        for partition in assign_productions(self._unpartitioned, self._shard_count):
            for production in partition.productions:
                self._place(production, partition.index)
        self._unpartitioned = []

    def close(self) -> None:
        """Stop the scheduler threads.  Further matching raises; stats
        and the last flushed conflict set stay readable."""
        self._shards = None
        if self._scheduler is not None:
            self._scheduler.shutdown()
            self._scheduler = None
        self._closed = True

    def __enter__(self) -> "ParallelMatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- placement ------------------------------------------------------------

    def _place(self, production: Production, shard: int) -> None:
        """Queue compilation of *production* on *shard* (with backfill)."""
        self._assignment[production.name] = shard
        self._weights[shard] += production_weight(production)
        classes = {ce.cls for ce in production.conditions}
        new_classes = classes - self._subscribed[shard]
        # Backfill: the shard must hold the current WMEs of any class it
        # has not been hearing about, or the new rule would match against
        # a partial working memory.
        for cls in sorted(new_classes):
            for timetag in sorted(self._wmes):
                wme = self._wmes[timetag]
                if wme.cls == cls:
                    self._queue.push(
                        shard, (messages.ADD_WME_REF, wme), change=_BACKFILL
                    )
        self._subscribed[shard] |= classes
        self._queue.push(shard, (messages.ADD_PRODUCTION, production))

    def _route(self, cls: str) -> list[int]:
        return [
            i
            for i in range(self._shard_count)
            if cls in self._subscribed[i]
        ]

    # -- Matcher interface -----------------------------------------------------

    @property
    def productions(self) -> Iterable[Production]:
        return self._productions.values()

    def add_production(self, production: Production) -> None:
        if production.name in self._productions:
            raise Ops5Error(f"production {production.name!r} already registered")
        self._productions[production.name] = production
        if self._shards is None:
            self._unpartitioned.append(production)
            return
        lightest = min(range(self._shard_count), key=lambda i: (self._weights[i], i))
        self._place(production, lightest)

    def remove_production(self, name: str) -> None:
        if name not in self._productions:
            raise Ops5Error(f"no production named {name!r}")
        del self._productions[name]
        if self._shards is None:
            self._unpartitioned = [p for p in self._unpartitioned if p.name != name]
            return
        shard = self._assignment.pop(name)
        self._queue.push(shard, (messages.REMOVE_PRODUCTION, name))

    def add_wme(self, wme: WME) -> None:
        self._ensure_started()
        self._wmes[wme.timetag] = wme
        change = self._queue.open_change("add", wme.cls)
        targets = self._route(wme.cls)
        for shard in targets:
            # The op carries the live object: zero-copy dispatch.
            self._queue.push(shard, (messages.ADD_WME_REF, wme), change=change)
        self._maybe_eager(targets)

    def remove_wme(self, wme: WME) -> None:
        self._ensure_started()
        if wme.timetag not in self._wmes:
            raise Ops5Error(f"WME {wme!r} was never added to this matcher")
        self._pending_removals.append(wme.timetag)
        change = self._queue.open_change("remove", wme.cls)
        targets = self._route(wme.cls)
        for shard in targets:
            self._queue.push(shard, (messages.REMOVE_WME, wme.timetag), change=change)
        self._maybe_eager(targets)

    # -- eager batched dispatch ---------------------------------------------

    def _maybe_eager(self, shards: Sequence[int]) -> None:
        """Dispatch any deep-enough pending batch before the barrier.

        The point is overlapping shard match time with coordinator
        routing, which a schedulerless shard (synchronous apply on this
        thread) cannot do.
        """
        if self.workers == 0:
            return
        for i in shards:
            threshold = min(EAGER_MAX_OPS, max(EAGER_MIN_OPS, int(self._ewma[i] / 2)))
            if len(self._queue.pending[i]) >= threshold:
                self._dispatch_shard(i, eager=True)

    def _dispatch_shard(self, i: int, eager: bool = False) -> None:
        """Hand shard *i* its pending batch and add it to the in-flight
        window."""
        ops, change_map = self._queue.take_shard(i)
        if not ops:
            return
        rec = self.recorder
        self._inflight[i].append(
            _InflightBatch(
                op_count=len(ops),
                change_map=change_map,
                sent_at=rec.now() if rec.enabled else 0,
                eager=eager,
            )
        )
        self._epoch_ops[i] += len(ops)
        self.dispatches += 1
        if eager:
            self.eager_dispatches += 1
        self._shards[i].dispatch(ops)

    # -- the flush barrier -------------------------------------------------------

    @property
    def conflict_set(self) -> ConflictSet:
        """The merged conflict set; reading it is the cycle barrier."""
        self.flush()
        return self._conflict_set

    @property
    def stats(self) -> MatchStats:
        self.flush()
        return self._stats

    def peek_stats(self) -> MatchStats:
        """Stats accumulated so far, *without* triggering a flush.

        The flush barrier belongs to the engine's cycle; metrics
        snapshots taken from another thread (the serve layer's ``stats``
        RPC) must not move it.
        """
        return self._stats

    def peek_conflict_set(self) -> ConflictSet:
        """The conflict set as last merged, *without* triggering a flush."""
        return self._conflict_set

    def flush(self) -> None:
        """Dispatch all queued ops and merge the shards' results.

        With eager dispatch some batches are already in flight when the
        barrier hits; the flush dispatches the remainders and collects
        every in-flight batch FIFO per shard.  An exception inside a
        shard batch is raised as ``RuntimeError`` after every other
        reply has been drained, so no stale reply can desynchronise a
        later flush; the failed shard has lost its match state, which
        leaves :meth:`clear` and :meth:`close` as the only useful calls.
        """
        if self._unpartitioned and self._shards is None:
            self._ensure_started()
        if self._shards is None or not (
            self._queue.dirty or any(self._inflight)
        ):
            return
        rec = self.recorder
        flush_start = rec.now() if rec.enabled else 0
        changes = self._queue.changes
        self._queue.changes = []
        #: Insert edits suppressed because their production was removed
        #: in this same batch; the paired delete is excused, nothing else.
        self._skipped_inserts: set[tuple] = set()

        for i in range(self._shard_count):
            if self._queue.pending[i]:
                self._dispatch_shard(i)

        #: [affected, activations, comparisons, tokens] per change,
        #: summed over the shards it was routed to.
        merged = [[0, 0, 0, 0] for _ in changes]
        errors: list[RuntimeError] = []
        active = [i for i in range(self._shard_count) if self._inflight[i]]
        total_ops = 0
        for i in active:
            total_ops += self._epoch_ops[i]
            error = self._collect_inflight(i, merged)
            if error is not None:
                errors.append(error)
        for (kind, cls), effort in zip(changes, merged):
            self._stats.record(kind, cls, *effort)

        for i in range(self._shard_count):
            if self._epoch_ops[i]:
                self._ewma[i] = 0.8 * self._ewma[i] + 0.2 * self._epoch_ops[i]
                self._epoch_ops[i] = 0

        for timetag in self._pending_removals:
            self._wmes.pop(timetag, None)
        self._pending_removals = []

        if self._scheduler is not None:
            self._scheduler.end_epoch()

        if rec.enabled:
            rec.complete(
                "flush",
                "parallel",
                start=flush_start,
                duration=rec.now() - flush_start,
                tid=0,
                args={
                    "changes": len(changes),
                    "shards_active": len(active),
                    "ops": total_ops,
                },
            )
        if errors:
            raise errors[0]

    def _collect_inflight(self, i: int, merged: list) -> Optional[RuntimeError]:
        """Collect and merge every in-flight batch of shard *i*, FIFO.

        On an error reply the remaining in-flight replies are worthless
        -- the shard reset itself to a *fresh* state after the error, so
        later batches ran against the wrong state -- they are collected
        and discarded, and the error is returned for the flush to raise.
        """
        rec = self.recorder
        shard = self._shards[i]
        records = self._inflight[i]
        while records:
            record = records.pop(0)
            reply = shard.collect()
            if reply[0] != messages.OK:
                for _ in records:
                    shard.collect()
                records.clear()
                return RuntimeError(
                    f"shard worker {i} failed: {reply[1]}\n{reply[2]}"
                )
            edits, stat_rows = reply[1], reply[2]
            if rec.enabled:
                # Coordinator-observed batch wall-clock: dispatch to
                # collection, serialised by collection order.
                rec.complete(
                    "shard-batch",
                    "parallel",
                    start=record.sent_at,
                    duration=rec.now() - record.sent_at,
                    tid=1 + i,
                    args={
                        "shard": i,
                        "ops": record.op_count,
                        "edits": len(edits),
                        "eager": record.eager,
                    },
                )
            self._merge_edits(edits)
            change_map = record.change_map
            for local_index, affected, activations, comparisons, tokens in stat_rows:
                change = (
                    change_map[local_index]
                    if local_index < len(change_map)
                    else _BACKFILL
                )
                if change == _BACKFILL:
                    continue
                effort = merged[change]
                effort[0] += affected
                effort[1] += activations
                effort[2] += comparisons
                effort[3] += tokens
        return None

    # -- bulk control ----------------------------------------------------------

    def clear(self) -> None:
        """Drop all productions and working memory (pool stays warm).

        Lets one pool serve many small programs -- the differential test
        harness loads hundreds of generated programs through a single
        matcher without restarting the scheduler threads.
        """
        # Eagerly dispatched batches are already applied shard-side and
        # owe replies; drain them (results are moot once every shard
        # resets, and so is any error a doomed batch reports).
        if any(self._inflight):
            try:
                self.flush()
            except RuntimeError:
                pass
        # Undispatched ops are moot once every shard resets; drop them.
        self._queue = WorkQueue(self._shard_count)
        self._conflict_set = ConflictSet()
        self._stats = MatchStats()
        self._productions = {}
        self._assignment = {}
        self._weights = [0.0] * self._shard_count
        self._subscribed = [set() for _ in range(self._shard_count)]
        self._unpartitioned = []
        self._wmes = {}
        self._pending_removals = []
        if self._shards is not None:
            for i in range(self._shard_count):
                self._queue.push(i, (messages.RESET,))
            self.flush()

    # -- introspection ----------------------------------------------------------

    def partition_snapshot(self) -> list[Partition]:
        """The current production -> shard distribution.

        Before the pool starts this previews the balanced assignment the
        start will perform; afterwards it reports actual placement.
        """
        if self._unpartitioned:
            return assign_productions(self._unpartitioned, self._shard_count)
        partitions = [Partition(i) for i in range(self._shard_count)]
        for name, shard in sorted(self._assignment.items()):
            partitions[shard].productions.append(self._productions[name])
            partitions[shard].weight += production_weight(self._productions[name])
        return partitions

    def scheduler_summary(self) -> Optional[dict]:
        """The ``scheduler`` metrics section.

        Side-effect-free by construction (mirrors :meth:`peek_stats`'s
        guarantee): reads counters only, never touches the work queue
        or the epoch barrier.  ``None`` while there is no scheduler
        (``workers=0``, or before the pool starts).
        """
        if self._scheduler is None:
            return None
        return self._scheduler.stats()

    def _merge_edits(self, edits: Sequence[tuple]) -> None:
        for edit in edits:
            if edit[0] == messages.INSERT_REF:
                # The very object the shard's kernel built.
                inst = edit[1]
                if inst.production.name not in self._productions:
                    # The production was removed after this WME op was
                    # queued but before the flush; the shard's "-p"
                    # retraction follows in the same edit stream, so
                    # suppress the insert and excuse its paired delete.
                    self._skipped_inserts.add(inst.key)
                    continue
                self._conflict_set.insert(inst)
            else:
                _, name, timetags = edit
                key = (name, tuple(timetags))
                if key in self._skipped_inserts:
                    self._skipped_inserts.discard(key)
                    continue
                self._conflict_set.delete_key(key)
