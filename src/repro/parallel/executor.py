"""The live parallel match executor: Rete on a supervised process pool.

This is the repo's fourth matcher backend -- the first one that
*executes* match work in parallel instead of simulating it.  The design
maps the paper's Section 5 machine onto what CPython can actually do
(see ``examples/gil_wall.py``: threads hit the GIL, so concurrency
comes from processes):

* **Partitioned alpha/beta memories.**  Productions are distributed
  over shard workers (:mod:`repro.parallel.partition`); each worker
  compiles its share into a private Rete network, so every alpha
  memory, beta memory, and join lives in exactly one process.
* **Per-node locks by ownership.**  A node's memory is only ever
  touched by its owning worker, which serialises activations of one
  node (the paper's node-memory lock, uncontended by construction)
  while nodes in different shards execute truly concurrently.
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
including the inline ``workers=0`` mode that runs the same shard code
in-process.

**Supervision** (see :mod:`repro.parallel.supervisor` and
``docs/fault-tolerance.md``): collection waits with a deadline instead
of blocking forever, so a crashed worker (EOF on the pipe) or a hung
one (deadline expiry) surfaces as a :class:`ShardFailure`.  The
coordinator then kills the remains, spawns a replacement, rebuilds its
match state from the last checkpoint plus the op journal -- match state
is a deterministic function of the op stream (the paper's Section 3.1
premise), so the rebuilt shard is bit-identical -- and re-dispatches
the batch the failure interrupted.  After ``max_failures`` consecutive
failures a shard is *demoted* to an in-process inline shard, so the run
always completes.  Because the fault plan keys on batch sequence
numbers that recovery never reuses, injected faults fire exactly once
and the recovered run's conflict-set stream matches the fault-free
reference bit for bit.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from ..faults.plan import FaultPlan
from ..obs.recorder import NULL_RECORDER
from ..ops5.errors import Ops5Error
from ..ops5.conflict import ConflictSet
from ..ops5.matcher import ChangeRecord, Matcher, MatchStats
from ..ops5.production import Instantiation, Production
from ..ops5.symbols import SYMBOLS
from ..ops5.wme import WME
from . import messages
from .local import LocalScheduler, _LocalShard, rebuild_local_state
from .partition import Partition, assign_productions, production_weight
from .ring import RingStall
from .supervisor import (
    RecoveryEvent,
    ShardFailure,
    ShardSupervisor,
    SupervisorConfig,
)
from .transport import TRANSPORTS, TransportStats, create_endpoint, resolve_transport
from .worker import ShardState, rebuild_state, shard_main


def default_worker_count() -> int:
    """Workers to use when unspecified: the host's cores, capped at 4."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


def _context():
    """Prefer fork (cheap, no re-import); fall back to the default."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass(frozen=True)
class DispatchConfig:
    """Batched-dispatch tuning: when to wake a shard before the barrier.

    The paper's scheduler argument cuts both ways: dispatch must be
    cheap, *and* a worker should start chewing while the coordinator is
    still routing the rest of the cycle's changes.  ``eager_ops`` is
    the queue depth at which a shard's pending batch is dispatched
    early (``None`` restores pure barrier dispatch); with ``adaptive``
    the threshold tracks half the shard's recent ops-per-cycle (EWMA),
    clamped to ``[min_ops, max_ops]``, so small cycles stay single-batch
    while bulk loads pipeline.  Eager dispatch only applies to process
    shards -- inline shards gain nothing from starting early.
    """

    eager_ops: Optional[int] = 64
    adaptive: bool = True
    min_ops: int = 16
    max_ops: int = 1024

    def __post_init__(self) -> None:
        if self.eager_ops is not None and self.eager_ops < 1:
            raise ValueError("eager_ops must be >= 1 (or None to disable)")
        if self.min_ops < 1 or self.max_ops < self.min_ops:
            raise ValueError("need 1 <= min_ops <= max_ops")


class _InflightBatch:
    """One dispatched-but-uncollected batch (the executor's send window)."""

    __slots__ = ("ops", "change_map", "seq", "sent_at", "start", "eager")

    def __init__(self, ops, change_map, seq, sent_at, start, eager):
        self.ops = ops
        self.change_map = change_map
        self.seq = seq
        self.sent_at = sent_at  # recorder clock (0 when disabled)
        self.start = start  # perf_counter at dispatch
        self.eager = eager


class _ProcessShard:
    """Coordinator-side handle for one worker process.

    All pipe I/O funnels through :meth:`_send` and :meth:`collect`, which
    translate the three ways a worker can disappear -- broken pipe on
    send, EOF on receive, silence past the deadline -- into a
    :class:`ShardFailure` naming the shard and the cause, so the
    executor's recovery path sees one exception type everywhere.
    """

    def __init__(
        self,
        ctx,
        index: int,
        fault_plan: Optional[FaultPlan] = None,
        transport_kind: str = "pipe",
        send_timeout: Optional[float] = 30.0,
        op_cache: Optional[dict] = None,
    ) -> None:
        self.index = index
        conn, child = ctx.Pipe()
        self.endpoint = create_endpoint(transport_kind, conn, send_timeout)
        if op_cache is not None and hasattr(self.endpoint, "op_cache"):
            # Share the matcher-wide epoch cache: op bodies reference the
            # process-global symbol table, so the bytes for a WME op are
            # identical no matter which shard receives them.  Fanning the
            # same op to N shards then encodes it once, not N times.
            self.endpoint.op_cache = op_cache
        spec = self.endpoint.worker_spec(child)
        self.process = ctx.Process(
            target=shard_main,
            args=(spec, index, fault_plan),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        self.process.start()
        child.close()

    @property
    def conn(self):
        """The liveness/data pipe (tests and tooling peek at it)."""
        return self.endpoint.conn

    def _send(self, payload: tuple) -> None:
        try:
            self.endpoint.send(payload)
        except RingStall:
            cause = "hang" if self.process.is_alive() else "crash"
            raise ShardFailure(
                self.index, cause, "command ring full (worker not draining)"
            ) from None
        except (EOFError, BrokenPipeError, OSError):
            raise ShardFailure(self.index, "crash", "pipe broken on send") from None

    def dispatch(self, ops: Sequence[Sequence[Any]], seq: Optional[int] = None) -> None:
        self._send((messages.BATCH, ops, seq))

    def collect(self, deadline: Optional[float] = None) -> tuple:
        """Receive one reply; *deadline* seconds of silence is a hang."""
        if deadline is not None:
            try:
                ready = self.endpoint.poll(deadline)
            except (OSError, EOFError):
                raise ShardFailure(self.index, "crash", "pipe closed") from None
            if not ready:
                raise ShardFailure(
                    self.index, "hang", f"no reply within {deadline:g}s"
                )
        try:
            return self.endpoint.recv()
        except RingStall:
            cause = "hang" if self.process.is_alive() else "crash"
            raise ShardFailure(
                self.index, cause, "reply frame stalled mid-message"
            ) from None
        except EOFError:
            raise ShardFailure(self.index, "crash", "pipe reached EOF") from None

    def checkpoint(self, deadline: Optional[float] = None) -> Optional[bytes]:
        """Round-trip a checkpoint request; ``None`` if the worker declined."""
        self._send((messages.CHECKPOINT,))
        reply = self.collect(deadline)
        if reply[0] != messages.CHECKPOINT:
            return None
        return reply[1]

    def restore_pickled(self, payload: bytes, deadline: Optional[float] = None) -> int:
        """Rebuild the worker's state from a pre-pickled restore command
        (see ``ShardSupervisor.restore_message_bytes``); returns the
        replayed op count."""
        try:
            self.endpoint.send_pickled(payload)
        except RingStall:
            cause = "hang" if self.process.is_alive() else "crash"
            raise ShardFailure(self.index, cause, "ring full during restore") from None
        except (EOFError, BrokenPipeError, OSError):
            raise ShardFailure(self.index, "crash", "pipe broken on restore") from None
        reply = self.collect(deadline)
        if reply[0] != messages.RESTORED:
            detail = reply[1] if len(reply) > 1 else repr(reply)
            raise ShardFailure(self.index, "crash", f"restore failed: {detail}")
        return reply[1]

    def restore(
        self,
        checkpoint: Optional[bytes],
        journal: Sequence[Sequence[Any]],
        deadline: Optional[float] = None,
    ) -> int:
        """Rebuild the worker's state; returns the replayed op count."""
        self._send((messages.RESTORE, checkpoint, list(journal)))
        reply = self.collect(deadline)
        if reply[0] != messages.RESTORED:
            detail = reply[1] if len(reply) > 1 else repr(reply)
            raise ShardFailure(self.index, "crash", f"restore failed: {detail}")
        return reply[1]

    def transport_stats(self) -> TransportStats:
        return self.endpoint.stats_snapshot()

    def stop(self) -> None:
        """Graceful stop, escalating to SIGTERM then SIGKILL.

        A worker wedged in a way SIGTERM cannot reach (e.g. SIGSTOPped)
        still gets reaped: SIGKILL acts even on stopped processes.  The
        endpoint is closed on every path, including when the sends or
        joins themselves raise.
        """
        try:
            try:
                self.endpoint.send((messages.STOP,))
            except (RingStall, EOFError, BrokenPipeError, OSError):
                pass
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5.0)
        finally:
            self.endpoint.close()

    def kill(self) -> None:
        """Reap the worker without ceremony (recovery path)."""
        try:
            self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5.0)
        finally:
            self.endpoint.close()


class _InlineShard:
    """A shard that runs in-process: same code, no IPC.

    Serves two roles: the ``workers=0`` serial reference configuration,
    and the *demotion* target -- a shard whose worker keeps dying is
    rebuilt from its journal into one of these, trading parallelism for
    completion.  Inline shards never consult the fault plan: a fault
    executed in-process would take the coordinator down with it.
    """

    def __init__(self, index: int, state: Optional[ShardState] = None) -> None:
        self.index = index
        self.state = state if state is not None else ShardState()
        #: FIFO of uncollected replies (recovery re-dispatch can queue
        #: several batches before the collect loop drains them).
        self._replies: list[tuple] = []

    def dispatch(self, ops: Sequence[Sequence[Any]], seq: Optional[int] = None) -> None:
        edits, stat_rows = self.state.apply_batch(ops)
        self._replies.append((messages.OK, edits, stat_rows))

    def collect(self, deadline: Optional[float] = None) -> tuple:
        assert self._replies
        return self._replies.pop(0)

    def stop(self) -> None:
        self._replies = []


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
    """A :class:`~repro.ops5.matcher.Matcher` over a shard process pool.

    Parameters
    ----------
    workers:
        Number of shard processes.  ``0`` runs a single inline shard in
        this process (no ``multiprocessing`` at all) -- the degenerate
        serial configuration with identical semantics.  ``None`` picks
        :func:`default_worker_count`.
    recorder:
        Optional :class:`~repro.obs.Recorder`.  When enabled, every
        flush barrier records a coordinator span (lane 0) and one
        ``shard-batch`` span per dispatched shard on lane ``1 + shard``
        -- coordinator-observed wall-clock from dispatch to collection,
        with queue depths (ops per batch) and edit counts as args.
        Failures add ``shard-failure`` instants and ``shard-recovery``
        spans on the failed shard's lane.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`.  Worker processes
        consult it before serving each batch, keyed by the batch's
        sequence number, making crashes/hangs/slowdowns land at exact,
        reproducible points.  Inline shards (``workers=0`` and demoted
        shards) never consult it.
    supervisor:
        Optional :class:`~repro.parallel.supervisor.SupervisorConfig`
        overriding collect deadlines, checkpoint cadence, and the
        demotion threshold.
    transport:
        ``"pipe"`` (pickled tuples over ``multiprocessing.Pipe``),
        ``"ring"`` (struct-packed frames over shared-memory SPSC rings,
        symbols interned -- the PSM-style cheap scheduler), ``"local"``
        (shards as threads sharing this address space, each executing
        the *compiled kernel* under a work-stealing scheduler -- no
        serialisation at all, see :mod:`repro.parallel.local`), or
        ``"auto"`` (ring where shared memory works, else pipe).  The
        merged results are bit-identical across transports; only the
        dispatch cost changes (``benchmarks/bench_transport.py``).
    dispatch:
        Optional :class:`DispatchConfig` tuning eager batched dispatch
        (dispatching a shard's queue before the cycle barrier once it
        is deep enough, so workers overlap with coordinator routing).

    Use as a context manager (or call :meth:`close`) so the worker
    processes are reaped deterministically; they are daemonic, so an
    unclosed matcher still cannot outlive the interpreter.
    """

    def __init__(
        self,
        workers: int | None = None,
        recorder=None,
        fault_plan: Optional[FaultPlan] = None,
        supervisor: Optional[SupervisorConfig] = None,
        transport: str = "auto",
        dispatch: Optional[DispatchConfig] = None,
    ) -> None:
        # Matcher.__init__ is deliberately not called: `conflict_set` and
        # `stats` are flush-on-read properties here, not attributes.
        if workers is None:
            workers = default_worker_count()
        if workers < 0:
            raise Ops5Error("workers must be >= 0")
        if transport not in TRANSPORTS:
            raise Ops5Error(
                f"unknown transport {transport!r}; expected one of "
                + ", ".join(TRANSPORTS)
            )
        self.workers = workers
        self.transport = transport
        self.dispatch_config = dispatch if dispatch is not None else DispatchConfig()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.fault_plan = fault_plan
        self._shard_count = max(1, workers)
        self._supervisor = ShardSupervisor(
            self._shard_count, supervisor if supervisor is not None else SupervisorConfig()
        )
        self._conflict_set = ConflictSet()
        self._stats = MatchStats()
        self._queue = WorkQueue(self._shard_count)
        self._shards: list[_ProcessShard | _InlineShard | _LocalShard] | None = None
        self._ctx = None
        #: Work-stealing thread scheduler (local transport only).
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
        #: Resolved transport kind ("ring"/"pipe"), set at pool start;
        #: stays None for workers=0 (everything inline, nothing on a wire).
        self._transport_kind: Optional[str] = None
        #: Dispatched-but-uncollected batches, FIFO per shard.
        self._inflight: list[list[_InflightBatch]] = [
            [] for _ in range(self._shard_count)
        ]
        #: EWMA of WME+production ops per flush epoch, per shard (drives
        #: the adaptive eager threshold).
        self._ewma: list[float] = [
            float(2 * (self.dispatch_config.eager_ops or 64))
        ] * self._shard_count
        self._epoch_ops: list[int] = [0] * self._shard_count
        self._dispatches = 0
        self._eager_dispatches = 0
        self._latency_seconds = 0.0
        self._latency_count = 0
        #: Wire stats of endpoints that no longer exist (killed,
        #: stopped, demoted) -- folded into transport_summary().
        self._retired_stats = TransportStats()
        #: Epoch-scoped WME op byte cache shared by every ring endpoint
        #: (fanout encodes each op once); cleared at each flush boundary.
        self._op_cache: dict[int, bytes] = {}

    # -- pool lifecycle ------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._shards is not None

    def _ensure_started(self) -> None:
        if self._shards is not None:
            return
        if self._closed:
            raise Ops5Error("this ParallelMatcher has been closed")
        if self.workers == 0:
            self._shards = [_InlineShard(0)]
        else:
            try:
                self._transport_kind = resolve_transport(self.transport)
            except ValueError as error:
                raise Ops5Error(str(error)) from None
            if self._transport_kind == "local":
                # Thread shards in this address space: no context, no
                # endpoints -- one shared work-stealing scheduler.
                self._scheduler = LocalScheduler(self._shard_count)
                self._shards = [
                    self._new_shard(i) for i in range(self._shard_count)
                ]
            else:
                self._ctx = _context()
                self._shards = [
                    self._new_shard(i) for i in range(self._shard_count)
                ]
        for partition in assign_productions(self._unpartitioned, self._shard_count):
            for production in partition.productions:
                self._place(production, partition.index)
        self._unpartitioned = []

    def _new_shard(self, index: int) -> "_ProcessShard | _LocalShard":
        """A fresh shard of whatever kind the resolved transport implies."""
        if self._transport_kind == "local":
            return _LocalShard(index, self._scheduler, self.fault_plan)
        return _ProcessShard(
            self._ctx,
            index,
            self.fault_plan,
            transport_kind=self._transport_kind or "pipe",
            send_timeout=self._supervisor.config.collect_deadline,
            op_cache=self._op_cache,
        )

    def _encode_wme(self, wme: WME) -> tuple:
        """The WME-insert op for the resolved transport.

        Local shards share this address space, so the op carries the
        live object -- zero-copy dispatch; process shards get the
        picklable ``(+w, cls, attrs, timetag)`` form.
        """
        if self._transport_kind == "local":
            return (messages.ADD_WME_REF, wme)
        return messages.encode_wme(wme)

    def _absorb_shard_stats(self, shard) -> None:
        """Fold a doomed endpoint's wire stats into the retired rollup."""
        if isinstance(shard, _ProcessShard):
            self._retired_stats.absorb(shard.transport_stats())

    def close(self) -> None:
        """Stop the worker pool.  Further matching raises; stats and the
        last flushed conflict set stay readable."""
        if self._shards is not None:
            for shard in self._shards:
                self._absorb_shard_stats(shard)
                shard.stop()
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
                        shard, self._encode_wme(wme), change=_BACKFILL
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
            self._queue.push(shard, self._encode_wme(wme), change=change)
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

    def _eager_threshold(self, shard: int) -> int:
        config = self.dispatch_config
        if not config.adaptive:
            return config.eager_ops  # type: ignore[return-value]
        return min(config.max_ops, max(config.min_ops, int(self._ewma[shard] / 2)))

    def _maybe_eager(self, shards: Sequence[int]) -> None:
        """Dispatch any deep-enough pending batch before the barrier.

        Only for process shards: the point is overlapping worker match
        time with coordinator routing, which an inline shard (same
        process, synchronous apply) cannot do.
        """
        if self.dispatch_config.eager_ops is None or self.workers == 0:
            return
        for i in shards:
            if len(self._queue.pending[i]) >= self._eager_threshold(i):
                self._dispatch_shard(i, eager=True)

    def _dispatch_shard(self, i: int, eager: bool = False) -> None:
        """Hand shard *i* its pending batch and add it to the in-flight
        window.  The record is appended *before* the send so a dispatch-
        time failure finds the batch in the window and re-dispatches it
        with everything else."""
        ops, change_map = self._queue.take_shard(i)
        if not ops:
            return
        rec = self.recorder
        seq = self._supervisor.next_seq(i)
        record = _InflightBatch(
            ops=ops,
            change_map=change_map,
            seq=seq,
            sent_at=rec.now() if rec.enabled else 0,
            start=time.perf_counter(),
            eager=eager,
        )
        self._inflight[i].append(record)
        self._epoch_ops[i] += len(ops)
        self._dispatches += 1
        if eager:
            self._eager_dispatches += 1
        try:
            self._shards[i].dispatch(ops, seq)
        except ShardFailure as failure:
            self._recover(failure, seq=seq)

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
        every in-flight batch FIFO per shard.  Shard failures (crash,
        hang) are recovered *inside* the flush -- the barrier completes
        with a bit-identical merged result, just later.  Engine errors
        reported by a worker (a bad op) restore the worker from the
        journal so the pool survives, then raise after every other
        shard's reply has been drained, so no stale reply can
        desynchronise the next flush.
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

        merged = [
            ChangeRecord(kind=kind, wme_class=cls) for kind, cls in changes
        ]
        errors: list[RuntimeError] = []
        active = [i for i in range(self._shard_count) if self._inflight[i]]
        total_ops = 0
        for i in active:
            total_ops += self._epoch_ops[i]
            error = self._collect_inflight(i, merged)
            if error is not None:
                errors.append(error)
        for record in merged:
            self._stats.record(record)

        for i in range(self._shard_count):
            if self._epoch_ops[i]:
                self._ewma[i] = 0.8 * self._ewma[i] + 0.2 * self._epoch_ops[i]
                self._epoch_ops[i] = 0

        for timetag in self._pending_removals:
            self._wmes.pop(timetag, None)
        self._pending_removals = []

        self._maybe_checkpoint(active)
        for shard in self._shards:
            if isinstance(shard, _ProcessShard):
                shard.endpoint.end_epoch()
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

        On an engine-error reply the remaining in-flight replies are
        worthless -- the worker reset itself to a *fresh* state after
        the error, so later batches ran against the wrong state -- they
        are drained and discarded, the worker is restored from the
        journal, and the error is returned for the flush to raise.
        """
        config = self._supervisor.config
        sup = self._supervisor
        rec = self.recorder
        records = self._inflight[i]
        while records:
            record = records[0]
            shard = self._shards[i]
            if isinstance(shard, _InlineShard):
                reply = shard.collect()
            else:
                try:
                    reply = shard.collect(config.collect_deadline)
                except ShardFailure as failure:
                    self._recover(failure, seq=record.seq)
                    continue
            if reply[0] != messages.OK:
                error = RuntimeError(
                    f"shard worker {i} failed: {reply[1]}\n{reply[2]}"
                )
                records.pop(0)
                self._drain_discard(i, len(records))
                records.clear()
                self._restore_worker(i)
                return error
            records.pop(0)
            sup.committed(i, record.ops)
            sup.reset_failures(i)
            self._latency_seconds += time.perf_counter() - record.start
            self._latency_count += 1
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
                        "ops": len(record.ops),
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
                change_record = merged[change]
                change_record.affected_productions += affected
                change_record.node_activations += activations
                change_record.comparisons += comparisons
                change_record.tokens_built += tokens
        return None

    def _drain_discard(self, i: int, count: int) -> None:
        """Consume *count* replies from shard *i* without using them
        (post-error garbage; see :meth:`_collect_inflight`)."""
        deadline = self._supervisor.config.collect_deadline
        for _ in range(count):
            shard = self._shards[i]
            try:
                if isinstance(shard, _InlineShard):
                    shard.collect()
                else:
                    shard.collect(deadline)
            except (ShardFailure, AssertionError):
                # Dead, hung, or short on replies: the follow-up restore
                # rebuilds it regardless; stop draining.
                break

    # -- recovery ---------------------------------------------------------------

    def _recover(self, failure: ShardFailure, seq: Optional[int]) -> None:
        """Replace a failed shard worker and rebuild its match state.

        Respawns a fresh process and replays checkpoint + journal into
        it (as one cached, pre-pickled restore message -- serialised
        once per journal change, however many retries this takes);
        after ``max_failures`` consecutive failures the shard is
        demoted to an inline shard instead (same rebuild, no process).
        The shard's whole in-flight window is then re-dispatched: none
        of those batches were journalled, so the rebuilt state predates
        all of them (re-sent with no sequence number: injected faults
        never refire).
        """
        i = failure.shard
        sup = self._supervisor
        rec = self.recorder
        failures = sup.record_failure(i, failure.cause)
        if rec.enabled:
            rec.instant(
                "shard-failure",
                "faults",
                tid=1 + i,
                shard=i,
                cause=failure.cause,
                detail=failure.detail,
                consecutive=failures,
            )
        started = time.perf_counter()
        recovery_start = rec.now() if rec.enabled else 0
        shard = self._shards[i]
        if isinstance(shard, _ProcessShard):
            self._absorb_shard_stats(shard)
            shard.kill()
        elif isinstance(shard, _LocalShard):
            shard.kill()
        journal_ops = sup.journal_length(i)
        used_checkpoint = sup.checkpoints[i] is not None
        local = self._transport_kind == "local"
        attempts = 0
        while True:
            attempts += 1
            if failures >= sup.config.max_failures:
                replay_started = time.perf_counter()
                checkpoint, journal = sup.recovery_payload(i)
                if local:
                    # Demote to a synchronous (schedulerless) thread
                    # shard: still the compiled kernel, no concurrency.
                    self._shards[i] = _LocalShard(
                        i, state=rebuild_local_state(checkpoint, journal)
                    )
                else:
                    state = rebuild_state(checkpoint, journal)
                    self._shards[i] = _InlineShard(i, state)
                replay_seconds = time.perf_counter() - replay_started
                for record in self._inflight[i]:
                    self._shards[i].dispatch(record.ops, None)
                action = "demoted"
                break
            if not local and self._ctx is None:  # pragma: no cover - workers=0 guard
                self._ctx = _context()
            replacement = self._new_shard(i)
            try:
                replay_started = time.perf_counter()
                if isinstance(replacement, _LocalShard):
                    replacement.restore(*sup.recovery_payload(i))
                else:
                    replacement.restore_pickled(
                        sup.restore_message_bytes(i), sup.config.recovery_deadline
                    )
                replay_seconds = time.perf_counter() - replay_started
                for record in self._inflight[i]:
                    replacement.dispatch(record.ops, None)
            except ShardFailure as again:
                # The replacement died during restore or re-dispatch;
                # count it and either try once more or fall through to
                # demotion.
                self._absorb_shard_stats(replacement)
                replacement.kill()
                failures = sup.record_failure(i, again.cause)
                continue
            self._shards[i] = replacement
            action = "respawned"
            break
        event = RecoveryEvent(
            shard=i,
            cause=failure.cause,
            action=action,
            seq=seq,
            replayed_ops=journal_ops,
            used_checkpoint=used_checkpoint,
            replay_seconds=replay_seconds,
            total_seconds=time.perf_counter() - started,
            attempts=attempts,
        )
        sup.record_recovery(event)
        if rec.enabled:
            rec.complete(
                "shard-recovery",
                "faults",
                start=recovery_start,
                duration=rec.now() - recovery_start,
                tid=1 + i,
                args=event.snapshot(),
            )

    def _restore_worker(self, i: int) -> None:
        """Put shard *i*'s journalled state back after an error reply."""
        shard = self._shards[i]
        if isinstance(shard, _LocalShard):
            shard.restore(*self._supervisor.recovery_payload(i))
            return
        if not isinstance(shard, _ProcessShard):
            return
        try:
            shard.restore_pickled(
                self._supervisor.restore_message_bytes(i),
                self._supervisor.config.recovery_deadline,
            )
        except ShardFailure as failure:
            self._recover(failure, seq=None)

    def _maybe_checkpoint(self, shards: Iterable[int]) -> None:
        """Take due checkpoints (only ever at a batch boundary, when the
        workers' edit journals are drained -- state, never output)."""
        sup = self._supervisor
        for i in shards:
            if not sup.wants_checkpoint(i):
                continue
            shard = self._shards[i]
            started = time.perf_counter()
            if isinstance(shard, _InlineShard):
                blob = shard.state.checkpoint()
            else:
                try:
                    blob = shard.checkpoint(sup.config.recovery_deadline)
                except ShardFailure as failure:
                    self._recover(failure, seq=None)
                    continue
            if blob is not None:
                sup.store_checkpoint(i, blob, time.perf_counter() - started)

    # -- bulk control ----------------------------------------------------------

    def clear(self) -> None:
        """Drop all productions and working memory (pool stays warm).

        Lets one pool serve many small programs -- the differential test
        harness loads hundreds of generated programs through a single
        matcher without re-forking workers.
        """
        # Eagerly dispatched batches are already applied worker-side and
        # owe replies; drain them (results are moot once every shard
        # resets, and so is any engine error a doomed batch reports).
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

    def transport_summary(self) -> dict:
        """JSON-ready wire accounting for the metrics ``transport``
        section: frames/bytes both directions, ring stalls, pickle
        fallbacks, intern-table size, and dispatch counts/latency."""
        totals = TransportStats()
        totals.absorb(self._retired_stats)
        if self._shards is not None:
            for shard in self._shards:
                if isinstance(shard, _ProcessShard):
                    totals.absorb(shard.transport_stats())
        mean_latency_us = (
            self._latency_seconds / self._latency_count * 1e6
            if self._latency_count
            else 0.0
        )
        config = self.dispatch_config
        return {
            "kind": self._transport_kind
            or ("inline" if self.workers == 0 else self.transport),
            "dispatches": self._dispatches,
            "eager_dispatches": self._eager_dispatches,
            "eager_ops": config.eager_ops,
            "adaptive": config.adaptive,
            "mean_dispatch_latency_us": mean_latency_us,
            "symbols": len(SYMBOLS),
            **totals.snapshot(),
        }

    def fault_events(self) -> list[RecoveryEvent]:
        """All recovery events so far, in occurrence order."""
        return list(self._supervisor.events)

    def fault_summary(self) -> dict:
        """JSON-ready rollup of failures, recoveries, and their costs."""
        return self._supervisor.summary()

    @property
    def degraded_shards(self) -> list[int]:
        """Indices of shards demoted to inline execution."""
        return [i for i, down in enumerate(self._supervisor.demoted) if down]

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
        for i, down in enumerate(self._supervisor.demoted):
            partitions[i].degraded = down
        return partitions

    def scheduler_summary(self) -> Optional[dict]:
        """The ``scheduler`` metrics section for the local backend.

        Side-effect-free by construction (mirrors :meth:`peek_stats`'s
        guarantee): reads counters only, never touches the work queue
        or the epoch barrier.  ``None`` for process/inline backends.
        """
        if self._scheduler is None:
            return None
        return self._scheduler.stats()

    def _merge_edits(self, edits: Sequence[tuple]) -> None:
        for edit in edits:
            if edit[0] == messages.INSERT_REF:
                # Zero-copy insert from a thread shard: the very object
                # the kernel built.  Same removed-production race as the
                # encoded form below, resolved via the instantiation key.
                inst = edit[1]
                if inst.production.name not in self._productions:
                    self._skipped_inserts.add(inst.key)
                    continue
                self._conflict_set.insert(inst)
            elif edit[0] == messages.INSERT:
                _, name, timetags, bindings = edit
                production = self._productions.get(name)
                if production is None:
                    # The production was removed after this WME op was
                    # queued but before the flush; the shard's "-p"
                    # retraction follows in the same edit stream, so
                    # suppress the insert and excuse its paired delete.
                    self._skipped_inserts.add((name, tuple(timetags)))
                    continue
                wmes = tuple(self._wmes[t] for t in timetags)
                self._conflict_set.insert(Instantiation(production, wmes, bindings))
            else:
                _, name, timetags = edit
                key = (name, tuple(timetags))
                if key in self._skipped_inserts:
                    self._skipped_inserts.discard(key)
                    continue
                self._conflict_set.delete_key(key)
