"""Sessions: one long-lived :class:`ProductionSystem` per client context.

A :class:`Session` is the unit of isolation in the rule server: it owns
an engine (with any registered matcher backend), a bounded request
queue served by a single worker thread that applies requests strictly
in arrival order, and its own telemetry.  The :class:`SessionManager`
creates, looks up, and tears down sessions, and rolls their telemetry
up into the server-wide view.

Ordering and determinism
------------------------
All requests for one session are submitted straight to its
single-thread executor -- that executor's FIFO is the session's only
queue -- and are executed one at a time on the session's dedicated
thread.  WME batches are applied through the engine's
:meth:`~repro.ops5.engine.ProductionSystem.apply_changes` -- which never
fires rules -- and conflict resolution happens only on explicit ``run``
requests.  A logical change stream therefore produces bit-identical
working memory and firing sequences no matter how it is chunked into
batches, which is the property the acceptance tests pin down.

Backpressure
------------
Each session's queue holds at most ``max_pending`` requests (the one
executing does not count).  A request arriving at a full queue is
rejected *immediately* (never enqueued, session state untouched) with
``error: "backpressure"`` and a ``retry_after`` hint derived from the
session's median latency and current queue depth.  Clients retry;
nothing is silently dropped.

Deadlines
---------
A request may carry ``"deadline": seconds``; if the reply is not ready
in time the *caller* gets ``error: "deadline"`` immediately.  The
request itself is not interrupted -- the worker thread cannot be
preempted mid-engine-op -- so its side effects still land in order; only
the reply is abandoned.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional

from ..faults.plan import SLOW as FAULT_SLOW
from ..faults.plan import FaultPlan
from ..obs import metrics as obs_metrics
from ..obs.recorder import NULL_RECORDER
from ..ops5 import EngineListener, Ops5Error, ProductionSystem, matcher_named
from ..ops5.parser import Program, parse_program
from ..ops5.wme import WME
from .stats import Telemetry

#: Default bound on a session's request queue.
DEFAULT_MAX_PENDING = 64

#: Ceiling on the retry hint handed to rejected clients, seconds.
MAX_RETRY_AFTER = 2.0

#: Tenant a session belongs to when the client names none.
DEFAULT_TENANT = "default"


class SessionClosed(Ops5Error):
    """The session was destroyed while the request waited."""


class Refused(Ops5Error):
    """A request refused with a typed ``error`` code; the message is the
    reply's ``detail``.  Both front doors answer it the same way."""

    code = "refused"


class QuotaExceeded(Refused):
    """The tenant is at its concurrent-session quota."""

    code = "quota"


class BadSessionName(Refused):
    """The client-chosen session name cannot name a session."""

    code = "bad_name"


def check_session_name(name) -> None:
    """Refuse a client-chosen *name* (None = mint one) that is not a
    non-empty, UTF-8-encodable string: it is sorted beside minted ids,
    hashed for placement and quoted into the journal's file names."""
    if name is None:
        return
    try:
        if isinstance(name, str) and name.encode():  # b"" for ""
            return
    except UnicodeEncodeError:
        pass  # a lone surrogate
    raise BadSessionName(f"session name {name!r} is not a non-empty UTF-8 string")


class TenantBook:
    """Per-tenant concurrent-session quotas, their rejection counters and
    the ``tenants`` section of ``stats``, for both front doors: a server
    hands in the tenants of its live sessions, the router those of the
    fleet's placements.  Tenants without a quota of their own fall back
    to *default_quota* (None = unlimited)."""

    def __init__(
        self,
        quotas: Optional[dict[str, int]] = None,
        default_quota: Optional[int] = None,
        scope: str = "",
    ) -> None:
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota
        self.scope = scope
        self.rejections: dict[str, int] = {}

    def quota(self, tenant: str) -> Optional[int]:
        return self.quotas.get(tenant, self.default_quota)

    def admit(self, tenant: str, live: list[str]) -> None:
        """Raise :class:`QuotaExceeded` (and count it) when *tenant*
        already holds its quota of the *live* sessions."""
        quota = self.quota(tenant)
        if quota is not None and live.count(tenant) >= quota:
            self.rejections[tenant] = self.rejections.get(tenant, 0) + 1
            raise QuotaExceeded(
                f"tenant {tenant!r} is at its {self.scope}quota of {quota} "
                "concurrent session(s)"
            )

    def rollup(self, live: list[str]) -> dict:
        """Per-tenant rows: live sessions, quota, admission rejections."""
        sessions = Counter(live)
        return {
            tenant: {
                "sessions": sessions[tenant],
                "quota": self.quota(tenant),
                "quota_rejections": self.rejections.get(tenant, 0),
            }
            for tenant in (*sessions, *self.rejections)
        }


# -- shared parsed programs ---------------------------------------------------
#
# Multi-tenant serving means thousands of sessions loading the *same*
# program text.  Parsing is cheap next to codegen, but per-session
# parsing also produced per-session Production objects -- which defeated
# the kernel cache's per-production fingerprint memo (keyed by object
# identity) and re-interned nothing but still re-walked every CE.
# Caching the parsed Program shares one set of immutable Production
# objects across every session of a ruleset, so a warm session create
# does no parsing and its fingerprint lookup is a pure memo hit.

_PROGRAMS: dict[str, Program] = {}
_PROGRAMS_LOCK = threading.Lock()
_PROGRAM_HITS = 0
_PROGRAM_MISSES = 0


def shared_program(source: str) -> Program:
    """The (cached) parse of *source*; Productions are shared, immutable."""
    global _PROGRAM_HITS, _PROGRAM_MISSES
    with _PROGRAMS_LOCK:
        program = _PROGRAMS.get(source)
        if program is not None:
            _PROGRAM_HITS += 1
            return program
        _PROGRAM_MISSES += 1
    program = parse_program(source)
    with _PROGRAMS_LOCK:
        return _PROGRAMS.setdefault(source, program)


def program_cache_stats() -> dict:
    """Process-wide program-cache counters (tests and metrics)."""
    with _PROGRAMS_LOCK:
        return {
            "hits": _PROGRAM_HITS,
            "misses": _PROGRAM_MISSES,
            "size": len(_PROGRAMS),
        }


def clear_program_cache() -> None:
    """Drop cached parses and counters (test isolation)."""
    global _PROGRAM_HITS, _PROGRAM_MISSES
    with _PROGRAMS_LOCK:
        _PROGRAMS.clear()
        _PROGRAM_HITS = 0
        _PROGRAM_MISSES = 0


def build_matcher(name: str, workers: Optional[int] = None, recorder=None):
    """Build a matcher backend for a session via the engine registry.

    ``workers`` is honoured for the parallel backend and rejected for
    every other one rather than silently ignored.  An enabled *recorder*
    is threaded into backends that can use it: the parallel and
    compiled matchers take it directly (``kernel:compile`` spans), Rete
    backends get a :class:`~repro.rete.RecorderListener`
    (per-activation spans).
    """
    if name == "parallel":
        return matcher_named(name, workers=workers, recorder=recorder)
    if workers is not None:
        raise Ops5Error(
            f"workers={workers} is only meaningful for matcher='parallel', "
            f"not {name!r}"
        )
    if recorder is not None and recorder.enabled and name in ("rete", "rete-indexed"):
        from ..rete import RecorderListener

        return matcher_named(name, listener=RecorderListener(recorder))
    if recorder is not None and recorder.enabled and name == "compiled":
        return matcher_named(name, recorder=recorder)
    return matcher_named(name)


def encode_wme(wme: WME) -> list:
    """JSON-ready view of one working-memory element."""
    return [wme.cls, dict(wme.attributes), wme.timetag]


class _DeltaLog(EngineListener):
    """What the engine changed since the session's last marked export.

    The engine's listener from the first ``export`` carrying ``since``
    on; a session nobody checkpoints never builds one.  Adds and removes
    are kept *net*; fired keys only grow, so a log that outgrows live
    working memory drops itself and the next marked export is full.
    """

    def __init__(self, system: ProductionSystem, mark: str) -> None:
        self.system = system
        self.mark = mark
        self.added: dict[int, WME] = {}
        self.removed: list[int] = []
        self.fired: list[tuple] = []
        self.output_from = len(system.output)

    def on_change(self, cycle: int, kind: str, wme: WME) -> None:
        if kind == "add":
            self.added[wme.timetag] = wme  # log and memory grew alike
        else:
            if self.added.pop(wme.timetag, None) is None:
                self.removed.append(wme.timetag)
            self._bound()

    def on_cycle(self, cycle: int, fired) -> None:
        self.fired.append(fired.key)
        self._bound()

    def _bound(self) -> None:
        system = self.system
        if len(self.added) + len(self.removed) + len(self.fired) > len(system.memory):
            system.listener = EngineListener()


class Session:
    """One client context: an engine plus its queue, thread, telemetry."""

    def __init__(
        self,
        session_id: str,
        program: str = "",
        matcher: str = "rete",
        workers: Optional[int] = None,
        strategy: str = "lex",
        max_pending: int = DEFAULT_MAX_PENDING,
        recorder=None,
        fault_plan: Optional[FaultPlan] = None,
        tenant: str = DEFAULT_TENANT,
        state: Optional[dict] = None,
    ) -> None:
        if max_pending < 1:
            raise Ops5Error("max_pending must be >= 1")
        self.id = session_id
        self.matcher_name = matcher
        self.strategy_name = strategy
        self.tenant = tenant
        #: Source text, kept verbatim: the migration payload re-creates
        #: the session from it on the receiving worker.
        self.program = program
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.fault_plan = fault_plan
        self.system = ProductionSystem(
            shared_program(program),
            matcher=build_matcher(matcher, workers, recorder=self.recorder),
            strategy=strategy,
            recorder=self.recorder,
        )
        if state is not None:
            # Migration restore: original timetags, refraction memory,
            # counters and halt state come back; the conflict set
            # re-derives from the WM replay (see engine.restore_state).
            self.system.restore_state(state)
        self.telemetry = Telemetry()
        self.max_pending = max_pending
        #: Executed-request ordinal stream (session-site fault addresses).
        self._request_ordinal = 0
        #: The session's one queue *and* its one thread: a single-worker
        #: executor runs submissions strictly in order.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-serve-{session_id}"
        )
        # queue_depth = accepted - abandoned - started; each counter has
        # one writer (the loop, the loop, the session thread).
        self._accepted = 0
        self._abandoned = 0
        self._started = 0
        self._closed = False

    # -- the queue (event-loop side) -------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Accepted requests not yet started (the executing one excluded)."""
        return self._accepted - self._abandoned - self._started

    def retry_after(self) -> float:
        """Backpressure retry hint: median latency x queue occupancy."""
        per_request = self.telemetry.latency.recent_p50 or 0.005
        return min(MAX_RETRY_AFTER, per_request * (self.queue_depth + 1))

    async def submit(self, request: dict) -> dict:
        """Enqueue *request* and wait for its reply.

        Returns the backpressure rejection (without enqueueing) when the
        queue is full; converts engine errors into error replies so one
        bad request never tears down the connection or the session.  A
        ``"deadline"`` field bounds the wait: expiry answers the caller
        with ``error: "deadline"`` right away, cancelling the queued
        request if it has not started (a started request still completes
        on the worker thread; only its reply is dropped).  The deadline
        reply carries ``started``, telling the caller -- and the durable
        router's journal -- whether the request executed despite the
        dropped reply.
        """
        if self._closed:
            return {"ok": False, "error": f"session {self.id!r} is closed"}
        deadline = request.get("deadline")
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or deadline <= 0
        ):
            return {"ok": False, "error": "deadline must be a positive number"}
        if self.queue_depth >= self.max_pending:
            self.telemetry.rejected += 1
            return {
                "ok": False,
                "error": "backpressure",
                "retry_after": self.retry_after(),
                "queue_depth": self.queue_depth,
            }
        self._accepted += 1
        accepted = time.perf_counter()
        work = self._executor.submit(self._execute, request, accepted)
        try:
            reply = await asyncio.wait_for(asyncio.wrap_future(work), deadline)
        except asyncio.TimeoutError:
            reply = None
        except Ops5Error as error:
            self.telemetry.errors += 1
            return {"ok": False, "error": str(error)}
        finally:
            # Leaving without a result (deadline, or the caller's task
            # was cancelled): a request still queued must never run.
            # cancel() fails iff the work is running or done, so
            # work.cancelled() below is exactly "never started".
            if work.cancel():
                self._abandoned += 1
        if reply is None:
            self.telemetry.deadline_exceeded += 1
            return {
                "ok": False,
                "error": "deadline",
                "deadline": deadline,
                "started": not work.cancelled(),
                "queue_depth": self.queue_depth,
            }
        self.telemetry.latency.record(time.perf_counter() - accepted)
        return reply

    async def drain_and_close(self) -> None:
        """Finish every queued request, then release engine resources."""
        if self._closed:
            return
        self._closed = True
        # The executor is FIFO: once this marker ran, everything accepted
        # before it has -- without blocking the loop on shutdown(wait).
        await asyncio.wrap_future(self._executor.submit(int))
        self.close_resources()

    def close_resources(self) -> None:
        """Synchronously finish queued work, then reap the worker thread."""
        self._executor.shutdown(wait=True)

    # -- request execution (worker thread) -----------------------------------

    def _execute(self, request: dict, accepted: float) -> dict:
        """Session-thread entry: stamp the start, then :meth:`perform`."""
        self._started += 1
        self.telemetry.queue_wait.record(time.perf_counter() - accepted)
        return self.perform(request)

    def perform(self, request: dict) -> dict:
        """Execute one request against the engine; returns the reply.

        Runs on the session's worker thread, one request at a time.
        """
        op = request.get("op")
        handler = self._OPS.get(op)
        if handler is None:
            raise Ops5Error(f"unknown session operation {op!r}")
        self.telemetry.requests += 1
        ordinal = self._request_ordinal
        self._request_ordinal += 1
        if self.fault_plan is not None:
            spec = self.fault_plan.session_fault(ordinal)
            if spec is not None:
                if spec.kind == FAULT_SLOW:
                    time.sleep(spec.seconds)
                else:
                    raise Ops5Error(
                        f"injected session fault at request {ordinal}"
                    )
        with self.recorder.span(
            f"request:{op}", "serve", session=self.id, queue_depth=self.queue_depth
        ):
            return handler(self, request)

    def _op_assert(self, request: dict) -> dict:
        changes = [
            ("assert", cls, attrs) for cls, attrs in request.get("wmes", ())
        ]
        result = self.system.apply_changes(changes)
        self.telemetry.wme_changes += result.total_changes
        reply = {"ok": True, "timetags": result.timetags}
        if request.get("run"):
            reply["run"] = self._run(request.get("max_cycles"))
        return reply

    def _op_retract(self, request: dict) -> dict:
        changes = [("retract", tag) for tag in request.get("timetags", ())]
        result = self.system.apply_changes(changes)
        self.telemetry.wme_changes += result.total_changes
        return {"ok": True, "removed": result.removed}

    def _op_modify(self, request: dict) -> dict:
        changes = [
            ("modify", tag, updates)
            for tag, updates in request.get("changes", ())
        ]
        result = self.system.apply_changes(changes)
        self.telemetry.wme_changes += result.total_changes
        return {"ok": True, "timetags": result.timetags, "removed": result.removed}

    def _op_apply(self, request: dict) -> dict:
        """The general form: a heterogeneous ordered change batch."""
        changes = [tuple(change) for change in request.get("changes", ())]
        result = self.system.apply_changes(changes)
        self.telemetry.wme_changes += result.total_changes
        return {"ok": True, "timetags": result.timetags, "removed": result.removed}

    def _op_run(self, request: dict) -> dict:
        return {"ok": True, **self._run(request.get("max_cycles"))}

    def _run(self, max_cycles: Optional[int]) -> dict:
        result = self.system.run(max_cycles)
        self.telemetry.firings += result.fired
        self.telemetry.wme_changes += result.total_changes
        return {
            "fired": result.fired,
            "halted": result.halted,
            "halt_reason": result.halt_reason,
            "output": list(result.output),
            "firings": [
                [cycle.production, list(cycle.timetags)]
                for cycle in result.cycles
            ],
        }

    def _op_query(self, request: dict) -> dict:
        what = request.get("what", "wm")
        if what == "wm":
            return {
                "ok": True,
                "wmes": [encode_wme(w) for w in self.system.memory.snapshot()],
            }
        if what == "conflict-set":
            members = sorted(
                (name, list(tags))
                for name, tags in self.system.conflict_set.snapshot()
            )
            return {"ok": True, "instantiations": [list(m) for m in members]}
        if what == "stats":
            return {"ok": True, "stats": self.describe()}
        raise Ops5Error(
            f"unknown query {what!r}; expected 'wm', 'conflict-set', or 'stats'"
        )

    def _op_export(self, request: dict) -> dict:
        """The migration payload: config + engine state, JSON-ready.

        Runs through the session queue like any other op, so the export
        is strictly ordered against in-flight changes -- everything the
        session acknowledged is in the blob, nothing later is.

        A checkpointing caller sends ``since``, the ``mark`` of the last
        export it persisted.  If this session's delta log started at
        that export the reply carries a ``repro.engine-delta/1`` record
        in place of the state; in every other case (first marked export,
        restored session, lost reply, dropped log) the full state.
        Either way a fresh ``mark`` comes back and the log restarts.
        """
        system = self.system
        reply = {"ok": True}
        if "since" in request:
            log = system.listener
            reply["mark"] = os.urandom(8).hex()
            system.listener = _DeltaLog(system, reply["mark"])
            if isinstance(log, _DeltaLog) and log.mark == request["since"]:
                reply["delta"] = system.export_delta(
                    log.added.values(), log.removed, log.fired, log.output_from
                )
                reply["delta"]["since"] = log.mark
                return reply
        reply["config"] = {
            "program": self.program,
            "matcher": self.matcher_name,
            "strategy": self.strategy_name,
            "max_pending": self.max_pending,
            "tenant": self.tenant,
        }
        reply["state"] = system.export_state()
        return reply

    _OPS = {
        "assert": _op_assert,
        "retract": _op_retract,
        "modify": _op_modify,
        "apply": _op_apply,
        "run": _op_run,
        "query": _op_query,
        "export": _op_export,
    }

    # -- introspection -------------------------------------------------------

    def describe(self) -> dict:
        """JSON-ready session status (one row of the ``stats`` reply).

        Side-effect-free with respect to engine state, and safe to call
        from the event loop while the worker thread mutates working
        memory: every engine read here is a point read or a
        snapshot-copy, and matcher stats flow through ``peek_stats``.
        """
        # The telemetry rows (two window sorts) are built once and
        # shared with the unified snapshot.
        serve = self.telemetry.snapshot()
        metrics = obs_metrics.snapshot(self.system, recorder=self.recorder)
        metrics["serve"] = serve
        return {
            "id": self.id,
            "tenant": self.tenant,
            "matcher": self.matcher_name,
            "strategy": self.system.strategy.name,
            "productions": len(list(self.system.matcher.productions)),
            "working_memory": len(self.system.memory),
            "cycles": self.system.cycle,
            "halted": self.system.halted,
            "queue_depth": self.queue_depth,
            "max_pending": self.max_pending,
            "metrics": metrics,
            **serve,
        }


class SessionManager:
    """Creates, resolves, and tears down the server's sessions.

    Admission control lives here: a *tenant* (client account, team,
    workload) may hold at most its quota of concurrent sessions on this
    server.  Quotas are per-worker -- the front-door router applies the
    same check fleet-wide before a create ever reaches a worker -- and a
    create over quota raises :class:`QuotaExceeded`, which the server
    answers as a ``quota`` error (not backpressure: retrying will not
    help until the tenant destroys a session).
    """

    def __init__(
        self,
        default_max_pending: int = DEFAULT_MAX_PENDING,
        recorder=None,
        fault_plan: Optional[FaultPlan] = None,
        tenant_quotas: Optional[dict[str, int]] = None,
        default_tenant_quota: Optional[int] = None,
    ) -> None:
        self.default_max_pending = default_max_pending
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.fault_plan = fault_plan
        self.tenants = TenantBook(tenant_quotas, default_tenant_quota)
        self._sessions: dict[str, Session] = {}
        self._ids = itertools.count(1)
        #: Counters of destroyed sessions, so server-wide totals survive
        #: session churn.
        self._retired = Telemetry()

    def __len__(self) -> int:
        return len(self._sessions)

    def ids(self) -> list[str]:
        return sorted(self._sessions)

    def _live_tenants(self) -> list[str]:
        return [session.tenant for session in self._sessions.values()]

    def create(
        self,
        program: str = "",
        matcher: str = "rete",
        workers: Optional[int] = None,
        strategy: str = "lex",
        max_pending: Optional[int] = None,
        name: Optional[str] = None,
        tenant: str = DEFAULT_TENANT,
        state: Optional[dict] = None,
    ) -> Session:
        check_session_name(name)
        session_id = name if name is not None else f"s{next(self._ids)}"
        if session_id in self._sessions:
            raise Ops5Error(f"session {session_id!r} already exists")
        self.tenants.admit(tenant, self._live_tenants())
        session = Session(
            session_id,
            program=program,
            matcher=matcher,
            workers=workers,
            strategy=strategy,
            max_pending=max_pending
            if max_pending is not None
            else self.default_max_pending,
            recorder=self.recorder,
            fault_plan=self.fault_plan,
            tenant=tenant,
            state=state,
        )
        self._sessions[session_id] = session
        return session

    def get(self, session_id: Any) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise Ops5Error(f"no session {session_id!r}")
        return session

    async def destroy(self, session_id: str) -> None:
        """Remove the session, finish its queued work, reap its pool."""
        session = self.get(session_id)
        del self._sessions[session_id]  # no new submissions from here on
        await session.drain_and_close()
        self._retired.absorb(session.telemetry)

    async def drain_all(self) -> None:
        """Graceful shutdown: drain and close every session.

        Re-checks the registry on every step so a concurrent
        ``destroy_session`` request cannot race it into a double free.
        """
        while self._sessions:
            await self.destroy(next(iter(self._sessions)))

    def tenant_stats(self) -> dict:
        """Per-tenant rollup: live sessions, quota, admission rejections."""
        return self.tenants.rollup(self._live_tenants())

    def stats(self) -> dict:
        """Server-wide telemetry rollup plus per-session rows."""
        total = Telemetry()
        total.absorb(self._retired)
        sessions = {}
        for session in self._sessions.values():
            total.absorb(session.telemetry)
            sessions[session.id] = session.describe()
        snapshot = total.snapshot()
        # The rollup's clock is its own construction time; report the
        # aggregate counters but not a meaningless uptime-derived rate.
        del snapshot["uptime_seconds"]
        del snapshot["wme_changes_per_second"]
        del snapshot["firings_per_second"]
        del snapshot["latency"]
        del snapshot["queue_wait"]
        return {
            "schema": obs_metrics.SCHEMA,
            "sessions": sessions,
            "tenants": self.tenant_stats(),
            "totals": snapshot,
        }
