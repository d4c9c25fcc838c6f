"""Sessions: one long-lived :class:`ProductionSystem` per client context.

A :class:`Session` is the unit of isolation in the rule server: it owns
an engine (with any registered matcher backend), a bounded FIFO of
requests waiting their turn, and its own telemetry.  The
:class:`SessionManager` creates, looks up, and tears down sessions, and
rolls their telemetry up into the server-wide view.

Ordering.  A session executes its requests one at a time, in arrival
order, on the worker's event loop -- there is no session thread.  A
request to an idle session starts at once, in the coroutine that
dispatched it; one to a busy session waits its turn.  Each op is written
once, as a generator of *slices* (a ``run`` yields every :data:`SLICE`
cycles, a change batch every :data:`SLICE` changes): :meth:`Session.submit`
lets the loop serve other work at each boundary, :meth:`Session.perform`
runs the slices back to back.  Batches go through the engine's
:meth:`~repro.ops5.engine.ProductionSystem.apply_changes`, which never
fires rules, so a change stream yields bit-identical working memory and
firings however it is cut into batches, slices or ``run`` requests.

Backpressure.  At most ``max_pending`` requests wait (the executing one
does not count); one more is rejected at once, untouched, with ``error:
"backpressure"`` and a ``retry_after`` hint from the median latency and
the queue depth.  Clients retry; nothing is silently dropped.

Deadlines.  A request may carry ``"deadline": seconds``.  One that
expires while waiting its turn never runs (``error: "deadline"``,
``started: false``).  One that expires while executing answers
``started: true`` at its next slice boundary; its remaining slices still
finish, in order, before the next request starts.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
import weakref
from collections import Counter, deque
from typing import Any, Optional

from ..obs import metrics as obs_metrics
from ..obs.recorder import NULL_RECORDER
from ..ops5 import BatchResult, EngineListener, ExecutionError, Ops5Error
from ..ops5 import DEFAULT_MATCHER, ProductionSystem, matcher_named
from ..ops5.parser import Program, parse_program
from ..ops5.wme import WME
from .durability import encode_record
from .stats import Telemetry

#: Default bound on a session's request queue.
DEFAULT_MAX_PENDING = 64

#: Ceiling on the retry hint handed to rejected clients, seconds.
MAX_RETRY_AFTER = 2.0

#: Tenant a session belongs to when the client names none.
DEFAULT_TENANT = "default"

#: Cycles of a ``run``, or changes of a batch, between two yields to the
#: event loop (K; its sweep is in EXPERIMENTS.md, "One thread per worker").
SLICE = 64


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


class RemovedOption(Refused):
    """The request names a session option this server no longer has."""

    code = "removed_option"


#: Options a ``create_session`` request or an imported config may no
#: longer name.  ``matcher="parallel"`` runs its registry default of
#: partitions everywhere, so a session keeps its shape across migrate
#: and restore; a config journalled with either option is refused, not
#: silently reshaped.
REMOVED_OPTIONS = ("workers", "transport")


def check_session_options(config: dict) -> None:
    """Refuse a session config naming a :data:`REMOVED_OPTIONS` key."""
    named = [key for key in REMOVED_OPTIONS if config.get(key) is not None]
    if named:
        raise RemovedOption(
            f"session option {', '.join(named)} was removed: the process transports "
            "are gone and matcher='parallel' always runs its default partitions"
        )


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

    def __init__(self, quotas: Optional[dict[str, int]] = None,
                 default_quota: Optional[int] = None, scope: str = "") -> None:
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
# Thousands of sessions load the *same* program text.  One parse per
# text shares one set of immutable Production objects across them, so a
# warm create does no parsing and reads each production's kept
# structural fingerprint.  The table is weak: a parse lives as long as
# a session holds it, so a tenant sending ever-new programs does not
# grow the process.

_PROGRAMS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_PROGRAMS_LOCK = threading.Lock()  # server threads of one process share it
_PROGRAM_COUNTS: Counter = Counter()


def shared_program(source: str) -> Program:
    """The (cached) parse of *source*; Productions are shared, immutable."""
    program = _PROGRAMS.get(source)
    with _PROGRAMS_LOCK:
        _PROGRAM_COUNTS["misses" if program is None else "hits"] += 1
    if program is None:
        program = _PROGRAMS.setdefault(source, parse_program(source))
    return program


def shared_program_stats() -> dict:
    """Process-wide program-cache counters (tests and metrics); ``size``
    counts the parses some live session holds."""
    hits, misses = _PROGRAM_COUNTS["hits"], _PROGRAM_COUNTS["misses"]
    return {"hits": hits, "misses": misses, "size": len(_PROGRAMS)}


def clear_program_cache() -> None:
    """Drop cached parses and counters (test isolation)."""
    _PROGRAMS.clear()
    _PROGRAM_COUNTS.clear()


def encode_wme(wme: WME) -> list:
    """JSON-ready view of one working-memory element."""
    return [wme.cls, wme.as_dict(), wme.timetag]


def _max_cycles(request: dict) -> Optional[int]:
    """The request's ``max_cycles``: None or an ``int`` >= 0, else refused
    before the op changes anything."""
    value = request.get("max_cycles")
    if value is None or (type(value) is int and value >= 0):
        return value
    raise ExecutionError(f"max_cycles must be a non-negative integer, got {value!r}")


class _DeltaLog(EngineListener):
    """What the engine changed since the session's last marked export.

    The engine's listener from the first ``export`` carrying ``since``
    on; a session nobody checkpoints never builds one.  Adds and removes
    are kept *net*; fired keys only grow, so a log that outgrows live
    working memory drops itself and the next marked export is full.
    ``dead`` counts what the chain holds that a fresh export would not
    (2 per removed timetag, 1 per fired key and per record); a delta that
    would bring it to live working memory is a full export instead.
    """

    def __init__(self, system: ProductionSystem, mark: str, dead: int = 0) -> None:
        self.system = system
        self.mark = mark
        self.dead = dead
        self.added: dict[int, WME] = {}
        self.removed: list[int] = []
        self.fired: list[tuple] = []
        #: Entries across ``added``, ``removed`` and ``fired``.
        self.entries = 0
        self.output_from = len(system.output)

    def on_change(self, cycle: int, kind: str, wme: WME) -> None:
        if kind == "add":
            self.added[wme.timetag] = wme  # log and memory grew alike
            self.entries += 1
        else:
            if self.added.pop(wme.timetag, None) is None:
                self.removed.append(wme.timetag)
                self.entries += 1
            else:
                self.entries -= 1
            self._bound()

    def on_cycle(self, cycle: int, fired) -> None:
        self.fired.append(fired.key)
        self.entries += 1
        self._bound()

    def _bound(self) -> None:
        system = self.system
        if self.entries > len(system.memory):
            system.listener = None

    def encode(self, delta: dict) -> Optional[str]:
        """The record's text, or None once the chain is due a rebase."""
        self.dead += 2 * len(delta["removed"]) + len(delta["fired"]) + 1
        if self.dead < len(self.system.memory):
            return encode_record({**delta, "since": self.mark})


class Session:
    """One client context: an engine plus its FIFO and telemetry."""

    def __init__(
        self,
        session_id: str,
        program: str = "",
        matcher: str = DEFAULT_MATCHER,
        strategy: str = "lex",
        max_pending: int = DEFAULT_MAX_PENDING,
        recorder=None,
        tenant: str = DEFAULT_TENANT,
        state: Optional[dict] = None,
    ) -> None:
        if max_pending < 1:
            raise Ops5Error("max_pending must be >= 1")
        self.id = session_id
        self.matcher_name = matcher
        self.strategy_name = strategy
        self.tenant = tenant
        #: Source text, verbatim: a migration re-creates the session from it.
        self.program = program
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: The shared parse: held here, it stays in :func:`shared_program`'s table.
        self.parsed = shared_program(program)
        self.system = ProductionSystem(
            self.parsed, matcher_named(matcher, self.recorder), strategy,
            recorder=self.recorder,
        )
        if state is not None:
            # Migration restore: original timetags, refraction memory,
            # counters and halt state come back; the conflict set
            # re-derives from the WM replay (see engine.restore_state).
            self.system.restore_state(state)
        self.telemetry = Telemetry()
        self.max_pending = max_pending
        #: Requests waiting their turn, oldest first: each future is set
        #: True when the op ahead hands the session on.
        self._waiters: deque[asyncio.Future] = deque()
        #: A request owns the session: it executes, or was just handed it.
        self._busy = False
        #: The rest of an op that outlived its caller (a strong reference).
        self._rest: Optional[asyncio.Task] = None
        self._closed = False

    # -- the queue (event loop) ------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests waiting their turn (the executing one excluded)."""
        return len(self._waiters)

    def retry_after(self) -> float:
        """Backpressure retry hint: median latency x queue occupancy."""
        per_request = self.telemetry.latency.recent_p50 or 0.005
        return min(MAX_RETRY_AFTER, per_request * (self.queue_depth + 1))

    async def submit(self, request: dict) -> dict:
        """Execute *request* in its FIFO turn, on this coroutine; its reply.

        Answers the backpressure rejection when the queue is full, and an
        engine error as an error reply, so one bad request never tears
        down the connection or the session.  An idle session starts the
        op at once: no task, no future, no thread hop.
        """
        if self._closed:
            return {"ok": False, "error": f"session {self.id!r} is closed"}
        deadline = request.get("deadline")
        if deadline is not None and (not isinstance(deadline, (int, float)) or deadline <= 0):
            return {"ok": False, "error": "deadline must be a positive number"}
        if len(self._waiters) >= self.max_pending:
            self.telemetry.rejected += 1
            return {
                "ok": False,
                "error": "backpressure",
                "retry_after": self.retry_after(),
                "queue_depth": self.queue_depth,
            }
        accepted = time.perf_counter()
        expiry = None if deadline is None else asyncio.get_running_loop().time() + deadline
        if not self._busy:
            self._busy = True
        elif not await self._turn(expiry):
            return self._late(deadline, started=False)
        self.telemetry.queue_wait.record(time.perf_counter() - accepted)
        reply = await self._execute(self._steps(request), expiry)
        if reply is None:
            return self._late(deadline, started=True)
        if reply["ok"]:
            self.telemetry.latency.record(time.perf_counter() - accepted)
        return reply

    def _late(self, deadline: float, started: bool) -> dict:
        self.telemetry.deadline_exceeded += 1
        return {"ok": False, "error": "deadline", "deadline": deadline,
                "started": started, "queue_depth": self.queue_depth}

    async def _turn(self, expiry: Optional[float]) -> bool:
        """Wait in the FIFO until the session is handed to this request
        (True), or until the loop time *expiry* (False: it never runs)."""
        loop = asyncio.get_running_loop()
        turn = loop.create_future()
        self._waiters.append(turn)
        timer = None if expiry is None else loop.call_at(expiry, self._expire, turn)
        try:
            return await turn
        except asyncio.CancelledError:
            if not turn.cancelled() and turn.result():
                self._release()  # handed the session as its caller left
            elif turn in self._waiters:
                self._waiters.remove(turn)
            raise
        finally:
            if timer is not None:
                timer.cancel()

    def _expire(self, turn: asyncio.Future) -> None:
        if not turn.done():
            self._waiters.remove(turn)
            turn.set_result(False)

    def _release(self) -> None:
        """The owning op ended: hand the session to the oldest waiter."""
        while self._waiters:
            turn = self._waiters.popleft()
            if not turn.done():
                turn.set_result(True)
                return
        self._busy = False

    async def _execute(self, steps, expiry=None, pause=None) -> Optional[dict]:
        """Drive *steps*, an op's slices, to its reply, awaiting
        :meth:`_pause` at each boundary (first *pause*, when resuming);
        the op owns the session until it ends.  At a boundary an op with
        an *expiry* (loop time) moves its rest to a task, answering None
        if that is still running at the expiry; a cancelled caller moves
        it there too, so the op always finishes before the next starts.
        """
        owner = True
        try:
            while True:
                if pause is not None:
                    if expiry is not None:
                        owner = False
                        self._rest = rest = asyncio.ensure_future(
                            self._execute(steps, None, pause)
                        )
                        left = expiry - asyncio.get_running_loop().time()
                        await asyncio.wait((rest,), timeout=left)
                        return rest.result() if rest.done() else None
                    try:
                        await self._pause(pause)
                    except asyncio.CancelledError:
                        owner = False
                        self._rest = asyncio.ensure_future(self._execute(steps))
                        raise
                pause = next(steps)
        except StopIteration as done:
            return done.value
        except Ops5Error as error:
            self.telemetry.errors += 1
            return {"ok": False, "error": str(error)}
        finally:
            if owner:
                self._release()

    async def _pause(self, seconds: float) -> None:
        """The slice boundary: the loop serves other work for *seconds*
        (0, one turn of the loop, is all an op yields)."""
        await asyncio.sleep(seconds)

    async def drain_and_close(self) -> None:
        """Finish every queued request, then close the session."""
        if self._closed:
            return
        self._closed = True
        if self._busy:
            await self._turn(None)  # FIFO: everything accepted earlier ran
            self._release()

    def close_resources(self) -> None:
        """Refuse further requests (a session holds no thread or pool)."""
        self._closed = True

    # -- one op, two drivers ----------------------------------------------------

    def perform(self, request: dict) -> dict:
        """Execute one request to completion on the calling thread: the
        slices :meth:`submit` runs, back to back, with no queue.  Engine
        errors raise."""
        steps = self._steps(request)
        try:
            while True:
                next(steps)
        except StopIteration as done:
            return done.value

    def _steps(self, request: dict):
        """*request*'s op as slices: yields the seconds to pause at each
        boundary (always 0: just let the loop run), returns the reply,
        and raises :class:`Ops5Error` for a refused request."""
        op = request.get("op")
        handler = self._OPS.get(op)
        if handler is None:
            raise Ops5Error(f"unknown session operation {op!r}")
        self.telemetry.requests += 1
        with self.recorder.span(
            f"request:{op}", "serve", session=self.id, queue_depth=self.queue_depth
        ):
            reply = handler(self, request)
            if not isinstance(reply, dict):  # a sliced op's generator
                reply = yield from reply
            return reply

    def _op_assert(self, request: dict):
        max_cycles = _max_cycles(request) if request.get("run") else None
        changes = [("assert", cls, attrs) for cls, attrs in request.get("wmes", ())]
        result = yield from self._apply(changes)
        reply = {"ok": True, "timetags": result.timetags}
        if request.get("run"):
            reply["run"] = yield from self._run(max_cycles)
        return reply

    def _op_retract(self, request: dict):
        changes = [("retract", tag) for tag in request.get("timetags", ())]
        result = yield from self._apply(changes)
        return {"ok": True, "removed": result.removed}

    def _op_modify(self, request: dict):
        changes = [("modify", tag, updates) for tag, updates in request.get("changes", ())]
        result = yield from self._apply(changes)
        return {"ok": True, "timetags": result.timetags, "removed": result.removed}

    def _op_apply(self, request: dict):
        """The general form: a heterogeneous ordered change batch."""
        changes = [tuple(change) for change in request.get("changes", ())]
        result = yield from self._apply(changes)
        return {"ok": True, "timetags": result.timetags, "removed": result.removed}

    def _op_run(self, request: dict):
        return {"ok": True, **(yield from self._run(_max_cycles(request)))}

    def _apply(self, changes: list):
        """Apply *changes* :data:`SLICE` at a time; the batch's result.
        A longer batch is checked whole before its first slice lands."""
        system = self.system
        if len(changes) <= SLICE:
            result = system.apply_changes(changes)
        else:
            system.check_changes(changes)
            result = BatchResult()
            for start in range(0, len(changes), SLICE):
                if start:
                    yield 0
                part = system.apply_changes(changes[start : start + SLICE])
                result.added += part.added
                result.removed += part.removed
        self.telemetry.wme_changes += result.total_changes
        return result

    def _run(self, max_cycles: Optional[int]):
        """Run to a halt or *max_cycles* firings, :data:`SLICE` cycles at
        a time; the ``run`` reply's fields."""
        system = self.system
        result = system.run(SLICE if max_cycles is None else min(SLICE, max_cycles))
        cycles = result.cycles
        while not (result.halted or len(cycles) == max_cycles):
            yield 0
            left = SLICE if max_cycles is None else max_cycles - len(cycles)
            result = system.run(min(SLICE, left))
            cycles += result.cycles
        self.telemetry.firings += len(cycles)
        self.telemetry.wme_changes += sum(cycle.changes for cycle in cycles)
        return {
            "fired": len(cycles),
            "halted": result.halted,
            "halt_reason": result.halt_reason,
            "output": result.output,
            "firings": [[cycle.production, list(cycle.timetags)] for cycle in cycles],
        }

    def _op_query(self, request: dict) -> dict:
        what = request.get("what", "wm")
        if what == "wm":
            return {
                "ok": True,
                "wmes": [encode_wme(w) for w in self.system.memory.snapshot()],
            }
        if what == "conflict-set":
            members = sorted((n, list(tags)) for n, tags in self.system.conflict_set.snapshot())
            return {"ok": True, "instantiations": [list(m) for m in members]}
        if what == "stats":
            return {"ok": True, "stats": self.describe()}
        raise Ops5Error(
            f"unknown query {what!r}; expected 'wm', 'conflict-set', or 'stats'"
        )

    def _op_export(self, request: dict) -> dict:
        """The migration payload: config + engine state, JSON-ready,
        ordered through the session's FIFO like any op (everything
        acknowledged is in it, nothing later).

        A checkpointing caller sends ``since``, the ``mark`` of the last
        export it persisted, and gets text the store writes as it is: a
        ``repro.engine-delta/1`` record as ``delta_json`` (and ``since``)
        if this session's delta log started at that export, otherwise
        (first marked export, restored session, lost reply, dropped log,
        a rebase) ``state_json``.  Either way a fresh ``mark`` restarts the log.
        """
        system = self.system
        reply = {"ok": True}
        if "since" in request:
            log, text = system.listener, None
            reply["mark"] = os.urandom(8).hex()
            if isinstance(log, _DeltaLog) and log.mark == request["since"]:
                text = system.export_delta(
                    log.added.values(), log.removed, log.fired, log.output_from, log.encode
                )
            system.listener = _DeltaLog(system, reply["mark"], log.dead if text else 0)
            if text is not None:
                return {**reply, "since": log.mark, "delta_json": text}
        reply["config"] = {
            "program": self.program,
            "matcher": self.matcher_name,
            "strategy": self.strategy_name,
            "max_pending": self.max_pending,
            "tenant": self.tenant,
        }
        if "since" in request:
            reply["state_json"] = system.export_state(encode_record)
        else:
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

        Side-effect-free (matcher stats flow through ``peek_stats``).
        On the loop it sees a session between two slices, never inside
        one.  The telemetry rows (two window sorts) are built once.
        """
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

    Admission control lives here: a *tenant* may hold at most its quota
    of concurrent sessions on this server (the router applies the same
    check fleet-wide first).  A create over quota raises
    :class:`QuotaExceeded`, answered as a ``quota`` error -- retrying
    cannot help until the tenant destroys a session.
    """

    def __init__(
        self,
        default_max_pending: int = DEFAULT_MAX_PENDING,
        recorder=None,
        tenant_quotas: Optional[dict[str, int]] = None,
        default_tenant_quota: Optional[int] = None,
    ) -> None:
        self.default_max_pending = default_max_pending
        self.recorder = recorder if recorder is not None else NULL_RECORDER
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
        matcher: str = DEFAULT_MATCHER,
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
        if max_pending is None:
            max_pending = self.default_max_pending
        session = self._sessions[session_id] = Session(
            session_id, program, matcher, strategy, max_pending,
            self.recorder, tenant, state,
        )
        return session

    def get(self, session_id: Any) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise Ops5Error(f"no session {session_id!r}")
        return session

    async def destroy(self, session_id: str) -> None:
        """Remove the session and finish its queued work."""
        session = self.get(session_id)
        del self._sessions[session_id]  # no new submissions from here on
        await session.drain_and_close()
        self._retired.absorb(session.telemetry)

    async def drain_all(self) -> None:
        """Graceful shutdown: drain and close every session, re-reading
        the registry each step (a concurrent destroy cannot double-free)."""
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
        # The rollup's clock is its own construction time: counters only.
        return {
            "schema": obs_metrics.SCHEMA,
            "sessions": sessions,
            "tenants": self.tenant_stats(),
            "totals": total.counters(),
        }
