"""The front-door router: one address, N rule-server workers behind it.

Scaling the serve layer *out*: a :class:`RuleRouter` speaks the same
length-prefixed JSON protocol as a
:class:`~repro.serve.server.RuleServer`, so existing clients (the
blocking :class:`RuleClient`, the benchmark's clients) point at it
unchanged -- but behind it every session lives on one of N workers: rule
servers in their own processes, or (:class:`RouterFleet`, the test and
benchmark harness) coroutines of the router's own event loop, reached
through the same sockets either way.  A session op is decoded only to
be routed: its payload, and the worker's reply payload, are relayed
unchanged; a reply is decoded only to look inside it.

Placement and naming
--------------------
The router owns session naming: client-supplied names are honoured
(rejected on collision), otherwise the router mints globally-unique
``r<n>`` ids.  A new session lands on the worker chosen by a stable
hash of its id over the *healthy* workers, so placement is deterministic
for a given fleet shape and needs no coordination.  The placement map
(session -> worker) is the router's only authoritative state; everything
else re-derives from worker stats.

Admission control
-----------------
Per-tenant quotas are enforced fleet-wide at the router (the
authoritative count lives in the placement map) *before* a create is
forwarded; workers enforce their own local quotas independently.  A
rejected create answers ``error: "quota"`` -- not backpressure, because
retrying cannot help until the tenant frees a session.  An admitted
create reserves its placement (frozen, so nothing is forwarded to it)
before the worker is asked, so concurrent creates cannot overshoot a
quota or share a name.

Migration
---------
``migrate_session`` moves a live session between workers using the
engine's checkpoint machinery: under the session's lock (so it waits
for any journaled op still in flight) the router marks the session
*migrating* (requests for it are answered with a backpressure rejection
carrying a small ``retry_after``, so well-behaved clients retry
transparently through :meth:`RuleClient.call`), drives the session's
``export`` op on the source (ordered through its queue, so everything
acknowledged is in the blob), installs the blob on the target with the
same step recovery uses, flips the placement, and destroys the source
copy.  The continuation is bit-identical.

Failed workers
--------------
One thing happens when a worker fails, whoever noticed (a forwarded op,
a server-level call, the heartbeat): :meth:`RuleRouter._recover_worker`.
The worker gets no new sessions, its sessions are frozen, the process is
replaced when a ``supervisor`` (e.g. a
:class:`~repro.serve.fleet.ProcessFleet`) is attached, and each session
is rebuilt from what the store holds for it -- on the replacement, else
on the surviving workers.  A router without a store holds nothing: it
answers ``worker_unreachable`` and, once :data:`FAILURE_THRESHOLD` calls
in a row have failed (one timeout is a suspicion, not a verdict), reports
the worker's sessions in ``lost_sessions``.  It never tries to migrate a
session off a suspect worker.

Durability
----------
With a :class:`~repro.serve.durability.DurabilityStore` attached, the
lost-session failure mode disappears: every accepted mutating op is
appended to the session's write-ahead journal, as the client sent it,
*before* the reply leaves the router, periodic checkpoints persist the
engine's ``export_state`` blob, and a dead worker's sessions come back
from checkpoint + journal tail, bit-identical to a no-fault run.
``recovered_sessions`` replaces ``lost_sessions`` in the books.  A
per-session lock serialises durable forwarding, so journal order is
execution order and a checkpoint taken under the lock covers the whole
journal: the store makes it durable, then empties the journal.  The
migrating-check, sequence-number bump, and journal append happen in one
synchronous block on the event loop, so every append strictly precedes
any recovery that could replay it.  Ops the worker definitively did not
execute -- backpressure rejections, and deadline expiries whose reply
reports the op never started -- are tombstoned so replay applies exactly
what ran.  The op a worker died on is answered from its placement, which
keeps the reply the restore's replay ended on -- the journal is the
authority, and handing the caller an error would invite a retry that
double-applies.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import zlib
from collections import deque
from typing import Optional, Sequence

from ..ops5 import Ops5Error
from .loop import Endpoint, LoopThread
from .protocol import ProtocolError, decode_payload, encode_payload, read_payload, write_payload
from .server import RuleServer
from .session import DEFAULT_TENANT, TenantBook, check_session_name
from .stats import live_threads

__all__ = ["RouterFleet", "RouterThread", "RuleRouter", "WorkerLink"]

#: Consecutive call failures that turn a suspicion into a verdict.
FAILURE_THRESHOLD = 3

#: Retry hint handed to clients whose session is mid-migration (also
#: used while a durable session is mid-recovery).
MIGRATING_RETRY_AFTER = 0.05

#: Checkpoint a durable session every N journaled ops (0 = never).
DEFAULT_CHECKPOINT_EVERY = 16

#: Session ops recorded in the write-ahead journal: everything that
#: mutates engine state.  Reads (query, export) are forwarded under the
#: same per-session lock but never replayed.
_JOURNALED_OPS = frozenset({"assert", "retract", "modify", "apply", "run"})


class WorkerLink:
    """The router's connection pool to one worker.

    The wire protocol is strict request/reply per connection, so each
    in-flight call owns one connection for its whole duration; a call
    that finds none idle opens another (in-flight calls are already
    bounded by the router's own client connections), so a long ``run``
    never parks another session's request at the router.  A transport
    failure tears the connection down and counts toward the worker's
    consecutive-failure streak; any success resets the streak.
    """

    def __init__(self, address, index: int) -> None:
        self.address = address
        self.index = index
        self.healthy = True
        self.calls = 0
        self.failures = 0
        self.consecutive_failures = 0
        #: Bumped by :meth:`reset` and :meth:`close`; a connection or a
        #: failure from an older generation is stale -- its worker has
        #: already been replaced.
        self.generation = 0
        self._idle: list = []
        self._in_flight = 0

    async def _connect(self):
        if isinstance(self.address, str):
            return await asyncio.open_unix_connection(self.address)
        host, port = self.address
        return await asyncio.open_connection(host, port)

    async def _round_trip(self, payload: bytes) -> bytes:
        generation = self.generation
        self._in_flight += 1
        try:
            conn = self._idle.pop() if self._idle else await self._connect()
            reader, writer = conn
            try:
                await write_payload(writer, payload)
                reply = await read_payload(reader)
                if reply is None:
                    raise ProtocolError(f"worker {self.index} closed the connection")
            except BaseException:
                # Also a timeout's cancellation: a late reply must not
                # be read by the next call on this connection.
                writer.close()
                raise
        finally:
            self._in_flight -= 1
        if generation == self.generation:
            self._idle.append(conn)
        else:
            writer.close()  # the pool it came from was dropped meanwhile
        return reply

    async def relay(self, payload: bytes, timeout: float = 60.0) -> bytes:
        """One round trip of an encoded request, connect included in
        *timeout*: the reply's payload, as the worker wrote it."""
        try:
            reply = await asyncio.wait_for(self._round_trip(payload), timeout)
        except Exception:
            self.failures += 1
            self.consecutive_failures += 1
            raise
        self.calls += 1
        self.consecutive_failures = 0
        return reply

    async def call(self, request: dict, timeout: float = 60.0) -> dict:
        """:meth:`relay` of a request the router builds: encoded, its reply decoded."""
        return decode_payload(await self.relay(encode_payload(request), timeout))

    def close(self) -> None:
        """Drop the idle connections; in-flight ones close on return."""
        while self._idle:
            self._idle.pop()[1].close()
        self.generation += 1

    def reset(self, address) -> None:
        """Point this link at a replacement worker process: connections
        to the dead incarnation are dropped, the failure streak forgiven."""
        self.close()
        self.address = address
        self.healthy = True
        self.consecutive_failures = 0

    def snapshot(self) -> dict:
        return {
            "index": self.index,
            "address": list(self.address)
            if isinstance(self.address, tuple)
            else self.address,
            "healthy": self.healthy,
            "calls": self.calls,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "generation": self.generation,
            "pool_connections": len(self._idle) + self._in_flight,
        }


def check_router_settings(
    checkpoint_every: Optional[int], heartbeat_interval: Optional[float]
) -> None:
    """Refuse a negative period: ``None`` or 0 turns either off, and a
    negative heartbeat's ``asyncio.sleep`` returns at once (a ping storm)."""
    if checkpoint_every is not None and not checkpoint_every >= 0:
        raise Ops5Error(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    if heartbeat_interval is not None and not heartbeat_interval >= 0:
        raise Ops5Error(f"heartbeat_interval must be >= 0, got {heartbeat_interval}")


def _unreachable(link: WorkerLink, error: Exception) -> dict:
    return {
        "ok": False,
        "error": "worker_unreachable",
        "worker": link.index,
        "detail": f"{type(error).__name__}: {error}",
    }


class _Placement:
    __slots__ = (
        "worker", "tenant", "migrating", "seq", "ops_since_checkpoint", "replayed", "lock"
    )

    def __init__(self, worker: Optional[int], tenant: str) -> None:
        #: Index of the hosting worker; None while a create holds the
        #: name and the quota slot but no worker has the session yet.
        self.worker = worker
        self.tenant = tenant
        #: Frozen: ops are bounced with a retry hint, not forwarded.
        self.migrating = False
        #: Journal sequence of the last accepted op (durable routers).
        self.seq = 0
        #: Journaled ops since the last checkpoint (durable routers).
        self.ops_since_checkpoint = 0
        #: ``(seq, reply)`` the last restore's journal replay ended on:
        #: the answer to the op that was in flight when its worker failed.
        self.replayed: tuple = (0, None)
        #: Serialises durable forwarding: journal order == worker order.
        self.lock = asyncio.Lock()


class RuleRouter(Endpoint):
    """The protocol-compatible front door over a fleet of workers."""

    def __init__(
        self,
        worker_addresses: Sequence,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        tenant_quotas: Optional[dict] = None,
        default_tenant_quota: Optional[int] = None,
        durability=None,
        supervisor=None,
        checkpoint_every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        if not worker_addresses:
            raise Ops5Error("a router needs at least one worker address")
        check_router_settings(checkpoint_every, heartbeat_interval)
        super().__init__(host, port, unix_path)
        self.workers = [
            WorkerLink(address, index)
            for index, address in enumerate(worker_addresses)
        ]
        self.tenants = TenantBook(tenant_quotas, default_tenant_quota, "fleet-wide ")
        #: A DurabilityStore, or None: nothing journaled, so a failed
        #: worker's sessions have nothing to come back from.
        self.durability = durability
        #: A ProcessFleet (or anything with alive/respawn/restart), or
        #: None; without one, recovery restores onto surviving workers.
        self.supervisor = supervisor
        self.checkpoint_every = checkpoint_every or 0
        self.heartbeat_interval = heartbeat_interval
        self.placements: dict[str, _Placement] = {}
        self.migrations = 0
        self.lost_sessions: list[str] = []
        self.recovered_sessions: list[str] = []
        self.events: deque[dict] = deque(maxlen=128)
        self._ids = itertools.count(1)
        #: Single-flight recovery: worker index -> in-progress task.
        self._recoveries: dict[int, asyncio.Task] = {}
        #: Sessions with a checkpoint task in flight.
        self._checkpointing: set[str] = set()
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._rolling = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self.durability is not None:
            await self._resume_from_store()
        await super().start()
        if self.heartbeat_interval:
            self._heartbeat_task = asyncio.get_running_loop().create_task(
                self._heartbeat_loop(), name="router-heartbeat"
            )

    async def shutdown(self, stop_workers: bool = False) -> None:
        """Stop accepting, finish in-flight requests, close the client
        connections and then the worker links; optionally forward the
        shutdown to every worker first."""
        if self._draining:
            return
        self._draining = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        await self._stop_listening()
        if stop_workers:
            for link in self.workers:
                try:
                    await link.call({"op": "shutdown"}, timeout=10.0)
                except Exception:
                    pass
        await self._close_connections()
        for link in self.workers:
            link.close()
        self._mark_stopped()

    # -- placement ---------------------------------------------------------

    def _healthy_workers(self) -> list[WorkerLink]:
        return [link for link in self.workers if link.healthy]

    def _place(self, session_id: str) -> WorkerLink:
        """Stable-hash *session_id* over the healthy workers."""
        healthy = self._healthy_workers()
        if not healthy:
            raise Ops5Error("no healthy workers available")
        digest = zlib.crc32(session_id.encode())
        return healthy[digest % len(healthy)]

    def _least_loaded(self, exclude: int) -> Optional[WorkerLink]:
        loads: dict[int, int] = {}
        for placement in self.placements.values():
            loads[placement.worker] = loads.get(placement.worker, 0) + 1
        candidates = [
            link for link in self._healthy_workers() if link.index != exclude
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda link: loads.get(link.index, 0))

    def _live_tenants(self) -> list[str]:
        return [placement.tenant for placement in self.placements.values()]

    def tenant_sessions(self, tenant: str) -> int:
        return self._live_tenants().count(tenant)

    def _sessions_on(self, link: WorkerLink) -> list[str]:
        return sorted(
            session_id
            for session_id, placement in self.placements.items()
            if placement.worker == link.index
        )

    def _event(self, kind: str, **fields) -> None:
        self.events.append({"type": kind, **fields, "time": time.time()})

    # -- worker failure and recovery -----------------------------------------

    def _mark_lost(self, session_id: str, worker: int, error) -> None:
        """Last resort, even for a durable router: record the loss but
        keep the session's journal on disk for a postmortem restore."""
        self.lost_sessions.append(session_id)
        self.placements.pop(session_id, None)
        self._event("lost", session=session_id, worker=worker, error=error)

    async def _recover_worker(
        self, link: WorkerLink, generation: int, cause: str, suspect: bool = False
    ) -> None:
        """Single-flight recovery of one failed worker: the only thing
        that happens when a worker fails, whoever noticed.

        Every caller that observed a failure awaits the same recovery
        task (shielded -- one caller's disconnect must not cancel the
        fleet's recovery).  A failure observed under an older link
        generation is stale: that worker was already dealt with, and
        the placements hold the outcome, so a healthy successor is not
        fenced.

        A *suspect* failure -- a ping, or a call nothing was journaled
        for -- may be a slow worker rather than a dead one, and acting
        on it would leave live session copies running unfenced; it
        becomes a verdict after :data:`FAILURE_THRESHOLD` in a row.
        """
        if suspect and link.consecutive_failures < FAILURE_THRESHOLD:
            return
        if link.generation != generation and link.index not in self._recoveries:
            return
        task = self._recoveries.get(link.index)
        if task is None:
            task = asyncio.get_running_loop().create_task(
                self._do_recover_worker(link, cause),
                name=f"recover-worker-{link.index}",
            )
            self._recoveries[link.index] = task
            task.add_done_callback(
                lambda _t: self._recoveries.pop(link.index, None)
            )
        await asyncio.shield(task)

    async def _do_recover_worker(self, link: WorkerLink, cause: str) -> None:
        started = time.monotonic()
        link.healthy = False
        # Failures still to surface from calls already in flight belong
        # to this incarnation; the bump marks them stale.
        link.close()
        stranded = self._sessions_on(link)
        # Freeze the stranded sessions *before* the first await: any op
        # that already passed its migrating-check has already journaled
        # (same synchronous block), so the replay below cannot miss it;
        # everything later is backpressured until its session recovers.
        for session_id in stranded:
            self.placements[session_id].migrating = True
        self._event("worker_failed", worker=link.index, cause=cause, sessions=stranded)
        restored = await self._rehome(link, stranded, "respawn", "recovered")
        respawned = link.healthy  # reset() alone turns it back on
        if not respawned:
            # Nothing fenced the suspect worker: if it was merely slow
            # rather than dead, its session copies are still live and
            # holding worker-local quota beside the restored ones.
            # Best-effort destroy them; a truly dead worker fails the
            # first call fast and we stop poking.
            for session_id in restored:
                try:
                    await link.call(
                        {"op": "destroy_session", "session": session_id},
                        timeout=5.0,
                    )
                except Exception:
                    break
        self._event(
            "worker_recovered",
            worker=link.index,
            respawned=respawned,
            sessions=len(restored),
            lost=sorted(set(stranded) - set(restored)),
            seconds=time.monotonic() - started,
        )

    async def _rehome(
        self, link: WorkerLink, stranded: list[str], replace: str, event: str
    ) -> list[str]:
        """Replace *link*'s process (the supervisor's ``respawn`` after
        a crash, its ``restart`` for a roll) and restore the frozen
        *stranded* sessions onto it -- or, with no supervisor or no
        restart budget left, onto the least-loaded survivors.  Returns
        the ids restored; the rest are marked lost.
        """
        target: Optional[WorkerLink] = None
        if self.supervisor is not None:
            address = await asyncio.get_running_loop().run_in_executor(
                None, getattr(self.supervisor, replace), link.index
            )
            if address is not None:
                link.reset(address)
                target = link
        restored: list[str] = []
        for session_id in stranded:
            destination = target or self._least_loaded(exclude=link.index)
            if destination is None:
                self._mark_lost(session_id, link.index, "no healthy target worker")
            elif await self._restore_session(session_id, destination, event):
                restored.append(session_id)
            else:
                self._mark_lost(session_id, link.index, "restore failed")
        return restored

    async def _install(
        self, target: WorkerLink, session_id: str, config: dict, state, tail=()
    ) -> dict:
        """The one way a session lands on a worker it was not created on:
        ``import_session`` of *state* (``create_session`` from *config*
        when there is none), then the journal *tail* replayed in order.
        Answers the worker's refusal (``worker_unreachable`` for a
        transport failure), else ``{"ok": True, "last": (seq, reply)}``
        -- where the replay ended, ``(0, None)`` without a tail.
        """
        if state is None:
            rebuild = {"op": "create_session", **config, "name": session_id}
        else:
            rebuild = {
                "op": "import_session",
                "name": session_id,
                "config": config,
                "state": state,
            }
        try:
            reply = await target.call(rebuild)
            if not reply.get("ok") and "already exists" in str(reply.get("error", "")):
                # A half-migrated or half-restored copy squats on the
                # name; the caller holds the authority, so replace it.
                await target.call({"op": "destroy_session", "session": session_id})
                reply = await target.call(rebuild)
            if not reply.get("ok"):
                return reply
            last: tuple = (0, None)
            for record in tail:
                request = {
                    key: value
                    for key, value in record.request.items()
                    if key != "deadline"
                }
                last = (record.seq, await target.call(request))
        except Exception as error:
            return _unreachable(target, error)
        return {"ok": True, "last": last}

    async def _restore_session(
        self, session_id: str, target: WorkerLink, event: str = "recovered"
    ) -> bool:
        """Rebuild one session on *target* from checkpoint + journal tail;
        False on failure -- which, for a router without a store, is every
        time.  The placement keeps the ``(seq, reply)`` the replay ended
        on, the answer to an op that died in flight.
        """
        placement = self.placements.get(session_id)
        if placement is None or self.durability is None:
            return False
        bundle = self.durability.load(session_id)
        if bundle is None:
            return False
        checkpoint = bundle.checkpoint or {"config": bundle.config, "state": None}
        installed = await self._install(
            target, session_id, checkpoint["config"], checkpoint["state"],
            bundle.records,
        )
        if not installed["ok"]:
            return False
        placement.worker = target.index
        placement.migrating = False
        placement.replayed = installed["last"]
        placement.ops_since_checkpoint = len(bundle.records)
        placement.seq = max(placement.seq, bundle.last_seq)
        if event == "recovered":
            self.recovered_sessions.append(session_id)
        self._event(
            event,
            session=session_id,
            worker=target.index,
            replayed_ops=len(bundle.records),
            used_checkpoint=bundle.used_checkpoint,
            notes=bundle.notes,
        )
        return True

    async def _resume_from_store(self) -> None:
        """Cold start over an existing store: restore every journaled
        session (a router restart must not lose the fleet's state).  A
        worker that cannot be reached is failed like any other, once
        every session is placed: its sessions come back through
        :meth:`_recover_worker`."""
        top_minted = 0
        unreachable: list[WorkerLink] = []
        for session_id in self.durability.sessions():
            if session_id in self.placements:
                continue
            bundle = self.durability.load(session_id)
            if bundle is None:
                continue
            # Minted ids are ASCII ``r<n>``; ``isdigit`` alone also admits
            # client-chosen names such as ``r²`` that ``int`` rejects.
            number = session_id[1:]
            if session_id[:1] == "r" and number.isascii() and number.isdigit():
                top_minted = max(top_minted, int(number))
            target = self._place(session_id)  # a router starts all-healthy
            placement = _Placement(
                target.index, bundle.config.get("tenant", DEFAULT_TENANT)
            )
            placement.seq = bundle.last_seq
            placement.migrating = True
            self.placements[session_id] = placement
            if target in unreachable:
                continue
            if await self._restore_session(session_id, target, event="resumed"):
                continue
            if target.consecutive_failures:
                unreachable.append(target)  # a transport failure, not a refusal
            else:
                self._mark_lost(session_id, target.index, "resume failed")
        if top_minted:
            self._ids = itertools.count(top_minted + 1)
        for link in unreachable:
            await self._recover_worker(link, link.generation, "unreachable at resume")

    async def _heartbeat_loop(self) -> None:
        """Proactive liveness: don't wait for a client op to trip over a
        dead worker.  Process liveness via the supervisor when attached,
        a ping round-trip otherwise.

        A supervisor verdict (the OS process exited) is certain and
        recovers immediately; a failed ping is only a suspicion (see
        :meth:`_recover_worker`).
        """
        while not self._draining:
            await asyncio.sleep(self.heartbeat_interval)
            if self._rolling:
                # A rolling restart replaces processes on purpose; the
                # probe would read the swap window as a crash and race
                # the roll's own restore.
                continue
            for link in self.workers:
                if self._draining:
                    return
                if not link.healthy:
                    continue
                generation = link.generation
                process_dead = (
                    self.supervisor is not None
                    and not self.supervisor.alive(link.index)
                )
                if not process_dead:
                    try:
                        await link.call({"op": "ping"}, timeout=5.0)
                        continue
                    except Exception:
                        pass  # counted in link.consecutive_failures
                await self._recover_worker(
                    link, generation, "heartbeat", suspect=not process_dead
                )

    def _maybe_checkpoint(self, session_id: str, placement: _Placement) -> None:
        placement.ops_since_checkpoint += 1
        if (
            self.checkpoint_every
            and placement.ops_since_checkpoint >= self.checkpoint_every
            and session_id not in self._checkpointing
        ):
            self._checkpointing.add(session_id)
            asyncio.get_running_loop().create_task(
                self._checkpoint(session_id), name=f"checkpoint-{session_id}"
            ).add_done_callback(lambda _t: self._checkpointing.discard(session_id))

    async def _checkpoint(self, session_id: str, roll: Optional[int] = None) -> bool:
        """Persist one session's checkpoint, off the request path.

        Holding the placement lock means no op is in flight, so the
        exported blob covers exactly ``placement.seq`` journaled ops --
        the seq recorded beside it -- and the store empties the journal.
        What is persisted is the text the worker encoded: a delta while
        the store can still name its last export, so the cost follows
        the ops, not the WM; else the whole state.  Failures are ignored:
        a checkpoint is an optimisation of the replay, never a
        correctness event.

        A rolling restart of worker *roll* checkpoints the whole state
        and freezes the session in the same lock hold.  Answers whether
        the session was still current (and, for a roll, on *roll*).
        """
        placement = self.placements.get(session_id)
        if placement is None:
            return False
        async with placement.lock:
            if (
                self.placements.get(session_id) is not placement
                or placement.migrating
                or roll not in (None, placement.worker)
            ):
                # Destroyed (or destroyed-and-recreated under the same
                # name), frozen or moved while this waited for the lock:
                # a stale checkpoint landing after the drop would
                # resurrect the old incarnation on recovery.
                return False
            store, saved = self.durability, False
            since = "" if roll is not None else store.checkpoint_mark(session_id)
            try:
                reply = await self.workers[placement.worker].call(
                    {"op": "export", "session": session_id, "since": since}
                )
                if "delta_json" in reply:
                    delta = reply["delta_json"], reply["since"], reply["mark"]
                    saved = store.append_delta(session_id, placement.seq, *delta)
                elif "state_json" in reply:
                    state = reply["config"], reply["state_json"], reply["mark"]
                    saved = store.save_checkpoint(session_id, placement.seq, *state)
            except Exception:
                pass  # the journal alone still restores the session
            if saved:
                placement.ops_since_checkpoint = 0
            if roll is not None:
                placement.migrating = True
            return True

    async def _forward_durable(
        self, request: dict, payload: bytes, session_id: str, placement: _Placement
    ):
        """Relay one session op's *payload* under the journal's ordering contract."""
        journal = request.get("op") in _JOURNALED_OPS
        async with placement.lock:
            if placement.migrating:
                return self._reject_migrating()
            seq = 0
            if journal:
                # No await between the migrating-check and this append:
                # recovery freezes sessions synchronously, so the append
                # lands strictly before any journal-tail read.
                placement.seq += 1
                seq = placement.seq
                self.durability.append(session_id, seq, payload)
            reply = await self._call_worker(self.workers[placement.worker], payload)
            if isinstance(reply, dict):  # the call failed; recovery has run
                if self.placements.get(session_id) is not placement:
                    return {"ok": False, "error": "session_lost", "session": session_id}
                if not journal:
                    # Read-only op: retry once against the recovered placement.
                    return await self._call_worker(self.workers[placement.worker], payload)
                if placement.replayed[0] == seq:
                    # The journal replayed this very op on the fresh
                    # worker; its reply is the authoritative answer.
                    return placement.replayed[1]
                return reply
            if journal:
                # A worker encodes ``ok`` first: only a refusal is decoded.
                refused = {} if reply.startswith(b'{"ok":true') else decode_payload(reply)
                error = refused.get("error")
                if error == "backpressure" or (
                    error == "deadline" and not refused.get("started")
                ):
                    # Never enqueued at the worker (backpressure), or
                    # cancelled in its queue before execution began
                    # (deadline with started=false): the client was told
                    # it failed, so a replay must not apply it.
                    # Tombstone, don't rewrite history.  A started
                    # deadline op did execute -- only its reply was
                    # dropped -- so it stays live in the journal.
                    self.durability.mark_skipped(session_id, seq)
                else:
                    self._maybe_checkpoint(session_id, placement)
            return reply

    # -- request dispatch ---------------------------------------------------

    async def _route(self, request: dict, payload: bytes):
        self.telemetry.requests += 1
        handler = _ROUTER_OPS.get(request.get("op"))
        if handler is not None:
            return await handler(self, request)
        return await self._forward_session_op(request, payload)

    async def _call_worker(self, link: WorkerLink, request):
        """Send *request* (a dict, or a payload to relay) to *link*; a
        transport failure becomes a reply."""
        generation = link.generation
        send = link.relay if isinstance(request, bytes) else link.call
        try:
            return await send(request)
        except Exception as error:
            self.telemetry.errors += 1
            # With a journal a restore loses nothing, so it runs at once
            # (fence, respawn, restore) and this caller is then answered
            # honestly; without one the verdict waits for the streak.
            await self._recover_worker(
                link,
                generation,
                f"{type(error).__name__}: {error}",
                suspect=self.durability is None,
            )
            return _unreachable(link, error)

    async def _forward_session_op(self, request: dict, payload: bytes):
        session_id = request.get("session")
        placement = self.placements.get(session_id)
        if placement is None:
            return {"ok": False, "error": f"no session {session_id!r}"}
        if self.durability is not None:
            return await self._forward_durable(request, payload, session_id, placement)
        if placement.migrating:
            return self._reject_migrating()
        return await self._call_worker(self.workers[placement.worker], payload)

    def _reject_migrating(self) -> dict:
        # Well-behaved clients sleep retry_after and re-send; by then
        # the placement points at the new worker.
        self.telemetry.rejected += 1
        return {
            "ok": False,
            "error": "backpressure",
            "retry_after": MIGRATING_RETRY_AFTER,
            "migrating": True,
        }

    # -- server-level ops ----------------------------------------------------

    async def _op_create_session(self, request: dict) -> dict:
        if self._draining:
            raise Ops5Error("router is shutting down")
        name = request.get("name")
        check_session_name(name)
        tenant = request.get("tenant", DEFAULT_TENANT)
        self.tenants.admit(tenant, self._live_tenants())
        session_id = name if name is not None else f"r{next(self._ids)}"
        if session_id in self.placements:
            return {"ok": False, "error": f"session {session_id!r} already exists"}
        forwarded = {**request, "name": session_id, "tenant": tenant}
        config = {
            key: forwarded[key]
            for key in (
                "program", "matcher", "strategy", "max_pending", "tenant"
            )
            if forwarded.get(key) is not None
        }
        # Reserve the name and the quota slot before the first await: a
        # concurrent create sees both taken.  Frozen and locked until a
        # worker holds the session, so nothing is forwarded to it and a
        # destroy or migrate waits; released if no worker takes it.
        placement = self.placements[session_id] = _Placement(None, tenant)
        placement.migrating = True
        tried: set[int] = set()
        try:
            async with placement.lock:
                while True:
                    healthy = [
                        w for w in self._healthy_workers() if w.index not in tried
                    ]
                    if not healthy:
                        return {"ok": False, "error": "no healthy workers available"}
                    link = self._place(session_id)
                    if link.index in tried:
                        link = healthy[0]
                    tried.add(link.index)
                    reply = await self._call_worker(link, forwarded)
                    if reply.get("ok"):
                        if self.durability is not None:
                            self.durability.register(session_id, config)
                        placement.worker = link.index
                        placement.migrating = False
                        return {"ok": True, "session": session_id, "worker": link.index}
                    if reply.get("error") != "worker_unreachable":
                        return reply
        finally:
            if placement.worker is None:
                del self.placements[session_id]

    async def _op_destroy_session(self, request: dict) -> dict:
        session_id = request.get("session")
        placement = self.placements.get(session_id)
        if placement is None:
            return {"ok": False, "error": f"no session {session_id!r}"}
        # The placement lock serialises the destroy against in-flight
        # journaled ops, a migrate, and the off-path checkpoint task:
        # without it, a checkpoint that exported before the drop could
        # rewrite <sid>.ckpt.json after it -- and if the name was
        # recreated in that window, recovery would restore the old
        # incarnation's state under the new session's journal.
        async with placement.lock:
            if self.placements.get(session_id) is not placement:
                return {"ok": False, "error": f"no session {session_id!r}"}
            link = self.workers[placement.worker]
            generation = link.generation
            reply = await self._call_worker(link, request)
            if (
                reply.get("error") == "worker_unreachable"
                and session_id in self.placements
                and link.generation != generation
            ):
                # Recovery just restored the session somewhere; honour
                # the destroy against its new home rather than leaking
                # a zombie.
                reply = await self._call_worker(
                    self.workers[placement.worker], request
                )
            if reply.get("ok") or reply.get("error") == "worker_unreachable":
                self.placements.pop(session_id, None)
                if self.durability is not None:
                    self.durability.drop(session_id)
            return reply

    async def _op_list_sessions(self, request: dict) -> dict:
        return {"ok": True, "sessions": sorted(self.placements)}

    async def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "pong": request.get("payload")}

    async def _op_shutdown(self, request: dict) -> dict:
        sessions = len(self.placements)
        asyncio.get_running_loop().create_task(
            self.shutdown(stop_workers=bool(request.get("stop_workers", True)))
        )
        return {"ok": True, "draining_sessions": sessions}

    async def _op_migrate_session(self, request: dict) -> dict:
        session_id, to = request.get("session"), request.get("to")
        placement = self.placements.get(session_id)
        if placement is None:
            return {"ok": False, "error": f"no session {session_id!r}"}
        if to is not None and (type(to) is not int or not 0 <= to < len(self.workers)):
            return {"ok": False, "error": f"no worker {to!r}"}
        # Under the lock the move waits for an op already journaled for
        # the source: forwarded after the export it would be answered
        # "no session", stay live in the journal, and be missing here.
        async with placement.lock:
            if self.placements.get(session_id) is not placement:
                return {"ok": False, "error": f"no session {session_id!r}"}
            if placement.migrating:
                return {
                    "ok": False,
                    "error": f"session {session_id!r} is already migrating",
                }
            source = self.workers[placement.worker]
            if to is not None:
                target = self.workers[to]
            else:
                target = self._least_loaded(exclude=source.index)
            if target is None or target is source:
                return {"ok": False, "error": "no healthy target worker"}
            placement.migrating = True
            try:
                exported = await self._call_worker(
                    source, {"op": "export", "session": session_id}
                )
                if not exported.get("ok"):
                    return {
                        "ok": False,
                        "error": exported.get("error", "export failed"),
                        "phase": "export",
                    }
                installed = await self._install(
                    target, session_id, exported["config"], exported["state"]
                )
                if not installed["ok"]:
                    return {
                        "ok": False,
                        "error": installed.get("error", "import failed"),
                        "phase": "import",
                    }
                # The source copy is best-effort garbage from here on:
                # the authoritative placement is the target either way.
                placement.worker = target.index
                await self._call_worker(
                    source, {"op": "destroy_session", "session": session_id}
                )
                self.migrations += 1
                moved = {"session": session_id, "from": source.index, "to": target.index}
                self._event("migrated", **moved)
                return {"ok": True, **moved}
            finally:
                placement.migrating = False

    async def _op_rolling_restart(self, request: dict) -> dict:
        """Zero-loss fleet upgrade: per worker, checkpoint its sessions,
        gracefully replace the process, restore from the checkpoints.

        An operator-driven restart consumes no crash budget.  Sessions
        see only a bounded backpressure window, and nothing replays --
        the checkpoint taken under each session lock covers the whole
        journal.
        """
        if self.durability is None or self.supervisor is None:
            return {
                "ok": False,
                "error": "rolling restart requires a durable process fleet",
            }
        rolled = []
        self._rolling = True
        try:
            for link in self.workers:
                frozen = [
                    session_id
                    for session_id in self._sessions_on(link)
                    if await self._checkpoint(session_id, roll=link.index)
                ]
                try:
                    restored = await self._rehome(link, frozen, "restart", "rolled")
                except Exception as error:
                    for session_id in frozen:
                        if session_id in self.placements:  # not destroyed since
                            self.placements[session_id].migrating = False
                    return {
                        "ok": False,
                        "error": f"restart of worker {link.index} failed: {error}",
                        "rolled": rolled,
                    }
                rolled.append(
                    {
                        "worker": link.index,
                        "sessions": len(frozen),
                        "restored": len(restored),
                    }
                )
        finally:
            self._rolling = False
        self._event("rolling_restart", workers=rolled)
        return {"ok": True, "workers": rolled}

    async def _op_stats(self, request: dict) -> dict:
        """Fleet rollup: router view plus merged worker stats."""
        per_worker = []
        sessions: dict[str, dict] = {}
        totals: dict[str, float] = {}
        for link in self.workers:
            row = link.snapshot()
            if link.healthy:
                reply = await self._call_worker(link, {"op": "stats"})
                if reply.get("ok"):
                    row["server"] = reply.get("server", {})
                    sessions.update(reply.get("sessions", {}))
                    for key, value in (reply.get("totals") or {}).items():
                        if isinstance(value, (int, float)):
                            totals[key] = totals.get(key, 0) + value
            per_worker.append(row)
        for session_id, placement in self.placements.items():
            if session_id in sessions:
                sessions[session_id]["worker"] = placement.worker
        totals["sessions"] = len(self.placements)
        tenants = self.tenants.rollup(self._live_tenants())
        router = {
            "workers": per_worker,
            "placements": len(self.placements),
            "migrations": self.migrations,
            "lost_sessions": list(self.lost_sessions),
            "recovered_sessions": list(self.recovered_sessions),
            "events": list(self.events),
            "connections": self.connections,
            "threads": live_threads(),
            "requests": self.telemetry.requests,
            "rejected": self.telemetry.rejected,
            "errors": self.telemetry.errors,
            "draining": self._draining,
        }
        if self.durability is not None:
            router["durability"] = self.durability.stats()
        if self.supervisor is not None:
            router["fleet"] = self.supervisor.snapshot()
        return {
            "ok": True,
            "router": router,
            "tenants": tenants,
            "sessions": sessions,
            "totals": totals,
        }


_ROUTER_OPS = {
    "create_session": RuleRouter._op_create_session,
    "destroy_session": RuleRouter._op_destroy_session,
    "list_sessions": RuleRouter._op_list_sessions,
    "migrate_session": RuleRouter._op_migrate_session,
    "rolling_restart": RuleRouter._op_rolling_restart,
    "stats": RuleRouter._op_stats,
    "ping": RuleRouter._op_ping,
    "shutdown": RuleRouter._op_shutdown,
}


class RouterThread(LoopThread):
    """A router on a background thread (tests, benchmarks, fleets)."""

    def __init__(self, **router_kwargs) -> None:
        async def boot(endpoints: list) -> None:
            router = RuleRouter(**router_kwargs)
            await router.start()
            endpoints.append(router)

        super().__init__("repro-router", boot)

    @property
    def router(self) -> RuleRouter:
        return self.front


class RouterFleet(LoopThread):
    """N workers plus a router on ONE event-loop thread, one address.

    A test and benchmark harness, not a product mode: threads of one
    process share a GIL, so N in-process workers serve no faster than
    one (EXPERIMENTS.md, "In-process fleets: measured, deleted");
    ``repro serve --workers N`` is the process fleet.  The router, its
    workers and their sessions share one ``repro-fleet`` thread and
    still talk through loopback sockets, :class:`WorkerLink` pools and
    the wire protocol -- the code path of a process fleet, not a
    shortcut beside it.
    """

    def __init__(self, workers: int = 2, **router_kwargs) -> None:
        if workers < 1:
            raise Ops5Error("a fleet needs at least one worker")

        async def boot(endpoints: list) -> None:
            # Shutdown order is list order: router (and its links)
            # first, then the servers drain their sessions.
            for _ in range(workers):
                server = RuleServer()
                await server.start()
                endpoints.append(server)
            router = RuleRouter(
                worker_addresses=[server.address for server in endpoints],
                **router_kwargs,
            )
            await router.start()
            endpoints.insert(0, router)

        super().__init__("repro-fleet", boot)

    @property
    def router(self) -> RuleRouter:
        return self.front
