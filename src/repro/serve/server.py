"""The rule server: an asyncio front-end over the session manager.

One :class:`RuleServer` listens on a local TCP port (or a unix-domain
socket), speaks the length-prefixed JSON protocol of
:mod:`repro.serve.protocol`, and multiplexes any number of client
connections onto any number of engine sessions -- all on one event loop
thread.  A session's ops run on the loop in slices, so between two
slices of a long op the loop answers pings and stats, serves other
sessions, and rejects requests with backpressure.

Server-level operations (handled inline on the loop)::

    {"op": "create_session", "program": ..., "matcher": ...,
     "strategy": ..., "max_pending": ..., "name": ..., "tenant": ...}
    {"op": "import_session", "config": {...}, "state": {...}, "name": ...}
    {"op": "destroy_session", "session": id}
    {"op": "list_sessions"}
    {"op": "stats"}                      # server-wide rollup
    {"op": "ping"}
    {"op": "shutdown"}                   # graceful drain, then exit

Session operations (executed one at a time per session, in order)::

    {"op": "assert", "session": id, "wmes": [[cls, {attrs}], ...],
     "run": bool?, "max_cycles": n?}
    {"op": "retract", "session": id, "timetags": [...]}
    {"op": "modify", "session": id, "changes": [[timetag, {updates}], ...]}
    {"op": "apply", "session": id, "changes": [[kind, ...], ...]}
    {"op": "run", "session": id, "max_cycles": n?}
    {"op": "query", "session": id, "what": "wm" | "conflict-set" | "stats"}
    {"op": "export", "session": id, "since"?: mark}  # migration / checkpoint payload

Every reply carries ``ok``; failures add ``error`` (backpressure
rejections add ``retry_after`` + ``queue_depth``; tenant-quota
rejections answer ``error: "quota"`` -- retrying cannot help until the
tenant frees a session; a ``name`` that is not a non-empty UTF-8 string
answers ``error: "bad_name"``; a create or imported config naming the
removed ``workers`` or ``transport`` option answers
``error: "removed_option"``).
"""

from __future__ import annotations

import asyncio
from typing import Optional

from ..ops5 import DEFAULT_MATCHER, Ops5Error
from ..ops5.errors import DuplicateProductionError, ExecutionError, ParseError, ValidationError
from .durability import validate_engine_state
from .loop import Endpoint, LoopThread
from .session import DEFAULT_MAX_PENDING, DEFAULT_TENANT, Refused, SessionManager
from .session import check_session_options
from .stats import live_threads


class BadState(Refused):
    """An imported session payload that cannot be restored."""

    code = "bad_state"


class RuleServer(Endpoint):
    """A multi-session rule-engine service on a local socket."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        max_pending: int = DEFAULT_MAX_PENDING,
        recorder=None,
        tenant_quotas: Optional[dict] = None,
        default_tenant_quota: Optional[int] = None,
    ) -> None:
        super().__init__(host, port, unix_path)
        self.sessions = SessionManager(
            max_pending, recorder, tenant_quotas, default_tenant_quota
        )

    # -- lifecycle -----------------------------------------------------------

    async def shutdown(self) -> None:
        """Graceful exit: stop accepting, drain every session (replies
        to queued work still leave), close connections."""
        if self._draining:
            return
        self._draining = True
        await self._stop_listening()
        await self.sessions.drain_all()
        await self._close_connections()
        self._mark_stopped()

    # -- request dispatch -------------------------------------------------------

    async def _route(self, request: dict, payload: bytes) -> dict:
        """Route one decoded request to the server or a session."""
        op = request.get("op")
        if op in _SERVER_OPS:
            self.telemetry.requests += 1
            return await _SERVER_OPS[op](self, request)
        if self._draining:
            return {"ok": False, "error": "server is shutting down"}
        session = self.sessions.get(request.get("session"))
        return await session.submit(request)

    async def _op_create_session(self, request: dict) -> dict:
        if self._draining:
            raise Ops5Error("server is shutting down")
        check_session_options(request)
        session = self.sessions.create(
            program=request.get("program", ""),
            matcher=request.get("matcher", DEFAULT_MATCHER),
            strategy=request.get("strategy", "lex"),
            max_pending=request.get("max_pending"),
            name=request.get("name"),
            tenant=request.get("tenant", DEFAULT_TENANT),
        )
        return {"ok": True, "session": session.id}

    async def _op_import_session(self, request: dict) -> dict:
        """Re-create a migrated session from an ``export`` payload.

        *config* is the exported session config (program, matcher,
        strategy, max_pending, tenant); *state* the engine blob.  The
        restored session keeps its working memory, refraction memory,
        counters, and halt state -- the conflict set re-derives during
        restore, so the continuation is bit-identical.

        The payload is untrusted input (it crossed the wire): a
        malformed, truncated, or schema-mismatched state blob answers a
        typed ``error: "bad_state"`` reply instead of a traceback, and
        leaves no half-built session behind.
        """
        if self._draining:
            raise Ops5Error("server is shutting down")
        config = request.get("config") or {}
        if not isinstance(config, dict):
            raise BadState("config must be a JSON object")
        check_session_options(config)
        state = request.get("state")
        problem = None if state is None else validate_engine_state(state)
        if problem is not None:
            raise BadState(problem)
        try:
            session = self.sessions.create(
                program=config.get("program", ""),
                matcher=config.get("matcher", DEFAULT_MATCHER),
                strategy=config.get("strategy", "lex"),
                max_pending=config.get("max_pending"),
                name=request.get("name"),
                tenant=config.get("tenant", DEFAULT_TENANT),
                state=state,
            )
        except (ParseError, ValidationError, DuplicateProductionError, ExecutionError,
                ValueError, TypeError, KeyError) as error:
            # A payload that passed the shape check but still failed the
            # engine -- an unparseable program in the config, firings
            # referencing unknown productions -- is the same class of
            # bad input.  (Quota and duplicate-name errors keep their
            # own types: those are caller mistakes, not bad payloads.)
            raise BadState(str(error)) from None
        return {"ok": True, "session": session.id}

    async def _op_destroy_session(self, request: dict) -> dict:
        session_id = request.get("session")
        await self.sessions.destroy(session_id)
        return {"ok": True, "session": session_id}

    async def _op_list_sessions(self, request: dict) -> dict:
        return {"ok": True, "sessions": self.sessions.ids()}

    async def _op_stats(self, request: dict) -> dict:
        rollup = self.sessions.stats()
        return {
            "ok": True,
            "server": {
                "connections": self.connections,
                "threads": live_threads(),
                "uptime_seconds": self.telemetry.uptime,
                "requests": self.telemetry.requests,
                "errors": self.telemetry.errors,
                "draining": self._draining,
            },
            **rollup,
        }

    async def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "pong": request.get("payload")}

    async def _op_shutdown(self, request: dict) -> dict:
        sessions = len(self.sessions)
        # Reply first, then drain in the background: the requester must
        # not deadlock waiting behind the drain of its own sessions.
        asyncio.get_running_loop().create_task(self.shutdown())
        return {"ok": True, "draining_sessions": sessions}


_SERVER_OPS = {
    "create_session": RuleServer._op_create_session,
    "import_session": RuleServer._op_import_session,
    "destroy_session": RuleServer._op_destroy_session,
    "list_sessions": RuleServer._op_list_sessions,
    "stats": RuleServer._op_stats,
    "ping": RuleServer._op_ping,
    "shutdown": RuleServer._op_shutdown,
}


def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    unix_path: Optional[str] = None,
    max_pending: int = DEFAULT_MAX_PENDING,
    announce=None,
    default_tenant_quota: Optional[int] = None,
) -> None:
    """Run a server in this thread until shutdown (the CLI entry point).

    *announce* is called once with the bound server (after the socket
    exists) -- the CLI prints the address, tests could capture it.
    """

    async def main() -> None:
        server = RuleServer(
            host=host,
            port=port,
            unix_path=unix_path,
            max_pending=max_pending,
            default_tenant_quota=default_tenant_quota,
        )
        await server.start()
        if announce is not None:
            announce(server)
        try:
            await server.serve_until_shutdown()
        finally:
            await server.shutdown()

    asyncio.run(main())


class ServerThread(LoopThread):
    """A rule server on a background thread (tests, benchmarks).

    Starts the event loop, waits until the socket is bound, and exposes
    :attr:`address`.  :meth:`stop` requests a graceful drain and joins
    the thread; it is also invoked by ``with`` exit.
    """

    def __init__(self, **server_kwargs) -> None:
        async def boot(endpoints: list) -> None:
            server = RuleServer(**server_kwargs)
            await server.start()
            endpoints.append(server)

        super().__init__("repro-serve", boot)

    @property
    def server(self) -> RuleServer:
        return self.front
