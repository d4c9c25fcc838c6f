"""A blocking client for the rule server.

:class:`RuleClient` speaks the length-prefixed JSON protocol over a
plain socket -- one request, one reply, in order.  It is what the load
generator, the benchmarks, and the tests use; it is also a reference
implementation for clients in other languages (the protocol is just
framed JSON).

Error handling mirrors the server's reply contract:

* a reply with ``ok: false`` raises :class:`ServerError` --
* -- except backpressure rejections, which raise
  :class:`BackpressureError` carrying the server's ``retry_after`` hint;
* :meth:`RuleClient.call` wraps :meth:`request` in a retry loop that
  sleeps out backpressure with exponential backoff and jitter, which is
  how well-behaved clients are expected to ingest under load.
"""

from __future__ import annotations

import math
import random
import socket
import time
from typing import Any, Optional, Sequence, Union

from .protocol import Disconnected, recv_message, send_message

#: A server address: a unix-socket path or a (host, port) pair.
Address = Union[str, tuple]

#: Fallback retry hint when the server's ``retry_after`` is absent or
#: malformed, and the ceiling a (possibly buggy or hostile) server can
#: push a client's hint to.  The server's own hints top out at 2s
#: (``session.MAX_RETRY_AFTER``); 60s leaves generous headroom for
#: other implementations while keeping one bad reply from parking a
#: client for hours.
DEFAULT_RETRY_AFTER = 0.05
MAX_RETRY_AFTER_HINT = 60.0


class ServerError(RuntimeError):
    """The server answered ``ok: false``."""

    def __init__(self, reply: dict) -> None:
        super().__init__(reply.get("error", "unknown server error"))
        self.reply = reply


class BackpressureError(ServerError):
    """The session queue was full; retry after :attr:`retry_after`."""

    @property
    def retry_after(self) -> float:
        """The server's retry hint, validated.

        The wire value is untrusted input: a missing, non-numeric,
        NaN/infinite, or negative hint falls back to
        :data:`DEFAULT_RETRY_AFTER` rather than poisoning the caller's
        sleep, and sane values are clamped to
        :data:`MAX_RETRY_AFTER_HINT`.
        """
        raw = self.reply.get("retry_after", DEFAULT_RETRY_AFTER)
        try:
            hint = float(raw)
        except (TypeError, ValueError):
            return DEFAULT_RETRY_AFTER
        if not math.isfinite(hint) or hint < 0.0:
            return DEFAULT_RETRY_AFTER
        return min(hint, MAX_RETRY_AFTER_HINT)


class RuleClient:
    """One connection to a rule server."""

    def __init__(self, address: Address, timeout: Optional[float] = 60.0) -> None:
        self.address = address
        self.timeout = timeout
        self.reconnects = 0
        self._connect()

    def _connect(self) -> None:
        if isinstance(self.address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            target: Any = self.address
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            target = tuple(self.address)
        sock.settimeout(self.timeout)
        try:
            sock.connect(target)
        except BaseException:
            sock.close()
            raise
        self._sock = sock

    def _reconnect(self) -> None:
        """Replace a severed connection (counted in :attr:`reconnects`)."""
        try:
            self._sock.close()
        except OSError:
            pass
        self._connect()
        self.reconnects += 1

    # -- transport -----------------------------------------------------------

    def request(self, op: str, **fields: Any) -> dict:
        """One round-trip; returns the reply dict, raising on failures."""
        message = {"op": op, **{k: v for k, v in fields.items() if v is not None}}
        send_message(self._sock, message)
        reply = recv_message(self._sock)
        if reply is None:
            raise Disconnected("server closed the connection mid-request")
        if not reply.get("ok"):
            if reply.get("error") == "backpressure":
                raise BackpressureError(reply)
            raise ServerError(reply)
        return reply

    def call(
        self,
        op: str,
        retries: int = 64,
        on_retry=None,
        max_total_wait: float = 30.0,
        backoff_base: float = 2.0,
        max_interval: float = 5.0,
        rng: Optional[random.Random] = None,
        **fields: Any,
    ) -> dict:
        """Like :meth:`request`, but sleeps out backpressure rejections.

        The sleep before attempt *n* is the server's ``retry_after``
        hint scaled by ``backoff_base ** (n - 1)`` and capped at
        *max_interval*, with full jitter (a uniform draw over
        ``(0, interval]``): a fleet of clients rejected together must
        not retry together, or they re-arrive as the same thundering
        herd that filled the queue.  The cap matters because the
        exponential is unbounded -- by attempt 20 an uncapped interval
        is ~6 days, so one long-lived rejection streak would turn the
        remaining retry budget into a single giant sleep instead of
        the steady sub-*max_interval* probing the server's hint asked
        for.  Two budgets bound the loop -- *retries* attempts and
        *max_total_wait* cumulative sleep seconds -- and exhausting
        either raises a :class:`BackpressureError` whose reply reports
        ``attempts`` and ``total_wait``, so callers see how hard the
        client actually tried.  *on_retry* (if given) is called with
        each rejection -- the benchmark's clients count them there.  *rng*
        pins the jitter for deterministic tests.

        Severed connections heal inside the same budgets: a
        ``BrokenPipeError``/``ConnectionResetError``/EOF (a worker
        process restarting under the router, say) triggers a jittered
        reconnect-and-resend instead of a hard error, and only an
        exhausted budget re-raises the transport failure.  Resending
        makes delivery at-least-once: a reply lost between client and
        router means the resent op may run twice.  A durable router's
        journal de-duplicates only the router-to-worker leg (a worker
        crash mid-op is answered from the recovery replay, not
        re-executed); the protocol carries no client request id, so the
        client-to-router leg stays at-least-once -- callers needing
        strict exactly-once must make their ops idempotent or
        de-duplicate at the application level.
        """
        draw = rng.uniform if rng is not None else random.uniform
        total_wait = 0.0
        attempts = 0
        disconnect: Optional[Exception] = None
        while attempts < retries and total_wait < max_total_wait:
            if disconnect is not None:
                try:
                    self._reconnect()
                except OSError as error:
                    disconnect = error
                    attempts += 1
                    total_wait += self._pause(
                        draw, DEFAULT_RETRY_AFTER, attempts, backoff_base,
                        max_interval, max_total_wait - total_wait,
                    )
                    continue
                disconnect = None
            try:
                return self.request(op, **fields)
            except BackpressureError as rejection:
                attempts += 1
                if on_retry is not None:
                    on_retry(rejection)
                if attempts >= retries:
                    break
                total_wait += self._pause(
                    draw, rejection.retry_after, attempts, backoff_base,
                    max_interval, max_total_wait - total_wait,
                )
            except (ConnectionError, Disconnected) as error:
                disconnect = error
                attempts += 1
                if attempts >= retries:
                    break
                total_wait += self._pause(
                    draw, DEFAULT_RETRY_AFTER, attempts, backoff_base,
                    max_interval, max_total_wait - total_wait,
                )
        if disconnect is not None:
            raise disconnect
        raise BackpressureError(
            {
                "error": "backpressure",
                "detail": (
                    f"still rejected after {attempts} attempts and "
                    f"{total_wait:.3f}s of backoff"
                ),
                "attempts": attempts,
                "total_wait": total_wait,
            }
        )

    @staticmethod
    def _pause(
        draw, hint: float, attempts: int, backoff_base: float,
        max_interval: float, remaining: float,
    ) -> float:
        """Sleep out one jittered backoff interval; returns the pause.

        The exponent is clamped (the cap makes growth beyond ~2**64
        irrelevant, and float pow overflows past ~1e308) and the draw is
        full-jitter so a fleet rejected together does not retry
        together.
        """
        interval = min(hint * backoff_base ** min(attempts - 1, 64), max_interval)
        pause = min(draw(0.0, interval), remaining)
        if pause > 0:
            time.sleep(pause)
        return max(pause, 0.0)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def __enter__(self) -> "RuleClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- server operations ------------------------------------------------------

    def ping(self, payload: Any = None) -> dict:
        return self.request("ping", payload=payload)

    def stats(self) -> dict:
        return self.request("stats")

    def list_sessions(self) -> list[str]:
        return self.request("list_sessions")["sessions"]

    def shutdown_server(self) -> dict:
        return self.request("shutdown")

    def create_session(
        self,
        program: str = "",
        matcher: Optional[str] = None,
        strategy: str = "lex",
        max_pending: Optional[int] = None,
        name: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> str:
        reply = self.request(
            "create_session",
            program=program,
            matcher=matcher,
            strategy=strategy,
            max_pending=max_pending,
            name=name,
            tenant=tenant,
        )
        return reply["session"]

    def destroy_session(self, session: str) -> dict:
        return self.request("destroy_session", session=session)

    # -- session operations ------------------------------------------------------

    def assert_wmes(
        self,
        session: str,
        wmes: Sequence[tuple],
        run: bool = False,
        max_cycles: Optional[int] = None,
        retries: int = 64,
        on_retry=None,
    ) -> dict:
        """Ingest a batch of ``(cls, attributes)`` pairs (with retry)."""
        return self.call(
            "assert",
            retries=retries,
            on_retry=on_retry,
            session=session,
            wmes=[[cls, dict(attrs)] for cls, attrs in wmes],
            run=run or None,
            max_cycles=max_cycles,
        )

    def retract(self, session: str, timetags: Sequence[int], **kwargs) -> dict:
        return self.call("retract", session=session, timetags=list(timetags), **kwargs)

    def modify(self, session: str, changes: Sequence[tuple], **kwargs) -> dict:
        return self.call(
            "modify",
            session=session,
            changes=[[tag, dict(updates)] for tag, updates in changes],
            **kwargs,
        )

    def run(
        self, session: str, max_cycles: Optional[int] = None, **kwargs
    ) -> dict:
        return self.call("run", session=session, max_cycles=max_cycles, **kwargs)

    def query_wm(self, session: str) -> list:
        return self.call("query", session=session, what="wm")["wmes"]

    def session_stats(self, session: str) -> dict:
        return self.call("query", session=session, what="stats")["stats"]
