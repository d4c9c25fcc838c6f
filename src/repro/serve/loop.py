"""The event-loop side that server and router share.

:class:`Endpoint` is a listening socket speaking the framed protocol:
accept, read a request, ``dispatch`` it, write the reply -- plus the
connection bookkeeping an orderly shutdown needs.  :class:`LoopThread`
runs one event loop on a background thread and hosts any number of
endpoints on it; :class:`~repro.serve.server.ServerThread`,
:class:`~repro.serve.router.RouterThread` and
:class:`~repro.serve.router.RouterFleet` are all that one helper.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Awaitable, Callable, Optional

from .protocol import ProtocolError, read_message, write_message


class Endpoint:
    """One listening socket and its open connections.

    Subclasses implement :meth:`dispatch` (request dict -> reply dict)
    and a ``shutdown`` coroutine that ends with :meth:`_mark_stopped`.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, unix_path: Optional[str] = None
    ) -> None:
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self._listener: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        #: Open connections: handler task -> its writer.
        self._handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}
        #: Handlers between reading a request and writing its reply.
        self._busy: set[asyncio.Task] = set()

    @property
    def connections(self) -> int:
        return len(self._handlers)

    @property
    def address(self):
        """Where clients connect: a unix path or a (host, port) pair."""
        return self.unix_path if self.unix_path else (self.host, self.port)

    async def start(self) -> None:
        """Bind the listening socket and begin accepting connections."""
        self._stopped = asyncio.Event()
        if self.unix_path:
            self._listener = await asyncio.start_unix_server(
                self._handle, path=self.unix_path
            )
        else:
            self._listener = await asyncio.start_server(
                self._handle, host=self.host, port=self.port
            )
            self.port = self._listener.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Block until ``shutdown`` (the coroutine or the request) ran."""
        assert self._stopped is not None, "start() must run first"
        await self._stopped.wait()

    async def _stop_listening(self) -> None:
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()

    async def _close_connections(self) -> None:
        """Close every connection and wait for its handler to return.

        ``_draining`` is already set.  Idle handlers (parked in
        ``read_message``) see EOF; busy ones finish their request,
        reply, and leave.  Nothing is cancelled: the streams machinery
        reads ``task.exception()`` of a finished handler, which *raises*
        on a cancelled one and prints a traceback per connection.
        """
        for task, writer in self._handlers.items():
            if task not in self._busy:
                writer.close()
        if self._handlers:
            await asyncio.wait(list(self._handlers))

    def _mark_stopped(self) -> None:
        if self._stopped is not None:
            self._stopped.set()

    async def dispatch(self, request) -> dict:
        raise NotImplementedError

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers[task] = writer
        try:
            # Re-checked per request: a busy handler leaves once it has
            # replied, one accepted just before the drain never parks.
            while not self._draining:
                try:
                    request = await read_message(reader)
                except ProtocolError as error:
                    # The stream is unparseable from here on: answer if
                    # possible, then drop the connection.
                    await write_message(
                        writer, {"ok": False, "error": f"protocol: {error}"}
                    )
                    break
                if request is None:
                    break
                self._busy.add(task)
                try:
                    reply = await self.dispatch(request)
                    await write_message(writer, reply)
                finally:
                    self._busy.discard(task)
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer vanished; sessions are unaffected
        finally:
            del self._handlers[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


class LoopThread:
    """One event loop on a daemon thread, hosting started endpoints.

    *boot* runs on the new loop with an empty list and adds each
    endpoint once it is started; when it returns the list is in
    shutdown order with the front door first.  The thread serves until
    the front door stops (``stop()`` or a ``shutdown`` request), then
    shuts every endpoint down in list order -- including after a failed
    boot, so a half-built fleet leaves nothing behind.
    """

    def __init__(self, name: str, boot: Callable[[list], Awaitable[None]]) -> None:
        self._boot = boot
        self.endpoints: list = []
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError(f"{name} did not start within 30s")
        if self._error is not None:
            raise RuntimeError(f"{name} failed to start") from self._error

    def _run(self) -> None:
        async def main() -> None:
            try:
                await self._boot(self.endpoints)
                self._loop = asyncio.get_running_loop()
                self._ready.set()
                await self.front.serve_until_shutdown()
            finally:
                for endpoint in self.endpoints:
                    await endpoint.shutdown()

        try:
            asyncio.run(main())
        except BaseException as error:
            if self._ready.is_set():
                raise  # died while serving: the thread's own traceback
            self._error = error  # boot failed: the constructor raises it
        finally:
            self._ready.set()

    @property
    def front(self):
        """The front-door endpoint (the only one for a lone server)."""
        return self.endpoints[0]

    @property
    def address(self):
        return self.front.address

    def stop(self, timeout: float = 30) -> None:
        """Shut the endpoints down in order, stop the loop, join."""
        loop = self._loop
        if loop is not None and loop.is_running():
            asyncio.run_coroutine_threadsafe(self.front.shutdown(), loop)
        self._thread.join(timeout=timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
