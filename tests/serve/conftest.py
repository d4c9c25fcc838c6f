"""The serve tests' one fault seam: the slice boundary of ``Session``.

A session op is a generator of slices (``Session._steps``) whose every
yield is awaited by ``Session._pause``.  :class:`Hold` parks marked
requests there until the test releases them; :func:`inject_fault` makes
a session's n-th executed request fail or straggle there.  Both patch
the class, so every session in the process sees them, on whichever
thread its loop runs.
"""

import asyncio
import threading
from collections import Counter

import pytest

from repro.ops5 import Ops5Error
from repro.serve import Session
from repro.serve.protocol import decode_payload, encode_payload

WAIT = 30  # seconds; an upper bound on every blocking step, never a pace


async def routed(router, request: dict) -> dict:
    """*request* through ``router.dispatch`` as its endpoint hands it
    over (with its payload); a relayed reply comes back decoded."""
    reply = await router.dispatch(request, encode_payload(request))
    return decode_payload(reply) if isinstance(reply, bytes) else reply


class Hold:
    """Parks every request carrying ``"hold": name`` until released.

    The held op starts at a slice boundary (``Session._steps`` yields a
    gate first) and the boundary awaits the gate (``Session._pause``), so
    the loop keeps serving while it is parked.  Releases may come from
    any thread.
    """

    def __init__(self, monkeypatch) -> None:
        self.entered = threading.Semaphore(0)
        self._lock = threading.Lock()
        self._gates: dict[str, tuple] = {}  # name -> (loop, asyncio.Event)
        self._released: set[str] = set()
        self._open = False
        steps, pause = Session._steps, Session._pause

        def held_steps(session, request):
            name = request.get("hold")
            if name:
                yield self._gate(name)
            return (yield from steps(session, request))

        async def held_pause(session, seconds):
            if not isinstance(seconds, asyncio.Event):
                return await pause(session, seconds)
            self.entered.release()
            await asyncio.wait_for(seconds.wait(), WAIT)  # else: never released

        monkeypatch.setattr(Session, "_steps", held_steps)
        monkeypatch.setattr(Session, "_pause", held_pause)

    def _gate(self, name):
        with self._lock:
            if name not in self._gates:
                self._gates[name] = (asyncio.get_running_loop(), asyncio.Event())
            gate = self._gates[name][1]
            if self._open or name in self._released:
                gate.set()
            return gate

    def _wake(self, names):
        for name in names:
            if name in self._gates:
                loop, gate = self._gates[name]
                if not loop.is_closed():
                    loop.call_soon_threadsafe(gate.set)

    def release(self, *held_names):
        with self._lock:
            self._released.update(held_names)
            self._wake(held_names)

    def release_all(self):
        with self._lock:
            self._open = True
            self._wake(list(self._gates))

    def wait_entered(self, count=1):
        for _ in range(count):
            assert self.entered.acquire(timeout=WAIT), "held request never started"


@pytest.fixture
def hold(monkeypatch):
    gate = Hold(monkeypatch)
    yield gate
    gate.release_all()


def inject_fault(monkeypatch, kind, at, seconds=0.0):
    """Every session's *at*-th executed request (from 0) raises before
    it runs (``"error"``: the structured error reply), or runs and then
    holds its reply at one more slice boundary for *seconds* (``"slow"``:
    a straggler, still executing).  A session restored elsewhere is a
    new session and counts from 0."""
    steps = Session._steps
    executed = Counter()

    def faulty_steps(session, request):
        ordinal = executed[session]
        executed[session] += 1
        if ordinal == at and kind == "error":
            raise Ops5Error(f"injected session fault at request {ordinal}")
        reply = yield from steps(session, request)
        if ordinal == at:
            yield seconds
        return reply

    monkeypatch.setattr(Session, "_steps", faulty_steps)
