"""Serve-layer fault behaviour: mid-batch errors, deadlines, backoff."""

import asyncio
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import ServerThread
from repro.serve.client import BackpressureError, RuleClient
from repro.serve.session import Session
from tests.serve.conftest import inject_fault

CLOSURE = """
(p base (parent ^from <x> ^to <y>) - (anc ^from <x> ^to <y>)
   --> (make anc ^from <x> ^to <y>))
(p step (anc ^from <x> ^to <y>) (parent ^from <y> ^to <z>)
        - (anc ^from <x> ^to <z>)
   --> (make anc ^from <x> ^to <z>))
"""


def _edges(n):
    return [["parent", {"from": f"n{i}", "to": f"n{i + 1}"}] for i in range(n)]


async def _closing(session, body):
    try:
        return await body(session)
    finally:
        await session.drain_and_close()


# -- engine errors mid-batch --------------------------------------------------


def test_engine_error_mid_batch_leaves_session_usable():
    """A bad change inside a batch answers with a structured error; the
    session keeps serving and its queue returns to zero."""

    async def body(session):
        good = await session.submit({"op": "assert", "wmes": _edges(2)})
        assert good["ok"]
        bad = await session.submit(
            {"op": "apply", "changes": [["assert", "parent", {}], ["retract", 9999]]}
        )
        assert bad["ok"] is False
        assert "9999" in bad["error"]
        after = await session.submit({"op": "assert", "wmes": _edges(3), "run": True})
        assert after["ok"]
        assert session.queue_depth == 0
        assert session.telemetry.errors == 1
        return after

    asyncio.run(_closing(Session("t", program=CLOSURE), body))


def test_injected_session_fault_is_a_structured_error(monkeypatch):
    """An injected ``error`` fault exercises the same reply path."""
    inject_fault(monkeypatch, "error", at=1)

    async def body(session):
        first = await session.submit({"op": "assert", "wmes": _edges(1)})
        assert first["ok"]
        second = await session.submit({"op": "assert", "wmes": _edges(1)})
        assert second["ok"] is False
        assert "injected session fault" in second["error"]
        third = await session.submit({"op": "query", "what": "wm"})
        assert third["ok"]
        assert session.queue_depth == 0
        assert session.telemetry.errors == 1

    asyncio.run(_closing(Session("t", program=CLOSURE), body))


# -- per-request deadlines ----------------------------------------------------


def test_deadline_expiry_answers_immediately_and_is_counted(monkeypatch):
    inject_fault(monkeypatch, "slow", at=0, seconds=0.4)

    async def body(session):
        slow = await session.submit(
            {"op": "query", "what": "wm", "deadline": 0.05}
        )
        assert slow == {
            "ok": False,
            "error": "deadline",
            "deadline": 0.05,
            "started": True,
            "queue_depth": 0,
        }
        assert session.telemetry.deadline_exceeded == 1
        # The session is still healthy afterwards (the slow request
        # finished on the loop; only its reply was dropped).
        fine = await session.submit({"op": "assert", "wmes": _edges(1)})
        assert fine["ok"]
        assert session.queue_depth == 0

    asyncio.run(_closing(Session("t", program=CLOSURE), body))


def test_deadline_must_be_positive():
    async def body(session):
        reply = await session.submit({"op": "query", "what": "wm", "deadline": -1})
        assert reply["ok"] is False and "deadline" in reply["error"]

    asyncio.run(_closing(Session("t", program=CLOSURE), body))


def test_expired_queued_request_never_executes(monkeypatch):
    """A request whose deadline lapses while still queued is skipped at
    dequeue time -- it must not burn worker time or count as executed."""
    inject_fault(monkeypatch, "slow", at=0, seconds=0.3)

    async def body(session):
        blocker = asyncio.create_task(
            session.submit({"op": "query", "what": "wm"})
        )
        await asyncio.sleep(0.05)  # let the blocker start executing
        doomed = await session.submit(
            {"op": "assert", "wmes": _edges(1), "deadline": 0.05}
        )
        assert doomed["error"] == "deadline"
        # The reply says so: durable routers tombstone exactly this case.
        assert doomed["started"] is False
        assert (await blocker)["ok"]
        # Only the blocker executed: the doomed request was skipped.
        final = await session.submit({"op": "query", "what": "wm"})
        assert final["wmes"] == []
        assert session.telemetry.requests == 2

    asyncio.run(_closing(Session("t", program=CLOSURE), body))


def test_a_straggling_session_does_not_stall_its_worker(monkeypatch):
    """A ``slow`` fault is an awaited sleep on the worker's one loop:
    while one session straggles, a ping and an op on another session of
    the same worker are answered."""
    inject_fault(monkeypatch, "slow", at=1, seconds=2.0)
    with ServerThread() as harness, RuleClient(
        harness.address
    ) as client, ThreadPoolExecutor(max_workers=1) as pool:
        slow = client.create_session(program=CLOSURE)
        other = client.create_session(program=CLOSURE)
        client.assert_wmes(slow, _edges(1))  # its request 0; request 1 straggles

        def straggle():
            with RuleClient(harness.address) as own:
                return own.assert_wmes(slow, _edges(2))

        pending = pool.submit(straggle)
        for _ in range(100_000):  # each turn is a stats RPC the loop answered
            if client.stats()["sessions"][slow]["requests"] == 2:
                break
        else:
            pytest.fail("the straggler never started")
        assert client.ping(payload=5)["pong"] == 5
        assert client.assert_wmes(other, _edges(1))["timetags"] == [1]
        assert not pending.done()  # still asleep
        assert pending.result(30)["timetags"] == [2, 3]


# -- client backoff -----------------------------------------------------------


def _stub_client(replies):
    """A RuleClient with no socket whose request() pops scripted replies."""
    client = RuleClient.__new__(RuleClient)

    def request(op, **fields):
        outcome = replies.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    client.request = request
    return client


def _rejection(retry_after=0.001):
    return BackpressureError(
        {"error": "backpressure", "retry_after": retry_after}
    )


def test_call_retries_until_success():
    client = _stub_client([_rejection(), _rejection(), {"ok": True, "n": 3}])
    seen = []
    reply = client.call("ping", on_retry=seen.append, rng=random.Random(1))
    assert reply == {"ok": True, "n": 3}
    assert len(seen) == 2


def test_call_reports_attempts_and_total_wait_when_exhausted():
    client = _stub_client([_rejection() for _ in range(4)])
    with pytest.raises(BackpressureError) as info:
        client.call("ping", retries=4, rng=random.Random(2))
    assert info.value.reply["attempts"] == 4
    assert info.value.reply["total_wait"] >= 0


def test_call_backoff_grows_and_respects_total_wait_budget(monkeypatch):
    client = _stub_client([_rejection(0.1) for _ in range(64)])
    sleeps = []
    monkeypatch.setattr("repro.serve.client.time.sleep", sleeps.append)

    class TopDraw:
        """Deterministic 'jitter': always the full interval."""

        def uniform(self, low, high):
            return high

    with pytest.raises(BackpressureError) as info:
        client.call("ping", max_total_wait=1.0, rng=TopDraw())
    # Exponential intervals 0.1, 0.2, 0.4, ... clipped by the budget.
    assert sleeps[:3] == [0.1, 0.2, 0.4]
    assert sum(sleeps) <= 1.0 + 1e-9
    assert info.value.reply["total_wait"] <= 1.0 + 1e-9
    assert info.value.reply["attempts"] < 64


def test_call_jitter_draws_below_the_interval():
    client = _stub_client([_rejection(0.5), {"ok": True}])
    drawn = []

    class Recorder:
        def uniform(self, low, high):
            drawn.append((low, high))
            return 0.0  # no actual sleeping in tests

    assert client.call("ping", rng=Recorder())["ok"]
    assert drawn == [(0.0, 0.5)]


class _TopDraw:
    """Deterministic 'jitter': always the full interval."""

    def uniform(self, low, high):
        return high


def test_call_backoff_interval_is_capped(monkeypatch):
    """Regression: the exponential `retry_after * base**(n-1)` used to
    grow unbounded -- by attempt 20 a 0.1s hint becomes ~14 hours, so
    one rejection streak turned the rest of the wait budget into a
    single giant sleep.  `max_interval` caps every individual sleep."""
    client = _stub_client([_rejection(0.1) for _ in range(64)])
    sleeps = []
    monkeypatch.setattr("repro.serve.client.time.sleep", sleeps.append)

    with pytest.raises(BackpressureError):
        client.call("ping", max_total_wait=4.0, max_interval=0.4, rng=_TopDraw())
    # Exponential up to the cap, then flat: 0.1, 0.2, 0.4, 0.4, ...
    assert sleeps[:4] == [0.1, 0.2, 0.4, 0.4]
    assert max(sleeps) <= 0.4


def test_call_total_wait_respects_documented_budget_under_cap(monkeypatch):
    """With capped intervals the loop keeps probing instead of sleeping
    the budget away in one draw, and cumulative wait still never
    exceeds `max_total_wait`."""
    client = _stub_client([_rejection(0.5) for _ in range(64)])
    sleeps = []
    monkeypatch.setattr("repro.serve.client.time.sleep", sleeps.append)

    with pytest.raises(BackpressureError) as info:
        client.call("ping", max_total_wait=2.0, max_interval=0.5, rng=_TopDraw())
    assert sum(sleeps) <= 2.0 + 1e-9
    assert info.value.reply["total_wait"] <= 2.0 + 1e-9
    # The cap means the budget is spent across many probes, not one.
    assert info.value.reply["attempts"] >= 4


def test_call_survives_huge_retry_budgets(monkeypatch):
    """A pathological retries value must not overflow the float pow."""
    client = _stub_client([_rejection(0.001) for _ in range(3000)])
    monkeypatch.setattr("repro.serve.client.time.sleep", lambda _s: None)
    with pytest.raises(BackpressureError) as info:
        client.call("ping", retries=3000, max_total_wait=1e12, rng=_TopDraw())
    assert info.value.reply["attempts"] == 3000
