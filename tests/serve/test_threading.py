"""The serve threading model: one loop per process (or embedded fleet),
no session threads, one FIFO per session.

Structural tests, no timing: a request marked ``"hold": name`` (the
``hold`` fixture of ``conftest.py``) starts its op at a slice boundary and parks there -- an await on the loop --
until the test releases it, so "while a long run executes" is a state
the test owns rather than a race it hopes to win.
"""

import asyncio
import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.ops5 import ProductionSystem
from repro.serve import (
    BackpressureError,
    DurabilityStore,
    ProcessRouterFleet,
    RouterFleet,
    RuleClient,
    RuleRouter,
    RuleServer,
    ServerError,
    ServerThread,
    Session,
    WorkerLink,
)
from repro.serve.session import SLICE
from repro.workloads.programs import closure
from tests.serve.conftest import WAIT

#: Deadline of a request meant to expire while *executing* (parked at
#: its first slice boundary): long enough that an idle session started it.
OVERRUN = 0.25


def edge(a, b):
    return ["parent", {"from": a, "to": b}]


@pytest.fixture
def pool():
    with ThreadPoolExecutor(max_workers=8) as executor:
        yield executor


def send(address, op, **fields):
    """One blocking request on a connection of its own."""
    with RuleClient(address, timeout=WAIT) as client:
        return client.request(op, **fields)


def names(prefix):
    return sorted(t.name for t in threading.enumerate() if t.name.startswith(prefix))


def sessions_on_both_workers(client, count):
    """Create sessions until each worker hosts *count*; ``{worker: [sid]}``."""
    placed = {0: [], 1: []}
    while min(len(sids) for sids in placed.values()) < count:
        reply = client.request("create_session", program=closure.PROGRAM, max_pending=1)
        placed[reply["worker"]].append(reply["session"])
    return placed


# -- leg 1: one loop hosts the whole embedded fleet ---------------------------


class TestOneLoop:
    def test_fleet_is_one_thread(self, monkeypatch):
        idents = {"router": set(), "server": set()}
        for kind, cls in (("router", RuleRouter), ("server", RuleServer)):
            dispatch = cls.dispatch

            async def recording(self, request, payload, kind=kind, dispatch=dispatch):
                idents[kind].add(threading.get_ident())
                return await dispatch(self, request, payload)

            monkeypatch.setattr(cls, "dispatch", recording)
        before = names("repro-")
        with RouterFleet(workers=2) as fleet, RuleClient(fleet.address) as client:
            placed = sessions_on_both_workers(client, 2)
            for sid in placed[0] + placed[1]:
                client.assert_wmes(sid, [edge("a", "b")], run=True)
            assert names("repro-fleet") == ["repro-fleet"]
            assert names("repro-serve") == []  # no session threads, no worker loops
            assert names("repro-router") == []
            header = client.stats()["router"]
            assert header["threads"] == 1
            assert header["workers"][0]["server"]["threads"] == 1
            # Router, both workers and every session op ran on that thread.
            assert idents["router"] == idents["server"]
            assert len(idents["router"]) == 1
        assert names("repro-") == before

    def test_loop_answers_while_a_session_of_the_other_worker_runs(self, hold, pool):
        with RouterFleet(workers=2) as fleet, RuleClient(fleet.address) as client:
            placed = sessions_on_both_workers(client, 1)
            busy, other = placed[0][0], placed[1][0]
            running = pool.submit(send, fleet.address, "run", session=busy, hold="run")
            hold.wait_entered()
            # The engine op is parked at a slice boundary; the loop that
            # carries router and both workers serves on.
            assert client.ping(payload=7)["pong"] == 7
            assert client.assert_wmes(other, [edge("a", "b")], run=True)["ok"]
            queued = pool.submit(
                send, fleet.address, "assert", session=busy, wmes=[edge("q", "r")]
            )
            for _ in range(100_000):  # each turn is a stats RPC the loop answered
                if client.stats()["sessions"][busy]["queue_depth"] == 1:
                    break
            else:
                pytest.fail("the second request was never queued")
            with pytest.raises(BackpressureError) as rejected:
                client.request("assert", session=busy, wmes=[edge("x", "y")])
            assert rejected.value.reply["queue_depth"] == 1
            assert 0 < rejected.value.retry_after <= 2.0
            hold.release("run")
            assert running.result(WAIT)["ok"] and queued.result(WAIT)["ok"]
            wm = [attrs for cls, attrs, _ in client.query_wm(busy) if cls == "parent"]
            assert wm == [{"from": "q", "to": "r"}]  # the rejected edge never landed


# -- leg 2: one queue per session ---------------------------------------------


def on_session(body, **session_kwargs):
    """Run ``await body(session)`` on a fresh loop, then drain the session."""

    async def main():
        session = Session("t", program=closure.PROGRAM, **session_kwargs)
        try:
            return await body(session)
        finally:
            await session.drain_and_close()

    return asyncio.run(main())


async def until_entered(hold, count=1):
    await asyncio.get_running_loop().run_in_executor(None, hold.wait_entered, count)


class TestOneQueue:
    def test_executing_request_does_not_count_against_max_pending(self, hold):
        async def body(session):
            first = asyncio.create_task(session.submit({"op": "run", "hold": "run"}))
            await until_entered(hold)
            assert session.queue_depth == 0  # executing, not queued
            queued = [
                asyncio.create_task(
                    session.submit({"op": "assert", "wmes": [edge(f"n{i}", f"n{i + 1}")]})
                )
                for i in range(2)
            ]
            await asyncio.sleep(0)
            assert session.queue_depth == 2
            rejected = await session.submit({"op": "run"})
            assert rejected["error"] == "backpressure"
            assert rejected["queue_depth"] == 2
            assert session.telemetry.rejected == 1
            hold.release("run")
            replies = await asyncio.gather(first, *queued)
            assert all(reply["ok"] for reply in replies)
            assert session.queue_depth == 0
            # In arrival order: the timetags say so.
            assert [reply["timetags"] for reply in replies[1:]] == [[1], [2]]
            assert session.telemetry.queue_wait.count == 3

        on_session(body, max_pending=2)

    def test_deadline_model(self, hold):
        """Expiry while queued => ``started: false`` and the op never
        executes; expiry while executing => ``started: true`` and its
        effects land, in order."""

        async def body(session):
            blocker = asyncio.create_task(
                session.submit({"op": "assert", "wmes": [edge("a", "b")], "hold": "blocker"})
            )
            await until_entered(hold)
            doomed = await session.submit(
                {"op": "assert", "wmes": [edge("never", "lands")], "deadline": 0.01}
            )
            assert doomed["error"] == "deadline" and doomed["started"] is False
            assert session.queue_depth == 0  # its slot is free again
            overrun = asyncio.create_task(
                session.submit(
                    {"op": "assert", "wmes": [edge("b", "c")], "hold": "overrun",
                     "deadline": OVERRUN}
                )
            )
            hold.release("blocker")  # the blocker finishes, the overrun starts ...
            await until_entered(hold)
            reply = await overrun  # ... and outlives its deadline, parked
            assert reply["error"] == "deadline" and reply["started"] is True
            hold.release("overrun")
            assert (await blocker)["timetags"] == [1]
            final = await session.submit({"op": "query", "what": "wm"})
            assert [(attrs["from"], tag) for _, attrs, tag in final["wmes"]] == [
                ("a", 1),
                ("b", 2),
            ]
            assert session.telemetry.requests == 3  # blocker, overrun, query
            assert session.telemetry.deadline_exceeded == 2

        on_session(body)

    def test_a_cancelled_caller_leaves_the_fifo_in_order(self, hold):
        """Cancelling a queued request's caller drops it unrun; cancelling
        an executing one's caller at a slice boundary cuts that pause short
        but still finishes the op before the next request starts."""

        async def body(session):
            held = asyncio.create_task(
                session.submit({"op": "assert", "wmes": [edge("a", "b")], "hold": "first"})
            )
            await until_entered(hold)
            dropped = asyncio.create_task(
                session.submit({"op": "assert", "wmes": [edge("never", "runs")]})
            )
            await asyncio.sleep(0)
            assert session.queue_depth == 1
            dropped.cancel()
            held.cancel()  # parked at its first boundary, so it has started
            await asyncio.gather(held, dropped, return_exceptions=True)
            assert held.cancelled() and dropped.cancelled()
            assert session.queue_depth == 0
            # The cancelled op's rest ran first, in a task of its own.
            after = await session.submit({"op": "assert", "wmes": [edge("b", "c")]})
            assert after["timetags"] == [2]
            final = await session.submit({"op": "query", "what": "wm"})
            assert [attrs["from"] for _, attrs, _ in final["wmes"]] == ["a", "b"]

        on_session(body)

    def test_drain_and_close_finishes_queued_work(self, hold):
        async def main():
            session = Session("t", program=closure.PROGRAM)
            held = asyncio.create_task(session.submit({"op": "run", "hold": "run"}))
            await until_entered(hold)
            queued = [
                asyncio.create_task(
                    session.submit({"op": "assert", "wmes": [edge(f"n{i}", f"n{i + 1}")]})
                )
                for i in range(3)
            ]
            await asyncio.sleep(0)
            closing = asyncio.create_task(session.drain_and_close())
            await asyncio.sleep(0)
            late = await session.submit({"op": "run"})
            assert "closed" in late["error"]
            hold.release("run")
            await closing
            replies = await asyncio.gather(held, *queued)
            assert all(reply["ok"] for reply in replies)
            assert len(session.system.memory) == 3
            assert names("repro-serve") == []  # nothing to reap

        asyncio.run(main())

    def test_unstarted_deadline_op_is_tombstoned_in_the_journal(self, hold, pool, tmp_path):
        store = DurabilityStore(str(tmp_path))
        try:
            with RouterFleet(
                workers=1, durability=store, checkpoint_every=0
            ) as fleet, RuleClient(fleet.address, timeout=WAIT) as client:
                sid = client.create_session(program=closure.PROGRAM)
                # Seq 1 overruns its deadline while executing: it stays live.
                with pytest.raises(ServerError) as overrun:
                    client.request(
                        "assert", session=sid, wmes=[edge("a", "b")], hold="overrun",
                        deadline=OVERRUN,
                    )
                assert overrun.value.reply["started"] is True
                # Seq 2 expires queued behind it: tombstoned.
                with pytest.raises(ServerError) as doomed:
                    client.request(
                        "assert", session=sid, wmes=[edge("never", "lands")],
                        deadline=0.01,
                    )
                assert doomed.value.reply["started"] is False
                hold.release("overrun")
                assert client.assert_wmes(sid, [edge("b", "c")])["timetags"] == [2]
                bundle = store.load(sid)
                assert [record.seq for record in bundle.records] == [1, 3]
                assert bundle.last_seq == 3
        finally:
            store.close()


# -- leg 3: slices --------------------------------------------------------------


class TestSlices:
    def test_a_one_wme_request_is_answered_between_two_slices_of_a_run(
        self, monkeypatch, pool
    ):
        """Counted in slices, not wall time: while a run of many slices is
        held at its second boundary, a 1-WME request to another session of
        the same worker is answered; then the run takes its remaining
        slices and fires what the serial engine fires."""
        chain = [edge(f"n{i}", f"n{i + 1}") for i in range(30)]  # 465 firings
        boundaries: dict[str, int] = {}
        held: dict = {}
        parked = threading.Event()
        pause = Session._pause

        async def counting(session, seconds):
            boundaries[session.id] = boundaries.get(session.id, 0) + 1
            if session.id == "long" and boundaries["long"] == 2:
                held["loop"], held["gate"] = asyncio.get_running_loop(), asyncio.Event()
                parked.set()
                await asyncio.wait_for(held["gate"].wait(), WAIT)
            await pause(session, seconds)

        monkeypatch.setattr(Session, "_pause", counting)
        with ServerThread() as harness, RuleClient(harness.address, timeout=WAIT) as client:
            for name in ("long", "short"):
                client.create_session(program=closure.PROGRAM, name=name)
            client.assert_wmes("long", chain)
            running = pool.submit(send, harness.address, "run", session="long")
            assert parked.wait(WAIT)
            assert client.assert_wmes("short", [edge("a", "b")])["timetags"] == [1]
            assert boundaries == {"long": 2}  # the run took no slice meanwhile
            held["loop"].call_soon_threadsafe(held["gate"].set)
            ran = running.result(WAIT)
        serial = ProductionSystem(closure.PROGRAM, matcher="compiled")
        serial.apply_changes([("assert", cls, attrs) for cls, attrs in chain])
        expected = serial.run()
        assert ran["fired"] == expected.fired == 465
        assert ran["firings"] == [[c.production, list(c.timetags)] for c in expected.cycles]
        assert boundaries == {"long": expected.fired // SLICE}


@pytest.mark.chaos
def test_a_worker_process_is_one_thread():
    """Four sessions that served ops, and their worker process is still
    exactly one OS thread (the router and its committer live elsewhere)."""
    with ProcessRouterFleet(workers=1) as fleet, RuleClient(fleet.address, timeout=WAIT) as client:
        sids = [client.create_session(program=closure.PROGRAM) for _ in range(4)]
        for sid in sids:
            client.assert_wmes(sid, [edge("a", "b"), edge("b", "c")], run=True)
            assert client.run(sid)["halted"]
        assert os.listdir(f"/proc/{fleet.worker_pid(0)}/task") == [str(fleet.worker_pid(0))]


# -- the link pool -------------------------------------------------------------


class TestWorkerLink:
    def test_long_runs_do_not_park_other_sessions_at_the_router(self, hold):
        """Five held runs (one more than the old four-connection pool):
        an op for an idle session and a heartbeat ping still go through."""

        async def main():
            server = RuleServer()
            await server.start()
            link = WorkerLink(server.address, 0)
            try:
                sids = []
                for _ in range(6):
                    reply = await link.call(
                        {"op": "create_session", "program": closure.PROGRAM}
                    )
                    sids.append(reply["session"])
                runs = [
                    asyncio.create_task(
                        link.call({"op": "run", "session": sid, "hold": "run"})
                    )
                    for sid in sids[:5]
                ]
                await until_entered(hold, 5)
                idle = await link.call(
                    {"op": "assert", "session": sids[5], "wmes": [edge("a", "b")]},
                    timeout=WAIT,
                )
                assert idle["ok"]
                assert (await link.call({"op": "ping"}, timeout=WAIT))["ok"]
                assert link.snapshot()["pool_connections"] == 6
                hold.release("run")
                assert all(reply["ok"] for reply in await asyncio.gather(*runs))
                assert link.snapshot()["pool_connections"] == 6  # all idle again
            finally:
                link.close()
                await server.shutdown()
            assert link.snapshot()["pool_connections"] == 0

        asyncio.run(main())

    def test_connect_is_inside_the_call_timeout(self, monkeypatch):
        async def never_connects(self):
            await asyncio.Event().wait()

        monkeypatch.setattr(WorkerLink, "_connect", never_connects)

        async def main():
            link = WorkerLink(("127.0.0.1", 1), 0)
            with pytest.raises(asyncio.TimeoutError):
                await link.call({"op": "ping"}, timeout=0.01)
            assert link.consecutive_failures == 1
            assert link.snapshot()["pool_connections"] == 0

        asyncio.run(main())


# -- shutdown -------------------------------------------------------------------

_SHUTDOWN_SCRIPT = """
    import threading
    from repro.serve import RouterFleet, RouterThread, RuleClient, ServerThread
    from repro.workloads.programs import closure

    def drive(harness):
        clients = [RuleClient(harness.address) for _ in range(3)]
        sid = clients[0].create_session(program=closure.PROGRAM)
        for client in clients:
            client.assert_wmes(sid, [["parent", {"from": "a", "to": "b"}]], run=True)
        harness.stop()           # the three connections are still open
        for client in clients:
            client.close()

    drive(ServerThread())
    worker = ServerThread()
    drive(RouterThread(worker_addresses=[worker.address]))
    worker.stop()                # the router's link closed, the client's did
    drive(RouterFleet(workers=2))
    print(sorted(t.name for t in threading.enumerate() if t.name.startswith("repro-")))
"""


def test_stop_with_live_connections_is_silent_and_leaves_no_thread():
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_SHUTDOWN_SCRIPT)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.stderr == ""
    assert done.stdout.strip() == "[]"
    assert done.returncode == 0


def test_server_stats_header_counts_repro_threads():
    with ServerThread() as harness, RuleClient(harness.address) as client:
        sid = client.create_session(program=closure.PROGRAM)
        client.assert_wmes(sid, [edge("a", "b")])
        stats = client.stats()
        assert stats["server"]["threads"] == len(names("repro-"))
        row = stats["sessions"][sid]
        assert row["queue_wait"]["samples"] == 1
        assert 0 < row["queue_wait"]["p50"] <= row["latency"]["p50"]
        assert row["metrics"]["serve"]["queue_wait"] == row["queue_wait"]
