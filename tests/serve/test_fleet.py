"""Durable fleet recovery: worker death must lose no session.

Tier-1 tests here use in-process :class:`ServerThread` workers behind a
durable router -- fast, no subprocesses -- and cover the recovery
machinery itself (journal replay onto a survivor, cold-start resume,
client reconnect).  The ``chaos``-marked tests SIGKILL real worker OS
processes under :class:`ProcessRouterFleet` and prove the acceptance
criterion end to end: every placed session recovers bit-identically,
``lost_sessions == 0``.
"""

import asyncio
import os
import threading
import time

import pytest

from repro.faults import SESSION, SLOW, FaultPlan, FaultSpec
from repro.ops5 import ProductionSystem
from repro.serve import (
    Disconnected,
    DurabilityStore,
    RuleClient,
    ServerError,
    ServerThread,
)
from repro.serve.router import RouterThread, RuleRouter
from repro.workloads.programs import closure

CHAIN = [["parent", {"from": f"n{i}", "to": f"n{i + 1}"}] for i in range(6)]

#: Every session's first executed request straggles well past any
#: deadline used below -- the slow op the deadline tests queue behind
#: (addressed by ordinal, so a restored session's replay straggles too).
SLOW_FIRST_OP = FaultPlan([FaultSpec(kind=SLOW, site=SESSION, at=0, seconds=0.5)])


def reference_state(batches):
    """Final (firings, sorted wm) of a direct no-fault run."""
    system = ProductionSystem(closure.PROGRAM, matcher="rete")
    firings = []
    for batch in batches:
        system.apply_changes([("assert", cls, attrs) for cls, attrs in batch])
        result = system.run(None)
        firings.extend(
            [cycle.production, list(cycle.timetags)] for cycle in result.cycles
        )
    wm = sorted(
        [wme.cls, sorted(wme.attributes.items()), wme.timetag]
        for wme in system.memory.snapshot()
    )
    return firings, wm


def snapshot_wm(client, sid):
    return sorted(
        [cls, sorted(attrs.items()), tag]
        for cls, attrs, tag in client.query_wm(sid)
    )


class TestDurableThreadWorkers:
    """The recovery machinery over thread workers: no processes, tier 1."""

    def test_worker_death_recovers_sessions_onto_survivor(self, tmp_path):
        """Stop a worker out from under a durable router: every one of
        its sessions is restored onto the survivor from checkpoint +
        journal tail and continues bit-identically."""
        store = DurabilityStore(str(tmp_path))
        workers = [ServerThread(), ServerThread()]
        router = RouterThread(
            worker_addresses=[w.address for w in workers],
            durability=store,
            checkpoint_every=2,
        )
        try:
            with RuleClient(router.address) as client:
                sids = [
                    client.create_session(program=closure.PROGRAM, name=f"d{i}")
                    for i in range(6)
                ]
                for sid in sids:
                    client.assert_wmes(sid, CHAIN[:3], run=True)
                placements = {
                    sid: router.router.placements[sid].worker for sid in sids
                }
                assert set(placements.values()) == {0, 1}

                workers[0].stop()
                doomed = [s for s in sids if placements[s] == 0]

                # The next call to a dead-worker session triggers
                # recovery; the reply is the op's own answer, not an
                # error the client would have to retry.
                firings = {}
                for sid in sids:
                    reply = client.assert_wmes(sid, CHAIN[3:], run=True)
                    firings[sid] = reply["run"]["firings"]

                stats = client.stats()["router"]
                assert stats["lost_sessions"] == []
                assert sorted(stats["recovered_sessions"]) == sorted(doomed)
                assert any(
                    e["type"] == "worker_failed" for e in stats["events"]
                )
                for sid in doomed:
                    assert router.router.placements[sid].worker == 1

                # Bit-identity: the recovered sessions' second-half
                # firings and final wm equal a never-killed run.
                ref_firings, ref_wm = reference_state([CHAIN[:3], CHAIN[3:]])
                ref_second = ref_firings[len(ref_firings) - len(firings[sids[0]]):]
                for sid in sids:
                    assert firings[sid] == ref_second
                    assert snapshot_wm(client, sid) == ref_wm
        finally:
            router.stop()
            workers[1].stop()
            store.close()

    def test_cold_start_resumes_sessions_from_store(self, tmp_path):
        """A brand-new router over an existing journal directory picks
        every session back up -- the whole fleet can be restarted."""
        store = DurabilityStore(str(tmp_path))
        workers = [ServerThread()]
        router = RouterThread(
            worker_addresses=[workers[0].address],
            durability=store,
            checkpoint_every=3,
        )
        with RuleClient(router.address) as client:
            client.create_session(program=closure.PROGRAM, name="cold")
            client.assert_wmes("cold", CHAIN[:3], run=True)
        router.stop()
        workers[0].stop()
        store.close()

        store2 = DurabilityStore(str(tmp_path))
        workers2 = [ServerThread()]
        router2 = RouterThread(
            worker_addresses=[workers2[0].address],
            durability=store2,
        )
        try:
            with RuleClient(router2.address) as client:
                assert client.list_sessions() == ["cold"]
                reply = client.assert_wmes("cold", CHAIN[3:], run=True)
                ref_firings, ref_wm = reference_state([CHAIN[:3], CHAIN[3:]])
                tail = ref_firings[
                    len(ref_firings) - len(reply["run"]["firings"]):
                ]
                assert reply["run"]["firings"] == tail
                assert snapshot_wm(client, "cold") == ref_wm
                # Resumed ids must not collide with newly minted ones.
                fresh = client.create_session(program=closure.PROGRAM)
                assert fresh != "cold"
        finally:
            router2.stop()
            workers2[0].stop()
            store2.close()

    def test_cold_start_survives_digit_like_client_names(self, tmp_path):
        """``str.isdigit`` admits ``²`` and ``٣``; ``int`` rejects the
        first.  One client-chosen ``r²`` in the store must not stop the
        router from booting, and only ASCII ``r<n>`` moves the minted-id
        counter."""
        names = ["r7", "r²", "r٣"]
        store = DurabilityStore(str(tmp_path))
        for name in names:
            store.register(name, {"program": closure.PROGRAM})
        worker = ServerThread()
        try:
            router = RouterThread(
                worker_addresses=[worker.address], durability=store
            )
            try:
                with RuleClient(router.address) as client:
                    assert client.list_sessions() == sorted(names)
                    for name in names:
                        reply = client.assert_wmes(name, CHAIN[:2], run=True)
                        assert reply["run"]["fired"] == 3
                    assert client.stats()["router"]["lost_sessions"] == []
                    assert client.create_session(program=closure.PROGRAM) == "r8"
            finally:
                router.stop()
        finally:
            worker.stop()
            store.close()

    def test_destroyed_session_leaves_no_journal(self, tmp_path):
        store = DurabilityStore(str(tmp_path))
        worker = ServerThread()
        router = RouterThread(
            worker_addresses=[worker.address], durability=store
        )
        try:
            with RuleClient(router.address) as client:
                sid = client.create_session(program=closure.PROGRAM)
                assert store.sessions() == [sid]
                client.destroy_session(sid)
                assert store.sessions() == []
        finally:
            router.stop()
            worker.stop()
            store.close()

    def test_rolling_restart_needs_a_supervisor(self, tmp_path):
        store = DurabilityStore(str(tmp_path))
        worker = ServerThread()
        router = RouterThread(
            worker_addresses=[worker.address], durability=store
        )
        try:
            with RuleClient(router.address) as client:
                with pytest.raises(ServerError, match="durable process fleet"):
                    client.request("rolling_restart")
        finally:
            router.stop()
            worker.stop()
            store.close()


class TestDurableJournalCorrectness:
    """The journal must record exactly what executed (review findings:
    deadline tombstones, destroy-vs-checkpoint serialisation)."""

    def test_unstarted_deadline_op_is_tombstoned_not_replayed(self, tmp_path):
        """A journaled op whose deadline expires while still queued at
        the worker never executes and answers ``error: "deadline"`` --
        so recovery must not replay it, or the restored state would
        diverge from the acknowledged pre-crash history."""
        store = DurabilityStore(str(tmp_path))
        workers = [
            ServerThread(fault_plan=SLOW_FIRST_OP),
            ServerThread(fault_plan=SLOW_FIRST_OP),
        ]
        router = RouterThread(
            worker_addresses=[w.address for w in workers],
            durability=store,
            checkpoint_every=0,
        )
        try:
            with RuleClient(router.address) as client:
                sid = client.create_session(program=closure.PROGRAM, name="dl")
                # Op 1: a straggling closure run that blows its deadline
                # while *executing* -- it completes on the worker thread
                # with its reply dropped, so it must stay live in the
                # journal.
                with pytest.raises(ServerError) as slow:
                    client.request(
                        "assert", session=sid, wmes=CHAIN, run=True,
                        deadline=0.05,
                    )
                assert slow.value.reply["error"] == "deadline"
                assert slow.value.reply["started"] is True
                # Op 2: queued behind the still-running op 1; its
                # deadline expires before it starts, so the worker skips
                # it entirely -- the journal must tombstone it.
                with pytest.raises(ServerError) as doomed:
                    client.request(
                        "assert", session=sid,
                        wmes=[["parent", {"from": "zz", "to": "zz2"}]],
                        deadline=0.05,
                    )
                assert doomed.value.reply["error"] == "deadline"
                assert doomed.value.reply["started"] is False

                # The journal keeps op 1 and skips op 2.
                bundle = store.load(sid)
                assert [r.seq for r in bundle.records] == [1]
                assert bundle.last_seq == 2

                # Acknowledged history: op 1's closure, no "zz" edge.
                wm_before = snapshot_wm(client, sid)
                assert ["parent", [("from", "zz"), ("to", "zz2")]] not in [
                    row[:2] for row in wm_before
                ]

                # Kill the hosting worker; the replay must reproduce
                # exactly the acknowledged state.
                victim = router.router.placements[sid].worker
                workers[victim].stop()
                assert snapshot_wm(client, sid) == wm_before
                assert router.router.lost_sessions == []
                assert router.router.recovered_sessions == [sid]
        finally:
            router.stop()
            for worker in workers:
                worker.stop()
            store.close()

    def test_destroy_waits_for_inflight_checkpoint(self, tmp_path):
        """destroy_session must serialise with a checkpoint in flight:
        a stale checkpoint landing after the drop would resurrect the
        old incarnation (or poison a recreated name) on recovery."""
        worker = ServerThread()

        async def scenario():
            store = DurabilityStore(str(tmp_path))
            try:
                router = RuleRouter(
                    [worker.address], durability=store, checkpoint_every=0
                )
                created = await router.dispatch(
                    {
                        "op": "create_session",
                        "program": closure.PROGRAM,
                        "name": "c",
                    }
                )
                assert created["ok"]
                applied = await router.dispatch(
                    {"op": "assert", "session": "c", "wmes": CHAIN[:2]}
                )
                assert applied["ok"]

                # Gate the checkpoint's export call so it holds the
                # placement lock while we race a destroy against it.
                link = router.workers[0]
                release = asyncio.Event()
                original_call = link.call

                async def gated_call(request, timeout=60.0):
                    if request.get("op") == "export":
                        await release.wait()
                    return await original_call(request, timeout)

                link.call = gated_call
                router._checkpointing.add("c")
                checkpoint = asyncio.create_task(
                    router._checkpoint_session("c")
                )
                await asyncio.sleep(0.05)  # checkpoint now owns the lock
                destroy = asyncio.create_task(
                    router.dispatch({"op": "destroy_session", "session": "c"})
                )
                await asyncio.sleep(0.05)
                assert not destroy.done()  # serialised behind the export

                release.set()
                await checkpoint
                reply = await destroy
                assert reply["ok"]
                # The drop is final: nothing resurrects the session.
                assert store.sessions() == []
                assert not os.path.exists(store._ckpt_path("c"))
                assert "c" not in router.placements
            finally:
                store.close()

        try:
            asyncio.run(scenario())
        finally:
            worker.stop()


class TestDurableHeartbeat:
    """A ping timeout is a suspicion, not a verdict (review finding):
    without a supervisor nothing fences the suspect, so durable
    recovery must wait for the consecutive-failure threshold and then
    clean up whatever copies the not-quite-dead worker still holds."""

    def _router(self, tmp_path, workers, **kwargs):
        store = DurabilityStore(str(tmp_path))
        router = RouterThread(
            worker_addresses=[w.address for w in workers],
            durability=store,
            **kwargs,
        )
        return store, router

    def _sessions_on_worker(self, client, router, index, count=6):
        sids = [
            client.create_session(program=closure.PROGRAM, name=f"g{i}")
            for i in range(count)
        ]
        placements = {
            sid: router.router.placements[sid].worker for sid in sids
        }
        doomed = [sid for sid in sids if placements[sid] == index]
        assert doomed, "placement hash spread must cover both workers"
        return sids, doomed

    def test_ping_failures_below_threshold_do_not_recover(self, tmp_path):
        workers = [ServerThread(), ServerThread()]
        store, router = self._router(
            tmp_path,
            workers,
            heartbeat_interval=0.05,
            failure_threshold=10_000,
        )
        try:
            with RuleClient(router.address) as client:
                sids, doomed = self._sessions_on_worker(client, router, 0)
                workers[0].stop()
                time.sleep(0.6)  # ~12 heartbeat rounds of failed pings
                # Suspicion accrued, but below the threshold nothing
                # was recovered and the worker was not written off.
                assert router.router.workers[0].consecutive_failures >= 1
                assert router.router.recovered_sessions == []
                assert all(
                    event["type"] != "worker_failed"
                    for event in router.router.events
                )
                # A real op's transport failure is a certain signal:
                # the call-driven path still recovers immediately.
                reply = client.assert_wmes(doomed[0], CHAIN[:3], run=True)
                assert reply["ok"]
                assert doomed[0] in router.router.recovered_sessions
        finally:
            router.stop()
            workers[1].stop()
            store.close()

    def test_heartbeat_recovers_after_threshold_without_supervisor(
        self, tmp_path
    ):
        workers = [ServerThread(), ServerThread()]
        store, router = self._router(
            tmp_path,
            workers,
            heartbeat_interval=0.05,
            failure_threshold=2,
        )
        try:
            with RuleClient(router.address) as client:
                sids, doomed = self._sessions_on_worker(client, router, 0)
                workers[0].stop()
                deadline = time.monotonic() + 15
                while time.monotonic() < deadline:
                    if sorted(router.router.recovered_sessions) == sorted(
                        doomed
                    ):
                        break
                    time.sleep(0.05)
                assert sorted(router.router.recovered_sessions) == sorted(
                    doomed
                )
                assert router.router.lost_sessions == []
                for sid in doomed:
                    assert router.router.placements[sid].worker == 1
        finally:
            router.stop()
            workers[1].stop()
            store.close()

    def test_false_positive_recovery_destroys_stale_copies(self, tmp_path):
        """If recovery fires while the 'dead' worker is actually alive
        (no supervisor, so nothing fenced it), the old session copies
        must be destroyed -- two live copies of one session would fork
        history and leak worker-local quota."""
        workers = [ServerThread(), ServerThread()]
        store, router = self._router(tmp_path, workers)
        try:
            with RuleClient(router.address) as client:
                sids, doomed = self._sessions_on_worker(client, router, 0)
                for sid in doomed:
                    client.assert_wmes(sid, CHAIN[:3], run=True)
                link = router.router.workers[0]
                future = asyncio.run_coroutine_threadsafe(
                    router.router._recover_worker(
                        link, link.generation, "test: false positive"
                    ),
                    router._loop,
                )
                result = future.result(timeout=30)
                assert sorted(result["replies"]) == sorted(doomed)
                assert result["lost"] == set()
                for sid in doomed:
                    assert router.router.placements[sid].worker == 1
                # The still-alive worker 0 holds no stale copies.
                with RuleClient(workers[0].address) as direct:
                    assert direct.list_sessions() == []
                with RuleClient(workers[1].address) as direct:
                    assert set(direct.list_sessions()) >= set(doomed)
                # And the restored copies keep serving bit-identically.
                _, ref_wm = reference_state([CHAIN[:3], CHAIN[3:]])
                for sid in doomed:
                    client.assert_wmes(sid, CHAIN[3:], run=True)
                    assert snapshot_wm(client, sid) == ref_wm
        finally:
            router.stop()
            for worker in workers:
                worker.stop()
            store.close()


class TestClientReconnect:
    """RuleClient.call survives the peer going away (satellite: the
    transparent-reconnect contract)."""

    def test_call_reconnects_after_server_restart(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        first = ServerThread(unix_path=path)
        client = RuleClient(path)
        try:
            assert client.call("ping", payload="a")["pong"] == "a"
            first.stop()
            second = ServerThread(unix_path=path)
            try:
                reply = client.call("ping", payload="b", max_total_wait=10.0)
                assert reply["pong"] == "b"
                assert client.reconnects >= 1
            finally:
                second.stop()
        finally:
            client.close()

    def test_call_raises_when_peer_stays_dead(self, tmp_path):
        """EOF then a gone socket: the budgets bound the retry loop and
        the transport failure surfaces instead of hanging."""
        import os
        import socket

        path = str(tmp_path / "serve.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)
        client = RuleClient(path)
        conn, _ = listener.accept()
        conn.close()  # the peer goes away mid-conversation ...
        listener.close()
        os.unlink(path)  # ... and never comes back
        try:
            with pytest.raises((Disconnected, OSError)):
                client.call("ping", retries=3, max_total_wait=0.5)
            assert client.reconnects == 0  # every reconnect attempt failed
        finally:
            client.close()


@pytest.mark.chaos
class TestProcessFleetChaos:
    """SIGKILL real worker OS processes; the acceptance criterion."""

    def _fleet(self, **kwargs):
        from repro.serve import ProcessRouterFleet

        kwargs.setdefault("workers", 2)
        kwargs.setdefault("restart_backoff", 0.05)
        return ProcessRouterFleet(**kwargs)

    def test_sigkill_recovers_every_session_bit_identical(self):
        with self._fleet(checkpoint_every=2) as fleet:
            with RuleClient(fleet.address) as client:
                sids = [
                    client.create_session(
                        program=closure.PROGRAM,
                        name=f"k{i}",
                        tenant=f"t{i % 2}",
                    )
                    for i in range(6)
                ]
                for sid in sids:
                    client.assert_wmes(sid, CHAIN[:3], run=True)

                stats = client.stats()
                loads = {}
                for row in stats["sessions"].values():
                    loads[row["worker"]] = loads.get(row["worker"], 0) + 1
                victim = max(loads, key=lambda w: (loads[w], -w))
                old_pid = fleet.worker_pid(victim)
                fleet.kill_worker(victim)

                firings = {}
                for sid in sids:
                    reply = client.assert_wmes(sid, CHAIN[3:], run=True)
                    firings[sid] = reply["run"]["firings"]

                after = client.stats()["router"]
                assert after["lost_sessions"] == []
                assert len(after["recovered_sessions"]) == loads[victim]
                assert after["fleet"]["pids"][victim] != old_pid
                assert after["fleet"]["restarts"][victim] == 1

                ref_firings, ref_wm = reference_state([CHAIN[:3], CHAIN[3:]])
                tail = ref_firings[
                    len(ref_firings) - len(firings[sids[0]]):
                ]
                for sid in sids:
                    assert firings[sid] == tail
                    assert snapshot_wm(client, sid) == ref_wm

    def test_heartbeat_recovers_an_idle_fleet(self):
        """No client traffic after the kill: the heartbeat alone must
        notice the dead process and bring the sessions back."""
        with self._fleet(checkpoint_every=2, heartbeat_interval=0.2) as fleet:
            with RuleClient(fleet.address) as client:
                sid = client.create_session(program=closure.PROGRAM, name="hb")
                client.assert_wmes(sid, CHAIN[:3], run=True)
                victim = client.stats()["sessions"][sid]["worker"]
                fleet.kill_worker(victim)

                # Poll the router object directly: a client call would
                # itself trigger call-driven recovery, and this test is
                # about the heartbeat noticing on its own.
                deadline = time.monotonic() + 15
                while time.monotonic() < deadline:
                    if fleet.router.recovered_sessions:
                        break
                    time.sleep(0.1)
                assert fleet.router.recovered_sessions == [sid]
                reply = client.assert_wmes(sid, CHAIN[3:], run=True)
                _, ref_wm = reference_state([CHAIN[:3], CHAIN[3:]])
                assert reply["ok"]
                assert snapshot_wm(client, sid) == ref_wm

    def test_rolling_restart_replaces_processes_without_loss(self):
        with self._fleet(checkpoint_every=4) as fleet:
            with RuleClient(fleet.address) as client:
                sids = [
                    client.create_session(program=closure.PROGRAM, name=f"r{i}")
                    for i in range(3)
                ]
                for sid in sids:
                    client.assert_wmes(sid, CHAIN[:3], run=True)
                before_pids = list(client.stats()["router"]["fleet"]["pids"])

                reply = client.request("rolling_restart")
                assert reply["ok"]

                after = client.stats()["router"]
                assert after["fleet"]["pids"] != before_pids
                # A graceful roll is not a crash: the books show neither
                # losses nor crash-recoveries, and no restart budget was
                # spent.
                assert after["lost_sessions"] == []
                assert after["recovered_sessions"] == []
                assert after["fleet"]["restarts"] == [0, 0]

                _, ref_wm = reference_state([CHAIN[:3], CHAIN[3:]])
                for sid in sids:
                    client.assert_wmes(sid, CHAIN[3:], run=True)
                    assert snapshot_wm(client, sid) == ref_wm

    def test_snapshot_is_not_blocked_by_respawn_backoff(self):
        """snapshot() (behind the router's stats op) must stay
        responsive while a respawn sleeps out its backoff + spawn --
        the fleet lock is not held across either."""
        from repro.serve.fleet import ProcessFleet

        with ProcessFleet(
            workers=1, restart_backoff=1.5, restart_backoff_max=1.5
        ) as fleet:
            fleet.kill(0)
            result = {}
            spinner = threading.Thread(
                target=lambda: result.update(address=fleet.respawn(0))
            )
            spinner.start()
            time.sleep(0.3)  # respawn is now inside its 1.5s backoff
            started = time.monotonic()
            snap = fleet.snapshot()
            assert time.monotonic() - started < 0.5
            assert snap["restarts"] == [1]
            spinner.join(timeout=60)
            assert result["address"] is not None
            assert fleet.alive(0)

    def test_an_interrupt_mid_spawn_orphans_no_worker(self, monkeypatch):
        """A ``SystemExit`` / ``KeyboardInterrupt`` landing while a worker
        is still announcing (a signal handler on the spawning thread)
        used to leave the child running outside every fleet's books."""
        from repro.serve.fleet import WorkerProcess

        spawned = []

        def interrupted(self, timeout):
            spawned.append(self.process)
            raise KeyboardInterrupt

        monkeypatch.setattr(WorkerProcess, "_await_announce", interrupted)
        with pytest.raises(KeyboardInterrupt):
            WorkerProcess()
        assert spawned[0].poll() is not None  # killed and reaped

    def test_fleet_chaos_harness_verdict(self):
        from repro.faults import fleet_chaos

        report = fleet_chaos(
            11, workers=2, sessions=3, rounds=4, kills=1, checkpoint_every=2
        )
        assert report.ok
        assert len(report.kills) == 1
        assert report.lost_sessions == []
        snapshot = report.snapshot()
        assert snapshot["schema"] == "repro.fleet-chaos/1"
        assert snapshot["identical"] is True

    def test_cli_chaos_command_round_trip(self, tmp_path, capsys):
        """`repro chaos` is the fleet run: exit 0, a verdict line, and a
        `repro.fleet-chaos/1` report on disk."""
        import json

        from repro.cli import main

        report_path = tmp_path / "chaos.json"
        assert main(["chaos", "--workers", "2", "--sessions", "3", "--rounds", "3",
                     "--crashes", "1", "--seed", "7", "--checkpoint-every", "2",
                     "--report-out", str(report_path)]) == 0
        assert "bit-identical" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro.fleet-chaos/1"
        assert report["identical"] is True and report["lost_sessions"] == []
        assert len(report["kills"]) == 1
