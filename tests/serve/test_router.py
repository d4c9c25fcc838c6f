"""The front-door router: placement, forwarding, quotas, migration,
worker failure -- all over real sockets via :class:`RouterFleet`.

The router speaks the same protocol as a single server, so every test
drives it with the ordinary :class:`RuleClient`.
"""

import asyncio

import pytest

from repro.ops5 import ProductionSystem
from repro.serve import (
    DurabilityStore,
    RouterFleet,
    RuleClient,
    ServerError,
    ServerThread,
)
from repro.serve.router import RouterThread, RuleRouter
from repro.workloads.programs import closure

CHAIN = [["parent", {"from": f"n{i}", "to": f"n{i + 1}"}] for i in range(6)]


@pytest.fixture(scope="module")
def fleet():
    """One shared two-worker fleet for the read-mostly tests."""
    with RouterFleet(workers=2) as harness:
        yield harness


def _expected_run():
    direct = ProductionSystem(closure.PROGRAM, matcher="rete")
    direct.apply_changes([("assert", cls, attrs) for cls, attrs in CHAIN])
    return direct.run()


class TestFrontDoor:
    def test_ping_and_empty_list(self, fleet):
        with RuleClient(fleet.address) as client:
            assert client.ping(payload="x")["pong"] == "x"
            assert client.list_sessions() == []

    def test_sessions_spread_and_round_trip(self, fleet):
        """Many sessions land across workers; each one works end to end."""
        expected = closure.expected_chain_facts(6)
        with RuleClient(fleet.address) as client:
            sids = [client.create_session(program=closure.PROGRAM) for _ in range(8)]
            try:
                assert len(set(sids)) == 8
                for sid in sids:
                    reply = client.assert_wmes(sid, CHAIN, run=True)
                    assert reply["run"]["fired"] == expected
                assert sorted(client.list_sessions()) == sorted(sids)
                workers = {
                    row["worker"]
                    for row in client.stats()["sessions"].values()
                }
                assert len(workers) == 2, "placement never used both workers"
            finally:
                for sid in sids:
                    client.destroy_session(sid)
            assert client.list_sessions() == []

    def test_results_bit_identical_through_router(self, fleet):
        """The acceptance criterion: firings through the router equal a
        direct single-process run, cycle for cycle."""
        expected = _expected_run()
        with RuleClient(fleet.address) as client:
            sid = client.create_session(program=closure.PROGRAM)
            try:
                client.assert_wmes(sid, CHAIN[:2])
                client.assert_wmes(sid, CHAIN[2:])
                reply = client.run(sid)
                assert [
                    (name, tuple(tags)) for name, tags in reply["firings"]
                ] == [(c.production, c.timetags) for c in expected.cycles]
            finally:
                client.destroy_session(sid)

    def test_unknown_session_and_duplicate_name_rejected(self, fleet):
        with RuleClient(fleet.address) as client:
            with pytest.raises(ServerError, match="no session"):
                client.run("ghost")
            sid = client.create_session(program=closure.PROGRAM, name="dup")
            try:
                with pytest.raises(ServerError, match="already exists"):
                    client.create_session(program=closure.PROGRAM, name="dup")
            finally:
                client.destroy_session(sid)

    def test_stats_aggregates_workers_and_totals(self, fleet):
        with RuleClient(fleet.address) as client:
            sid = client.create_session(program=closure.PROGRAM)
            try:
                client.assert_wmes(sid, CHAIN, run=True)
                stats = client.stats()
                assert len(stats["router"]["workers"]) == 2
                assert all(w["healthy"] for w in stats["router"]["workers"])
                assert sid in stats["sessions"]
                # Totals are summed across workers -- the load generator
                # derives throughput from deltas of these.
                assert stats["totals"]["firings"] >= closure.expected_chain_facts(6)
                assert stats["totals"]["sessions"] == 1
            finally:
                client.destroy_session(sid)


class TestFleetQuotas:
    def test_fleet_wide_quota_spans_workers(self):
        """The quota is global: two workers cannot double a tenant's
        budget, because admission happens at the router."""
        with RouterFleet(workers=2, default_tenant_quota=2) as fleet:
            with RuleClient(fleet.address) as client:
                a = client.create_session(program=closure.PROGRAM, tenant="acme")
                b = client.create_session(program=closure.PROGRAM, tenant="acme")
                with pytest.raises(ServerError) as excinfo:
                    client.create_session(program=closure.PROGRAM, tenant="acme")
                assert excinfo.value.reply["error"] == "quota"
                # Another tenant still has its own budget.
                g = client.create_session(program=closure.PROGRAM, tenant="globex")
                # Freeing a session readmits the tenant.
                client.destroy_session(a)
                c = client.create_session(program=closure.PROGRAM, tenant="acme")
                stats = client.stats()
                assert stats["tenants"]["acme"]["sessions"] == 2
                assert stats["tenants"]["acme"]["quota_rejections"] == 1
                assert stats["tenants"]["globex"]["sessions"] == 1
                for sid in (b, g, c):
                    client.destroy_session(sid)


    def _concurrent_creates(self, first: dict, second: dict):
        """Two create_session dispatches in one ``gather`` on a router
        over one real worker: (replies, router, what the worker hosts)."""
        worker = ServerThread()

        async def scenario():
            router = RuleRouter([worker.address], default_tenant_quota=1)
            try:
                replies = await asyncio.gather(
                    *(
                        router.dispatch(
                            {"op": "create_session", "program": closure.PROGRAM, **extra}
                        )
                        for extra in (first, second)
                    )
                )
            finally:
                for link in router.workers:
                    link.close()
            return replies, router

        try:
            replies, router = asyncio.run(scenario())
            with RuleClient(worker.address) as direct:
                return replies, router, direct.list_sessions()
        finally:
            worker.stop()

    def test_concurrent_creates_cannot_overshoot_a_quota(self):
        """Admission reserves the slot before the worker is asked: the
        quota is exact even when two creates are in flight together."""
        replies, router, hosted = self._concurrent_creates(
            {"tenant": "t"}, {"tenant": "t"}
        )
        assert sorted(reply["ok"] for reply in replies) == [False, True]
        refused = next(reply for reply in replies if not reply["ok"])
        assert refused["error"] == "quota"
        assert router.tenant_sessions("t") == 1
        assert hosted == sorted(router.placements)

    def test_concurrent_creates_cannot_share_a_name(self):
        replies, router, hosted = self._concurrent_creates(
            {"tenant": "a", "name": "dup"}, {"tenant": "b", "name": "dup"}
        )
        assert sorted(reply["ok"] for reply in replies) == [False, True]
        refused = next(reply for reply in replies if not reply["ok"])
        assert "already exists" in refused["error"]
        # The loser reserved nothing and left no unplaced copy behind.
        assert list(router.placements) == hosted == ["dup"]
        assert router.tenant_sessions("a") + router.tenant_sessions("b") == 1


class TestSessionNames:
    """A session name is client input: only a non-empty, UTF-8-encodable
    string may name a session, at either front door."""

    @pytest.mark.parametrize(
        "name", [5, [1], "\ud800", ""], ids=["int", "list", "lone-surrogate", "empty"]
    )
    @pytest.mark.parametrize("front_door", [ServerThread, RouterFleet])
    def test_bad_name_is_refused_before_anything_is_created(
        self, front_door, name
    ):
        with front_door() as harness, RuleClient(harness.address) as client:
            with pytest.raises(ServerError) as refused:
                client.create_session(program=closure.PROGRAM, name=name)
            assert refused.value.reply["error"] == "bad_name"
            # Nothing was created, and the listing ops still answer.
            assert client.list_sessions() == []
            assert client.stats()["sessions"] == {}
            good = client.create_session(program=closure.PROGRAM, name="r²")
            assert client.list_sessions() == [good]


class TestMigration:
    def test_migrate_waits_for_an_op_already_journaled(self, tmp_path):
        """An op journaled just before ``migrate_session`` but slow to
        reach the source (its connection is delayed) must not be
        overtaken by the export: it would be answered "no session",
        stay live in the journal, and be missing from the moved copy."""
        workers = [ServerThread(), ServerThread()]

        async def scenario():
            store = DurabilityStore(str(tmp_path))
            router = RuleRouter([w.address for w in workers], durability=store)
            try:
                created = await router.dispatch(
                    {"op": "create_session", "program": closure.PROGRAM, "name": "m"}
                )
                assert created["ok"]
                source = router.workers[created["worker"]]
                source.close()  # the next call must open a connection
                connect, delays = source._connect, [0.2]

                async def slow_first_connect():
                    if delays:
                        await asyncio.sleep(delays.pop())
                    return await connect()

                source._connect = slow_first_connect
                op = asyncio.create_task(
                    router.dispatch({"op": "assert", "session": "m", "wmes": CHAIN[:1]})
                )
                await asyncio.sleep(0.05)  # journaled, still connecting
                moved = await router.dispatch(
                    {"op": "migrate_session", "session": "m"}
                )
                applied = await op
                assert applied["ok"], applied
                assert moved["ok"] and moved["from"] == source.index
                held = await router.dispatch(
                    {"op": "query", "session": "m", "what": "wm"}
                )
                assert [row[:2] for row in held["wmes"]] == [CHAIN[0]]
                assert [r.seq for r in store.load("m").records] == [1]
            finally:
                for link in router.workers:
                    link.close()
                store.close()

        try:
            asyncio.run(scenario())
        finally:
            for worker in workers:
                worker.stop()

    def test_migrate_session_continues_bit_identically(self):
        """Mid-stream migration: half the input on worker A, migrate,
        the rest on worker B -- firings equal an unmigrated session
        driven with the identical batch pattern."""
        reference = ProductionSystem(closure.PROGRAM, matcher="rete")
        reference.apply_changes(
            [("assert", cls, attrs) for cls, attrs in CHAIN[:3]]
        )
        ref_first = reference.run()
        reference.apply_changes(
            [("assert", cls, attrs) for cls, attrs in CHAIN[3:]]
        )
        ref_second = reference.run()
        expected_firings = [
            (c.production, c.timetags)
            for c in ref_first.cycles + ref_second.cycles
        ]
        with RouterFleet(workers=2) as fleet:
            with RuleClient(fleet.address) as client:
                sid = client.create_session(program=closure.PROGRAM)
                client.assert_wmes(sid, CHAIN[:3])
                first = client.run(sid)
                before = fleet.router.placements[sid].worker

                moved = client.request("migrate_session", session=sid)
                assert moved["from"] == before
                assert moved["to"] != before
                assert fleet.router.placements[sid].worker == moved["to"]

                client.assert_wmes(sid, CHAIN[3:])
                second = client.run(sid)
                combined = [
                    (name, tuple(tags))
                    for name, tags in first["firings"] + second["firings"]
                ]
                assert combined == expected_firings
                stats = client.stats()
                assert stats["router"]["migrations"] == 1
                assert stats["sessions"][sid]["worker"] == moved["to"]
                client.destroy_session(sid)

    def test_migrate_unknown_session_fails_cleanly(self):
        with RouterFleet(workers=2) as fleet:
            with RuleClient(fleet.address) as client:
                with pytest.raises(ServerError, match="no session"):
                    client.request("migrate_session", session="ghost")


class TestDemotion:
    def test_dead_worker_is_demoted_and_sessions_evacuate(self):
        """Kill one worker out from under a store-less router: after
        the failure streak it takes the one recovery path, which has
        nothing to restore from -- its sessions are reported lost, and
        new sessions land on the survivor."""
        workers = [ServerThread(), ServerThread()]
        router = RouterThread(
            worker_addresses=[w.address for w in workers],
            failure_threshold=2,
        )
        try:
            with RuleClient(router.address) as client:
                # Pin one session per worker by minting names that hash
                # to each side.
                sids = [client.create_session(program=closure.PROGRAM) for _ in range(4)]
                placed = {
                    router.router.placements[sid].worker for sid in sids
                }
                assert placed == {0, 1}

                victim = workers[0]
                victim.stop()

                # Requests to sessions on the dead worker fail until the
                # streak trips the threshold; the router stays up.
                dead = [
                    s for s in sids
                    if router.router.placements.get(s)
                    and router.router.placements[s].worker == 0
                ]
                alive = [s for s in sids if s not in dead]
                for _ in range(3):
                    try:
                        client.request("stats")
                    except ServerError:
                        pass
                    for s in dead:
                        try:
                            client.run(s)
                        except ServerError:
                            pass

                stats = client.stats()
                worker_rows = {w["index"]: w for w in stats["router"]["workers"]}
                assert worker_rows[0]["healthy"] is False
                assert worker_rows[1]["healthy"] is True
                # Nothing was journaled: its sessions are reported lost,
                # never silently dropped.
                assert set(stats["router"]["lost_sessions"]) == set(dead)
                assert any(
                    e["type"] == "worker_failed" for e in stats["router"]["events"]
                )

                # The healthy remainder still serves, and new sessions
                # avoid the failed worker.
                for s in alive:
                    client.assert_wmes(s, CHAIN, run=True)
                fresh = client.create_session(program=closure.PROGRAM)
                assert router.router.placements[fresh].worker == 1
                client.destroy_session(fresh)
        finally:
            router.stop()
            for worker in workers[1:]:
                worker.stop()


@pytest.mark.chaos
class TestRouterChaos:
    def test_fleet_survives_seeded_worker_churn(self):
        """Seeded chaos through the router: drive sessions while one
        worker dies mid-run; every surviving session still answers and
        the router's books balance (no session both lost and placed)."""
        import random

        rng = random.Random(7410)
        victim_index = -1
        workers = [ServerThread() for _ in range(3)]
        router = RouterThread(
            worker_addresses=[w.address for w in workers],
            failure_threshold=2,
        )
        try:
            with RuleClient(router.address) as client:
                sids = [
                    client.create_session(program=closure.PROGRAM)
                    for _ in range(9)
                ]
                for sid in sids:
                    client.assert_wmes(sid, CHAIN[:3], run=True)

                victim_index = rng.randrange(3)
                workers[victim_index].stop()

                for sid in list(sids):
                    for _ in range(3):
                        try:
                            client.assert_wmes(sid, CHAIN[3:], run=True)
                            break
                        except ServerError:
                            continue

                stats = client.stats()
                lost = set(stats["router"]["lost_sessions"])
                placed = set(router.router.placements)
                assert not lost & placed
                assert lost | placed == set(sids)
                healthy = [
                    w for w in stats["router"]["workers"] if w["healthy"]
                ]
                assert len(healthy) == 2
                for sid in placed:
                    assert client.session_stats(sid)["firings"] > 0
        finally:
            router.stop()
            for index, worker in enumerate(workers):
                if index != victim_index:
                    worker.stop()


class TestMigrationAccounting:
    def test_kill_during_migrate_keeps_books_balanced(self, tmp_path):
        """Seeded kill while a migrate_session is in flight: the books
        must still balance -- every session counted exactly once across
        placements/recovered/lost, no copy placed on two workers, and
        the migrating flag never wedged."""
        import random

        from repro.serve import DurabilityStore

        rng = random.Random(20260808)
        store = DurabilityStore(str(tmp_path))
        workers = [ServerThread(), ServerThread()]
        router = RouterThread(
            worker_addresses=[w.address for w in workers],
            durability=store,
        )
        try:
            with RuleClient(router.address) as client:
                sids = [
                    client.create_session(program=closure.PROGRAM, name=f"d{i}")
                    for i in range(6)
                ]
                for sid in sids:
                    client.assert_wmes(sid, CHAIN[:3], run=True)
                by_worker = {0: [], 1: []}
                for sid in sids:
                    by_worker[router.router.placements[sid].worker].append(sid)
                assert by_worker[0] and by_worker[1]

                victim = rng.randrange(2)
                moving = rng.choice(by_worker[victim])
                workers[victim].stop()

                # The migrate's export step lands on the dead worker;
                # whatever the reply, the accounting must balance.
                try:
                    client.request("migrate_session", session=moving)
                except ServerError:
                    pass

                placements = router.router.placements
                stats = client.stats()["router"]
                lost = stats["lost_sessions"]
                # Exactly-once: placed xor lost, nothing both or neither.
                assert set(lost) | set(placements) == set(sids)
                assert not set(lost) & set(placements)
                assert len(lost) == len(set(lost))
                # Durable recovery means nothing was actually lost ...
                assert lost == []
                assert sorted(stats["recovered_sessions"]) == sorted(
                    by_worker[victim]
                )
                # ... no placement wedged mid-migration ...
                for sid in sids:
                    assert placements[sid].migrating is False
                    assert placements[sid].worker == 1 - victim
                # ... and no second copy: only the survivor exists, and
                # it holds each session exactly once.
                with RuleClient(workers[1 - victim].address) as direct:
                    hosted = direct.list_sessions()
                assert sorted(hosted) == sorted(sids)

                # The moved session still serves, bit-identically.
                reference = ProductionSystem(closure.PROGRAM, matcher="rete")
                for batch in (CHAIN[:3], CHAIN[3:]):
                    reference.apply_changes(
                        [("assert", cls, attrs) for cls, attrs in batch]
                    )
                    reference.run()
                reply = client.assert_wmes(moving, CHAIN[3:], run=True)
                assert reply["ok"]
                expected = sorted(
                    [w.cls, sorted(w.attributes.items()), w.timetag]
                    for w in reference.memory.snapshot()
                )
                got = sorted(
                    [cls, sorted(attrs.items()), tag]
                    for cls, attrs, tag in client.query_wm(moving)
                )
                assert got == expected
        finally:
            router.stop()
            for worker in workers:
                try:
                    worker.stop()
                except Exception:
                    pass
            store.close()
