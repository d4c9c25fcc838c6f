"""End-to-end server tests over a real socket: lifecycle, isolation,
backpressure, and graceful shutdown."""

import multiprocessing
import threading
import time

import pytest

from repro.ops5 import ProductionSystem
from repro.serve import BackpressureError, RuleClient, ServerError, ServerThread
from repro.serve.durability import validate_engine_state
from repro.workloads.programs import closure
from tests.serve.conftest import WAIT

CHAIN = [["parent", {"from": f"n{i}", "to": f"n{i + 1}"}] for i in range(6)]


@pytest.fixture(scope="module")
def server():
    """One shared server for the read-mostly tests in this module."""
    with ServerThread() as harness:
        yield harness


def test_ping_and_list_sessions(server):
    with RuleClient(server.address) as client:
        assert client.ping()["ok"] is True
        assert client.ping(payload="x")["pong"] == "x"
        assert client.list_sessions() == []


def test_full_session_lifecycle(server):
    with RuleClient(server.address) as client:
        sid = client.create_session(program=closure.PROGRAM, matcher="rete", name="life")
        try:
            assert sid == "life"
            assert "life" in client.list_sessions()
            reply = client.assert_wmes(sid, CHAIN, run=True)
            assert reply["run"]["fired"] == closure.expected_chain_facts(6)
            wm = client.query_wm(sid)
            assert len(wm) == 6 + closure.expected_chain_facts(6)
            stats = client.session_stats(sid)
            assert stats["firings"] == closure.expected_chain_facts(6)
            assert stats["matcher"] == "rete"
        finally:
            client.destroy_session(sid)
        assert "life" not in client.list_sessions()


@pytest.mark.parametrize(
    "matcher,partitions", [("rete", None), ("treat", None), ("parallel", 2)]
)
def test_served_results_bit_identical_to_direct_run(server, matcher, partitions):
    """The acceptance criterion, through a real socket and any backend
    (``parallel`` on its default partitions, read back from stats)."""
    direct = ProductionSystem(closure.PROGRAM, matcher="rete")
    direct.apply_changes([("assert", cls, attrs) for cls, attrs in CHAIN])
    expected = direct.run()
    expected_wm = sorted(
        (w.cls, tuple(sorted(w.attributes.items())), w.timetag)
        for w in direct.memory.snapshot()
    )

    with RuleClient(server.address) as client:
        sid = client.create_session(program=closure.PROGRAM, matcher=matcher)
        try:
            # Ingest in deliberately ragged batches: 1, 2, then the rest.
            client.assert_wmes(sid, CHAIN[:1])
            client.assert_wmes(sid, CHAIN[1:3])
            client.assert_wmes(sid, CHAIN[3:])
            reply = client.run(sid)
            assert [
                (name, tuple(tags)) for name, tags in reply["firings"]
            ] == [(c.production, c.timetags) for c in expected.cycles]
            served_wm = sorted(
                (cls, tuple(sorted(attrs.items())), tag)
                for cls, attrs, tag in client.query_wm(sid)
            )
            assert served_wm == expected_wm
            kernel = client.session_stats(sid)["metrics"].get("kernel")
            if partitions is not None:
                assert kernel["partitions"]["count"] == partitions
        finally:
            client.destroy_session(sid)


def test_concurrent_sessions_are_isolated(server):
    """N sessions ingesting interleaved batches never observe each other."""
    expected = closure.expected_chain_facts(6)
    with RuleClient(server.address) as client:
        sids = [
            client.create_session(program=closure.PROGRAM) for _ in range(3)
        ]
        try:
            # Interleave ingestion across sessions, then run each.
            for start, stop in [(0, 2), (2, 4), (4, 6)]:
                for sid in sids:
                    client.assert_wmes(sid, CHAIN[start:stop])
            for sid in sids:
                assert client.run(sid)["fired"] == expected
                assert len(client.query_wm(sid)) == 6 + expected
        finally:
            for sid in sids:
                client.destroy_session(sid)


def test_errors_are_replies_not_disconnects(server):
    with RuleClient(server.address) as client:
        with pytest.raises(ServerError, match="no session"):
            client.run("nope")
        with pytest.raises(ServerError, match="not literalized"):
            client.create_session(
                program="(literalize a x)\n(p r (a ^y 1) --> (halt))"
            )
        sid = client.create_session(program=closure.PROGRAM)
        try:
            with pytest.raises(ServerError, match="unknown"):
                client.request("query", session=sid, what="everything")
            # The connection and the session both survived all of that.
            assert client.ping()["ok"] is True
            assert sid in client.list_sessions()
        finally:
            client.destroy_session(sid)


def test_a_value_that_is_not_a_symbol_or_number_is_a_typed_refusal(server):
    """Lists, objects, booleans, null and NaN (a JSON ``NaN`` decodes to
    one) never reach working memory: the reply is an error, the session
    holds what it held before, and its state still exports as a valid
    checkpoint."""
    with RuleClient(server.address) as client:
        sid = client.create_session(program=closure.PROGRAM, matcher="compiled")
        try:
            client.assert_wmes(sid, CHAIN[:1])
            for bad in ([1, 2], {"k": 1}, True, None, float("nan")):
                with pytest.raises(ServerError, match="neither a symbol nor a number"):
                    client.assert_wmes(sid, [["parent", {"from": "n9", "to": bad}]])
                with pytest.raises(ServerError, match="neither a symbol nor a number"):
                    client.request("modify", session=sid, changes=[[1, {"to": bad}]])
            assert client.query_wm(sid) == [["parent", CHAIN[0][1], 1]]
            exported = client.request("export", session=sid)
            assert validate_engine_state(exported["state"]) is None
        finally:
            client.destroy_session(sid)


def test_a_malformed_change_or_max_cycles_is_refused_before_anything_lands(server):
    """A change of unknown kind, wrong arity or a non-int timetag
    anywhere in a batch, or a ``max_cycles`` that is not an int >= 0,
    answers a typed error -- not ``internal`` -- and nothing lands."""
    with RuleClient(server.address) as client:
        sid = client.create_session(program=closure.PROGRAM, matcher="compiled")
        try:
            good = ["assert", *CHAIN[0]]
            for bad in (["assert", "parent"], ["retract"], ["bogus", 1], ["retract", True]):
                with pytest.raises(ServerError) as refused:
                    client.request("apply", session=sid, changes=[good, bad])
                assert not refused.value.reply["error"].startswith("internal")
            for bad in ("5", True, 2.5, -1):
                with pytest.raises(ServerError, match="max_cycles must be"):
                    client.assert_wmes(sid, CHAIN[:1], run=True, max_cycles=bad)
                with pytest.raises(ServerError, match="max_cycles must be"):
                    client.request("run", session=sid, max_cycles=bad)
            assert client.query_wm(sid) == []
            assert client.request("query", session=sid, what="conflict-set") == {
                "ok": True,
                "instantiations": [],
            }
            assert client.assert_wmes(sid, CHAIN[:1])["timetags"] == [1]
        finally:
            client.destroy_session(sid)


def test_backpressure_rejects_then_recovers():
    """A hammered one-deep queue rejects loudly but loses nothing."""
    with ServerThread() as harness:
        with RuleClient(harness.address) as control:
            sid = control.create_session(
                program=closure.PROGRAM, max_pending=1
            )

            rejections = []
            errors = []

            def hammer(index):
                try:
                    with RuleClient(harness.address) as client:
                        for i in range(4):
                            wme = [
                                "parent",
                                {"from": f"t{index}.{i}", "to": f"t{index}.{i + 1}"},
                            ]
                            while True:
                                try:
                                    client.request(
                                        "assert", session=sid, wmes=[wme], run=True
                                    )
                                    break
                                except BackpressureError as rejected:
                                    rejections.append(rejected.retry_after)
                                    time.sleep(rejected.retry_after)
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert not errors
            for hint in rejections:
                assert 0 < hint <= 2.0
            # No dropped session state: every asserted edge is in WM.
            wm = control.query_wm(sid)
            parents = [attrs for cls, attrs, _ in wm if cls == "parent"]
            assert len(parents) == 16
            stats = control.session_stats(sid)
            assert stats["rejected"] == len(rejections)
            control.destroy_session(sid)


def _replay_chains(address, sid, prefix, batches, length, on_retry=None):
    """Assert *batches* disjoint closure chains into *sid*, each followed
    by a run, through ``RuleClient.call``; returns the firings replied."""
    fired = 0
    with RuleClient(address) as client:
        for batch in range(batches):
            wmes = [
                ["parent", {"from": f"{prefix}{batch}.{i}", "to": f"{prefix}{batch}.{i + 1}"}]
                for i in range(length)
            ]
            client.call("assert", session=sid, wmes=wmes, on_retry=on_retry)
            fired += client.call("run", session=sid, on_retry=on_retry)["fired"]
    return fired


def _in_threads(count, target):
    """Run ``target(index)`` on *count* threads; returns results, errors."""
    results, errors = [], []

    def body(index):
        try:
            results.append(target(index))
        except Exception as error:  # pragma: no cover - reported below
            errors.append(error)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, errors


def test_shared_session_engages_backpressure_without_loss(hold):
    """Four clients on one session with a one-deep queue: ``call`` sleeps
    out every rejection, and the work done is exact.  The session's first
    op, a ``run`` on an empty WM, is held at a slice boundary until a
    client is rejected, so the queue is full while the clients send: one
    request waits behind the held op and the next is refused."""
    with ServerThread() as harness, RuleClient(harness.address) as control:
        sid = control.create_session(program=closure.PROGRAM, max_pending=1)
        rejections = []

        def rejected(reply):
            rejections.append(reply)
            hold.release("first")

        held = []
        with RuleClient(harness.address) as first:
            parked = threading.Thread(
                target=lambda: held.append(first.request("run", session=sid, hold="first"))
            )
            parked.start()
            try:
                hold.wait_entered()
                fired, errors = _in_threads(
                    4,
                    lambda i: _replay_chains(
                        harness.address, sid, f"c{i}.", 2, 12, on_retry=rejected
                    ),
                )
            finally:
                hold.release("first")
                parked.join(WAIT)
        assert not parked.is_alive()
        assert errors == []
        assert rejections
        assert held[0]["fired"] == 0
        expected = 4 * 2 * closure.expected_chain_facts(12)
        assert sum(fired) == expected
        stats = control.session_stats(sid)
        assert stats["firings"] == expected
        assert stats["rejected"] == len(rejections)
        control.destroy_session(sid)


def test_server_totals_match_client_sums_across_destroyed_sessions():
    """Concurrent clients, one session each, destroyed afterwards: the
    server's rolled-up totals equal what the clients were answered."""
    with ServerThread() as harness, RuleClient(harness.address) as control:
        before = control.stats()["totals"]

        def client(index):
            with RuleClient(harness.address) as own:
                sid = own.create_session(program=closure.PROGRAM)
                fired = _replay_chains(harness.address, sid, f"c{index}.", 2, 4)
                own.destroy_session(sid)
                return fired

        fired, errors = _in_threads(2, client)
        assert errors == []
        after = control.stats()["totals"]
        expected = 2 * 2 * closure.expected_chain_facts(4)
        assert sum(fired) == expected
        assert after["firings"] - before["firings"] == expected
        assert after["wme_changes"] - before["wme_changes"] == expected + 2 * 2 * 4
        assert control.list_sessions() == []


def test_graceful_shutdown_drains_and_reaps():
    """Shutdown finishes in-flight work and leaves no worker processes."""
    harness = ServerThread()
    with RuleClient(harness.address) as client:
        sid = client.create_session(
            program=closure.PROGRAM, matcher="parallel"
        )
        client.assert_wmes(sid, CHAIN)
        reply = client.shutdown_server()
        assert reply["draining_sessions"] == 1
        harness.join(30)
        assert not harness._thread.is_alive()
    for _ in range(100):
        if not multiprocessing.active_children():
            break
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


def test_requests_after_shutdown_are_refused():
    harness = ServerThread()
    with RuleClient(harness.address) as client:
        client.create_session(program=closure.PROGRAM, name="gone")
        client.shutdown_server()
        harness.join(30)
    with pytest.raises((ConnectionError, OSError)):
        probe = RuleClient(harness.address)
        probe.ping()


def test_import_session_round_trips_a_real_export(server):
    with RuleClient(server.address) as client:
        sid = client.create_session(program=closure.PROGRAM)
        try:
            client.assert_wmes(sid, CHAIN[:3], run=True)
            exported = client.request("export", session=sid)
            copy = client.request(
                "import_session",
                name="copy-of-export",
                config=exported["config"],
                state=exported["state"],
            )
            assert copy["ok"]
            try:
                assert client.query_wm("copy-of-export") == client.query_wm(sid)
            finally:
                client.destroy_session("copy-of-export")
        finally:
            client.destroy_session(sid)


def test_import_session_rejects_bad_state_payloads(server):
    """Malformed, truncated, or schema-mismatched engine-state blobs
    arriving over the wire become a typed ``bad_state`` reply -- never a
    traceback, never a half-imported session."""
    with RuleClient(server.address) as client:
        sid = client.create_session(program=closure.PROGRAM)
        try:
            exported = client.request("export", session=sid)
            config, state = exported["config"], exported["state"]

            def refused(detail_match, **kwargs):
                with pytest.raises(ServerError, match="bad_state") as caught:
                    client.request("import_session", name="junk", **kwargs)
                assert detail_match in caught.value.reply["detail"]
                assert "junk" not in client.list_sessions()

            refused("config must be", config="not a dict", state=state)
            refused("JSON object", config=config, state=[1, 2, 3])
            refused("schema", config=config,
                    state={**state, "schema": "repro.engine-state/9"})
            refused("triple", config=config,
                    state={**state, "wmes": [[1, "c"]]})  # truncated wme
            refused("positive integer", config=config,
                    state={**state, "wmes": [[True, "c", {}]]})
            refused("duplicate", config=config,
                    state={**state, "wmes": [[1, "c", {}], [1, "d", {}]]})
            refused("neither a symbol nor a number", config=config,
                    state={**state, "wmes": [[1, "c", {"v": float("nan")}]],
                           "next_timetag": 2})
            refused("next_timetag", config=config,
                    state={**state, "next_timetag": 0})
            refused("halted", config=config, state={**state, "halted": "no"})
            # Validation passed but the engine refuses: the config's
            # program does not parse.  Still a typed reply.
            refused("", config={**config, "program": "(p broken"}, state=state)

            # The connection and the original session survived it all.
            assert client.ping()["ok"] is True
            assert sid in client.list_sessions()
        finally:
            client.destroy_session(sid)
