"""What a relaying router must not change.

A durable router decodes a session op only to route it: the payload the
client sent is journaled, spliced in as the line's ``request``, and
forwarded to the worker unchanged, and the worker's reply payload comes
back unchanged.  So the journal holds exactly the request the worker
executed, a ``RuleClient`` stream journals the bytes ``json.dumps`` of
each request gave before the relay, and the tombstones of ops a worker
refused still land.
"""

import json
import os
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.ops5 import ProductionSystem
from repro.serve import (
    BackpressureError,
    DurabilityStore,
    RouterFleet,
    RouterThread,
    RuleClient,
    ServerThread,
)
from repro.serve.protocol import frame, recv_message
from repro.workloads.programs import closure
from tests.serve.conftest import WAIT


def edge(a, b):
    return ["parent", {"from": a, "to": b}]


def wal_lines(root, session_id) -> list[str]:
    with open(os.path.join(root, f"{session_id}.wal"), encoding="utf-8") as handle:
        return handle.read().splitlines()


def send(address, op, **fields):
    with RuleClient(address, timeout=WAIT) as client:
        return client.request(op, **fields)


def test_a_client_request_is_journaled_as_json_dumps_of_it(tmp_path):
    requests = [
        {"op": "assert", "session": "j",
         "wmes": [edge("a", "b"), ["parent", {"from": 'é"\\', "to": 1.5}]]},
        {"op": "run", "session": "j", "max_cycles": 3},
        {"op": "modify", "session": "j", "changes": [[1, {"to": "c"}]], "deadline": 30},
        {"op": "apply", "session": "j",
         "changes": [["retract", 2], ["assert", "parent", {"from": "x", "to": -0.0}]]},
    ]
    store = DurabilityStore(str(tmp_path))
    try:
        with RouterFleet(
            workers=1, durability=store, checkpoint_every=0
        ) as fleet, RuleClient(fleet.address, timeout=WAIT) as client:
            client.create_session(program=closure.PROGRAM, name="j")
            for request in requests:
                fields = {key: value for key, value in request.items() if key != "op"}
                assert client.request(request["op"], **fields)["ok"]
    finally:
        store.close()
    assert wal_lines(tmp_path, "j") == [
        json.dumps({"seq": seq, "request": request}, separators=(",", ":"))
        for seq, request in enumerate(requests, 1)
    ]


def test_a_raw_request_is_journaled_as_sent_and_replays_to_the_serial_firings(tmp_path):
    """Whitespace, reordered keys and line breaks: the journal holds the
    client's text (a line break as a space), and after the hosting
    worker dies its replay continues like a serial ``compiled`` engine."""
    raw = (
        b' {\n  "wmes" : [["parent", {"to": "b", "from": "a"}],\t["parent",{"from":"b",'
        b'"to":"c"}]],\r\n "run": true, "session": "raw", "op": "assert" } '
    )
    serial = ProductionSystem(closure.PROGRAM, matcher="compiled")
    serial.apply_changes([("assert", "parent", {"to": "b", "from": "a"}),
                          ("assert", "parent", {"from": "b", "to": "c"})])
    first = serial.run()
    store = DurabilityStore(str(tmp_path))
    workers = [ServerThread(), ServerThread()]
    router = RouterThread(
        worker_addresses=[w.address for w in workers], durability=store,
        checkpoint_every=0,
    )
    try:
        with RuleClient(router.address, timeout=WAIT) as client:
            client.create_session(program=closure.PROGRAM, name="raw")
            with socket.create_connection(router.address, timeout=WAIT) as sock:
                sock.sendall(frame(raw))
                reply = recv_message(sock)
            assert reply["run"]["firings"] == [
                [cycle.production, list(cycle.timetags)] for cycle in first.cycles
            ]
            spliced = raw.decode().replace("\n", " ").replace("\r", " ")
            assert wal_lines(tmp_path, "raw") == [f'{{"seq":1,"request":{spliced}}}']

            workers[router.router.placements["raw"].worker].stop()
            serial.add("parent", **{"from": "c", "to": "d"})
            then = serial.run()
            reply = client.assert_wmes("raw", [edge("c", "d")], run=True)
            assert router.router.recovered_sessions == ["raw"]
            assert reply["run"]["firings"] == [
                [cycle.production, list(cycle.timetags)] for cycle in then.cycles
            ]
            assert sorted(row[2] for row in client.query_wm("raw")) == sorted(
                w.timetag for w in serial.memory.snapshot()
            )
    finally:
        router.stop()
        for worker in workers:
            worker.stop()
        store.close()


def test_a_backpressured_op_is_tombstoned_through_the_relay(tmp_path, hold):
    """A durable router forwards one op per session at a time, so only
    another client of the worker can fill a session's queue; the op the
    worker then refuses unopened is tombstoned, not replayed."""
    store = DurabilityStore(str(tmp_path))
    try:
        with RouterFleet(
            workers=1, durability=store, checkpoint_every=0
        ) as fleet, RuleClient(fleet.address, timeout=WAIT) as client, ThreadPoolExecutor(
            2
        ) as pool:
            worker = fleet.endpoints[1]
            sid = client.create_session(program=closure.PROGRAM, max_pending=1)
            held = pool.submit(
                send, worker.address, "assert", session=sid, wmes=[edge("x", "y")],
                hold="busy",
            )
            hold.wait_entered()
            queued = pool.submit(send, worker.address, "run", session=sid)
            session = worker.sessions.get(sid)
            give_up = time.monotonic() + WAIT
            while session.queue_depth < 1:
                assert time.monotonic() < give_up, "the second op never queued"
                time.sleep(0.005)
            with pytest.raises(BackpressureError):
                client.request("assert", session=sid, wmes=[edge("a", "b")])
            hold.release("busy")
            held.result(WAIT)
            queued.result(WAIT)
            assert client.assert_wmes(sid, [edge("b", "c")])["timetags"] == [3]
            bundle = store.load(sid)
            assert [record.seq for record in bundle.records] == [2]
            assert bundle.last_seq == 2
            assert '{"seq":1,"skip":true}' in wal_lines(tmp_path, sid)
    finally:
        store.close()


def test_the_journal_counts_the_bytes_it_writes(tmp_path):
    """A client's text is journaled as UTF-8, so the append counter
    counts bytes, not characters."""
    store = DurabilityStore(str(tmp_path))
    try:
        store.register("u", {"program": ""})
        store.append("u", 1, '{"op":"assert","session":"u","wmes":[["é",{}]]}'.encode())
        store.mark_skipped("u", 1)
        appended = store.stats()["bytes_appended"]
    finally:
        store.close()
    assert appended == os.path.getsize(tmp_path / "u.wal")
    assert [record.seq for record in store.load("u").records] == []
