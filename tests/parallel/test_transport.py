"""What is left of the ``transport`` seam: one legal value, ``"local"``.

The process transports (pipe, ring, auto) were deleted with the
interpreted shards they carried.  The keyword survives on
:class:`ParallelMatcher` because callers outside this tree pass
``transport="local"``; everything else must be refused by name, at the
matcher, at the server's ``create_session`` op, and when a durable
router replays a session config journalled before the removal.
"""

import pytest

from repro.ops5 import Ops5Error, matcher_named
from repro.parallel import ParallelMatcher
from repro.serve import DurabilityStore, RouterThread, RuleClient, ServerError, ServerThread
from repro.workloads.programs import closure

CHAIN = [("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(5)]


def test_matcher_rejects_unknown_transport():
    for transport in ("pipe", "ring", "auto", "telepathy"):
        with pytest.raises(Ops5Error, match="removed"):
            ParallelMatcher(workers=1, transport=transport)
    # The benchmark's spelling still builds the one backend there is.
    assert matcher_named("parallel", workers=2, transport="local").workers == 2


def test_create_session_request_accepts_only_the_local_transport():
    with ServerThread() as server, RuleClient(server.address) as client:
        kept = client.request(
            "create_session", program=closure.PROGRAM, matcher="parallel",
            workers=1, transport="local",
        )["session"]
        client.assert_wmes(kept, CHAIN, run=True)
        with pytest.raises(ServerError, match="'ring' is not available"):
            client.request(
                "create_session", program=closure.PROGRAM, matcher="parallel",
                workers=1, transport="ring",
            )
        assert client.list_sessions() == [kept]
        client.destroy_session(kept)


def test_stored_config_naming_a_removed_transport_is_refused(tmp_path):
    """A config journalled before the removal: ``local`` resumes, a
    process transport is reported lost instead of crashing the router."""
    base = {"program": closure.PROGRAM, "matcher": "parallel", "workers": 1,
            "tenant": "default"}
    store = DurabilityStore(str(tmp_path))
    store.register("kept", {**base, "transport": "local"})
    store.register("gone", {**base, "transport": "pipe"})
    worker = ServerThread()
    router = RouterThread(worker_addresses=[worker.address], durability=store)
    try:
        with RuleClient(router.address) as client:
            assert client.list_sessions() == ["kept"]
            assert client.assert_wmes("kept", CHAIN, run=True)["run"]["fired"] > 0
            assert client.stats()["router"]["lost_sessions"] == ["gone"]
    finally:
        router.stop()
        worker.stop()
        store.close()
