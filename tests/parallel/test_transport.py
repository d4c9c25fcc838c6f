"""What is left of the ``transport`` and ``workers`` seams.

The process transports (pipe, ring, auto) were deleted with the
interpreted shards they carried.  ``matcher_named("parallel",
workers=N, transport="local")`` survives because callers outside this
tree spell it that way; every other transport is refused by name.  The
rule server has neither option: a session's ``parallel`` matcher runs
its default partitions on every worker, so ``create_session``,
``import_session`` and a durable router replaying a journalled config
refuse both instead of honouring them on one worker and dropping them
on the next.
"""

import pytest

from repro.ops5 import Ops5Error, matcher_named
from repro.serve import (
    DurabilityStore,
    RouterFleet,
    RouterThread,
    RuleClient,
    ServerError,
    ServerThread,
)
from repro.workloads.programs import closure

CHAIN = [("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(5)]


def test_matcher_rejects_unknown_transport():
    for transport in ("pipe", "ring", "auto", "telepathy"):
        with pytest.raises(Ops5Error, match="removed"):
            matcher_named("parallel", workers=1, transport=transport)
    # The benchmark's spelling still builds the one backend there is.
    assert matcher_named("parallel", workers=2, transport="local").partitions == 2


@pytest.mark.parametrize("front", [ServerThread, RouterFleet], ids=["server", "router"])
def test_create_session_request_refuses_workers_and_transport(front):
    with front() as server, RuleClient(server.address) as client:
        kept = client.create_session(program=closure.PROGRAM, matcher="parallel")
        client.assert_wmes(kept, CHAIN, run=True)
        for option in ({"workers": 1}, {"transport": "local"}, {"transport": "ring"}):
            with pytest.raises(ServerError, match="removed_option"):
                client.request(
                    "create_session", program=closure.PROGRAM, matcher="parallel",
                    **option,
                )
        with pytest.raises(ServerError, match="removed_option"):
            client.request(
                "create_session", program=closure.PROGRAM, matcher="rete", workers=2
            )
        assert client.list_sessions() == [kept]
        client.destroy_session(kept)


def test_stored_config_naming_a_removed_transport_is_refused(tmp_path):
    """Configs journalled before the removal: one naming neither option
    resumes; one naming a transport or a partition count is reported
    lost instead of crashing the router or coming back reshaped."""
    base = {"program": closure.PROGRAM, "matcher": "parallel", "tenant": "default"}
    store = DurabilityStore(str(tmp_path))
    store.register("kept", base)
    store.register("gone", {**base, "transport": "pipe"})
    store.register("resized", {**base, "workers": 4})
    worker = ServerThread()
    router = RouterThread(worker_addresses=[worker.address], durability=store)
    try:
        with RuleClient(router.address) as client:
            assert client.list_sessions() == ["kept"]
            assert client.assert_wmes("kept", CHAIN, run=True)["run"]["fired"] > 0
            assert client.stats()["router"]["lost_sessions"] == ["gone", "resized"]
    finally:
        router.stop()
        worker.stop()
        store.close()
