"""Multi-tenant serve semantics: shared kernels, quotas, migration.

Covers the tentpole contracts at the session layer:

* N sessions of one ruleset share a single compiled kernel -- the N-th
  create is all registry hits (no codegen, no module exec);
* ``describe()``/``stats()`` snapshots taken concurrently with working-
  memory mutation are consistent and side-effect-free;
* tenant quotas gate session admission, at the manager and -- with the
  one-kernel contract and bit-identical firings -- through a router
  fleet;
* export/import continues a session bit-identically (the migration
  path the router builds on);
* a parse and a kernel live as long as a session holds them, so a
  tenant sending ever-new programs does not grow the worker.
"""

import asyncio
import gc
import threading
import uuid

import pytest

from repro.kernel import clear_shared_kernels, shared_kernel_stats
from repro.ops5 import ProductionSystem
from repro.serve import RouterFleet, RuleClient, ServerError, ServerThread
from repro.serve.session import (
    QuotaExceeded,
    Session,
    SessionManager,
    clear_program_cache,
    shared_program_stats,
)
from repro.workloads.generator import emit_system_program
from repro.workloads.profiles import profile_named
from repro.workloads.programs import closure
from tests.kernel.test_cache import _growth_per_step

CLOSURE = closure.PROGRAM

EDGES = [["parent", {"from": f"n{i}", "to": f"n{i + 1}"}] for i in range(8)]


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_shared_kernels()
    clear_program_cache()
    yield
    clear_shared_kernels()
    clear_program_cache()


def _drive(session, edges=EDGES):
    session.perform({"op": "assert", "wmes": edges})
    return session.perform({"op": "run"})


class TestSharedKernelAcrossSessions:
    def test_nth_session_is_all_cache_hits(self):
        """The satellite-3 audit, pinned: concurrent sessions sharing a
        ruleset hit the kernel cache -- exactly one codegen miss and one
        module exec no matter how many sessions attach."""
        sessions = [
            Session(f"s{i}", program=CLOSURE, matcher="compiled")
            for i in range(6)
        ]
        try:
            replies = [_drive(s) for s in sessions]
        finally:
            for s in sessions:
                s.close_resources()
        stats = shared_kernel_stats()
        assert (stats["kernels"], stats["misses"]) == (1, 1)
        assert stats["attaches"] >= 6
        # The program text parsed once; later sessions reused it.
        assert shared_program_stats() == {"hits": 5, "misses": 1, "size": 1}
        # All sessions computed the same result.
        assert len({r["fired"] for r in replies}) == 1

    def test_a_fresh_program_compiles_once(self):
        tag = uuid.uuid4().hex
        program = CLOSURE + f"(p probe (parent ^from s{tag} ^to {int(tag[:12], 16)}) --> (halt))"
        seed = Session("seed", program=program, matcher="compiled")
        try:
            _drive(seed)
            for i in range(4):
                session = Session(f"s{i}", program=program, matcher="compiled")
                try:
                    _drive(session)
                finally:
                    session.close_resources()
            stats = shared_kernel_stats()
            assert (stats["kernels"], stats["misses"]) == (1, 1)
        finally:
            seed.close_resources()


class TestConcurrentSnapshots:
    @pytest.mark.parametrize("matcher", ["rete", "compiled"])
    def test_describe_during_mutation_is_consistent_and_side_effect_free(
        self, matcher
    ):
        """The peek_stats contract, extended to the whole stats row:
        snapshotting from another thread while the worker mutates WM
        must neither crash, nor corrupt the snapshot, nor perturb the
        run (same firings as an undisturbed session)."""
        undisturbed = Session("ref", program=CLOSURE, matcher=matcher)
        try:
            reference = _drive(undisturbed)
        finally:
            undisturbed.close_resources()

        session = Session("t", program=CLOSURE, matcher=matcher)
        stop = threading.Event()
        rows = []
        errors = []

        def snapshot_loop():
            while not stop.is_set():
                try:
                    rows.append(session.describe())
                except Exception as error:  # pragma: no cover - the bug
                    errors.append(error)

        thread = threading.Thread(target=snapshot_loop)
        thread.start()
        try:
            for edge in EDGES:
                session.perform({"op": "assert", "wmes": [edge]})
            reply = session.perform({"op": "run"})
            final = session.describe()
            rows.append(final)
        finally:
            stop.set()
            thread.join()
            session.close_resources()

        assert not errors
        assert (reply["fired"], reply["firings"]) == (
            reference["fired"],
            reference["firings"],
        )
        # 8 edges close to 36 ancestor pairs: 44 elements at quiescence.
        final_wm = 44
        for row in rows:
            # Each snapshot is internally consistent: WM is bounded by
            # the run's final size and no counter ever reads negative.
            assert 0 <= row["working_memory"] <= final_wm
            assert row["id"] == "t" and row["tenant"] == "default"
        # The live stats row says what conflict resolution cost: one
        # select per firing plus the one that found quiescence.
        conflict_set = final["metrics"]["conflict_set"]
        assert conflict_set["selects"] == reply["fired"] + 1
        assert conflict_set["members_examined"] >= reply["fired"]
        assert conflict_set["size"] == (
            conflict_set["total_inserts"] - conflict_set["total_deletes"]
        )


class TestTenantQuotas:
    def test_quota_gates_admission_and_frees_on_destroy(self):
        manager = SessionManager(default_tenant_quota=2)
        try:
            manager.create(program=CLOSURE, tenant="acme", name="a1")
            manager.create(program=CLOSURE, tenant="acme", name="a2")
            with pytest.raises(QuotaExceeded):
                manager.create(program=CLOSURE, tenant="acme", name="a3")
            # Another tenant has its own budget.
            manager.create(program=CLOSURE, tenant="globex", name="g1")
            asyncio.run(manager.destroy("a1"))
            manager.create(program=CLOSURE, tenant="acme", name="a4")
            tenants = manager.tenant_stats()
            assert tenants["acme"]["sessions"] == 2
            assert tenants["acme"]["quota_rejections"] == 1
            assert tenants["globex"]["sessions"] == 1
        finally:
            asyncio.run(manager.drain_all())

    def test_explicit_quota_overrides_default(self):
        manager = SessionManager(
            tenant_quotas={"vip": 3}, default_tenant_quota=1
        )
        try:
            for i in range(3):
                manager.create(program=CLOSURE, tenant="vip", name=f"v{i}")
            manager.create(program=CLOSURE, tenant="other", name="o0")
            with pytest.raises(QuotaExceeded):
                manager.create(program=CLOSURE, tenant="other", name="o1")
        finally:
            asyncio.run(manager.drain_all())

    def test_fleet_quota_is_exact_on_one_shared_kernel(self):
        """Through an embedded router fleet: each tenant asking for
        ``quota + k`` sessions of one ruleset gets exactly ``k`` quota
        replies, the whole fleet costs one codegen miss and one module
        exec, and every admitted session fires as a direct engine does."""
        quota, extra = 3, 2
        reference = ProductionSystem(CLOSURE, matcher="compiled")
        reference.apply_changes([("assert", cls, attrs) for cls, attrs in EDGES])
        expected = [
            [cycle.production, list(cycle.timetags)]
            for cycle in reference.run().cycles
        ]
        assert expected

        with RouterFleet(workers=2, default_tenant_quota=quota) as fleet:
            with RuleClient(fleet.address) as client:
                for tenant in ("acme", "globex"):
                    admitted, rejected = [], 0
                    for _ in range(quota + extra):
                        try:
                            admitted.append(
                                client.create_session(
                                    program=CLOSURE,
                                    matcher="compiled",
                                    tenant=tenant,
                                )
                            )
                        except ServerError as error:
                            assert error.reply["error"] == "quota", error.reply
                            rejected += 1
                    assert (len(admitted), rejected) == (quota, extra)
                    for sid in admitted:
                        client.assert_wmes(sid, EDGES)
                        assert client.run(sid)["firings"] == expected
        assert shared_kernel_stats()["misses"] == 1


class TestExportImport:
    def test_export_restore_continues_bit_identically(self):
        reference = Session("ref", program=CLOSURE)
        try:
            full = _drive(reference)
        finally:
            reference.close_resources()

        source = Session("src", program=CLOSURE, tenant="acme")
        try:
            source.perform({"op": "assert", "wmes": EDGES[:4]})
            source.perform({"op": "run"})
            payload = source.perform({"op": "export"})
            source.perform({"op": "assert", "wmes": EDGES[4:]})
            tail = source.perform({"op": "run"})
        finally:
            source.close_resources()

        assert payload["ok"]
        assert payload["config"]["tenant"] == "acme"
        target = Session(
            "dst",
            program=payload["config"]["program"],
            strategy=payload["config"]["strategy"],
            state=payload["state"],
        )
        try:
            target.perform({"op": "assert", "wmes": EDGES[4:]})
            continued = target.perform({"op": "run"})
        finally:
            target.close_resources()

        # The migrated continuation equals the unmigrated one exactly.
        assert continued["firings"] == tail["firings"]
        # And pre+post firings together cover the single-session run.
        assert len(continued["firings"]) < len(full["firings"])


class TestHeapStaysFlat:
    """A served program costs what its live sessions cost (Section 3.1):
    its parse and its kernel leave with the last session holding them."""

    def test_distinct_programs_through_destroyed_sessions_leave_nothing(self):
        # Each program has its own constants (its own parse and kernel)
        # under one production name and action, so the act phase's
        # bounded per-text compile cache sees one text.
        def program(tag):
            return f"(p probe (goal ^want {tag}) (block ^color <c> ^size > 2) --> (halt))"

        with ServerThread() as harness, RuleClient(harness.address) as client:

            def churn(k):
                for i in range(100):
                    sid = client.create_session(program=program(f"r{k}-{i}"), matcher="compiled")
                    client.assert_wmes(sid, [["goal", {"want": f"r{k}-{i}"}]])
                    client.destroy_session(sid)

            growth = _growth_per_step(churn)
        assert max(growth) < 100_000, growth
        assert shared_kernel_stats()["kernels"] == shared_program_stats()["size"] == 0
        assert shared_kernel_stats()["misses"] == shared_program_stats()["misses"] == 400

    def test_a_lane_costs_its_wmes_and_little_else(self):
        """The r1-soar program without its ``ctx`` WME (the halt rule
        never fires), fed lanes of 7 ``item`` asserts and a ``task``: a
        run leaves 28 WMEs per lane (7 items, 21 marks).  With a
        right-index bucket of one being the WME itself, what else a lane
        keeps is well under two objects; with a one-entry dict per join
        slot it was 63 more (90 per lane in all)."""
        program = emit_system_program(profile_named("r1-soar")).source
        session = Session("census", program=program, matcher="compiled")

        def lanes(first, count):
            for k in range(first, first + count):
                items = [["item", {"lane": f"L{k}", "kind": f"k{b}", "val": 10 + b}]
                         for b in range(7)]
                session.perform(
                    {"op": "assert", "wmes": [*items, ["task", {"stage": 0, "lane": f"L{k}"}]],
                     "run": True}
                )

        def tracked():
            gc.collect()
            return len(gc.get_objects())

        lanes(0, 10)  # warm: kernel built, act-phase texts compiled
        before = tracked()
        lanes(10, 100)
        per_lane = (tracked() - before) / 100
        assert len(session.system.memory) == 110 * 28
        assert per_lane <= 30, per_lane
