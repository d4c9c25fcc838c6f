"""The shared-kernel registry: build once, attach per session.

The tentpole contract for multi-tenant serve: the N-th matcher built
over an already-compiled ruleset performs **zero** codegen -- no cache
miss, no module exec -- and its setup cost is closure construction plus
an O(working-memory) replay.  Sessions share the code object and build
function but never any mutable match state.
"""

import sys
import threading
import uuid

import pytest

from repro.kernel import (
    CompiledMatcher,
    clear_shared_kernels,
    shared_kernel,
    shared_kernel_stats,
)
from repro.ops5 import parse_program
from repro.ops5.conflict import ConflictSet
from repro.ops5.wme import WME, WorkingMemory

SRC = """
  (p match (goal ^want <c>) (block ^color <c> ^size > 2) --> (halt))
  (p absent (goal ^want <c>) - (block ^color <c>) --> (halt))
"""

RENAMED = SRC.replace("match", "find").replace("absent", "missing")


@pytest.fixture(autouse=True)
def fresh_registries():
    clear_shared_kernels()
    yield
    clear_shared_kernels()


def _fresh_productions(src=SRC):
    return parse_program(src).productions


class TestRegistry:
    def test_same_shape_resolves_to_one_kernel(self):
        a = shared_kernel(_fresh_productions())
        b = shared_kernel(_fresh_productions())
        c = shared_kernel(_fresh_productions(RENAMED))
        assert b is a and c is a
        assert shared_kernel_stats() == {"kernels": 1, "hits": 2, "misses": 1, "attaches": 0}

    def test_different_shapes_get_distinct_kernels(self):
        a = shared_kernel(_fresh_productions())
        b = shared_kernel(_fresh_productions(SRC.replace("> 2", "> 3")))
        assert b is not a
        assert shared_kernel_stats()["kernels"] == 2

    def test_attach_counts(self):
        kernel = shared_kernel(_fresh_productions())
        for _ in range(3):
            kernel.attach(ConflictSet(), _fresh_productions())
        assert kernel.attaches == 3
        assert shared_kernel_stats() == {"kernels": 1, "hits": 0, "misses": 1, "attaches": 3}


    def test_concurrent_first_lookups_compile_once(self):
        """Racing sessions of a new shape: one miss (one codegen and one
        exec), one kernel, and every attach counted."""
        kernels, errors = [], []
        barrier = threading.Barrier(6)

        def session():
            try:
                barrier.wait(timeout=30)
                kernel = shared_kernel(_fresh_productions())
                for _ in range(20):
                    kernel.attach(ConflictSet(), _fresh_productions())
                kernels.append(kernel)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=session) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(kernels) == 6 and all(k is kernels[0] for k in kernels)
        assert shared_kernel_stats() == {"kernels": 1, "hits": 5, "misses": 1, "attaches": 120}


class TestWarmAttach:
    def test_nth_matcher_performs_zero_codegen(self):
        # Cold first session: one miss (codegen, compile, exec).
        first = CompiledMatcher()
        for p in _fresh_productions():
            first.add_production(p)
        memory = WorkingMemory()
        first.add_wme(memory.add(WME("goal", {"want": "red"})))
        assert shared_kernel_stats()["misses"] == 1

        # Warm sessions: the miss counter must not move.
        for i in range(8):
            matcher = CompiledMatcher()
            for p in _fresh_productions():
                matcher.add_production(p)
            wm = WorkingMemory()
            matcher.add_wme(wm.add(WME("goal", {"want": "red"})))
            matcher.add_wme(wm.add(WME("block", {"color": "red", "size": 3})))
            assert shared_kernel_stats()["misses"] == 1
            assert shared_kernel_stats()["hits"] == i + 1
            assert matcher.kernels == first.kernels

    def test_warm_attach_of_a_fresh_program_compiles_once(self):
        tag = uuid.uuid4().hex
        src = SRC + f"(p probe (goal ^want s{tag} ^size {int(tag[:12], 16)}) --> (halt))"
        seed = CompiledMatcher()
        for p in _fresh_productions(src):
            seed.add_production(p)
        wm = WorkingMemory()
        seed.add_wme(wm.add(WME("goal", {"want": "red"})))
        for _ in range(5):
            matcher = CompiledMatcher()
            for p in _fresh_productions(src):
                matcher.add_production(p)
            session_wm = WorkingMemory()
            matcher.add_wme(session_wm.add(WME("goal", {"want": "red"})))
        assert shared_kernel_stats()["misses"] == 1

    def test_attach_replays_existing_wm(self):
        kernel = shared_kernel(_fresh_productions())
        wm = WorkingMemory()
        wmes = [
            wm.add(WME("goal", {"want": "red"})),
            wm.add(WME("block", {"color": "red", "size": 3})),
        ]
        cs = ConflictSet()
        runtime = kernel.attach(cs, _fresh_productions(), wmes)
        # Rows, not WMEs: the goal WME lands in both productions' stores.
        assert runtime.state_size() == 3
        assert any(key[0] == "match" for key in cs.snapshot())


class TestSessionIsolation:
    def test_sessions_share_code_but_not_state(self):
        a, b = CompiledMatcher(), CompiledMatcher()
        for matcher in (a, b):
            for p in _fresh_productions():
                matcher.add_production(p)
        wm_a, wm_b = WorkingMemory(), WorkingMemory()
        a.add_wme(wm_a.add(WME("goal", {"want": "red"})))
        a.add_wme(wm_a.add(WME("block", {"color": "red", "size": 3})))
        b.add_wme(wm_b.add(WME("goal", {"want": "blue"})))

        assert a.kernels == b.kernels
        assert a.runtimes[0] is not b.runtimes[0]
        # Row counts: a's block WME passes both block stores' predicates.
        assert a.state_size() == 3 and b.state_size() == 1
        # Conflict sets diverge: a matched, b's block is absent.
        assert {k[0] for k in a.conflict_set.snapshot()} == {"match"}
        assert {k[0] for k in b.conflict_set.snapshot()} == {"absent"}
        # Mutating one session leaves the other's stores untouched.
        rows_b = {s.cls: dict(s.rows) for s in b.runtimes[0].stores}
        a.add_wme(wm_a.add(WME("block", {"color": "red", "size": 9})))
        assert {s.cls: dict(s.rows) for s in b.runtimes[0].stores} == rows_b
