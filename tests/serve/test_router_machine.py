"""The router's one recovery path as a state machine (ROADMAP item 4,
first cut).

A hypothesis ``RuleBasedStateMachine`` drives one durable
:class:`RuleRouter` over thread workers through create / op / run /
forced checkpoint (full and delta) / migrate / stop-a-worker-and-
replace-it / rolling restart / destroy-and-reuse-the-name / cold
restart over the same store, in any order.  The model is a direct
:class:`ProductionSystem` per session fed the *acknowledged* ops; after
every rule each session's working memory and cumulative firing sequence
must equal its model's, nothing may be lost, and every session must be
placed exactly once on a worker that really hosts it.

Hand mutations this machine is known to catch (each made it fail):
``_restore_session`` skipping the tail replay; ``store.drop`` removed
from destroy; the ``isascii()`` guard of ``_resume_from_store`` removed;
``_save_checkpoint`` recording ``placement.seq - 1``.
"""

import asyncio
import shutil
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.ops5 import ProductionSystem
from repro.serve import DurabilityStore, RuleClient, ServerError, ServerThread
from repro.serve.router import RouterThread
from repro.workloads.programs import closure

#: None = the router mints ``r<n>``.  ``r2`` collides with a minted id,
#: ``r²`` is digit-like without being an integer, ``r٣`` likewise and
#: non-Latin: the names cold-start id recovery has tripped over.
NAMES = [None, None, "a", "r2", "r²", "r٣"]

MAX_SESSIONS = 4

edges = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3
)


class ThreadWorkers:
    """The router's supervisor seam over in-process workers: what
    :class:`ProcessFleet` is to processes, without the processes."""

    def __init__(self, count: int) -> None:
        self.threads = [ServerThread() for _ in range(count)]

    @property
    def addresses(self) -> list:
        return [thread.address for thread in self.threads]

    def respawn(self, index: int):
        self.threads[index].stop()  # the fence; a no-op on a dead one
        self.threads[index] = ServerThread()
        return self.threads[index].address

    restart = respawn

    def snapshot(self) -> dict:
        return {"workers": len(self.threads)}

    def stop(self) -> None:
        for thread in self.threads:
            thread.stop()


class _Model:
    """One session as the serial engine over its acknowledged ops."""

    def __init__(self) -> None:
        self.system = ProductionSystem(closure.PROGRAM, matcher="rete")
        self.firings: list = []
        #: What the served session's replies reported, cumulatively.
        self.observed: list = []

    def ran(self, reply: dict, max_cycles=None) -> None:
        result = self.system.run(max_cycles)
        self.firings += [[c.production, list(c.timetags)] for c in result.cycles]
        self.observed += reply["firings"]
        assert reply["halted"] == result.halted

    def wm(self) -> list:
        return sorted(
            [w.cls, sorted(w.attributes.items()), w.timetag]
            for w in self.system.memory.snapshot()
        )


class RouterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="repro-machine-")
        self.workers = ThreadWorkers(2)
        self.models: dict[str, _Model] = {}
        #: The highest ``r<n>`` the router has minted (or resumed past).
        self.minted = 0
        self._start_router()
        self.create(None, [(0, 1)])
        self.create("r²", [(1, 2)])  # live from the start: restarts meet it

    def _start_router(self):
        self.store = DurabilityStore(self.root)
        self.router_thread = RouterThread(
            worker_addresses=self.workers.addresses,
            durability=self.store,
            supervisor=self.workers,
            checkpoint_every=0,  # checkpoints are a rule, not a timer
        )
        self.router = self.router_thread.router
        self.client = RuleClient(self.router_thread.address)

    def _stop_router(self):
        self.client.close()
        self.router_thread.stop()
        self.store.close()

    def teardown(self):
        self._stop_router()
        self.workers.stop()
        shutil.rmtree(self.root, ignore_errors=True)

    def _pick(self, index: int) -> str:
        return sorted(self.models)[index % len(self.models)]

    def _on_router(self, coroutine):
        return asyncio.run_coroutine_threadsafe(
            coroutine, self.router_thread._loop
        ).result(timeout=30)

    # -- rules ----------------------------------------------------------------

    # Every disruptive rule ends with an op on some session, so each
    # checkpoint gets a journal tail and each move is followed by work.

    @precondition(lambda self: len(self.models) < MAX_SESSIONS)
    @rule(name=st.sampled_from(NAMES), pairs=edges)
    def create(self, name, pairs):
        expected = name
        if name is None:
            self.minted += 1
            expected = f"r{self.minted}"
        try:
            sid = self.client.create_session(program=closure.PROGRAM, name=name)
        except ServerError as error:
            assert expected in self.models and "already exists" in str(error)
        else:
            assert sid == expected and sid not in self.models
            self.models[sid] = _Model()
            self._assert(sid, pairs, run=False)

    @rule(index=st.integers(0, 9), pairs=edges, run=st.booleans())
    def assert_edges(self, index, pairs, run):
        if self.models:
            self._assert(self._pick(index), pairs, run)

    def _assert(self, sid, pairs, run):
        model = self.models[sid]
        wmes = [["parent", {"from": f"n{a}", "to": f"n{b}"}] for a, b in pairs]
        reply = self.client.assert_wmes(sid, wmes, run=run)
        applied = model.system.apply_changes(
            [("assert", cls, attrs) for cls, attrs in wmes]
        )
        assert reply["timetags"] == applied.timetags
        if run:
            model.ran(reply["run"])

    @precondition(lambda self: self.models)
    @rule(index=st.integers(0, 9), which=st.integers(0, 99))
    def retract(self, index, which):
        sid = self._pick(index)
        model = self.models[sid]
        live = sorted(w.timetag for w in model.system.memory.snapshot())
        if live:
            tag = live[which % len(live)]
            reply = self.client.retract(sid, [tag])
            model.system.apply_changes([("retract", tag)])
            assert reply["removed"] == [tag]

    @precondition(lambda self: self.models)
    @rule(index=st.integers(0, 9), max_cycles=st.sampled_from([None, 1, 3]))
    def run(self, index, max_cycles):
        sid = self._pick(index)
        self.models[sid].ran(self.client.run(sid, max_cycles=max_cycles), max_cycles)

    @precondition(lambda self: self.models)
    @rule(index=st.integers(0, 9), full=st.booleans(), pairs=edges)
    def checkpoint(self, index, full, pairs):
        """Forced, under the placement lock like the periodic one: a
        delta when the store can still name the last export, else (or
        when *full*) the whole state."""
        sid = self._pick(index)

        async def forced():
            placement = self.router.placements[sid]
            async with placement.lock:
                await self.router._save_checkpoint(sid, placement, full=full)

        self._on_router(forced())
        self._assert(sid, pairs, run=True)

    @precondition(lambda self: self.models)
    @rule(index=st.integers(0, 9), pairs=edges)
    def migrate(self, index, pairs):
        sid = self._pick(index)
        before = self.router.placements[sid].worker
        moved = self.client.request("migrate_session", session=sid)
        assert moved["from"] == before
        assert self.router.placements[sid].worker == moved["to"] != before
        self._assert(sid, pairs, run=True)

    @rule(worker=st.integers(0, 1), then_op=st.booleans(), pairs=edges)
    def stop_worker(self, worker, then_op, pairs):
        """Stop a worker out from under the router.  Whoever trips over
        it first -- the op sent straight after, or the stats call --
        drives the one recovery path, which replaces it."""
        self.workers.threads[worker].stop()
        hosted = sorted(
            sid for sid in self.models
            if self.router.placements[sid].worker == worker
        )
        if then_op and hosted:
            self._assert(hosted[0], pairs, run=True)
        self.client.stats()
        assert self.router.workers[worker].healthy

    @rule(index=st.integers(0, 9), pairs=edges)
    def rolling_restart(self, index, pairs):
        reply = self.client.request("rolling_restart")
        assert sum(row["restored"] for row in reply["workers"]) == len(self.models)
        self.assert_edges(index, pairs, run=True)

    @precondition(lambda self: self.models)
    @rule(index=st.integers(0, 9))
    def destroy(self, index):
        sid = self._pick(index)
        self.client.destroy_session(sid)
        del self.models[sid]  # the name is free again

    @rule(index=st.integers(0, 9), pairs=edges)
    def cold_restart(self, index, pairs):
        """A new router over the same store and the same live workers."""
        self._stop_router()
        self._start_router()
        numbers = [
            int(sid[1:]) for sid in self.models
            if sid[0] == "r" and sid[1:].isascii() and sid[1:].isdigit()
        ]
        self.minted = max(numbers, default=0)
        self.assert_edges(index, pairs, run=True)

    # -- what must hold after every rule ---------------------------------------

    @invariant()
    def sessions_match_their_models(self):
        for sid, model in self.models.items():
            served = sorted(
                [cls, sorted(attrs.items()), tag]
                for cls, attrs, tag in self.client.query_wm(sid)
            )
            assert served == model.wm(), sid
            assert model.observed == model.firings, sid

    @invariant()
    def books_balance(self):
        assert self.router.lost_sessions == []
        assert sorted(self.client.list_sessions()) == sorted(self.models)
        assert set(self.router.placements) == set(self.models)
        hosted = []
        for address in self.workers.addresses:
            with RuleClient(address) as direct:
                hosted.append(direct.list_sessions())
        for sid in self.models:
            placement = self.router.placements[sid]
            assert not placement.migrating, sid
            assert sid in hosted[placement.worker], sid


TestRouterMachine = RouterMachine.TestCase
TestRouterMachine.settings = settings(
    max_examples=30,
    stateful_step_count=30,
    deadline=None,
    database=None,
    derandomize=True,
)


@pytest.mark.fuzz
class TestRouterMachineFuzz(RouterMachine.TestCase):
    settings = settings(
        max_examples=150, stateful_step_count=50, deadline=None, database=None
    )
