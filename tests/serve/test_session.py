"""Session semantics: batched ingestion must be a transparent proxy.

The acceptance bar for the serving layer: for every workload and every
matcher backend, results served through batched ingestion are
bit-identical to a direct :class:`ProductionSystem` run -- same firing
sequence, same final working memory -- regardless of batch size.  These
tests drive the session's synchronous core (the exact code the server's
worker threads execute) against a directly-driven engine.
"""

import pytest

from repro.kernel import CompiledMatcher
from repro.ops5 import Ops5Error, ProductionSystem
from repro.serve.session import (
    RemovedOption,
    Session,
    SessionManager,
    build_matcher,
    check_session_options,
)
from repro.workloads.programs import closure, hanoi
from tests.ops5.test_bounded_history import live_objects

#: Every registered backend (``parallel`` on its default partitions).
MATCHERS = ["naive", "treat", "rete", "rete-indexed", "oflazer", "compiled", "parallel"]

CHAIN_EDGES = [
    ("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(8)
]


def _chunks(items, size):
    return [items[i : i + size] for i in range(0, len(items), size)]


def _direct_fingerprint(program, scripted):
    """Run the scripted operations straight on a ProductionSystem."""
    system = ProductionSystem(program, matcher="rete")
    firings, output = [], []
    for op in scripted:
        if op[0] == "changes":
            system.apply_changes(op[1])
        else:
            result = system.run(op[1])
            firings += [(c.production, c.timetags) for c in result.cycles]
            output = list(result.output)
    wm = [(w.cls, tuple(sorted(w.attributes.items())), w.timetag)
          for w in system.memory.snapshot()]
    return firings, wm, output


def _served_fingerprint(program, scripted, matcher):
    """Run the same operations through a Session's request handlers."""
    session = Session("t", program=program, matcher=matcher)
    try:
        firings, output = [], []
        for op in scripted:
            if op[0] == "changes":
                session.perform({"op": "apply", "changes": op[1]})
            else:
                reply = session.perform({"op": "run", "max_cycles": op[1]})
                firings += [
                    (name, tuple(tags)) for name, tags in reply["firings"]
                ]
                output = reply["output"]
        wm_reply = session.perform({"op": "query", "what": "wm"})
        wm = [(cls, tuple(sorted(attrs.items())), tag)
              for cls, attrs, tag in wm_reply["wmes"]]
        return firings, wm, output
    finally:
        session.close_resources()


def _closure_script(batch_size, runs_between=False):
    """The closure chain ingested in batches of *batch_size*."""
    changes = [("assert", cls, attrs) for cls, attrs in CHAIN_EDGES]
    script = []
    for chunk in _chunks(changes, batch_size):
        script.append(("changes", chunk))
        if runs_between:
            script.append(("run", None))
    if not runs_between:
        script.append(("run", None))
    return script


class TestBatchBoundaryInvariance:
    @pytest.mark.parametrize("matcher", MATCHERS)
    @pytest.mark.parametrize("batch_size", [1, 3, len(CHAIN_EDGES)])
    def test_closure_bit_identical_to_direct_run(
        self, matcher, batch_size
    ):
        script = _closure_script(batch_size)
        expected = _direct_fingerprint(closure.PROGRAM, script)
        served = _served_fingerprint(closure.PROGRAM, script, matcher)
        assert served == expected

    @pytest.mark.parametrize("batch_size", [1, 3, len(CHAIN_EDGES)])
    def test_batch_size_never_changes_the_outcome(self, batch_size):
        """Any chunking of one change stream ends in the same place."""
        reference = _direct_fingerprint(
            closure.PROGRAM, _closure_script(len(CHAIN_EDGES))
        )
        chunked = _direct_fingerprint(closure.PROGRAM, _closure_script(batch_size))
        assert chunked == reference

    @pytest.mark.parametrize("matcher", ["rete", "parallel"])
    def test_run_between_batches_matches_direct_interleaving(self, matcher):
        """Ingest/run/ingest/run: served == direct at every quiescence."""
        script = _closure_script(3, runs_between=True)
        expected = _direct_fingerprint(closure.PROGRAM, script)
        served = _served_fingerprint(closure.PROGRAM, script, matcher)
        assert served == expected

    def test_hanoi_with_halt_action_matches(self):
        """A workload that stops via an explicit halt action."""
        changes = [
            ("assert", w.cls, dict(w.attributes)) for w in hanoi.setup(4)
        ]
        script = [("changes", chunk) for chunk in _chunks(changes, 2)]
        script.append(("run", None))
        expected = _direct_fingerprint(hanoi.PROGRAM, script)
        served = _served_fingerprint(hanoi.PROGRAM, script, "rete")
        assert served == expected
        assert len(expected[0]) > hanoi.expected_moves(4)


class TestResumeSemantics:
    def test_quiescence_is_not_permanent(self):
        session = Session("t", program=closure.PROGRAM)
        try:
            first = session.perform(
                {
                    "op": "assert",
                    "wmes": [["parent", {"from": "a", "to": "b"}]],
                    "run": True,
                }
            )
            assert first["run"]["fired"] == 1
            second = session.perform(
                {
                    "op": "assert",
                    "wmes": [["parent", {"from": "b", "to": "c"}]],
                    "run": True,
                }
            )
            # New facts fire new rules after an earlier quiescence halt.
            assert second["run"]["fired"] == 2
        finally:
            session.close_resources()

    def test_halt_action_stays_sticky(self):
        program = "(p stop (go) --> (halt))"
        session = Session("t", program=program)
        try:
            reply = session.perform(
                {"op": "assert", "wmes": [["go", {}]], "run": True}
            )
            assert reply["run"]["halt_reason"] == "halt action"
            again = session.perform(
                {"op": "assert", "wmes": [["go", {}]], "run": True}
            )
            assert again["run"]["fired"] == 0
            assert again["run"]["halt_reason"] == "halt action"
        finally:
            session.close_resources()


class TestSessionRequests:
    def test_retract_and_modify_roundtrip(self):
        session = Session("t", program=closure.PROGRAM)
        try:
            tags = session.perform(
                {
                    "op": "assert",
                    "wmes": [
                        ["parent", {"from": "a", "to": "b"}],
                        ["parent", {"from": "b", "to": "c"}],
                    ],
                }
            )["timetags"]
            modified = session.perform(
                {"op": "modify", "changes": [[tags[0], {"to": "z"}]]}
            )
            assert modified["removed"] == [tags[0]]
            retracted = session.perform(
                {"op": "retract", "timetags": [tags[1]]}
            )
            assert retracted["removed"] == [tags[1]]
            wm = session.perform({"op": "query", "what": "wm"})["wmes"]
            assert [[cls, attrs] for cls, attrs, _ in wm] == [
                ["parent", {"from": "a", "to": "z"}]
            ]
        finally:
            session.close_resources()

    def test_conflict_set_query_reports_instantiations(self):
        session = Session("t", program=closure.PROGRAM)
        try:
            session.perform(
                {"op": "assert", "wmes": [["parent", {"from": "a", "to": "b"}]]}
            )
            members = session.perform(
                {"op": "query", "what": "conflict-set"}
            )["instantiations"]
            assert members == [["ancestor-base", [1]]]
        finally:
            session.close_resources()

    def test_unknown_operation_and_query_raise(self):
        session = Session("t", program=closure.PROGRAM)
        try:
            with pytest.raises(Ops5Error):
                session.perform({"op": "explode"})
            with pytest.raises(Ops5Error):
                session.perform({"op": "query", "what": "everything"})
        finally:
            session.close_resources()

    def test_telemetry_counts_changes_and_firings(self):
        session = Session("t", program=closure.PROGRAM)
        try:
            session.perform(
                {
                    "op": "assert",
                    "wmes": [
                        ["parent", {"from": "a", "to": "b"}],
                        ["parent", {"from": "b", "to": "c"}],
                    ],
                    "run": True,
                }
            )
            telemetry = session.telemetry
            assert telemetry.requests == 1
            assert telemetry.firings == 3
            # 2 ingested + 3 make-actions fired by the closure rules.
            assert telemetry.wme_changes == 5
            assert session.describe()["working_memory"] == 5
        finally:
            session.close_resources()


class TestBoundedRetention:
    """A long-lived served session holds O(working memory), not O(requests)."""

    PROGRAM = """
    (p tag (item ^id <i> ^state new)
       --> (modify 1 ^state seen) (make mark ^id <i>))
    """
    WINDOW = 30
    ITEMS = 6

    def _waves(self, session, window, start, count):
        """Assert-and-run waves through a sliding window of retractions;
        returns the GC-tracked object count afterwards."""
        for wave in range(start, start + count):
            reply = session.perform(
                {
                    "op": "assert",
                    "wmes": [
                        ["item", {"id": self.ITEMS * wave + i, "state": "new"}]
                        for i in range(self.ITEMS)
                    ],
                    "run": True,
                }
            )
            assert reply["run"]["fired"] == self.ITEMS
            first = reply["timetags"][0]
            live = session.perform({"op": "query", "what": "wm"})["wmes"]
            window.append([tag for _cls, _attrs, tag in live if tag >= first])
            if len(window) > self.WINDOW:
                session.perform({"op": "retract", "timetags": window.pop(0)})
        return live_objects()

    def test_served_session_is_flat_in_requests_at_constant_wm(self):
        baseline = live_objects()
        session = Session("s", program=self.PROGRAM, matcher="compiled")
        try:
            window: list = []
            self._waves(session, window, 0, self.WINDOW + 4)
            wm = session.describe()["working_memory"]
            after_n = self._waves(session, window, 100, 60) - baseline
            after_2n = self._waves(session, window, 200, 60) - baseline
            assert session.describe()["working_memory"] == wm
            assert abs(after_2n - after_n) <= 0.05 * after_n, (after_n, after_2n)
            system = session.system
            assert system.cycles is None
            assert system.matcher.peek_stats().changes is None
            metrics = session.describe()["metrics"]
            assert metrics["engine"]["history"] == "not retained"
            assert metrics["match"]["history"] == "not retained"
            assert metrics["match"]["wme_changes"] == system.total_wme_changes
        finally:
            session.close_resources()


class TestBuildMatcher:
    def test_workers_rejected_for_serial_backends(self):
        """No session config names a partition count -- for a serial
        backend, and for ``parallel`` too."""
        for matcher in ("rete", "parallel"):
            with pytest.raises(RemovedOption):
                check_session_options({"matcher": matcher, "workers": 2})
        check_session_options({"matcher": "parallel", "workers": None})

    def test_parallel_builds_the_partitioned_kernel(self):
        matcher = build_matcher("parallel")
        assert isinstance(matcher, CompiledMatcher) and matcher.partitions == 2


class TestSessionManager:
    def test_ids_are_unique_and_names_respected(self):
        manager = SessionManager()
        a = manager.create(program="", name="alpha")
        b = manager.create(program="")
        try:
            assert a.id == "alpha"
            assert b.id.startswith("s")
            assert manager.ids() == sorted([a.id, b.id])
            with pytest.raises(Ops5Error):
                manager.create(program="", name="alpha")
            with pytest.raises(Ops5Error):
                manager.get("missing")
        finally:
            a.close_resources()
            b.close_resources()

    def test_stats_rollup_includes_retired_sessions(self):
        import asyncio

        async def scenario():
            manager = SessionManager()
            session = manager.create(program=closure.PROGRAM, name="once")
            session.perform(
                {
                    "op": "assert",
                    "wmes": [["parent", {"from": "a", "to": "b"}]],
                    "run": True,
                }
            )
            await manager.destroy("once")
            return manager.stats()

        stats = asyncio.run(scenario())
        assert stats["sessions"] == {}
        assert stats["totals"]["wme_changes"] == 2
        assert stats["totals"]["firings"] == 1
