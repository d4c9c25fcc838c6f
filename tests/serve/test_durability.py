"""The durability store: journal + checkpoint round trips, and the
untrusted-input paths (truncated lines, corrupt checkpoints, malformed
engine-state blobs) that recovery must survive.

These are pure disk tests -- no sockets, no processes -- so they run in
tier 1; the end-to-end kill/recover paths live in ``test_fleet.py``.
"""

import json
import os

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.ops5 import ProductionSystem
from repro.serve import DurabilityStore, validate_engine_state
from repro.serve.durability import _encode_sid, encode_record
from repro.workloads.programs import closure


@pytest.fixture()
def store(tmp_path):
    s = DurabilityStore(str(tmp_path / "journals"))
    yield s
    s.close()


def engine_state() -> dict:
    """A real, valid ``repro.engine-state/1`` blob."""
    system = ProductionSystem(closure.PROGRAM, matcher="rete")
    system.add("parent", **{"from": "a", "to": "b"})
    system.run()
    return system.export_state()


def engine_state_json() -> str:
    """:func:`engine_state` as a marked export's ``state_json`` text."""
    return encode_record(engine_state())


class TestJournalRoundTrip:
    def test_register_append_load(self, store):
        store.register("s1", {"program": "(p ...)"})
        store.append("s1", 1, {"op": "assert", "wme": ["start", {}]})
        store.append("s1", 2, {"op": "run"})
        bundle = store.load("s1")
        assert bundle is not None
        assert bundle.config == {"program": "(p ...)"}
        assert bundle.checkpoint is None and not bundle.used_checkpoint
        assert [(r.seq, r.request["op"]) for r in bundle.records] == [
            (1, "assert"), (2, "run"),
        ]
        assert bundle.last_seq == 2
        assert bundle.notes == []

    def test_unknown_session_loads_none(self, store):
        assert store.load("ghost") is None

    def test_skip_tombstones_filter_records(self, store):
        """A backpressure-rejected op was journaled but never executed:
        its tombstone keeps it out of the replay tail."""
        store.register("s1", {"program": "p"})
        store.append("s1", 1, {"op": "run"})
        store.append("s1", 2, {"op": "assert"})
        store.mark_skipped("s1", 2)
        bundle = store.load("s1")
        assert [r.seq for r in bundle.records] == [1]
        assert bundle.last_seq == 2
        assert store.stats()["skips"] == 1

    def test_register_resets_history(self, store):
        """A name reused after destroy starts a fresh journal."""
        store.register("s1", {"program": "old"})
        store.append("s1", 1, {"op": "run"})
        store.save_checkpoint("s1", 1, {"program": "old"}, engine_state_json())
        store.register("s1", {"program": "new"})
        bundle = store.load("s1")
        assert bundle.config == {"program": "new"}
        assert bundle.records == [] and bundle.checkpoint is None

    def test_drop_and_sessions_listing(self, store):
        store.register("a", {"program": "p"})
        store.register("b/with slashes", {"program": "p"})
        assert store.sessions() == ["a", "b/with slashes"]
        store.drop("a")
        assert store.sessions() == ["b/with slashes"]
        assert store.load("a") is None


class TestCheckpoints:
    def test_checkpoint_bounds_the_tail(self, store):
        store.register("s1", {"program": "p"})
        for seq in range(1, 6):
            store.append("s1", seq, {"op": "run", "n": seq})
        store.save_checkpoint("s1", 3, {"program": "p"}, engine_state_json())
        store.append("s1", 6, {"op": "run", "n": 6})
        bundle = store.load("s1")
        assert bundle.used_checkpoint and bundle.checkpoint["seq"] == 3
        assert [r.seq for r in bundle.records] == [4, 5, 6]
        assert bundle.last_seq == 6

    def test_checkpoint_compacts_the_wal_file(self, store):
        store.register("s1", {"program": "p"})
        for seq in range(1, 9):
            store.append("s1", seq, {"op": "run", "n": seq})
        wal = store._wal_path("s1")
        before = os.path.getsize(wal)
        store.save_checkpoint("s1", 8, {"program": "p"}, engine_state_json())
        assert os.path.getsize(wal) < before
        bundle = store.load("s1")
        assert bundle.records == []
        # The compacted-away ops still count: a router that cold-starts
        # here must number its next op 9, not 1 -- the checkpoint would
        # cover (and a later recovery silently drop) anything up to 8.
        assert bundle.last_seq == 8

    def test_corrupt_checkpoint_falls_back_to_full_replay(self, store):
        store.register("s1", {"program": "p"})
        store.append("s1", 1, {"op": "run"})
        store.save_checkpoint("s1", 1, {"program": "p"}, engine_state_json())
        store.append("s1", 2, {"op": "run"})
        with open(store._ckpt_path("s1"), "w") as handle:
            handle.write('{"schema": "repro.session-checkpoint/1", "seq": ')
        bundle = store.load("s1")
        assert bundle.checkpoint is None
        assert any("checkpoint unreadable" in note for note in bundle.notes)
        # Compaction already dropped seq 1, so the tail is what remains.
        assert [r.seq for r in bundle.records] == [2]

    def test_invalid_checkpoint_state_is_rejected(self, store):
        store.register("s1", {"program": "p"})
        bad = engine_state()
        bad["wmes"].append(bad["wmes"][0])  # duplicate timetag
        store._write_atomic(
            store._ckpt_path("s1"),
            {
                "schema": "repro.session-checkpoint/1",
                "id": "s1",
                "seq": 1,
                "config": {"program": "p"},
                "state": bad,
            },
        )
        bundle = store.load("s1")
        assert bundle.checkpoint is None
        assert any("checkpoint unusable" in note for note in bundle.notes)

    def test_config_recoverable_from_checkpoint_alone(self, store):
        store.register("s1", {"program": "p"})
        store.save_checkpoint("s1", 1, {"program": "p"}, engine_state_json())
        os.remove(store._meta_path("s1"))
        bundle = store.load("s1")
        assert bundle.config == {"program": "p"}
        assert any("recovered from checkpoint" in note for note in bundle.notes)


class TestUntrustedJournal:
    def test_truncated_trailing_line_is_dropped(self, store):
        """A crash mid-append leaves a torn last line; everything before
        it still replays."""
        store.register("s1", {"program": "p"})
        store.append("s1", 1, {"op": "run"})
        store.close()
        with open(store._wal_path("s1"), "a") as handle:
            handle.write('{"seq": 2, "request": {"op": "ass')
        bundle = store.load("s1")
        assert [r.seq for r in bundle.records] == [1]
        assert any("truncated trailing" in note for note in bundle.notes)

    def test_corrupt_middle_line_stops_the_replay(self, store):
        store.register("s1", {"program": "p"})
        store.close()
        with open(store._wal_path("s1"), "w") as handle:
            handle.write('{"seq": 1, "request": {"op": "run"}}\n')
            handle.write("not json at all\n")
            handle.write('{"seq": 3, "request": {"op": "run"}}\n')
        bundle = store.load("s1")
        assert [r.seq for r in bundle.records] == [1]
        assert any("corrupt journal line 2" in note for note in bundle.notes)

    def test_bad_seq_stops_the_replay(self, store):
        store.register("s1", {"program": "p"})
        store.close()
        with open(store._wal_path("s1"), "w") as handle:
            handle.write('{"seq": "one", "request": {"op": "run"}}\n')
        bundle = store.load("s1")
        assert bundle.records == []
        assert any("bad seq" in note for note in bundle.notes)


class TestSidEncoding:
    def test_hostile_ids_stay_inside_the_root(self, store):
        for sid in ("../../etc/passwd", "a/b", "x" * 200, "sp ace", "."):
            store.register(sid, {"program": "p"})
            path = store._meta_path(sid)
            assert os.path.dirname(path) == store.root
            assert store.load(sid) is not None
        assert len(store.sessions()) == 5

    def test_encoding_is_injective_for_long_ids(self):
        a, b = "x" * 200 + "a", "x" * 200 + "b"
        assert _encode_sid(a) != _encode_sid(b)
        # A long id's file name is itself a legal (short) client-chosen
        # id; it must not share the long id's files.
        assert _encode_sid(_encode_sid(a)) != _encode_sid(a)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        ids=st.lists(
            st.text(max_size=40)
            | st.tuples(
                st.text(alphabet="ab.-_~", min_size=40, max_size=60),
                st.text(alphabet="ab.%/\x00\u00e9 ", max_size=30),
            ).map("".join),
            min_size=1,
            max_size=6,
        )
    )
    def test_distinct_ids_get_distinct_names_inside_the_root(self, ids):
        """Arbitrary text, plus ids whose unreserved head survives
        quoting and whose tail carries them to either side of the
        96-character cut; every id's own file name joins the pool,
        since a tenant may pick it as a session name."""
        pool = set(ids) | {_encode_sid(sid) for sid in ids}
        names = {_encode_sid(sid) for sid in pool}
        assert len(names) == len(pool)
        for name in names:
            path = os.path.join("/journals", f"{name}.wal")
            assert os.path.dirname(path) == "/journals"
            assert "\x00" not in name


class TestValidateEngineState:
    def test_real_export_passes(self):
        assert validate_engine_state(engine_state()) is None

    @pytest.mark.parametrize(
        "mutate, problem",
        [
            (lambda s: "not a dict", "JSON object"),
            (lambda s: {**s, "schema": "repro.engine-state/9"}, "schema"),
            (lambda s: {**s, "wmes": {"a": 1}}, "wmes must be a list"),
            (lambda s: {**s, "wmes": [[1, "c"]]}, "triple"),
            (lambda s: {**s, "wmes": [[True, "c", {}]]}, "positive integer"),
            (lambda s: {**s, "wmes": [[1, "c", {}], [1, "d", {}]]},
             "duplicate"),
            (lambda s: {**s, "wmes": [[1, "", {}]]}, "non-empty string"),
            (lambda s: {**s, "wmes": [[1, "c", {"a": True}]]}, "neither"),
            (lambda s: {**s, "wmes": [[1, "c", {"a": []}]]}, "neither"),
            (lambda s: {**s, "next_timetag": 0}, "next_timetag"),
            (lambda s: {**s, "next_timetag": True}, "next_timetag"),
            (lambda s: {**s, "fired": [["p"]]}, "pair"),
            (lambda s: {**s, "fired": [["p", [1, False]]]}, "integers"),
            (lambda s: {**s, "cycle": -1}, "cycle"),
            (lambda s: {**s, "total_firings": True}, "total_firings"),
            (lambda s: {**s, "halted": 1}, "halted"),
            (lambda s: {**s, "halt_reason": None}, "halt_reason"),
            (lambda s: {**s, "output": "text"}, "output"),
            (lambda s: {**s, "output": [1]}, "output"),
        ],
    )
    def test_each_malformation_is_named(self, mutate, problem):
        state = json.loads(json.dumps(engine_state()))
        verdict = validate_engine_state(mutate(state))
        assert verdict is not None and problem in verdict


class TestGroupCommit:
    """The WAL's group-commit window: one fsync barrier absorbs many
    appends, strict recovery semantics are unchanged."""

    def test_window_batches_fsyncs(self, tmp_path):
        import time

        store = DurabilityStore(
            str(tmp_path / "grouped"), fsync=True, commit_window=0.05
        )
        try:
            store.register("s1", {"program": "p"})
            for seq in range(1, 51):
                store.append("s1", seq, {"op": "run"})
            # sync() clears the dirty set before it bumps the fsync
            # counter, so wait for both: pending drained *and* at least
            # one barrier recorded.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                stats = store.stats()
                if not stats["pending_sync"] and stats["fsyncs"]:
                    break
                time.sleep(0.01)
        finally:
            store.close()
        assert stats["appends"] == 50
        assert stats["pending_sync"] == 0
        # The whole burst landed inside a few windows, not 50 barriers.
        assert 1 <= stats["fsyncs"] < 50
        reopened = DurabilityStore(str(tmp_path / "grouped"))
        try:
            bundle = reopened.load("s1")
            assert bundle is not None and bundle.last_seq == 50
        finally:
            reopened.close()

    def test_strict_policy_fsyncs_every_append(self, tmp_path):
        store = DurabilityStore(str(tmp_path / "strict"), fsync=True)
        try:
            store.register("s1", {"program": "p"})
            for seq in range(1, 6):
                store.append("s1", seq, {"op": "run"})
            stats = store.stats()
        finally:
            store.close()
        assert stats["fsyncs"] >= 5
        assert stats["pending_sync"] == 0

    def test_close_flushes_a_pending_window(self, tmp_path):
        """Shutdown inside an open window must not lose acknowledged
        ops: close() runs the barrier before releasing the handles."""
        store = DurabilityStore(
            str(tmp_path / "pending"), fsync=True, commit_window=30.0
        )
        store.register("s1", {"program": "p"})
        store.append("s1", 1, {"op": "run"})
        store.close()
        assert store.stats()["pending_sync"] == 0
        reopened = DurabilityStore(str(tmp_path / "pending"))
        try:
            bundle = reopened.load("s1")
            assert bundle is not None and bundle.last_seq == 1
        finally:
            reopened.close()

    def test_checkpoint_respects_window_durability(self, tmp_path):
        """sync() is the explicit barrier checkpointing relies on: a
        compacted journal is never less durable than strict mode."""
        store = DurabilityStore(
            str(tmp_path / "ckpt"), fsync=True, commit_window=10.0
        )
        try:
            store.register("s1", {"program": "p"})
            store.append("s1", 1, {"op": "run"})
            assert store.stats()["pending_sync"] == 1
            assert store.sync() == 1
            assert store.stats()["pending_sync"] == 0
        finally:
            store.close()

    def test_handle_closed_under_the_committer_does_not_kill_it(self, tmp_path):
        """A compaction or drop() on the event loop can close a journal
        between sync()'s look at the handle and its fileno(): that is a
        ValueError, not an OSError.  The committer must skip the journal,
        count nothing for it, stay alive, and sync the next dirty one."""
        import time

        class ClosedUnderfoot:
            closed = False  # what the pre-check saw

            def fileno(self):
                raise ValueError("I/O operation on closed file")

            def close(self):
                pass

        store = DurabilityStore(
            str(tmp_path / "raced"), fsync=True, commit_window=0.01
        )
        try:
            store.register("s1", {"program": "p"})
            store.register("s2", {"program": "p"})
            store._wal_handles["s1"] = ClosedUnderfoot()
            with store._lock:
                store._dirty.add("s1")
            assert store.sync() == 0
            assert store.stats()["fsyncs"] == 0

            # The same race hit from the committer thread itself.
            with store._lock:
                store._dirty.add("s1")
                store._commit_wakeup.notify()
            store.append("s2", 1, {"op": "run"})
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not store.stats()["fsyncs"]:
                time.sleep(0.01)
            assert store._committer.is_alive()
            assert store.stats()["fsyncs"] >= 1
            assert store.stats()["pending_sync"] == 0
        finally:
            store.close()
