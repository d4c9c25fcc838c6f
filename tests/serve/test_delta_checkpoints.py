"""Delta checkpoints: a checkpoint costs what changed, not what WM holds.

The property (``fold(base, deltas...)`` is the live engine's state, and
an engine restored from it continues bit-identically), the crash points
of the one-file base + deltas layout, the session-side log's lifecycle,
exports that carry live refraction keys only, the file format (the
worker's text spliced in is ``json.dumps`` of the whole, byte for byte,
and files written by re-encoding still load), and the linearity the
whole design exists for.  The end-to-end kill test over real worker
processes is ``chaos``-marked.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.serve import DurabilityStore, RuleClient, validate_engine_state
from repro.serve.durability import (
    CHECKPOINT_SCHEMA,
    ENGINE_DELTA_SCHEMA,
    ENGINE_STATE_SCHEMA,
    encode_record,
    fold,
)
from repro.serve.session import Session, _DeltaLog

PROGRAM = """
(p link
  (item ^v <v>)
  (item ^v { <w> > <v> })
  - (link ^a <v> ^b <w>)
  -->
  (make link ^a <v> ^b <w>)
  (write linked <v> <w>))

(p prune
  (kill ^v <v>)
  (link ^a <v> ^b <w>)
  -->
  (remove 2))

(p age
  (tick ^n <n>)
  (item ^v <n> ^age young)
  -->
  (modify 2 ^age old))
"""

MATCHERS = ("compiled", "rete")


class Checkpointer:
    """What a durable router keeps for one session, without the router:
    the last persisted base, the deltas after it, and the mark."""

    def __init__(self, session: Session) -> None:
        self.session = session
        self.base = None
        self.deltas: list[dict] = []
        self.mark = ""
        self.kinds: list[str] = []

    def export(self) -> dict:
        return self.session.perform({"op": "export", "since": self.mark})

    def checkpoint(self) -> str:
        reply = self.export()
        if "delta_json" in reply:
            delta = json.loads(reply["delta_json"])
            assert reply["since"] == delta["since"] == self.mark
            self.deltas.append(delta)
            kind = "delta"
        else:
            self.base, self.deltas = json.loads(reply["state_json"]), []
            kind = "full"
        self.mark = reply["mark"]
        self.kinds.append(kind)
        return kind

    def folded(self) -> dict:
        return fold(self.base, *self.deltas)


def apply_step(session: Session, step: tuple) -> list:
    """One random op; indexes pick among the live timetags.  Returns the
    firings a ``run`` step reported."""
    kind = step[0]
    live = [wme.timetag for wme in session.system.memory.snapshot()]
    if kind == "assert":
        session.perform({"op": "assert", "wmes": [list(w) for w in step[1]]})
    elif kind == "run":
        return session.perform({"op": "run", "max_cycles": step[1]})["firings"]
    elif not live:
        return []
    elif kind == "retract":
        session.perform({"op": "retract", "timetags": [live[step[1] % len(live)]]})
    elif kind == "modify":
        tag = live[step[1] % len(live)]
        session.perform({"op": "modify", "changes": [[tag, {"v": step[2]}]]})
    return []


values = st.integers(min_value=0, max_value=5)
wmes = st.one_of(
    st.tuples(st.just("item"), st.fixed_dictionaries({"v": values, "age": st.just("young")})),
    st.tuples(st.just("kill"), st.fixed_dictionaries({"v": values})),
    st.tuples(st.just("tick"), st.fixed_dictionaries({"n": values})),
)
steps = st.one_of(
    st.tuples(st.just("assert"), st.lists(wmes, min_size=1, max_size=4)),
    st.tuples(st.just("run"), st.integers(min_value=1, max_value=12)),
    st.tuples(st.just("retract"), st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("modify"), st.integers(min_value=0, max_value=99), values),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("lost-reply")),
)
#: A WM large enough that the short windows between checkpoints stay
#: below it (an over-long window drops the log: a full export, also fine).
PRELOAD = [["item", {"v": v % 6, "age": "young"}] for v in range(12)]
CONTINUATION = [
    ("assert", [("item", {"v": 2, "age": "young"}), ("tick", {"n": 2})]),
    ("run", 40),
]


def check_fold_property(matcher: str, script: list) -> None:
    session = Session("live", program=PROGRAM, matcher=matcher)
    restored = None
    try:
        session.perform({"op": "assert", "wmes": PRELOAD})
        keeper = Checkpointer(session)
        keeper.checkpoint()
        lost = False
        for step in script:
            if step[0] == "lost-reply":
                keeper.export()  # the session moved on; the keeper did not
                lost = True
            elif step[0] == "checkpoint":
                kind = keeper.checkpoint()
                assert not (lost and kind == "delta"), "delta after a lost reply"
                lost = False
                folded = keeper.folded()
                assert validate_engine_state(folded) is None
                assert folded == session.system.export_state()
            else:
                apply_step(session, step)
        keeper.checkpoint()
        folded = keeper.folded()
        assert folded == session.system.export_state()
        # The fold is a migration payload like any other: an engine
        # restored from it continues the firing sequence bit-identically.
        restored = Session("copy", program=PROGRAM, matcher=matcher, state=folded)
        ours_fired, theirs_fired = [], []
        for step in CONTINUATION:
            ours_fired += apply_step(session, step)
            theirs_fired += apply_step(restored, step)
        ours, theirs = session.system, restored.system
        assert theirs_fired == ours_fired
        assert theirs_fired, "the continuation fired nothing"
        assert theirs.export_state() == {
            **ours.export_state(),
            # restore_state restarts the change counter at the replay.
            "total_wme_changes": theirs.total_wme_changes,
        }
    finally:
        session.close_resources()
        if restored is not None:
            restored.close_resources()


class TestFoldProperty:
    """(a) fold(base, deltas...) == export_state()."""

    @pytest.mark.parametrize("matcher", MATCHERS)
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(script=st.lists(steps, max_size=30))
    def test_fold_equals_live_state(self, matcher, script):
        check_fold_property(matcher, script)

    @pytest.mark.fuzz
    @pytest.mark.parametrize("matcher", MATCHERS)
    @settings(max_examples=600, deadline=None, database=None)
    @given(script=st.lists(steps, max_size=80))
    def test_fold_equals_live_state_long(self, matcher, script):
        check_fold_property(matcher, script)

    def test_deltas_are_taken_and_net(self):
        """The property above is vacuous if every checkpoint were full."""
        session = Session("s", program=PROGRAM, matcher="compiled")
        try:
            session.perform({"op": "assert", "wmes": PRELOAD})
            keeper = Checkpointer(session)
            keeper.checkpoint()
            reply = session.perform(
                {"op": "assert", "wmes": [["kill", {"v": 9}], ["kill", {"v": 8}]]}
            )
            session.perform({"op": "retract", "timetags": reply["timetags"][:1]})
            session.perform({"op": "retract", "timetags": [1]})
            assert keeper.checkpoint() == "delta"
            delta = keeper.deltas[-1]
            # Made and removed inside the window: no trace.  Removed
            # from the base: one timetag.  Still live: one row.
            assert [row[0] for row in delta["added"]] == reply["timetags"][1:]
            assert delta["removed"] == [1]
            assert keeper.kinds == ["full", "delta"]
        finally:
            session.close_resources()

    def test_fold_refuses_a_delta_that_does_not_fit(self):
        session = Session("s", program=PROGRAM, matcher="rete")
        try:
            session.perform({"op": "assert", "wmes": PRELOAD})
            keeper = Checkpointer(session)
            keeper.checkpoint()
            session.perform({"op": "retract", "timetags": [2]})
            keeper.checkpoint()
            (delta,) = keeper.deltas
            with pytest.raises(ValueError, match="does not fit"):
                fold(keeper.base, delta, delta)  # timetag 2 is gone already
            with pytest.raises(ValueError, match="engine-delta/1"):
                fold(keeper.base, {**delta, "schema": "repro.engine-state/1"})
            with pytest.raises(ValueError, match="timetag"):
                fold(keeper.base, {**delta, "added": [[0, "item", {}]]})
        finally:
            session.close_resources()


class TestSessionLog:
    """(c) who holds a log, and for how long."""

    def test_unmarked_exports_never_arm_a_log(self):
        session = Session("s", program=PROGRAM, matcher="compiled")
        try:
            session.perform({"op": "assert", "wmes": PRELOAD})
            reply = session.perform({"op": "export"})
            assert set(reply) == {"ok", "config", "state"}
            session.perform({"op": "run"})
            assert session.system.listener is None
        finally:
            session.close_resources()

    def test_marked_export_arms_and_unmarked_leaves_it_alone(self):
        session = Session("s", program=PROGRAM, matcher="compiled")
        try:
            session.perform({"op": "assert", "wmes": PRELOAD})
            first = session.perform({"op": "export", "since": ""})
            assert set(first) == {"ok", "mark", "config", "state_json"}
            assert first["mark"]
            assert isinstance(session.system.listener, _DeltaLog)
            session.perform({"op": "assert", "wmes": [["kill", {"v": 9}]]})
            assert "state" in session.perform({"op": "export"})  # a migration read
            second = session.perform({"op": "export", "since": first["mark"]})
            assert set(second) == {"ok", "mark", "since", "delta_json"}
            delta = json.loads(second["delta_json"])
            assert [row[1] for row in delta["added"]] == ["kill"]
        finally:
            session.close_resources()

    def test_log_is_dropped_once_it_exceeds_live_wm(self):
        session = Session("s", program=PROGRAM, matcher="compiled")
        try:
            session.perform({"op": "assert", "wmes": PRELOAD[:4]})
            mark = session.perform({"op": "export", "since": ""})["mark"]
            # 4 live; retracting 3 leaves 1 live and 3 logged removes.
            session.perform({"op": "retract", "timetags": [1, 2]})
            assert isinstance(session.system.listener, _DeltaLog)
            session.perform({"op": "retract", "timetags": [3]})
            assert session.system.listener is None
            again = session.perform({"op": "export", "since": mark})
            assert "state_json" in again and "delta_json" not in again
            # Re-armed from the new full export.
            assert isinstance(session.system.listener, _DeltaLog)
        finally:
            session.close_resources()


def fire_and_kill(session: Session) -> None:
    """After ``PRELOAD`` has run: ``age`` fires on both v=0 items and its
    ``modify`` removes the item its key names (a dead key, with one live
    timetag), and ``link`` fires keys that stay live."""
    session.perform(
        {
            "op": "assert",
            "wmes": [["tick", {"n": 0}], ["item", {"v": 9, "age": "young"}]],
            "run": True,
        }
    )


def every_fired_key(system) -> list:
    """The refraction memory as an export without the live-key filter
    would write it."""
    return sorted([name, list(tags)] for name, tags in system._fired_keys)


class TestLiveRefractionKeys:
    """Exports keep only refraction keys whose timetags are all live:
    timetags are never reused, so any other key can never fire again."""

    def test_exports_name_no_dead_timetag(self):
        session = Session("s", program=PROGRAM, matcher="compiled")
        try:
            session.perform({"op": "assert", "wmes": PRELOAD, "run": True})
            mark = session.perform({"op": "export", "since": ""})["mark"]
            fire_and_kill(session)
            system = session.system
            live = system.memory.has_timetag
            assert any(
                any(map(live, tags)) and not all(map(live, tags))
                for _, tags in system._fired_keys
            ), "no key with a live and a dead timetag to drop"
            assert {name for name, _ in system.listener.fired} == {"age", "link"}
            reply = session.perform({"op": "export", "since": mark})
            delta, state = json.loads(reply["delta_json"]), system.export_state()
            assert {name for name, _ in delta["fired"]} == {"link"}
            assert len(state["fired"]) < len(every_fired_key(system))
            for record in (delta, state):
                assert record["fired"]
                for _, tags in record["fired"]:
                    assert all(map(live, tags)), record["fired"]
        finally:
            session.close_resources()

    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_a_restored_engine_fires_the_same_with_or_without_dead_keys(self, matcher):
        session = Session("s", program=PROGRAM, matcher=matcher)
        sessions = [session]
        try:
            session.perform({"op": "assert", "wmes": PRELOAD, "run": True})
            fire_and_kill(session)
            state = session.system.export_state()
            unfiltered = {**state, "fired": every_fired_key(session.system)}
            assert unfiltered != state
            for blob in (state, unfiltered):
                sessions.append(
                    Session("copy", program=PROGRAM, matcher=matcher, state=blob)
                )
            script = CONTINUATION + [
                ("assert", [("kill", {"v": 0}), ("tick", {"n": 9})]),
                ("run", 60),
            ]
            fired = [[], [], []]
            for step in script:
                for index, each in enumerate(sessions):
                    fired[index] += apply_step(each, step)
            assert fired[0] and fired[1] == fired[0] and fired[2] == fired[0]
            filtered, kept_dead = (each.system for each in sessions[1:])
            assert filtered.export_state() == kept_dead.export_state()
        finally:
            for each in sessions:
                each.close_resources()


def grown_session(name="s1", wmes=40):
    session = Session(name, program=PROGRAM, matcher="compiled")
    session.perform(
        {"op": "assert", "wmes": [["kill", {"v": 100 + i}] for i in range(wmes)]}
    )
    return session


def checkpoint(store: DurabilityStore, session: Session, seq: int) -> str:
    """What ``RuleRouter._save_checkpoint`` does, without the router."""
    reply = session.perform(
        {"op": "export", "since": store.checkpoint_mark(session.id)}
    )
    if "delta_json" in reply:
        assert store.append_delta(
            session.id, seq, reply["delta_json"], reply["since"], reply["mark"]
        )
        return "delta"
    store.save_checkpoint(
        session.id, seq, reply["config"], reply["state_json"], reply["mark"]
    )
    return "full"


@pytest.fixture()
def store(tmp_path):
    s = DurabilityStore(str(tmp_path / "journals"))
    yield s
    s.close()


def journal_and_checkpoint(store, session, seqs) -> list[str]:
    """One journaled assert then one checkpoint, per seq."""
    kinds = []
    for seq in seqs:
        request = {"op": "assert", "wmes": [["kill", {"v": seq}]]}
        store.append(session.id, seq, request)
        session.perform(request)
        kinds.append(checkpoint(store, session, seq))
    return kinds


class TestCrashPoints:
    """(b) the one-file layout under the failures it must survive."""

    def test_one_file_base_then_deltas(self, store):
        session = grown_session()
        try:
            store.register("s1", {"program": PROGRAM})
            assert journal_and_checkpoint(store, session, range(1, 5)) == [
                "full", "delta", "delta", "delta",
            ]
            with open(store._ckpt_path("s1")) as handle:
                lines = handle.read().splitlines()
            base = json.loads(lines[0])
            assert base["schema"] == "repro.session-checkpoint/1" and base["seq"] == 1
            rows = [json.loads(line) for line in lines[1:]]
            assert [(r["extends"], r["seq"]) for r in rows] == [(1, 2), (2, 3), (3, 4)]
            assert {r["delta"]["schema"] for r in rows} == {"repro.engine-delta/1"}
            assert sorted(os.listdir(store.root)) == [
                "s1.ckpt.json", "s1.meta.json", "s1.wal",
            ]
            bundle = store.load("s1")
            assert bundle.notes == [] and bundle.records == []
            assert bundle.checkpoint["seq"] == 4
            assert bundle.checkpoint["state"] == session.system.export_state()
            stats = store.stats()
            assert (stats["checkpoints"], stats["checkpoints_full"]) == (4, 1)
            assert stats["checkpoints_delta"] == 3
            assert stats["checkpoint_bytes"] == os.path.getsize(store._ckpt_path("s1"))
        finally:
            session.close_resources()

    def test_torn_trailing_delta_line_ends_the_fold_before_it(self, store):
        """A crash mid-append: the journal was not yet compacted past
        the torn delta, so the fold stops a line early and the tail
        replays the difference."""
        session = grown_session()
        try:
            store.register("s1", {"program": PROGRAM})
            journal_and_checkpoint(store, session, range(1, 4))
            store.append("s1", 4, {"op": "assert", "wmes": [["kill", {"v": 4}]]})
            with open(store._ckpt_path("s1"), "a") as handle:
                handle.write('{"extends":3,"seq":4,"delta":{"schema":"repro.eng')
            bundle = store.load("s1")
            assert bundle.checkpoint["seq"] == 3
            assert [r.seq for r in bundle.records] == [4]
            assert any("chain ends at seq 3" in note for note in bundle.notes)
            assert validate_engine_state(bundle.checkpoint["state"]) is None
        finally:
            session.close_resources()

    def test_kill_between_delta_append_and_wal_compaction(self, store, monkeypatch):
        """The delta is on disk before the journal loses what it covers:
        dying in between leaves covered records behind, never a gap."""
        session = grown_session()
        try:
            store.register("s1", {"program": PROGRAM})
            journal_and_checkpoint(store, session, range(1, 3))
            order = []
            compact, write = store._compact, store._write

            def dying_compact(sid, seq, *rest, **more):
                order.append("compact")
                raise KeyboardInterrupt("killed before the journal shrank")

            def recording_write(path, mode, text):
                order.append(("write", os.path.basename(path), mode))
                write(path, mode, text)

            monkeypatch.setattr(store, "_compact", dying_compact)
            monkeypatch.setattr(store, "_write", recording_write)
            with pytest.raises(KeyboardInterrupt):
                journal_and_checkpoint(store, session, [3])
            assert order == [("write", "s1.ckpt.json", "a"), "compact"]
            monkeypatch.setattr(store, "_compact", compact)
            reopened = DurabilityStore(store.root)
            try:
                bundle = reopened.load("s1")
                assert bundle.checkpoint["seq"] == 3 and bundle.records == []
                assert bundle.last_seq == 3  # seq 3 still journaled, and covered
                assert bundle.checkpoint["state"] == session.system.export_state()
                # A store that did not write the file asks for a full export.
                assert reopened.checkpoint_mark("s1") == ""
            finally:
                reopened.close()
        finally:
            session.close_resources()

    def test_delta_is_fsynced_before_the_journal_is_replaced(self, tmp_path, monkeypatch):
        synced = DurabilityStore(str(tmp_path / "synced"), fsync=True)
        session = grown_session()
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.basename(dst)))
            real_replace(src, dst)

        try:
            synced.register("s1", {"program": PROGRAM})
            journal_and_checkpoint(synced, session, [1])
            monkeypatch.setattr(os, "fsync", fsync)
            monkeypatch.setattr(os, "replace", replace)
            assert journal_and_checkpoint(synced, session, [2]) == ["delta"]
            # append (strict policy: its own fsync), delta line + fsync,
            # journal tmp + fsync, replace, directory fsync.
            assert events == ["fsync", "fsync", "fsync", ("replace", "s1.wal"), "fsync"]
            del events[:]
            synced._chains.clear()
            assert journal_and_checkpoint(synced, session, [3]) == ["full"]
            assert events == [
                "fsync", "fsync", ("replace", "s1.ckpt.json"),
                "fsync", ("replace", "s1.wal"), "fsync",
            ]
        finally:
            monkeypatch.undo()
            session.close_resources()
            synced.close()

    def test_corrupt_middle_delta_breaks_the_chain_there(self, store):
        session = grown_session()
        try:
            store.register("s1", {"program": PROGRAM})
            journal_and_checkpoint(store, session, range(1, 5))
            path = store._ckpt_path("s1")
            with open(path) as handle:
                lines = handle.read().splitlines()
            for damage in (
                lines[2][: len(lines[2]) // 2],  # not JSON
                lines[2].replace('"extends":2', '"extends":1'),  # a gap
                lines[2].replace('"kill"', "7"),  # JSON, fits, not a WME
            ):
                with open(path, "w") as handle:
                    handle.write("\n".join([lines[0], lines[1], damage, lines[3]]) + "\n")
                bundle = store.load("s1")
                # Everything after the break is unreachable: line 4
                # extends a seq the fold never reached.
                assert bundle.checkpoint["seq"] == 2, damage
                assert any("chain ends at seq 2: line 3" in n for n in bundle.notes)
                assert validate_engine_state(bundle.checkpoint["state"]) is None
        finally:
            session.close_resources()

    def test_mark_mismatch_after_a_dropped_reply_is_full_not_a_wrong_delta(self, store):
        session = grown_session()
        try:
            store.register("s1", {"program": PROGRAM})
            journal_and_checkpoint(store, session, [1, 2])
            # The session answers an export the router never sees.
            session.perform({"op": "assert", "wmes": [["kill", {"v": 77}]]})
            lost = session.perform(
                {"op": "export", "since": store.checkpoint_mark("s1")}
            )
            assert "delta_json" in lost
            session.perform({"op": "assert", "wmes": [["kill", {"v": 78}]]})
            assert journal_and_checkpoint(store, session, [3]) == ["full"]
            bundle = store.load("s1")
            assert bundle.notes == []
            assert bundle.checkpoint["state"] == session.system.export_state()
            # And the store itself refuses a delta it cannot place.
            stale = (lost["delta_json"], lost["since"])
            assert store.append_delta("s1", 4, *stale, "m") is False
            assert store.checkpoint_mark("s1") == ""
            assert store.load("s1").checkpoint["seq"] == 3
        finally:
            session.close_resources()

    def test_doubling_rule_asks_for_a_full_export(self, store):
        """Appended delta bytes >= base bytes -> the next one is full."""
        session = grown_session(wmes=8)
        try:
            store.register("s1", {"program": PROGRAM})
            kinds = []
            for seq in range(1, 40):
                session.perform(
                    {"op": "assert", "wmes": [["kill", {"v": 1000 + seq}]] * 2}
                )
                kinds.append(checkpoint(store, session, seq))
                if kinds.count("full") == 3:
                    break
            fulls = [i for i, kind in enumerate(kinds) if kind == "full"]
            assert len(fulls) == 3, kinds
            # Each base is bigger, so each run of deltas is longer.
            assert fulls[2] - fulls[1] > fulls[1] - fulls[0] > 1
            size = os.path.getsize(store._ckpt_path("s1"))
            assert size == store._chains["s1"].base_bytes
        finally:
            session.close_resources()


SEPARATORS = (",", ":")
symbols = st.one_of(
    st.sampled_from(['"', "\\", 'a"b\\c', "\u00e9t\u00e9", "\u2603", "\u2028", "\u65e5"]),
    st.text(min_size=1, max_size=6),
)
numbers = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
)
rows = st.lists(
    st.tuples(symbols, st.dictionaries(symbols, st.one_of(symbols, numbers), max_size=3)),
    max_size=5,
)


def run_state(next_timetag: int) -> dict:
    return {
        "next_timetag": next_timetag, "cycle": 2, "total_firings": 2,
        "total_wme_changes": next_timetag - 1, "halted": False, "halt_reason": "",
    }


def check_splices(session_id, program, base_rows, added_rows, output) -> None:
    """The store's full file and delta line, spliced from the worker's
    text, against ``json.dumps`` of the same payload and row, byte for
    byte, and the load of what it wrote against ``fold``."""
    top = len(base_rows) + len(added_rows) + 1
    state = {
        "schema": ENGINE_STATE_SCHEMA,
        "wmes": [[tag, cls, attrs] for tag, (cls, attrs) in enumerate(base_rows, 1)],
        "fired": [["p", [1]]] if base_rows else [],
        "output": output,
        **run_state(len(base_rows) + 1),
    }
    delta = {  # in the order export_delta writes it, ``since`` last
        "schema": ENGINE_DELTA_SCHEMA,
        "added": [
            [tag, cls, attrs]
            for tag, (cls, attrs) in enumerate(added_rows, len(base_rows) + 1)
        ],
        "removed": [1] if base_rows else [],
        "fired": [["p", [top - 1]]] if added_rows else [],
        "output": output[::-1],
        **run_state(top),
        "since": "m1",
    }
    config = {"program": program, "matcher": "compiled"}
    with tempfile.TemporaryDirectory() as root:
        store = DurabilityStore(root)
        try:
            # The text a worker sends: encode_record's, as _op_export does.
            store.save_checkpoint(session_id, 3, config, encode_record(state), "m1")
            assert store.append_delta(session_id, 5, encode_record(delta), "m1", "m2")
            with open(store._ckpt_path(session_id), "rb") as handle:
                written = handle.read()
            bundle = store.load(session_id)
        finally:
            store.close()
    full = {
        "schema": CHECKPOINT_SCHEMA, "id": session_id, "seq": 3,
        "config": config, "state": state,
    }
    line = {"extends": 3, "seq": 5, "delta": delta}
    assert written == (
        json.dumps(full, separators=SEPARATORS, sort_keys=True) + "\n"
        + json.dumps(line, separators=SEPARATORS) + "\n"
    ).encode()
    assert bundle.checkpoint["seq"] == 5
    assert bundle.checkpoint["state"] == fold(state, delta)


class TestFormat:
    """(f) the store splices the worker's text into what it writes, and
    the file is what ``json.dumps`` of the whole would have been."""

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        session_id=symbols, program=symbols, base_rows=rows, added_rows=rows,
        output=st.lists(symbols, max_size=3),
    )
    def test_spliced_file_and_line_are_json_dumps_byte_for_byte(
        self, session_id, program, base_rows, added_rows, output
    ):
        check_splices(session_id, program, base_rows, added_rows, output)

    @pytest.mark.fuzz
    @settings(max_examples=800, deadline=None, database=None)
    @given(
        session_id=symbols, program=symbols, base_rows=rows, added_rows=rows,
        output=st.lists(symbols, max_size=3),
    )
    def test_spliced_file_and_line_are_json_dumps_byte_for_byte_long(
        self, session_id, program, base_rows, added_rows, output
    ):
        check_splices(session_id, program, base_rows, added_rows, output)

    def test_a_file_written_the_old_way_loads_and_recovers_identically(self, store):
        """Before the splice the store wrote ``json.dumps`` of the rows it
        had decoded, refraction keys with dead timetags included."""
        session = Session("s1", program=PROGRAM, matcher="compiled")
        restored = None
        try:
            store.register("s1", {"program": PROGRAM})
            session.perform({"op": "assert", "wmes": PRELOAD, "run": True})
            assert checkpoint(store, session, 1) == "full"
            log = session.system.listener
            fire_and_kill(session)
            old_delta = {
                **session.system.export_delta(
                    log.added.values(), log.removed, log.fired, log.output_from
                ),
                "fired": [[name, list(tags)] for name, tags in log.fired],
                "since": log.mark,
            }
            assert checkpoint(store, session, 2) == "delta"
            path = store._ckpt_path("s1")
            with open(path) as handle:
                base, new_line = handle.read().splitlines()
            new_delta = json.loads(new_line)["delta"]
            # The only difference: the keys that can never fire again.
            live = session.system.memory.has_timetag
            assert new_delta == {
                **old_delta,
                "fired": [key for key in old_delta["fired"] if all(map(live, key[1]))],
            }
            assert new_delta != old_delta
            new = store.load("s1")
            old_base = json.loads(base)
            with open(path, "w") as handle:
                handle.write(json.dumps(old_base, separators=SEPARATORS, sort_keys=True))
                handle.write("\n")
                line = {"extends": 1, "seq": 2, "delta": old_delta}
                handle.write(json.dumps(line, separators=SEPARATORS) + "\n")
            old = store.load("s1")
            assert old == new and old.notes == []
            assert old.checkpoint["state"] == session.system.export_state()
            restored = Session(
                "copy", program=PROGRAM, matcher="compiled", state=old.checkpoint["state"]
            )
            for step in CONTINUATION:
                assert apply_step(restored, step) == apply_step(session, step)
        finally:
            session.close_resources()
            if restored is not None:
                restored.close_resources()


class TestLinearity:
    """(d) checkpoint bytes follow the ops, not ops x working memory."""

    @staticmethod
    def bytes_for(tmp_path, ops: int) -> int:
        store = DurabilityStore(str(tmp_path / f"n{ops}"))
        session = grown_session(wmes=16)
        try:
            store.register("s1", {"program": PROGRAM})
            for seq in range(1, ops + 1):
                session.perform(
                    {"op": "assert", "wmes": [["kill", {"v": seq}]] * 4}
                )
                if seq % 8 == 0:
                    checkpoint(store, session, seq)
            return store.stats()["checkpoint_bytes"]
        finally:
            session.close_resources()
            store.close()

    def test_twice_the_ops_is_about_twice_the_bytes(self, tmp_path):
        small = self.bytes_for(tmp_path, 400)
        large = self.bytes_for(tmp_path, 800)
        # Full-export-every-time reads ~4x here (WM grows with the ops).
        assert large <= 2.3 * small, (small, large)


def test_stats_counts_sessions_without_reading_them(store, monkeypatch):
    store.register("a", {"program": "p" * 1000})
    store.register("b", {"program": "p"})
    monkeypatch.setattr(json, "load", lambda *a, **k: pytest.fail("parsed a meta file"))
    assert store.stats()["sessions"] == 2


@pytest.mark.chaos
class TestProcessFleetDeltaRecovery:
    """(e) SIGKILL a real worker: its sessions come back from a base and
    at least two deltas, replaying no more than one checkpoint window."""

    EVERY = 4

    def test_kill_recovers_from_base_plus_deltas(self):
        from repro.serve import ProcessRouterFleet

        from tests.serve.test_fleet import snapshot_wm

        def batch(i):
            return [["kill", {"v": 10 * i + k}] for k in range(3)]

        with ProcessRouterFleet(
            workers=2, restart_backoff=0.05, checkpoint_every=self.EVERY
        ) as fleet, RuleClient(fleet.address) as client:
            sids = [
                client.create_session(program=PROGRAM, name=f"k{i}", matcher="compiled")
                for i in range(4)
            ]
            reference = Session("ref", program=PROGRAM, matcher="compiled")
            try:
                for sid in sids:
                    client.assert_wmes(sid, PRELOAD * 4)
                reference.perform({"op": "assert", "wmes": PRELOAD * 4})
                for i in range(4 * self.EVERY + 1):
                    for sid in sids:
                        client.assert_wmes(sid, batch(i), run=True)
                    reference.perform({"op": "assert", "wmes": batch(i), "run": True})
                # The checkpoint task runs off the request path: let the
                # last one land before reading the books.
                durable = client.stats()["router"]["durability"]
                assert durable["checkpoints_delta"] >= 2 * len(sids)
                placements = {
                    sid: row["worker"] for sid, row in client.stats()["sessions"].items()
                }
                victim = placements[sids[0]]
                doomed = [sid for sid in sids if placements[sid] == victim]
                for sid in doomed:
                    with open(fleet.durability._ckpt_path(sid)) as handle:
                        assert len(handle.read().splitlines()) >= 3  # base + 2
                fleet.kill_worker(victim)
                replies = {
                    sid: client.assert_wmes(sid, batch(99), run=True) for sid in sids
                }
                expected = reference.perform(
                    {"op": "assert", "wmes": batch(99), "run": True}
                )
                router = client.stats()["router"]
                assert router["lost_sessions"] == []
                recovered = [e for e in router["events"] if e["type"] == "recovered"]
                assert sorted(e["session"] for e in recovered) == sorted(doomed)
                for event in recovered:
                    assert event["used_checkpoint"] and event["notes"] == []
                    assert event["replayed_ops"] <= self.EVERY
                wm = sorted(
                    [w.cls, sorted(w.attributes.items()), w.timetag]
                    for w in reference.system.memory.snapshot()
                )
                for sid in sids:
                    assert replies[sid]["run"]["firings"] == expected["run"]["firings"]
                    assert snapshot_wm(client, sid) == wm
            finally:
                reference.close_resources()
