"""Activation instrumentation: the trace the simulator consumes."""

from repro.ops5 import parse_program
from repro.ops5.wme import WME, WorkingMemory
from repro.rete import ReteNetwork, RecordingListener

SRC = """
(p find (goal ^want <c>) (block ^color <c>) --> (halt))
"""


def _run(events_for):
    listener = RecordingListener()
    net = ReteNetwork(listener)
    net.stats.keep_rows()
    for production in parse_program(SRC).productions:
        net.add_production(production)
    memory = WorkingMemory()
    for cls, attrs in events_for:
        wme = memory.add(WME(cls, attrs))
        net.add_wme(wme)
    return listener, net


class TestRecording:
    def test_one_group_per_change(self):
        listener, _ = _run([("goal", {"want": "red"}), ("block", {"color": "red"})])
        assert len(listener.changes) == 2
        kinds = [(kind, cls) for kind, cls, _ in listener.changes]
        assert kinds == [("add", "goal"), ("add", "block")]

    def test_compile_time_population_is_quiet(self):
        listener = RecordingListener()
        net = ReteNetwork(listener)
        memory = WorkingMemory()
        wme = memory.add(WME("block", {"color": "red"}))
        net.add_wme(wme)
        before = len(listener.changes)
        net.add_production(parse_program(SRC).productions[0])
        assert len(listener.changes) == before

    def test_event_forest_structure(self):
        listener, _ = _run([("goal", {"want": "red"}), ("block", {"color": "red"})])
        _, _, events = listener.changes[1]
        by_seq = {e.seq for e in events}
        roots = [e for e in events if e.parent is None]
        assert len(roots) == 1
        assert roots[0].node_kind == "root"
        for event in events:
            if event.parent is not None:
                assert event.parent in by_seq
                assert event.parent < event.seq  # seq is topological

    def test_activation_kinds_cover_the_pipeline(self):
        listener, _ = _run([("goal", {"want": "red"}), ("block", {"color": "red"})])
        _, _, events = listener.changes[1]
        kinds = {e.node_kind for e in events}
        assert {"root", "amem", "join", "bmem", "term"} <= kinds

    def test_terminal_event_names_production(self):
        listener, _ = _run([("goal", {"want": "red"}), ("block", {"color": "red"})])
        _, _, events = listener.changes[1]
        [term] = [e for e in events if e.node_kind == "term"]
        assert term.production == "find"
        assert term.direction == "add"

    def test_join_counters(self):
        listener, _ = _run(
            [("goal", {"want": "red"}), ("goal", {"want": "red"}), ("block", {"color": "red"})]
        )
        _, _, events = listener.changes[2]
        [join] = [e for e in events if e.node_kind == "join"]
        assert join.side == "right"
        assert join.comparisons == 2  # two goal tokens examined
        assert join.outputs == 2

    def test_deletions_mirror_additions(self):
        listener, net = _run([("goal", {"want": "red"}), ("block", {"color": "red"})])
        add_events = listener.changes[1][2]
        wme = next(iter(net.current_wmes()))  # whichever; remove the block
        block = [w for w in net.current_wmes() if w.cls == "block"][0]
        net.remove_wme(block)
        kind, cls, delete_events = listener.changes[-1]
        assert kind == "remove"
        assert {e.node_kind for e in delete_events} == {e.node_kind for e in add_events}
        assert all(e.direction == "delete" for e in delete_events)

    def test_stats_match_event_counts(self):
        listener, net = _run([("goal", {"want": "red"}), ("block", {"color": "red"})])
        record = net.stats.changes[-1]
        _, _, events = listener.changes[-1]
        assert record.node_activations == len(events)
        assert record.comparisons == sum(e.comparisons for e in events)
