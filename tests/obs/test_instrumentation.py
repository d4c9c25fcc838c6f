"""The recorder threaded through the live layers.

Engine cycles, Rete activations, kernel compiles, and serve requests
all land on one Recorder timeline; these tests pin the event
vocabulary each layer emits and the counters the spans must agree with.
"""

from repro.obs import Recorder, snapshot
from repro.kernel import CompiledMatcher
from repro.ops5 import ProductionSystem
from repro.rete import RecorderListener, ReteNetwork
from repro.serve.session import Session, SessionManager
from repro.workloads.programs import hanoi

COUNTDOWN = """
(p step (count ^n { <x> > 0 }) --> (modify 1 ^n (compute <x> - 1)))
(p done (count ^n 0) --> (halt))
"""


def by_cat(recorder, cat):
    return [e for e in recorder.events if e.cat == cat]


class TestEngineSpans:
    def test_wm_instants_match_engine_counter(self):
        recorder = Recorder()
        system = hanoi.build(3, recorder=recorder)
        system.run()
        wm_events = by_cat(recorder, "wm")
        assert len(wm_events) == system.total_wme_changes
        kinds = {e.name for e in wm_events}
        assert kinds == {"wm:add", "wm:remove"}

    def test_select_and_fire_spans_per_cycle(self):
        recorder = Recorder()
        system = ProductionSystem(COUNTDOWN, recorder=recorder)
        system.add("count", n=3)
        system.run()
        engine_events = by_cat(recorder, "engine")
        selects = [e for e in engine_events if e.name == "select"]
        fires = [e for e in engine_events if e.name == "fire"]
        # One select + one fire span per executed cycle (a halt action
        # ends the run, so no trailing empty resolution here).
        assert len(fires) == system.cycle == 4
        assert len(selects) == system.cycle
        assert fires[0].args["production"] == "step"
        assert fires[-1].args["production"] == "done"
        assert [e.args["cycle"] for e in fires] == [1, 2, 3, 4]

    def test_disabled_recorder_leaves_counters_working(self):
        system = ProductionSystem(COUNTDOWN)
        system.add("count", n=2)
        system.run()
        assert system.total_firings == 3
        # 1 initial add + two modify firings at 2 changes each.
        assert system.total_wme_changes == 5

    def test_total_counters_survive_reset(self):
        system = ProductionSystem(COUNTDOWN)
        system.add("count", n=1)
        system.run()
        fired, changed = system.total_firings, system.total_wme_changes
        assert fired > 0 and changed > 0
        system.reset()
        assert system.cycle == 0
        assert system.total_firings == fired  # lifetime, never reset


class TestReteActivationSpans:
    def test_activations_become_timed_spans(self):
        recorder = Recorder()
        net = ReteNetwork(listener=RecorderListener(recorder))
        system = hanoi.build(3, matcher=net, recorder=recorder)
        system.run()
        rete_events = by_cat(recorder, "rete")
        changes = [e for e in rete_events if e.name.startswith("change:")]
        activations = [e for e in rete_events if "#" in e.name]
        assert len(changes) == system.total_wme_changes
        assert activations, "node activations must produce spans"
        kinds = {e.name.split("#")[0] for e in activations}
        assert "root" in kinds and ("join" in kinds or "amem" in kinds)
        assert all(e.dur >= 0 for e in activations)
        assert all("seq" in e.args and "comparisons" in e.args for e in activations)

    def test_span_comparisons_sum_to_match_stats(self):
        recorder = Recorder()
        net = ReteNetwork(listener=RecorderListener(recorder))
        system = hanoi.build(3, matcher=net, recorder=recorder)
        system.run()
        spans = [e for e in by_cat(recorder, "rete") if "#" in e.name]
        assert (
            sum(e.args["comparisons"] for e in spans)
            == net.stats.total_comparisons
        )

    def test_untimed_listener_leaves_events_unstamped(self):
        net = ReteNetwork()  # default listener: wants_timing is False
        assert net._activation_clock is None


class TestParallelSpans:
    def test_one_compile_span_on_the_engine_lane(self):
        recorder = Recorder()
        matcher = CompiledMatcher(partitions=2, recorder=recorder)
        hanoi.build(3, matcher=matcher, recorder=recorder).run()
        assert not by_cat(recorder, "parallel")
        (compile_span,) = [e for e in recorder.events if e.name == "kernel:compile"]
        assert compile_span.args["partitions"] == 2
        assert all(e.tid == 0 for e in recorder.events)

    def test_parallel_run_snapshot_consistent_with_engine(self):
        recorder = Recorder()
        matcher = CompiledMatcher(partitions=1, recorder=recorder)
        system = hanoi.build(3, matcher=matcher, recorder=recorder)
        system.run()
        data = snapshot(system, recorder=recorder)
        assert data["engine"]["wme_changes"] == data["match"]["wme_changes"]
        assert data["recorder"]["events"] == len(recorder.events)


class TestServeSpans:
    def test_request_spans_and_metrics_in_describe(self):
        recorder = Recorder()
        session = Session("t", program=COUNTDOWN, recorder=recorder)
        try:
            session.perform({"op": "assert", "wmes": [["count", {"n": 2}]]})
            session.perform({"op": "run"})
            described = session.describe()
        finally:
            session.close_resources()
        serve_events = by_cat(recorder, "serve")
        assert [e.name for e in serve_events] == ["request:assert", "request:run"]
        assert all(e.args["session"] == "t" for e in serve_events)
        metrics = described["metrics"]
        assert metrics["engine"]["firings"] == described["firings"] == 3
        assert metrics["engine"]["wme_changes"] == metrics["match"]["wme_changes"]

    def test_manager_threads_recorder_and_stamps_schema(self):
        recorder = Recorder()
        manager = SessionManager(recorder=recorder)
        session = manager.create(program=COUNTDOWN)
        try:
            assert session.recorder is recorder
            rollup = manager.stats()
        finally:
            session.close_resources()
        assert rollup["schema"] == "repro.metrics/1"
        assert set(rollup) == {"schema", "sessions", "tenants", "totals"}
