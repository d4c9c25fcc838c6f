"""A default engine retains O(working memory), not O(changes ever made).

Clock-free: a sliding-window stream holds working memory constant while
the change count doubles, and what the process retains is counted in
GC-tracked objects and in the lengths of the engine's own lists.
"""

import gc

import pytest

from repro.ops5 import ProductionSystem

PROGRAM = """
(p tag (item ^id <i> ^state new)
   --> (modify 1 ^state seen) (make mark ^id <i>))
(p pair (mark ^id <i>) (item ^id <i> ^state seen) - (done ^id <i>)
   --> (make done ^id <i>))
"""
WAVE_ITEMS = 4
WINDOW_WAVES = 8
#: One wave: 4 asserts, 4 x (modify + make) + 4 makes, 12 retracts later.
WAVE_FIRINGS = 2 * WAVE_ITEMS


class SlidingWindow:
    """Waves of items through a window: WM is constant once it is full."""

    def __init__(self, system: ProductionSystem) -> None:
        self.system = system
        self.window: list[list[int]] = []
        self.next_id = 0
        self.longest_run = 0

    def wave(self) -> None:
        system = self.system
        first = system.memory.next_timetag
        changes = [
            ("assert", "item", {"id": self.next_id + i, "state": "new"})
            for i in range(WAVE_ITEMS)
        ]
        self.next_id += WAVE_ITEMS
        if len(self.window) >= WINDOW_WAVES:
            changes += [("retract", tag) for tag in self.window.pop(0)]
        system.apply_changes(changes)
        result = system.run()
        assert result.fired == len(result.cycles) == WAVE_FIRINGS
        self.longest_run = max(self.longest_run, len(result.cycles))
        self.window.append(
            [
                tag
                for tag in range(first, system.memory.next_timetag)
                if system.memory.has_timetag(tag)
            ]
        )

    def waves(self, count: int) -> int:
        """Run *count* waves; GC-tracked objects alive afterwards."""
        for _ in range(count):
            self.wave()
        # Twice, until stable: a tuple of atoms is untracked by the pass
        # that visits it, so a refraction key ``(name, (timetags...))``
        # is untracked only in the pass *after* the one that untracked
        # its inner tuple.  After one pass a third of the live keys are
        # still counted and the figure follows allocation cadence, not
        # retention.
        gc.collect()
        gc.collect()
        return len(gc.get_objects())


@pytest.mark.parametrize("matcher", ["rete", "compiled", "parallel"])
def test_default_engine_is_flat_in_changes_at_constant_wm(matcher):
    gc.collect()
    baseline = len(gc.get_objects())
    system = ProductionSystem(PROGRAM, matcher=matcher)
    stream = SlidingWindow(system)
    stream.waves(WINDOW_WAVES + 4)  # fill the window, reach steady state
    wm = len(system.memory)
    n = 60
    after_n = stream.waves(n) - baseline
    after_2n = stream.waves(n) - baseline
    assert len(system.memory) == wm
    assert system.total_firings == (WINDOW_WAVES + 4 + 2 * n) * WAVE_FIRINGS
    assert after_n > 0
    assert abs(after_2n - after_n) <= 0.05 * after_n, (after_n, after_2n)

    stats = system.matcher.stats
    assert system.cycles is None and stats.changes is None
    assert stats.total_changes == system.total_wme_changes
    holders = [("engine", vars(system))]
    holders.append(("stats", {name: getattr(stats, name) for name in stats.__slots__}))
    for owner, attributes in holders:
        for name, value in attributes.items():
            if isinstance(value, list):
                assert len(value) <= stream.longest_run, (owner, name, len(value))


def test_history_is_kept_when_asked_for():
    system = ProductionSystem(PROGRAM, matcher="compiled", history=True)
    stream = SlidingWindow(system)
    stream.waves(WINDOW_WAVES + 4)
    assert len(system.cycles) == system.total_firings
    assert len(system.matcher.stats.changes) == system.total_wme_changes
    system.reset()
    assert system.cycles == []  # reset clears the run, keeps the request


def test_run_result_holds_exactly_its_own_cycles():
    system = ProductionSystem(PROGRAM, matcher="compiled")
    system.apply_changes(
        [("assert", "item", {"id": i, "state": "new"}) for i in range(3)]
    )
    first = system.run(max_cycles=2)
    second = system.run()
    assert [c.cycle for c in first.cycles] == [1, 2]
    assert [c.cycle for c in second.cycles] == [3, 4, 5, 6]
    assert first.total_changes + second.total_changes == (
        system.total_wme_changes - 3
    )
    assert second.mean_changes_per_firing == second.total_changes / 4


def test_assert_spec_attributes_are_copied():
    """``apply_changes`` hands the caller's dict to the WME constructor,
    whose one copy keeps later edits out of working memory."""
    system = ProductionSystem(PROGRAM, matcher="compiled")
    attrs = {"id": 1, "state": "new"}
    (wme,) = system.apply_changes([("assert", "item", attrs)]).added
    attrs["state"] = "seen"
    assert wme.get("state") == "new"
    assert system.apply_changes([("assert", "item", None)]).added[0].get("id") == "nil"
