"""Determinism regressions: simulation and live execution are functions.

The paper's measurements are only reproducible if both layers are
deterministic: the discrete-event simulator must return bit-equal
results for equal inputs, and the partitioned matcher must produce
identical runs for every partition count and across repeated runs.
That guarantee follows from disjoint per-production conflict-set edits
plus totally-ordered conflict resolution; these tests pin it.
"""

import pytest

from repro.parallel import ParallelMatcher, run_recorded
from repro.psim import MachineConfig, simulate
from repro.rete import ReteNetwork
from repro.trace import capture_trace

CLOSURE = """
(p base (parent ^from <x> ^to <y>) - (anc ^from <x> ^to <y>)
   --> (make anc ^from <x> ^to <y>))
(p step (anc ^from <x> ^to <y>) (parent ^from <y> ^to <z>)
        - (anc ^from <x> ^to <z>)
   --> (make anc ^from <x> ^to <z>))
"""

CHAIN = [("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(5)]

COUNTDOWN = """
(p tick (count ^n <n> ^next <m>) (value ^n <n>)
   --> (remove 2) (make value ^n <m>) (write <n>))
"""

COUNT_SETUP = [
    ("count", {"n": i, "next": i - 1}) for i in range(5, 0, -1)
] + [("value", {"n": 5})]


def _simulate_once():
    trace, _, _ = capture_trace(CLOSURE, CHAIN, name="closure")
    return simulate(trace, MachineConfig(processors=8), record_placements=True)


def test_simulator_is_bit_equal_across_runs():
    first = _simulate_once()
    second = _simulate_once()
    # Dataclass equality covers every measured field, and placements
    # compare the full task-by-task schedule, not just the aggregates.
    assert first == second
    assert first.placements == second.placements


@pytest.mark.parametrize("program,setup", [(CLOSURE, CHAIN), (COUNTDOWN, COUNT_SETUP)])
def test_live_executor_identical_across_worker_counts(program, setup):
    reference = run_recorded(program, setup, ReteNetwork())
    for workers in (0, 1, 2, 3):
        matcher = ParallelMatcher(workers=workers)
        assert run_recorded(program, setup, matcher) == reference


def test_live_executor_identical_across_repeated_runs():
    first = run_recorded(CLOSURE, CHAIN, ParallelMatcher(workers=2))
    second = run_recorded(CLOSURE, CHAIN, ParallelMatcher(workers=2))
    assert first == second


def test_partitioning_is_stable_across_runs():
    """Same program, same worker count -> same production placement."""
    def placement():
        matcher = ParallelMatcher(workers=3)
        run_recorded(CLOSURE, CHAIN, matcher)
        return [p.names for p in matcher.partition_snapshot()]

    assert placement() == placement()
