"""MatchStats keeps running sums: its means are O(1) reads."""

import pytest

from repro.ops5 import ProductionSystem
from repro.workloads.generator import SERIAL_BACKENDS
from repro.workloads.programs import closure


@pytest.mark.parametrize("matcher", SERIAL_BACKENDS)
def test_means_equal_recomputation_from_the_rows(matcher):
    system = ProductionSystem(closure.PROGRAM, matcher=matcher)
    for a, b in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")):
        system.add("parent", **{"from": a, "to": b})
    system.run()
    system.remove_wme(system.memory.snapshot()[0])
    system.run()

    stats = system.matcher.stats
    rows = stats.changes
    assert len(rows) == system.total_wme_changes > 10
    assert stats.total_affected_productions == sum(r.affected_productions for r in rows)
    assert stats.total_node_activations == sum(r.node_activations for r in rows)
    assert stats.mean_affected_productions == (
        sum(r.affected_productions for r in rows) / len(rows)
    )
    assert stats.mean_node_activations == (
        sum(r.node_activations for r in rows) / len(rows)
    )
    assert stats.mean_affected_productions > 0


def test_empty_stats_read_zero():
    stats = ProductionSystem("(p x (a) --> (halt))").matcher.stats
    assert stats.mean_affected_productions == 0.0
    assert stats.mean_node_activations == 0.0
