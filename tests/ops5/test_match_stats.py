"""MatchStats keeps a count and running sums; rows only on request."""

import pytest

from repro.ops5 import ProductionSystem
from repro.workloads.generator import SERIAL_BACKENDS
from repro.workloads.programs import closure


@pytest.mark.parametrize("matcher", SERIAL_BACKENDS)
def test_means_equal_recomputation_from_the_rows(matcher):
    system = ProductionSystem(closure.PROGRAM, matcher=matcher, history=True)
    for a, b in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")):
        system.add("parent", **{"from": a, "to": b})
    system.run()
    system.remove_wme(system.memory.snapshot()[0])
    system.run()

    stats = system.matcher.stats
    rows = stats.changes
    assert stats.total_changes == len(rows) == system.total_wme_changes > 10
    assert stats.total_affected_productions == sum(r.affected_productions for r in rows)
    assert stats.total_node_activations == sum(r.node_activations for r in rows)
    assert stats.total_comparisons == sum(r.comparisons for r in rows)
    assert stats.total_tokens_built == sum(r.tokens_built for r in rows)
    assert {r.kind for r in rows} == {"add", "remove"}
    assert stats.mean_affected_productions == (
        sum(r.affected_productions for r in rows) / len(rows)
    )
    assert stats.mean_node_activations == (
        sum(r.node_activations for r in rows) / len(rows)
    )
    assert stats.mean_affected_productions > 0


@pytest.mark.parametrize("matcher", SERIAL_BACKENDS)
def test_sums_do_not_depend_on_row_retention(matcher):
    def totals(history):
        system = ProductionSystem(closure.PROGRAM, matcher=matcher, history=history)
        for a, b in (("a", "b"), ("b", "c"), ("c", "d")):
            system.add("parent", **{"from": a, "to": b})
        system.run()
        stats = system.matcher.stats
        assert (stats.changes is not None) == history
        return (
            stats.total_changes,
            stats.total_affected_productions,
            stats.total_node_activations,
            stats.total_comparisons,
            stats.total_tokens_built,
        )

    assert totals(history=False) == totals(history=True)


def test_empty_stats_read_zero():
    stats = ProductionSystem("(p x (a) --> (halt))").matcher.stats
    assert stats.mean_affected_productions == 0.0
    assert stats.mean_node_activations == 0.0
