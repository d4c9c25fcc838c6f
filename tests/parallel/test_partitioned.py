"""``matcher="parallel"`` is ``CompiledMatcher(partitions=N)``.

Everything observable about a run -- firings, the conflict set after
every cycle, final working memory, ``MatchStats`` totals and per-change
rows -- must be the one-partition kernel's for every partition count,
across ruleset edits with working memory resident, and without a
thread.  The ``PARENT_TOTALS`` literals were read from the thread-shard
matcher the partitioned kernel replaced (commit 83e575b, identical for
workers 0, 1, 2, 4 and rules + 3), so they pin the old backend's
measurements too.
"""

import threading

import pytest

from repro.kernel.matcher import CompiledMatcher
from repro.ops5 import ProductionSystem, matcher_named, parse_program
from repro.workloads.programs import SYSTEM_PROGRAMS, closure

PROGRAMS = {**SYSTEM_PROGRAMS, "closure": closure}

#: name -> (firings, wme-changes, affected productions, node
#: activations, comparisons, tokens built) of the parent's ``parallel``.
PARENT_TOTALS = {
    "closure": (21, 27, 54, 159, 36, 63),
    "daa": (51, 75, 580, 1280, 226, 350),
    "ep-soar": (58, 87, 563, 1247, 249, 342),
    "ilog": (35, 53, 322, 708, 140, 193),
    "mud": (39, 59, 424, 932, 166, 254),
    "r1-soar": (76, 111, 1013, 2201, 339, 594),
    "vt": (45, 67, 502, 1106, 196, 302),
}


def _observe(system, max_cycles=5000):
    """Step to quiescence: firings, per-cycle conflict sets, WM, stats."""
    fired, conflict_sets = [], []
    while len(fired) < max_cycles:
        instantiation = system.step()
        if instantiation is None:
            break
        fired.append((instantiation.production.name, instantiation.timetags))
        conflict_sets.append(system.conflict_set.snapshot())
    stats = system.matcher.stats
    return {
        "fired": fired,
        "conflict_sets": conflict_sets,
        "memory": [(w.timetag, w.content_key()) for w in system.memory.snapshot()],
        "totals": (
            stats.total_changes,
            stats.total_affected_productions,
            stats.total_node_activations,
            stats.total_comparisons,
            stats.total_tokens_built,
        ),
        "rows": stats.changes,
    }


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_partition_count_is_the_serial_kernel(name):
    mod = PROGRAMS[name]
    reference = _observe(mod.build(matcher=CompiledMatcher(), history=True))
    assert (len(reference["fired"]),) + reference["totals"] == PARENT_TOTALS[name]
    assert len(reference["rows"]) == reference["totals"][0]
    rules = len(parse_program(mod.PROGRAM).productions)
    for workers in (0, 1, 2, 4, rules + 3):
        matcher = matcher_named("parallel", workers=workers)
        assert _observe(mod.build(matcher=matcher, history=True)) == reference, workers
        sizes = matcher.kernel_summary()["partitions"]["productions"]
        assert len(sizes) == max(1, workers) and sum(sizes) == rules
        assert len(matcher.runtimes) == min(max(1, workers), rules)


EDITED = parse_program(
    """
    (p base (parent ^from <x> ^to <y>) - (anc ^from <x> ^to <y>)
       --> (make anc ^from <x> ^to <y>))
    (p step (anc ^from <x> ^to <y>) (parent ^from <y> ^to <z>)
            - (anc ^from <x> ^to <z>)
       --> (make anc ^from <x> ^to <z>))
    (p mark (anc ^to <y>) - (seen ^node <y>) --> (make seen ^node <y>))
    """
).productions


def _edited_run(matcher, strategy):
    """Ruleset edits with WM resident: *step* and *mark* arrive after
    two firings; *mark* leaves one firing later, with instantiations of
    its own and of the other two rules in the conflict set."""
    base, step, mark = EDITED
    system = ProductionSystem([base], matcher=matcher, strategy=strategy, history=True)
    for i in range(5):
        system.add("parent", **{"from": f"n{i}", "to": f"n{i + 1}"})
    first = _observe(system, max_cycles=2)
    system.add_production(step)
    system.add_production(mark)
    after_add = system.conflict_set.snapshot()
    assert {key[0] for key in after_add} == {"base", "step", "mark"}
    second = _observe(system, max_cycles=1)
    assert "mark" in {key[0] for key in system.conflict_set.snapshot()}
    system.remove_production("mark")
    after_remove = system.conflict_set.snapshot()
    assert after_remove and "mark" not in {key[0] for key in after_remove}
    return first, after_add, second, after_remove, _observe(system)


@pytest.mark.parametrize("strategy", ["lex", "mea"])
def test_ruleset_edits_with_resident_memory(strategy):
    reference = _edited_run(CompiledMatcher(), strategy)
    assert reference[-1]["fired"]
    for workers in (1, 2, 3):
        assert _edited_run(CompiledMatcher(partitions=workers), strategy) == reference


def test_a_class_no_partition_mentions():
    """``orphan`` appears in no LHS, so every runtime drops it at the
    alpha table: a zero row, and the retract is as quiet."""
    system = ProductionSystem(
        "(p emit (seed ^n <n>) --> (make orphan ^n <n>) (remove 1))",
        matcher=CompiledMatcher(partitions=2),
        history=True,
    )
    system.add("seed", n=7)
    assert system.run().fired == 1
    (orphan,) = system.memory.snapshot()
    system.remove_wme(orphan)
    rows = [
        (r.kind, r.wme_class, r.affected_productions, r.node_activations)
        for r in system.matcher.stats.changes
    ]
    assert rows[0][:3] == ("add", "seed", 1) and rows[0][3] > 0
    assert rows[1] == ("add", "orphan", 0, 0)
    assert rows[3] == ("remove", "orphan", 0, 0)
    assert len(system.conflict_set) == 0


def test_no_thread_is_ever_started():
    before = threading.active_count()
    matcher = CompiledMatcher(partitions=4)
    assert closure.run(matcher=matcher).fired == 21
    assert threading.active_count() == before
    del matcher
    assert threading.active_count() == before
