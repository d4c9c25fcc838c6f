"""Unit tests for the partitioned kernel's moving parts.

``matcher="parallel"`` is ``CompiledMatcher(partitions=N)``.  The
differential harness (test_differential_matchers.py) and
test_partitioned.py prove the end-to-end semantics; these tests pin
down the individual mechanisms -- partitioning, late and removed
productions, argument checks -- so a regression points at the broken
part directly.
"""

import pytest

from repro.kernel import CompiledMatcher
from repro.ops5 import Ops5Error, ProductionSystem, matcher_named, parse_program
from repro.ops5.wme import WME
from repro.psim.partition import assign_productions
from repro.rete import ReteNetwork
from repro.workloads.generator import run_case
from repro.workloads.programs import r1_soar
from tests.workloads.test_generator import setup_case

CLOSURE = """
(p base (parent ^from <x> ^to <y>) - (anc ^from <x> ^to <y>)
   --> (make anc ^from <x> ^to <y>))
(p step (anc ^from <x> ^to <y>) (parent ^from <y> ^to <z>)
        - (anc ^from <x> ^to <z>)
   --> (make anc ^from <x> ^to <z>))
"""

CHAIN = [("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(5)]


def _closure_productions():
    return parse_program(CLOSURE).productions


# -- partitioning -------------------------------------------------------------


def test_assign_productions_is_balanced_and_deterministic():
    productions = _closure_productions()  # two productions
    first = assign_productions(productions, 2)
    second = assign_productions(list(reversed(productions)), 2)
    assert [p.names for p in first] == [p.names for p in second]
    assert all(len(p.productions) == 1 for p in first)


def test_assign_productions_handles_more_shards_than_rules():
    partitions = assign_productions(_closure_productions(), 4)
    assert len(partitions) == 4
    assert sum(len(p.productions) for p in partitions) == 2
    assert [p.index for p in partitions] == [0, 1, 2, 3]


def test_sharing_loss_is_at_least_one():
    """Partitions regroup their own slices: never fewer first-level
    groups than the single kernel, and on r1-soar strictly more."""
    matcher = CompiledMatcher(partitions=2)
    r1_soar.build(matcher=matcher)
    summary = matcher.kernel_summary()
    serial = summary["sharing"]["groups"]
    distributed = sum(map(len, summary["partitions"]["group_sizes"]))
    assert distributed / serial > 1.0


# -- matcher behaviour ---------------------------------------------------------


def test_inline_matcher_matches_serial_rete():
    outcome = run_case(
        setup_case(CLOSURE, CHAIN),
        {"rete": ReteNetwork, "parallel": lambda: matcher_named("parallel", workers=0)},
    )
    assert outcome.ok, outcome.divergences()


def test_late_production_backfills_existing_memory():
    matcher = CompiledMatcher(partitions=1)
    memory = matcher.memory
    for cls, attrs in CHAIN:
        matcher.add_wme(memory.add(WME(cls, attrs)))
    base, step = _closure_productions()
    matcher.add_production(base)
    serial = ReteNetwork()
    serial.add_production(base)
    for wme in memory:
        serial.add_wme(serial.memory.adopt(wme))
    assert matcher.conflict_set.snapshot() == serial.conflict_set.snapshot()


def test_remove_production_retracts_its_instantiations():
    matcher = CompiledMatcher(partitions=2)
    base, step = _closure_productions()
    matcher.add_production(base)
    matcher.add_production(step)
    memory = matcher.memory
    for cls, attrs in CHAIN:
        matcher.add_wme(memory.add(WME(cls, attrs)))
    assert len(matcher.conflict_set) > 0
    matcher.remove_production("base")
    remaining = {key[0] for key in matcher.conflict_set.snapshot()}
    assert "base" not in remaining


def test_remove_production_in_same_batch_as_wme_changes():
    """A rule removed before anyone read the conflict set leaves no trace."""
    matcher = CompiledMatcher(partitions=1)
    base, step = _closure_productions()
    matcher.add_production(base)
    memory = matcher.memory
    for cls, attrs in CHAIN:
        matcher.add_wme(memory.add(WME(cls, attrs)))
    matcher.remove_production("base")
    assert matcher.conflict_set.snapshot() == frozenset()


def test_duplicate_production_and_unknown_removal_raise():
    matcher = CompiledMatcher(partitions=2)
    base, _ = _closure_productions()
    matcher.add_production(base)
    with pytest.raises(Ops5Error):
        matcher.add_production(base)
    with pytest.raises(Ops5Error):
        matcher.remove_production("nope")


def test_negative_worker_count_rejected():
    with pytest.raises(Ops5Error):
        matcher_named("parallel", workers=-1)
    with pytest.raises(Ops5Error):
        CompiledMatcher(partitions=0)


def test_partition_snapshot_before_and_after_start():
    matcher = CompiledMatcher(partitions=2)
    base, step = _closure_productions()
    matcher.add_production(base)
    matcher.add_production(step)
    preview = [p.names for p in matcher.partition_snapshot()]
    assert sorted(n for names in preview for n in names) == ["base", "step"]
    matcher.add_wme(matcher.memory.add(WME("parent", {"from": "a", "to": "b"})))
    assert [p.names for p in matcher.partition_snapshot()] == preview
    assert len(matcher.runtimes) == 2


def test_engine_runs_with_parallel_string_backend():
    system = ProductionSystem(CLOSURE, matcher="parallel")
    assert isinstance(system.matcher, CompiledMatcher)
    assert system.matcher.partitions == 2
    for cls, attrs in CHAIN:
        system.add(cls, **attrs)
    result = system.run()
    assert result.halted
    assert result.fired > 0
