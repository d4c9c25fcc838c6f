"""The six system programs on the partitioned kernel, against Rete.

test_partitioned.py compares partition counts with each other; this is
the outer link of the chain, both against the node-walking Rete, plus a
kernel attached to a run in progress.
"""

import pytest

from repro.kernel.matcher import CompiledMatcher
from repro.kernel.shared import shared_kernel
from repro.ops5.conflict import ConflictSet
from repro.rete import ReteNetwork
from repro.workloads.generator import drive_case
from repro.workloads.programs import SYSTEM_PROGRAMS
from tests.workloads.test_generator import setup_case

CLOSURE = """
(p base (parent ^from <x> ^to <y>) - (anc ^from <x> ^to <y>)
   --> (make anc ^from <x> ^to <y>))
(p step (anc ^from <x> ^to <y>) (parent ^from <y> ^to <z>)
        - (anc ^from <x> ^to <z>)
   --> (make anc ^from <x> ^to <z>))
"""


# -- differential identity ----------------------------------------------------


def _firings(result):
    return [(c.production, c.timetags) for c in result.cycles]


@pytest.mark.parametrize("name", sorted(SYSTEM_PROGRAMS))
def test_system_program_bit_identical(name):
    """Every system-class program fires as on the node-walking Rete on
    the single kernel, on two partitions and on three -- all three
    drive the one ``KernelRuntime`` entry -- and a kernel attached
    mid-run (``replay``) re-derives Rete's conflict set."""
    mod = SYSTEM_PROGRAMS[name]
    reference = mod.run(matcher=ReteNetwork())
    assert reference.fired > 0
    subjects = [("compiled", mod.run(matcher=CompiledMatcher()))]
    for partitions in (2, 3):
        subjects.append((partitions, mod.run(matcher=CompiledMatcher(partitions=partitions))))
    for label, subject in subjects:
        assert _firings(subject) == _firings(reference), label
        assert subject.halted == reference.halted, label
        assert subject.halt_reason == reference.halt_reason, label
        assert tuple(subject.output) == tuple(reference.output), label

    midway = mod.build(matcher=ReteNetwork())
    midway.run(max_cycles=reference.fired // 2)
    productions = list(midway.matcher.productions)
    attached = ConflictSet()
    shared_kernel(productions).attach(
        attached, productions, midway.memory.snapshot()
    )
    assert len(attached) > 0
    assert attached.snapshot() == midway.conflict_set.snapshot()


def test_bulk_load_matches_the_unpartitioned_kernel():
    """Hundreds of adds, then a run: every conflict set along the way
    (after each add and after each cycle) is the unpartitioned kernel's."""
    facts = [("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(240)]
    case = setup_case(CLOSURE, facts)
    reference = drive_case(CompiledMatcher(), case, max_cycles=60)
    subject = drive_case(CompiledMatcher(partitions=2), case, max_cycles=60)
    assert len(reference.fired) == 60
    assert subject == reference
