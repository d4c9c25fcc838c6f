"""The six system programs on the partitioned kernel, against Rete.

test_partitioned.py compares ``parallel`` with ``compiled``; this is the
outer link of the chain, both against the node-walking Rete, plus a
kernel attached to a run in progress.
"""

import pytest

from repro.kernel.matcher import CompiledMatcher
from repro.kernel.shared import shared_kernel
from repro.ops5.conflict import ConflictSet
from repro.parallel import ParallelMatcher
from repro.parallel.validate import run_recorded
from repro.rete import ReteNetwork
from repro.workloads.programs import SYSTEM_PROGRAMS

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
    the unpartitioned kernel, on one partition and on two -- all three
    drive the one ``KernelRuntime`` entry -- and a kernel attached
    mid-run (``replay``) re-derives Rete's conflict set."""
    mod = SYSTEM_PROGRAMS[name]
    reference = mod.run(matcher=ReteNetwork())
    assert reference.fired > 0
    subjects = [("compiled", mod.run(matcher=CompiledMatcher()))]
    for workers in (0, 2):
        subjects.append((workers, mod.run(matcher=ParallelMatcher(workers=workers))))
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
    """Hundreds of adds before the first conflict-set read, then a run:
    every conflict set along the way is the unpartitioned kernel's."""
    facts = [("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(240)]
    reference = run_recorded(CLOSURE, facts, CompiledMatcher(), max_cycles=60)
    subject = run_recorded(CLOSURE, facts, ParallelMatcher(workers=2), max_cycles=60)
    assert subject == reference
