"""Static partitioning: the compile-time assignment shared memory avoids.

Section 5's first requirement argues for shared memory precisely because
without it "the processor on which the activations of a given node in
the Rete network are evaluated must be decided at the time the network
is loaded", and that partitioning problem "in its full generality is
shown to be NP-Complete" (Oflazer's thesis).  Tree machines like DADO
and Oflazer's both live with a static partition.

This module implements the classic greedy heuristic for the problem --
longest-processing-time (LPT) bin packing of productions onto
processors by their total historical match cost -- and produces a
production-granularity :class:`~repro.psim.granularity.Schedule` whose
tasks are *pinned* to their assigned processors.  Comparing it against
the unpinned schedule on the same trace quantifies what run-time
assignment buys (see ``benchmarks/bench_abl_partitioning.py``).

The partitioner cheats in the paper's favour: it packs using the exact
per-production costs of the *very trace being replayed* -- an oracle no
compile-time partitioner has.  Even so, static assignment loses: the
work per change is bursty and the heavy productions collide on the same
processors.

The same packing, over static weights, splits a live ruleset for the
partitioned compiled matcher (:func:`assign_productions`,
``CompiledMatcher(partitions=N)``): every production's memories live in
exactly one partition, so the first-level groups the serial kernel
shares are split -- the paper's "loss of node sharing", measured live.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from ..ops5.production import Production

if TYPE_CHECKING:  # the live partitioner (a served worker) loads no simulator
    from ..trace.events import Trace
    from .granularity import Schedule
    from .machine import MachineConfig


def production_costs(trace: Trace) -> dict[str, float]:
    """Total match cost charged to each production across the trace.

    Shared (multi-production) task costs are split evenly; unattributed
    root work is ignored here (it is replicated identically under both
    static and dynamic assignment, so it does not affect the packing).
    """
    costs: dict[str, float] = {}
    for change in trace.iter_changes():
        for task in change.tasks:
            if not task.productions:
                continue
            share = task.cost / len(task.productions)
            for production in task.productions:
                costs[production] = costs.get(production, 0.0) + share
    return costs


def lpt_partition(costs: dict[str, float], processors: int) -> dict[str, int]:
    """Longest-processing-time greedy: heaviest production first, onto
    the currently lightest processor.  Returns production -> processor,
    in placement order.
    """
    if processors < 1:
        raise ValueError("need at least one processor")
    loads = [0.0] * processors
    assignment: dict[str, int] = {}
    for production in sorted(costs, key=lambda p: (-costs[p], p)):
        target = min(range(processors), key=lambda i: (loads[i], i))
        assignment[production] = target
        loads[target] += costs[production]
    return assignment


@dataclass
class Partition:
    """One partition's share of a live ruleset."""

    index: int
    productions: list[Production] = field(default_factory=list)
    weight: float = 0.0

    @property
    def names(self) -> tuple[str, ...]:
        """The production names placed here, in ruleset order."""
        return tuple(p.name for p in self.productions)


def assign_productions(
    productions: Sequence[Production], partitions: int
) -> list[Partition]:
    """Deterministically balance *productions* over *partitions* bins.

    The packing is :func:`lpt_partition` over each production's
    specificity (the elementary test count LEX uses); a partition lists
    its productions in the caller's order, so one partition is the
    ruleset as given.
    """
    weights = {p.name: float(p.specificity) for p in productions}
    placed = lpt_partition(weights, partitions)
    bins = [Partition(i) for i in range(partitions)]
    for production in productions:
        target = bins[placed[production.name]]
        target.productions.append(production)
        target.weight += weights[production.name]
    return bins


def partition_imbalance(costs: dict[str, float], assignment: dict[str, int],
                        processors: int) -> float:
    """Max processor load over mean load (1.0 = perfectly balanced)."""
    loads = [0.0] * processors
    for production, processor in assignment.items():
        loads[processor] += costs[production]
    total = sum(loads)
    if total == 0:
        return 1.0
    mean = total / processors
    return max(loads) / mean if mean else 1.0


def build_partitioned_schedule(
    trace: Trace, config: MachineConfig
) -> tuple[Schedule, dict[str, int]]:
    """A production-granularity schedule with statically pinned tasks.

    The configuration's granularity is forced to ``production`` (static
    partitioning only makes sense per production; fine-grain node tasks
    cannot be pinned without replicating node state everywhere).
    """
    from .granularity import build_schedule
    from .machine import GRANULARITY_PRODUCTION

    config = replace(config, granularity=GRANULARITY_PRODUCTION)
    assignment = lpt_partition(production_costs(trace), config.processors)
    schedule = build_schedule(trace, config)
    for batch in schedule.batches:
        batch.tasks = [
            replace(task, pin=assignment[task.production])
            if task.production in assignment
            else task
            for task in batch.tasks
        ]
    return schedule, assignment


def simulate_partitioned(trace: Trace, config: MachineConfig):
    """Simulate *trace* under the static LPT partition.

    Returns (result, assignment, imbalance) so callers can report both
    the performance and the packing quality.
    """
    from .machine import GRANULARITY_PRODUCTION
    from .simulator import simulate_schedule

    schedule, assignment = build_partitioned_schedule(trace, config)
    result = simulate_schedule(
        schedule,
        replace(config, granularity=GRANULARITY_PRODUCTION),
        trace_name=trace.name + " (static partition)",
        serial_cost=float(trace.serial_cost),
    )
    imbalance = partition_imbalance(
        production_costs(trace), assignment, config.processors
    )
    return result, assignment, imbalance
