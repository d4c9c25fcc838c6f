"""Sections 4 & 8: the three factors limiting parallelism, measured.

The paper grounds its parallelism ceiling in three workload statistics:

1. working-memory changes per cycle ("generally less than 0.5% of the
   elements change each cycle");
2. productions affected per change ("small, about 30, regardless of the
   total number of rules");
3. the variance of per-production processing cost ("a few require much
   more processing").

:func:`measure_program` extracts all three from a real run through the
instrumented Rete network; :func:`measure_trace` does the same for a
synthetic trace (where cost variance comes from the generator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..ops5.engine import ProductionSystem
from ..rete.network import ReteNetwork
from ..trace.events import Trace


@dataclass(frozen=True)
class ParallelismFactors:
    """The paper's three limiting factors for one workload."""

    workload: str
    cycles: int
    mean_memory_size: float
    mean_changes_per_cycle: float
    mean_affected_per_change: float
    max_affected_per_change: int
    #: Coefficient of variation of per-production processing cost per
    #: change (the Section 4/8 variance argument).
    cost_variation: float

    @property
    def turnover_percent(self) -> float:
        """(i+d)/s as a percentage (the paper's '< 0.5%')."""
        if self.mean_memory_size == 0:
            return 0.0
        return 100.0 * self.mean_changes_per_cycle / self.mean_memory_size


def _coefficient_of_variation(samples: list[float]) -> float:
    if len(samples) < 2:
        return 0.0
    mean = sum(samples) / len(samples)
    if mean == 0:
        return 0.0
    variance = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
    return math.sqrt(variance) / mean


def measure_program(
    build: Callable[..., ProductionSystem], name: str, max_cycles: int | None = None
) -> ParallelismFactors:
    """Run a real program and extract the three factors."""
    system = build(matcher=ReteNetwork(), history=True)
    sizes: list[int] = []
    fired = 0
    while not system.halted and (max_cycles is None or fired < max_cycles):
        sizes.append(len(system.memory))
        if system.step() is None:
            break
        fired += 1

    stats = system.matcher.stats
    affected = [c.affected_productions for c in stats.changes]
    result_changes = [c.changes for c in system.cycles[:fired]] or [0]
    return ParallelismFactors(
        workload=name,
        cycles=fired,
        mean_memory_size=sum(sizes) / len(sizes) if sizes else 0.0,
        mean_changes_per_cycle=sum(result_changes) / len(result_changes),
        mean_affected_per_change=(sum(affected) / len(affected)) if affected else 0.0,
        max_affected_per_change=max(affected, default=0),
        cost_variation=_coefficient_of_variation(
            [float(c.comparisons + c.tokens_built) for c in stats.changes]
        ),
    )


def measure_trace(trace: Trace, stable_memory_size: float = 1000.0) -> ParallelismFactors:
    """Extract the three factors from a (synthetic) trace.

    Synthetic traces carry no working memory, so the stable size is a
    parameter (the paper's systems held hundreds to thousands of WMEs).
    """
    affected_counts: list[int] = []
    production_costs: list[float] = []
    for change in trace.iter_changes():
        per_production: dict[str, float] = {}
        for task in change.tasks:
            for production in task.productions:
                per_production[production] = per_production.get(production, 0.0) + (
                    task.cost / max(len(task.productions), 1)
                )
        affected_counts.append(len(per_production))
        production_costs.extend(per_production.values())
    firings = len(trace.firings) or 1
    return ParallelismFactors(
        workload=trace.name,
        cycles=len(trace.firings),
        mean_memory_size=stable_memory_size,
        mean_changes_per_cycle=trace.total_changes / firings,
        mean_affected_per_change=(
            sum(affected_counts) / len(affected_counts) if affected_counts else 0.0
        ),
        max_affected_per_change=max(affected_counts, default=0),
        cost_variation=_coefficient_of_variation(production_costs),
    )
