"""Section 3.1: state-saving vs. non-state-saving match algorithms.

The paper's model: let working memory have stable size *s*, with *i*
inserts and *d* deletes per cycle.  A state-saving algorithm (Rete)
costs ``C_ss = i*c1 + d*c2`` per cycle; a non-state-saving algorithm
costs ``C_nss = s*c3``.  With the measured ``c1 = c2 = 1800`` and
``c3 = 1100`` instructions, state saving wins whenever::

    (i + d) / s  <  c3 / c1  ~  0.61

Measured OPS5 programs change well under 0.5% of working memory per
cycle, so a non-state-saving algorithm starts with an inefficiency
factor around 20 to recover.

This module provides the analytic model and an empirical counterpart:
run the same program through the Rete and naive matchers and compare
the actual match effort they spend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..naive.matcher import NaiveMatcher
from ..ops5.engine import ProductionSystem, RunResult
from ..rete.network import ReteNetwork
from ..trace.costmodel import (
    C1_INSTRUCTIONS_PER_INSERT,
    C2_INSTRUCTIONS_PER_DELETE,
    C3_INSTRUCTIONS_PER_WME,
)


@dataclass(frozen=True)
class CostModelParameters:
    """The Section 3.1 constants, overridable for sensitivity studies."""

    c1: float = C1_INSTRUCTIONS_PER_INSERT
    c2: float = C2_INSTRUCTIONS_PER_DELETE
    c3: float = C3_INSTRUCTIONS_PER_WME


def state_saving_cost(inserts: float, deletes: float, params: CostModelParameters = CostModelParameters()) -> float:
    """Per-cycle cost of the state-saving algorithm (instructions)."""
    return inserts * params.c1 + deletes * params.c2


def non_state_saving_cost(memory_size: float, params: CostModelParameters = CostModelParameters()) -> float:
    """Per-cycle cost of the non-state-saving algorithm (instructions)."""
    return memory_size * params.c3


def breakeven_turnover(params: CostModelParameters = CostModelParameters()) -> float:
    """The (i+d)/s threshold below which state saving wins (paper: 0.61).

    Derived for the c1 = c2 case the paper analyses; with asymmetric
    costs the threshold applies to the cost-weighted turnover.
    """
    return params.c3 / params.c1


def turnover(inserts: float, deletes: float, memory_size: float) -> float:
    """The (i+d)/s ratio for one cycle."""
    if memory_size <= 0:
        raise ValueError("memory size must be positive")
    return (inserts + deletes) / memory_size


def state_saving_advantage(
    inserts: float,
    deletes: float,
    memory_size: float,
    params: CostModelParameters = CostModelParameters(),
) -> float:
    """How many times cheaper state saving is for the given cycle.

    The paper's "factor of about 20" corresponds to turnover around
    0.5% x the 0.61 threshold... precisely: advantage = C_nss / C_ss.
    """
    return non_state_saving_cost(memory_size, params) / state_saving_cost(
        inserts, deletes, params
    )


@dataclass
class EmpiricalComparison:
    """Measured match effort of Rete vs. the naive matcher on one run."""

    program: str
    cycles: int
    mean_memory_size: float
    mean_changes_per_cycle: float
    rete_comparisons: int
    naive_comparisons: int

    @property
    def mean_turnover(self) -> float:
        """(i+d)/s averaged over the run."""
        if self.mean_memory_size == 0:
            return 0.0
        return self.mean_changes_per_cycle / self.mean_memory_size

    @property
    def measured_advantage(self) -> float:
        """Naive effort / Rete effort (comparison counts)."""
        if self.rete_comparisons == 0:
            return float("inf")
        return self.naive_comparisons / self.rete_comparisons


def compare_matchers(
    build: Callable[..., ProductionSystem], name: str, max_cycles: int | None = None
) -> EmpiricalComparison:
    """Run *build()* twice -- Rete and naive -- and compare match effort.

    ``build`` must accept a ``matcher=`` keyword (the programs in
    :mod:`repro.workloads.programs` all do).
    """
    rete_system = build(matcher=ReteNetwork(), history=True)
    sizes: list[int] = []
    rete_result = _run_tracking_size(rete_system, sizes, max_cycles)

    naive_system = build(matcher=NaiveMatcher())
    naive_result = naive_system.run(max_cycles)
    if naive_result.fired != rete_result.fired:  # pragma: no cover - matcher bug tripwire
        raise AssertionError(
            f"matchers disagree on {name}: rete fired {rete_result.fired}, "
            f"naive fired {naive_result.fired}"
        )

    return EmpiricalComparison(
        program=name,
        cycles=rete_result.fired,
        mean_memory_size=sum(sizes) / len(sizes) if sizes else 0.0,
        mean_changes_per_cycle=rete_result.mean_changes_per_firing,
        rete_comparisons=rete_system.matcher.stats.total_comparisons,
        naive_comparisons=naive_system.matcher.stats.total_comparisons,
    )


def _run_tracking_size(
    system: ProductionSystem, sizes: list[int], max_cycles: int | None
) -> RunResult:
    """Step the engine, sampling working-memory size per cycle."""
    fired = 0
    while not system.halted and (max_cycles is None or fired < max_cycles):
        sizes.append(len(system.memory))
        if system.step() is None:
            break
        fired += 1
    return RunResult(
        fired=fired,
        halted=system.halted,
        halt_reason="",
        cycles=list(system.cycles[-fired:]) if fired else [],
        output=list(system.output),
    )
