"""Static and dynamic program measurements (Gupta & Forgy's tables).

The paper repeatedly leans on its companion measurement study
("Measurements on Production Systems", CMU-CS-83-167): the number of
condition elements per production, attributes per CE, the share of
negated CEs, working-memory turnover, affected productions per change,
and so on.  This module reproduces those tables for any program this
library can run:

* :func:`measure_static` -- structure of the *program text*: CE counts,
  test mixes, action mixes, class/attribute vocabulary;
* :func:`measure_dynamic` -- behaviour of a *run*: WM size over time,
  changes per firing, affected productions, match effort, token traffic.

Both return plain dataclasses that render via
:func:`repro.analysis.reports.render_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..ops5.actions import Make, Modify, Remove, Write
from ..ops5.condition import (
    ConjunctiveTest,
    ConstantTest,
    DisjunctiveTest,
    PredicateTest,
    Test,
    VariableTest,
)
from ..ops5.engine import CycleRecord, ProductionSystem
from ..ops5.production import Production
from ..rete.network import ReteNetwork
from ..rete.stats import collect_stats


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class StaticStatistics:
    """Structure of a production-system program (no run needed)."""

    program: str
    productions: int = 0
    condition_elements: int = 0
    negated_condition_elements: int = 0
    actions: int = 0
    classes: int = 0
    attributes: int = 0
    variables: int = 0
    #: Elementary test counts by flavour.
    constant_tests: int = 0
    variable_tests: int = 0
    predicate_tests: int = 0
    disjunctive_tests: int = 0
    #: Action counts by flavour.
    makes: int = 0
    removes: int = 0
    modifies: int = 0
    writes: int = 0
    other_actions: int = 0
    ces_per_production: list[int] = field(default_factory=list)
    actions_per_production: list[int] = field(default_factory=list)

    @property
    def mean_ces_per_production(self) -> float:
        """Gupta & Forgy measured ~3 CEs per production on average."""
        return _mean(self.ces_per_production)

    @property
    def mean_actions_per_production(self) -> float:
        return _mean(self.actions_per_production)

    @property
    def negation_share(self) -> float:
        """Fraction of CEs that are negated (measured ~10-25%)."""
        if not self.condition_elements:
            return 0.0
        return self.negated_condition_elements / self.condition_elements

    def rows(self) -> list[tuple[str, object]]:
        return [
            ("productions", self.productions),
            ("condition elements", self.condition_elements),
            ("  mean per production", round(self.mean_ces_per_production, 2)),
            ("  negated share", f"{self.negation_share:.1%}"),
            ("actions", self.actions),
            ("  mean per production", round(self.mean_actions_per_production, 2)),
            ("distinct classes", self.classes),
            ("distinct attributes", self.attributes),
            ("distinct variables", self.variables),
            ("constant tests", self.constant_tests),
            ("variable tests", self.variable_tests),
            ("predicate tests", self.predicate_tests),
            ("disjunctive tests", self.disjunctive_tests),
            ("make / remove / modify / write",
             f"{self.makes}/{self.removes}/{self.modifies}/{self.writes}"),
        ]


def _count_tests(stats: StaticStatistics, test: Test) -> None:
    if isinstance(test, ConstantTest):
        stats.constant_tests += 1
    elif isinstance(test, VariableTest):
        stats.variable_tests += 1
    elif isinstance(test, PredicateTest):
        stats.predicate_tests += 1
    elif isinstance(test, DisjunctiveTest):
        stats.disjunctive_tests += 1
    elif isinstance(test, ConjunctiveTest):
        for inner in test.tests:
            _count_tests(stats, inner)


def measure_static(
    productions: Sequence[Production], program_name: str = "program"
) -> StaticStatistics:
    """Tabulate the structure of *productions*."""
    stats = StaticStatistics(program=program_name)
    classes: set[str] = set()
    attributes: set[str] = set()
    variables: set[str] = set()

    for production in productions:
        stats.productions += 1
        stats.ces_per_production.append(len(production.conditions))
        stats.actions_per_production.append(len(production.actions))
        for ce in production.conditions:
            stats.condition_elements += 1
            if ce.negated:
                stats.negated_condition_elements += 1
            classes.add(ce.cls)
            for attribute, test in ce.tests.items():
                attributes.add(attribute)
                _count_tests(stats, test)
            variables.update(ce.variables())
        for action in production.actions:
            stats.actions += 1
            if isinstance(action, Make):
                stats.makes += 1
            elif isinstance(action, Remove):
                stats.removes += 1
            elif isinstance(action, Modify):
                stats.modifies += 1
            elif isinstance(action, Write):
                stats.writes += 1
            else:
                stats.other_actions += 1

    stats.classes = len(classes)
    stats.attributes = len(attributes)
    stats.variables = len(variables)
    return stats


@dataclass
class DynamicStatistics:
    """Behaviour of one run under the instrumented Rete network."""

    program: str
    firings: int = 0
    changes: int = 0
    peak_memory: int = 0
    mean_memory: float = 0.0
    mean_changes_per_firing: float = 0.0
    mean_affected_per_change: float = 0.0
    max_affected_per_change: int = 0
    mean_activations_per_change: float = 0.0
    total_comparisons: int = 0
    total_tokens_built: int = 0
    network_nodes: int = 0
    sharing_ratio: float = 0.0

    @property
    def turnover_percent(self) -> float:
        """(i+d)/s as a percentage (the paper's '< 0.5%' statistic)."""
        if self.mean_memory == 0 or self.firings == 0:
            return 0.0
        return 100.0 * self.mean_changes_per_firing / self.mean_memory

    def rows(self) -> list[tuple[str, object]]:
        return [
            ("firings", self.firings),
            ("wme changes", self.changes),
            ("  per firing", round(self.mean_changes_per_firing, 2)),
            ("working memory (mean / peak)",
             f"{self.mean_memory:.1f} / {self.peak_memory}"),
            ("turnover per cycle", f"{self.turnover_percent:.2f}%"),
            ("affected productions (mean / max)",
             f"{self.mean_affected_per_change:.2f} / {self.max_affected_per_change}"),
            ("node activations per change",
             round(self.mean_activations_per_change, 2)),
            ("comparisons", self.total_comparisons),
            ("tokens built", self.total_tokens_built),
            ("rete nodes", self.network_nodes),
            ("sharing ratio", round(self.sharing_ratio, 2)),
        ]


def run_sampled(
    build: Callable[..., ProductionSystem], max_cycles: int | None = None
) -> tuple[ProductionSystem, list[int], list[CycleRecord]]:
    """Run *build()* under Rete, with history, sampling WM size per cycle.

    The one step-and-sample loop behind :func:`measure_dynamic`,
    :func:`~repro.analysis.affected.measure_program` and
    :func:`~repro.analysis.statesaving.compare_matchers`.  Returns the
    engine, the WM size before each cycle (the last sample is the
    quiescent one when the run ends without a firing), and the records
    of the cycles that fired.
    """
    system = build(matcher=ReteNetwork(), history=True)
    sizes: list[int] = []
    fired = 0
    while not system.halted and (max_cycles is None or fired < max_cycles):
        sizes.append(len(system.memory))
        if system.step() is None:
            break
        fired += 1
    return system, sizes, system.cycles[:fired]


def measure_dynamic(
    build: Callable[..., ProductionSystem],
    program_name: str = "program",
    max_cycles: int | None = None,
) -> DynamicStatistics:
    """Run *build()* under Rete and tabulate the run's behaviour."""
    system, sizes, cycles = run_sampled(build, max_cycles)
    match_stats = system.matcher.stats
    network = collect_stats(system.matcher)
    affected = [c.affected_productions for c in match_stats.changes]
    activations = [c.node_activations for c in match_stats.changes]

    return DynamicStatistics(
        program=program_name,
        firings=len(cycles),
        changes=match_stats.total_changes,
        peak_memory=max(sizes, default=0),
        mean_memory=_mean(sizes),
        mean_changes_per_firing=_mean([c.changes for c in cycles]),
        mean_affected_per_change=_mean(affected),
        max_affected_per_change=max(affected, default=0),
        mean_activations_per_change=_mean(activations),
        total_comparisons=match_stats.total_comparisons,
        total_tokens_built=match_stats.total_tokens_built,
        network_nodes=network.total_nodes,
        sharing_ratio=network.sharing_ratio,
    )
