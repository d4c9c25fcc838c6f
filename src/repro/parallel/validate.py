"""Differential validation of the partitioned matcher (and any matcher pair).

The OPS5 semantics here are deliberately over-determined: the repo
carries serial matchers (naive, TREAT, Rete, Oflazer, the compiled
kernel) plus the partitioned one, and *every observable of a run* must agree across
all of them -- the conflict set after each cycle, the firing sequence,
the ``write`` output, and the final working memory.  This module runs
one program through any set of backends and reduces each run to a
comparable :class:`RunRecord`, which the differential test harness
builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..ops5.engine import ProductionSystem
from ..ops5.parser import Program
from ..ops5.production import Production
from ..ops5.wme import WME


@dataclass(frozen=True)
class RunRecord:
    """Everything observable about one recorded run, comparison-ready.

    ``conflict_sets[i]`` is the conflict-set key snapshot *after* cycle
    ``i`` fired and its RHS ran, so equality here proves every
    intermediate state, not just the final one.
    """

    fired: tuple[tuple[str, tuple[int, ...]], ...]
    conflict_sets: tuple[frozenset, ...]
    output: tuple[str, ...]
    final_memory: tuple[tuple[int, tuple], ...]
    halted: bool

    @property
    def cycles(self) -> int:
        return len(self.fired)


@dataclass
class DifferentialReport:
    """Outcome of running one program through several backends."""

    records: dict[str, RunRecord] = field(default_factory=dict)

    @property
    def agree(self) -> bool:
        return len(set(self.records.values())) <= 1

    def divergences(self) -> list[str]:
        """Human-readable description of the first mismatch per pair."""
        names = sorted(self.records)
        if len(names) < 2:
            return []
        problems: list[str] = []
        reference = names[0]
        base = self.records[reference]
        for name in names[1:]:
            other = self.records[name]
            if other == base:
                continue
            problems.append(_describe(reference, base, name, other))
        return problems


def _describe(ref_name: str, ref: RunRecord, name: str, other: RunRecord) -> str:
    if ref.fired != other.fired:
        for i, (a, b) in enumerate(zip(ref.fired, other.fired)):
            if a != b:
                return f"{name} vs {ref_name}: cycle {i + 1} fired {b} != {a}"
        return (
            f"{name} vs {ref_name}: fired {other.cycles} cycles != {ref.cycles}"
        )
    if ref.conflict_sets != other.conflict_sets:
        for i, (a, b) in enumerate(zip(ref.conflict_sets, other.conflict_sets)):
            if a != b:
                extra = sorted(b - a)
                missing = sorted(a - b)
                return (
                    f"{name} vs {ref_name}: conflict set after cycle {i + 1} "
                    f"differs (extra {extra}, missing {missing})"
                )
    if ref.output != other.output:
        return f"{name} vs {ref_name}: output differs"
    if ref.final_memory != other.final_memory:
        return f"{name} vs {ref_name}: final working memory differs"
    return f"{name} vs {ref_name}: halt state differs"


def _fresh_setup(setup: Sequence) -> list[tuple[str, dict]]:
    """Normalise setup items to (class, attrs) pairs, copying WMEs.

    WME objects carry identity and a timetag once inserted, so each
    backend's run must get its own fresh copies.
    """
    specs: list[tuple[str, dict]] = []
    for item in setup:
        if isinstance(item, WME):
            specs.append((item.cls, dict(item.attributes)))
        else:
            cls, attrs = item
            specs.append((cls, dict(attrs)))
    return specs


def run_recorded(
    productions: Program | str | Sequence[Production],
    setup: Sequence,
    matcher,
    strategy: str = "lex",
    max_cycles: int = 200,
) -> RunRecord:
    """Run a program on *matcher* and reduce the run to a RunRecord."""
    system = ProductionSystem(productions, matcher=matcher, strategy=strategy)
    for cls, attrs in _fresh_setup(setup):
        system.add(cls, **attrs)
    fired: list[tuple[str, tuple[int, ...]]] = []
    conflict_sets: list[frozenset] = []
    while len(fired) < max_cycles:
        instantiation = system.step()
        if instantiation is None:
            break
        fired.append((instantiation.production.name, instantiation.timetags))
        conflict_sets.append(system.conflict_set.snapshot())
    return RunRecord(
        fired=tuple(fired),
        conflict_sets=tuple(conflict_sets),
        output=tuple(system.output),
        final_memory=tuple(
            (w.timetag, w.content_key()) for w in system.memory.snapshot()
        ),
        halted=system.halted,
    )


def compare_backends(
    productions: Program | str | Sequence[Production],
    setup: Sequence,
    backends: Mapping[str, Callable[[], object]],
    strategy: str = "lex",
    max_cycles: int = 200,
) -> DifferentialReport:
    """Run one program through every backend factory and compare.

    ``backends`` maps a label to a zero-argument matcher factory.
    """
    report = DifferentialReport()
    for name in sorted(backends):
        matcher = backends[name]()
        report.records[name] = run_recorded(
            productions, setup, matcher, strategy=strategy, max_cycles=max_cycles
        )
    return report
