"""The matcher interface shared by Rete, TREAT, and the naive matcher.

A matcher owns the match state for a fixed (but extensible) set of
productions and keeps a :class:`~repro.ops5.conflict.ConflictSet` up to
date as WMEs are added and removed.  The engine drives matchers through
this interface only, so strategies and matchers compose freely and the
test suite can run the same program through every matcher and compare
conflict sets cycle by cycle.

Matchers also collect :class:`MatchStats` -- the measurements the paper
builds its argument on (Sections 3, 4, 8): working-memory changes per
cycle, *affected productions* per change, and match effort counters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable

from .conflict import ConflictSet
from .production import Production
from .wme import WME


@dataclass(slots=True)
class ChangeRecord:
    """Per-WME-change measurements (one row per add/remove)."""

    kind: str  # "add" or "remove"
    wme_class: str
    affected_productions: int = 0
    node_activations: int = 0
    comparisons: int = 0
    tokens_built: int = 0


class MatchStats:
    """Aggregate measurements over a matcher's lifetime.

    ``affected productions`` follows the paper's definition: a production
    is affected by a change when the changed WME matches at least one of
    its condition elements (i.e. passes that CE's alpha tests).

    A count and running sums are the only default state, so a matcher
    that lives for a billion changes holds what one change holds.
    Per-change rows exist after :meth:`keep_rows` (what
    ``ProductionSystem(history=True)`` calls): :attr:`changes` is then
    the list of :class:`ChangeRecord`, otherwise ``None``.
    """

    __slots__ = ("changes", "total_changes", "total_affected_productions", "effort")

    def __init__(self) -> None:
        self.changes: list[ChangeRecord] | None = None
        self.total_changes = 0
        self.total_affected_productions = 0
        #: [node activations, comparisons, tokens built]: the running
        #: effort sums, kept in a list so a matcher may increment them in
        #: place (the compiled kernel's generated code increments this one).
        self.effort = [0, 0, 0]

    def keep_rows(self) -> None:
        """Retain one :class:`ChangeRecord` per change from now on."""
        if self.changes is None:
            self.changes = []

    def record(
        self,
        kind: str,
        wme_class: str,
        affected_productions: int,
        node_activations: int,
        comparisons: int,
        tokens_built: int,
    ) -> None:
        """Count one finished change (and file its row, if rows are kept)."""
        self.total_changes += 1
        self.total_affected_productions += affected_productions
        effort = self.effort
        effort[0] += node_activations
        effort[1] += comparisons
        effort[2] += tokens_built
        if self.changes is not None:
            self.changes.append(
                ChangeRecord(
                    kind,
                    wme_class,
                    affected_productions,
                    node_activations,
                    comparisons,
                    tokens_built,
                )
            )

    total_node_activations = property(lambda self: self.effort[0])
    total_comparisons = property(lambda self: self.effort[1])
    total_tokens_built = property(lambda self: self.effort[2])

    @property
    def mean_affected_productions(self) -> float:
        """Average affected productions per change (paper: ~30)."""
        if not self.total_changes:
            return 0.0
        return self.total_affected_productions / self.total_changes

    @property
    def mean_node_activations(self) -> float:
        if not self.total_changes:
            return 0.0
        return self.total_node_activations / self.total_changes


class Matcher(ABC):
    """Abstract base for match algorithms.

    Contract
    --------
    * ``add_wme`` / ``remove_wme`` must leave :attr:`conflict_set`
      containing exactly the instantiations of all satisfied productions,
      under OPS5 semantics (including negated condition elements).
    * WMEs must already carry their timetag when passed in (the engine
      routes every element through
      :class:`~repro.ops5.wme.WorkingMemory` first).
    * Productions may be added at any time; the matcher must fold the
      current working memory into the new production's state.
    """

    def __init__(self) -> None:
        self.conflict_set = ConflictSet()
        self.stats = MatchStats()

    def peek_stats(self) -> MatchStats:
        """Match statistics *without* side effects.

        The name observability readers call (``obs.metrics.snapshot``,
        the serve ``stats`` RPC, matcher wrappers).  Every matcher here
        keeps :attr:`stats` as a plain attribute, so it is that object.
        """
        return self.stats

    def peek_conflict_set(self) -> ConflictSet:
        """The conflict set *without* side effects (see :meth:`peek_stats`)."""
        return self.conflict_set

    @abstractmethod
    def add_production(self, production: Production) -> None:
        """Register *production* and match it against current memory."""

    @abstractmethod
    def remove_production(self, name: str) -> None:
        """Unregister the named production and retract its instantiations."""

    @abstractmethod
    def add_wme(self, wme: WME) -> None:
        """Process the insertion of *wme* (already timetagged)."""

    @abstractmethod
    def remove_wme(self, wme: WME) -> None:
        """Process the deletion of *wme*."""

    @property
    @abstractmethod
    def productions(self) -> Iterable[Production]:
        """The productions currently registered."""

    def production_names(self) -> set[str]:
        return {p.name for p in self.productions}
