"""The naive, non-state-saving match algorithm.

On every working-memory change the matcher recomputes, from scratch, the
set of instantiations of every production, then edits the conflict set to
match.  This is the algorithm the paper's Section 3.1 cost model calls
*non state-saving*: its per-cycle cost is proportional to the whole
working memory (``s * c3``), whereas Rete's is proportional to the number
of changes (``(i + d) * c1``).

The implementation enumerates matches by straightforward backtracking
over the condition elements in LHS order, using
:meth:`~repro.ops5.condition.ConditionElement.match` as the single source
of matching truth.  Negated CEs are checked in place: the branch survives
only when no WME matches under the bindings accumulated so far.

The matcher counts comparisons and tokens built, feeding the
state-saving-vs-not analysis in :mod:`repro.analysis.statesaving`.
"""

from __future__ import annotations

from typing import Iterable

from ..ops5.condition import Bindings, wme_passes_alpha
from ..ops5.matcher import Matcher
from ..ops5.production import Instantiation, Production
from ..ops5.wme import WME


class NaiveMatcher(Matcher):
    """Full re-match on every change (the non-state-saving baseline)."""

    def __init__(self) -> None:
        super().__init__()
        self._productions: dict[str, Production] = {}
        # Scratch counters reset per change, accumulated into MatchStats.
        self._comparisons = 0
        self._tokens_built = 0

    # -- Matcher interface ---------------------------------------------------

    @property
    def productions(self) -> Iterable[Production]:
        return self._productions.values()

    def add_production(self, production: Production) -> None:
        self._productions[production.name] = production
        for instantiation in self._match_production(production):
            if instantiation not in self.conflict_set:
                self.conflict_set.insert(instantiation)

    def remove_production(self, name: str) -> None:
        production = self._productions.pop(name)
        for instantiation in list(self.conflict_set):
            if instantiation.production is production:
                self.conflict_set.delete(instantiation)

    def add_wme(self, wme: WME) -> None:
        self._rematch("add", wme)

    def remove_wme(self, wme: WME) -> None:
        self._rematch("remove", wme)

    # -- full recomputation ----------------------------------------------------

    def _rematch(self, kind: str, changed: WME) -> None:
        self._comparisons = 0
        self._tokens_built = 0
        affected = sum(
            1
            for production in self._productions.values()
            if any(wme_passes_alpha(changed, a) for a in production.analysis)
        )

        fresh: dict[tuple, Instantiation] = {}
        for production in self._productions.values():
            for instantiation in self._match_production(production):
                fresh[instantiation.key] = instantiation

        for instantiation in list(self.conflict_set):
            if instantiation.key not in fresh:
                self.conflict_set.delete(instantiation)
        current = self.conflict_set.snapshot()
        for key, instantiation in fresh.items():
            if key not in current:
                self.conflict_set.insert(instantiation)

        self.stats.record(
            kind, changed.cls, affected, 0, self._comparisons, self._tokens_built
        )

    def _match_production(self, production: Production) -> list[Instantiation]:
        """All instantiations of *production* against current memory."""
        results: list[Instantiation] = []
        self._extend(production, 0, {}, [], results)
        return results

    def _extend(
        self,
        production: Production,
        index: int,
        bindings: Bindings,
        matched: list[WME],
        results: list[Instantiation],
    ) -> None:
        if index == len(production.conditions):
            results.append(Instantiation(production, tuple(matched), bindings))
            return
        ce = production.conditions[index]
        if ce.negated:
            for wme in self.memory:
                self._comparisons += 1
                if ce.match(wme, bindings) is not None:
                    return  # a matching WME kills this branch
            self._extend(production, index + 1, bindings, matched, results)
            return
        for wme in self.memory:
            self._comparisons += 1
            extended = ce.match(wme, bindings)
            if extended is not None:
                self._tokens_built += 1
                matched.append(wme)
                self._extend(production, index + 1, extended, matched, results)
                matched.pop()
