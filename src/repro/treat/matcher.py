"""The TREAT match algorithm (Miranker; used on DADO).

TREAT sits at the *low* end of the paper's state-saving spectrum
(Section 3.2): it stores only alpha memories -- the WMEs matching each
individual condition element -- and recomputes cross-CE joins on every
working-memory change, seeded by the changed WME.  Deletions are cheap
(drop every conflict-set entry containing the WME); additions pay for a
seed join per affected condition element.

Semantics notes
---------------
* **Duplicate suppression** for a WME matching several CEs of one
  production: a seed join at LHS position *k* draws candidates for
  positions ``< k`` from the alpha memory *excluding* the new WME and
  for positions ``> k`` from the full memory, so a tuple using the WME
  at multiple positions is generated exactly once (at its first
  position).
* **Negated CEs** are evaluated against bindings *restricted to the
  variables bound by positive CEs at earlier LHS positions* -- the same
  position semantics Rete implements structurally.  Without the
  restriction, a variable name reused after the negation would
  over-constrain it.
* **Join ordering** is dynamic: positions are evaluated smallest
  candidate set first, subject to predicate-binding dependencies
  (:mod:`repro.treat.seed`).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..ops5.condition import Bindings, CEAnalysis, wme_passes_alpha
from ..ops5.matcher import Matcher
from ..ops5.production import Instantiation, Production
from ..ops5.wme import WME
from .seed import order_positions


def _alpha_key(analysis: CEAnalysis) -> tuple:
    """A canonical key identifying a CE's alpha pattern (for sharing)."""
    tests = tuple(sorted((a, repr(t)) for a, t in analysis.alpha_tests))
    intra = tuple(sorted(analysis.intra_tests))
    return (analysis.ce.cls, tests, intra)


class _CompiledProduction:
    """Per-production precomputation for the seed joins."""

    def __init__(self, production: Production) -> None:
        self.production = production
        self.analyses = production.analysis
        self.alpha_keys = [_alpha_key(a) for a in self.analyses]
        self.positive = [a for a in self.analyses if not a.ce.negated]
        self.negated = [a for a in self.analyses if a.ce.negated]
        # For each negated CE: the variables visible to it (bound by
        # positive CEs at earlier LHS positions).
        self.visible_vars: dict[int, frozenset[str]] = {}
        bound: set[str] = set()
        for analysis in self.analyses:
            if analysis.ce.negated:
                self.visible_vars[analysis.index] = frozenset(bound)
            else:
                bound.update(analysis.binders)


class TreatMatcher(Matcher):
    """Alpha-memory-only state saving with per-change seed joins."""

    def __init__(self) -> None:
        super().__init__()
        self._compiled: dict[str, _CompiledProduction] = {}
        #: Shared alpha memories: alpha key -> {timetag: wme}.
        self._amem: dict[tuple, dict[int, WME]] = {}
        #: One representative CE analysis per alpha key (any CE with the
        #: same key has identical alpha semantics).
        self._alpha_reps: dict[tuple, CEAnalysis] = {}
        self._comparisons = 0
        self._tokens_built = 0

    # -- Matcher interface ---------------------------------------------------

    @property
    def productions(self) -> Iterable[Production]:
        return (c.production for c in self._compiled.values())

    def add_production(self, production: Production) -> None:
        compiled = _CompiledProduction(production)
        self._compiled[production.name] = compiled
        for analysis, key in zip(compiled.analyses, compiled.alpha_keys):
            if key not in self._amem:
                self._amem[key] = {
                    wme.timetag: wme
                    for wme in self.memory
                    if wme_passes_alpha(wme, analysis)
                }
                self._alpha_reps[key] = analysis
        for instantiation in self._full_join(compiled):
            if instantiation not in self.conflict_set:
                self.conflict_set.insert(instantiation)

    def remove_production(self, name: str) -> None:
        compiled = self._compiled.pop(name)
        for instantiation in list(self.conflict_set):
            if instantiation.production is compiled.production:
                self.conflict_set.delete(instantiation)
        live_keys = {
            key for c in self._compiled.values() for key in c.alpha_keys
        }
        for key in set(compiled.alpha_keys) - live_keys:
            self._amem.pop(key, None)
            self._alpha_reps.pop(key, None)

    def add_wme(self, wme: WME) -> None:
        self._comparisons = 0
        self._tokens_built = 0
        affected: set[str] = set()

        # Phase 1: update alpha memories (and find where the WME landed).
        landed: set[tuple] = set()
        for key, analysis in self._alpha_reps.items():
            if wme_passes_alpha(wme, analysis):
                self._amem[key][wme.timetag] = wme
                landed.add(key)

        # Phase 2: seed joins for positive CEs; negation blocking checks.
        for compiled in self._compiled.values():
            hits = [
                a
                for a, key in zip(compiled.analyses, compiled.alpha_keys)
                if key in landed
            ]
            if hits:
                affected.add(compiled.production.name)
            for analysis in hits:
                if analysis.ce.negated:
                    self._block_with(compiled, analysis, wme)
                else:
                    for instantiation in self._seed_join(compiled, analysis.index, wme):
                        self.conflict_set.insert(instantiation)

        self._record("add", wme, affected)

    def remove_wme(self, wme: WME) -> None:
        self._comparisons = 0
        self._tokens_built = 0
        affected: set[str] = set()

        # Phase 1: find which alpha memories held it, and drop it.
        held: set[tuple] = set()
        for key, memory in self._amem.items():
            if wme.timetag in memory:
                del memory[wme.timetag]
                held.add(key)

        # Phase 2: retract every instantiation carrying the WME (cheap),
        # then unblock negations the WME was the last blocker of.
        for instantiation in list(self.conflict_set):
            if wme.timetag in instantiation.timetags:
                self.conflict_set.delete(instantiation)

        for compiled in self._compiled.values():
            touched = [
                a
                for a, key in zip(compiled.analyses, compiled.alpha_keys)
                if key in held
            ]
            if touched:
                affected.add(compiled.production.name)
            for analysis in touched:
                if analysis.ce.negated:
                    self._unblock_from(compiled, analysis, wme)

        self._record("remove", wme, affected)

    # -- join machinery -----------------------------------------------------------

    def _memory(self, compiled: _CompiledProduction, index: int) -> dict[int, WME]:
        return self._amem[compiled.alpha_keys[index]]

    def _full_join(self, compiled: _CompiledProduction) -> list[Instantiation]:
        """All instantiations of a production (used at registration)."""
        return self._join(compiled, seed_index=None, seed_wme=None, neg_seed=None)

    def _seed_join(
        self, compiled: _CompiledProduction, seed_index: int, wme: WME
    ) -> list[Instantiation]:
        """New instantiations using *wme* at positive position *seed_index*."""
        return self._join(compiled, seed_index=seed_index, seed_wme=wme, neg_seed=None)

    def _join(
        self,
        compiled: _CompiledProduction,
        seed_index: Optional[int],
        seed_wme: Optional[WME],
        neg_seed: Optional[tuple[CEAnalysis, WME]],
    ) -> list[Instantiation]:
        """The backtracking join over positive CEs.

        ``neg_seed`` (analysis, wme) restricts results to assignments the
        given WME *was* blocking at the given negated CE -- the unblock
        search after a deletion.
        """
        analyses = compiled.analyses

        def candidate_count(index: int) -> int:
            if index == seed_index:
                return 1
            return len(self._memory(compiled, index))

        order = order_positions(analyses, candidate_count)
        results: list[Instantiation] = []
        assignment: dict[int, WME] = {}

        def backtrack(step: int, bindings: Bindings) -> None:
            if step == len(order):
                self._finish_assignment(compiled, assignment, bindings, neg_seed, results)
                return
            index = order[step]
            analysis = analyses[index]
            if index == seed_index:
                assert seed_wme is not None
                candidates: Iterable[WME] = (seed_wme,)
            else:
                candidates = list(self._memory(compiled, index).values())
            for wme in candidates:
                # Duplicate suppression: the new WME may only appear at
                # LHS positions >= the seed, so a tuple using it several
                # times is generated exactly once (seeded at its first).
                if (
                    seed_wme is not None
                    and wme is seed_wme
                    and seed_index is not None
                    and index < seed_index
                ):
                    continue
                self._comparisons += 1
                extended = analysis.ce.match(wme, bindings)
                if extended is None:
                    continue
                self._tokens_built += 1
                assignment[index] = wme
                backtrack(step + 1, extended)
                del assignment[index]

        backtrack(0, {})
        return results

    def _finish_assignment(
        self,
        compiled: _CompiledProduction,
        assignment: dict[int, WME],
        bindings: Bindings,
        neg_seed: Optional[tuple[CEAnalysis, WME]],
        results: list[Instantiation],
    ) -> None:
        """Validate negations for a complete positive assignment."""
        for analysis in compiled.negated:
            visible = {
                v: bindings[v]
                for v in compiled.visible_vars[analysis.index]
                if v in bindings
            }
            if self._blocked(compiled, analysis, visible):
                return
        if neg_seed is not None:
            analysis, removed = neg_seed
            visible = {
                v: bindings[v]
                for v in compiled.visible_vars[analysis.index]
                if v in bindings
            }
            self._comparisons += 1
            if analysis.ce.match(removed, dict(visible)) is None:
                return  # the removed WME was not blocking this assignment
        ordered = [assignment[i] for i in sorted(assignment)]
        results.append(Instantiation(compiled.production, tuple(ordered), bindings))

    def _blocked(
        self, compiled: _CompiledProduction, analysis: CEAnalysis, visible: Bindings
    ) -> bool:
        for wme in self._memory(compiled, analysis.index).values():
            self._comparisons += 1
            if analysis.ce.match(wme, dict(visible)) is not None:
                return True
        return False

    # -- negation event handling ------------------------------------------------

    def _block_with(
        self, compiled: _CompiledProduction, analysis: CEAnalysis, wme: WME
    ) -> None:
        """A WME arrived at a negated CE: retract newly blocked entries."""
        for instantiation in list(self.conflict_set):
            if instantiation.production is not compiled.production:
                continue
            visible = {
                v: instantiation.bindings[v]
                for v in compiled.visible_vars[analysis.index]
                if v in instantiation.bindings
            }
            self._comparisons += 1
            if analysis.ce.match(wme, visible) is not None:
                self.conflict_set.delete(instantiation)

    def _unblock_from(
        self, compiled: _CompiledProduction, analysis: CEAnalysis, wme: WME
    ) -> None:
        """A WME left a negated CE: add assignments it alone was blocking."""
        for instantiation in self._join(
            compiled, seed_index=None, seed_wme=None, neg_seed=(analysis, wme)
        ):
            if instantiation not in self.conflict_set:
                self.conflict_set.insert(instantiation)

    # -- bookkeeping -----------------------------------------------------------

    def _record(self, kind: str, wme: WME, affected: set[str]) -> None:
        self.stats.record(
            kind, wme.cls, len(affected), 0, self._comparisons, self._tokens_built
        )

    def state_size(self) -> dict[str, int]:
        """Stored state: alpha WMEs only (the Section 3.2 comparison)."""
        return {
            "alpha_wmes": sum(len(m) for m in self._amem.values()),
            "beta_tokens": 0,
        }
