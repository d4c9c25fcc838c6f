"""The all-combinations state-saving matcher (Oflazer's scheme).

Where Rete stores partial matches for one fixed chain of CE prefixes,
this algorithm stores a consistent partial assignment for **every**
subset of a production's positive condition elements: "the tokens
matching not some but all combinations of condition elements of a
production should be stored ... such that the interaction of a change
to working memory with each token of the old state can be computed
independently and in parallel" (paper Section 7.3).

Implementation
--------------
Per production, a store maps each non-empty CE-index subset to its
partial assignments.  A WME insertion creates singleton partials for
every CE it matches; a worklist then merges each new partial with every
stored partial over a *disjoint* subset, deduplicating by the
(index, timetag) key -- so all supersets containing the new WME appear
exactly once.  Deletion removes every partial containing the WME (the
scheme's cheap direction, like TREAT's).

Consistency of a partial is checked by *lenient* re-evaluation in LHS
index order: a predicate whose variable operand is not yet bound
passes provisionally.  On the full CE set every operand's binder is
present and earlier (the validator guarantees it), so full assignments
are checked strictly -- partial leniency never leaks into the conflict
set.

Negated CEs are evaluated only when a full positive assignment forms
(with bindings restricted to the variables visible at the negation's
LHS position, as in :mod:`repro.treat.matcher`).  Because full partials
stay stored even while blocked, unblocking after a deletion is a cheap
re-check rather than a join.

The per-change work and the stored volume both grow exponentially with
LHS width -- the paper's stated concerns (1) and (2) about this end of
the spectrum, observable here via :meth:`CombinationMatcher.state_size`
and the matcher's comparison counters.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..ops5.condition import (
    Bindings,
    CEAnalysis,
    ConjunctiveTest,
    PredicateTest,
    Test,
    VariableTest,
    wme_passes_alpha,
)
from ..ops5.matcher import Matcher
from ..ops5.production import Instantiation, Production
from ..ops5.wme import WME

#: A partial-assignment key: sorted ((ce_index, timetag), ...).
PartialKey = tuple[tuple[int, int], ...]


def _lenient_evaluate(test: Test, value, bindings: Bindings) -> Optional[Bindings]:
    """Like ``Test.evaluate`` but unbound predicate operands pass.

    Partial assignments may lack the condition element that binds a
    predicate's operand; the predicate is then provisionally satisfied
    and re-checked once a merge brings the binder in.
    """
    if isinstance(test, PredicateTest) and isinstance(test.operand, VariableTest):
        if test.operand.name not in bindings:
            return bindings
        return test.evaluate(value, bindings)
    if isinstance(test, ConjunctiveTest):
        current: Optional[Bindings] = bindings
        for inner in test.tests:
            current = _lenient_evaluate(inner, value, current)
            if current is None:
                return None
        return current
    return test.evaluate(value, bindings)


def _lenient_match(analysis: CEAnalysis, wme: WME, bindings: Bindings) -> Optional[Bindings]:
    """CE match with lenient predicate semantics (see above)."""
    ce = analysis.ce
    if wme.cls != ce.cls:
        return None
    current: Optional[Bindings] = bindings
    for attribute in sorted(ce.tests):
        current = _lenient_evaluate(ce.tests[attribute], wme.get(attribute), current)
        if current is None:
            return None
    return current


class _Partial:
    """One consistent assignment of WMEs to a subset of positive CEs."""

    __slots__ = ("assignment", "key")

    def __init__(self, assignment: dict[int, WME]) -> None:
        self.assignment = assignment
        self.key: PartialKey = tuple(
            (index, assignment[index].timetag) for index in sorted(assignment)
        )

    @property
    def indices(self) -> frozenset[int]:
        return frozenset(self.assignment)

    def contains_wme(self, timetag: int) -> bool:
        return any(w.timetag == timetag for w in self.assignment.values())


class _ProductionState:
    """All stored combinations for one production."""

    def __init__(self, production: Production) -> None:
        self.production = production
        self.analyses = production.analysis
        self.positive = [a for a in self.analyses if not a.ce.negated]
        self.positive_indices = frozenset(a.index for a in self.positive)
        self.negated = [a for a in self.analyses if a.ce.negated]
        #: subset -> {partial key: _Partial}
        self.store: dict[frozenset[int], dict[PartialKey, _Partial]] = {}
        #: Variables visible to each negated CE (bound at earlier LHS
        #: positions by positive CEs).
        self.visible_vars: dict[int, frozenset[str]] = {}
        bound: set[str] = set()
        for analysis in self.analyses:
            if analysis.ce.negated:
                self.visible_vars[analysis.index] = frozenset(bound)
            else:
                bound.update(analysis.binders)

    def partials_of(self, subset: frozenset[int]) -> dict[PartialKey, _Partial]:
        return self.store.setdefault(subset, {})

    def consistent_bindings(self, assignment: dict[int, WME]) -> Optional[Bindings]:
        """Lenient re-evaluation of *assignment* in LHS index order."""
        bindings: Optional[Bindings] = {}
        for index in sorted(assignment):
            bindings = _lenient_match(self.analyses[index], assignment[index], bindings)
            if bindings is None:
                return None
        return bindings


class CombinationMatcher(Matcher):
    """The all-combinations scheme as a live matcher."""

    def __init__(self) -> None:
        super().__init__()
        self._states: dict[str, _ProductionState] = {}
        #: Alpha memories for negated CEs: (production, ce index) -> wmes.
        self._neg_amem: dict[tuple[str, int], dict[int, WME]] = {}
        self._wmes: dict[int, WME] = {}
        self._comparisons = 0
        self._tokens_built = 0

    # -- Matcher interface -----------------------------------------------------

    @property
    def productions(self) -> Iterable[Production]:
        return (state.production for state in self._states.values())

    def add_production(self, production: Production) -> None:
        state = _ProductionState(production)
        self._states[production.name] = state
        for analysis in state.negated:
            self._neg_amem[(production.name, analysis.index)] = {
                tag: wme
                for tag, wme in self._wmes.items()
                if wme_passes_alpha(wme, analysis)
            }
        # Fold existing memory in one WME at a time (reusing the
        # incremental machinery keeps one code path).
        for wme in list(self._wmes.values()):
            self._combine_new_wme(state, wme)
        for partial in state.partials_of(state.positive_indices).values():
            instantiation = self._instantiation(state, partial)
            if self._negations_clear(state, partial) and instantiation not in self.conflict_set:
                self.conflict_set.insert(instantiation)

    def remove_production(self, name: str) -> None:
        state = self._states.pop(name)
        for analysis in state.negated:
            self._neg_amem.pop((name, analysis.index), None)
        for instantiation in list(self.conflict_set):
            if instantiation.production is state.production:
                self.conflict_set.delete(instantiation)

    def add_wme(self, wme: WME) -> None:
        self._comparisons = 0
        self._tokens_built = 0
        self._wmes[wme.timetag] = wme
        affected: set[str] = set()

        for name, state in self._states.items():
            new_fulls = self._combine_new_wme(state, wme)
            # Affectedness: the WME matched some CE (positive or negated).
            if self._hit_any_ce(state, wme):
                affected.add(name)
            for partial in new_fulls:
                if self._negations_clear(state, partial):
                    self.conflict_set.insert(self._instantiation(state, partial))
            # Negated CEs: a new blocker retracts satisfied instantiations
            # (including any inserted just above with the pre-change
            # blocker memories -- net effect identical either way).
            for analysis in state.negated:
                amem = self._neg_amem[(name, analysis.index)]
                if wme_passes_alpha(wme, analysis):
                    amem[wme.timetag] = wme
                    self._retract_blocked(state, analysis, wme)

        self._record("add", wme, affected)

    def remove_wme(self, wme: WME) -> None:
        self._comparisons = 0
        self._tokens_built = 0
        del self._wmes[wme.timetag]
        affected: set[str] = set()

        for instantiation in list(self.conflict_set):
            if wme.timetag in instantiation.timetags:
                self.conflict_set.delete(instantiation)

        for name, state in self._states.items():
            if self._hit_any_ce(state, wme):
                affected.add(name)
            # Drop every partial carrying the WME.
            for subset, partials in state.store.items():
                doomed = [
                    key for key, partial in partials.items()
                    if partial.contains_wme(wme.timetag)
                ]
                for key in doomed:
                    del partials[key]
            # Negated CEs: removing a blocker may satisfy stored fulls.
            for analysis in state.negated:
                amem = self._neg_amem[(name, analysis.index)]
                if wme.timetag in amem:
                    del amem[wme.timetag]
                    self._resurrect_unblocked(state)

        self._record("remove", wme, affected)

    # -- combination machinery ---------------------------------------------------

    def _combine_new_wme(self, state: _ProductionState, wme: WME) -> list[_Partial]:
        """Insert *wme*'s singletons and close under disjoint merges.

        Returns the new full-subset partials (candidate instantiations).
        """
        worklist: list[_Partial] = []
        for analysis in state.positive:
            self._comparisons += 1
            if _lenient_match(analysis, wme, {}) is not None:
                partial = _Partial({analysis.index: wme})
                store = state.partials_of(frozenset({analysis.index}))
                if partial.key not in store:
                    store[partial.key] = partial
                    self._tokens_built += 1
                    worklist.append(partial)

        new_fulls: list[_Partial] = []
        position = 0
        while position < len(worklist):
            current = worklist[position]
            position += 1
            if current.indices == state.positive_indices:
                new_fulls.append(current)
                continue
            # Merge with every stored partial over a disjoint subset.
            for subset, partials in list(state.store.items()):
                if subset & current.indices:
                    continue
                for other in list(partials.values()):
                    merged_assignment = dict(current.assignment)
                    merged_assignment.update(other.assignment)
                    merged = _Partial(merged_assignment)
                    target = state.partials_of(merged.indices)
                    if merged.key in target:
                        continue
                    self._comparisons += 1
                    if state.consistent_bindings(merged_assignment) is None:
                        continue
                    target[merged.key] = merged
                    self._tokens_built += 1
                    worklist.append(merged)
        return new_fulls

    def _hit_any_ce(self, state: _ProductionState, wme: WME) -> bool:
        return any(wme_passes_alpha(wme, analysis) for analysis in state.analyses)

    # -- negation handling ----------------------------------------------------------

    def _visible(self, state: _ProductionState, analysis: CEAnalysis,
                 bindings: Bindings) -> Bindings:
        return {
            var: bindings[var]
            for var in state.visible_vars[analysis.index]
            if var in bindings
        }

    def _negations_clear(self, state: _ProductionState, partial: _Partial) -> bool:
        bindings = state.consistent_bindings(partial.assignment)
        if bindings is None:  # pragma: no cover - stored partials are consistent
            return False
        for analysis in state.negated:
            amem = self._neg_amem[(state.production.name, analysis.index)]
            visible = self._visible(state, analysis, bindings)
            for blocker in amem.values():
                self._comparisons += 1
                if analysis.ce.match(blocker, dict(visible)) is not None:
                    return False
        return True

    def _retract_blocked(self, state: _ProductionState, analysis: CEAnalysis,
                         blocker: WME) -> None:
        for instantiation in list(self.conflict_set):
            if instantiation.production is not state.production:
                continue
            visible = self._visible(state, analysis, instantiation.bindings)
            self._comparisons += 1
            if analysis.ce.match(blocker, visible) is not None:
                self.conflict_set.delete(instantiation)

    def _resurrect_unblocked(self, state: _ProductionState) -> None:
        for partial in state.partials_of(state.positive_indices).values():
            instantiation = self._instantiation(state, partial)
            if instantiation in self.conflict_set:
                continue
            if self._negations_clear(state, partial):
                self.conflict_set.insert(instantiation)

    def _instantiation(self, state: _ProductionState, partial: _Partial) -> Instantiation:
        bindings = state.consistent_bindings(partial.assignment) or {}
        wmes = tuple(partial.assignment[i] for i in sorted(partial.assignment))
        return Instantiation(state.production, wmes, bindings)

    # -- bookkeeping --------------------------------------------------------------------

    def _record(self, kind: str, wme: WME, affected: set[str]) -> None:
        self.stats.record(
            kind, wme.cls, len(affected), 0, self._comparisons, self._tokens_built
        )

    def state_size(self) -> dict[str, int]:
        """Stored volume in the shared schema (alpha vs beta split).

        Singleton partials plus negated-CE memories count as alpha
        state; multi-CE partials are the combination (beta) state.
        """
        alpha = sum(len(m) for m in self._neg_amem.values())
        beta = 0
        for state in self._states.values():
            for subset, partials in state.store.items():
                if len(subset) == 1:
                    alpha += len(partials)
                else:
                    beta += len(partials)
        return {"alpha_wmes": alpha, "beta_tokens": beta}

    def memory_size(self) -> int:
        return len(self._wmes)
