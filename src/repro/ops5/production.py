"""Productions and production instantiations.

A :class:`Production` is an *if--then* rule: an ordered list of condition
elements (the LHS) plus an ordered list of actions (the RHS).  An
:class:`Instantiation` is one concrete way the LHS is satisfied: the tuple
of WMEs matching the positive condition elements, together with the
variable bindings they induce.  The conflict set is a set of
instantiations.
"""

from __future__ import annotations

from typing import Sequence

from .actions import Action, Bind, actions_are_valid
from .condition import Bindings, CEAnalysis, ConditionElement, analyze_lhs, binding_sites
from .errors import ValidationError
from .rhs import compile_rhs
from .wme import WME


class Production:
    """An OPS5 production rule.

    Construction validates the rule: at least one CE, a positive first CE,
    predicate operands bound before use, and action CE references that
    name existing positive CEs.  Invalid rules raise
    :class:`~repro.ops5.errors.ValidationError` immediately, so a loaded
    program is structurally sound before any matching happens.

    Productions are immutable after construction and hashable by name;
    a program never contains two productions with the same name.
    """

    __slots__ = (
        "name", "conditions", "actions", "analysis", "positive_indices", "specificity",
        "binding_sites", "fire", "rhs_source",
    )

    def __init__(
        self,
        name: str,
        conditions: Sequence[ConditionElement],
        actions: Sequence[Action],
    ) -> None:
        if not name:
            raise ValidationError("a production needs a name")
        self.name = name
        self.conditions: tuple[ConditionElement, ...] = tuple(conditions)
        self.actions: tuple[Action, ...] = tuple(actions)
        #: Compiler-oriented LHS analysis (see :func:`analyze_lhs`); also
        #: performs the structural LHS validation.
        self.analysis: tuple[CEAnalysis, ...] = tuple(analyze_lhs(self.conditions))
        #: 0-based LHS indices of the positive (non-negated) CEs.
        self.positive_indices: tuple[int, ...] = tuple(
            i for i, ce in enumerate(self.conditions) if not ce.negated
        )
        #: Total elementary test count, used by LEX conflict resolution.
        self.specificity: int = sum(ce.specificity() for ce in self.conditions)
        self._validate_rhs()
        #: ``(variable, position in an instantiation's wmes, attribute)``:
        #: what ``fire`` and :attr:`Instantiation.bindings` both read.
        self.binding_sites: tuple[tuple[str, int, str], ...] = tuple(
            (variable, self.positive_indices.index(ce), attribute)
            for variable, ce, attribute in binding_sites(self.analysis)
        )
        #: The RHS, generated: ``fire(engine, wmes, record)`` and its source.
        self.fire, self.rhs_source = compile_rhs(self)

    def _validate_rhs(self) -> None:
        problems = actions_are_valid(self.actions, [ce.negated for ce in self.conditions])
        bound: set[str] = set()
        for analysis in self.analysis:
            if not analysis.ce.negated:
                bound.update(analysis.binders)
        for action in self.actions:
            for var in action.variables():
                if var not in bound:
                    problems.append(
                        f"production {self.name}: RHS variable <{var}> is never bound"
                    )
            if isinstance(action, Bind):
                bound.add(action.name)
        if problems:
            raise ValidationError("; ".join(problems))

    def ce_position_of(self, one_based: int) -> int:
        """Map a 1-based action CE reference to a positive-match position.

        ``remove 2`` refers to LHS element 2; instantiations only carry
        WMEs for positive CEs, so the position inside the instantiation
        tuple skips negated elements.
        """
        return self.positive_indices.index(one_based - 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Production):
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"Production({self.name}, {len(self.conditions)} CEs, {len(self.actions)} actions)"


class Instantiation:
    """A satisfied production: matched WMEs plus induced bindings.

    ``wmes`` holds one WME per *positive* CE, in LHS order.  Two
    instantiations are equal when they name the same production and the
    same WME timetags -- bindings are derived data and excluded from
    identity, matching OPS5 refraction semantics.
    """

    __slots__ = ("production", "wmes", "_bindings", "timetags", "key", "recency_key")

    def __init__(
        self,
        production: Production,
        wmes: Sequence[WME],
        bindings: Bindings | None = None,
        timetags: tuple[int, ...] | None = None,
    ) -> None:
        self.production = production
        self.wmes: tuple[WME, ...] = wmes if type(wmes) is tuple else tuple(wmes)
        #: The matcher's own dict, or None: derived on first read.
        self._bindings = bindings
        #: Timetags of the matched WMEs, in LHS (positive-CE) order.  A
        #: caller that already holds that tuple (the compiled kernel's
        #: terminal, from its left key) passes it; everyone else omits it.
        self.timetags: tuple[int, ...] = (
            tuple(w.timetag for w in self.wmes) if timetags is None else timetags
        )
        #: Identity key: (production name, matched timetags).
        self.key: tuple[str, tuple[int, ...]] = (production.name, self.timetags)
        #: Timetags sorted descending -- the LEX recency ordering key.
        self.recency_key: tuple[int, ...] = tuple(sorted(self.timetags, reverse=True))

    @property
    def bindings(self) -> Bindings:
        """LHS variable -> value, read at each variable's binding site."""
        bindings = self._bindings
        if bindings is None:
            wmes = self.wmes
            bindings = self._bindings = {
                variable: wmes[position].get(attribute)
                for variable, position, attribute in self.production.binding_sites
            }
        return bindings

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instantiation):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        tags = " ".join(str(t) for t in self.timetags)
        return f"<{self.production.name}: {tags}>"
