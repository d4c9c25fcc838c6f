"""Condition elements: the left-hand-side patterns of productions.

A condition element (CE) is a partial description of a WME::

    (block ^id <i> ^color <c> ^selected no)

Each attribute position holds a :class:`Test`.  The supported test forms
mirror OPS5:

* a **constant** — matches an identical constant;
* a **variable** ``<x>`` — matches anything, but all occurrences of the
  same variable in one LHS must match equal values;
* a **predicate** ``<> <x>``, ``> 5``, ``<= <y>`` ... — the WME value must
  stand in the given relation to the operand (constant or variable);
* a **conjunction** ``{ <x> > 5 }`` — every inner test must hold;
* a **disjunction** ``<< red green blue >>`` — the value must equal one of
  the listed constants.

A CE may be *negated* (written with a leading ``-``): the production is
satisfied only when **no** WME matches the negated CE under the bindings
established by the positive CEs.

This module also provides :func:`analyze_lhs`, which classifies every test
of every CE into the categories a Rete compiler needs:

* *alpha tests* — depend on a single WME only (constant tests, predicates
  with constant operands, and intra-CE variable consistency);
* *binders* — the attribute that gives a variable its value, per CE;
* *join tests* — comparisons between this CE's attributes and variables
  bound by earlier CEs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import ValidationError
from .wme import Value, WME, is_number, same_type, values_equal

#: A variable-binding environment: variable name -> value.
Bindings = dict[str, Value]


class Predicate(enum.Enum):
    """OPS5 predicate operators usable in front of a test operand."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    SAME_TYPE = "<=>"

    def apply(self, actual: Value, operand: Value) -> bool:
        """Evaluate ``actual <op> operand`` under OPS5 comparison rules.

        Ordering predicates require both sides to be numeric; a symbolic
        operand on an ordering predicate simply fails to match (OPS5
        signals an error at run time; failing the match is the common
        implementation choice and keeps matching total).
        """
        if self is Predicate.EQ:
            return values_equal(actual, operand)
        if self is Predicate.NE:
            return not values_equal(actual, operand)
        if self is Predicate.SAME_TYPE:
            return same_type(actual, operand)
        if not (is_number(actual) and is_number(operand)):
            return False
        if self is Predicate.LT:
            return actual < operand
        if self is Predicate.LE:
            return actual <= operand
        if self is Predicate.GT:
            return actual > operand
        return actual >= operand  # GE


class Test:
    """Base class for attribute tests.

    ``evaluate(value, bindings)`` returns the updated bindings on success
    (possibly the same object when nothing was bound) or ``None`` on
    failure.  Tests never mutate the bindings they are given.
    """

    __slots__ = ()

    def evaluate(self, value: Value, bindings: Bindings) -> Optional[Bindings]:
        raise NotImplementedError

    def variables(self) -> list[str]:
        """Variables mentioned by this test, in occurrence order."""
        return []

    def binds(self) -> list[str]:
        """Variables this test can *bind* (vs. merely reference)."""
        return []

    def specificity(self) -> int:
        """Number of elementary tests, for LEX specificity ordering."""
        return 1


@dataclass(frozen=True)
class ConstantTest(Test):
    """Matches only a value equal to *value* (OPS5 constant)."""

    value: Value

    def evaluate(self, value: Value, bindings: Bindings) -> Optional[Bindings]:
        return bindings if values_equal(value, self.value) else None

    def __repr__(self) -> str:
        return f"{self.value}"


@dataclass(frozen=True)
class VariableTest(Test):
    """A variable occurrence ``<name>``.

    The first occurrence in an LHS binds the variable; later occurrences
    must match the bound value.
    """

    name: str

    def evaluate(self, value: Value, bindings: Bindings) -> Optional[Bindings]:
        if self.name in bindings:
            return bindings if values_equal(value, bindings[self.name]) else None
        new = dict(bindings)
        new[self.name] = value
        return new

    def variables(self) -> list[str]:
        return [self.name]

    def binds(self) -> list[str]:
        return [self.name]

    def __repr__(self) -> str:
        return f"<{self.name}>"


@dataclass(frozen=True)
class PredicateTest(Test):
    """``<op> operand`` where operand is a constant or a variable.

    A predicate test never binds its variable operand; the variable must
    be bound elsewhere (validated by :func:`analyze_lhs`).
    """

    predicate: Predicate
    operand: "ConstantTest | VariableTest"

    def evaluate(self, value: Value, bindings: Bindings) -> Optional[Bindings]:
        if isinstance(self.operand, VariableTest):
            if self.operand.name not in bindings:
                # Unbound predicate operand: cannot be satisfied here.
                return None
            target = bindings[self.operand.name]
        else:
            target = self.operand.value
        return bindings if self.predicate.apply(value, target) else None

    def variables(self) -> list[str]:
        return self.operand.variables()

    def __repr__(self) -> str:
        return f"{self.predicate.value} {self.operand!r}"


@dataclass(frozen=True)
class ConjunctiveTest(Test):
    """``{ t1 t2 ... }`` — all inner tests must hold on the same value."""

    tests: tuple[Test, ...]

    def evaluate(self, value: Value, bindings: Bindings) -> Optional[Bindings]:
        current: Optional[Bindings] = bindings
        for test in self.tests:
            current = test.evaluate(value, current)
            if current is None:
                return None
        return current

    def variables(self) -> list[str]:
        out: list[str] = []
        for test in self.tests:
            out.extend(test.variables())
        return out

    def binds(self) -> list[str]:
        out: list[str] = []
        for test in self.tests:
            out.extend(test.binds())
        return out

    def specificity(self) -> int:
        return sum(t.specificity() for t in self.tests)

    def __repr__(self) -> str:
        return "{ " + " ".join(repr(t) for t in self.tests) + " }"


@dataclass(frozen=True)
class DisjunctiveTest(Test):
    """``<< v1 v2 ... >>`` — the value must equal one listed constant."""

    values: tuple[Value, ...]

    def evaluate(self, value: Value, bindings: Bindings) -> Optional[Bindings]:
        for candidate in self.values:
            if values_equal(value, candidate):
                return bindings
        return None

    def __repr__(self) -> str:
        return "<< " + " ".join(str(v) for v in self.values) + " >>"


@dataclass(frozen=True)
class ConditionElement:
    """One pattern of a production LHS.

    Parameters
    ----------
    cls:
        The element class the CE describes (a constant symbol; OPS5 CEs
        always name their class).
    tests:
        Mapping of attribute name to :class:`Test`.
    negated:
        True for ``-`` (negated) condition elements.
    """

    cls: str
    tests: Mapping[str, Test] = field(default_factory=dict)
    negated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "tests", dict(self.tests))

    def match(self, wme: WME, bindings: Bindings) -> Optional[Bindings]:
        """Match *wme* under *bindings*; return extended bindings or None.

        This is the reference matching semantics used directly by the
        naive and TREAT matchers and, indirectly, by the test suite to
        validate the Rete network.
        """
        if wme.cls != self.cls:
            return None
        current: Optional[Bindings] = bindings
        # Sorted attribute order keeps variable-binding order identical to
        # the order assumed by analyze_lhs (predicates may only reference
        # variables bound earlier in this order; validation enforces it).
        for attribute in sorted(self.tests):
            current = self.tests[attribute].evaluate(wme.get(attribute), current)
            if current is None:
                return None
        return current

    def variables(self) -> list[str]:
        """All variables mentioned, in attribute-sorted occurrence order."""
        out: list[str] = []
        for attribute in sorted(self.tests):
            out.extend(self.tests[attribute].variables())
        return out

    def specificity(self) -> int:
        """Number of elementary tests incl. the implicit class test."""
        return 1 + sum(t.specificity() for t in self.tests.values())

    def __repr__(self) -> str:
        parts = [self.cls]
        for attribute in sorted(self.tests):
            parts.append(f"^{attribute} {self.tests[attribute]!r}")
        body = f"({' '.join(parts)})"
        return f"- {body}" if self.negated else body


# --------------------------------------------------------------------------
# LHS analysis for network compilers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinTest:
    """A cross-CE comparison the beta network must perform.

    ``own_attribute`` names the field of the *new* WME (the one flowing
    into the join for this CE); the comparand is the value bound for
    ``variable`` by condition element ``other_ce`` (a 0-based LHS index)
    at ``other_attribute``.
    """

    own_attribute: str
    predicate: Predicate
    variable: str
    other_ce: int
    other_attribute: str


@dataclass(frozen=True)
class CEAnalysis:
    """Compiler-oriented view of one condition element.

    Attributes
    ----------
    alpha_tests:
        (attribute, test) pairs decidable from the WME alone.  Includes
        intra-CE variable-consistency equality tests, represented as
        ``("=", attr_a, attr_b)`` tuples in :attr:`intra_tests`.
    binders:
        variable name -> attribute supplying its value, for variables
        whose *first LHS occurrence* is in this CE.
    join_tests:
        Cross-CE tests against variables bound by earlier CEs.
    """

    index: int
    ce: ConditionElement
    alpha_tests: tuple[tuple[str, Test], ...]
    intra_tests: tuple[tuple[str, str], ...]
    binders: Mapping[str, str]
    join_tests: tuple[JoinTest, ...]


def _flatten(attribute: str, test: Test) -> list[tuple[str, Test]]:
    """Flatten conjunctive tests into their components."""
    if isinstance(test, ConjunctiveTest):
        out: list[tuple[str, Test]] = []
        for inner in test.tests:
            out.extend(_flatten(attribute, inner))
        return out
    return [(attribute, test)]


def analyze_lhs(ces: Sequence[ConditionElement]) -> list[CEAnalysis]:
    """Classify the tests of an LHS for network compilation.

    Raises
    ------
    ValidationError
        If the first CE is negated, if a negated CE tries to bind a
        variable that is used nowhere else, or if a predicate references
        a variable that is never bound by a positive CE at or before the
        point of use.
    """
    if not ces:
        raise ValidationError("a production needs at least one condition element")
    if ces[0].negated:
        raise ValidationError("the first condition element may not be negated")

    analyses: list[CEAnalysis] = []
    bound_at: dict[str, tuple[int, str]] = {}  # var -> (ce index, attribute)

    for index, ce in enumerate(ces):
        flat: list[tuple[str, Test]] = []
        for attribute in sorted(ce.tests):
            flat.extend(_flatten(attribute, ce.tests[attribute]))

        alpha: list[tuple[str, Test]] = []
        intra: list[tuple[str, str]] = []
        binders: dict[str, str] = {}
        joins: list[JoinTest] = []

        for attribute, test in flat:
            if isinstance(test, (ConstantTest, DisjunctiveTest)):
                alpha.append((attribute, test))
            elif isinstance(test, VariableTest):
                if test.name in binders:
                    # Second occurrence within this CE: intra-element
                    # equality, decidable from the WME alone.
                    intra.append((binders[test.name], attribute))
                elif test.name in bound_at and not ce.negated:
                    # Bound by an earlier CE: a join equality test -- and
                    # this CE also re-binds it locally for later tests.
                    other_ce, other_attr = bound_at[test.name]
                    joins.append(
                        JoinTest(attribute, Predicate.EQ, test.name, other_ce, other_attr)
                    )
                    binders[test.name] = attribute
                elif test.name in bound_at:
                    # Negated CE referencing an earlier binding: join test
                    # only (negated CEs never export bindings).
                    other_ce, other_attr = bound_at[test.name]
                    joins.append(
                        JoinTest(attribute, Predicate.EQ, test.name, other_ce, other_attr)
                    )
                else:
                    binders[test.name] = attribute
            elif isinstance(test, PredicateTest):
                operand = test.operand
                if isinstance(operand, ConstantTest):
                    alpha.append((attribute, test))
                else:
                    name = operand.name
                    if name in binders:
                        # Intra-CE predicate against a locally bound var:
                        # kept as a join-style test against *this* CE.
                        joins.append(
                            JoinTest(attribute, test.predicate, name, index, binders[name])
                        )
                    elif name in bound_at:
                        other_ce, other_attr = bound_at[name]
                        joins.append(
                            JoinTest(attribute, test.predicate, name, other_ce, other_attr)
                        )
                    else:
                        raise ValidationError(
                            f"variable <{name}> used in a predicate test in condition "
                            f"element {index + 1} before being bound"
                        )
            else:  # pragma: no cover - exhaustive over Test subclasses
                raise ValidationError(f"unsupported test type {type(test).__name__}")

        if ce.negated and binders:
            # Variables first bound inside a negated CE are purely local
            # wildcards; they must not leak to later CEs or the RHS.
            pass
        else:
            for name, attribute in binders.items():
                if name not in bound_at:
                    bound_at[name] = (index, attribute)

        analyses.append(
            CEAnalysis(
                index=index,
                ce=ce,
                alpha_tests=tuple(alpha),
                intra_tests=tuple(intra),
                binders=dict(binders),
                join_tests=tuple(joins),
            )
        )
    return analyses


def binding_sites(analyses: Sequence[CEAnalysis]) -> tuple[tuple[str, int, str], ...]:
    """Where each LHS variable gets its value: ``(variable, CE index,
    attribute)`` of its first binder in a *positive* CE, in LHS order."""
    sites: dict[str, tuple[str, int, str]] = {}
    for analysis in analyses:
        if not analysis.ce.negated:
            for variable, attribute in analysis.binders.items():
                sites.setdefault(variable, (variable, analysis.index, attribute))
    return tuple(sites.values())


def wme_passes_alpha(wme: WME, analysis: CEAnalysis) -> bool:
    """True when *wme* passes all single-WME tests of *analysis*.

    This is the alpha-network semantics: class test, constant tests,
    constant-operand predicates, and intra-CE variable consistency.
    """
    if wme.cls != analysis.ce.cls:
        return False
    empty: Bindings = {}
    for attribute, test in analysis.alpha_tests:
        if test.evaluate(wme.get(attribute), empty) is None:
            return False
    for attr_a, attr_b in analysis.intra_tests:
        if not values_equal(wme.get(attr_a), wme.get(attr_b)):
            return False
    return True
