"""Differential testing: Rete and TREAT vs. the naive reference matcher.

The naive matcher recomputes the conflict set from first principles on
every change, so it is the semantic oracle.  Hypothesis generates random
programs (joins, predicates, negations, intra-CE repetition) and random
add/remove sequences; after every change all three matchers must hold
identical conflict sets.
"""

from hypothesis import given, settings, strategies as st

from repro.naive import NaiveMatcher
from repro.ops5.condition import (
    ConditionElement,
    ConstantTest,
    Predicate,
    PredicateTest,
    Test,
    VariableTest,
)
from repro.ops5.production import Production
from repro.ops5.wme import WME
from repro.rete import ReteNetwork
from repro.treat import TreatMatcher

CLASSES = ["c1", "c2", "c3"]
ATTRIBUTES = ["a", "b"]
SYMBOLS = ["red", "blue"]
NUMBERS = [0, 1, 2]
VARIABLES = ["x", "y"]

values = st.sampled_from(SYMBOLS + NUMBERS)


@st.composite
def condition_elements(draw, index: int, bound: set[str]) -> ConditionElement:
    """One CE; predicates only reference already-bound variables."""
    cls = draw(st.sampled_from(CLASSES))
    negated = index > 0 and draw(st.booleans())
    tests: dict[str, Test] = {}
    local_bound: set[str] = set()
    for attribute in draw(st.lists(st.sampled_from(ATTRIBUTES), unique=True, min_size=1)):
        choice = draw(st.integers(min_value=0, max_value=3))
        if choice == 0:
            tests[attribute] = ConstantTest(draw(values))
        elif choice == 1:
            name = draw(st.sampled_from(VARIABLES))
            tests[attribute] = VariableTest(name)
            local_bound.add(name)
        elif choice == 2:
            tests[attribute] = PredicateTest(
                draw(st.sampled_from([Predicate.NE, Predicate.GT, Predicate.LE])),
                ConstantTest(draw(st.sampled_from(NUMBERS))),
            )
        else:
            # Predicate on a variable -- only if some variable is usable.
            # Variables bound earlier in *this* CE only count when their
            # attribute sorts before this one (evaluation order).
            usable = sorted(
                bound | {v for v in local_bound if any(
                    a < attribute and isinstance(tests.get(a), VariableTest)
                    and tests[a].name == v for a in tests)}
            )
            if usable:
                tests[attribute] = PredicateTest(
                    draw(st.sampled_from([Predicate.NE, Predicate.LT])),
                    VariableTest(draw(st.sampled_from(usable))),
                )
            else:
                tests[attribute] = ConstantTest(draw(values))
    if not negated:
        bound.update(local_bound)
    return ConditionElement(cls, tests, negated)


@st.composite
def productions(draw, name: str) -> Production:
    ce_count = draw(st.integers(min_value=1, max_value=3))
    bound: set[str] = set()
    conditions = [draw(condition_elements(i, bound)) for i in range(ce_count)]
    if all(ce.negated for ce in conditions):
        conditions[0] = ConditionElement(conditions[0].cls, conditions[0].tests, False)
    return Production(name, conditions, ())


@st.composite
def programs(draw) -> list[Production]:
    count = draw(st.integers(min_value=1, max_value=4))
    return [draw(productions(f"p{i}")) for i in range(count)]


@st.composite
def wme_specs(draw):
    cls = draw(st.sampled_from(CLASSES))
    attrs = {
        attribute: draw(values)
        for attribute in draw(st.lists(st.sampled_from(ATTRIBUTES), unique=True))
    }
    return (cls, attrs)


@st.composite
def change_scripts(draw):
    """A list of operations: ("add", spec) or ("remove", index-of-live)."""
    ops = []
    live = 0
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        if live and draw(st.booleans()) and draw(st.booleans()):
            ops.append(("remove", draw(st.integers(min_value=0, max_value=live - 1))))
            live -= 1
        else:
            ops.append(("add", draw(wme_specs())))
            live += 1
    return ops


def _drive(matcher, program, script):
    """Apply the script; return the conflict-set snapshots after each op."""
    for production in program:
        matcher.add_production(production)
    memory = matcher.memory
    live: list[WME] = []
    snapshots = []
    for op in script:
        if op[0] == "add":
            cls, attrs = op[1]
            wme = memory.add(WME(cls, attrs))
            matcher.add_wme(wme)
            live.append(wme)
        else:
            wme = live.pop(op[1])
            memory.remove(wme)
            matcher.remove_wme(wme)
        snapshots.append(matcher.conflict_set.snapshot())
    return snapshots


@settings(max_examples=120, deadline=None)
@given(program=programs(), script=change_scripts())
def test_rete_matches_naive(program, script):
    naive = _drive(NaiveMatcher(), program, script)
    rete = _drive(ReteNetwork(), program, script)
    assert rete == naive


@settings(max_examples=120, deadline=None)
@given(program=programs(), script=change_scripts())
def test_treat_matches_naive(program, script):
    naive = _drive(NaiveMatcher(), program, script)
    treat = _drive(TreatMatcher(), program, script)
    assert treat == naive


@settings(max_examples=60, deadline=None)
@given(program=programs(), script=change_scripts())
def test_late_production_addition_converges(program, script):
    """Adding productions after the WM is loaded must equal loading first."""
    early = NaiveMatcher()
    late = ReteNetwork()
    for production in program:
        early.add_production(production)
    memory_early, memory_late = early.memory, late.memory
    live_early, live_late = [], []
    for op in script:
        for matcher, memory, live in (
            (early, memory_early, live_early),
            (late, memory_late, live_late),
        ):
            if op[0] == "add":
                cls, attrs = op[1]
                wme = memory.add(WME(cls, attrs))
                matcher.add_wme(wme)
                live.append(wme)
            else:
                wme = live.pop(op[1])
                memory.remove(wme)
                matcher.remove_wme(wme)
    for production in program:
        late.add_production(production)
    assert late.conflict_set.snapshot() == early.conflict_set.snapshot()
