"""Property-based differential testing across every matcher backend.

Hypothesis generates random OPS5 programs (joins, predicates, negations)
and random working-memory scripts; naive, TREAT, Rete, indexed Rete,
Oflazer, the serial compiled kernel, and the partitioned matcher must
hold identical conflict sets after every change, and -- for programs
with right-hand sides -- produce identical firing sequences, outputs,
and final memories.  Serial ``compiled`` is the parallel backend's own
kernel unpartitioned, so the pair compares partitioning and nothing else.
"""

from hypothesis import given, settings, strategies as st

from repro.kernel.matcher import CompiledMatcher
from repro.naive import NaiveMatcher
from repro.oflazer import CombinationMatcher
from repro.ops5.actions import Constant, Make, Remove, VariableRef
from repro.ops5.condition import (
    ConditionElement,
    ConstantTest,
    Predicate,
    PredicateTest,
    Test,
    VariableTest,
)
from repro.ops5.production import Production
from repro.ops5.wme import WME, WorkingMemory
from repro.parallel import ParallelMatcher, compare_backends
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
    for attribute in draw(
        st.lists(st.sampled_from(ATTRIBUTES), unique=True, min_size=1)
    ):
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
            usable = sorted(bound)
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
def actions_for(draw, name: str, conditions, bound: set[str]):
    """A small RHS: makes (constants or bound variables) and removes.

    Made WMEs may re-enter the matched classes, so runs can cascade;
    the drivers cap cycles, and every backend hits the same cap.
    """
    acts = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        cls = draw(st.sampled_from(CLASSES + ["log"]))
        attrs = []
        for attribute in draw(st.lists(st.sampled_from(ATTRIBUTES), unique=True)):
            if bound and draw(st.booleans()):
                attrs.append((attribute, VariableRef(draw(st.sampled_from(sorted(bound))))))
            else:
                attrs.append((attribute, Constant(draw(values))))
        acts.append(Make(cls, tuple(attrs)))
    # Optionally retract the WME matching the first CE (always positive).
    if draw(st.booleans()):
        acts.append(Remove(1))
    return tuple(acts)


@st.composite
def productions(draw, name: str, with_actions: bool) -> Production:
    ce_count = draw(st.integers(min_value=1, max_value=3))
    bound: set[str] = set()
    conditions = [draw(condition_elements(i, bound)) for i in range(ce_count)]
    if all(ce.negated for ce in conditions):
        conditions[0] = ConditionElement(
            conditions[0].cls, conditions[0].tests, False
        )
    acts = draw(actions_for(name, conditions, bound)) if with_actions else ()
    return Production(name, conditions, acts)


@st.composite
def programs(draw, with_actions: bool = False) -> list[Production]:
    count = draw(st.integers(min_value=1, max_value=4))
    return [draw(productions(f"p{i}", with_actions)) for i in range(count)]


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
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        if live and draw(st.booleans()) and draw(st.booleans()):
            ops.append(("remove", draw(st.integers(min_value=0, max_value=live - 1))))
            live -= 1
        else:
            ops.append(("add", draw(wme_specs())))
            live += 1
    return ops


def _drive(matcher, program, script):
    """Apply the script; return conflict-set snapshots after each op."""
    for production in program:
        matcher.add_production(production)
    memory = WorkingMemory()
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


@settings(max_examples=100, deadline=None, database=None)
@given(program=programs(), script=change_scripts())
def test_all_matchers_agree_on_conflict_sets(program, script):
    """Agreement of every backend after every working-memory change."""
    reference = _drive(NaiveMatcher(), program, script)
    assert _drive(TreatMatcher(), program, script) == reference
    assert _drive(ReteNetwork(), program, script) == reference
    assert _drive(ReteNetwork(indexed=True), program, script) == reference
    assert _drive(CombinationMatcher(), program, script) == reference
    assert _drive(CompiledMatcher(), program, script) == reference
    assert _drive(ParallelMatcher(workers=2), program, script) == reference


@settings(max_examples=100, deadline=None, database=None)
@given(program=programs(with_actions=True), setup=st.lists(wme_specs(), min_size=1, max_size=6))
def test_all_matchers_agree_on_firing_sequences(program, setup):
    """Full recognize--act runs: identical firings, output, final WM."""
    report = compare_backends(
        program,
        setup,
        {
            "naive": NaiveMatcher,
            "treat": TreatMatcher,
            "rete": ReteNetwork,
            "oflazer": CombinationMatcher,
            "compiled": CompiledMatcher,
            "parallel": lambda: ParallelMatcher(workers=2),
        },
        max_cycles=40,
    )
    assert report.agree, report.divergences()
