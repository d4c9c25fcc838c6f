"""The alpha dispatch table: a narrowing index, never a different answer.

``KernelRuntime.candidates`` probes one dict per group of stores instead
of calling every store's predicate.  The property below holds it to the
linear scan it replaced -- same stores, same order -- over generated
rulesets with the typed corner cases (``5`` vs ``"5"``, ``1`` vs ``1.0``,
a constant ``nil``, absent attributes, one attribute under two
constants, predicate- / disjunction- / intra-only stores) forced into
the strategy.  Hand mutations that each fail it: dropping the linear
tail, keying the table on ``repr(value)``, skipping the order merge.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernel.codegen import generate_source, plan_alpha_index, plan_stores
from repro.kernel.runtime import KernelRuntime
from repro.ops5 import ProductionSystem
from repro.ops5.condition import (
    ConditionElement,
    ConjunctiveTest,
    ConstantTest,
    DisjunctiveTest,
    Predicate,
    PredicateTest,
    VariableTest,
)
from repro.ops5.conflict import ConflictSet
from repro.ops5.production import Production
from repro.ops5.wme import NIL, WME
from repro.workloads.generator import emit_system_program
from repro.workloads.profiles import profile_named

ATTRS = ("a", "b", "c")
#: ``5``/``"5"`` differ, ``1``/``1.0`` coincide, ``nil`` is what an
#: absent attribute reads as.
VALUES = (5, "5", 1, 1.0, NIL, "red", 2.5, 0)

constants = st.sampled_from(VALUES).map(ConstantTest)
tests = st.one_of(
    constants,
    constants,  # weight: the index exists for these
    st.tuples(constants, constants).map(ConjunctiveTest),
    st.tuples(
        st.sampled_from([Predicate.NE, Predicate.GT, Predicate.LE, Predicate.SAME_TYPE]),
        constants,
    ).map(lambda pair: PredicateTest(*pair)),
    st.tuples(constants, st.sampled_from([Predicate.NE, Predicate.GE]), constants).map(
        lambda t: ConjunctiveTest((t[0], PredicateTest(t[1], t[2])))
    ),
    st.lists(st.sampled_from(VALUES), min_size=1, max_size=3).map(
        lambda values: DisjunctiveTest(tuple(values))
    ),
    st.just(VariableTest("x")),  # twice in one CE: an intra-CE test
)
condition_elements = st.builds(
    ConditionElement,
    st.sampled_from(["k", "k", "k", "solo"]),
    st.dictionaries(st.sampled_from(ATTRS), tests, max_size=3),
)
rulesets = st.lists(condition_elements, min_size=1, max_size=10)
wmes = st.lists(
    st.tuples(
        st.sampled_from(["k", "solo", "other"]),
        st.dictionaries(st.sampled_from(ATTRS), st.sampled_from(VALUES + (3, "blue"))),
    ),
    min_size=1,
    max_size=12,
)


def _ce(cls, **tests_by_attr):
    return ConditionElement(cls, tests_by_attr)


#: Two groups and a tail in one class, the tail and the second group
#: holding *lower* store indexes than the first group's hit, a
#: single-store class, and the typed pairs side by side.
FORCED_RULESET = [
    _ce("k", a=PredicateTest(Predicate.GT, ConstantTest(0))),
    _ce("k", b=ConstantTest("red")),
    _ce("k", a=ConstantTest(5)),
    _ce("k", a=ConstantTest("5")),
    _ce("k", a=ConstantTest(1)),
    _ce("k", a=ConstantTest(1.0), b=ConstantTest(NIL)),
    _ce("k", a=ConjunctiveTest((ConstantTest(5), ConstantTest(1)))),
    _ce("k", a=DisjunctiveTest((5, "red"))),
    _ce("k", a=VariableTest("x"), c=VariableTest("x")),
    _ce("k"),
    _ce("solo", c=ConstantTest(NIL)),
]
FORCED_WMES = [
    ("k", {"a": 5, "b": "red"}),
    ("k", {"a": "5"}),
    ("k", {"a": 1.0}),
    ("k", {"a": 1, "b": NIL, "c": 1}),
    ("k", {}),
    ("solo", {}),
    ("solo", {"c": 2.5}),
    ("other", {"a": 5}),
]


def _runtime(ces) -> KernelRuntime:
    """A built runtime straight from codegen (no process-wide cache)."""
    productions = [Production(f"p{i}", [ce], []) for i, ce in enumerate(ces)]
    namespace: dict = {}
    exec(compile(generate_source(productions), "<alpha-index>", "exec"), namespace)
    runtime = KernelRuntime(ConflictSet(), productions)
    namespace["build"](runtime)
    return runtime


def check_index_equals_linear_scan(ces, wme_specs) -> None:
    runtime = _runtime(ces)
    for cls, attrs in wme_specs:
        wme = WME(cls, attrs)
        linear = [
            s.index
            for s in runtime.stores
            if s.cls == cls and (s.predicate is None or s.predicate(wme))
        ]
        candidates = runtime.candidates(wme)
        walked = [s.index for s in candidates]
        assert walked == sorted(set(walked)), (wme, walked)
        assert all(s.cls == cls for s in candidates)
        indexed = [
            s.index for s in candidates if s.predicate is None or s.predicate(wme)
        ]
        assert indexed == linear, (wme, indexed, linear)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@example(ces=FORCED_RULESET, wme_specs=FORCED_WMES)
@given(ces=rulesets, wme_specs=wmes)
def test_indexed_walk_equals_linear_scan(ces, wme_specs):
    check_index_equals_linear_scan(ces, wme_specs)


@pytest.mark.fuzz
@settings(max_examples=3000, deadline=None, database=None)
@given(ces=st.lists(condition_elements, min_size=1, max_size=24), wme_specs=wmes)
def test_indexed_walk_equals_linear_scan_long(ces, wme_specs):
    check_index_equals_linear_scan(ces, wme_specs)


def test_forced_ruleset_has_two_groups_a_tail_and_a_solo_class():
    """The corner cases the property leans on are really in the table."""
    productions = [Production(f"p{i}", [ce], []) for i, ce in enumerate(FORCED_RULESET)]
    index = plan_alpha_index(plan_stores(productions)[0])
    groups, tail = index["k"]
    assert set(groups) == {("a",), ("b",), ("a", "b")}
    # 1 and 1.0 are one key; 5 and "5" are two.
    assert set(groups[("a",)]) == {5, "5", 1}
    assert groups[("a", "b")] == {(1.0, NIL): [5]}
    # predicate-only, same attribute twice, disjunction, intra, class-only
    assert tail == [0, 6, 7, 8, 9]
    assert index["solo"] == ({("c",): {NIL: [10]}}, [])


def test_r1_soar_table_shape():
    """The ISSUE's sizing: 34 / 21 / 4+1 stores behind three lookups."""
    program = emit_system_program(profile_named("r1-soar"))
    system = ProductionSystem(program.source, matcher="compiled")
    system.add("item", lane="l", kind="k0", val=10)  # first change compiles
    runtime = system.matcher.runtime
    shape = {
        cls: ([(attrs, sum(map(len, table.values()))) for attrs, table in groups], len(tail))
        for cls, (groups, tail) in runtime.by_class.items()
    }
    assert shape["item"] == ([("kind", 34)], 0)
    assert shape["mark"] == ([(("branch", "stage"), 21)], 0)
    assert shape["task"] == ([("stage", 4)], 1)
    assert system.matcher.kernel_summary()["alpha_index"] == {
        "classes": 4,
        "groups": 4,
        "indexed_stores": 60,
        "linear_tail_stores": 1,
        "largest_tail": 1,
    }
