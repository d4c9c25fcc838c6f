"""The generated class entries: the alpha network as code, held to the
interpreted alpha tests.

A change reaches the stores through one generated entry per class
(``rt.adds[cls]`` / ``rt.removes[cls]``), which probes each constant
group's dict of store blocks, runs the class's tail inline and tests
every other alpha item inline.  The property below drives rulesets
through those entries on a fresh runtime and holds store membership
(the stores whose count an add raises) to
``ops5.condition.wme_passes_alpha`` of each store's condition elements
(taken from the plan), the affected count to the productions those
stores feed, and a remove to the stores its add filed -- over
generated rulesets with the typed corner cases forced into the
strategy: ``5`` vs ``"5"``, ``1`` vs ``1.0`` vs ``True``, ``0`` vs
``-0.0`` vs ``False``, NaN, ``inf``, a constant ``nil`` and absent
attributes, one attribute under two constants, mixed-type
disjunctions, predicate- and intra-CE-only stores.  Hand mutations of ``kernel/codegen.py`` that each fail this
file or ``tests/kernel/test_sharing.py`` are named in CHANGES.md.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernel import CompiledMatcher, SharedKernel
from repro.kernel.codegen import generate_parts, generate_source, plan_alpha_index, plan_stores
from repro.kernel.runtime import KernelRuntime
from repro.ops5 import ProductionSystem, parse_program
from repro.ops5.condition import (
    ConditionElement,
    ConjunctiveTest,
    ConstantTest,
    DisjunctiveTest,
    Predicate,
    PredicateTest,
    VariableTest,
    wme_passes_alpha,
)
from repro.ops5.conflict import ConflictSet
from repro.ops5.production import Production
from repro.ops5.wme import NIL, WME
from repro.rete.nodes import AlphaMemory
from repro.workloads.generator import emit_system_program
from repro.workloads.profiles import profile_named

from .test_sharing import Driven

ATTRS = ("a", "b", "c")
NAN = float("nan")
INF = float("inf")
#: ``5``/``"5"`` differ, ``1``/``1.0`` and ``0``/``-0.0`` coincide,
#: ``nil`` is what an absent attribute reads as, NaN equals nothing.
VALUES = (5, "5", 1, 1.0, NIL, "red", 2.5, 0, -0.0, NAN, INF, -INF)
#: What a WME may carry besides: ``True``/``False`` compare and hash
#: equal to ``1``/``0`` but are not OPS5 numbers.
WME_VALUES = VALUES + (3, "blue", True, False)

constants = st.sampled_from(VALUES).map(ConstantTest)
tests = st.one_of(
    constants,
    constants,  # weight: the groups exist for these
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
        st.dictionaries(st.sampled_from(ATTRS), st.sampled_from(WME_VALUES)),
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
    _ce("k", c=ConstantTest(0), b=DisjunctiveTest(("red", 1, NAN))),
    _ce("k", c=ConstantTest(-0.0), a=PredicateTest(Predicate.SAME_TYPE, ConstantTest(2))),
    _ce("k", b=ConstantTest(INF), c=PredicateTest(Predicate.LE, ConstantTest(INF))),
    _ce("k", b=ConstantTest(NAN)),
    _ce("k", b=PredicateTest(Predicate.NE, ConstantTest(NAN))),
    _ce("k", c=PredicateTest(Predicate.NE, ConstantTest(1))),
    _ce("k", c=ConjunctiveTest((ConstantTest(1), PredicateTest(Predicate.EQ, ConstantTest(1.0))))),
]
FORCED_WMES = [
    ("k", {"a": 5, "b": "red"}),
    ("k", {"a": "5"}),
    ("k", {"a": 1.0}),
    ("k", {"a": 1, "b": NIL, "c": 1}),
    ("k", {"a": True, "c": True}),
    ("k", {"a": False, "c": False, "b": True}),
    ("k", {"c": -0.0, "b": 1.0}),
    ("k", {"c": 0, "a": 7, "b": NAN}),
    ("k", {"b": INF, "c": INF}),
    ("k", {"b": NAN, "c": -INF}),
    ("k", {}),
    ("solo", {}),
    ("solo", {"c": 2.5}),
    ("other", {"a": 5}),
]


def _runtime(ces, conflict_set) -> KernelRuntime:
    """A built runtime straight from codegen (no process-wide cache)."""
    productions = [Production(f"p{i}", [ce], []) for i, ce in enumerate(ces)]
    return SharedKernel((), generate_parts(productions)).attach(conflict_set, productions)


def check_entries_equal_interpreted_scan(ces, wme_specs) -> None:
    conflict_set = ConflictSet()
    runtime = _runtime(ces, conflict_set)
    plans, use = plan_stores(runtime.productions)
    readers = [[pair for pair, plan in use.items() if plan.index == s] for s in range(len(plans))]
    added = []
    for timetag, (cls, attrs) in enumerate(wme_specs, 1):
        wme = WME(cls, attrs)
        wme.timetag = timetag
        passes = [
            all(wme_passes_alpha(wme, runtime.productions[p].analysis[ce]) for p, ce in pairs)
            for pairs in readers
        ]
        affected = {p for pairs, ok in zip(readers, passes) if ok for p, _ce in pairs}
        before = runtime.counts[:]
        assert runtime.add_wme(wme) == len(affected), (wme, affected)
        # Where the generated entry filed it: the stores whose count rose.
        filed = [now - then for now, then in zip(runtime.counts, before)]
        assert filed == list(map(int, passes)), (wme, filed, passes)
        added.append((wme, len(affected), filed))
    # One instantiation per (single-CE production, WME its store holds).
    assert len(conflict_set) == sum(
        runtime.counts[s] * len(pairs) for s, pairs in enumerate(readers)
    )
    for wme, affected, filed in reversed(added):
        before = runtime.counts[:]
        assert runtime.remove_wme(wme) == affected, wme
        # A remove unfiles it from exactly the stores its add filed it in.
        assert [then - now for now, then in zip(runtime.counts, before)] == filed, wme
    assert runtime.state_size() == 0 and len(conflict_set) == 0
    assert runtime.counts == [0] * len(plans)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@example(ces=FORCED_RULESET, wme_specs=FORCED_WMES)
@given(ces=rulesets, wme_specs=wmes)
def test_entry_membership_equals_interpreted_scan(ces, wme_specs):
    check_entries_equal_interpreted_scan(ces, wme_specs)


@pytest.mark.fuzz
@settings(max_examples=3000, deadline=None, database=None)
@given(ces=st.lists(condition_elements, min_size=1, max_size=24), wme_specs=wmes)
def test_entry_membership_equals_interpreted_scan_long(ces, wme_specs):
    check_entries_equal_interpreted_scan(ces, wme_specs)


def test_forced_ruleset_has_two_groups_a_tail_and_a_solo_class():
    """The corner cases the property leans on are really in the table."""
    productions = [Production(f"p{i}", [ce], []) for i, ce in enumerate(FORCED_RULESET)]
    index = plan_alpha_index(plan_stores(productions)[0])
    groups, tail = index["k"]
    assert set(groups) == {("a",), ("b",), ("a", "b"), ("c",)}
    # 1 and 1.0 are one key; 5 and "5" are two; 0 and -0.0 are one.
    assert set(groups[("a",)]) == {5, "5", 1}
    assert groups[("a", "b")] == {(1.0, NIL): [5]}
    assert list(groups[("c",)].values()) == [[11, 12], [17]]
    # predicate-only, same attribute twice, disjunction, intra, class-only
    assert tail == [0, 6, 7, 8, 9, 15, 16]
    assert index["solo"] == ({("c",): {NIL: [10]}}, [])


def test_r1_soar_table_shape():
    """r1-soar: 34 / 21 / 4+1 stores behind four class entries."""
    program = emit_system_program(profile_named("r1-soar"))
    system = ProductionSystem(program.source, matcher="compiled")
    system.add("item", lane="l", kind="k0", val=10)  # first change compiles
    (runtime,) = system.matcher.runtimes
    assert set(runtime.adds) == set(runtime.removes) == {"task", "item", "mark", "ctx"}
    index = plan_alpha_index(plan_stores(runtime.productions)[0])
    shape = {
        cls: ([(attrs, sum(map(len, t.values()))) for attrs, t in groups.items()], len(tail))
        for cls, (groups, tail) in index.items()
    }
    assert shape["item"] == ([(("kind",), 34)], 0)
    assert shape["mark"] == ([(("branch", "stage"), 21)], 0)
    assert shape["task"] == ([(("stage",), 4)], 1)
    assert system.matcher.kernel_summary()["alpha_index"] == {
        "classes": 4,
        "groups": 4,
        "indexed_stores": 60,
        "linear_tail_stores": 1,
        "largest_tail": 1,
    }
    # The task entry: one group probe, then its tail store filed inline.
    source = system.matcher.generated_source
    c = list(index).index("task")
    entry = re.search(rf"    def A{c}\(w\):\n((?:        .*\n)+)", source).group(1)
    (tail,) = index["task"][1]
    assert entry.count(".get(k)") == 1 and f"sc[{tail}] += 1" in entry


def test_one_wme_through_two_groups_and_the_tail():
    """One ``k`` WME passes a store in the ``a`` group, one in the ``b``
    group and the class-only tail store, and the productions below read
    it through all three at once -- as a self-join, behind a negation
    and at the first level of a shared group -- under the Rete oracle.
    """
    source = """
      (p three   (k ^a 1 ^x <v>) (k ^b 2 ^x <v>) (k ^x <v>) --> (halt))
      (p blocked (k ^a 1 ^x <v>) - (k ^b 2 ^x <v>) (k ^x <v>) --> (halt))
      (p tail    (k ^x <v>) (k ^a 1 ^x <v>) --> (halt))
      (p tail-n  (k ^x <v>) - (k ^b 2 ^x <v>) --> (halt))
    """
    productions = parse_program(source).productions
    groups, tail = plan_alpha_index(plan_stores(productions)[0])["k"]
    assert set(groups) == {("a",), ("b",)} and len(tail) == 1
    driven = Driven(
        source,
        ("add", "k", {"a": 1, "b": 2, "x": 7}),   # all three stores
        ("add", "k", {"a": 1, "x": 7}),           # the a group and the tail
        ("add", "k", {"b": 2, "x": 7}),           # the b group and the tail
        ("remove", 0),
        ("add", "k", {"a": 1, "b": 2, "x": 7}),
        ("remove", 2),
        ("remove", 1),
    )
    assert driven.satisfied() == {"three", "tail"}
    stats = driven.matcher.stats
    # Affected: 4 productions read the tail store, every change passes it.
    assert stats.total_affected_productions == 4 * stats.total_changes
    driven.do(("remove", 3))
    assert driven.satisfied() == set()


@pytest.mark.parametrize("cls", ["k", "j"])
def test_a_remove_takes_the_guard_an_add_takes(cls):
    """A remove finds the stores holding a WME by the add's own probe,
    guard and store tests, so ``True`` -- which a dict hit equates with
    ``1`` -- is never unfiled from the ``^x 1`` and ``^x 1.0`` stores it
    never entered (``k``'s two stores share one block; ``j`` has a block
    for ``^x 1`` alone), and the ``^x 1`` store feeds a right index.
    After every step each store's count equals the interpreted Rete's
    alpha memory for the same readers, the conflict sets agree
    (``Shadowed``) and ``check_kernel`` is clean (``audit``)."""
    source = f"""
      (p one  ({cls} ^x 1) --> (halt))
      (p pair (m ^y <v>) ({cls} ^x 1 ^y <v>) --> (halt))
    """ + ("(p onef (k ^x 1.0) --> (halt))" if cls == "k" else "")
    driven = Driven(source, ("add", "m", {"y": 2}))
    (runtime,) = driven.matcher.runtimes
    if cls == "k":
        groups, _tail = plan_alpha_index(plan_stores(runtime.productions)[0])["k"]
        assert list(groups[("x",)].values()) == [[0, 2]]  # ^x 1 and ^x 1.0, one block

    def agree():
        names = lambda store: frozenset(runtime.productions[p].name for p in store.productions)
        ours = {names(store): n for store, n in zip(runtime.stores, runtime.counts)}
        theirs = {frozenset(node.production_names): len(node.items)
                  for node in driven.matcher.rete.share_registry.values()
                  if isinstance(node, AlphaMemory)}
        assert ours == theirs

    agree()
    values = [True, 1, 1.0, "1"]
    for value in values:
        driven.do(("add", cls, {"x": value, "y": 2}))
        agree()
    assert driven.satisfied() == ({"one", "pair", "onef"} if cls == "k" else {"one", "pair"})
    for k in range(1, len(values) + 1):
        driven.do(("remove", k))
        agree()
    assert runtime.counts == [0, 1, 0][: len(runtime.counts)]
    assert driven.satisfied() == set()


class TestValueTypes:
    """``True`` is not ``1``: the entry, the interpreted matchers and
    the ingestion boundary agree."""

    SRC = """
      (p one     (a ^v 1) --> (halt))
      (p zero    (a ^v 0) --> (halt))
      (p above   (a ^v > 0) --> (halt))
      (p not-one (a ^v <> 1) --> (halt))
      (p both    (a ^v { 1 = 1.0 }) --> (halt))
      (p pair    (a ^v <x>) (b ^v <x>) --> (halt))
    """

    @pytest.mark.parametrize("matcher", ["compiled", "rete", "naive"])
    def test_bool_values_pass_no_numeric_test(self, matcher):
        system = ProductionSystem(self.SRC, matcher=matcher)
        system.add("a", v=True)
        system.add("a", v=False)
        fired = lambda: sorted(i.production.name for i in system.conflict_set.members())
        assert fired() == ["not-one", "not-one"]
        system.add("a", v=1.0)
        system.add("a", v=-0.0)
        assert fired() == ["above", "both", "not-one", "not-one", "not-one", "one", "zero"]

    def test_generated_source_names_no_production(self):
        for name, program in ALL_PROGRAM_SOURCES.items():
            productions = [
                Production(f"{p.name}-zz9q", p.conditions, p.actions)
                for p in parse_program(program).productions
            ]
            assert "zz9q" not in generate_source(productions), name


def _all_program_sources() -> dict:
    from repro.workloads.programs import ALL_PROGRAMS

    sources = {name: module.PROGRAM for name, module in ALL_PROGRAMS.items()}
    for system in ("vt", "ilog", "mud", "daa", "r1-soar", "ep-soar"):
        sources[system] = emit_system_program(profile_named(system)).source
    return sources


ALL_PROGRAM_SOURCES = _all_program_sources()


def test_compiled_matcher_entries_are_the_only_alpha_path():
    """The runtime has no candidate walk, predicate or subscriber list
    left to bypass the entries with."""
    matcher = CompiledMatcher()
    for production in parse_program(TestValueTypes.SRC).productions:
        matcher.add_production(production)
    matcher._rebuild()
    (runtime,) = matcher.runtimes
    for gone in ("candidates", "by_class", "index_stores", "subscribe", "subscriptions"):
        assert not hasattr(runtime, gone)
    for gone in ("predicate", "insert", "remove", "add_subs", "del_subs", "production_names"):
        assert not hasattr(runtime.stores[0], gone)
