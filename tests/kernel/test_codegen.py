"""Codegen planning and alpha semantics of the compiled kernel."""

import pytest

from repro.kernel.codegen import alpha_items, generate_source, plan_stores
from repro.ops5 import MATCHER_NAMES, ProductionSystem, parse_program
from repro.ops5.condition import wme_passes_alpha
from repro.ops5.wme import WME


def _productions(source):
    return parse_program(source).productions


class TestStorePlanning:
    def test_identical_alpha_shapes_share_one_store(self):
        productions = _productions(
            """
            (p a (goal ^want red) (block ^size 2) --> (halt))
            (p b (goal ^want red) --> (halt))
            """
        )
        plans, use = plan_stores(productions)
        # goal^want=red is one shared store; block^size=2 its own.
        assert len(plans) == 2
        assert use[(0, 0)] is use[(1, 0)]

    def test_different_alpha_tests_get_distinct_stores(self):
        productions = _productions(
            """
            (p a (block ^color red) --> (halt))
            (p b (block ^color blue) --> (halt))
            """
        )
        plans, use = plan_stores(productions)
        assert len(plans) == 2
        assert use[(0, 0)] is not use[(1, 0)]

    def test_join_columns_registered_on_both_sides(self):
        productions = _productions(
            "(p find (goal ^want <c>) (block ^color <c>) --> (halt))"
        )
        plans, use = plan_stores(productions)
        assert "want" in use[(0, 0)].columns
        assert "color" in use[(0, 1)].columns


class TestGeneratedSource:
    def test_source_is_deterministic(self):
        productions = _productions(
            """
            (p find (goal ^want <c>) (block ^color <c> ^size > 1) --> (halt))
            (p quiet (goal ^want <c>) - (block ^color <c>) --> (halt))
            """
        )
        assert generate_source(productions) == generate_source(productions)

    def test_source_is_a_single_build_function(self):
        productions = _productions("(p one (goal ^want red) --> (halt))")
        source = generate_source(productions)
        assert "def build(rt):" in source.splitlines()[1]
        compile(source, "<test>", "exec")  # must be valid Python


class TestAlphaSemantics:
    """Fused store predicates must agree with ``wme_passes_alpha``."""

    SRC = """
      (p p1 (item ^color red ^size > 2) --> (halt))
      (p p2 (item ^color << red blue >> ^size <> 3) --> (halt))
      (p p3 (item ^left <x> ^right <x>) --> (halt))
      (p p4 (item ^size < 10) --> (halt))
    """

    CANDIDATES = [
        {"color": "red", "size": 3},
        {"color": "red", "size": 2},
        {"color": "blue", "size": 3},
        {"color": "blue", "size": 4.0},
        {"color": "green", "size": 1},
        {"left": "a", "right": "a"},
        {"left": "a", "right": "b"},
        {"left": 1, "right": 1.0},
        {"size": "big"},  # ordering against a symbol is always False
        {"size": 9.5},
        {},
    ]

    def test_predicates_match_interpreted_alpha(self):
        from repro.kernel.matcher import CompiledMatcher

        productions = _productions(self.SRC)
        matcher = CompiledMatcher()
        for production in productions:
            matcher.add_production(production)
        matcher._rebuild()
        _, use = plan_stores(productions)
        for p_idx, production in enumerate(productions):
            analysis = production.analysis[0]
            # Stores are built in plan-index order, so the plan's index
            # addresses the runtime's store list directly.
            store = matcher.runtime.stores[use[(p_idx, 0)].index]
            for attrs in self.CANDIDATES:
                wme = WME("item", attrs)
                wme.timetag = 1
                expected = wme_passes_alpha(wme, analysis)
                got = store.predicate is None or store.predicate(wme)
                assert got == expected, (production.name, attrs)

    def test_alpha_items_canonical_across_attribute_order(self):
        a = _productions("(p x (item ^color red ^size 2) --> (halt))")
        b = _productions("(p x (item ^size 2 ^color red) --> (halt))")
        assert alpha_items(a[0].analysis[0]) == alpha_items(b[0].analysis[0])


# A 400-digit numeral overflows to ``inf``, which has no Python literal:
# both generators emit it through ``ops5.rhs.literal``.
_HUGE = "9" * 400 + ".0"
NON_FINITE_PROGRAMS = {
    "constant test, dispatch key and RHS constant": f"""
        (p eq (a ^v {_HUGE}) --> (make b ^v {_HUGE}))
        (p pair (a ^v {_HUGE} ^w -{_HUGE}) --> (make c ^w -{_HUGE}))
        (p either (a ^v << {_HUGE} 7 >>) --> (make d ^v (compute {_HUGE} - 1)))
    """,
    "predicate operand": f"""
        (p above (a ^v > -{_HUGE}) --> (make b ^v -{_HUGE}))
        (p below (a ^v <> {_HUGE}) --> (write below {_HUGE}))
    """,
}


@pytest.mark.parametrize("matcher", MATCHER_NAMES)
@pytest.mark.parametrize("label", sorted(NON_FINITE_PROGRAMS))
def test_a_numeral_that_overflows_to_inf_runs_on_every_matcher(label, matcher):
    def run(name):
        system = ProductionSystem(NON_FINITE_PROGRAMS[label], matcher=name)
        system.add("a", v=float("inf"), w=float("-inf"))
        system.add("a", v=3)
        system.add("a", v=7, w=float("-inf"))
        result = system.run(max_cycles=50)
        assert result.fired >= 4
        return (
            [(c.production, c.timetags, c.adds) for c in result.cycles],
            [(w.timetag, w.cls, dict(w.attributes)) for w in system.memory.snapshot()],
            result.output,
        )

    assert run(matcher) == run("rete")
