"""Codegen planning and alpha semantics of the compiled kernel."""

import pytest

from repro.kernel import shared_kernel
from repro.kernel.codegen import alpha_items, generate_parts, generate_source, plan_stores
from repro.ops5 import MATCHER_NAMES, ProductionSystem, parse_program
from repro.ops5.condition import wme_passes_alpha
from repro.ops5.conflict import ConflictSet
from repro.ops5.wme import WME, WorkingMemory


class _Rules(list):
    """Parsed rules and, as long as the list lives, the layouts an engine
    fixed for them (the generated text reads their slots)."""


def _productions(source):
    program = parse_program(source)
    rules = _Rules(program.productions)
    rules.layouts = ProductionSystem(program).layouts
    return rules


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


class TestGeneratedSource:
    def test_join_keys_read_both_sides_wmes(self):
        """The level-1 key reads ``^want`` from the token's CE-0 WME and
        the right activation ``^color`` from the entering WME: a store is
        its count alone, with no copy of either value."""
        productions = _productions("(p find (goal ^want <c>) (block ^color <c>) --> (halt))")
        source = generate_source(productions)
        # Each a slot of its class's record.
        goal, block = productions.layouts["goal"], productions.layouts["block"]
        assert f"        key = tok[0]._{goal.index['want']}\n" in source
        assert f"        key = w._{block.index['color']}\n" in source
        assert "    m0 = rt.store('goal', 0x1)\n    m1 = rt.store('block', 0x1)\n" in source

    def test_source_is_deterministic(self):
        productions = _productions(
            """
            (p find (goal ^want <c>) (block ^color <c> ^size > 1) --> (halt))
            (p quiet (goal ^want <c>) - (block ^color <c>) --> (halt))
            """
        )
        assert generate_source(productions) == generate_source(productions)

    def test_source_is_a_chain_of_part_functions(self):
        productions = _productions("(p one (goal ^want red) --> (halt))")
        parts = generate_parts(productions)
        source = generate_source(productions)
        assert source == "".join(text for text, _imports, _exports in parts)
        assert source.splitlines()[1] == "def part0(rt):"
        for k, (text, _imports, _exports) in enumerate(parts):
            assert f"def part{k}(" in text
            compile(text, "<test>", "exec")  # each part is valid Python alone


class TestRemoval:
    def test_a_row_drops_right_after_its_own_delete_subscribers(self):
        """A remove mirrors an add, one pass over the stores: ``solo``'s
        store (a keyed block) retracts while both stores count the WME,
        then uncounts it before the tail store retracts ``pair``."""
        productions = _productions(
            """
            (p pair (a ^v <x>) (b ^v <x>) --> (halt))
            (p solo (b ^v 1) --> (halt))
            """
        )
        _plans, use = plan_stores(productions)
        holders = []

        class Watched(ConflictSet):
            def delete_key(self, key):
                holders.append((key[0], {s for s, n in enumerate(runtime.counts) if n}))
                super().delete_key(key)

        runtime = shared_kernel(productions).attach(Watched(), productions)
        memory = WorkingMemory()
        runtime.add_wme(memory.add(WME("a", {"v": 1})))
        b = memory.add(WME("b", {"v": 1}))
        assert runtime.add_wme(b) == 2
        assert runtime.remove_wme(b) == 2
        a, solo, pair = use[(0, 0)].index, use[(1, 0)].index, use[(0, 1)].index
        assert holders == [("solo", {a, solo, pair}), ("pair", {a, pair})]
        assert runtime.state_size() == 1


class TestAlphaSemantics:
    """The generated class entries file a WME exactly where
    ``wme_passes_alpha`` says."""

    SRC = """
      (p p1 (item ^color red ^size > 2) --> (halt))
      (p p2 (item ^color << red blue >> ^size <> 3) --> (halt))
      (p p3 (item ^left <x> ^right <x>) --> (halt))
      (p p4 (item ^size < 10) --> (halt))
      (p p5 (item ^size 3 ^color <=> red) --> (halt))
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
        {"left": 1, "right": True},
        {"size": "big"},  # ordering against a symbol is always False
        {"size": 9.5},
        {"size": True, "color": "red"},
        {"size": 3.0, "color": 7},
        {},
    ]

    def test_predicates_match_interpreted_alpha(self):
        from repro.kernel.matcher import CompiledMatcher

        productions = _productions(self.SRC)
        matcher = CompiledMatcher()
        for production in productions:
            matcher.add_production(production)
        matcher._rebuild()
        (runtime,) = matcher.runtimes
        _, use = plan_stores(productions)
        for timetag, attrs in enumerate(self.CANDIDATES, 1):
            wme = WME("item", attrs)
            wme.timetag = timetag
            before = runtime.counts[:]
            runtime.add_wme(wme)
            for p_idx, production in enumerate(productions):
                # Stores are built in plan-index order, so the plan's index
                # addresses the runtime's counts directly.
                s = use[(p_idx, 0)].index
                expected = wme_passes_alpha(wme, production.analysis[0])
                assert runtime.counts[s] - before[s] == expected, (production.name, attrs)
            runtime.remove_wme(wme)
            assert runtime.state_size() == 0

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
