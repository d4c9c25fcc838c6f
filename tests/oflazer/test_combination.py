"""The all-combinations (Oflazer) matcher."""


from repro.oflazer import CombinationMatcher
from repro.ops5 import parse_production, parse_program
from repro.ops5.wme import WME


class _Session:
    def __init__(self, source: str):
        self.matcher = CombinationMatcher()
        self.matcher.stats.keep_rows()
        for production in parse_program(source).productions:
            self.matcher.add_production(production)
        self.memory = self.matcher.memory

    def add(self, cls, **attrs):
        wme = self.memory.add(WME(cls, attrs))
        self.matcher.add_wme(wme)
        return wme

    def remove(self, wme):
        self.memory.remove(wme)
        self.matcher.remove_wme(wme)

    @property
    def keys(self):
        return self.matcher.conflict_set.snapshot()


class TestBasics:
    def test_join(self):
        s = _Session("(p find (goal ^want <c>) (block ^color <c>) --> (halt))")
        goal = s.add("goal", want="red")
        block = s.add("block", color="red")
        assert s.keys == {("find", (goal.timetag, block.timetag))}
        s.remove(block)
        assert s.keys == set()

    def test_stores_all_combinations(self):
        s = _Session("(p three (a ^v <x>) (b) (c ^v <x>) --> (halt))")
        s.add("a", v=1)
        s.add("b")
        s.add("c", v=1)
        state = s.matcher._states["three"]
        # Subsets present: {0},{1},{2},{0,1},{0,2},{1,2},{0,1,2}.
        populated = {frozenset(k) for k, v in state.store.items() if v}
        assert populated == {
            frozenset(s) for s in [{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}]
        }

    def test_rete_skips_combinations_this_stores(self):
        """The {0,2} pair (a,c skipping b) is exactly what Rete never
        stores -- the schemes' defining difference."""
        s = _Session("(p three (a ^v <x>) (b) (c ^v <x>) --> (halt))")
        s.add("a", v=1)
        s.add("c", v=1)
        state = s.matcher._states["three"]
        assert len(state.store.get(frozenset({0, 2}), {})) == 1
        assert s.keys == set()  # no b yet

    def test_predicate_deferred_until_binder_present(self):
        s = _Session("(p ord (a ^v <x>) (b ^w > <x>) --> (halt))")
        b = s.add("b", w=5)  # predicate operand <x> unbound: stored leniently
        state = s.matcher._states["ord"]
        assert len(state.store[frozenset({1})]) == 1
        s.add("a", v=3)
        assert len(s.keys) == 1  # 5 > 3 holds
        s.add("a", v=9)
        assert len(s.keys) == 1  # 5 > 9 fails: combination rejected

    def test_same_wme_at_two_positions(self):
        s = _Session("(p twin (n ^v <x>) (n ^w <y>) --> (halt))")
        w = s.add("n", v=1, w=2)
        assert s.keys == {("twin", (w.timetag, w.timetag))}

    def test_deletion_drops_all_containing_partials(self):
        s = _Session("(p pair (a ^v <x>) (b ^v <x>) --> (halt))")
        a = s.add("a", v=1)
        s.add("b", v=1)
        s.remove(a)
        state = s.matcher._states["pair"]
        assert all(
            not partial.contains_wme(a.timetag)
            for partials in state.store.values()
            for partial in partials.values()
        )
        assert s.keys == set()


class TestNegation:
    SRC = "(p quiet (goal ^want <c>) - (block ^color <c>) --> (halt))"

    def test_block_and_unblock(self):
        s = _Session(self.SRC)
        s.add("goal", want="red")
        assert len(s.keys) == 1
        blocker = s.add("block", color="red")
        assert s.keys == set()
        s.remove(blocker)
        assert len(s.keys) == 1

    def test_blocked_fulls_stay_stored(self):
        s = _Session(self.SRC)
        s.add("goal", want="red")
        s.add("block", color="red")
        state = s.matcher._states["quiet"]
        assert len(state.store[frozenset({0})]) == 1  # stored though blocked

    def test_scoped_negation_names(self):
        s = _Session("(p scoped (goal) - (taken ^v <w>) (free ^v <w>) --> (halt))")
        s.add("goal")
        s.add("free", v=7)
        assert len(s.keys) == 1
        s.add("taken", v=99)
        assert s.keys == set()


class TestProductionManagement:
    def test_late_addition_matches_memory(self):
        matcher = CombinationMatcher()
        memory = matcher.memory
        for cls, attrs in [("a", {"v": 1}), ("b", {"v": 1})]:
            wme = memory.add(WME(cls, attrs))
            matcher.add_wme(wme)
        matcher.add_production(
            parse_production("(p late (a ^v <x>) (b ^v <x>) --> (halt))")
        )
        assert len(matcher.conflict_set) == 1

    def test_removal_retracts(self):
        s = _Session("(p gone (a) --> (halt))")
        s.add("a")
        s.matcher.remove_production("gone")
        assert s.keys == set()
        assert list(s.matcher.productions) == []


class TestStateVolume:
    def test_exceeds_rete_on_wide_lhs(self):
        """The Section 3.2 blow-up, measured on live matchers."""
        from repro.rete import ReteNetwork

        source = "(p wide (a) (b) (c) --> (halt))"
        combo, rete = _Session(source), None
        net = ReteNetwork()
        net.add_production(parse_production(source))
        memory = net.memory = combo.memory
        for cls in ("a", "b", "c"):
            for _ in range(3):
                wme = memory.add(WME(cls, {}))
                combo.matcher.add_wme(wme)
                net.add_wme(wme)
        combo_state = combo.matcher.state_size()
        rete_state = net.state_size()
        combo_total = combo_state["alpha_wmes"] + combo_state["beta_tokens"]
        rete_total = rete_state["alpha_wmes"] + rete_state["beta_tokens"]
        # Rete: 9 alpha + (3 + 9 + 27) beta = 48; combinations add the
        # {a,c} and {b,c} cross products Rete skips.
        assert combo_total > rete_total

    def test_stats_track_effort(self):
        s = _Session("(p pair (a ^v <x>) (b ^v <x>) --> (halt))")
        s.add("a", v=1)
        assert s.matcher.stats.changes[-1].affected_productions == 1
        assert s.matcher.stats.total_tokens_built >= 1


class TestExponentialGrowth:
    def test_state_grows_with_lhs_width(self):
        """The paper's concern (1): the all-combinations state explodes
        with LHS width, where Rete's prefix state grows linearly in the
        number of memories."""
        from repro.rete import ReteNetwork
        from repro.ops5 import parse_production
        from repro.ops5.wme import WME

        def state_total(width, per_class=3):
            classes = " ".join(f"(c{i})" for i in range(width))
            source = f"(p wide {classes} --> (halt))"
            combo = CombinationMatcher()
            combo.add_production(parse_production(source))
            memory = combo.memory
            for i in range(width):
                for _ in range(per_class):
                    wme = memory.add(WME(f"c{i}", {}))
                    combo.add_wme(wme)
            sizes = combo.state_size()
            return sizes["alpha_wmes"] + sizes["beta_tokens"]

        # (1+3)^w - 1 - ... : each CE contributes (3 choose assignments
        # + absent) options; totals for widths 2, 3, 4 with 3 WMEs each:
        assert state_total(2) == 3 + 3 + 9          # singles + pairs
        assert state_total(3) == 9 + 27 + 27        # +triples
        assert state_total(4) == 12 + 54 + 108 + 81

    def test_mid_run_production_removal_keeps_lockstep(self):
        from repro.naive import NaiveMatcher
        from repro.ops5 import parse_production
        from repro.ops5.wme import WME

        combo, naive = CombinationMatcher(), NaiveMatcher()
        for matcher in (combo, naive):
            matcher.add_production(parse_production("(p a (x ^v <k>) (y ^v <k>) --> (halt))"))
            matcher.add_production(parse_production("(p b (x) --> (halt))"))
        memory = naive.memory = combo.memory
        for cls, attrs in [("x", {"v": 1}), ("y", {"v": 1}), ("x", {"v": 2})]:
            wme = memory.add(WME(cls, attrs))
            combo.add_wme(wme)
            naive.add_wme(wme)
        combo.remove_production("a")
        naive.remove_production("a")
        assert combo.conflict_set.snapshot() == naive.conflict_set.snapshot()
        wme = memory.add(WME("y", {"v": 2}))
        combo.add_wme(wme)
        naive.add_wme(wme)
        assert combo.conflict_set.snapshot() == naive.conflict_set.snapshot()
