"""The conflict set and the LEX/MEA strategies."""

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.ops5 import (
    ConflictSet,
    LexStrategy,
    MeaStrategy,
    Ops5Error,
    Production,
    Strategy,
    strategy_named,
)
from repro.ops5.condition import ConditionElement, ConstantTest, VariableTest
from repro.ops5.production import Instantiation
from repro.ops5.wme import make_wme


def _production(name: str, ces: int = 1, extra_tests: int = 0) -> Production:
    conditions = []
    for i in range(ces):
        tests = {"v": VariableTest(f"x{i}")}
        for j in range(extra_tests):
            tests[f"t{j}"] = ConstantTest("nil")
        conditions.append(ConditionElement("c", tests))
    return Production(name, conditions, ())


def _wme(timetag: int):
    wme = make_wme("c", v=1)
    wme.timetag = timetag
    return wme


def _inst(production: Production, *timetags: int) -> Instantiation:
    return Instantiation(production, tuple(_wme(t) for t in timetags))


class TestConflictSet:
    def test_insert_and_delete(self):
        cs = ConflictSet()
        inst = _inst(_production("p"), 1)
        cs.insert(inst)
        assert inst in cs and len(cs) == 1
        cs.delete(inst)
        assert len(cs) == 0
        assert (cs.total_inserts, cs.total_deletes) == (1, 1)

    def test_double_insert_rejected(self):
        cs = ConflictSet()
        production = _production("p")
        cs.insert(_inst(production, 1))
        with pytest.raises(Ops5Error):
            cs.insert(_inst(production, 1))

    def test_delete_absent_rejected(self):
        cs = ConflictSet()
        with pytest.raises(Ops5Error):
            cs.delete(_inst(_production("p"), 1))

    def test_snapshot_is_frozen_keys(self):
        cs = ConflictSet()
        inst = _inst(_production("p"), 3)
        cs.insert(inst)
        snap = cs.snapshot()
        assert snap == frozenset({("p", (3,))})

    def test_snapshot_keys_drive_delete_key_round_trip(self):
        # The generated kernels retract by bare key; a snapshot taken
        # before must replay back to empty.
        cs = ConflictSet()
        production = _production("p", ces=2)
        for tags in ((1, 2), (1, 3), (4, 2)):
            cs.insert(_inst(production, *tags))
        keys = cs.snapshot()
        assert len(keys) == 3
        for key in keys:
            assert cs.get(key) is not None
            cs.delete_key(key)
        assert len(cs) == 0
        assert cs.total_deletes == 3
        assert cs.snapshot() == frozenset()

    def test_snapshot_is_immutable_to_later_edits(self):
        cs = ConflictSet()
        inst = _inst(_production("p"), 1)
        cs.insert(inst)
        before = cs.snapshot()
        cs.delete_key(inst.key)
        assert before == frozenset({inst.key})  # unchanged by the delete

    def test_delete_key_absent_raises_with_key(self):
        cs = ConflictSet()
        with pytest.raises(Ops5Error, match="absent key"):
            cs.delete_key(("ghost", (1,)))

    def test_reinsert_after_delete_key_is_legal(self):
        cs = ConflictSet()
        production = _production("p")
        inst = _inst(production, 7)
        cs.insert(inst)
        cs.delete_key(inst.key)
        cs.insert(_inst(production, 7))  # same identity, fresh entry
        assert len(cs) == 1
        assert (cs.total_inserts, cs.total_deletes) == (2, 1)


class TestLexOrdering:
    def test_recency_dominates(self):
        production = _production("p", ces=2)
        older = _inst(production, 1, 2)
        newer = _inst(production, 1, 3)
        chosen = LexStrategy().select([older, newer], lambda key: False)
        assert chosen == newer

    def test_recency_compares_sorted_descending(self):
        production = _production("p", ces=2)
        a = _inst(production, 5, 1)  # recency (5, 1)
        b = _inst(production, 4, 3)  # recency (4, 3)
        assert LexStrategy().select([a, b], lambda key: False) == a

    def test_longer_wins_on_prefix_tie(self):
        short = _inst(_production("p2", ces=1), 5)
        long = _inst(_production("p3", ces=2), 5, 3)
        assert LexStrategy().select([short, long], lambda key: False) == long

    def test_specificity_breaks_recency_ties(self):
        plain = _production("plain")
        specific = _production("specific", extra_tests=2)
        a = _inst(plain, 7)
        b = _inst(specific, 7)
        assert LexStrategy().select([a, b], lambda key: False) == b

    def test_refraction_excludes_fired(self):
        production = _production("p")
        inst = _inst(production, 9)
        fired = {inst.key}
        assert LexStrategy().select([inst], fired.__contains__) is None

    def test_order_lists_best_first(self):
        production = _production("p", ces=1)
        instantiations = [_inst(production, t) for t in (2, 5, 3)]
        ordered = LexStrategy().order(instantiations)
        assert [i.timetags[0] for i in ordered] == [5, 3, 2]


class TestMeaOrdering:
    def test_first_ce_recency_first(self):
        production = _production("p", ces=2)
        # LEX would pick a (recency (9, 1) > (5, 4)); MEA looks at the
        # first CE's timetag: 4 < 5, so b wins under MEA.
        a = _inst(production, 1, 9)
        b = _inst(production, 5, 4)
        assert LexStrategy().select([a, b], lambda key: False) == a
        assert MeaStrategy().select([a, b], lambda key: False) == b

    def test_falls_back_to_lex(self):
        production = _production("p", ces=2)
        a = _inst(production, 5, 2)
        b = _inst(production, 5, 3)
        assert MeaStrategy().select([a, b], lambda key: False) == b


class TestMeaFirstCeIsAlwaysPositive:
    """MEA's focus element: ``timetags[0]`` is sound because a leading
    negated CE is rejected at parse time (for every strategy), and
    negated CEs elsewhere bind no WME so they never shift position 0."""

    def test_leading_negated_ce_rejected_at_parse_time(self):
        from repro.ops5 import ValidationError, parse_program

        with pytest.raises(ValidationError, match="first condition element"):
            parse_program("(p bad -(goal ^done yes) (a) --> (halt))")

    def test_mid_lhs_negation_does_not_shift_the_focus(self):
        from repro.ops5 import ProductionSystem

        program = """
        (p focus (goal ^id <g>) -(blocked ^id <g>) (item ^id <g>)
           --> (write picked <g>) (remove 1))
        """
        system = ProductionSystem(program, strategy="mea")
        # goal 2 is older than goal 1 by first-CE recency.
        system.add("goal", id="b")
        system.add("item", id="b")
        system.add("goal", id="a")
        system.add("item", id="a")
        system.run(1)
        # MEA keys on the goal (first CE) timetag: the newest goal wins,
        # with the negated CE contributing nothing to the key.
        assert system.output == ["picked a"]



class TestStrategyLookup:
    def test_names(self):
        assert isinstance(strategy_named("lex"), LexStrategy)
        assert isinstance(strategy_named("MEA"), MeaStrategy)

    def test_unknown(self):
        with pytest.raises(Ops5Error):
            strategy_named("random")


class _BySpecificityOnly(Strategy):
    """Overrides ``_order_key`` alone: many ties, and one bucket."""

    name = "by-specificity"

    def _order_key(self, instantiation):
        return (instantiation.production.specificity,)


class TestOrderKeyContract:
    def test_overriding_only_the_order_key_selects_by_it(self):
        class Oldest(LexStrategy):
            def _order_key(self, instantiation):
                return tuple(-t for t in instantiation.recency_key)

        production = _production("p")
        cs = ConflictSet()
        for tag in (3, 1, 2):
            cs.insert(_inst(production, tag))
        oldest = Oldest()
        # LEX would pick timetag 3; the override alone decides.
        assert oldest.select(cs, lambda key: False).timetags == (1,)
        cs.insert(_inst(production, 0))
        assert oldest.select(cs, lambda key: False).timetags == (0,)
        assert oldest.select(cs, {("p", (0,))}.__contains__).timetags == (1,)
        assert [m.timetags for m in oldest.order(cs)] == [(0,), (1,), (2,), (3,)]

    def test_equal_keys_go_to_the_member_that_arrived_first(self):
        cs = ConflictSet()
        plain, specific = _production("plain"), _production("specific", extra_tests=2)
        by_specificity = _BySpecificityOnly()
        first = _inst(plain, 5)
        cs.insert(first)
        assert by_specificity.select(cs, lambda key: False) is first  # ranked now
        cs.insert(_inst(plain, 9))
        cs.insert(_inst(plain, 7))
        assert by_specificity.select(cs, lambda key: False) is first
        top = _inst(specific, 1)
        cs.insert(top)
        assert by_specificity.select(cs, lambda key: False) is top
        assert by_specificity.order(cs)[:2] == [top, first]


_MODEL_PRODUCTIONS = (
    _production("a1"),
    _production("a1s", extra_tests=2),
    _production("b2", ces=2),
    _production("b2s", ces=2, extra_tests=1),
    _production("c3", ces=3),
)
_MODEL_STRATEGIES = (LexStrategy(), MeaStrategy(), _BySpecificityOnly())


class ConflictSetModel(RuleBasedStateMachine):
    """The kept ranking against the obvious model: a dict plus ``order()``.

    After every rule, ``select`` on the set must be the first un-fired
    member of ``Strategy.order()`` over the model, and it must have
    walked exactly the members ranked above that one.  Timetags come
    from a range of six, so prefix-recency ties, equal first timetags
    with different specificity and emptied-then-refilled sets all happen
    within a few steps; ``_BySpecificityOnly`` ties on purpose, so the
    arrival order of equal keys is checked too.
    """

    def __init__(self):
        super().__init__()
        self.cs = ConflictSet()
        self.model: dict[tuple, Instantiation] = {}
        self.fired: set[tuple] = set()
        self.strategy = _MODEL_STRATEGIES[0]

    def _draw_member(self, data):
        return self.model[data.draw(st.sampled_from(sorted(self.model)))]

    @rule(
        production=st.sampled_from(_MODEL_PRODUCTIONS),
        tags=st.lists(st.integers(1, 6), min_size=3, max_size=3),
    )
    def insert(self, production, tags):
        inst = _inst(production, *tags[: len(production.conditions)])
        if inst.key in self.model:
            with pytest.raises(Ops5Error, match="duplicate"):
                self.cs.insert(inst)
        else:
            self.cs.insert(inst)
            self.model[inst.key] = inst

    @precondition(lambda self: self.model)
    @rule(data=st.data(), by_key=st.booleans())
    def delete(self, data, by_key):
        inst = self._draw_member(data)
        if by_key:
            self.cs.delete_key(inst.key)
        else:
            self.cs.delete(inst)
        del self.model[inst.key]
        with pytest.raises(Ops5Error, match="absent"):
            self.cs.delete_key(inst.key)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def reinsert_same_key(self, data):
        old = self._draw_member(data)
        self.cs.delete_key(old.key)
        fresh = _inst(old.production, *old.timetags)
        self.cs.insert(fresh)
        del self.model[old.key]
        self.model[fresh.key] = fresh

    @rule()
    def clear(self):
        self.cs.clear()
        self.model.clear()

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def mark_fired(self, data):
        self.fired.add(self._draw_member(data).key)

    @rule()
    def fire(self):
        # The engine's own refraction: what select picks is marked fired.
        selected = self.strategy.select(self.cs, self.fired.__contains__)
        if selected is not None:
            self.fired.add(selected.key)

    @precondition(lambda self: self.fired)
    @rule(data=st.data())
    def unmark_fired(self, data):
        # Refraction is not assumed monotone: a key may un-fire.
        self.fired.discard(data.draw(st.sampled_from(sorted(self.fired))))

    @rule(strategy=st.sampled_from(_MODEL_STRATEGIES))
    def switch_strategy(self, strategy):
        self.strategy = strategy

    @invariant()
    def select_is_the_first_unfired_of_order(self):
        members = list(self.model.values())
        ordered = self.strategy.order(members)
        unfired = [n for n, i in enumerate(ordered) if i.key not in self.fired]
        expected = ordered[unfired[0]] if unfired else None
        examined = self.cs.members_examined
        assert self.strategy.select(self.cs, self.fired.__contains__) is expected
        assert self.cs.members_examined - examined == (
            unfired[0] + 1 if unfired else len(members)
        )
        assert self.strategy.select(members, self.fired.__contains__) is expected

    @invariant()
    def contents_include_fired_members_in_insertion_order(self):
        assert list(self.cs) == self.cs.members() == list(self.model.values())
        assert self.cs.snapshot() == frozenset(self.model)
        assert len(self.cs) == self.cs.total_inserts - self.cs.total_deletes


TestConflictSetModel = ConflictSetModel.TestCase
TestConflictSetModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None, derandomize=True, database=None
)


@pytest.mark.fuzz
class TestConflictSetModelLong(ConflictSetModel.TestCase):
    settings = settings(max_examples=1000, stateful_step_count=80, deadline=None, database=None)
