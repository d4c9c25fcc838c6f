"""The kept ranking fires what a full ranking fires, and ranks less.

Differential: every engine here selects through the conflict set's
kept ranking; the reference engine's strategy re-sorts the whole
conflict set with ``Strategy.order()`` each cycle and takes the first
un-fired element.  Complexity guard: ``_order_key`` is called once per
member that arrives while the set is ranked, plus once per member at
the first ``select``, and never by a later ``select`` -- exact counts,
no timing.
"""

import dataclasses

import pytest

from repro.ops5 import LexStrategy, MeaStrategy, ProductionSystem, matcher_named
from repro.ops5.conflict import Strategy, strategy_named
from repro.workloads.generator import emit_system_program
from repro.workloads.profiles import PAPER_SYSTEMS, profile_named

#: The ``resolve_wide`` shape: 100 lanes in working memory before the
#: first cycle, so the conflict set opens 700 wide.  Tasks are asserted
#: first and items in reverse lane order, so the newest item (LEX's
#: leading timetag) and the newest task (MEA's) belong to opposite ends
#: of the burst.
BURST = emit_system_program(profile_named("r1-soar"), lanes=100)
BURST = dataclasses.replace(
    BURST,
    setup=tuple(
        [spec for spec in BURST.setup if spec[0] != "item"]
        + [spec for spec in reversed(BURST.setup) if spec[0] == "item"]
    ),
)
PROGRAMS = [BURST] + [emit_system_program(profile) for profile in PAPER_SYSTEMS]
MATCHERS = {
    "compiled": {},
    "rete": {},
    "treat": {},
    "parallel": {"workers": 2},
}


class SelectsViaOrder(Strategy):
    """The reference: first un-fired element of the full dominance order."""

    def __init__(self, inner: Strategy) -> None:
        self.inner = inner
        self.name = inner.name

    def select(self, conflict_set, already_fired):
        for instantiation in self.inner.order(conflict_set):
            if not already_fired(instantiation.key):
                return instantiation
        return None


def _firings(program, matcher, strategy):
    system = ProductionSystem(program.source, matcher=matcher, strategy=strategy)
    system.load_memory(program.setup)
    result = system.run(program.max_cycles)
    assert result.halt_reason == "halt action"
    assert result.fired == program.expected_firings()
    return [(cycle.production, cycle.timetags) for cycle in result.cycles]


@pytest.fixture(scope="module")
def reference():
    return {
        (program.lanes, program.name, name): _firings(
            program, "compiled", SelectsViaOrder(strategy_named(name))
        )
        for program in PROGRAMS
        for name in ("lex", "mea")
    }


@pytest.mark.parametrize("strategy", ["lex", "mea"])
@pytest.mark.parametrize("matcher", MATCHERS)
def test_fires_bit_identically_to_a_full_ranking(reference, matcher, strategy):
    for program in PROGRAMS:
        fired = _firings(
            program, matcher_named(matcher, **MATCHERS[matcher]), strategy
        )
        assert fired == reference[program.lanes, program.name, strategy], program.name


def test_lex_and_mea_disagree_on_the_burst(reference):
    # Otherwise the MEA half of the differential proves nothing new.
    assert (
        reference[BURST.lanes, BURST.name, "lex"]
        != reference[BURST.lanes, BURST.name, "mea"]
    )


class _Counting:
    """Mixin: count ``_order_key`` calls, per ``select`` and in all."""

    def __init__(self) -> None:
        self.key_calls = 0
        self.selects = 0
        self.members_seen = 0
        #: (|CS|, total inserts) when the first select ranked the set.
        self.ranked_at = None

    def _order_key(self, instantiation):
        self.key_calls += 1
        return super()._order_key(instantiation)

    def select(self, conflict_set, already_fired):
        expected = 0
        if self.ranked_at is None:
            self.ranked_at = (len(conflict_set), conflict_set.total_inserts)
            expected = len(conflict_set)
        before = self.key_calls
        selected = super().select(conflict_set, already_fired)
        assert self.key_calls - before == expected
        self.selects += 1
        self.members_seen += len(conflict_set)
        return selected


class CountingLex(_Counting, LexStrategy):
    pass


class CountingMea(_Counting, MeaStrategy):
    pass


@pytest.mark.parametrize("strategy_class", [CountingLex, CountingMea])
def test_order_keys_built_once_per_member(strategy_class):
    strategy = strategy_class()
    system = ProductionSystem(BURST.source, matcher="compiled", strategy=strategy)
    system.load_memory(BURST.setup)
    assert system.run(BURST.max_cycles).fired == BURST.expected_firings()
    # Per select the count is asserted exactly (above): |CS| at the
    # first, none after.  Over the run: one key per member, ever.
    conflict_set = system.conflict_set
    size, inserts = strategy.ranked_at
    assert size > 300  # the burst opens wide
    assert strategy.key_calls == size + conflict_set.total_inserts - inserts
    assert strategy.members_seen / strategy.selects > 300
    assert conflict_set.selects == strategy.selects
    # Every firing here retracts its own instantiation, so the top of
    # the ranking is never a fired member: each select walks one.
    assert conflict_set.members_examined == conflict_set.selects
