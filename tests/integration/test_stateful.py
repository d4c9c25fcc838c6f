"""Model-based stateful testing: all four matchers stay in lock-step.

A hypothesis ``RuleBasedStateMachine`` drives the same random operation
sequence -- WME adds/removes and production adds/removes -- against all
four matchers simultaneously, comparing conflict sets after every
operation and auditing Rete's internal memories with the deep checker.
This covers interleavings (e.g. removing a production, then its WMEs,
then re-adding it) that the scripted differential tests do not.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
import hypothesis.strategies as st

from repro.naive import NaiveMatcher
from repro.oflazer import CombinationMatcher
from repro.ops5.wme import WME, WorkingMemory
from repro.rete import ReteNetwork, check_network
from repro.treat import TreatMatcher

from tests.rete.test_differential import productions, wme_specs


class MatcherLockstep(RuleBasedStateMachine):
    wmes = Bundle("wmes")
    rules = Bundle("rules")

    @initialize()
    def setup(self):
        self.matchers = {
            "naive": NaiveMatcher(),
            "rete": ReteNetwork(),
            "rete-indexed": ReteNetwork(indexed=True),
            "treat": TreatMatcher(),
            "oflazer": CombinationMatcher(),
        }
        self.memory = WorkingMemory()
        for matcher in self.matchers.values():
            matcher.memory = self.memory
        self.live_rules: set[str] = set()
        self.counter = 0

    # -- operations -----------------------------------------------------------

    @rule(target=rules, data=st.data())
    def add_production(self, data):
        self.counter += 1
        name = f"p{self.counter}"
        production = data.draw(productions(name))
        for matcher in self.matchers.values():
            matcher.add_production(production)
        self.live_rules.add(name)
        return name

    @rule(name=rules)
    def remove_production(self, name):
        if name not in self.live_rules:
            return
        for matcher in self.matchers.values():
            matcher.remove_production(name)
        self.live_rules.discard(name)

    @rule(target=wmes, spec=wme_specs())
    def add_wme(self, spec):
        cls, attrs = spec
        wme = self.memory.add(WME(cls, attrs))
        for matcher in self.matchers.values():
            matcher.add_wme(wme)
        return wme

    @rule(wme=wmes)
    def remove_wme(self, wme):
        if wme not in self.memory:
            return
        self.memory.remove(wme)
        for matcher in self.matchers.values():
            matcher.remove_wme(wme)

    # -- invariants --------------------------------------------------------------

    @invariant()
    def conflict_sets_agree(self):
        if not hasattr(self, "matchers"):
            return
        reference = self.matchers["naive"].conflict_set.snapshot()
        for name, matcher in self.matchers.items():
            assert matcher.conflict_set.snapshot() == reference, name

    @invariant()
    def rete_internals_consistent(self):
        if not hasattr(self, "matchers"):
            return
        assert check_network(self.matchers["rete"]) == []


MatcherLockstep.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestMatcherLockstep = MatcherLockstep.TestCase
