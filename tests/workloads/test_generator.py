"""The property-based OPS5 program generator and its differential harness.

Tier-1 keeps the fixed-seed slices (determinism, validity, a small
differential smoke run over the whole matcher fleet, and the
injected-bug acceptance test).  The
open-ended hypothesis campaigns are marked ``fuzz`` and run in CI's
dedicated fuzz job.
"""

import json
import time

import pytest
from hypothesis import given, settings

from repro.kernel import CompiledMatcher
from repro.naive import NaiveMatcher
from repro.oflazer import CombinationMatcher
from repro.ops5 import Program, parse_program
from repro.ops5.production import Production
from repro.rete import ReteNetwork
from repro.treat import TreatMatcher
from repro.workloads.generator import (
    DEFAULT_PROFILE,
    FUZZ_PROFILES,
    GENERATOR_PROFILES,
    FuzzCase,
    MatcherFleet,
    case_from_seed,
    emit_system_program,
    fuzz,
    fuzz_cases,
    roundtrip_problems,
    run_case,
    shrink_case,
)
from repro.workloads.profiles import PAPER_SYSTEMS

SERIAL_BACKENDS = {
    "naive": NaiveMatcher,
    "treat": TreatMatcher,
    "rete": ReteNetwork,
    "rete-indexed": lambda: ReteNetwork(indexed=True),
    "oflazer": CombinationMatcher,
    "compiled": CompiledMatcher,
}


def setup_case(program, setup) -> FuzzCase:
    """A (program, setup) run as a :class:`FuzzCase`: *program* is OPS5
    source, a ``Program`` or productions, the stream is the setup's adds
    of ``(class, attrs)`` pairs, so ``drive_case`` / ``run_case`` record
    it like any generated case."""
    if isinstance(program, str):
        program = parse_program(program)
    if not isinstance(program, Program):
        program = Program(productions=list(program))
    stream = tuple(
        ("add", slot, cls, dict(attrs)) for slot, (cls, attrs) in enumerate(setup)
    )
    return FuzzCase(tuple(program.productions), program.literalizations, stream)


class BuggyMatcher(NaiveMatcher):
    """Deliberately broken: drops removals of class ``c1`` (a classic
    stale-token bug), so differential fuzzing must catch it."""

    def remove_wme(self, wme):
        if wme.cls == "c1":
            return
        super().remove_wme(wme)


class TestGeneration:
    def test_same_seed_same_case(self):
        a = case_from_seed(DEFAULT_PROFILE, 7)
        b = case_from_seed(DEFAULT_PROFILE, 7)
        assert a == b
        assert a.source() == b.source()

    def test_different_seeds_differ(self):
        cases = {case_from_seed(DEFAULT_PROFILE, seed).source() for seed in range(20)}
        assert len(cases) > 15

    def test_cases_respect_profile_bounds(self):
        profile = DEFAULT_PROFILE
        for seed in range(40):
            case = case_from_seed(profile, seed)
            assert case.profile == profile.name
            assert profile.min_rules <= len(case.productions) <= profile.max_rules
            assert profile.min_stream <= len(case.stream) <= profile.max_stream
            for production in case.productions:
                assert isinstance(production, Production)
                assert len(production.conditions) <= profile.max_ces

    def test_generated_attributes_are_declared(self):
        # Literalize declarations must cover every attribute the stream
        # touches, or the engine rejects insertions at runtime.
        for seed in range(30):
            case = case_from_seed(DEFAULT_PROFILE, seed)
            declared = case.literalizations
            for op in case.stream:
                if op[0] == "add":
                    _, _, cls, attrs = op
                    assert set(attrs) <= set(declared[cls]), seed

    def test_every_profile_generates(self):
        for name, profile in FUZZ_PROFILES.items():
            case = case_from_seed(profile, 1)
            assert case.productions, name
            assert roundtrip_problems(case) == [], name


class TestSmokeDifferential:
    """Tier-1 slice: fixed seeds, the whole fleet (``parallel`` on 2 partitions)."""

    def test_fixed_seeds_agree(self):
        backends = MatcherFleet(workers=2).backends()
        for seed in range(12):
            outcome = run_case(case_from_seed(DEFAULT_PROFILE, seed), backends)
            assert outcome.ok, (seed, outcome.divergences())

    def test_system_profile_seeds_agree(self):
        for profile in (GENERATOR_PROFILES["r1-soar"], GENERATOR_PROFILES["ilog"]):
            for seed in range(4):
                outcome = run_case(case_from_seed(profile, seed), SERIAL_BACKENDS)
                assert outcome.ok, (profile.name, seed, outcome.divergences())


class TestInjectedBug:
    """Acceptance criterion: a deliberately broken matcher is caught and
    shrunk to a minimal (ruleset, stream) reproduction."""

    def test_fuzz_catches_and_shrinks(self):
        report = fuzz(
            seed=0,
            budget=30.0,
            iterations=10,
            backends={"naive": NaiveMatcher, "buggy": BuggyMatcher},
        )
        assert not report.ok
        counter = report.counterexamples[0]
        assert counter.kind == "mismatch"
        assert len(counter.shrunk.productions) <= 2
        assert len(counter.shrunk.stream) <= 3
        # The shrunk pair still reproduces the divergence.
        replay = run_case(
            counter.shrunk, {"naive": NaiveMatcher, "buggy": BuggyMatcher}
        )
        assert not replay.ok and replay.kind == "mismatch"
        # And the report is JSON-serializable (the CI artifact).
        snapshot = json.loads(json.dumps(report.snapshot()))
        assert snapshot["schema"] == "repro.fuzz/1"
        assert snapshot["mismatches"] == len(report.counterexamples)

    def test_shrinker_preserves_failure(self):
        backends = {"naive": NaiveMatcher, "buggy": BuggyMatcher}

        def failing(case):
            return not run_case(case, backends).ok

        case = case_from_seed(DEFAULT_PROFILE, 8)
        assert failing(case)
        shrunk, attempts = shrink_case(case, failing)
        assert failing(shrunk)
        assert len(shrunk.productions) <= len(case.productions)
        assert len(shrunk.stream) <= len(case.stream)


class SleepyMatcher(NaiveMatcher):
    """Correct, but every WME change takes ``PAUSE`` seconds."""

    PAUSE = 0.25

    def add_wme(self, wme):
        time.sleep(self.PAUSE)
        return super().add_wme(wme)

    def remove_wme(self, wme):
        time.sleep(self.PAUSE)
        return super().remove_wme(wme)


class TestBudget:
    def test_a_case_past_the_budget_is_cut_after_one_op(self):
        """Case seed 0 has six stream ops (1.5 s on the sleepy backend),
        so only a deadline checked inside the case stops near 0.5 s."""
        budget = 0.5
        report = fuzz(
            seed=0, budget=budget, backends={"naive": NaiveMatcher, "sleepy": SleepyMatcher}
        )
        assert report.elapsed < budget + SleepyMatcher.PAUSE + 0.4, report.elapsed
        assert report.unfinished == 0 and report.iterations == 0
        assert report.ok and not report.counterexamples
        assert json.loads(json.dumps(report.snapshot()))["unfinished_case_seed"] == 0


class TestEmittedSystems:
    def test_all_six_emit_deterministically(self):
        for profile in PAPER_SYSTEMS:
            a = emit_system_program(profile)
            b = emit_system_program(profile)
            assert a.source == b.source
            assert a.setup == b.setup

    def test_emitted_programs_agree_across_backends(self):
        # The smallest system-class program, full serial differential.
        emitted = emit_system_program(
            min(PAPER_SYSTEMS, key=lambda p: p.affected_mean), lanes=2
        )
        outcome = run_case(
            setup_case(emitted.source, emitted.setup),
            SERIAL_BACKENDS,
            max_cycles=emitted.max_cycles,
        )
        assert outcome.ok, outcome.divergences()


@pytest.mark.fuzz
class TestHypothesisFuzz:
    """Open-ended campaigns: hypothesis drives generation and shrinking."""

    @pytest.fixture(scope="class")
    def fleet(self):
        return MatcherFleet(workers=2)

    @settings(max_examples=60, deadline=None, database=None)
    @given(case=fuzz_cases(DEFAULT_PROFILE))
    def test_default_profile_agrees(self, fleet, case):
        assert roundtrip_problems(case) == []
        outcome = run_case(case, fleet.backends())
        assert outcome.ok, outcome.divergences()

    @settings(max_examples=15, deadline=None, database=None)
    @given(case=fuzz_cases(GENERATOR_PROFILES["r1-soar"]))
    def test_r1_soar_profile_agrees(self, fleet, case):
        outcome = run_case(case, fleet.backends())
        assert outcome.ok, outcome.divergences()

    @settings(max_examples=15, deadline=None, database=None)
    @given(case=fuzz_cases(GENERATOR_PROFILES["ilog"]))
    def test_ilog_profile_agrees(self, fleet, case):
        outcome = run_case(case, fleet.backends())
        assert outcome.ok, outcome.divergences()
