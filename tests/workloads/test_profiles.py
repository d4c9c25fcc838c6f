"""Calibration math: profile stats vs the paper's Section 6 numbers.

Three layers are checked against the published anchors:

1. the six :class:`SystemProfile` knob sets themselves (fleet means and
   per-system orderings match what the paper states or implies);
2. the fuzzing profiles :func:`profile_for_system` derives from them
   (relative structure preserved);
3. the emitted system-class programs, whose *measured*
   affected-productions-per-task-change must track each profile's
   ``affected_mean``.
"""

import pytest

from repro.workloads.generator import GENERATOR_PROFILES, profile_for_system
from repro.workloads.profiles import (
    ILOG,
    PAPER_AFFECTED_PER_CHANGE,
    PAPER_FIRINGS_PER_SECOND,
    PAPER_SERIAL_COST_C1,
    PAPER_SYSTEMS,
    PAPER_WME_CHANGES_PER_SECOND,
    R1_SOAR,
    expected_trace_changes,
    fleet_mean,
    implied_changes_per_firing,
    profile_named,
)
from repro.workloads.programs import SYSTEM_PROGRAMS


class TestFleetAnchors:
    def test_changes_per_firing_matches_section6_rates(self):
        # 9400 wme-changes/sec over 3800 firings/sec implies ~2.47
        # changes per firing; the calibrated fleet mean sits within 5%.
        implied = implied_changes_per_firing()
        assert implied == pytest.approx(
            PAPER_WME_CHANGES_PER_SECOND / PAPER_FIRINGS_PER_SECOND
        )
        assert fleet_mean("changes_per_firing") == pytest.approx(implied, rel=0.05)

    def test_affected_mean_matches_section4_anchor(self):
        # ~30 affected productions per change overall, with large
        # per-system variation -- the fleet mean lands within 25% and
        # every system stays inside the published spread.
        assert fleet_mean("affected_mean") == pytest.approx(
            PAPER_AFFECTED_PER_CHANGE, rel=0.25
        )
        for profile in PAPER_SYSTEMS:
            assert 10.0 <= profile.affected_mean <= 40.0, profile.name

    def test_serial_cost_anchor_is_published_value(self):
        assert PAPER_SERIAL_COST_C1 == 1800

    def test_system_orderings_match_figure_6_1(self):
        # R1-Soar tops both activity measures; ILOG bottoms both --
        # consistent with R1-Soar's highest and ILOG's lowest plateau.
        by_affected = max(PAPER_SYSTEMS, key=lambda p: p.affected_mean)
        assert by_affected is R1_SOAR
        assert min(PAPER_SYSTEMS, key=lambda p: p.affected_mean) is ILOG
        assert max(PAPER_SYSTEMS, key=lambda p: p.changes_per_firing) is R1_SOAR
        assert min(PAPER_SYSTEMS, key=lambda p: p.changes_per_firing) is ILOG
        # Serial bias runs the other way: ILOG is the most serial
        # system, R1-Soar the least.
        assert max(PAPER_SYSTEMS, key=lambda p: p.heavy_serial_bias) is ILOG
        assert min(PAPER_SYSTEMS, key=lambda p: p.heavy_serial_bias) is R1_SOAR

    def test_heavy_task_knobs_span_published_bands(self):
        # The variance argument (Sections 4 and 8): a small fraction of
        # affected productions carries multi-activation work.
        for profile in PAPER_SYSTEMS:
            assert 0.05 <= profile.heavy_fraction <= 0.15, profile.name
            assert 3.0 <= profile.heavy_fanout <= 7.0, profile.name
            assert 2 <= profile.heavy_depth <= 3, profile.name

    def test_expected_trace_changes_closed_form(self):
        profile = profile_named("vt")
        assert expected_trace_changes(profile) == round(
            profile.firings * profile.changes_per_firing
        )
        assert expected_trace_changes(R1_SOAR) > expected_trace_changes(ILOG)


class TestDerivedGeneratorProfiles:
    def test_one_fuzzing_profile_per_system(self):
        assert {p.name for p in PAPER_SYSTEMS} <= set(GENERATOR_PROFILES)

    def test_scaling_preserves_relative_structure(self):
        r1 = profile_for_system(R1_SOAR)
        ilog = profile_for_system(ILOG)
        # More productions -> larger fuzzed rulesets.
        assert r1.max_rules > ilog.max_rules
        # Heavier fan-out -> more variable join reuse.
        assert r1.join_rate > ilog.join_rate
        # Deeper serial chains -> more CEs and more negation.
        assert ilog.max_ces >= r1.max_ces
        assert ilog.negation_rate > r1.negation_rate
        # More changes per firing -> longer streams and bigger RHS.
        assert r1.max_stream > ilog.max_stream
        assert r1.max_makes >= ilog.max_makes

    def test_derived_profiles_are_registered(self):
        for profile in PAPER_SYSTEMS:
            assert GENERATOR_PROFILES[profile.name] == profile_for_system(profile)


class TestEmittedProgramCalibration:
    @pytest.mark.parametrize("name", sorted(SYSTEM_PROGRAMS), ids=str)
    def test_measured_affected_tracks_profile(self, name):
        # Run the committed system-class program and measure what the
        # matcher actually saw: productions affected per task change
        # must track the profile's calibrated affected_mean.
        module = SYSTEM_PROGRAMS[name]
        system = module.build(history=True)
        result = system.run(module.EMITTED.max_cycles)
        assert result.halted and result.halt_reason == "halt action"
        task_counts = [
            change.affected_productions
            for change in system.matcher.stats.changes
            if change.wme_class == "task"
        ]
        assert task_counts, "no task changes recorded"
        measured = sum(task_counts) / len(task_counts)
        assert measured == pytest.approx(module.PROFILE.affected_mean, rel=0.15)

    @pytest.mark.parametrize("name", sorted(SYSTEM_PROGRAMS), ids=str)
    def test_rule_count_scales_with_structure(self, name):
        module = SYSTEM_PROGRAMS[name]
        emitted = module.EMITTED
        # stages * (branches + 1) stage rules, one done + one halt rule,
        # plus the distractors that tune the alpha-affected load.
        assert emitted.rule_count == (
            emitted.stages * (emitted.branches + 1) + 2 + emitted.distractors
        )
        assert module.expected_firings() == emitted.expected_firings()
