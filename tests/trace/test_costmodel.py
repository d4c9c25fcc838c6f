"""The instruction cost model and the Section 2.2 interpreter ladder."""

import pytest

from repro.rete.instrument import ActivationEvent
from repro.trace import (
    C1_INSTRUCTIONS_PER_INSERT,
    C2_INSTRUCTIONS_PER_DELETE,
    C3_INSTRUCTIONS_PER_WME,
    CostModel,
    UNIPROCESSOR_TIERS,
    changes_per_second,
    uniprocessor_ladder,
)


def _event(kind, comparisons=0, outputs=0):
    return ActivationEvent(
        seq=1, parent=None, node_id=1, node_kind=kind,
        direction="add", comparisons=comparisons, outputs=outputs,
    )


class TestPaperConstants:
    def test_section_3_1_constants(self):
        assert C1_INSTRUCTIONS_PER_INSERT == 1800
        assert C2_INSTRUCTIONS_PER_DELETE == C1_INSTRUCTIONS_PER_INSERT
        assert C3_INSTRUCTIONS_PER_WME == 1100

    def test_ladder_reproduces_published_speeds_at_1_mips(self):
        ladder = uniprocessor_ladder(mips=1.0)
        assert ladder["lisp-interpreted"] == pytest.approx(8.0)
        assert ladder["bliss-interpreted"] == pytest.approx(40.0)
        assert ladder["ops83-compiled"] == pytest.approx(200.0)
        # "Optimised" lands in the published 400-800 band.
        assert 400 <= ladder["ops83-optimized"] <= 800

    def test_ladder_scales_with_mips(self):
        assert uniprocessor_ladder(2.0)["ops83-compiled"] == pytest.approx(400.0)

    def test_tiers_are_monotone(self):
        costs = list(UNIPROCESSOR_TIERS.values())
        assert costs == sorted(costs, reverse=True)


class TestActivationCosts:
    def test_join_cost_composition(self):
        model = CostModel()
        cost = model.activation_cost(_event("join", comparisons=3, outputs=1))
        assert cost == model.join_base + 3 * model.per_comparison + model.per_output

    def test_typical_join_in_paper_task_band(self):
        # Section 4: tasks average 50-100 instructions.
        model = CostModel()
        typical = model.activation_cost(_event("join", comparisons=2, outputs=1))
        assert 50 <= typical <= 100

    def test_root_cost_includes_constant_tests(self):
        model = CostModel()
        assert (
            model.activation_cost(_event("root", comparisons=5))
            == model.root_base + 5 * model.per_constant_test
        )

    def test_memory_and_terminal_costs(self):
        model = CostModel()
        assert model.activation_cost(_event("amem")) == model.amem_base
        assert model.activation_cost(_event("bmem")) == model.bmem_base
        assert model.activation_cost(_event("term")) == model.term_base

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CostModel().activation_cost(_event("mystery"))

    def test_change_cost_sums(self):
        model = CostModel()
        events = [_event("amem"), _event("join", comparisons=1)]
        assert model.change_cost(events) == sum(
            model.activation_cost(e) for e in events
        )


class TestThroughputHelper:
    def test_changes_per_second(self):
        assert changes_per_second(2_000_000, mips=2.0) == pytest.approx(1.0)

    def test_rejects_nonpositive_cost(self):
        with pytest.raises(ValueError):
            changes_per_second(0, 1.0)
