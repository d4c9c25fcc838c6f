"""FaultPlan/FaultSpec: addressing, determinism, serialisation."""

import pytest

from repro.faults import ERROR, SESSION, SLOW, FaultPlan, FaultSpec


class TestFaultSpec:
    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=ERROR, site="disk")
        # The shard site went with the process match backends.
        with pytest.raises(ValueError):
            FaultSpec(kind=SLOW, site="shard")

    def test_rejects_kind_invalid_for_site(self):
        # Sessions cannot crash-inject (the process is the server).
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", site=SESSION)

    def test_rejects_negative_position(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=ERROR, at=-1)


class TestFaultPlanConsultation:
    def test_session_faults_address_request_ordinals(self):
        plan = FaultPlan([FaultSpec(kind=ERROR, site=SESSION, at=5)])
        assert plan.session_fault(5) is not None
        assert plan.session_fault(4) is None

    def test_consultation_does_not_mutate(self):
        plan = FaultPlan([FaultSpec(kind=ERROR, at=1)])
        assert plan.session_fault(1) is not None
        assert plan.session_fault(1) is not None  # still there

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan([FaultSpec(kind=ERROR)])


class TestSerialisation:
    def test_snapshot_round_trip(self):
        plan = FaultPlan(
            [FaultSpec(kind=ERROR, at=2), FaultSpec(kind=SLOW, at=4, seconds=0.25)]
        )
        clone = FaultPlan.from_rows(plan.snapshot())
        assert clone.specs == plan.specs
