"""FaultPlan / FaultEvent: validation, ordering, serialisation."""

from dataclasses import asdict

import pytest

from repro.faults import KINDS, FaultEvent, FaultPlan


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(at=0.0, kind="meteor_strike", target="dc1")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(at=-1.0, kind="link_loss", target="l")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="link_loss", target="l", duration=-1.0)

    @pytest.mark.parametrize("severity", [0.0, -0.1, 1.5])
    def test_severity_must_be_probability(self, severity):
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="link_loss", target="l",
                       severity=severity)

    def test_until_is_recovery_time(self):
        ev = FaultEvent(at=1.0, kind="nic_stall", target="n", duration=0.5)
        assert ev.until == 1.5

    def test_one_shot_until_equals_at(self):
        ev = FaultEvent(at=1.0, kind="poison_write", target="t")
        assert ev.until == 1.0

    def test_every_kind_constructs(self):
        for kind in KINDS:
            FaultEvent(at=0.0, kind=kind, target="x")


class TestFaultPlan:
    def _plan(self):
        return FaultPlan([
            FaultEvent(at=2.0, kind="nic_stall", target="n", duration=1.0),
            FaultEvent(at=1.0, kind="link_loss", target="l", duration=0.5),
            FaultEvent(at=3.0, kind="poison_write", target="t"),
        ], seed=9, name="p")

    def test_events_sorted_by_time(self):
        plan = self._plan()
        assert [ev.at for ev in plan] == [1.0, 2.0, 3.0]

    def test_horizon_covers_recovery(self):
        assert self._plan().horizon == 3.0

    def test_empty_plan_horizon(self):
        assert FaultPlan([]).horizon == 0.0

    def test_of_kind_filters(self):
        plan = self._plan()
        assert len(plan.of_kind("link_loss")) == 1
        assert plan.of_kind("mr_invalidate") == []

    def test_dict_round_trip(self):
        plan = self._plan()
        records = [asdict(event) for event in plan.events]
        clone = FaultPlan((FaultEvent(**rec) for rec in records),
                          seed=plan.seed, name=plan.name)
        assert clone.events == plan.events
        assert clone.seed == 9

    def test_describe_mentions_every_event(self):
        text = self._plan().describe()
        for ev in self._plan():
            assert ev.kind in text
            assert ev.target in text
