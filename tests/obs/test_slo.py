"""SLO rules and the streaming health sink."""

import pytest

from repro.core.verification import DeviceStatus, VerificationReport
from repro.fleet.sinks import FleetHealth
from repro.obs import (
    CoverageRule,
    LostBudgetRule,
    StreamingHealthSink,
)


def report(status=DeviceStatus.HEALTHY, device="dev", freshness=None):
    return VerificationReport(device_id=device, collection_time=0.0,
                              status=status, freshness=freshness)


def lost():
    return report(status=DeviceStatus.NO_DATA)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
def test_lost_budget_fires_on_the_report_that_breaks_the_budget():
    rule = LostBudgetRule(max_lost=2)
    rule.reset()
    assert rule.observe(lost()) is None
    assert rule.observe(report()) is None
    assert rule.observe(lost()) is None
    verdict = rule.observe(lost())  # third silent device: budget is 2
    assert verdict is not None and verdict[0] == 3.0
    assert rule.observe(lost()) is None  # fires once, streaming-side
    health = FleetHealth()
    for r in (lost(), lost(), lost(), report()):
        health.record(r)
    assert rule.violated_by(health)
    health2 = FleetHealth()
    health2.record(lost())
    assert not rule.violated_by(health2)


def test_coverage_fires_the_moment_the_target_is_unreachable():
    rule = CoverageRule(0.9, expected_devices=10)
    rule.reset()
    # One silent device leaves 9/10 achievable: no event.
    assert rule.observe(lost()) is None
    # The second makes 90% unreachable no matter what follows.
    verdict = rule.observe(lost())
    assert verdict is not None
    assert verdict[0] == pytest.approx(0.8)


def test_coverage_without_expectation_settles_at_end_of_round():
    rule = CoverageRule(0.9)
    rule.reset()
    for _ in range(8):
        assert rule.observe(report()) is None
    assert rule.observe(lost()) is None  # 8/9 — cannot fire mid-round
    assert rule.end_of_round() is not None
    health = FleetHealth()
    for _ in range(8):
        health.record(report())
    health.record(lost())
    assert rule.violated_by(health)


def test_coverage_exact_boundary_is_not_a_violation():
    rule = CoverageRule(0.9, expected_devices=10)
    rule.reset()
    for _ in range(9):
        rule.observe(report())
    rule.observe(lost())  # exactly 9/10 == 0.9: meets the target
    assert rule.end_of_round() is None
    health = FleetHealth()
    for _ in range(9):
        health.record(report())
    health.record(lost())
    assert not rule.violated_by(health)


def test_rule_constructor_validation():
    with pytest.raises(ValueError):
        LostBudgetRule(-1)
    with pytest.raises(ValueError):
        CoverageRule(0.0)
    with pytest.raises(ValueError):
        CoverageRule(0.5, expected_devices=0)


# ----------------------------------------------------------------------
# The sink
# ----------------------------------------------------------------------
def test_sink_fires_mid_round_once_per_rule():
    events = []
    sink = StreamingHealthSink([LostBudgetRule(0)],
                               on_violation=[events.append])
    sink.emit(report())
    assert events == []
    sink.emit(lost())
    sink.emit(lost())
    assert len(events) == 1  # deduplicated within the round
    violation = events[0]
    assert violation.rule == "lost_budget"
    assert violation.streamed
    assert violation.round_index == 1
    assert violation.reports_seen == 2  # fired on the second report
    sink.flush()
    # A fresh round re-arms the rule.
    sink.emit(lost())
    assert len(events) == 2
    assert events[1].round_index == 2
    assert [event for event in sink.violations
            if event.round_index == 1] == [violation]


def test_sink_end_of_round_sweep_marks_unstreamed_violations():
    sink = StreamingHealthSink([CoverageRule(0.9)])
    for _ in range(8):
        sink.emit(report())
    sink.emit(lost())
    assert sink.violations == []  # not decidable mid-round
    sink.flush()
    (violation,) = sink.violations
    assert not violation.streamed
    assert violation.round_index == 1


def test_idle_flush_is_not_a_round_boundary():
    sink = StreamingHealthSink([LostBudgetRule(0)])
    sink.flush()
    sink.flush()
    assert sink.round_index == 1
    sink.emit(lost())
    sink.flush()
    assert sink.round_index == 2


def test_violation_rows_are_json_friendly():
    sink = StreamingHealthSink([LostBudgetRule(0)])
    sink.emit(lost())
    (row,) = sink.violation_rows()
    assert row["rule"] == "lost_budget"
    assert row["round"] == 1
    assert row["streamed"] is True
    assert row["reports_seen"] == 1
    assert isinstance(row["message"], str)


def test_sink_clock_stamps_events():
    clock = _Clock()
    sink = StreamingHealthSink([LostBudgetRule(0)])
    sink.bind_clock(clock)
    clock.now = 4.5
    sink.emit(lost())
    assert sink.violations[0].time == 4.5
