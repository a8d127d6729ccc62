"""Tests for the timeline-level detection analysis."""

import math

import pytest

from repro.adversary import Infection, MalwareCampaign
from repro.analysis import (
    detection_latency,
    infection_detected,
    simulate_detection,
)
from repro.core.scheduler import IrregularScheduler


def test_infection_detected_when_measurement_falls_inside():
    infection = Infection("dev", start=25.0, end=45.0)
    assert infection_detected(infection, [10.0, 30.0, 60.0])
    assert not infection_detected(infection, [10.0, 50.0, 60.0])
    persistent = Infection("dev", start=25.0)
    assert infection_detected(persistent, [100.0])


def test_detection_latency_uses_first_collection_after_evidence():
    infection = Infection("dev", start=25.0, end=45.0)
    latency = detection_latency(infection, measurement_times=[30.0, 40.0],
                                collection_times=[20.0, 100.0, 200.0])
    assert latency == pytest.approx(75.0)
    assert detection_latency(infection, [50.0], [100.0]) is None
    assert detection_latency(infection, [30.0], [10.0]) is None


def test_simulate_detection_erasmus_beats_on_demand():
    campaign = MalwareCampaign(arrival_rate=1 / 400.0, mean_dwell=40.0, seed=5)
    erasmus = simulate_detection(60.0, 600.0, campaign, horizon=200_000.0)
    on_demand = simulate_detection(60.0, 600.0, campaign, horizon=200_000.0,
                                   on_demand_only=True)
    assert erasmus.total_infections == on_demand.total_infections > 50
    assert erasmus.detection_rate > on_demand.detection_rate
    assert erasmus.detection_rate > 0.3


def test_detection_rate_matches_analytic_for_exponential_dwell():
    # For exponentially distributed dwell with mean d, the detection
    # probability under a regular T_M schedule is (d/T_M)(1 - e^(-T_M/d)).
    measurement_interval = 60.0
    mean_dwell = 60.0
    campaign = MalwareCampaign(arrival_rate=1 / 500.0, mean_dwell=mean_dwell,
                               seed=11)
    summary = simulate_detection(measurement_interval, 600.0, campaign,
                                 horizon=400_000.0)
    expected = (mean_dwell / measurement_interval) * \
        (1 - math.exp(-measurement_interval / mean_dwell))
    assert summary.detection_rate == pytest.approx(expected, abs=0.08)


def test_latencies_bounded_by_collection_interval():
    campaign = MalwareCampaign(arrival_rate=1 / 300.0, mean_dwell=120.0,
                               seed=2)
    summary = simulate_detection(30.0, 300.0, campaign, horizon=50_000.0)
    assert summary.mean_latency is not None
    assert summary.max_latency <= 300.0 + 120.0 + 30.0
    assert summary.mean_latency < summary.max_latency + 1e-9


def test_custom_scheduler_is_honoured():
    campaign = MalwareCampaign(arrival_rate=1 / 300.0, mean_dwell=50.0, seed=4)
    scheduler = IrregularScheduler(b"key", lower=30.0, upper=90.0)
    summary = simulate_detection(60.0, 600.0, campaign, horizon=40_000.0,
                                 scheduler=scheduler)
    assert summary.measurement_count > 400


def test_no_infections_counts_as_full_detection():
    campaign = MalwareCampaign(arrival_rate=1e-9, mean_dwell=10.0, seed=1)
    summary = simulate_detection(60.0, 600.0, campaign, horizon=1000.0)
    assert summary.total_infections == 0
    assert summary.detection_rate == 1.0
    assert summary.mean_latency is None


def test_invalid_horizon_rejected():
    campaign = MalwareCampaign(arrival_rate=0.1, mean_dwell=1.0)
    with pytest.raises(ValueError):
        simulate_detection(60.0, 600.0, campaign, horizon=0.0)


# ---------------------------------------------------------------------------
# Fleet-level matching: ground truth vs VerificationReport streams
# ---------------------------------------------------------------------------

from repro.adversary import Infection
from repro.analysis import first_exposing_report, match_fleet_reports
from repro.core.verification import DeviceStatus, VerificationReport


def _report(device_id, time, status=DeviceStatus.HEALTHY):
    return VerificationReport(device_id=device_id, collection_time=time,
                              status=status)


def _infected(device_id, time, timestamps):
    return VerificationReport(
        device_id=device_id, collection_time=time,
        status=DeviceStatus.INFECTED, measurement_count=len(timestamps),
        infected_timestamps=list(timestamps))


def test_first_exposing_report_picks_earliest_match():
    infection = Infection(device_id="dev", start=100.0, end=150.0)
    reports = [
        _report("dev", 60.0),
        _infected("dev", 180.0, [120.0]),
        _infected("dev", 240.0, [130.0]),
    ]
    exposing = first_exposing_report(infection, reports)
    assert exposing is not None and exposing.collection_time == 180.0


def test_exposing_report_needs_timestamp_inside_interval():
    infection = Infection(device_id="dev", start=100.0, end=150.0)
    # anomalous timestamps belong to a *different* infection window
    reports = [_infected("dev", 180.0, [50.0])]
    assert first_exposing_report(infection, reports) is None


def test_tampered_report_counts_without_timestamps():
    infection = Infection(device_id="dev", start=100.0,
                          malicious_image=b"")
    reports = [_report("dev", 120.0, status=DeviceStatus.TAMPERED)]
    exposing = first_exposing_report(infection, reports)
    assert exposing is not None


def test_reports_before_infection_never_count():
    infection = Infection(device_id="dev", start=100.0)
    reports = [_report("dev", 60.0, status=DeviceStatus.TAMPERED)]
    assert first_exposing_report(infection, reports) is None


def test_match_fleet_reports_aggregates_per_device():
    truth = {
        "dev-a": [Infection("dev-a", start=100.0, end=150.0)],
        "dev-b": [Infection("dev-b", start=200.0, end=220.0)],
        "dev-c": [],
    }
    reports = [
        _infected("dev-a", 180.0, [120.0]),
        _report("dev-b", 240.0),  # healthy: dev-b's infection missed
    ]
    summary = match_fleet_reports(truth, reports)
    assert summary.total_infections == 2
    assert summary.detected_infections == 1
    assert summary.detection_rate == 0.5
    assert summary.infected_devices == 2
    assert summary.detected_devices == 1
    assert summary.latencies == [80.0]
    assert summary.mean_latency == 80.0
    assert summary.max_latency == 80.0


def test_match_fleet_reports_empty_truth_is_full_detection():
    summary = match_fleet_reports({}, [])
    assert summary.total_infections == 0
    assert summary.detection_rate == 1.0
    assert summary.mean_latency is None
