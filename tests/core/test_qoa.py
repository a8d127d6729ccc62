"""Tests for the Quality of Attestation metric."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QoA, detection_probability, expected_freshness
from repro.core.qoa import expected_detection_latency


def test_expected_freshness_is_half_tm():
    assert expected_freshness(60.0) == pytest.approx(30.0)
    with pytest.raises(ValueError):
        expected_freshness(0.0)


def test_detection_probability_shape():
    assert detection_probability(0.0, 60.0) == 0.0
    assert detection_probability(30.0, 60.0) == pytest.approx(0.5)
    assert detection_probability(60.0, 60.0) == pytest.approx(1.0)
    assert detection_probability(600.0, 60.0) == 1.0
    with pytest.raises(ValueError):
        detection_probability(-1.0, 60.0)
    with pytest.raises(ValueError):
        detection_probability(1.0, 0.0)


def test_expected_detection_latency():
    assert expected_detection_latency(60.0, 600.0) == pytest.approx(330.0)
    with pytest.raises(ValueError):
        expected_detection_latency(0.0, 600.0)


def test_qoa_properties():
    qoa = QoA(measurement_interval=60.0, collection_interval=600.0)
    assert qoa.measurements_per_collection == 10
    assert qoa.expected_freshness == pytest.approx(30.0)
    assert qoa.expected_detection_latency() == pytest.approx(330.0)


def test_on_demand_qoa_degenerate_case():
    on_demand = QoA(600.0, 600.0, on_demand_only=True)
    assert on_demand.expected_freshness == 0.0
    # On-demand detection window is T_C, so short-lived malware escapes.
    assert on_demand.detection_probability(60.0) == pytest.approx(0.1)


def test_erasmus_detects_better_than_on_demand_for_same_tc():
    erasmus = QoA(60.0, 600.0)
    on_demand = QoA(600.0, 600.0, on_demand_only=True)
    for dwell in (10.0, 60.0, 300.0):
        assert erasmus.detection_probability(dwell) >= \
            on_demand.detection_probability(dwell)


def test_invalid_intervals_rejected():
    with pytest.raises(ValueError):
        QoA(0.0, 600.0)
    with pytest.raises(ValueError):
        QoA(60.0, -1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=1e5, allow_nan=False),
       st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_detection_probability_bounds(measurement_interval, dwell):
    probability = detection_probability(dwell, measurement_interval)
    assert 0.0 <= probability <= 1.0
    # Monotone in dwell time: staying longer never helps the malware.
    assert detection_probability(dwell * 2, measurement_interval) >= probability
