"""Tests for QoA statistics and the ERASMUS vs on-demand comparison."""

from repro.analysis import (
    compare_erasmus_vs_ondemand,
)


def test_compare_erasmus_vs_ondemand_structure():
    comparison = compare_erasmus_vs_ondemand(
        measurement_interval=60.0, collection_interval=600.0,
        mean_dwell=45.0, horizon=100_000.0, seed=1)
    assert comparison.erasmus_detection_rate >= \
        comparison.on_demand_detection_rate
    assert comparison.detection_advantage >= 0.0
    assert comparison.erasmus.measurements_per_collection == 10
    assert comparison.on_demand.on_demand_only


def test_same_seed_gives_matched_campaigns():
    first = compare_erasmus_vs_ondemand(60.0, 600.0, mean_dwell=30.0,
                                        horizon=50_000.0, seed=3)
    second = compare_erasmus_vs_ondemand(60.0, 600.0, mean_dwell=30.0,
                                         horizon=50_000.0, seed=3)
    assert first.erasmus_detection_rate == second.erasmus_detection_rate
    assert first.on_demand_detection_rate == second.on_demand_detection_rate
