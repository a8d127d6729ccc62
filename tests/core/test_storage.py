"""Tests for the rolling measurement store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Measurement, MeasurementStore


def record(timestamp: float) -> Measurement:
    return Measurement(timestamp=timestamp, digest=b"\x01" * 32,
                       tag=b"\x02" * 32)


def test_slot_rule_matches_paper():
    store = MeasurementStore(slots=12, measurement_interval=10.0)
    assert store.slot_for_time(0.0) == 0
    assert store.slot_for_time(9.99) == 0
    assert store.slot_for_time(10.0) == 1
    assert store.slot_for_time(125.0) == 12 % 12
    assert store.slot_for_time(35.0) == 3


def test_store_and_latest_newest_first():
    store = MeasurementStore(slots=8, measurement_interval=10.0)
    for timestamp in (10.0, 20.0, 30.0, 40.0):
        store.store(record(timestamp))
    latest = store.latest(3)
    assert [measurement.timestamp for measurement in latest] == \
        [40.0, 30.0, 20.0]


def test_latest_clamps_k_to_slot_count():
    store = MeasurementStore(slots=4, measurement_interval=10.0)
    for timestamp in (10.0, 20.0, 30.0, 40.0):
        store.store(record(timestamp))
    assert len(store.latest(100)) == 4
    assert store.latest(0) == []
    assert store.latest(-5) == []


def test_wraparound_overwrites_oldest():
    store = MeasurementStore(slots=4, measurement_interval=10.0)
    for timestamp in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
        store.store(record(timestamp))
    assert store.overwrites == 2
    timestamps = {measurement.timestamp
                  for measurement in store.all_measurements()}
    assert timestamps == {30.0, 40.0, 50.0, 60.0}


def test_capacity_and_occupancy():
    store = MeasurementStore(slots=6, measurement_interval=5.0)
    assert store.occupancy() == 0
    store.store(record(5.0))
    assert store.occupancy() == len(store) == 1
    assert store.newest().timestamp == 5.0


def test_empty_store_latest_and_newest():
    store = MeasurementStore(slots=4, measurement_interval=10.0)
    assert store.latest(3) == []
    assert store.newest() is None


def test_round_robin_mode_never_collides_within_capacity():
    store = MeasurementStore(slots=8, measurement_interval=10.0,
                             stateless=False)
    # Irregular schedule: several measurements inside one nominal window.
    for timestamp in (1.0, 2.0, 3.0, 11.0, 12.0, 25.0):
        store.store(record(timestamp))
    assert store.overwrites == 0
    assert store.occupancy() == 6


def test_tampering_primitives():
    store = MeasurementStore(slots=4, measurement_interval=10.0)
    for timestamp in (10.0, 20.0, 30.0):
        store.store(record(timestamp))
    store.overwrite_slot(store.slot_for_time(30.0), None)
    assert store.occupancy() == 2
    store.swap_slots(store.slot_for_time(10.0), store.slot_for_time(20.0))
    assert store.occupancy() == 2
    store.clear_all()
    assert store.occupancy() == 0
    assert store.newest() is None


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        MeasurementStore(slots=0, measurement_interval=10.0)
    with pytest.raises(ValueError):
        MeasurementStore(slots=4, measurement_interval=0.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                max_size=60, unique=True))
def test_latest_returns_newest_timestamps(indices):
    # Measurements taken every T_M (regular schedule, one per window).
    store = MeasurementStore(slots=16, measurement_interval=10.0)
    timestamps = sorted(index * 10.0 + 5.0 for index in indices)
    for timestamp in timestamps:
        store.store(record(timestamp))
    k = min(5, len(timestamps), store.slots)
    got = [measurement.timestamp for measurement in store.latest(k)]
    # The newest record is always first, nothing is returned twice, the
    # result never exceeds k, and every returned record is a survivor.
    assert got[0] == timestamps[-1]
    assert len(got) == len(set(got)) <= k
    survivors = {measurement.timestamp
                 for measurement in store.all_measurements()}
    assert set(got) <= survivors
