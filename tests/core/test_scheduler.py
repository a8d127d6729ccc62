"""Tests for the measurement schedulers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ErasmusConfig,
    IrregularScheduler,
    LenientScheduler,
    RegularScheduler,
    ScheduleKind,
    build_scheduler,
)
from repro.crypto.backend import use_backend


class TestRegularScheduler:
    def test_fixed_interval(self):
        scheduler = RegularScheduler(60.0)
        assert scheduler.next_interval(0.0) == 60.0
        assert scheduler.next_time(120.0) == 180.0

    def test_schedule_generation(self):
        scheduler = RegularScheduler(10.0)
        assert scheduler.schedule(0.0, 35.0) == [10.0, 20.0, 30.0]

    def test_no_abort_recovery(self):
        scheduler = RegularScheduler(10.0)
        assert scheduler.reschedule_after_abort(12.0, 10.0) is None

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            RegularScheduler(0.0)


class TestIrregularScheduler:
    def test_intervals_respect_bounds(self):
        scheduler = IrregularScheduler(b"key", lower=30.0, upper=90.0)
        intervals = [scheduler.next_interval(0.0) for _ in range(200)]
        assert all(30.0 <= interval < 90.0 for interval in intervals)

    def test_intervals_vary(self):
        scheduler = IrregularScheduler(b"key", lower=30.0, upper=90.0)
        intervals = {round(scheduler.next_interval(0.0), 3)
                     for _ in range(50)}
        assert len(intervals) > 10

    def test_same_key_reproduces_schedule(self):
        first = IrregularScheduler(b"key", 30.0, 90.0, device_nonce=b"d1")
        second = IrregularScheduler(b"key", 30.0, 90.0, device_nonce=b"d1")
        assert [first.next_interval(0.0) for _ in range(10)] == \
            [second.next_interval(0.0) for _ in range(10)]

    def test_different_devices_get_different_schedules(self):
        first = IrregularScheduler(b"key", 30.0, 90.0, device_nonce=b"d1")
        second = IrregularScheduler(b"key", 30.0, 90.0, device_nonce=b"d2")
        assert [first.next_interval(0.0) for _ in range(5)] != \
            [second.next_interval(0.0) for _ in range(5)]

    def test_nominal_interval_is_midpoint(self):
        scheduler = IrregularScheduler(b"key", 30.0, 90.0)
        assert scheduler.measurement_interval == pytest.approx(60.0)

    def test_batched_intervals_match_sequential_draws(self):
        batched = IrregularScheduler(b"key", 30.0, 90.0,
                                     device_nonce=b"d1").intervals(40)
        sequential_scheduler = IrregularScheduler(b"key", 30.0, 90.0,
                                                  device_nonce=b"d1")
        sequential = [sequential_scheduler.next_interval(0.0)
                      for _ in range(40)]
        assert batched == sequential
        assert all(30.0 <= interval < 90.0 for interval in batched)

    def test_backends_regenerate_identical_schedules(self):
        with use_backend("reference"):
            reference = IrregularScheduler(b"key", 30.0, 90.0,
                                           device_nonce=b"d1")
        with use_backend("accelerated"):
            accelerated = IrregularScheduler(b"key", 30.0, 90.0,
                                             device_nonce=b"d1")
        assert reference.intervals(20) == accelerated.intervals(20)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            IrregularScheduler(b"key", 0.0, 90.0)
        with pytest.raises(ValueError):
            IrregularScheduler(b"key", 90.0, 30.0)


class TestLenientScheduler:
    def test_nominal_behaviour_is_regular(self):
        scheduler = LenientScheduler(60.0, window_factor=2.0)
        assert scheduler.next_interval(0.0) == 60.0
        assert scheduler.window_length() == 120.0

    def test_abort_reschedules_to_window_end(self):
        scheduler = LenientScheduler(60.0, window_factor=2.0)
        retry = scheduler.reschedule_after_abort(abort_time=70.0,
                                                 window_start=60.0)
        assert retry == pytest.approx(180.0)

    def test_abort_after_window_gives_up(self):
        scheduler = LenientScheduler(60.0, window_factor=1.5)
        assert scheduler.reschedule_after_abort(abort_time=200.0,
                                                window_start=60.0) is None

    def test_invalid_window_factor(self):
        with pytest.raises(ValueError):
            LenientScheduler(60.0, window_factor=0.9)


class TestBuildScheduler:
    def test_builds_each_kind(self):
        regular = build_scheduler(ErasmusConfig())
        assert isinstance(regular, RegularScheduler)
        irregular = build_scheduler(
            ErasmusConfig(schedule=ScheduleKind.IRREGULAR), key=b"key")
        assert isinstance(irregular, IrregularScheduler)
        lenient = build_scheduler(
            ErasmusConfig(schedule=ScheduleKind.LENIENT,
                          lenient_window_factor=2.0))
        assert isinstance(lenient, LenientScheduler)

    def test_irregular_without_key_rejected(self):
        with pytest.raises(ValueError):
            build_scheduler(ErasmusConfig(schedule=ScheduleKind.IRREGULAR))


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
       st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_regular_schedule_is_strictly_increasing(interval, start):
    scheduler = RegularScheduler(interval)
    times = scheduler.schedule(start, start + interval * 5.5)
    assert all(later > earlier for earlier, later in zip(times, times[1:]))
    assert len(times) == 5


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=1, max_size=32))
def test_irregular_schedule_is_strictly_increasing(seed_key):
    scheduler = IrregularScheduler(seed_key, lower=5.0, upper=15.0)
    times = scheduler.schedule(0.0, 200.0)
    assert all(later > earlier for earlier, later in zip(times, times[1:]))
    gaps = [later - earlier for earlier, later in zip(times, times[1:])]
    assert all(5.0 <= gap < 15.0 for gap in gaps)
