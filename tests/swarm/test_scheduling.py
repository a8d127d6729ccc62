"""Tests for staggered swarm measurement scheduling and QoSA metrics."""

import pytest

from repro.swarm import QoSALevel, StaggeredSchedule, SwarmAttestationResult, \
    build_swarm


def test_group_count_from_busy_fraction():
    assert StaggeredSchedule(60.0, 1.0).group_count == 1
    assert StaggeredSchedule(60.0, 0.5).group_count == 2
    assert StaggeredSchedule(60.0, 0.25).group_count == 4
    assert StaggeredSchedule(60.0, 0.3).group_count == 4


def test_phase_offsets_spread_devices():
    devices = build_swarm(8, memory_bytes=1024)
    schedule = StaggeredSchedule(60.0, max_busy_fraction=0.25)
    offsets = schedule.phase_offsets(devices)
    assert set(offsets.values()) == {0.0, 15.0, 30.0, 45.0}


def test_worst_case_busy_fraction_respects_bound():
    devices = build_swarm(32, memory_bytes=10 * 1024)
    runtime = devices[0].compute_time
    schedule = StaggeredSchedule(60.0, max_busy_fraction=0.25)
    assert runtime <= 60.0 / schedule.group_count  # fits one phase slot
    worst = schedule.worst_case_busy_fraction(devices, runtime)
    # 32 devices split exactly into 4 groups of 8: the bound holds.
    assert worst <= 0.25 + 1e-9


def test_unstaggered_schedule_makes_everyone_busy_at_once():
    devices = build_swarm(10, memory_bytes=10 * 1024)
    runtime = devices[0].compute_time
    schedule = StaggeredSchedule(60.0, max_busy_fraction=1.0)
    assert schedule.busy_fraction_at(runtime / 2, devices, runtime) == 1.0


def test_busy_fraction_zero_with_no_devices():
    schedule = StaggeredSchedule(60.0, 0.5)
    assert schedule.busy_fraction_at(0.0, [], 5.0) == 0.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        StaggeredSchedule(0.0, 0.5)
    with pytest.raises(ValueError):
        StaggeredSchedule(60.0, 0.0)
    with pytest.raises(ValueError):
        StaggeredSchedule(60.0, 1.5)
    with pytest.raises(ValueError):
        StaggeredSchedule(60.0, 0.5).worst_case_busy_fraction([], 1.0,
                                                              samples=0)


def test_swarm_attestation_result_properties():
    result = SwarmAttestationResult(protocol="seda", devices_total=10,
                                    devices_attested=7, duration=5.0,
                                    qosa_level=QoSALevel.BINARY)
    assert result.coverage == pytest.approx(0.7)
    empty = SwarmAttestationResult(protocol="seda", devices_total=0,
                                   devices_attested=0, duration=0.0,
                                   qosa_level=QoSALevel.BINARY)
    assert empty.coverage == 1.0
