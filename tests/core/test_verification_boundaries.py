"""The verifier's float epsilons, pinned at their exact boundaries.

Each check compares a timestamp against a bound plus a fixed epsilon.
These tests put a timestamp exactly on the bound and one ulp
(``math.nextafter``) to either side, so a changed epsilon or a flipped
``<``/``<=`` fails here before it silently moves a verdict.  Seeded
mixed histories then hold the fast judge to the reference oracle
around the same bounds.
"""

import math
import random

import pytest

from repro.core import (
    CollectResponse,
    DeviceStatus,
    Enrollment,
    Measurement,
    OnDemandRequest,
    OnDemandResponse,
    VerificationCore,
)

DIGEST = b"\x42" * 32

below = lambda value: math.nextafter(value, -math.inf)  # noqa: E731
above = lambda value: math.nextafter(value, math.inf)  # noqa: E731


@pytest.fixture
def core(config):
    """Regular schedule, ``T_M`` 10 s, tolerance 0.25: gaps allowed to 12.5 s."""
    return VerificationCore(config)


@pytest.fixture
def enrollment(key):
    return Enrollment.create("dev", key, [DIGEST])


def signed(core, key, timestamp):
    """An authentic, healthy record at an arbitrary float timestamp."""
    unsigned = Measurement(timestamp, DIGEST, b"")
    tag = core.crypto_backend.mac(core.mac_name, key,
                                  unsigned.authenticated_payload())
    return Measurement(timestamp, DIGEST, tag)


@pytest.mark.parametrize("offset, from_future", [
    (below, False), (lambda horizon: horizon, False), (above, True)],
    ids=["below", "on", "above"])
def test_from_future_horizon_agrees_between_reference_and_judge(
        core, key, enrollment, offset, from_future):
    collection_time = 60.0
    horizon = collection_time + 1e-6
    measurement = signed(core, key, offset(horizon))
    reference = core.verdict(enrollment, measurement, collection_time)
    judged = core.device_judge(key).verify_measurements(
        enrollment, [measurement], collection_time)
    assert reference.authentic and reference.healthy
    assert reference.from_future is from_future
    assert judged.verdicts == [reference]
    assert judged.status is (DeviceStatus.TAMPERED if from_future
                             else DeviceStatus.HEALTHY)


@pytest.mark.parametrize("fresh_time, stale", [
    (60.0, False), (below(60.0), True)], ids=["on", "below"])
def test_ondemand_fresh_measurement_staleness_boundary(
        core, key, enrollment, fresh_time, stale):
    # The fresh record may predate the request by exactly the epsilon.
    request_time = 60.0 + 1e-6
    request = OnDemandRequest(request_time, 0,
                              core.request_tag(key, request_time))
    response = OnDemandResponse(fresh=signed(core, key, fresh_time),
                                measurements=[])
    report = core.verify_ondemand(enrollment, request, response, 61.0)
    flagged = "fresh measurement is older than the request" in \
        report.anomalies
    assert flagged is stale
    assert report.status is (DeviceStatus.TAMPERED if stale
                             else DeviceStatus.HEALTHY)


@pytest.mark.parametrize("second, duplicate", [
    (1e-9, True), (above(1e-9), False)], ids=["on", "above"])
def test_duplicate_timestamp_boundary(core, second, duplicate):
    _missing, anomalies = core.check_schedule([0.0, second], None)
    assert bool(anomalies) is duplicate


@pytest.mark.parametrize("timestamp, new", [
    (1e-9, False), (above(1e-9), True)], ids=["on", "above"])
def test_already_seen_boundary(core, timestamp, new):
    # A record counts as new only strictly past last_seen + 1e-9.  The
    # next record sits just over one allowed gap from last_seen but
    # under it from a new record, so only an ignored record leaves a
    # gap.
    following = 12.5 + 5e-10
    missing, anomalies = core.check_schedule([timestamp, following], 0.0)
    assert anomalies == []
    assert missing == (0 if new else 1)


@pytest.mark.parametrize("second, missing", [
    (below(12.5), 0), (12.5, 0), (above(12.5), 1)],
    ids=["below", "on", "above"])
def test_schedule_gap_boundary(core, second, missing):
    # Allowed gap: 10 s * (1 + 0.25) = 12.5 s; only a longer gap counts.
    assert core.check_schedule([0.0, second], None) == (missing, [])


# ----------------------------------------------------------------------
# The judge against the oracle on seeded, mixed histories
# ----------------------------------------------------------------------
INFECTED = b"\x66" * 32


def seeded_history(core, key, rng):
    """``(records, collection_time)``: a regular history with seeded
    duplicates, gaps, future-dated, forged and infected records."""
    newest = 200.0 + rng.randrange(20) * 10.0
    times = [newest - 10.0 * step for step in range(rng.randint(1, 12))]
    for _ in range(rng.randint(0, 2)):  # gaps: drop a middle record
        if len(times) > 2:
            times.pop(rng.randrange(1, len(times) - 1))
    for _ in range(rng.randint(0, 2)):  # duplicates, exact or within 1e-9
        source = rng.choice(times)
        times.insert(rng.randrange(len(times) + 1),
                     source + rng.choice((0.0, 5e-10, 1e-9)))
    collection_time = newest + rng.choice((0.0, 1e-6, 3.0, 15.0, 40.0))
    if rng.random() < 0.3:  # future-dated, on or past the horizon
        times.insert(0, collection_time + rng.choice((1e-6, 2e-6, 5.0)))
    records = []
    for timestamp in times:
        digest = INFECTED if rng.random() < 0.15 else DIGEST
        tag = core.crypto_backend.mac(
            core.mac_name, key, Measurement(timestamp, digest,
                                            b"").authenticated_payload())
        if rng.random() < 0.1:  # forged
            tag = bytes(len(tag))
        records.append(Measurement(timestamp, digest, tag))
    rng.shuffle(records)
    return records, collection_time


def last_seen_choices(records, rng):
    times = sorted(record.timestamp for record in records)
    return (None, times[0] - 25.0, times[0] - 10.0, times[0], times[0] + 1e-9,
            rng.choice(times), times[len(times) // 2] + 3.0, times[-1],
            times[-1] + 12.5)


def walked_schedule(core, timestamps, last_seen):
    """``check_schedule`` as a plain walk over every record and gap."""
    expected = core.config.measurement_interval
    allowed_gap = expected * (1 + core.schedule_tolerance)
    ordered = sorted(timestamps)
    duplicates = sum(1 for first, second in zip(ordered, ordered[1:])
                     if second - first <= 1e-9)
    anomalies = [f"{duplicates} duplicate timestamp(s) within one "
                 f"collection"] if duplicates else []
    missing, previous = 0, last_seen
    for timestamp in ordered:
        if last_seen is not None and timestamp <= last_seen + 1e-9:
            continue
        if previous is not None and timestamp - previous > allowed_gap:
            missing += max(1, int((timestamp - previous) / expected) - 1)
        previous = timestamp
    return missing, anomalies


def test_judge_reports_equal_the_oracle_on_seeded_histories(core, key):
    rng = random.Random(3005)
    judge = core.device_judge(key)
    seen = set()
    for _ in range(150):
        records, collection_time = seeded_history(core, key, rng)
        wire = CollectResponse(measurements=records).encode()
        decoded = CollectResponse.decode(wire).measurements
        for last_seen in last_seen_choices(records, rng):
            enrollment = Enrollment.create("dev", key, [DIGEST],
                                           last_seen=last_seen)
            # The wire rounds timestamps to microseconds, so the
            # decoded batch is judged against the oracle on its records.
            for measurements in (records, decoded):
                oracle = core.verify_measurements(
                    enrollment, list(measurements), collection_time)
                report = judge.verify_measurements(
                    enrollment, measurements, collection_time)
                assert report.to_row() == oracle.to_row()
                assert report == oracle
                # The shared assessment's fast exits, against walks.
                timestamps = [m.timestamp for m in measurements]
                assert core.check_schedule(timestamps, last_seen) == \
                    walked_schedule(core, timestamps, last_seen)
                verdicts = oracle.verdicts
                assert report.infected_timestamps == [
                    v.measurement.timestamp for v in verdicts
                    if v.authentic and not v.healthy]
                assert report.newest_timestamp == max(
                    (v.measurement.timestamp for v in verdicts
                     if not v.from_future), default=None)
                seen.add(oracle.status)
                seen.update(anomaly.split(" ", 1)[1]
                            for anomaly in oracle.anomalies)
    # Every fast exit and the branch behind it was taken.
    assert seen >= {
        DeviceStatus.HEALTHY, DeviceStatus.INFECTED, DeviceStatus.TAMPERED,
        "duplicate timestamp(s) within one collection",
        "measurement(s) failed MAC verification",
        "measurement(s) are timestamped in the future",
        "expected measurement(s) missing (policy allows 0)"}
