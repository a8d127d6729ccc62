"""The verifier's float epsilons, pinned at their exact boundaries.

Each check compares a timestamp against a bound plus a fixed epsilon.
These tests put a timestamp exactly on the bound and one ulp
(``math.nextafter``) to either side, so a changed epsilon or a flipped
``<``/``<=`` fails here before it silently moves a verdict.
"""

import math

import pytest

from repro.core import (
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
