"""Tests for the ERASMUS verifier."""

import pytest

from repro.adversary import TamperingMalware
from repro.core import CollectResponse, DeviceStatus, Enrollment, \
    Measurement, VerificationCore
from repro.fleet import FleetVerifier, MemorySink


def run_schedule(prover, engine, until):
    prover.attach(engine)
    engine.run(until=until)


def collect(prover, verifier, time, k=None):
    response = prover.handle_collect(verifier.create_collect_request(k))
    return verifier.verify_collection(prover.device_id, response, time)


def test_healthy_history_verifies(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    report = collect(prover, verifier, 60.0)
    assert report.status is DeviceStatus.HEALTHY
    assert report.measurement_count == 6
    assert report.freshness == pytest.approx(0.0)
    assert not report.detected_infection()


def test_unenrolled_device_rejected(erasmus_setup, config):
    prover, _verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 30.0)
    stranger = FleetVerifier(config)
    response = prover.handle_collect(stranger.create_collect_request())
    with pytest.raises(KeyError):
        stranger.verify_collection(prover.device_id, response, 30.0)


def test_infected_measurements_detected(erasmus_setup, malware_image,
                                        firmware):
    prover, verifier, engine, arch = erasmus_setup
    run_schedule(prover, engine, 30.0)
    arch.load_application(malware_image)
    engine.run(until=60.0)
    arch.load_application(firmware)
    engine.run(until=90.0)
    report = collect(prover, verifier, 90.0)
    assert report.status is DeviceStatus.INFECTED
    assert set(report.infected_timestamps) == {40.0, 50.0, 60.0}


def test_empty_response_is_tampered(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    report = verifier.verify_collection(prover.device_id, CollectResponse(),
                                        60.0)
    assert report.status is DeviceStatus.TAMPERED


def test_forged_mac_detected(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    response = prover.handle_collect(verifier.create_collect_request())
    forged = [Measurement(m.timestamp, m.digest, b"\x00" * len(m.tag))
              for m in response.measurements]
    report = verifier.verify_collection(prover.device_id,
                                        CollectResponse(forged), 60.0)
    assert report.status is DeviceStatus.TAMPERED
    assert any("MAC" in anomaly for anomaly in report.anomalies)


def test_deleted_latest_measurements_detected(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    TamperingMalware(prover.store).delete_latest(3)
    report = collect(prover, verifier, 60.0)
    assert report.status is DeviceStatus.TAMPERED
    assert report.missing_intervals >= 1


def test_deleted_middle_measurement_detected(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    slot = prover.store.slot_for_time(30.0)
    prover.store.overwrite_slot(slot, None)
    report = collect(prover, verifier, 60.0)
    assert report.status is DeviceStatus.TAMPERED


def test_allowed_missing_policy_tolerates_gaps(erasmus_setup, config, key):
    prover, strict_verifier, engine, arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    slot = prover.store.slot_for_time(30.0)
    prover.store.overwrite_slot(slot, None)

    lenient_verifier = FleetVerifier(config, allowed_missing=2)
    healthy = strict_verifier.healthy_digests(prover.device_id)
    lenient_verifier.enroll(prover.device_id, key, healthy)
    response = prover.handle_collect(lenient_verifier.create_collect_request())
    report = lenient_verifier.verify_collection(prover.device_id, response,
                                                60.0)
    assert report.status is DeviceStatus.HEALTHY
    assert report.missing_intervals == 1
    del arch


def test_duplicate_timestamps_detected(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    TamperingMalware(prover.store).replay_old_measurement()
    report = collect(prover, verifier, 60.0)
    assert report.status is DeviceStatus.TAMPERED


def test_future_timestamp_detected(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    response = prover.handle_collect(verifier.create_collect_request())
    # Collection claimed to happen before the newest measurement.
    report = verifier.verify_collection(prover.device_id, response, 45.0)
    assert report.status is DeviceStatus.TAMPERED


def test_redundant_recollection_is_not_flagged(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    first = collect(prover, verifier, 60.0)
    engine.run(until=70.0)
    # Collecting again very soon re-fetches mostly known measurements;
    # the paper calls this redundant, not suspicious.
    second = collect(prover, verifier, 70.0)
    assert first.status is DeviceStatus.HEALTHY
    assert second.status is DeviceStatus.HEALTHY


def test_reports_accumulate_per_device(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    sink = MemorySink()
    verifier.add_sink(sink)
    run_schedule(prover, engine, 60.0)
    collect(prover, verifier, 60.0)
    engine.run(until=120.0)
    collect(prover, verifier, 120.0)
    assert [report.device_id for report in sink.reports] == \
        [prover.device_id] * 2
    assert verifier._last_collection_time.get(prover.device_id) == 120.0


def test_verifier_parameter_validation(config):
    with pytest.raises(ValueError):
        FleetVerifier(config, schedule_tolerance=1.5)
    with pytest.raises(ValueError):
        FleetVerifier(config, allowed_missing=-1)
    verifier = FleetVerifier(config)
    with pytest.raises(ValueError):
        verifier.enroll("dev", b"", [])


def test_enrollment_key_change_check_is_constant_time(erasmus_setup, key,
                                                     monkeypatch):
    """After a re-enrollment, the device's cached judge is checked
    against the new key through compare_digests."""
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 30.0)
    collect(prover, verifier, 30.0)
    verifier.enroll(prover.device_id, key,
                    verifier.healthy_digests(prover.device_id))
    calls = []
    real = verifier.core.crypto_backend.compare_digests

    def recorder(left, right):
        calls.append((bytes(left), bytes(right)))
        return real(left, right)

    monkeypatch.setattr(verifier.core.crypto_backend, "compare_digests",
                        recorder)
    collect(prover, verifier, 30.0)
    assert (key, key) in calls


# ----------------------------------------------------------------------
# verify_collection takes the round's verdict path
# ----------------------------------------------------------------------

def _forge_macs(store):
    for m in store.latest(store.slots):
        store.overwrite_slot(store.slot_for_time(m.timestamp), Measurement(
            m.timestamp, m.digest, b"\x00" * len(m.tag)))


#: Name -> (tampering applied to the prover's buffer, collection time).
RESPONSES = {
    "healthy": (None, 60.0),
    "forged-mac": (_forge_macs, 60.0),
    "deleted-newest": (
        lambda store: TamperingMalware(store).delete_latest(3), 60.0),
    "deleted-middle": (
        lambda store: store.overwrite_slot(store.slot_for_time(30.0), None),
        60.0),
    "duplicate-timestamp": (
        lambda store: TamperingMalware(store).replay_old_measurement(), 60.0),
    "future-timestamp": (None, 45.0),
    "infected": (None, 60.0),
}


@pytest.mark.parametrize("reference_raises", [False, True],
                         ids=["reference-live", "reference-raises"])
@pytest.mark.parametrize("name", list(RESPONSES))
def test_verify_collection_matches_the_reference_oracle(
        erasmus_setup, key, malware_image, firmware, monkeypatch, name,
        reference_raises):
    """verify_collection judges through the round's DeviceJudge, and its
    report equals the reference oracle's on a twin enrollment."""
    prover, verifier, engine, arch = erasmus_setup
    tamper, collection_time = RESPONSES[name]
    run_schedule(prover, engine, 30.0)
    if name == "infected":
        arch.load_application(malware_image)
        engine.run(until=45.0)
        arch.load_application(firmware)
    engine.run(until=60.0)
    if tamper is not None:
        tamper(prover.store)
    response = prover.handle_collect(verifier.create_collect_request())
    twin = Enrollment.create(prover.device_id, key,
                             verifier.healthy_digests(prover.device_id))
    reference = VerificationCore(verifier.config).verify_measurements(
        twin, list(response.measurements), collection_time)
    if reference_raises:
        def _refuse(*_args, **_kwargs):
            raise AssertionError("the reference oracle was consulted")
        monkeypatch.setattr(VerificationCore, "verify_measurements", _refuse)

    report = verifier.verify_collection(prover.device_id, response,
                                        collection_time)
    assert report.status is reference.status
    assert report.anomalies == reference.anomalies
    assert report.verdicts == reference.verdicts
    assert report.freshness == reference.freshness
    assert report.missing_intervals == reference.missing_intervals
    expected = {"healthy": DeviceStatus.HEALTHY,
                "infected": DeviceStatus.INFECTED}
    assert report.status is expected.get(name, DeviceStatus.TAMPERED)
