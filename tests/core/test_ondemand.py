"""Tests for ERASMUS+OD and the on-demand attestation baseline.

The pure on-demand (SMART+-style) baseline is ERASMUS+OD with ``k=0``:
the prover authenticates the request and returns one fresh measurement
and no history; :meth:`VerificationCore.verify_ondemand` judges both.
"""

import pytest

from repro.arch.base import hash_for_mac
from repro.core import DeviceStatus, ErasmusProver, OnDemandRequest
from repro.fleet import FleetVerifier
from repro.sim import SimulationEngine


def od_request(verifier, key, request_time, k):
    """An authenticated ERASMUS+OD request for ``k`` history records."""
    return OnDemandRequest(request_time, k,
                           verifier.core.request_tag(key, request_time))


def judge(verifier, device_id, request, response, collection_time):
    """Judge an ERASMUS+OD response against the device's enrollment."""
    return verifier.core.verify_ondemand(
        verifier._enrollment_for(device_id), request, response,
        collection_time)


class TestErasmusPlusOD:
    def test_valid_request_returns_fresh_and_history(self, erasmus_setup,
                                                     key, config):
        prover, verifier, engine, _arch = erasmus_setup
        prover.attach(engine)
        engine.run(until=60.0)
        request = od_request(verifier, key, 60.0,
                             config.measurements_per_collection)
        response = prover.handle_ondemand(request, time=61.0)
        assert response.fresh is not None
        assert response.fresh.timestamp == pytest.approx(61.0)
        assert len(response.measurements) >= 5
        report = judge(verifier, prover.device_id, request, response, 61.0)
        assert report.status is DeviceStatus.HEALTHY
        assert report.freshness == pytest.approx(0.0)

    def test_request_with_bad_mac_is_refused(self, erasmus_setup):
        prover, _verifier, engine, _arch = erasmus_setup
        prover.attach(engine)
        engine.run(until=30.0)
        bogus = OnDemandRequest(request_time=30.0, k=3, tag=b"\x00" * 32)
        response = prover.handle_ondemand(bogus, time=31.0)
        assert response.fresh is None
        assert response.measurements == []

    def test_replayed_request_is_refused(self, erasmus_setup, key):
        prover, verifier, engine, _arch = erasmus_setup
        prover.attach(engine)
        engine.run(until=30.0)
        request = od_request(verifier, key, 30.0, 6)
        first = prover.handle_ondemand(request, time=31.0)
        assert first.fresh is not None
        replay = prover.handle_ondemand(request, time=32.0)
        assert replay.fresh is None

    def test_refusal_is_flagged_by_verifier(self, erasmus_setup, key):
        prover, verifier, engine, _arch = erasmus_setup
        prover.attach(engine)
        engine.run(until=30.0)
        request = od_request(verifier, key, 30.0, 6)
        bogus = OnDemandRequest(request.request_time, request.k, b"\x00" * 32)
        response = prover.handle_ondemand(bogus, time=31.0)
        report = judge(verifier, prover.device_id, request, response, 31.0)
        assert report.status is DeviceStatus.TAMPERED

    def test_fresh_measurement_detects_current_infection(self, erasmus_setup,
                                                         key, malware_image):
        prover, verifier, engine, arch = erasmus_setup
        prover.attach(engine)
        engine.run(until=30.0)
        arch.load_application(malware_image)
        request = od_request(verifier, key, 30.0, 6)
        response = prover.handle_ondemand(request, time=31.0)
        report = judge(verifier, prover.device_id, request, response, 31.0)
        assert report.status is DeviceStatus.INFECTED


class TestOnDemandBaseline:
    """ERASMUS+OD with ``k=0``: one fresh measurement, no history."""

    @pytest.fixture
    def ondemand_setup(self, key, config, smartplus_arch):
        healthy = hash_for_mac(config.mac_name)(
            smartplus_arch.read_measured_memory())
        prover = ErasmusProver(smartplus_arch, config, device_id="od-dev")
        verifier = FleetVerifier(config)
        verifier.enroll("od-dev", key, [healthy])
        return prover, verifier, smartplus_arch

    def test_valid_attestation(self, ondemand_setup, key):
        prover, verifier, _arch = ondemand_setup
        request = od_request(verifier, key, 10.0, 0)
        response = prover.handle_ondemand(request, time=11.0)
        assert response.measurements == []
        report = judge(verifier, "od-dev", request, response, 11.0)
        assert report.status is DeviceStatus.HEALTHY
        assert prover.measurements_taken == 1

    def test_dos_request_refused_without_measurement(self, ondemand_setup):
        prover, _verifier, _arch = ondemand_setup
        bogus = OnDemandRequest(request_time=10.0, k=0, tag=b"\x11" * 32)
        response = prover.handle_ondemand(bogus, time=11.0)
        assert response.fresh is None
        assert prover.measurements_taken == 0
        assert prover.collections_served == 0

    def test_current_infection_detected(self, ondemand_setup, key,
                                        malware_image):
        prover, verifier, arch = ondemand_setup
        arch.load_application(malware_image)
        request = od_request(verifier, key, 10.0, 0)
        response = prover.handle_ondemand(request, time=11.0)
        report = judge(verifier, "od-dev", request, response, 11.0)
        assert report.status is DeviceStatus.INFECTED

    def test_mobile_malware_missed_by_on_demand(self, ondemand_setup, key,
                                                malware_image, firmware):
        # Malware present between attestations leaves no trace for the
        # on-demand baseline: this is the gap ERASMUS closes (Figure 1).
        prover, verifier, arch = ondemand_setup
        arch.load_application(malware_image)
        arch.load_application(firmware)   # malware covered its tracks
        request = od_request(verifier, key, 20.0, 0)
        response = prover.handle_ondemand(request, time=21.0)
        report = judge(verifier, "od-dev", request, response, 21.0)
        assert report.status is DeviceStatus.HEALTHY

    def test_no_response_reported(self, ondemand_setup, key):
        # A refused request carries no fresh measurement: TAMPERED.
        prover, verifier, _arch = ondemand_setup
        request = od_request(verifier, key, 10.0, 0)
        refusal = prover.handle_ondemand(
            OnDemandRequest(request.request_time, 0, b"\x00" * 32), time=11.0)
        report = judge(verifier, "od-dev", request, refusal, 11.0)
        assert report.status is DeviceStatus.TAMPERED
        assert "prover returned no fresh measurement" in report.anomalies

    def test_attestation_runtime_includes_request_auth(self, ondemand_setup):
        _prover, _verifier, arch = ondemand_setup
        memory, mac = arch.measured_memory_bytes(), arch.mac_name
        assert arch.cost_model.attestation_runtime(memory, mac,
                                                   on_demand=True) > \
            arch.cost_model.measurement_runtime(memory, mac)


def test_erasmus_vs_ondemand_history_asymmetry(key, config, smartplus_arch,
                                               malware_image, firmware):
    """The central comparison: same transient infection, different verdicts."""
    healthy = hash_for_mac(config.mac_name)(
        smartplus_arch.read_measured_memory())
    prover = ErasmusProver(smartplus_arch, config, device_id="dev")
    verifier = FleetVerifier(config)
    verifier.enroll("dev", key, [healthy])

    engine = SimulationEngine()
    prover.attach(engine)
    engine.run(until=30.0)
    smartplus_arch.load_application(malware_image)
    engine.run(until=45.0)
    smartplus_arch.load_application(firmware)
    engine.run(until=60.0)

    # ERASMUS sees the infection in its history.
    response = prover.handle_collect(verifier.create_collect_request())
    erasmus_report = verifier.verify_collection("dev", response, 60.0)
    assert erasmus_report.status is DeviceStatus.INFECTED

    # An on-demand attestation a moment later sees a clean device.
    request = od_request(verifier, key, 61.0, 0)
    od_report = judge(verifier, "dev", request,
                      prover.handle_ondemand(request, time=61.0), 61.0)
    assert od_report.status is DeviceStatus.HEALTHY

    # The same request with history carries the infection again.
    request = od_request(verifier, key, 63.0, 8)
    with_history = judge(verifier, "dev", request,
                         prover.handle_ondemand(request, time=63.0), 63.0)
    assert with_history.status is DeviceStatus.INFECTED
