"""End-to-end integration tests combining every layer of the stack."""

import pytest

from repro.adversary import MalwareCampaign, MobileMalware, TamperingMalware
from repro.arch.base import hash_for_mac
from repro.core import (
    CollectResponse,
    DeviceStatus,
    ErasmusConfig,
    ErasmusProver,
    ScheduleKind,
)
from repro.fleet import FleetVerifier
from repro.hydra import build_hydra_architecture
from repro.net import Link, Network, NetworkNode
from repro.sim import SimulationEngine
from repro.smartplus import build_smartplus_architecture


def build_stack(key, firmware, mac_name="keyed-blake2s", architecture="smart+",
                schedule=ScheduleKind.REGULAR, allowed_missing=0):
    config = ErasmusConfig(measurement_interval=10.0, collection_interval=60.0,
                           buffer_slots=16, schedule=schedule,
                           mac_name=mac_name)
    if architecture == "smart+":
        arch = build_smartplus_architecture(key, mac_name=mac_name,
                                            application_size=512)
    else:
        arch = build_hydra_architecture(key, mac_name=mac_name,
                                        application_size=4096,
                                        measurement_buffer_size=4096)
    arch.load_application(firmware)
    healthy = hash_for_mac(mac_name)(arch.read_measured_memory())
    prover = ErasmusProver(arch, config, device_id="device",
                           scheduling_key=key)
    verifier = FleetVerifier(config, allowed_missing=allowed_missing)
    verifier.enroll("device", key, [healthy])
    engine = SimulationEngine()
    prover.attach(engine)
    return config, arch, prover, verifier, engine


@pytest.mark.parametrize("architecture", ["smart+", "hydra"])
@pytest.mark.parametrize("mac_name", ["hmac-sha256", "keyed-blake2s"])
def test_full_cycle_on_both_architectures(key, firmware, architecture,
                                          mac_name):
    _config, _arch, prover, verifier, engine = build_stack(
        key, firmware, mac_name=mac_name, architecture=architecture)
    engine.run(until=120.0)
    response = prover.handle_collect(verifier.create_collect_request())
    report = verifier.verify_collection("device", response, 120.0)
    assert report.status is DeviceStatus.HEALTHY
    assert report.measurement_count >= 6


def test_mobile_malware_campaign_detected_in_history(key, firmware,
                                                     malware_image):
    _config, arch, prover, verifier, engine = build_stack(key, firmware)
    malware = MobileMalware(arch, "device", clean_image=firmware,
                            malicious_image=malware_image)
    campaign = MalwareCampaign(arrival_rate=1 / 120.0, mean_dwell=25.0, seed=8)
    visits = campaign.deploy(engine, malware, horizon=600.0)
    assert visits

    detected_any = False
    for collection_index in range(1, 11):
        collection_time = collection_index * 60.0
        engine.run(until=collection_time)
        response = prover.handle_collect(verifier.create_collect_request())
        report = verifier.verify_collection("device", response,
                                            collection_time)
        if report.status is DeviceStatus.INFECTED:
            detected_any = True
    # Ground truth: at least one visit overlapped a measurement, and the
    # verifier noticed it even though the malware was gone by collection.
    measurement_times = [m.timestamp for m in prover.store.all_measurements()]
    del measurement_times
    assert detected_any
    assert not malware.currently_active


def test_tampering_after_infection_still_incriminates(key, firmware,
                                                      malware_image):
    _config, arch, prover, verifier, engine = build_stack(key, firmware)
    engine.run(until=30.0)
    arch.load_application(malware_image)
    engine.run(until=50.0)
    arch.load_application(firmware)
    # The malware tries to scrub the incriminating records before leaving.
    TamperingMalware(prover.store).delete_latest(3)
    engine.run(until=60.0)
    response = prover.handle_collect(verifier.create_collect_request())
    report = verifier.verify_collection("device", response, 60.0)
    assert report.status in (DeviceStatus.TAMPERED, DeviceStatus.INFECTED)
    assert report.detected_infection()


def test_irregular_schedule_end_to_end(key, firmware):
    _config, _arch, prover, verifier, engine = build_stack(
        key, firmware, schedule=ScheduleKind.IRREGULAR, allowed_missing=2)
    engine.run(until=300.0)
    response = prover.handle_collect(verifier.create_collect_request(k=16))
    report = verifier.verify_collection("device", response, 300.0)
    assert report.status is DeviceStatus.HEALTHY
    assert prover.measurements_taken >= 20


def test_collection_over_simulated_network(key, firmware):
    """The full Figure 2 exchange carried over the packet network."""
    config, _arch, prover, verifier, engine = build_stack(key, firmware)
    engine.run(until=60.0)

    network = Network(engine)
    reports = []

    def prover_receives(node, packet, _time):
        from repro.core.protocol import CollectRequest
        request = CollectRequest.decode(packet.payload)
        response = prover.handle_collect(request)
        node.send(packet.source, response.encode(), kind="collect-response")

    def verifier_receives(_node, packet, time):
        response = CollectResponse.decode(packet.payload)
        reports.append(verifier.verify_collection("device", response, time))

    network.add_node(NetworkNode("verifier", on_receive=verifier_receives))
    network.add_node(NetworkNode("device", on_receive=prover_receives))
    network.add_link(Link("verifier", "device", latency=0.005))

    request = verifier.create_collect_request()
    network.node("verifier").send("device", request.encode(), kind="collect")
    engine.run(until=61.0)

    assert len(reports) == 1
    assert reports[0].status is DeviceStatus.HEALTHY
    assert reports[0].measurement_count == config.measurements_per_collection
    assert network.delivered_packets == 2


# ----------------------------------------------------------------------
# Fleet API end-to-end (the same layers driven through repro.fleet)
# ----------------------------------------------------------------------

def _fleet_profile(firmware):
    from repro.fleet import DeviceProfile
    return DeviceProfile.smartplus(firmware=firmware, application_size=512,
                                   measurement_interval=10.0,
                                   collection_interval=60.0,
                                   buffer_slots=16)


@pytest.mark.parametrize("transport", ["in-process", "simulated-network"])
def test_fleet_round_matches_hand_wired_flow(key, firmware, transport):
    """The facade reproduces the hand-wired prover/verifier outcome."""
    from repro.fleet import Fleet
    del key
    fleet = Fleet.provision(_fleet_profile(firmware), 25,
                            master_secret=b"integration-master",
                            transport=transport)
    fleet.run_until(120.0)
    reports = fleet.collect_all()
    assert len(reports) == 25
    assert all(report.status is DeviceStatus.HEALTHY for report in reports)
    assert all(report.measurement_count >= 6 for report in reports)
    assert fleet.health.healthy_fraction == 1.0


def test_fleet_detects_transient_infection_like_legacy_api(key, firmware,
                                                           malware_image):
    """Mobile malware caught through the facade exactly as in build_stack."""
    from repro.fleet import Fleet
    del key
    fleet = Fleet.provision(_fleet_profile(firmware), 10,
                            master_secret=b"integration-master")
    fleet.run_until(30.0)
    fleet.device("dev-0004").load_application(malware_image)
    fleet.run_until(50.0)
    fleet.device("dev-0004").load_application(firmware)
    fleet.run_until(60.0)
    reports = {report.device_id: report for report in fleet.collect_all()}
    assert reports["dev-0004"].status is DeviceStatus.INFECTED
    assert all(report.status is DeviceStatus.HEALTHY
               for device_id, report in reports.items()
               if device_id != "dev-0004")
