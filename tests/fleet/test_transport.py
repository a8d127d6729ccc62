"""Tests for the transport abstraction: in-process, network, swarm relay."""

import pytest

from repro.core import CollectResponse, decode_response
from repro.fleet import (
    DeviceProfile,
    InProcessTransport,
    SimulatedNetworkTransport,
    SwarmRelayTransport,
    serve_request,
)
from repro.sim import SimulationEngine

FIRMWARE = b"transport-test-firmware"


@pytest.fixture
def profile() -> DeviceProfile:
    return DeviceProfile.smartplus(firmware=FIRMWARE, application_size=256,
                                   measurement_interval=10.0,
                                   collection_interval=60.0,
                                   buffer_slots=8)


def provision_into(transport, profile, engine, count):
    devices = []
    for index in range(count):
        device = profile.provision(f"t-{index}", master_secret=b"master")
        device.prover.attach(engine)
        transport.register(device)
        devices.append(device)
    return devices


def collect_request_bytes(profile) -> bytes:
    from repro.core import CollectRequest
    return CollectRequest(k=profile.config.measurements_per_collection).encode()


def test_serve_request_dispatches_collect(profile):
    device = profile.provision("solo", master_secret=b"master")
    engine = SimulationEngine()
    device.prover.attach(engine)
    engine.run(until=30.0)
    payload = serve_request(device.prover, collect_request_bytes(profile))
    response = decode_response(payload)
    assert isinstance(response, CollectResponse)
    assert len(response.measurements) == 3


@pytest.mark.parametrize("transport_cls", [InProcessTransport,
                                           SimulatedNetworkTransport,
                                           SwarmRelayTransport])
def test_same_exchange_code_runs_on_every_transport(profile, transport_cls):
    engine = SimulationEngine()
    transport = transport_cls(engine)
    provision_into(transport, profile, engine, 5)
    engine.run(until=60.0)

    request = collect_request_bytes(profile)
    responses = transport.exchange_many(
        {f"t-{index}": request for index in range(5)})
    assert set(responses) == {f"t-{index}" for index in range(5)}
    for payload in responses.values():
        assert payload is not None
        response = decode_response(payload)
        assert len(response.measurements) == 6


def test_duplicate_registration_rejected(profile):
    engine = SimulationEngine()
    transport = InProcessTransport(engine)
    [device] = provision_into(transport, profile, engine, 1)
    with pytest.raises(ValueError):
        transport.register(device)


def test_unregistered_device_raises(profile):
    engine = SimulationEngine()
    for transport in (InProcessTransport(engine),
                      SimulatedNetworkTransport(engine)):
        with pytest.raises(KeyError):
            transport.exchange("ghost", collect_request_bytes(profile))


def test_in_process_returns_none_on_garbage(profile):
    engine = SimulationEngine()
    transport = InProcessTransport(engine)
    provision_into(transport, profile, engine, 1)
    assert transport.exchange("t-0", b"\xff\xff\xff") is None


def test_network_transport_costs_virtual_time(profile):
    engine = SimulationEngine()
    transport = SimulatedNetworkTransport(engine, latency=0.05)
    provision_into(transport, profile, engine, 3)
    engine.run(until=60.0)
    before = engine.now
    responses = transport.exchange_many(
        {f"t-{index}": collect_request_bytes(profile) for index in range(3)})
    assert all(payload is not None for payload in responses.values())
    # One request/response round trip over 50 ms links: ≥ 100 ms.
    assert engine.now >= before + 0.1
    # Round trips overlapped instead of running sequentially.
    assert engine.now < before + 3 * 0.3


def test_network_transport_reports_lost_responses(profile):
    engine = SimulationEngine()
    transport = SimulatedNetworkTransport(engine, loss_probability=1.0,
                                          round_timeout=5.0)
    provision_into(transport, profile, engine, 2)
    engine.run(until=60.0)
    responses = transport.exchange_many(
        {"t-0": collect_request_bytes(profile),
         "t-1": collect_request_bytes(profile)})
    assert responses == {"t-0": None, "t-1": None}


def test_swarm_relay_builds_multi_hop_tree(profile):
    engine = SimulationEngine()
    transport = SwarmRelayTransport(engine, fanout=2, hop_latency=0.01)
    provision_into(transport, profile, engine, 7)
    depths = [transport.depth_of(f"t-{index}") for index in range(7)]
    # Fanout 2: two devices at depth 1, four at depth 2, one at depth 3.
    assert depths[:2] == [1, 1]
    assert max(depths) >= 2
    engine.run(until=60.0)
    before = engine.now
    responses = transport.exchange_many(
        {f"t-{index}": collect_request_bytes(profile) for index in range(7)})
    assert all(payload is not None for payload in responses.values())
    # Deeper devices pay more hops, so the round takes longer than one
    # direct round trip.
    assert engine.now > before + 2 * 0.01


def test_failed_register_leaves_tree_shape_unchanged(profile):
    """A failed registration must not skew later devices' parent slots."""
    engine = SimulationEngine()
    transport = SwarmRelayTransport(engine, fanout=2, hop_latency=0.01)
    control = SwarmRelayTransport(SimulationEngine(), fanout=2,
                                  hop_latency=0.01)
    provision_into(transport, profile, engine, 3)
    provision_into(control, profile, control.engine, 3)

    doomed = profile.provision("t-doomed", master_secret=b"master")
    original_add_link = transport.network.add_link

    def exploding_add_link(link):
        raise RuntimeError("link setup failed")

    transport.network.add_link = exploding_add_link
    with pytest.raises(RuntimeError):
        transport.register(doomed)
    transport.network.add_link = original_add_link

    # Nothing about the failed device stuck around...
    with pytest.raises(KeyError):
        transport.network.node("t-doomed")
    with pytest.raises(KeyError):
        transport.exchange("t-doomed", collect_request_bytes(profile))

    # ...and the devices registered afterwards parent exactly as they
    # would have without the failure.
    for index in range(3, 7):
        device = profile.provision(f"t-{index}", master_secret=b"master")
        device.prover.attach(engine)
        transport.register(device)
        twin = profile.provision(f"t-{index}", master_secret=b"master")
        twin.prover.attach(control.engine)
        control.register(twin)
    for index in range(7):
        assert transport.depth_of(f"t-{index}") == \
            control.depth_of(f"t-{index}")
    assert transport.network.neighbors(f"t-0") == \
        control.network.neighbors(f"t-0")


def test_stale_response_from_timed_out_round_is_discarded(profile):
    """A response still in flight when its round times out must not be
    recorded as the next round's answer."""
    engine = SimulationEngine()
    # 1 s one-way latency with a 0.5 s timeout: round 1 expires while
    # the prover's response is still in the air.
    transport = SimulatedNetworkTransport(engine, latency=1.0,
                                          round_timeout=0.5)
    provision_into(transport, profile, engine, 1)
    engine.run(until=30.0)

    first = transport.exchange("t-0", collect_request_bytes(profile))
    assert first is None  # timed out, response still in flight

    # Let the fleet measure more history, then run a patient round: the
    # stale round-1 response is stepped through and discarded, and the
    # fresh round-2 response (with the extra measurements) is returned.
    engine.run(until=60.0)
    transport.round_timeout = 30.0
    second = transport.exchange("t-0", collect_request_bytes(profile))
    assert second is not None
    response = decode_response(second)
    assert len(response.measurements) == 6  # history as of t>=60, not t=30


def test_sync_round_deregisters_even_when_a_stepped_event_raises(profile):
    """An exception mid-drive must not leak the pending round."""
    engine = SimulationEngine()
    transport = SimulatedNetworkTransport(engine, latency=0.05)
    provision_into(transport, profile, engine, 1)
    engine.run(until=30.0)

    def explode():
        raise RuntimeError("handler died mid-round")

    engine.schedule(engine.now + 0.001, explode)
    with pytest.raises(RuntimeError):
        transport.exchange("t-0", collect_request_bytes(profile))
    assert not transport._pending  # the aborted round was deregistered

    # The aborted round's traffic is now stale: a later round steps
    # through it, rejects it, and still gets its own fresh answer.
    second = transport.exchange("t-0", collect_request_bytes(profile))
    assert second is not None
    assert transport.stale_responses_rejected == 1
