"""Tests for mobility-aware swarm relay collections.

Covers the per-round rewiring contract: the relay topology is sampled
from the mobility model before every round, speed 0 reproduces a static
geometric graph, rounds are deterministic, unreachable devices surface
as lost responses rather than errors, and stale/lost accounting stays
consistent under churn.
"""

import collections

import pytest

from repro.core import CollectRequest
from repro.fleet import DeviceProfile, Fleet, SwarmRelayTransport
from repro.fleet.transport import VERIFIER_NODE
from repro.net.mobility import RandomWaypointMobility
from repro.sim import SimulationEngine

FIRMWARE = b"mobile-relay-test-firmware"


@pytest.fixture
def profile() -> DeviceProfile:
    return DeviceProfile.smartplus(firmware=FIRMWARE, application_size=256,
                                   measurement_interval=10.0,
                                   collection_interval=60.0,
                                   buffer_slots=8)


def make_mobility(count, speed, seed=21, area_size=120.0, radio_range=45.0,
                  link_latency=0.002):
    names = [f"t-{index}" for index in range(count)]
    return RandomWaypointMobility(names, area_size=area_size,
                                  radio_range=radio_range, speed=speed,
                                  seed=seed, link_latency=link_latency)


def provision_into(transport, profile, engine, count):
    devices = []
    for index in range(count):
        device = profile.provision(f"t-{index}", master_secret=b"master")
        device.prover.attach(engine)
        transport.register(device)
        devices.append(device)
    return devices


def request_bytes(profile) -> bytes:
    return CollectRequest(k=profile.config.measurements_per_collection).encode()


def gateway_component(mobility, time):
    """Devices connected to the pinned verifier in the geometric graph."""
    adjacency = collections.defaultdict(set)
    for link in mobility.links_at(time):
        adjacency[link.node_a].add(link.node_b)
        adjacency[link.node_b].add(link.node_a)
    seen = {VERIFIER_NODE}
    frontier = [VERIFIER_NODE]
    while frontier:
        current = frontier.pop()
        for neighbor in adjacency[current]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    seen.discard(VERIFIER_NODE)
    return seen


def test_gateway_is_pinned_without_mutating_the_callers_model():
    mobility = make_mobility(8, speed=0.0)
    engine = SimulationEngine()
    transport = SwarmRelayTransport(engine, mobility=mobility)
    # The transport samples a private fork with the gateway pinned at
    # the area center; the caller's model stays gateway-free, so e.g. a
    # cost-model comparison run over it sees no phantom static relay.
    assert transport.mobility is not mobility
    assert VERIFIER_NODE in transport.mobility.pinned_names()
    gateway = transport.mobility._pinned[VERIFIER_NODE]
    assert (gateway.x, gateway.y) == (60.0, 60.0)
    assert mobility.pinned_names() == []
    links = {name for link in mobility.links_at(0.0)
             for name in link.endpoints()}
    assert VERIFIER_NODE not in links
    # A model that pre-pins the gateway itself is adopted as-is (and
    # cannot be moved by gateway_position).
    pinned = make_mobility(8, speed=0.0)
    pinned.pin(VERIFIER_NODE, 30.0, 30.0)
    transport = SwarmRelayTransport(SimulationEngine(), mobility=pinned)
    assert transport.mobility is pinned
    with pytest.raises(ValueError):
        SwarmRelayTransport(SimulationEngine(), mobility=pinned,
                            gateway_position=(10.0, 10.0))


def test_register_rejects_devices_outside_the_mobility_model(profile):
    mobility = make_mobility(2, speed=0.0)
    engine = SimulationEngine()
    transport = SwarmRelayTransport(engine, mobility=mobility)
    stranger = profile.provision("not-in-model", master_secret=b"master")
    with pytest.raises(ValueError):
        transport.register(stranger)


def test_speed_zero_matches_the_static_geometric_graph(profile):
    """At speed 0 every round covers exactly the gateway's component."""
    count = 14
    mobility = make_mobility(count, speed=0.0, radio_range=30.0)
    engine = SimulationEngine()
    transport = SwarmRelayTransport(engine, mobility=mobility)
    provision_into(transport, profile, engine, count)
    engine.run(until=30.0)

    expected = gateway_component(transport.mobility, engine.now)
    assert expected  # dense enough that someone is connected
    assert len(expected) < count or expected == {f"t-{i}"
                                                 for i in range(count)}

    request = request_bytes(profile)
    for _round in range(3):
        responses = transport.exchange_many(
            {f"t-{index}": request for index in range(count)})
        answered = {device_id for device_id, payload in responses.items()
                    if payload is not None}
        assert answered == expected  # same coverage, round after round
    assert transport.rewires == 3
    assert set(transport.reachable_ids()) == expected


def test_rewire_tracks_the_mobility_model_each_round(profile):
    count = 12
    mobility = make_mobility(count, speed=8.0, radio_range=35.0)
    engine = SimulationEngine()
    transport = SwarmRelayTransport(engine, mobility=mobility)
    provision_into(transport, profile, engine, count)
    engine.run(until=30.0)

    request = request_bytes(profile)
    edges_per_round = []
    for _round in range(3):
        transport.exchange_many(
            {f"t-{index}": request for index in range(count)})
        edges_per_round.append(
            frozenset(tuple(sorted((node, neighbour)))
                      for node, neighbours
                      in transport.network.adjacency.items()
                      for neighbour in neighbours))
        engine.run(until=engine.now + 20.0)  # let the swarm move
    assert transport.rewires >= 3
    # A fast swarm does not keep the same topology for three rounds.
    assert len(set(edges_per_round)) > 1


def test_mobile_rounds_are_deterministic(profile):
    """Two identical setups produce identical rounds, stamp for stamp."""

    def run_rounds():
        count = 10
        mobility = make_mobility(count, speed=6.0)
        engine = SimulationEngine()
        transport = SwarmRelayTransport(engine, mobility=mobility,
                                        rewire_interval=0.05)
        provision_into(transport, profile, engine, count)
        engine.run(until=30.0)
        outcomes = []
        for _round in range(2):
            responses = transport.exchange_many(
                {f"t-{index}": request_bytes(profile)
                 for index in range(count)})
            outcomes.append({device_id: payload is not None
                             for device_id, payload in responses.items()})
            engine.run(until=engine.now + 10.0)
        return outcomes, engine.now, transport.stale_responses_rejected

    assert run_rounds() == run_rounds()


def test_unreachable_devices_surface_as_lost_not_as_errors(profile):
    """Devices outside the gateway component are lost in RoundStats."""
    count = 12
    # A tiny radio range strands most of the swarm away from the gateway.
    names = [f"dev-{index:04d}" for index in range(count)]
    mobility = RandomWaypointMobility(names, area_size=200.0,
                                      radio_range=25.0, speed=0.0, seed=5)
    fleet = Fleet.provision(
        profile, count, master_secret=b"master",
        transport=lambda engine: SwarmRelayTransport(engine,
                                                     mobility=mobility))
    with fleet:
        fleet.run_until(30.0)
        reports = fleet.collect_all(batch_size=count)
    stats = reports.stats
    assert stats.requests_sent == count
    assert stats.responses_received + stats.responses_lost == count
    assert stats.responses_lost > 0  # someone is stranded at this range
    no_data = {report.device_id for report in reports
               if report.status.name == "NO_DATA"}
    assert len(no_data) == stats.responses_lost
    assert fleet.transport.network.in_flight_packets == 0


def test_stale_and_lost_accounting_stays_consistent_under_churn(profile):
    """Fast mobility with in-round rewires: every packet is accounted."""
    count = 12
    # Mobile links are built from the mobility model, so the per-hop
    # latency that stretches the round past the rewire ticks (and the
    # timeout) is configured there, not on the transport.
    mobility = make_mobility(count, speed=10.0, radio_range=40.0,
                             area_size=100.0, link_latency=0.05)
    engine = SimulationEngine()
    transport = SwarmRelayTransport(engine, round_timeout=0.2,
                                    mobility=mobility,
                                    rewire_interval=0.04)
    provision_into(transport, profile, engine, count)
    engine.run(until=30.0)

    request = request_bytes(profile)
    for _round in range(4):
        responses = transport.exchange_many(
            {f"t-{index}": request for index in range(count)})
        answered = sum(1 for payload in responses.values()
                       if payload is not None)
        assert 0 <= answered <= count
        engine.run(until=engine.now + 5.0)  # drain stragglers, move on

    network = transport.network
    assert network.in_flight_packets == 0  # every admitted packet settled
    assert transport.stale_responses_rejected >= 0
    assert not transport._pending
    # In-round rewires happened on top of the per-round ones.
    assert transport.rewires > 4


def test_depth_and_reachability_are_time_dependent(profile):
    count = 10
    mobility = make_mobility(count, speed=8.0, radio_range=35.0)
    engine = SimulationEngine()
    transport = SwarmRelayTransport(engine, mobility=mobility)
    provision_into(transport, profile, engine, count)

    transport.rewire(0.0)
    reachable_now = set(transport.reachable_ids())
    for device_id in reachable_now:
        assert transport.depth_of(device_id) >= 1
    stranded = [f"t-{index}" for index in range(count)
                if f"t-{index}" not in reachable_now]
    for device_id in stranded:
        assert not transport.is_reachable(device_id)
        with pytest.raises(KeyError):
            transport.depth_of(device_id)

    engine.run(until=40.0)
    transport.rewire()
    later = set(transport.reachable_ids())
    # The question "how deep is this device" has a different answer at a
    # different time on a fast swarm.
    assert later != reachable_now or transport.rewires == 2


def test_rewire_parameter_validation():
    engine = SimulationEngine()
    with pytest.raises(ValueError):
        SwarmRelayTransport(engine, rewire_interval=0.5)  # no mobility
    with pytest.raises(ValueError):
        SwarmRelayTransport(engine, gateway_position=(10.0, 10.0))
    mobility = make_mobility(4, speed=1.0)
    with pytest.raises(ValueError):
        SwarmRelayTransport(engine, mobility=mobility, rewire_interval=0.0)
    static = SwarmRelayTransport(engine)
    with pytest.raises(RuntimeError):
        static.rewire()


def test_abc_only_mobility_model_covering_the_gateway_works(profile):
    """A model satisfying just the ABC works if it handles the gateway."""
    from repro.net.link import Link
    from repro.net.mobility import MobilityModel

    class StarOfGateway(MobilityModel):
        def __init__(self, count):
            self._names = [f"t-{index}" for index in range(count)]

        def device_names(self):
            return [VERIFIER_NODE] + list(self._names)

        def links_at(self, time):
            del time
            return [Link(VERIFIER_NODE, name, latency=0.001)
                    for name in self._names]

    engine = SimulationEngine()
    transport = SwarmRelayTransport(engine,
                                    mobility=StarOfGateway(4))
    provision_into(transport, profile, engine, 4)
    engine.run(until=30.0)
    responses = transport.exchange_many(
        {f"t-{index}": request_bytes(profile) for index in range(4)})
    assert all(payload is not None for payload in responses.values())
    # The gateway is the model's business: the transport must not try
    # to move it.
    with pytest.raises(ValueError):
        SwarmRelayTransport(SimulationEngine(), mobility=StarOfGateway(4),
                            gateway_position=(1.0, 1.0))
