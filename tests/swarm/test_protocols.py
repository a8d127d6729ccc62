"""Tests for the swarm attestation protocols under mobility."""

import pytest

from repro.net.mobility import RandomWaypointMobility
from repro.swarm import (
    ErasmusSwarmCollection,
    LisaAlphaProtocol,
    LisaSelfProtocol,
    QoSALevel,
    SedaProtocol,
    build_swarm,
)


def make_mobility(names, speed, seed=3):
    return RandomWaypointMobility(names, area_size=120.0, radio_range=45.0,
                                  speed=speed, seed=seed)


@pytest.fixture
def swarm():
    return build_swarm(25, memory_bytes=10 * 1024)


def names_of(swarm):
    return [device.device_id for device in swarm]


def test_static_swarm_fully_attested_by_all_protocols(swarm):
    for protocol in (SedaProtocol(), LisaAlphaProtocol(), LisaSelfProtocol(),
                     ErasmusSwarmCollection()):
        mobility = make_mobility(names_of(swarm), speed=0.0)
        result = protocol.run(swarm, mobility, gateway="dev0")
        assert result.coverage == 1.0, protocol.name
        assert not result.failed_ids


def test_on_demand_duration_dominated_by_measurement(swarm):
    mobility = make_mobility(names_of(swarm), speed=0.0)
    result = LisaAlphaProtocol().run(swarm, mobility, gateway="dev0")
    assert result.duration >= swarm[0].compute_time


def test_erasmus_collection_orders_of_magnitude_faster(swarm):
    on_demand = LisaAlphaProtocol().run(
        swarm, make_mobility(names_of(swarm), speed=0.0), gateway="dev0")
    erasmus = ErasmusSwarmCollection().run(
        swarm, make_mobility(names_of(swarm), speed=0.0), gateway="dev0")
    assert erasmus.duration < on_demand.duration / 10


def test_mobility_degrades_on_demand_but_not_erasmus(swarm):
    on_demand_coverage = []
    erasmus_coverage = []
    for seed in (3, 4, 5):
        on_demand = LisaAlphaProtocol().run(
            swarm, make_mobility(names_of(swarm), speed=6.0, seed=seed),
            gateway="dev0")
        erasmus = ErasmusSwarmCollection().run(
            swarm, make_mobility(names_of(swarm), speed=6.0, seed=seed),
            gateway="dev0")
        on_demand_coverage.append(on_demand.coverage)
        erasmus_coverage.append(erasmus.coverage)
    assert sum(erasmus_coverage) > sum(on_demand_coverage)
    assert min(erasmus_coverage) > 0.9


def test_seda_aggregation_loses_subtrees(swarm):
    # With aggregation, a broken link near the gateway can cost many
    # devices at once; SEDA coverage is never better than LISA-alpha's.
    for seed in (3, 7, 9):
        seda = SedaProtocol().run(
            swarm, make_mobility(names_of(swarm), speed=6.0, seed=seed),
            gateway="dev0")
        lisa = LisaAlphaProtocol().run(
            swarm, make_mobility(names_of(swarm), speed=6.0, seed=seed),
            gateway="dev0")
        assert seda.devices_attested <= lisa.devices_attested


def test_qosa_levels_reported():
    assert SedaProtocol().qosa_level is QoSALevel.BINARY
    assert LisaAlphaProtocol().qosa_level is QoSALevel.LIST
    assert LisaSelfProtocol().qosa_level is QoSALevel.FULL
    assert ErasmusSwarmCollection().qosa_level is QoSALevel.LIST


def test_result_bookkeeping(swarm):
    mobility = make_mobility(names_of(swarm), speed=2.0)
    result = SedaProtocol().run(swarm, mobility, gateway="dev0")
    assert result.devices_total == len(swarm)
    assert result.devices_attested == len(result.attested_ids)
    assert set(result.attested_ids).isdisjoint(result.failed_ids)
    assert len(result.attested_ids) + len(result.failed_ids) == len(swarm)


def test_unknown_gateway_rejected(swarm):
    with pytest.raises(KeyError):
        SedaProtocol().run(swarm, make_mobility(names_of(swarm), 0.0),
                           gateway="not-a-device")


def test_invalid_protocol_parameters():
    with pytest.raises(ValueError):
        SedaProtocol(hop_delay=0.0)
    with pytest.raises(ValueError):
        LisaSelfProtocol(sequencing_overhead=-1.0)


def test_build_swarm_validation():
    with pytest.raises(ValueError):
        build_swarm(0)
    devices = build_swarm(3, memory_bytes=1024)
    assert len({device.device_id for device in devices}) == 3
    assert devices[0].attestation_service_time(on_demand=True) > \
        devices[0].attestation_service_time(on_demand=False)


def test_topology_query_before_start_raises():
    """A pre-start query must fail loudly, not alias the start snapshot."""
    from repro.swarm.protocols import _TopologySampler

    mobility = make_mobility([f"dev{i}" for i in range(6)], speed=2.0)
    sampler = _TopologySampler(mobility, start_time=10.0)
    start_edges = sampler.edges_at(10.0)
    assert sampler.edges_at(10.05) == start_edges  # same snapshot step
    with pytest.raises(ValueError):
        sampler.edges_at(9.9)
    with pytest.raises(ValueError):
        sampler.link_alive("dev0", "dev1", 0.0)
