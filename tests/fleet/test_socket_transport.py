"""Tests for SocketTransport: real loopback datagrams, TCP fallback."""

import asyncio

import pytest

from repro.core import CollectRequest, CollectResponse, decode_response
from repro.fleet import Fleet, SocketTransport
from repro.sim import SimulationEngine
from tests.fleet.helpers import health_bytes
from tests.fleet.helpers import small_profile as _small_profile

FIRMWARE = b"socket-test-firmware"


def small_profile():
    return _small_profile(FIRMWARE)


@pytest.fixture
def transport():
    built = SocketTransport()
    yield built
    built.close()


def provision_into(transport, profile, engine, count):
    devices = []
    for index in range(count):
        device = profile.provision(f"s-{index}", master_secret=b"master")
        device.prover.attach(engine)
        transport.register(device)
        devices.append(device)
    return devices


def collect_request(profile) -> bytes:
    return CollectRequest(
        k=profile.config.measurements_per_collection).encode()


def test_loopback_exchange_round_trips(transport):
    profile = small_profile()
    engine = SimulationEngine()
    provision_into(transport, profile, engine, 5)
    engine.run(until=60.0)
    request = collect_request(profile)
    responses = transport.exchange_many(
        {f"s-{index}": request for index in range(5)})
    assert set(responses) == {f"s-{index}" for index in range(5)}
    for payload in responses.values():
        response = decode_response(payload)
        assert isinstance(response, CollectResponse)
        assert len(response.measurements) == \
            profile.config.measurements_per_collection


def test_oversized_response_takes_tcp_fallback():
    profile = small_profile()
    engine = SimulationEngine()
    # A datagram budget smaller than one measurement record forces
    # every data-bearing response through the TCP fetch path.
    transport = SocketTransport(max_datagram=64)
    try:
        provision_into(transport, profile, engine, 3)
        engine.run(until=60.0)
        request = collect_request(profile)
        responses = transport.exchange_many(
            {f"s-{index}": request for index in range(3)})
        assert transport.tcp_fallbacks == 3
        for payload in responses.values():
            assert len(payload) > 64
            assert len(decode_response(payload).measurements) > 0
    finally:
        transport.close()


def test_near_maximal_datagram_arrives_inline_and_intact():
    """The datagram receive buffer holds the largest UDP payload, so a
    response just under it is not truncated."""
    from repro.fleet import DeviceProfile, serve_request

    profile = DeviceProfile.smartplus(firmware=FIRMWARE,
                                      application_size=256,
                                      measurement_interval=1.0,
                                      collection_interval=800.0,
                                      buffer_slots=800)
    engine = SimulationEngine()
    transport = SocketTransport(max_datagram=65000)
    try:
        device, = provision_into(transport, profile, engine, 1)
        engine.run(until=800.0)
        request = CollectRequest(k=800).encode()
        payload = transport.exchange("s-0", request)
        assert transport.tcp_fallbacks == 0
        assert 50_000 < len(payload) < 65000
        assert payload == serve_request(device.prover, request)
    finally:
        transport.close()


def test_tcp_fallback_fetch_survives_a_gc_pass(monkeypatch):
    """A fetch waiting on its TCP read is referenced by the transport,
    so a cyclic GC pass mid-fetch cannot destroy it and lose the
    response."""
    import gc

    serve_fetch = SocketTransport._serve_fetch

    async def serve_after_gc(self, reader, writer):
        await asyncio.sleep(0.05)  # every client fetch is now waiting
        gc.collect()
        await serve_fetch(self, reader, writer)

    monkeypatch.setattr(SocketTransport, "_serve_fetch", serve_after_gc)
    profile = small_profile()
    engine = SimulationEngine()
    transport = SocketTransport(max_datagram=64, round_timeout=2.0)
    try:
        provision_into(transport, profile, engine, 3)
        engine.run(until=60.0)
        request = collect_request(profile)
        responses = transport.exchange_many(
            {f"s-{index}": request for index in range(3)})
        assert transport.tcp_fallbacks == 3
        assert all(payload is not None for payload in responses.values())
    finally:
        transport.close()


def test_exchange_many_async_overlaps_on_callers_loop(transport):
    profile = small_profile()
    engine = SimulationEngine()
    provision_into(transport, profile, engine, 6)
    engine.run(until=60.0)
    request = collect_request(profile)
    # Shard coroutines overlap their rounds on one socket pair.

    async def run():
        shards = [{f"s-{index}": request for index in range(start, start + 2)}
                  for start in (0, 2, 4)]
        results = await asyncio.gather(
            *[transport.exchange_many_async(shard) for shard in shards])
        return results

    results = asyncio.run(run())
    assert sum(len(r) for r in results) == 6
    assert all(payload is not None
               for result in results for payload in result.values())


def test_empty_exchange_resolves_immediately(transport):
    assert transport.exchange_many({}) == {}
    assert asyncio.run(transport.exchange_many_async({})) == {}


def test_unregistered_device_raises(transport):
    with pytest.raises(KeyError):
        transport.exchange_many({"ghost": b"\x01"})


def test_duplicate_registration_rejected(transport):
    profile = small_profile()
    engine = SimulationEngine()
    device, = provision_into(transport, profile, engine, 1)
    with pytest.raises(ValueError):
        transport.register(device)


def test_garbage_request_resolves_none_without_timeout(transport):
    profile = small_profile()
    engine = SimulationEngine()
    provision_into(transport, profile, engine, 1)
    # The prover keeps silence on garbage; the server signals that
    # explicitly so the client resolves None instead of waiting out
    # the round timeout.
    assert transport.exchange("s-0", b"\xffgarbage") is None


def test_close_is_idempotent_and_final(transport):
    transport.close()
    transport.close()
    with pytest.raises(RuntimeError):
        transport.exchange_many({})


def test_validation_rejects_bad_construction():
    with pytest.raises(ValueError):
        SocketTransport(max_datagram=4)
    with pytest.raises(ValueError):
        SocketTransport(round_timeout=0.0)


def test_fleet_round_over_sockets_matches_in_process():
    rows = {}
    for name in ("in-process", "socket"):
        fleet = Fleet.provision(small_profile(), 12, master_secret=b"master",
                                transport=name, shards=2)
        try:
            fleet.run_until(60.0)
            reports = fleet.collect_all()
            assert len(reports) == 12
            assert reports.stats.responses_lost == 0
            rows[name] = health_bytes(fleet.verifier)
        finally:
            fleet.close()
    assert rows["in-process"] == rows["socket"]
