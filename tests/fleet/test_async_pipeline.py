"""Tests for the async-first collection pipeline and transport seam."""

import asyncio
import contextlib
import json

import pytest

from repro.core import DeviceStatus
from repro.core.protocol import OnDemandResponse
from repro.fleet import (
    Fleet,
    JsonlSink,
    SimulatedNetworkTransport,
    Transport,
)
from repro.sim import SimulationEngine
from tests.fleet.helpers import oracle_report, oracle_round, report_key
from tests.fleet.helpers import small_profile as _small_profile

FIRMWARE = b"async-test-firmware!"
MALWARE = b"async-test-implant!!"


def small_profile():
    return _small_profile(FIRMWARE)


def provision_fleet(count=12, **kwargs) -> Fleet:
    fleet = Fleet.provision(small_profile(), count, master_secret=b"master",
                            **kwargs)
    fleet.run_until(60.0)
    return fleet


async def drain(engine, until, yield_every=64):
    """Step ``engine`` up to ``until``, yielding to the loop every
    ``yield_every`` events, so coroutines awaiting simulation progress
    interleave with the drain instead of blocking behind it."""
    processed = 0
    while True:
        next_time = engine.peek_time()
        if next_time is None or next_time > until:
            break
        engine.step()
        processed += 1
        if processed % yield_every == 0:
            await asyncio.sleep(0)
    engine.run(until=until)


# ----------------------------------------------------------------------
# The transport seam
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["in-process", "simulated-network",
                                  "swarm-relay", "socket"])
def test_rounds_exchange_through_the_async_seam(name, monkeypatch):
    """Every round matches the oracle on every transport; the network
    transports answer through ``exchange_many_async`` alone."""
    fleet = provision_fleet(10, transport=name)
    transport = fleet.transport
    expected = {}
    exchange = transport.exchange_many_async

    async def oracle_exchange(requests):
        responses = await exchange(requests)
        for device_id, payload in responses.items():
            expected[device_id] = oracle_report(fleet.verifier, device_id,
                                                payload, fleet.now)
        return responses

    def blocking_exchange(requests):
        raise AssertionError("the round took the blocking exchange")

    monkeypatch.setattr(transport, "exchange_many_async", oracle_exchange)
    if name != "in-process":
        monkeypatch.setattr(transport, "exchange_many", blocking_exchange)
    try:
        for infected in (False, True):
            if infected:
                fleet.device("dev-0003").load_application(MALWARE)
                fleet.run_until(120.0)
            expected.clear()
            reports = fleet.collect_all(batch_size=3)
            assert [r.device_id for r in reports] == fleet.device_ids()
            assert [(report_key(r), r.collection_time, r.verdicts)
                    for r in reports] == \
                [(report_key(r), r.collection_time, r.verdicts)
                 for r in map(expected.get, fleet.device_ids())]
            assert reports.stats.responses_lost == 0
        assert fleet.health.flagged_devices == {"dev-0003"}
    finally:
        fleet.close()
        if name == "socket":
            transport.close()


# ----------------------------------------------------------------------
# Pipeline behaviour and equivalence
# ----------------------------------------------------------------------

def test_pipeline_matches_sequential_reference_exactly():
    reference = oracle_round(provision_fleet(20))
    pipelined = provision_fleet(20).collect_all()
    assert [report_key(r) for r in reference] == \
        [report_key(r) for r in pipelined]
    assert [r.verdicts for r in reference] == [r.verdicts for r in pipelined]


def test_fast_path_reports_equal_reference_reports():
    fleet = provision_fleet(10)
    fleet.device("dev-0003").load_application(MALWARE)
    fleet.run_until(80.0)
    verifier = fleet.verifier
    request = verifier.create_collect_request().encode()
    responses = fleet.transport.exchange_many(
        {device_id: request for device_id in fleet.device_ids()})
    now = fleet.now
    for device_id in fleet.device_ids():
        slow = oracle_report(verifier, device_id, responses[device_id], now)
        fast = verifier._verify_payload(device_id, responses[device_id], now)
        assert report_key(slow) == report_key(fast)
        assert slow.verdicts == fast.verdicts


def test_fast_path_judges_garbage_and_silence_like_reference():
    fleet = provision_fleet(2)
    verifier = fleet.verifier
    for payload in (None, b"\xff\xff\xff",
                    OnDemandResponse(fresh=None).encode()):
        slow = oracle_report(verifier, "dev-0000", payload, 60.0)
        fast = verifier._verify_payload("dev-0000", payload, 60.0)
        assert report_key(slow) == report_key(fast)


def test_collect_all_async_is_awaitable():
    fleet = provision_fleet(8)

    async def scenario():
        return await fleet.collect_all_async()

    reports = asyncio.run(scenario())
    assert len(reports) == 8
    assert all(report.status is DeviceStatus.HEALTHY for report in reports)
    assert reports.stats.requests_sent == 8
    assert reports.stats.responses_received == 8
    assert reports.stats.responses_lost == 0


def test_collect_all_refuses_to_block_running_loop():
    fleet = provision_fleet(2)

    async def scenario():
        fleet.collect_all()

    with pytest.raises(RuntimeError, match="collect_all_async"):
        asyncio.run(scenario())


def test_pipeline_commits_in_device_order_across_shards():
    fleet = provision_fleet(20)
    reports = fleet.collect_all(batch_size=3)
    assert [report.device_id for report in reports] == fleet.device_ids()
    assert reports.stats.shards == 7


# ----------------------------------------------------------------------
# Round stats
# ----------------------------------------------------------------------

def test_round_stats_returned():
    fleet = provision_fleet(9)
    reports = fleet.collect_all(batch_size=4)
    stats = reports.stats
    assert stats.requests_sent == 9
    assert stats.responses_received == 9
    assert stats.responses_lost == 0
    assert stats.stale_responses_rejected == 0
    assert stats.shards == 3
    assert stats.wall_seconds > 0
    assert stats.devices_per_second > 0
    assert "request(s)" in stats.summary()


def test_round_stats_not_persisted_in_health_row():
    fleet = provision_fleet(3)
    fleet.collect_all()
    row = fleet.health.to_row()
    assert "round_stats" not in row
    json.dumps(row)  # the row stays JSON-serializable


def test_round_stats_count_lost_responses():
    fleet = Fleet.provision(
        small_profile(), 6, master_secret=b"master",
        transport="simulated-network",
        transport_options={"loss_probability": 1.0, "round_timeout": 2.0})
    fleet.run_until(60.0)
    reports = fleet.collect_all()
    assert reports.stats.requests_sent == 6
    assert reports.stats.responses_received == 0
    assert reports.stats.responses_lost == 6


def test_sequential_reference_path_also_reports_stats():
    reference = oracle_round(provision_fleet(5))
    fleet = provision_fleet(5)
    reports = fleet.collect_all(batch_size=2)
    assert [report_key(r) for r in reports] == \
        [report_key(r) for r in reference]
    assert reports.stats.requests_sent == 5
    assert reports.stats.shards == 3


# ----------------------------------------------------------------------
# Overlapping rounds on the simulated network
# ----------------------------------------------------------------------

def test_overlapping_async_rounds_share_one_network():
    engine = SimulationEngine()
    transport = SimulatedNetworkTransport(engine, latency=0.05)
    profile = small_profile()
    devices = []
    for index in range(6):
        device = profile.provision(f"n-{index}", master_secret=b"master")
        device.prover.attach(engine)
        transport.register(device)
        devices.append(device)
    engine.run(until=60.0)
    from repro.core import CollectRequest
    request = CollectRequest(k=6).encode()

    started = engine.now

    async def scenario():
        first = transport.exchange_many_async(
            {f"n-{i}": request for i in range(3)})
        second = transport.exchange_many_async(
            {f"n-{i}": request for i in range(3, 6)})
        return await asyncio.gather(first, second)

    first, second = asyncio.run(scenario())
    assert set(first) == {"n-0", "n-1", "n-2"}
    assert set(second) == {"n-3", "n-4", "n-5"}
    assert all(payload is not None for payload in first.values())
    assert all(payload is not None for payload in second.values())
    # The two rounds overlapped in virtual time: the whole exchange took
    # barely more than one round trip, not two sequential ones.
    assert engine.now - started < 2 * (2 * 0.05)
    assert transport.stale_responses_rejected == 0


def test_stale_response_rejected_under_overlapping_async_rounds():
    engine = SimulationEngine()
    # 1 s one-way latency, 0.5 s timeout: the impatient round expires
    # while its response is still in the air.
    transport = SimulatedNetworkTransport(engine, latency=1.0,
                                          round_timeout=0.5)
    profile = small_profile()
    device = profile.provision("t-0", master_secret=b"master")
    device.prover.attach(engine)
    transport.register(device)
    engine.run(until=30.0)
    from repro.core import CollectRequest, decode_response
    request = CollectRequest(k=6).encode()

    async def impatient():
        return await transport.exchange_many_async({"t-0": request})

    first = asyncio.run(impatient())
    assert first == {"t-0": None}  # timed out, response still in flight

    # More history accrues, then a patient overlapped round runs: the
    # stale round-1 response is stepped through, rejected and counted,
    # and the fresh response (with the newer history) is returned.
    engine.run(until=60.0)
    transport.round_timeout = 30.0
    second = asyncio.run(impatient())
    assert second["t-0"] is not None
    assert transport.stale_responses_rejected == 1
    response = decode_response(second["t-0"])
    assert len(response.measurements) == 6  # history as of t>=60, not t=30


def test_concurrent_drain_cannot_smuggle_in_a_timed_out_response():
    """A response delivered past the round's deadline by *another*
    driver (an engine drain running concurrently) must be rejected as
    stale, exactly as the synchronous exchange would have done."""
    engine = SimulationEngine()
    transport = SimulatedNetworkTransport(engine, latency=1.0,
                                          round_timeout=0.5)
    profile = small_profile()
    device = profile.provision("t-0", master_secret=b"master")
    device.prover.attach(engine)
    transport.register(device)
    engine.run(until=30.0)
    from repro.core import CollectRequest
    request = CollectRequest(k=6).encode()

    async def scenario():
        drained = asyncio.ensure_future(drain(engine, 40.0, yield_every=1))
        responses = await transport.exchange_many_async({"t-0": request})
        await drained
        return responses

    responses = asyncio.run(scenario())
    # The response was delivered at ~t=32, after the t=30.5 deadline —
    # the drain stepped it, but the round must not credit it.
    assert responses == {"t-0": None}
    assert transport.stale_responses_rejected == 1


def test_collection_overlaps_engine_drain():
    """A collection round can run while a drain steps the schedule."""
    fleet = provision_fleet(6, transport="simulated-network")

    async def scenario():
        drained = asyncio.ensure_future(drain(fleet.engine, 62.0))
        reports = await fleet.collect_all_async(batch_size=2)
        await drained
        return reports

    reports = asyncio.run(scenario())
    assert len(reports) == 6
    assert {report.status for report in reports} == {DeviceStatus.HEALTHY}
    # The drain reached its horizon; the collection added at most its
    # own round trips on top, never a timeout's worth of virtual time.
    assert 62.0 <= fleet.now < 63.0


# ----------------------------------------------------------------------
# The round loop under both verify steps
# ----------------------------------------------------------------------

VERIFY_STEPS = ("inline", "process")


@contextlib.contextmanager
def step_fleet(step, count, **kwargs):
    """A fleet verifying inline, or in a warmed one-slot worker pool."""
    if step == "process":
        kwargs.update(shards=1, worker_mode="process")
    fleet = provision_fleet(count, **kwargs)
    try:
        if step == "process":
            fleet.verifier.warm_up()
        yield fleet
    finally:
        fleet.close()


def start_round(verifier, transport, batch_size):
    """One round of the verifier's pipeline through its verify step."""
    return verifier.collect_all_async(transport, batch_size=batch_size)


def other_tasks():
    return [task for task in asyncio.all_tasks()
            if task is not asyncio.current_task()]


def cancel_mid_round(step):
    async def scenario(fleet):
        round_task = asyncio.ensure_future(
            start_round(fleet.verifier, fleet.transport, 3))
        while not fleet.transport._pending:
            await asyncio.sleep(0)  # until shard exchanges are in flight
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(round_task, timeout=0)
        assert other_tasks() == []  # no orphaned shard task keeps running
        assert fleet.transport._pending == {}  # rounds deregistered

    with step_fleet(step, 9, transport="simulated-network") as fleet:
        asyncio.run(scenario(fleet))


def test_external_cancellation_does_not_orphan_shard_tasks():
    """A wait_for timeout mid-round must cancel the in-flight shard
    tasks (including the one being awaited) and deregister their
    transport rounds, instead of leaving them driving the engine."""
    cancel_mid_round("inline")


def test_external_cancellation_does_not_orphan_worker_shard_tasks():
    """The same, with every shard verified in a worker process."""
    cancel_mid_round("process")


class _FailingTransport(Transport):
    """Delegates to a transport; its ``fail_on``-th exchange raises."""

    name = "failing"

    def __init__(self, inner, fail_on):
        self.inner = inner
        self.fail_on = fail_on
        self.calls = 0

    @property
    def engine(self):
        return self.inner.engine

    def register(self, device):
        self.inner.register(device)

    def exchange(self, device_id, payload):
        return self.exchange_many({device_id: payload})[device_id]

    def exchange_many(self, requests):
        self.calls += 1
        if self.calls == self.fail_on:
            raise ConnectionError("link dropped mid-round")
        return self.inner.exchange_many(requests)


@pytest.mark.parametrize("step", VERIFY_STEPS)
def test_mid_round_transport_failure_keeps_committed_reports(step,
                                                             tmp_path):
    """The second of three shards fails: the first shard's committed
    reports reach disk, the sinks are closed, no shard task survives
    the round, and the same verify step serves the next round."""
    path = tmp_path / "reports.jsonl"
    sink = JsonlSink(str(path))

    async def scenario():
        with pytest.raises(ConnectionError, match="link dropped"):
            await start_round(verifier, failing, 3)
        assert other_tasks() == []
        fleet.run_until(120.0)
        return await asyncio.wait_for(
            start_round(verifier, fleet.transport, 3), timeout=30)

    with step_fleet(step, 9, sinks=(sink,)) as fleet:
        verifier = fleet.verifier
        failing = _FailingTransport(fleet.transport, fail_on=2)
        retry = asyncio.run(scenario())
    assert sink.closed
    assert sink not in verifier.sinks
    written = [json.loads(line)["device_id"]
               for line in path.read_text().splitlines()]
    assert written == fleet.device_ids()[:3]
    assert [report.device_id for report in retry] == fleet.device_ids()
    assert {report.status for report in retry} == {DeviceStatus.HEALTHY}
    assert verifier.health.reports_total == 3 + 9
