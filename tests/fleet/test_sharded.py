"""Tests for sharded FleetVerifier rounds: partitions, output identity."""

import asyncio
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeviceStatus
from repro.fleet import (
    Fleet,
    FleetVerifier,
    InProcessTransport,
    MemorySink,
)
from repro.obs import Observability
from repro.sim.engine import SimulationEngine
from repro.store import MemoryStore, SqliteStore
from repro.store.base import StoreError
from tests.fleet.helpers import health_bytes, oracle_report, report_key
from tests.fleet.helpers import small_profile as _small_profile
from tests.store.helpers import journaled_reports

FIRMWARE = b"sharded-test-firmware"
MALWARE = b"sharded-test-implant!"


def small_profile():
    return _small_profile(FIRMWARE)


def provision_pair(count, shards, infected=(), rounds=1, **sharded_kwargs):
    """Two deterministic twin fleets: single-verifier and sharded.

    Provisioning is a pure function of profile and master secret, so
    both fleets carry identical devices with identical measurement
    histories; only the verifier topology differs.
    """
    outcomes = []
    for shard_count in (None, shards):
        fleet = Fleet.provision(small_profile(), count,
                                master_secret=b"master",
                                shards=shard_count,
                                **(sharded_kwargs if shard_count else {}))
        horizon = 0.0
        all_reports = []
        for _ in range(rounds):
            horizon += 60.0
            fleet.run_until(horizon)
            for device_id in infected:
                fleet.device(device_id).load_application(MALWARE)
            fleet.run_until(horizon + 20.0)
            horizon += 20.0
            for device_id in infected:
                fleet.device(device_id).load_application(FIRMWARE)
            all_reports.append(fleet.collect_all())
        outcomes.append((fleet, all_reports))
    return outcomes


def test_sharded_round_matches_single_verifier():
    (single, single_rounds), (sharded, sharded_rounds) = provision_pair(
        20, shards=3, infected=("dev-0004", "dev-0011"))
    for single_reports, sharded_reports in zip(single_rounds, sharded_rounds):
        assert [report_key(r) for r in single_reports] == \
            [report_key(r) for r in sharded_reports]
    assert health_bytes(single.verifier) == health_bytes(sharded.verifier)
    assert sharded.health.flagged_devices == {"dev-0004", "dev-0011"}


def test_shard_assignment_is_stable_round_robin():
    """Device i of the round is verified by partition i % shards, as the
    round:1/worker:S/.../device:D trace paths record."""
    obs = Observability(seed=3)
    engine = SimulationEngine()
    obs.bind_engine(engine)
    transport = InProcessTransport(engine)
    verifier = FleetVerifier(small_profile().config, shards=3, obs=obs)
    profile = small_profile()
    for index in range(7):
        device = profile.provision(f"s-{index}", master_secret=b"master")
        device.prover.attach(engine, start_time=0.0)
        transport.register(device)
        verifier.enroll_device(device)
    assert verifier.device_count == 7
    assert verifier.enrolled_ids() == [f"s-{index}" for index in range(7)]
    engine.run(until=60.0)
    verifier.collect_all(transport, batch_size=2)
    partition_of = {}
    for row in obs.tracer.export_rows():
        match = re.fullmatch(r"round:1/worker:(\d+)/shard:\d+/device:(.+)",
                             row["path"])
        if match:
            partition_of[match.group(2)] = int(match.group(1))
    assert [partition_of[f"s-{index}"] for index in range(7)] == \
        [0, 1, 2, 0, 1, 2, 0]


def test_sharded_requires_at_least_one_shard_and_known_mode():
    config = small_profile().config
    with pytest.raises(ValueError):
        FleetVerifier(config, shards=0)
    with pytest.raises(ValueError):
        FleetVerifier(config, worker_mode="fork")
    with pytest.raises(ValueError, match="'loop' or 'process'"):
        FleetVerifier(config, worker_mode="thread")


@settings(max_examples=12, deadline=None)
@given(count=st.integers(min_value=1, max_value=16),
       shards=st.integers(min_value=1, max_value=5),
       infected_seed=st.integers(min_value=0, max_value=2 ** 16),
       rounds=st.integers(min_value=1, max_value=2))
def test_shard_merge_health_byte_identical_property(count, shards,
                                                    infected_seed, rounds):
    """Sharded-round health == single-shard health, bytewise.

    Whatever the fleet size, shard count, infection pattern and number
    of rounds, merging the per-shard aggregates must reproduce the
    single verifier's aggregate exactly — floats included, thanks to
    the exact freshness accumulator.
    """
    infected = tuple(f"dev-{index:04d}"
                     for index in range(count)
                     if (infected_seed >> index) & 1)
    (single, _), (sharded, _) = provision_pair(count, shards,
                                               infected=infected,
                                               rounds=rounds)
    assert health_bytes(single.verifier) == health_bytes(sharded.verifier)
    assert single.health.reports_total == count * rounds


def test_sharded_shared_store_checkpoint_identical_to_single():
    single_store, sharded_store = MemoryStore(), MemoryStore()
    single = Fleet.provision(small_profile(), 10, master_secret=b"master",
                             store=single_store)
    sharded = Fleet.provision(small_profile(), 10, master_secret=b"master",
                              shards=4, store=sharded_store)
    for fleet in (single, sharded):
        fleet.run_until(30.0)
        fleet.device("dev-0002").load_application(MALWARE)
        fleet.run_until(60.0)
        fleet.collect_all()
    assert single_store.state_bytes() == sharded_store.state_bytes()
    assert single_store.state_bytes()  # a checkpoint was actually written
    assert sharded.health.flagged_devices == {"dev-0002"}


def test_sharded_loop_mode_overlaps_simulated_network_rounds():
    fleet = Fleet.provision(small_profile(), 12, master_secret=b"master",
                            shards=4, transport="simulated-network")
    fleet.run_until(60.0)
    before = fleet.now
    reports = fleet.collect_all(batch_size=3)
    assert len(reports) == 12
    assert {r.status for r in reports} == {DeviceStatus.HEALTHY}
    # Four shard workers' rounds overlapped in virtual time: the whole
    # fleet cost scarcely more than one round trip, not one per shard.
    assert fleet.now - before < 4 * (2 * 0.005)


def test_sharded_sinks_receive_reports_in_enrollment_order():
    sink = MemorySink()
    fleet = Fleet.provision(small_profile(), 9, master_secret=b"master",
                            shards=2, sinks=(sink,))
    fleet.run_until(60.0)
    fleet.collect_all()
    assert [report.device_id for report in sink.reports] == fleet.device_ids()


def test_sharded_round_stats_merge():
    fleet = Fleet.provision(small_profile(), 10, master_secret=b"master",
                            shards=2)
    fleet.run_until(60.0)
    reports = fleet.collect_all(batch_size=3)
    stats = reports.stats
    assert stats.requests_sent == 10
    assert stats.responses_received == 10
    assert stats.responses_lost == 0
    # Shards of 5 devices with batch_size 3: two pipeline shards each.
    assert stats.shards == 4
    assert stats.wall_seconds > 0


def test_sharded_last_collection_time_and_enrollment_lookups():
    fleet = Fleet.provision(small_profile(), 6, master_secret=b"master",
                            shards=3)
    fleet.run_until(60.0)
    fleet.collect_all()
    verifier = fleet.verifier
    assert verifier.is_enrolled("dev-0000")
    assert not verifier.is_enrolled("ghost")
    assert verifier._last_collection_time.get("dev-0003") == pytest.approx(60.0)
    assert verifier._last_collection_time.get("ghost") is None


def test_sharded_close_is_idempotent():
    sink = MemorySink()
    verifier = FleetVerifier(small_profile().config, shards=2,
                             sinks=(sink,), store=MemoryStore())
    verifier.close()
    verifier.close()  # second close must be a no-op


def test_failing_pool_close_still_releases_sinks_and_store():
    """The pool closes inside close()'s first-error sequence."""
    released = []

    class RecordingSink(MemorySink):
        def close(self):
            released.append("sink")

    class RecordingStore(MemoryStore):
        def close(self):
            released.append("store")

    verifier = FleetVerifier(small_profile().config, shards=2,
                             sinks=(RecordingSink(),), store=RecordingStore(),
                             worker_mode="process")
    verifier.warm_up()
    pool = verifier._pool
    real_close = pool.close

    def failing_close():
        real_close()
        raise OSError("pool shutdown failed")

    pool.close = failing_close
    with pytest.raises(OSError, match="pool shutdown failed"):
        verifier.close()
    assert released == ["sink", "store"]
    verifier.close()  # re-entry stays a no-op
    assert released == ["sink", "store"]


class _ExplodingSink(MemorySink):
    """A sink that dies mid-fanout, then refuses further emits."""

    def __init__(self):
        super().__init__()
        self.closed = False

    def emit(self, report):
        if self.closed:
            raise ValueError("emit on a closed sink")
        if len(self.reports) >= 3:
            raise ConnectionError("log pipeline gone")
        super().emit(report)

    def close(self):
        self.closed = True


def test_sharded_retry_round_survives_sink_failure():
    """A dead sink is pruned so the retry streams to the survivors."""
    exploding, survivor = _ExplodingSink(), MemorySink()
    fleet = Fleet.provision(small_profile(), 8, master_secret=b"master",
                            shards=2, sinks=(exploding, survivor))
    fleet.run_until(60.0)
    with pytest.raises(ConnectionError):
        fleet.collect_all()
    assert exploding not in fleet.verifier.sinks
    assert survivor in fleet.verifier.sinks
    fleet.run_until(120.0)
    retry = fleet.collect_all()
    assert len(retry) == 8
    # Three before the failure, eight from the retry round.
    assert len(survivor.reports) == 11


def test_sharded_collect_refuses_to_block_running_loop():
    fleet = Fleet.provision(small_profile(), 4, master_secret=b"master",
                            shards=2)
    fleet.run_until(60.0)

    async def scenario():
        fleet.collect_all()

    with pytest.raises(RuntimeError, match="await collect_all_async"):
        asyncio.run(scenario())


def test_single_shard_equals_plain_fleet_verifier():
    (single, single_rounds), (sharded, sharded_rounds) = provision_pair(
        5, shards=1)
    assert [report_key(r) for r in single_rounds[0]] == \
        [report_key(r) for r in sharded_rounds[0]]
    assert sharded.verifier.shards == 1
    assert health_bytes(single.verifier) == health_bytes(sharded.verifier)


def test_more_workers_than_devices_counts_real_shards_only():
    fleet = Fleet.provision(small_profile(), 2, master_secret=b"master",
                            shards=4)
    fleet.run_until(60.0)
    reports = fleet.collect_all()
    assert len(reports) == 2
    # Two device-less workers must not invent shards in the merge.
    assert reports.stats.shards == 2
    assert reports.stats.requests_sent == 2


@pytest.mark.parametrize("worker_mode", ["loop", "process"])
def test_sharded_workers_share_one_sqlite_store(tmp_path, worker_mode):
    """Every shard worker commits into the one shared SQLite store."""
    from repro.store import SqliteStore

    store = SqliteStore(tmp_path / "s.db")
    fleet = Fleet.provision(small_profile(), 8, master_secret=b"master",
                            shards=2, store=store, worker_mode=worker_mode)
    try:
        fleet.run_until(60.0)
        reports = fleet.collect_all()
        assert len(reports) == 8
        assert store.state_bytes()  # checkpoint written
        journaled = [row["device_id"] for row in journaled_reports(store)]
        assert sorted(journaled) == fleet.device_ids()
    finally:
        fleet.close()


class _FailOnNthExchange(InProcessTransport):
    """An in-process transport whose ``fail_on``-th exchange raises."""

    def __init__(self, engine, fail_on):
        super().__init__(engine)
        self.fail_on = fail_on
        self.calls = 0

    def exchange_many(self, requests):
        self.calls += 1
        if self.calls == self.fail_on:
            raise ConnectionError("link dropped mid-round")
        return super().exchange_many(requests)


@pytest.mark.parametrize("worker_mode", ["loop", "process"])
def test_failed_sharded_round_emits_every_committed_report(worker_mode):
    """Reports the shard workers committed before a round failed are
    journaled and counted in health; they must reach the fleet sinks
    too, in enrollment order, before the failure propagates."""
    sink = MemorySink()
    store = MemoryStore()
    fleet = Fleet.provision(
        small_profile(), 40, master_secret=b"master", shards=4,
        worker_mode=worker_mode, sinks=(sink,), store=store,
        transport=lambda engine: _FailOnNthExchange(engine, fail_on=6))
    try:
        fleet.run_until(60.0)
        with pytest.raises(ConnectionError, match="link dropped"):
            fleet.collect_all(batch_size=3)
        journaled = _in_device_order(fleet, journaled_reports(store))
        committed = fleet.health.reports_total
        assert committed == len(journaled) > 0
        if worker_mode == "loop":
            # Shards 0, 2 and 3 finish; shard 1 commits its first batch.
            assert committed == 33
        assert [report.device_id for report in sink.reports] == journaled
    finally:
        fleet.close()


def _in_device_order(fleet, rows):
    """The fleet's devices that have a journaled report, in fleet order."""
    journaled = {row["device_id"] for row in rows}
    return [device_id for device_id in fleet.device_ids()
            if device_id in journaled]


class _FailOnNthAppend:
    """Mixin: the store's ``fail_on``-th ``append_report`` raises."""

    def __init__(self, fail_on, *args):
        super().__init__(*args)
        self.fail_on = fail_on
        self.appends = 0

    def append_report(self, report):
        self.appends += 1
        if self.appends == self.fail_on:
            raise StoreError("disk full")
        super().append_report(report)


class _FailOnNthAppendStore(_FailOnNthAppend, MemoryStore):
    pass


class _FailOnNthAppendSqliteStore(_FailOnNthAppend, SqliteStore):
    pass


@pytest.mark.parametrize("shards,worker_mode", [
    (None, "loop"), (3, "loop"), (3, "process")])
def test_store_failure_mid_batch_emits_the_reports_it_journaled(
        shards, worker_mode, tmp_path):
    """A store that fails partway through a batch must not strand the
    batch's reports already journaled: they reach the sinks, in device
    order, before the failure propagates, and health counts them.  On
    SQLite the batch exit commits them: a fresh connection reads exactly
    the sink's reports, and a restore from it reproduces health."""
    path = tmp_path / "state.sqlite"
    for store in (_FailOnNthAppendStore(7),
                  _FailOnNthAppendSqliteStore(7, path)):
        sink = MemorySink()
        fleet = Fleet.provision(small_profile(), 12, master_secret=b"master",
                                shards=shards, worker_mode=worker_mode,
                                sinks=(sink,), store=store)
        try:
            fleet.run_until(60.0)
            with pytest.raises(StoreError, match="disk full"):
                fleet.collect_all(batch_size=4)
            journaled = _in_device_order(fleet, journaled_reports(store))
            assert len(journaled) >= 6  # the 7th append fails mid-batch
            assert [report.device_id for report in sink.reports] == \
                journaled
            assert fleet.health.reports_total == len(journaled)
        finally:
            fleet.close()
    with SqliteStore(path) as fresh:
        position = {device_id: index
                    for index, device_id in enumerate(fleet.device_ids())}
        rows = sorted(journaled_reports(fresh),
                      key=lambda row: position[row["device_id"]])
        assert rows == [report.to_row() for report in sink.reports]
        restored = FleetVerifier.restore(small_profile().config, fresh)
        assert restored.health.to_row() == fleet.health.to_row()


class _CallOrderStore(MemoryStore):
    """Records the order of the round's store writes, and which devices'
    reports were appended."""

    def __init__(self):
        super().__init__()
        self.calls = []
        self.appended = []

    def save_enrollment(self, enrollment):
        self.calls.append("save_enrollment")
        super().save_enrollment(enrollment)

    def append_report(self, report):
        self.calls.append("append_report")
        self.appended.append(report.device_id)
        super().append_report(report)

    def checkpoint(self, enrollments, health, last_collection_times,
                   rounds_completed=0):
        self.calls.append("checkpoint")
        super().checkpoint(enrollments, health, last_collection_times,
                           rounds_completed=rounds_completed)


@pytest.mark.parametrize("worker_mode", ["loop", "process"])
def test_sharded_round_checkpoints_after_every_append(worker_mode):
    """The round's checkpoint is its last store call: no partition is
    still journaling when the state is folded into the snapshot."""
    store = _CallOrderStore()
    fleet = Fleet.provision(small_profile(), 12, master_secret=b"master",
                            shards=3, store=store, worker_mode=worker_mode)
    try:
        fleet.run_until(30.0)
        store.calls.clear()
        fleet.collect_all(batch_size=2)
        assert store.calls == ["append_report"] * 12 + ["checkpoint"]
    finally:
        fleet.close()


@pytest.mark.parametrize("worker_mode", ["loop", "process"])
def test_sharded_collect_all_async_equals_sync_twin(worker_mode):
    """A sharded fleet's awaitable round is the synchronous round."""
    twins = [Fleet.provision(small_profile(), 10, master_secret=b"master",
                             shards=3, worker_mode=worker_mode)
             for _ in range(2)]
    try:
        for fleet in twins:
            fleet.run_until(60.0)
            fleet.device("dev-0005").load_application(MALWARE)
            fleet.run_until(80.0)
        awaited = asyncio.run(twins[0].collect_all_async(batch_size=2))
        synchronous = twins[1].collect_all(batch_size=2)
        assert [report_key(r) for r in awaited] == \
            [report_key(r) for r in synchronous]
        assert health_bytes(twins[0].verifier) == \
            health_bytes(twins[1].verifier)
        assert twins[0].health.flagged_devices == {"dev-0005"}
    finally:
        for fleet in twins:
            fleet.close()


def test_process_round_over_a_device_subset_matches_the_oracle():
    """Partitions follow positions in the requested list, so any device
    may reach any slot; each task carries its devices' enrollments."""
    store = _CallOrderStore()
    fleet = Fleet.provision(small_profile(), 9, master_secret=b"master",
                            shards=3, worker_mode="process", store=store)
    try:
        fleet.run_until(60.0)
        subset = ["dev-0007", "dev-0001", "dev-0004", "dev-0005"]
        request = fleet.verifier.create_collect_request().encode()
        payloads = InProcessTransport(fleet.engine)
        for device_id in subset:
            payloads.register(fleet.device(device_id))
        expected = [oracle_report(fleet.verifier, device_id, payload,
                                  fleet.now)
                    for device_id, payload in payloads.exchange_many(
                        {device_id: request for device_id in subset}).items()]
        reports = fleet.verifier.collect_all(fleet.transport,
                                             device_ids=subset)
        assert [report_key(r) for r in reports] == \
            [report_key(r) for r in expected]
        assert {r.status for r in reports} == {DeviceStatus.HEALTHY}
        assert sorted(store.appended) == sorted(subset)
    finally:
        fleet.close()


def test_sharded_round_is_one_round_in_flight():
    """The gauge counts fleet rounds, not partitions."""
    obs = Observability()
    seen = []

    class _GaugeProbe(InProcessTransport):
        def exchange_many(self, requests):
            seen.append(obs.rounds_inflight.value())
            return super().exchange_many(requests)

    fleet = Fleet.provision(small_profile(), 8, master_secret=b"master",
                            shards=4, obs=obs, transport=_GaugeProbe)
    fleet.run_until(60.0)
    fleet.collect_all(batch_size=1)
    assert seen == [1] * 8
    assert obs.rounds_inflight.value() == 0
