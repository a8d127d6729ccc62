"""Tests for the campaign fault injectors (pure wrappers)."""

import pytest

from repro.campaign import CrashOnceStore, PartitionInjector
from repro.core.verification import DeviceStatus
from repro.fleet import (
    Fleet,
    FleetVerifier,
    InProcessTransport,
    SimulatedNetworkTransport,
)
from repro.sim import SimulationEngine
from repro.store import MemoryStore, SqliteStore, StoreError
from tests.fleet.helpers import oracle_round, report_key, small_profile
from tests.store.helpers import journaled_reports

SECRET = b"campaign-fault-master-secret"


def provision(count=4, engine=None, **overrides):
    engine = engine if engine is not None else SimulationEngine()
    return Fleet.provision(small_profile(b"fault-firmware"), count,
                           master_secret=SECRET, engine=engine, **overrides)


class TestPartitionInjector:
    def test_drops_only_cut_devices_inside_windows(self):
        engine = SimulationEngine()
        transport = PartitionInjector(InProcessTransport(engine),
                                      windows=[(50.0, 70.0)],
                                      fraction=0.5, seed=1)
        with provision(count=8, engine=engine,
                       transport=transport) as fleet:
            cut = {d for d in fleet.device_ids() if transport.is_cut(d)}
            assert cut and cut < set(fleet.device_ids())

            fleet.run_until(60.0)
            assert transport.partition_active()
            reports = fleet.collect_all()
            missing = {r.device_id for r in reports
                       if r.status is DeviceStatus.NO_DATA}
            assert missing == cut
            assert transport.dropped_exchanges == len(cut)

            fleet.run_until(120.0)
            assert not transport.partition_active()
            reports = fleet.collect_all()
            assert all(r.status is DeviceStatus.HEALTHY for r in reports)
            assert transport.dropped_exchanges == len(cut)

    def test_cut_set_is_deterministic(self):
        engine = SimulationEngine()
        first = PartitionInjector(InProcessTransport(engine),
                                  windows=[(0.0, 1.0)], fraction=0.4, seed=9)
        second = PartitionInjector(InProcessTransport(engine),
                                   windows=[(0.0, 1.0)], fraction=0.4,
                                   seed=9)
        names = [f"dev-{i:04d}" for i in range(20)]
        assert [first.is_cut(n) for n in names] == \
            [second.is_cut(n) for n in names]

    def test_passthrough_attributes(self):
        engine = SimulationEngine()
        inner = InProcessTransport(engine)
        wrapped = PartitionInjector(inner, windows=[(0.0, 1.0)])
        assert wrapped.engine is engine
        assert "in-process" in wrapped.name

    @staticmethod
    def round_over_network(wrap):
        """A 64-device round over a simulated network, maybe wrapped."""
        engine = SimulationEngine()
        inner = SimulatedNetworkTransport(engine, latency=0.05)
        transport = wrap(inner)
        fleet = provision(count=64, engine=engine, transport=transport)
        fleet.run_until(600.0)
        reports = fleet.collect_all(batch_size=8)
        rows = [(r.device_id, r.status, r.collection_time, r.verdicts)
                for r in reports]
        return fleet, transport, reports, rows, engine.now

    def test_inactive_window_leaves_the_round_unchanged(self):
        """Wrapped, the network keeps its overlapping async rounds."""
        _, _, _, twin_rows, twin_now = self.round_over_network(
            lambda inner: inner)
        _, transport, _, rows, now = self.round_over_network(
            lambda inner: PartitionInjector(inner, [(1e9, 2e9)]))
        assert rows == twin_rows
        assert now == twin_now
        assert transport.dropped_exchanges == 0

    def test_active_window_cuts_devices_before_the_network(self):
        seen = set()

        def wrap(inner):
            exchange = inner.exchange_many_async

            async def recording(requests):
                seen.update(requests)
                return await exchange(requests)

            inner.exchange_many_async = recording
            return PartitionInjector(inner, [(0.0, 1e9)], fraction=0.5)

        fleet, transport, reports, _, _ = self.round_over_network(wrap)
        cut = {d for d in fleet.device_ids() if transport.is_cut(d)}
        assert cut and cut < set(fleet.device_ids())
        assert {r.device_id for r in reports
                if r.status is DeviceStatus.NO_DATA} == cut
        assert transport.dropped_exchanges == \
            reports.stats.responses_lost == len(cut)
        assert seen == set(fleet.device_ids()) - cut

    def test_invalid_parameters_rejected(self):
        inner = InProcessTransport(SimulationEngine())
        with pytest.raises(ValueError):
            PartitionInjector(inner, windows=[(5.0, 2.0)])
        with pytest.raises(ValueError):
            PartitionInjector(inner, windows=[(0.0, 1.0)], fraction=2.0)


class TestCrashOnceStore:
    def test_crashes_exactly_once_then_recovers(self):
        engine = SimulationEngine()
        store = CrashOnceStore(MemoryStore(), crash_after_reports=6)
        with provision(engine=engine, store=store) as fleet:
            fleet.run_until(60.0)
            fleet.collect_all()  # 4 reports journaled
            assert store.reports_appended == 4
            fleet.run_until(120.0)
            with pytest.raises(StoreError, match="injected store crash"):
                fleet.collect_all()  # dies on the 7th append
            assert store.crashed

            # The PR-3 restart drill: resume from the crashed store.
            fleet.verifier = FleetVerifier.restore(
                small_profile(b"fault-firmware").config, store)
            reports = fleet.collect_all()
            assert all(r.status is DeviceStatus.HEALTHY for r in reports)
            assert store.reports_appended >= 10

    def test_sqlite_restart_matches_the_oracle(self, tmp_path):
        """The restart drill on a durable SQLite store: the restored
        verifier carries the crashed one's state, and both its re-run of
        the crashed round and the next one, with a device newly
        infected, equal the reference oracle."""
        engine = SimulationEngine()
        store = CrashOnceStore(SqliteStore(tmp_path / "state.sqlite"),
                               crash_after_reports=6)
        with provision(engine=engine, store=store) as fleet:
            fleet.run_until(60.0)
            fleet.collect_all()
            fleet.run_until(120.0)
            with pytest.raises(StoreError, match="injected store crash"):
                fleet.collect_all()  # dies on the 7th append
            crashed = fleet.verifier
            fleet.verifier = FleetVerifier.restore(
                small_profile(b"fault-firmware").config, store)
            assert fleet.verifier.health.to_row() == crashed.health.to_row()
            assert fleet.verifier.health.reports_total == 6
            for device_id in fleet.device_ids():
                assert fleet.verifier.last_seen(device_id) == \
                    crashed.last_seen(device_id)

            # Re-run the crashed round, as the campaign runner does, then
            # a round with one device newly infected.  A SQLite restore
            # lists devices in table order, so compare device by device.
            infected = fleet.device_ids()[1]
            for time in (120.0, 180.0):
                if time == 180.0:
                    fleet.device(infected).load_application(b"implant")
                fleet.run_until(time)
                expected = oracle_round(fleet)
                reports = fleet.collect_all()
                assert sorted(map(report_key, reports)) == \
                    sorted(map(report_key, expected))
            assert fleet.health.flagged_devices == {infected}

    def test_journal_matches_successful_appends(self):
        inner = MemoryStore()
        store = CrashOnceStore(inner, crash_after_reports=2)
        engine = SimulationEngine()
        with provision(engine=engine, store=store) as fleet:
            fleet.run_until(60.0)
            with pytest.raises(StoreError):
                fleet.collect_all()
            assert len(journaled_reports(inner)) == 2

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            CrashOnceStore(MemoryStore(), crash_after_reports=-1)
