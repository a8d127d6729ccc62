"""A record dated in the future must not move a device's last-seen mark.

Malware can write a record with any timestamp into the insecure buffer.
Its MAC fails and the collection is TAMPERED, but if the verifier then
took that timestamp as the newest one seen, every later genuine record
would count as already seen and no deletion could ever show again.
"""

import pytest

from repro.core import DeviceStatus, Measurement
from repro.fleet import Fleet, FleetVerifier
from repro.store import JsonlStore, SqliteStore
from tests.fleet.helpers import small_profile

FIRMWARE = b"future-dated-firmware"
FORGED_TIME = 10_000.0


def slot_holding(store, timestamp):
    return next(index for index, record in enumerate(store)
                if record is not None and record.timestamp == timestamp)


def forge_future_record(fleet):
    """Replace the t=110 record with one dated far ahead, garbage tag."""
    store = fleet.device("dev-0000").prover.store
    slot = slot_holding(store, 110.0)
    genuine = store.raw_slot(slot)
    store.overwrite_slot(slot, Measurement(
        timestamp=FORGED_TIME, digest=genuine.digest,
        tag=bytes(len(genuine.tag))))


def forged_round(store=None):
    fleet = Fleet.provision(small_profile(FIRMWARE), 1,
                            master_secret=b"master", store=store)
    fleet.run_until(60.0)
    assert fleet.collect_all()[0].status is DeviceStatus.HEALTHY
    fleet.run_until(120.0)
    forge_future_record(fleet)
    (report,) = fleet.collect_all()
    assert report.status is DeviceStatus.TAMPERED
    assert "1 measurement(s) are timestamped in the future" \
        in report.anomalies
    return fleet, report


def test_future_dated_record_does_not_hide_a_later_deletion():
    fleet, report = forged_round()
    assert report.newest_timestamp == 120.0
    assert report.to_row()["newest_timestamp"] == 120.0
    assert fleet.verifier._enrollments["dev-0000"].last_seen == 120.0
    # The forged slot leaves the k newest; malware then deletes t=150.
    fleet.run_until(180.0)
    store = fleet.device("dev-0000").prover.store
    store.overwrite_slot(slot_holding(store, 150.0), None)
    (report,) = fleet.collect_all()
    assert sorted(v.measurement.timestamp for v in report.verdicts) == \
        [130.0, 140.0, 160.0, 170.0, 180.0]
    assert report.status is DeviceStatus.TAMPERED
    assert report.missing_intervals >= 1


def test_all_future_records_leave_last_seen_in_place():
    fleet, _ = forged_round()
    enrollment = fleet.verifier._enrollments["dev-0000"]
    judge = fleet.verifier.core.device_judge(enrollment.key)
    future = Measurement(timestamp=FORGED_TIME, digest=b"d", tag=b"t")
    report = judge.verify_measurements(enrollment, [future], 180.0)
    assert report.measurement_count == 1
    assert report.newest_timestamp is None
    assert report.to_row()["newest_timestamp"] is None
    assert fleet.verifier.core.advance_last_seen(report, 120.0) == 120.0


@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
@pytest.mark.parametrize("checkpointed", [True, False])
def test_restore_after_forged_round_keeps_the_genuine_last_seen(
        backend, checkpointed, tmp_path, monkeypatch):
    def make_store():
        if backend == "jsonl":
            return JsonlStore(tmp_path / "state")
        return SqliteStore(tmp_path / "state.sqlite")

    fleet = Fleet.provision(small_profile(FIRMWARE), 1,
                            master_secret=b"master", store=make_store())
    try:
        fleet.run_until(60.0)
        fleet.collect_all()
        if not checkpointed:
            # Crash before the forged round's checkpoint: restore
            # replays its journaled row.
            monkeypatch.setattr(fleet.verifier, "checkpoint", lambda: None)
        fleet.run_until(120.0)
        forge_future_record(fleet)
        assert fleet.collect_all()[0].status is DeviceStatus.TAMPERED

        restored = FleetVerifier.restore(fleet.verifier.config,
                                         make_store())
        try:
            last_seen = restored._enrollments["dev-0000"].last_seen
        finally:
            restored.close()
    finally:
        fleet.close()
    assert last_seen != FORGED_TIME
    assert last_seen == 120.0
