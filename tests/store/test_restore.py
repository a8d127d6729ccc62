"""Kill-and-restore integration: a FleetVerifier survives its process.

The acceptance bar for the persistence subsystem: after a simulated
crash, :meth:`FleetVerifier.restore` must reproduce the pre-crash
:class:`FleetHealth` aggregate and per-device ``last_seen`` exactly —
byte-identical snapshot after an idempotent re-checkpoint — for both
durable backends, and the restored verifier must keep verifying
correctly (stale devices flagged, healthy devices not).
"""

import pytest

from repro.fleet import DeviceProfile, DuplicateEnrollmentError, Fleet, \
    FleetVerifier
from repro.store import JsonlStore, MemoryStore, SqliteStore

FIRMWARE = b"restore-test-firmware" + bytes(100)
MASTER_SECRET = b"restore-test-master-secret"


def make_store(backend, tmp_path, name="state"):
    if backend == "jsonl":
        return JsonlStore(tmp_path / name)
    return SqliteStore(tmp_path / f"{name}.sqlite")


def profile():
    return DeviceProfile.smartplus(firmware=FIRMWARE,
                                   application_size=256,
                                   measurement_interval=60.0,
                                   collection_interval=600.0,
                                   buffer_slots=16)


def provision(tmp_path, backend, opened, count=24):
    store = opened(make_store(backend, tmp_path))
    return opened(Fleet.provision(profile(), count,
                                  master_secret=MASTER_SECRET, store=store))


@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
def test_kill_and_restore_reproduces_state_exactly(backend, tmp_path, opened):
    fleet = provision(tmp_path, backend, opened)
    fleet.run_until(600.0)
    reports = fleet.collect_all()
    assert all(not report.detected_infection() for report in reports)

    health_before = fleet.verifier.health.to_row()
    snapshot_before = fleet.verifier.store.state_bytes()
    last_seen_before = {
        device_id: fleet.verifier._enrollments[device_id].last_seen
        for device_id in fleet.device_ids()}
    times_before = {
        device_id: fleet.verifier._last_collection_time.get(device_id)
        for device_id in fleet.device_ids()}
    assert snapshot_before  # the round checkpointed automatically

    # Crash: only the store's files survive.
    restored = FleetVerifier.restore(
        profile().config, opened(make_store(backend, tmp_path)))

    assert restored.health.to_row() == health_before
    assert restored.device_count == fleet.device_count
    for device_id in fleet.device_ids():
        assert restored._enrollments[device_id].last_seen \
            == last_seen_before[device_id]
        assert restored._last_collection_time.get(device_id) \
            == times_before[device_id]
    assert restored.rounds_completed == 1

    # Idempotent re-checkpoint: byte-identical snapshot.
    restored.checkpoint()
    assert restored.store.state_bytes() == snapshot_before


@pytest.mark.parametrize("backend", ["memory", "jsonl", "sqlite"])
def test_restore_keeps_provisioning_order(backend, tmp_path, opened):
    """The restored verifier lists devices in enrollment order — not
    sorted by id, and not in the order the shards happened to commit
    them.  A round writes no enrollment (``last_seen`` advances ride
    on the report rows), so order comes from the enrollment records
    and the checkpoint alone."""
    store = opened(MemoryStore() if backend == "memory"
                   else make_store(backend, tmp_path))
    fleet = opened(Fleet.provision(profile(), 24,
                                   master_secret=MASTER_SECRET, store=store,
                                   shards=3))
    late = ["zeta", "alpha", "mid", "beta"]
    for device_id in late:
        device = profile().provision(device_id, master_secret=MASTER_SECRET)
        device.prover.attach(fleet.engine, start_time=0.0)
        fleet.transport.register(device)
        fleet.verifier.enroll_device(device)
    fleet.run_until(600.0)
    fleet.collect_all()
    before = fleet.verifier.enrolled_ids()
    assert before == fleet.device_ids() + late

    survivor = store if backend == "memory" \
        else opened(make_store(backend, tmp_path))
    restored = FleetVerifier.restore(profile().config, survivor)
    assert restored.enrolled_ids() == before


@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
def test_restored_verifier_flags_stale_devices(backend, tmp_path, opened):
    fleet = provision(tmp_path, backend, opened)
    fleet.run_until(600.0)
    fleet.collect_all()
    stalled = fleet.device_ids()[3]
    fleet.device(stalled).prover.critical_task_active = lambda _time: True
    fleet.run_until(1200.0)

    restored = FleetVerifier.restore(
        profile().config, opened(make_store(backend, tmp_path)))
    second = restored.collect_all(fleet.transport)
    flagged = [report.device_id for report in second
               if report.detected_infection()]
    assert flagged == [stalled]
    # The second round advanced and re-checkpointed durable state.
    assert restored.rounds_completed == 2
    third = FleetVerifier.restore(
        profile().config, opened(make_store(backend, tmp_path)))
    assert third.health.to_row() == restored.health.to_row()


@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
def test_uncheckpointed_round_recovers_from_journal(backend, tmp_path,
                                                    monkeypatch, opened):
    """A crash mid-deployment loses nothing that reached the journal."""
    fleet = provision(tmp_path, backend, opened, count=8)
    fleet.run_until(600.0)
    fleet.collect_all()  # checkpointed round
    fleet.run_until(1200.0)
    # Crash before checkpoint: the round journals but never snapshots.
    monkeypatch.setattr(fleet.verifier, "checkpoint", lambda: None)
    fleet.collect_all()
    health_before = fleet.verifier.health.to_row()

    restored = FleetVerifier.restore(
        profile().config, opened(make_store(backend, tmp_path)))
    assert restored.health.to_row() == health_before
    assert restored.health.reports_total == 16


def test_restore_keeps_committing_through_the_store(tmp_path, opened):
    fleet = provision(tmp_path, "jsonl", opened, count=6)
    fleet.run_until(600.0)
    fleet.collect_all()
    restored = FleetVerifier.restore(
        profile().config, opened(make_store("jsonl", tmp_path)))
    # New enrollments after restore are durable too.
    ghost = profile().provision("late-device", master_secret=MASTER_SECRET)
    restored.enroll_device(ghost)
    restored.checkpoint()
    again = FleetVerifier.restore(
        profile().config, opened(make_store("jsonl", tmp_path)))
    assert again.is_enrolled("late-device")
    assert again.device_count == 7


def test_duplicate_enrollment_rejected_and_escape_hatch(tmp_path, opened):
    fleet = provision(tmp_path, "jsonl", opened, count=4)
    device = fleet.device(fleet.device_ids()[0])
    with pytest.raises(DuplicateEnrollmentError):
        fleet.verifier.enroll_device(device)
    # The escape hatch deliberately resets the enrollment.
    fleet.run_until(600.0)
    fleet.collect_all()
    assert fleet.verifier._enrollments[device.device_id].last_seen \
        is not None
    fleet.verifier.enroll_device(device, re_enroll=True)
    assert fleet.verifier._enrollments[device.device_id].last_seen is None


def test_provisioning_over_existing_store_state_fails_loudly(tmp_path, opened):
    """Re-running provision against a used state dir must not silently
    erase persisted last-seen state — restore is the correct path."""
    fleet = provision(tmp_path, "jsonl", opened, count=4)
    fleet.run_until(600.0)
    fleet.collect_all()
    fleet.close()
    with pytest.raises(DuplicateEnrollmentError):
        provision(tmp_path, "jsonl", opened, count=4)


def _re_enroll_device(verifier, device):
    verifier.enroll_device(device, re_enroll=True)


def _re_enroll_primitive(verifier, device):
    verifier.enroll(device.device_id, device.key, [device.healthy_digest])


@pytest.mark.parametrize("replace", [_re_enroll_device, _re_enroll_primitive],
                         ids=["enroll_device", "enroll"])
@pytest.mark.parametrize("backend", ["sqlite", "jsonl"])
def test_re_enrollment_clears_collection_time_everywhere(tmp_path, backend,
                                                         replace, opened):
    """Replacing an enrollment voids the old unit's collection history —
    live, in the next checkpoint, and across an un-checkpointed crash."""
    fleet = provision(tmp_path, backend, opened, count=4)
    device_id = fleet.device_ids()[0]
    fleet.run_until(600.0)
    fleet.collect_all()
    assert fleet.verifier._last_collection_time.get(device_id) is not None

    replace(fleet.verifier, fleet.device(device_id))
    assert fleet.verifier._last_collection_time.get(device_id) is None
    # Crash before any checkpoint: the restore must agree.
    restored = FleetVerifier.restore(
        profile().config, opened(make_store(backend, tmp_path)))
    assert restored._last_collection_time.get(device_id) is None
    assert restored.last_seen(device_id) is None
