"""Contract tests: all three StateStore backends behave identically.

Every backend — memory, JSONL snapshot+journal, SQLite — must journal
enrollments and reports, checkpoint deterministically, and replay
snapshot + journal tail into the same :class:`RestoredState`.
"""

import contextlib
import json
import sqlite3

import pytest

from repro.core.verification import (
    DeviceStatus,
    Enrollment,
    VerificationReport,
)
from repro.fleet.sinks import FleetHealth
from repro.store import (
    JsonlStore,
    MemoryStore,
    SqliteStore,
    StoreError,
    encode_snapshot,
)
from tests.store.helpers import journaled_reports

BACKENDS = ("memory", "jsonl", "sqlite")


def make_store(backend, tmp_path):
    if backend == "memory":
        return MemoryStore()
    if backend == "jsonl":
        return JsonlStore(tmp_path / "state")
    return SqliteStore(tmp_path / "state.sqlite")


@pytest.fixture
def open_store(tmp_path, opened):
    """Open a backend's store on this test's medium, closed at teardown."""
    def _open(backend):
        return opened(make_store(backend, tmp_path))
    return _open


def reopen(backend, store, open_store):
    """Simulate a process restart: close and reopen the same medium."""
    if backend == "memory":
        return store  # memory survives only within the process
    store.close()
    return open_store(backend)


def enrollment(device_id, last_seen=None):
    return Enrollment.create(device_id, b"\x01" * 16,
                             [b"\xaa" * 32], last_seen=last_seen)


def report(device_id, collection_time, status=DeviceStatus.HEALTHY,
           measurements=3, newest=None):
    row = {
        "device_id": device_id,
        "collection_time": collection_time,
        "status": status.value,
        "measurements": measurements,
        "freshness": 1.5,
        "missing_intervals": 0,
        "anomalies": [],
        "infected_timestamps": [],
        "newest_timestamp": newest if newest is not None
        else collection_time - 1.5,
    }
    return VerificationReport.from_row(row)


@pytest.mark.parametrize("backend", BACKENDS)
def test_enrollments_round_trip_and_upsert(backend, open_store):
    store = open_store(backend)
    first = enrollment("dev-α")
    store.save_enrollment(first)
    store.save_enrollment(enrollment("dev-b"))
    advanced = first.advanced(120.0)
    store.save_enrollment(advanced)  # replaces, not duplicates

    store = reopen(backend, store, open_store)
    state = store.restore_state()
    assert set(state.enrollments) == {"dev-α", "dev-b"}
    assert state.enrollments["dev-α"] == advanced
    assert state.enrollments["dev-b"].last_seen is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_journal_tail_replayed_after_checkpoint(backend, open_store):
    """Reports appended after the last checkpoint are not lost."""
    store = open_store(backend)
    store.save_enrollment(enrollment("dev-1"))
    health = FleetHealth()
    checkpointed = report("dev-1", 100.0)
    health.record(checkpointed)
    store.append_report(checkpointed)
    store.checkpoint({"dev-1": enrollment("dev-1", last_seen=98.5)},
                     health, {"dev-1": 100.0}, rounds_completed=1)

    # A crash strikes after two more reports but before any checkpoint.
    store.append_report(report("dev-1", 200.0, newest=198.0))
    store.append_report(
        report("dev-1", 300.0, status=DeviceStatus.INFECTED, newest=299.0))

    store = reopen(backend, store, open_store)
    state = store.restore_state()
    assert state.health.reports_total == 3
    assert state.health.count(DeviceStatus.INFECTED) == 1
    assert state.health.flagged_devices == {"dev-1"}
    assert state.last_collection_times["dev-1"] == 300.0
    assert state.enrollments["dev-1"].last_seen == 299.0
    assert state.rounds_completed == 1
    assert state.replayed_reports == 2  # only the un-checkpointed tail


@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpoint_is_deterministic(backend, open_store):
    store = open_store(backend)
    enrollments = {f"dev-{index}": enrollment(f"dev-{index}", last_seen=50.0)
                   for index in (2, 0, 1)}
    for record in enrollments.values():
        store.save_enrollment(record)
    health = FleetHealth()
    health.record(report("dev-0", 60.0))
    times = {"dev-0": 60.0}

    store.checkpoint(enrollments, health, times, rounds_completed=1)
    first_bytes = store.state_bytes()
    assert first_bytes  # a checkpoint produced a snapshot
    # Enrollments stay in the caller's order, not sorted by id.
    assert [row["device_id"] for row in store.state_rows()["enrollments"]] \
        == ["dev-2", "dev-0", "dev-1"]
    store.checkpoint(enrollments, health, times, rounds_completed=1)
    assert store.state_bytes() == first_bytes
    # And the snapshot is the canonical encoding of its own rows.
    assert encode_snapshot(store.state_rows()) == first_bytes


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_store_restores_to_blank_state(backend, open_store):
    store = open_store(backend)
    state = store.restore_state()
    assert state.enrollments == {}
    assert state.health.reports_total == 0
    assert state.rounds_completed == 0
    assert store.state_rows() is None
    assert store.state_bytes() == b""


def test_sqlite_history_survives_checkpoints(tmp_path, opened):
    """SQLite is the full-history backend: checkpoints drop nothing."""
    store = opened(SqliteStore(tmp_path / "state.sqlite"))
    store.save_enrollment(enrollment("dev-1"))
    for time in (10.0, 20.0, 30.0):
        store.append_report(report("dev-1", time))
        store.checkpoint({}, FleetHealth(), {})
    assert len(journaled_reports(store)) == 3


def test_jsonl_atomic_snapshot_and_torn_journal_tail(tmp_path, opened):
    store = opened(JsonlStore(tmp_path / "state"))
    store.save_enrollment(enrollment("dev-1"))
    health = FleetHealth()
    store.checkpoint({"dev-1": enrollment("dev-1")}, health, {},
                     rounds_completed=1)
    store.append_report(report("dev-1", 100.0))
    store.close()

    # No temp file left behind by the atomic replace.
    leftovers = [path for path in (tmp_path / "state").iterdir()
                 if path.suffix == ".tmp"]
    assert leftovers == []

    # A crash mid-append leaves a torn final line; recovery must
    # tolerate it and keep every complete record.
    journal = tmp_path / "state" / "journal.jsonl"
    with open(journal, "a", encoding="utf-8") as stream:
        stream.write('{"seq": 99, "kind": "report", "row"')

    reopened = opened(JsonlStore(tmp_path / "state"))
    state = reopened.restore_state()
    assert state.health.reports_total == 1
    assert state.rounds_completed == 1


def test_jsonl_corrupt_middle_record_raises(tmp_path, opened):
    store = opened(JsonlStore(tmp_path / "state"))
    store.append_report(report("dev-1", 10.0))
    store.close()
    journal = tmp_path / "state" / "journal.jsonl"
    lines = journal.read_text().splitlines()
    journal.write_text("not json at all\n" + "\n".join(lines) + "\n")
    with pytest.raises(StoreError):
        JsonlStore(tmp_path / "state")


def test_jsonl_checkpoint_truncates_journal(tmp_path, opened):
    store = opened(JsonlStore(tmp_path / "state"))
    for index in range(5):
        store.append_report(report("dev-1", float(index)))
    journal = tmp_path / "state" / "journal.jsonl"
    assert len(journal.read_text().splitlines()) == 5
    store.checkpoint({}, FleetHealth(), {})
    assert journal.read_text() == ""
    # Sequence numbering continues past the checkpoint.
    store.append_report(report("dev-1", 99.0))
    record = json.loads(journal.read_text().splitlines()[0])
    assert record["seq"] == 6


def test_jsonl_append_leaves_no_cyclic_garbage(tmp_path, opened):
    """Each journal line is json.dumps of the record, and appending it
    leaves nothing behind that only the cyclic collector could free."""
    import gc

    store = opened(JsonlStore(tmp_path / "state"))
    store.save_enrollment(enrollment("dev-1"))
    gc.collect()
    gc.disable()
    try:
        with store.batch():
            for index in range(100):
                store.save_enrollment(enrollment(f"dev-{index}", 1.0))
                store.append_report(report(f"dev-{index}", float(index)))
        assert gc.collect() == 0
    finally:
        gc.enable()
    lines = (tmp_path / "state" / "journal.jsonl").read_text().splitlines()
    assert len(lines) == 201
    assert lines == [json.dumps(json.loads(line), sort_keys=True,
                                separators=(",", ":")) for line in lines]


def test_memory_store_bounds_report_retention():
    store = MemoryStore(max_reports=4)
    health = FleetHealth()
    for index in range(3):
        record = report("dev-1", float(index))
        health.record(record)
        store.append_report(record)
    store.checkpoint({}, health, {}, rounds_completed=1)
    # The checkpoint dropped the records it folded in, so three more
    # fit the window; restore still reproduces the full aggregate.
    for index in range(3, 6):
        store.append_report(report("dev-1", float(index)))
    assert len(journaled_reports(store)) == 3
    state = store.restore_state()
    assert state.health.reports_total == 6
    assert state.replayed_reports == 3


def test_memory_store_rejects_restore_after_uncheckpointed_eviction():
    store = MemoryStore(max_reports=2)
    for index in range(4):  # nothing checkpointed, two reports evicted
        store.append_report(report("dev-1", float(index)))
    with pytest.raises(StoreError):
        store.restore_state()
    with pytest.raises(ValueError):
        MemoryStore(max_reports=0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_replay_never_resurrects_a_reenrollment_reset(backend, open_store):
    """A deliberate re-enrollment (last_seen=None, new key) written after
    journaled reports must survive restore on every backend — replay may
    not re-advance past the reset."""
    store = open_store(backend)
    store.save_enrollment(enrollment("dev-1"))
    store.append_report(report("dev-1", 100.0, newest=100.0))
    reset = Enrollment.create("dev-1", b"\x02" * 16, [b"\xbb" * 32])
    store.save_enrollment(reset)  # re_enroll=True path, then crash

    store = reopen(backend, store, open_store)
    state = store.restore_state()
    assert state.enrollments["dev-1"].last_seen is None
    assert state.enrollments["dev-1"].key == b"\x02" * 16
    # The report itself is still part of the replayed aggregate.
    assert state.health.reports_total == 1
    # A report arriving *after* the reset advances normally again.
    store.append_report(report("dev-1", 200.0, newest=199.0))
    state = store.restore_state()
    assert state.enrollments["dev-1"].last_seen == 199.0


def test_jsonl_append_after_torn_tail_does_not_corrupt(tmp_path, opened):
    """Recovery must repair a torn tail before the next append merges
    a new record onto the partial line."""
    store = opened(JsonlStore(tmp_path / "state"))
    store.append_report(report("dev-1", 10.0))
    store.close()
    journal = tmp_path / "state" / "journal.jsonl"
    with open(journal, "a", encoding="utf-8") as stream:
        stream.write('{"seq": 2, "kind": "rep')  # crash mid-append

    reopened = opened(JsonlStore(tmp_path / "state"))
    reopened.save_enrollment(enrollment("dev-2"))
    reopened.append_report(report("dev-2", 20.0))
    reopened.close()

    final = opened(JsonlStore(tmp_path / "state"))
    state = final.restore_state()
    assert state.health.reports_total == 2
    assert "dev-2" in state.enrollments


def test_jsonl_acknowledged_record_missing_newline_is_completed(tmp_path,
                                                               opened):
    """A record that parsed (and was re-served by replay) but lost only
    its newline must be completed on repair, never dropped."""
    store = opened(JsonlStore(tmp_path / "state"))
    store.save_enrollment(enrollment("dev-1"))
    store.save_enrollment(enrollment("dev-2"))
    store.close()
    journal = tmp_path / "state" / "journal.jsonl"
    data = journal.read_bytes()
    assert data.endswith(b"\n")
    journal.write_bytes(data[:-1])  # crash between record and newline

    reopened = opened(JsonlStore(tmp_path / "state"))
    assert reopened.has_enrollment("dev-2")  # acknowledged on reopen...
    reopened.save_enrollment(enrollment("dev-3"))
    reopened.close()
    final = opened(JsonlStore(tmp_path / "state")).restore_state()
    # ...so it must survive the next crash/recovery too.
    assert set(final.enrollments) == {"dev-1", "dev-2", "dev-3"}


def test_sqlite_close_is_idempotent(tmp_path, opened):
    store = opened(SqliteStore(tmp_path / "state.sqlite"))
    with store:
        store.save_enrollment(enrollment("dev-1"))
        store.close()  # early close inside the context manager
    store.close()  # and once more for good measure
    assert opened(SqliteStore(tmp_path / "state.sqlite")).has_enrollment(
        "dev-1")


@pytest.mark.parametrize("backend", BACKENDS)
def test_measurement_free_report_does_not_shield_a_reset(backend, open_store):
    """A NO_DATA report after a re-enrollment reset must not resurrect
    the decommissioned unit's collection time on restore."""
    store = open_store(backend)
    store.save_enrollment(enrollment("dev-1"))
    health = FleetHealth()
    first = report("dev-1", 100.0, newest=100.0)
    health.record(first)
    store.append_report(first)
    store.checkpoint({"dev-1": enrollment("dev-1", last_seen=100.0)},
                     health, {"dev-1": 100.0}, rounds_completed=1)

    # Deliberate reset (live verifier popped the time), then the new
    # unit fails to answer a round; crash before any checkpoint.
    store.save_enrollment(
        Enrollment.create("dev-1", b"\x02" * 16, [b"\xbb" * 32]))
    store.append_report(report("dev-1", 200.0,
                               status=DeviceStatus.NO_DATA,
                               measurements=0, newest=None))

    store = reopen(backend, store, open_store)
    state = store.restore_state()
    assert state.enrollments["dev-1"].last_seen is None
    assert "dev-1" not in state.last_collection_times


def test_future_snapshot_version_is_rejected(tmp_path, opened):
    store = opened(JsonlStore(tmp_path / "state"))
    store.save_enrollment(enrollment("dev-1"))
    store.checkpoint({"dev-1": enrollment("dev-1")}, FleetHealth(), {})
    store.close()
    snapshot = tmp_path / "state" / "snapshot.json"
    document = json.loads(snapshot.read_text())
    document["version"] = 99
    snapshot.write_text(json.dumps(document))
    with pytest.raises(StoreError):
        JsonlStore(tmp_path / "state")


@pytest.mark.parametrize("backend", ("jsonl", "sqlite"))
def test_writes_after_close_raise_store_error(backend, open_store):
    store = open_store(backend)
    store.save_enrollment(enrollment("dev-1"))
    store.close()
    with pytest.raises(StoreError):
        store.append_report(report("dev-1", 10.0))
    with pytest.raises(StoreError):
        store.checkpoint({}, FleetHealth(), {})


def test_jsonl_tail_torn_inside_multibyte_character(tmp_path, opened):
    """A crash can cut a record mid-way through a multi-byte UTF-8
    character; recovery must treat it as a torn tail, not die decoding."""
    store = opened(JsonlStore(tmp_path / "state"))
    store.save_enrollment(enrollment("dev-1"))
    store.close()
    journal = tmp_path / "state" / "journal.jsonl"
    # Partial record ending in the first byte of 'é' (0xC3 0xA9).
    with open(journal, "ab") as stream:
        stream.write(b'{"seq": 2, "kind": "enrollment", "row": {"de\xc3')

    reopened = opened(JsonlStore(tmp_path / "state"))
    assert reopened.has_enrollment("dev-1")
    reopened.save_enrollment(enrollment("dev-é"))
    reopened.close()
    state = opened(JsonlStore(tmp_path / "state")).restore_state()
    assert set(state.enrollments) == {"dev-1", "dev-é"}


def test_sqlite_refuses_the_old_layout(tmp_path):
    """A file with the earlier enrollments/reports tables is never
    misread as an empty journal."""
    path = tmp_path / "old.sqlite"
    with contextlib.closing(sqlite3.connect(path)) as conn:
        conn.executescript(
            "CREATE TABLE enrollments (device_id TEXT PRIMARY KEY, "
            "row TEXT NOT NULL, saved_seq INTEGER NOT NULL DEFAULT 0);"
            "CREATE TABLE reports (seq INTEGER PRIMARY KEY AUTOINCREMENT, "
            "device_id TEXT NOT NULL, row TEXT NOT NULL);")
    with pytest.raises(StoreError, match="old layout"):
        SqliteStore(path)
