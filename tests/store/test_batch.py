"""A store batch is one durable unit, and a shard batch is one store batch.

Outside :meth:`StateStore.batch` a write is durable when it returns;
inside, the writes become durable together when the outermost batch
exits.  The verifier commits each shard batch of a round — report
rows only — as one store batch, before any of its reports reaches a
sink.  SQLite inserts a batch's rows with one ``executemany``, and
journals each report's canonical text, the very line the JSONL sink
writes.
"""

import contextlib
import io
import json
import sqlite3

import pytest

from repro.core.verification import DeviceStatus, Enrollment, \
    VerificationReport
from repro.fleet import Fleet, FleetVerifier, JsonlSink, MemorySink
from repro.fleet.sinks import FleetHealth
from repro.obs import Observability
from repro.store import JsonlStore, MemoryStore, SqliteStore, StoreError
from tests.fleet.helpers import small_profile
from tests.store.helpers import journaled_reports

FIRMWARE = b"group-commit-firmware"


def enrollment(device_id, last_seen=None):
    return Enrollment.create(device_id, b"\x01" * 16, [b"\xaa" * 32],
                             last_seen=last_seen)


def report(device_id, collection_time):
    return VerificationReport.from_row({
        "device_id": device_id, "collection_time": collection_time,
        "status": DeviceStatus.HEALTHY.value, "measurements": 3,
        "freshness": 1.5, "missing_intervals": 0, "anomalies": [],
        "infected_timestamps": [],
        "newest_timestamp": collection_time - 1.5})


def count_commits(store):
    """Start counting the ``COMMIT`` statements a SQLite store issues."""
    statements = []
    store._conn.set_trace_callback(statements.append)
    return lambda: sum(1 for statement in statements
                       if statement.strip().upper().startswith("COMMIT"))


class _FailingCommits:
    """A connection whose next ``commit`` fails once it is armed."""

    def __init__(self, conn):
        self._conn = conn
        self.armed = False

    def commit(self):
        if self.armed:
            self.armed = False
            raise sqlite3.OperationalError("disk I/O error")
        self._conn.commit()

    def __getattr__(self, name):
        return getattr(self._conn, name)


class _CountedStatements:
    """A connection that logs its ``execute``/``executemany`` calls and
    whose next ``executemany`` fails after one row once it is armed."""

    def __init__(self, conn):
        self._conn = conn
        self.calls = []
        self.armed = False

    def execute(self, sql, *args):
        self.calls.append(("execute", sql.split()[0]))
        return self._conn.execute(sql, *args)

    def executemany(self, sql, rows):
        rows = list(rows)
        self.calls.append(("executemany", len(rows)))
        if self.armed:
            self.armed = False
            self._conn.execute(sql, rows[0])
            raise sqlite3.OperationalError("disk I/O error")
        return self._conn.executemany(sql, rows)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_sqlite_batch_commits_once_at_the_outermost_exit(tmp_path, opened):
    store = opened(SqliteStore(tmp_path / "state.sqlite"))
    commits = count_commits(store)
    with store.batch():
        store.save_enrollment(enrollment("dev-1"))
        with store.batch():
            store.append_report(report("dev-1", 10.0))
        store.append_report(report("dev-1", 20.0))
        # The inner exit committed nothing.
        assert journaled_reports(store) == []
    assert len(journaled_reports(store)) == 2
    assert commits() == 1
    # Outside a batch every write is durable when it returns.
    store.append_report(report("dev-1", 30.0))
    assert len(journaled_reports(store)) == 3
    assert commits() == 2


def test_sqlite_batch_commits_the_writes_before_a_failure(tmp_path, opened):
    store = opened(SqliteStore(tmp_path / "state.sqlite"))
    with pytest.raises(RuntimeError, match="mid-batch"):
        with store.batch():
            store.append_report(report("dev-1", 10.0))
            store.append_report(report("dev-1", 20.0))
            raise RuntimeError("mid-batch")
    assert len(journaled_reports(store)) == 2


def test_sqlite_failed_batch_commit_rolls_the_batch_back(tmp_path, opened):
    """A failed commit leaves none of the batch behind, in the file or in
    the store's in-memory seq and enrolled ids."""
    store = opened(SqliteStore(tmp_path / "state.sqlite"))
    store.save_enrollment(enrollment("dev-1"))
    store.append_report(report("dev-1", 10.0))
    store._conn = failing = _FailingCommits(store._conn)
    failing.armed = True
    with pytest.raises(sqlite3.OperationalError):
        with store.batch():
            store.append_report(report("dev-1", 20.0))
            store.save_enrollment(enrollment("dev-2"))
    assert len(journaled_reports(store)) == 1
    assert not store.has_enrollment("dev-2")
    store.checkpoint({"dev-1": enrollment("dev-1")}, FleetHealth(), {})
    assert store.state_rows()["journal_seq"] == 2


def test_sqlite_batch_is_one_executemany(tmp_path, opened):
    """A batch's rows reach SQLite in one statement at the outermost
    exit; outside a batch each write is a one-row statement."""
    store = opened(SqliteStore(tmp_path / "state.sqlite"))
    store._conn = counted = _CountedStatements(store._conn)
    with store.batch():
        store.save_enrollment(enrollment("dev-1"))
        with store.batch():
            for index in range(5):
                store.append_report(report("dev-1", 10.0 * (index + 1)))
        assert counted.calls == []
    assert counted.calls == [("executemany", 6)]
    assert len(journaled_reports(store)) == 5
    store.append_report(report("dev-1", 60.0))
    assert counted.calls[1:] == [("executemany", 1)]
    assert len(journaled_reports(store)) == 6


def test_sqlite_failed_batch_insert_rolls_the_batch_back(tmp_path, opened):
    """An ``executemany`` that fails at the outermost exit, after one of
    its rows went in, leaves none of the batch durable; the in-memory seq
    and enrolled ids are read back from the file, so the next batch and
    checkpoint agree with a reopened store."""
    path = tmp_path / "state.sqlite"
    store = opened(SqliteStore(path))
    store.save_enrollment(enrollment("dev-1"))
    store.append_report(report("dev-1", 10.0))
    store._conn = counted = _CountedStatements(store._conn)
    counted.armed = True
    with pytest.raises(sqlite3.OperationalError):
        with store.batch():
            store.append_report(report("dev-1", 20.0))
            store.save_enrollment(enrollment("dev-2"))
    assert counted.calls[0] == ("executemany", 2)
    assert len(journaled_reports(store)) == 1
    assert not store.has_enrollment("dev-2")
    with store.batch():
        store.append_report(report("dev-1", 30.0))
    enrollments = {"dev-1": enrollment("dev-1", last_seen=28.5)}
    store.checkpoint(enrollments, FleetHealth(), {"dev-1": 30.0})
    assert [row["collection_time"] for row in journaled_reports(store)] == \
        [10.0, 30.0]
    reopened = opened(SqliteStore(path))
    reopened.checkpoint(enrollments, FleetHealth(), {"dev-1": 30.0})
    assert reopened.state_bytes() == store.state_bytes()
    assert store.state_rows()["journal_seq"] == 3


def test_sqlite_checkpoint_equals_a_reopened_stores(tmp_path, opened):
    """The in-memory seq checkpoints exactly what a store reading it
    back from the file does."""
    path = tmp_path / "state.sqlite"
    store = opened(SqliteStore(path))
    health = FleetHealth()
    enrollments = {f"dev-{index}": enrollment(f"dev-{index}")
                   for index in range(3)}
    with store.batch():
        for record in enrollments.values():
            store.save_enrollment(record)
    store.checkpoint(enrollments, health, {})
    with store.batch():
        store.append_report(report("dev-1", 10.0))
    enrollments["dev-1"] = enrollments["dev-1"].advanced(8.5)
    store.checkpoint(enrollments, health, {"dev-1": 10.0},
                     rounds_completed=1)
    store.close()
    reopened = opened(SqliteStore(path))
    before = reopened.state_bytes()
    reopened.checkpoint(enrollments, health, {"dev-1": 10.0},
                        rounds_completed=1)
    assert reopened.state_bytes() == before
    assert reopened.state_rows()["journal_seq"] == 4
    assert reopened.restore_state().enrollments == enrollments


def test_jsonl_batch_flushes_once_at_the_outermost_exit(tmp_path, opened):
    store = opened(JsonlStore(tmp_path / "state"))
    journal = tmp_path / "state" / "journal.jsonl"
    with store.batch():
        with store.batch():
            store.save_enrollment(enrollment("dev-1"))
        store.append_report(report("dev-1", 10.0))
        assert journal.read_text() == ""  # the flush waits for the exit
    assert len(journal.read_text().splitlines()) == 2
    store.append_report(report("dev-1", 20.0))
    assert len(journal.read_text().splitlines()) == 3


def provision(store, count=12, **kwargs):
    return Fleet.provision(small_profile(FIRMWARE), count,
                           master_secret=b"group-commit", store=store,
                           **kwargs)


def test_provisioning_is_one_commit(tmp_path, opened):
    store = opened(SqliteStore(tmp_path / "state.sqlite"))
    commits = count_commits(store)
    opened(provision(store))
    assert commits() == 1
    assert store.restore_state().enrollments.keys() == \
        {f"dev-{index:04d}" for index in range(12)}


@pytest.mark.parametrize("observed", [False, True],
                         ids=["bare", "observed"])
def test_round_commits_once_per_shard_batch(tmp_path, opened, observed):
    """One ``COMMIT`` per shard batch plus the checkpoint's, not two per
    device — also through the observability store wrapper."""
    store = opened(SqliteStore(tmp_path / "state.sqlite"))
    obs = Observability(seed=1) if observed else None
    fleet = opened(provision(store, shards=3, obs=obs))
    assert (fleet.verifier.store is not store) == observed
    fleet.run_until(60.0)
    commits = count_commits(store)
    reports = fleet.collect_all(batch_size=2)
    assert len(reports) == 12
    assert reports.stats.shards == 6
    assert commits() == reports.stats.shards + 1


@pytest.mark.parametrize("shards", [None, 3])
def test_failed_batch_commit_counts_none_of_the_batch(tmp_path, opened,
                                                      shards):
    """When a shard batch's commit fails, its reports reach neither the
    sinks nor health, and the file holds exactly what the sinks got."""
    path = tmp_path / "state.sqlite"
    store = opened(SqliteStore(path))
    sink = MemorySink()
    fleet = opened(provision(store, shards=shards, sinks=(sink,)))
    fleet.run_until(60.0)
    failing = _FailingCommits(store._conn)
    store._conn = failing
    calls = {"batches": 0}
    batch = store.batch

    def second_batch_fails():
        calls["batches"] += 1
        failing.armed = calls["batches"] == 2
        return batch()

    store.batch = second_batch_fails
    with pytest.raises(sqlite3.OperationalError):
        fleet.collect_all(batch_size=4)
    assert 0 < len(sink.reports) <= 8  # at least the failed batch is out
    assert fleet.health.reports_total == len(sink.reports)
    position = {device_id: index
                for index, device_id in enumerate(fleet.device_ids())}
    on_disk = sorted(journaled_reports(store),
                     key=lambda row: position[row["device_id"]])
    assert on_disk == [report.to_row() for report in sink.reports]
    restored = FleetVerifier.restore(small_profile(FIRMWARE).config,
                                     opened(SqliteStore(path)))
    assert restored.health.to_row() == fleet.health.to_row()


def test_failed_batch_commit_rolls_back_the_live_bookkeeping(tmp_path,
                                                              opened):
    """After a round whose batch commit failed, the live verifier holds
    the same last-seen, collection times and health as one restored
    from the file."""
    path = tmp_path / "state.sqlite"
    store = opened(SqliteStore(path))
    fleet = opened(provision(store, count=4))
    fleet.run_until(600.0)
    fleet.collect_all()
    fleet.run_until(1200.0)
    store._conn = failing = _FailingCommits(store._conn)
    failing.armed = True
    with pytest.raises(sqlite3.OperationalError):
        fleet.collect_all()
    live = fleet.verifier
    restored = FleetVerifier.restore(small_profile(FIRMWARE).config,
                                     opened(SqliteStore(path)))
    for device_id in fleet.device_ids():
        assert live.last_seen(device_id) == restored.last_seen(device_id)
        assert live._last_collection_time.get(device_id) == \
            restored._last_collection_time.get(device_id) == 600.0
    assert live.health.to_row() == restored.health.to_row()


class _FailingEnrollmentWrites(SqliteStore):
    """A SQLite store whose ``fail_on``-th enrollment write raises once
    ``fail_on`` is set, counting from then."""

    fail_on = None
    writes = 0

    def save_enrollment(self, enrollment):
        if self.fail_on is not None:
            self.writes += 1
            if self.writes == self.fail_on:
                raise StoreError("disk full")
        super().save_enrollment(enrollment)


def test_failing_enrollment_write_cannot_split_live_from_restored(tmp_path,
                                                                 opened):
    """An enrollment write that fails during a round leaves the live
    verifier and one restored from the file agreeing on every device's
    last-seen, collection time and health.  A round writes only report
    rows, so the armed failure has nothing to strike."""
    path = tmp_path / "state.sqlite"
    store = opened(_FailingEnrollmentWrites(path))
    fleet = opened(provision(store, count=4))
    fleet.run_until(600.0)
    fleet.collect_all()
    fleet.run_until(1200.0)
    store.fail_on = 3
    with contextlib.suppress(StoreError):
        fleet.collect_all()
    live = fleet.verifier
    restored = FleetVerifier.restore(small_profile(FIRMWARE).config,
                                     opened(SqliteStore(path)))
    for device_id in fleet.device_ids():
        assert live.last_seen(device_id) == restored.last_seen(device_id)
        assert live._last_collection_time.get(device_id) == \
            restored._last_collection_time.get(device_id)
    assert live.health.to_row() == restored.health.to_row()


@pytest.mark.parametrize("backend", ["memory", "jsonl", "sqlite"])
def test_round_writes_no_enrollment(tmp_path, opened, backend):
    """A round journals its report rows and checkpoints; ``last_seen``
    advances ride on the report rows, so no enrollment is written."""
    store = opened({"memory": MemoryStore,
                    "jsonl": lambda: JsonlStore(tmp_path / "state"),
                    "sqlite": lambda: SqliteStore(tmp_path / "s.sqlite"),
                    }[backend]())
    fleet = opened(provision(store, shards=3))
    fleet.run_until(60.0)
    writes = []
    store.save_enrollment = writes.append
    fleet.collect_all(batch_size=2)
    assert writes == []
    restored = store.restore_state()
    for device_id in fleet.device_ids():
        assert fleet.verifier.last_seen(device_id) is not None
        assert restored.enrollments[device_id].last_seen == \
            fleet.verifier.last_seen(device_id)


def test_sqlite_journal_and_jsonl_sink_write_the_same_line(tmp_path,
                                                           opened):
    """After a round, each report's journal row is its sink line without
    the newline, and both are ``json.dumps(row, sort_keys=True)``: the
    on-disk bytes of both media are pinned."""
    store = opened(SqliteStore(tmp_path / "state.sqlite"))
    stream = io.StringIO()
    fleet = opened(provision(store, shards=3, sinks=(JsonlSink(stream),)))
    fleet.run_until(60.0)
    reports = fleet.collect_all(batch_size=2)
    lines = stream.getvalue().splitlines(keepends=True)
    assert all(line.endswith("}\n") for line in lines)
    with contextlib.closing(sqlite3.connect(store.path)) as reader:
        journal = [row for (row,) in reader.execute(
            "SELECT row FROM journal WHERE kind = 'report' ORDER BY seq")]
    expected = [json.dumps(report.to_row(), sort_keys=True)
                for report in reports]
    assert [line[:-1] for line in lines] == expected
    assert sorted(journal) == sorted(expected)
    # Once the sinks have them, the round's reports drop their text.
    assert all(report._json is None for report in reports)
    # So does a single verified collection, whose line matches too.
    verifier = fleet.verifier
    prover = fleet.device("dev-0003").prover
    single = verifier.verify_collection(
        "dev-0003", prover.handle_collect(verifier.create_collect_request()),
        60.0)
    assert single._json is None
    assert stream.getvalue().splitlines()[-1] == \
        json.dumps(single.to_row(), sort_keys=True)
    # The shared encoding keeps json.dumps's escapes and spacing.
    odd = VerificationReport(
        device_id="dév-\u2603", collection_time=1e-7,
        status=DeviceStatus.TAMPERED, anomalies=["", "naïve \"quote\""],
        missing_intervals=2 ** 70, infected_timestamps=[-0.0, 3.5])
    assert odd.to_json() == json.dumps(odd.to_row(), sort_keys=True)


def test_sqlite_seq_survives_batched_rounds(tmp_path, opened):
    """After several batched rounds, each batch advancing the seq by its
    row count, the checkpoint equals a reopened store's and its journal
    position is the journal's newest row."""
    path = tmp_path / "state.sqlite"
    store = opened(SqliteStore(path))
    fleet = opened(provision(store, shards=3))
    for horizon in (60.0, 120.0, 180.0):
        fleet.run_until(horizon)
        fleet.collect_all(batch_size=5)
    verifier = fleet.verifier
    live = store.state_bytes()
    with contextlib.closing(sqlite3.connect(path)) as reader:
        (newest,), = reader.execute("SELECT max(seq) FROM journal")
    assert newest == 12 + 3 * 12  # the enrollments, then three rounds
    assert store.state_rows()["journal_seq"] == newest
    reopened = opened(SqliteStore(path))
    reopened.checkpoint(verifier._enrollments, verifier.health,
                        verifier._last_collection_time,
                        rounds_completed=verifier.rounds_completed)
    assert reopened.state_bytes() == live
