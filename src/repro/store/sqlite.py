"""SQLite state store: one database file, indexed per-device history.

Where :class:`~repro.store.jsonl.JsonlStore` optimizes for a grep-able
recovery log, this backend optimizes for queries: every report ever
accepted is kept in an indexed ``reports`` table, so per-device history
(``device_history``) stays fast at millions of rows, and enrollments
are upserted in place rather than journaled.

The checkpoint document (same canonical bytes as the JSONL snapshot)
is stored in a ``meta`` table; recovery loads it and replays only the
reports appended after its journal position, exactly like the JSONL
backend — the two differ purely in medium.

Outside a :meth:`SqliteStore.batch` every write is its own transaction,
committed before the call returns.  Inside one, the writes join a
single transaction that the outermost exit commits, so a verifier's
shard batch — its report rows and the ``last_seen`` advances they
cause — costs one ``COMMIT`` and lands atomically.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro.core.verification import Enrollment, VerificationReport
from repro.store.base import (
    RestoredState,
    Row,
    StateStore,
    StoreError,
    _check_limit,
    _drop_reset_collection_times,
    apply_report_row,
    encode_snapshot,
    snapshot_document,
    state_from_snapshot,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS enrollments (
    device_id TEXT PRIMARY KEY,
    row       TEXT NOT NULL,
    -- Report seq at the time of this enrollment write: replay must not
    -- advance last_seen past a deliberate re-enrollment reset.
    saved_seq INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS reports (
    seq       INTEGER PRIMARY KEY AUTOINCREMENT,
    device_id TEXT NOT NULL,
    row       TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_reports_device ON reports (device_id, seq);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

_SNAPSHOT_KEY = "snapshot"


class SqliteStore(StateStore):
    """Single-file SQLite persistence for verifier state.

    A write outside a :meth:`batch` is durable when it returns; inside
    one, when the outermost batch exits.  The store assumes it is the
    file's only writer: it keeps the newest report ``seq`` in memory
    (read once at open) and, from the first checkpoint on, a copy of
    the enrollment table, so neither an enrollment write nor a
    checkpoint reads back what this connection wrote itself.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = str(path)
        self._conn: Optional[sqlite3.Connection] = None
        try:
            # check_same_thread=False: the store itself is single-writer
            # (callers must serialize their calls), but the serialized
            # calls may come from different threads — sqlite3's
            # same-thread affinity check would reject those even though
            # they never overlap.
            self._conn = sqlite3.connect(self.path, check_same_thread=False)
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open SQLite store {self.path}") from exc
        self._conn.executescript(_SCHEMA)
        # WAL keeps append_report a sequential write; NORMAL sync is the
        # standard durability/throughput trade for a recovery log.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.commit()
        self._batch_depth = 0
        self._seq = self._newest_seq()
        # Loaded by the first checkpoint, not here: open-then-restore
        # must read the table only once.
        self._enrollments: Optional[Dict[str, Enrollment]] = None

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            raise StoreError(f"SQLite store {self.path} is closed")
        return self._conn

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        self._connection()
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            # A close inside the batch already committed everything.
            if not self._batch_depth and self._conn is not None:
                self._commit()

    def _commit(self) -> None:
        """Commit the open transaction; roll it back if that fails."""
        conn = self._connection()
        try:
            conn.commit()
        except BaseException:
            conn.rollback()
            # The in-memory copies may hold rolled-back writes.
            self._seq = self._newest_seq()
            self._enrollments = None
            raise

    def _write_done(self) -> None:
        if not self._batch_depth:
            self._commit()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def save_enrollment(self, enrollment: Enrollment) -> None:
        # An upsert, not INSERT OR REPLACE: REPLACE deletes and
        # re-inserts the row, moving a re-saved enrollment to the end
        # of the rowid order restore lists devices in.
        self._connection().execute(
            "INSERT INTO enrollments (device_id, row, saved_seq) "
            "VALUES (?, ?, ?) ON CONFLICT(device_id) DO UPDATE SET "
            "row = excluded.row, saved_seq = excluded.saved_seq",
            (enrollment.device_id,
             json.dumps(enrollment.to_row(), sort_keys=True), self._seq))
        self._write_done()
        if self._enrollments is not None:
            self._enrollments[enrollment.device_id] = enrollment

    def append_report(self, report: VerificationReport) -> None:
        cursor = self._connection().execute(
            "INSERT INTO reports (device_id, row) VALUES (?, ?)",
            (report.device_id,
             json.dumps(report.to_row(), sort_keys=True)))
        self._seq = cursor.lastrowid
        self._write_done()

    def checkpoint(self, health: Any,
                   last_collection_times: Mapping[str, float],
                   rounds_completed: int = 0) -> None:
        if self._enrollments is None:
            self._enrollments = self._load_enrollments()
        document = snapshot_document(
            self._enrollments, health, last_collection_times,
            rounds_completed, journal_seq=self._seq)
        self._connection().execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (_SNAPSHOT_KEY, encode_snapshot(document).decode("utf-8")))
        self._write_done()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _newest_seq(self) -> int:
        row = self._connection().execute(
            "SELECT COALESCE(MAX(seq), 0) FROM reports").fetchone()
        return int(row[0])

    def _load_enrollments(self) -> Dict[str, Enrollment]:
        enrollments: Dict[str, Enrollment] = {}
        for device_id, payload in self._connection().execute(
                "SELECT device_id, row FROM enrollments ORDER BY rowid"):
            enrollments[device_id] = Enrollment.from_row(json.loads(payload))
        return enrollments

    def restore_state(self) -> RestoredState:
        state, snapshot_seq = state_from_snapshot(self.state_rows())
        # Enrollments are upserted in place, so the table is always the
        # freshest copy; the replay below only has to catch the health
        # aggregate and collection times up past the checkpoint.  A
        # report older than the device's newest enrollment write must
        # not advance last_seen — the write already reflects it (or
        # deliberately reset it via a re-enrollment).
        state.enrollments = self._load_enrollments()
        saved_seq = {device_id: int(seq) for device_id, seq
                     in self._connection().execute(
                         "SELECT device_id, saved_seq FROM enrollments "
                         "ORDER BY rowid")}
        last_report_seq: Dict[str, int] = {}
        for seq, device_id, payload in self._connection().execute(
                "SELECT seq, device_id, row FROM reports WHERE seq > ? "
                "ORDER BY seq", (snapshot_seq,)):
            row = json.loads(payload)
            if int(row.get("measurements", 0)):
                last_report_seq[device_id] = int(seq)
            apply_report_row(row, state,
                             advance=int(seq) > saved_seq.get(device_id, 0))
        _drop_reset_collection_times(state, saved_seq, last_report_seq)
        return state

    def has_enrollment(self, device_id: str) -> bool:
        row = self._connection().execute(
            "SELECT 1 FROM enrollments WHERE device_id = ?",
            (device_id,)).fetchone()
        return row is not None

    def device_history(self, device_id: str,
                       limit: Optional[int] = None) -> List[Row]:
        _check_limit(limit)
        if limit is not None:
            # Let the (device_id, seq) index bound the work: newest
            # ``limit`` rows, then restored to oldest-first order.
            newest = self._connection().execute(
                "SELECT row FROM reports WHERE device_id = ? "
                "ORDER BY seq DESC LIMIT ?",
                (device_id, limit)).fetchall()
            return [json.loads(payload) for (payload,) in reversed(newest)]
        return [json.loads(payload) for (payload,) in
                self._connection().execute(
            "SELECT row FROM reports WHERE device_id = ? ORDER BY seq",
            (device_id,))]

    def state_rows(self) -> Optional[Row]:
        row = self._connection().execute(
            "SELECT value FROM meta WHERE key = ?",
            (_SNAPSHOT_KEY,)).fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except json.JSONDecodeError as exc:
            raise StoreError(
                f"corrupt snapshot in SQLite store {self.path}") from exc

    def state_bytes(self) -> bytes:
        row = self._connection().execute(
            "SELECT value FROM meta WHERE key = ?",
            (_SNAPSHOT_KEY,)).fetchone()
        return b"" if row is None else row[0].encode("utf-8")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        if self._conn is not None:
            self._conn.commit()

    def close(self) -> None:
        if self._conn is None:
            return
        self._conn.commit()
        self._conn.close()
        self._conn = None
