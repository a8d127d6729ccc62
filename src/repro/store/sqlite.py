"""SQLite state store: one database file, one ordered journal table.

The same design as :class:`~repro.store.jsonl.JsonlStore` on a
different medium: a ``journal`` table of ``enrollment`` and ``report``
records, each keyed by its sequence number, plus the canonical
checkpoint document (same bytes as the JSONL snapshot) in a ``meta``
table.  Recovery loads the snapshot and replays the records after its
journal position through the shared
:func:`~repro.store.base.replay_record`.  Unlike the JSONL journal,
the table keeps its rows after a checkpoint.

Outside a :meth:`SqliteStore.batch` every write is its own transaction,
committed before the call returns.  Inside one, the writes join a
single transaction that the outermost exit commits, so a verifier's
shard batch of report rows costs one ``COMMIT`` and lands atomically.

Files written with the earlier ``enrollments``/``reports`` tables are
refused with :class:`~repro.store.base.StoreError` rather than misread.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
from typing import Any, Iterator, Mapping, Optional, Set, Tuple, Union

from repro.core.verification import Enrollment, VerificationReport
from repro.store.base import (
    ENROLLMENT,
    REPORT,
    RestoredState,
    Row,
    StateStore,
    StoreError,
    encode_snapshot,
    replay_record,
    snapshot_document,
    state_from_snapshot,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS journal (
    seq  INTEGER PRIMARY KEY AUTOINCREMENT,
    kind TEXT NOT NULL,
    row  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: Tables of the earlier layout, which kept enrollments apart.
_OLD_TABLES = ("enrollments", "reports")

_SNAPSHOT_KEY = "snapshot"


class SqliteStore(StateStore):
    """Single-file SQLite persistence for verifier state.

    A write outside a :meth:`batch` is durable when it returns; inside
    one, when the outermost batch exits.  The store assumes it is the
    file's only writer: it replays the file once at open and keeps the
    newest ``seq`` and the set of enrolled ids in memory, so neither a
    write nor a checkpoint reads back what this connection wrote
    itself.  The open-time replay is handed to the first
    :meth:`restore_state`.
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
        old = [name for (name,) in self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name IN (?, ?) ORDER BY name", _OLD_TABLES)]
        if old:
            self.close()
            raise StoreError(
                f"SQLite store {self.path} uses the old layout (tables "
                f"{', '.join(old)}); this build reads only the journal "
                f"layout and refuses to misread verifier state")
        self._conn.executescript(_SCHEMA)
        # WAL keeps append_report a sequential write; NORMAL sync is the
        # standard durability/throughput trade for a recovery log.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.commit()
        self._batch_depth = 0
        try:
            state, self._seq = self._replay()
        except BaseException:
            self.close()  # a corrupt or newer snapshot: release the file
            raise
        self._enrolled: Set[str] = set(state.enrollments)
        self._opened_state: Optional[RestoredState] = state

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
            # The in-memory seq and enrolled ids may hold rolled-back
            # writes: read both back from the file.
            state, self._seq = self._replay()
            self._enrolled = set(state.enrollments)
            raise

    def _write_done(self) -> None:
        if not self._batch_depth:
            self._commit()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _append(self, kind: str, row: Row) -> None:
        self._opened_state = None
        cursor = self._connection().execute(
            "INSERT INTO journal (kind, row) VALUES (?, ?)",
            (kind, json.dumps(row, sort_keys=True)))
        self._seq = cursor.lastrowid
        self._write_done()

    def save_enrollment(self, enrollment: Enrollment) -> None:
        self._append(ENROLLMENT, enrollment.to_row())
        self._enrolled.add(enrollment.device_id)

    def append_report(self, report: VerificationReport) -> None:
        self._append(REPORT, report.to_row())

    def checkpoint(self, enrollments: Mapping[str, Enrollment],
                   health: Any,
                   last_collection_times: Mapping[str, float],
                   rounds_completed: int = 0) -> None:
        self._opened_state = None
        document = snapshot_document(
            enrollments, health, last_collection_times,
            rounds_completed, journal_seq=self._seq)
        self._connection().execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (_SNAPSHOT_KEY, encode_snapshot(document).decode("utf-8")))
        self._write_done()
        self._enrolled = set(enrollments)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _replay(self) -> Tuple[RestoredState, int]:
        """Snapshot + journal tail; returns the state and newest seq."""
        state, newest_seq = state_from_snapshot(self.state_rows())
        for seq, kind, payload in self._connection().execute(
                "SELECT seq, kind, row FROM journal WHERE seq > ? "
                "ORDER BY seq", (newest_seq,)):
            replay_record(state, kind, json.loads(payload))
            newest_seq = seq
        return state, newest_seq

    def restore_state(self) -> RestoredState:
        # The open-time replay is handed out once, if nothing was
        # written since; otherwise the file is replayed afresh.
        state, self._opened_state = self._opened_state, None
        if state is None:
            state, _ = self._replay()
        return state

    def has_enrollment(self, device_id: str) -> bool:
        return device_id in self._enrolled

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
    def close(self) -> None:
        if self._conn is None:
            return
        self._conn.commit()
        self._conn.close()
        self._conn = None
