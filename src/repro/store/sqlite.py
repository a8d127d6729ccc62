"""SQLite state store: one database file, one ordered journal table.

The same design as :class:`~repro.store.jsonl.JsonlStore` on a
different medium: a ``journal`` table of ``enrollment`` and ``report``
records, each keyed by its sequence number, plus the canonical
checkpoint document (same bytes as the JSONL snapshot) in a ``meta``
table.  Recovery loads the snapshot and replays the records after its
journal position through the shared
:func:`~repro.store.base.replay_record`.  Unlike the JSONL journal,
the table keeps its rows after a checkpoint.

A journal row is the record's canonical text: a report's
:meth:`~repro.core.verification.VerificationReport.to_json`, the very
line :class:`~repro.fleet.JsonlSink` writes, so a report committed to
both is encoded once.

Every write is queued, and the queue is inserted with one
``executemany`` and committed.  Outside a :meth:`SqliteStore.batch`
that happens before the write returns, so each write is its own
one-row transaction.  Inside one, it happens at the outermost exit, so
a verifier's shard batch of report rows costs one statement and one
``COMMIT`` and lands atomically.  If that insert or commit fails, the
whole batch rolls back, which the
:meth:`~repro.store.base.StateStore.batch` contract allows.

Files written with the earlier ``enrollments``/``reports`` tables are
refused with :class:`~repro.store.base.StoreError` rather than misread.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
from typing import Any, Iterator, List, Mapping, Optional, Set, Tuple, Union

from repro.core.verification import Enrollment, VerificationReport, \
    encode_row
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

    Every write is queued and then inserted with one ``executemany``
    and committed: outside a :meth:`batch` before it returns, inside
    one at the outermost exit (a :meth:`checkpoint` or :meth:`close`
    inside the batch inserts the queue first).  A failing insert rolls
    the whole batch back.  The store assumes it is the
    file's only writer: it replays the file once at open and keeps the
    newest ``seq`` and the set of enrolled ids in memory, so neither a
    write nor a checkpoint reads back what this connection wrote
    itself; inserted rows advance that ``seq`` by their count, since
    ``executemany`` reports no row id and nothing else takes a key.
    The open-time replay is handed to the first :meth:`restore_state`.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = str(path)
        self._conn: Optional[sqlite3.Connection] = None
        # The (kind, text) rows not yet inserted: an open batch's, or
        # the one row of a write outside a batch.
        self._queued: List[Tuple[str, str]] = []
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

    def _insert_queued(self) -> None:
        """Insert the queued rows with one statement."""
        rows, self._queued = self._queued, []
        if not rows:
            return
        try:
            self._connection().executemany(
                "INSERT INTO journal (kind, row) VALUES (?, ?)", rows)
        except BaseException:
            self._rollback()
            raise
        self._seq += len(rows)

    def _commit(self) -> None:
        """Insert the queue and commit; roll both back if that fails."""
        self._insert_queued()
        try:
            self._connection().commit()
        except BaseException:
            self._rollback()
            raise

    def _rollback(self) -> None:
        self._connection().rollback()
        # The in-memory seq and enrolled ids may hold rolled-back
        # writes: read both back from the file.
        state, self._seq = self._replay()
        self._enrolled = set(state.enrollments)

    def _write_done(self) -> None:
        if not self._batch_depth:
            self._commit()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _append(self, kind: str, text: str) -> None:
        self._connection()
        self._opened_state = None
        self._queued.append((kind, text))
        self._write_done()

    def save_enrollment(self, enrollment: Enrollment) -> None:
        self._append(ENROLLMENT, encode_row(enrollment.to_row()))
        self._enrolled.add(enrollment.device_id)

    def append_report(self, report: VerificationReport) -> None:
        self._append(REPORT, report.to_json())

    def checkpoint(self, enrollments: Mapping[str, Enrollment],
                   health: Any,
                   last_collection_times: Mapping[str, float],
                   rounds_completed: int = 0) -> None:
        self._opened_state = None
        self._insert_queued()  # the snapshot's journal_seq covers them
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
        self._insert_queued()
        self._conn.commit()
        self._conn.close()
        self._conn = None
