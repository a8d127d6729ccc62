"""JSONL state store: atomic snapshot file plus write-ahead journal.

The classic single-writer recovery design, in two plain-text files
under one directory:

* ``snapshot.json`` — the canonical checkpoint document, replaced
  atomically (write temp file, fsync, ``os.replace``) so a crash can
  never leave a half-written snapshot;
* ``journal.jsonl`` — one JSON line per record since the last
  checkpoint: every enrollment and every finished report, each
  stamped with a monotonically increasing sequence number.

Outside a :meth:`JsonlStore.batch`, each record is flushed to the OS
as it is appended.  Inside one, the batch's records are flushed
together when the outermost batch exits.

Recovery loads the snapshot, then replays journal records with a
sequence number beyond the snapshot's through the shared
:func:`~repro.store.base.replay_record`; a torn final line (crash mid-
append) is tolerated and simply ends the replay.  Checkpointing folds
the journal into a fresh snapshot and truncates it, bounding both
recovery time and disk growth.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import IO, Any, Iterator, List, Mapping, Optional, Set, Tuple, \
    Union

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


class JsonlStore(StateStore):
    """Snapshot + journal persistence in a directory of JSON files.

    Each record is flushed to the OS as it is appended; inside a
    :meth:`batch` the stream is flushed once, when the outermost batch
    exits, however many records the batch appended.
    """

    def __init__(self, directory: Union[str, os.PathLike]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.directory / "snapshot.json"
        self.journal_path = self.directory / "journal.jsonl"
        self._journal: Optional[IO[str]] = None
        self._batch_depth = 0
        self._closed = False
        # Resume sequence numbering and the enrolled ids from whatever
        # an earlier process left behind; the replayed state is kept for
        # the first restore_state call so the open-then-restore path
        # (FleetVerifier.restore) reads the files only once.
        state, self._seq = self._replay()
        self._enrolled: Set[str] = set(state.enrollments)
        self._opened_state: Optional[RestoredState] = state
        # A crash mid-append can leave a torn final record; replay
        # tolerates it, but appending onto it would merge two records
        # into one corrupt line — cut it off before the first write.
        self._repair_torn_tail()

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------
    def _journal_stream(self) -> IO[str]:
        if self._journal is None:
            self._journal = open(self.journal_path, "a", encoding="utf-8")
        return self._journal

    def _append(self, kind: str, row: Row) -> None:
        if self._closed:
            raise StoreError(f"JSONL store {self.directory} is closed")
        self._opened_state = None
        self._seq += 1
        record = {"seq": self._seq, "kind": kind, "row": row}
        stream = self._journal_stream()
        # json.dumps takes the C encoder; json.dump's pure-Python
        # iterencode left cyclic garbage behind on every record.
        stream.write(json.dumps(record, sort_keys=True,
                                separators=(",", ":")) + "\n")
        if not self._batch_depth:
            stream.flush()

    def _flush(self) -> None:
        if self._journal is not None:
            self._journal.flush()

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            if not self._batch_depth:
                self._flush()

    def _journal_records(self) -> List[Row]:
        """All complete journal records, tolerating a torn final line."""
        if not self.journal_path.exists():
            return []
        records: List[Row] = []
        # Read as bytes: a crash can cut the final record inside a
        # multi-byte UTF-8 character, which a text-mode read would turn
        # into an unrecoverable UnicodeDecodeError for the whole file.
        lines = self.journal_path.read_bytes().splitlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line.decode("utf-8")))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                if index == len(lines) - 1:
                    break  # torn tail from a crash mid-append
                raise StoreError(
                    f"corrupt journal record at line {index + 1} of "
                    f"{self.journal_path}") from exc
        return records

    def _repair_torn_tail(self) -> None:
        """Repair a torn final journal record left by a crash.

        Only called after a successful replay, so at most the final
        line can be damaged (appending onto it would corrupt the next
        record).  Two cases: a record that parsed but lost only its
        trailing newline was already acknowledged and re-served by the
        replay, so it is *completed* (newline appended), never dropped;
        an unparseable fragment never made it into any state and is
        truncated away.
        """
        if not self.journal_path.exists():
            return
        with open(self.journal_path, "rb") as stream:
            data = stream.read()
        if not data:
            return
        keep = 0
        for line in data.splitlines(keepends=True):
            stripped = line.strip()
            if stripped:
                try:
                    json.loads(stripped.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    break
            if not line.endswith(b"\n"):
                with open(self.journal_path, "ab") as stream:
                    stream.write(b"\n")
            keep += len(line)
        if keep < len(data):
            with open(self.journal_path, "rb+") as stream:
                stream.truncate(keep)

    def _read_snapshot(self) -> Optional[Row]:
        if not self.snapshot_path.exists():
            return None
        try:
            with open(self.snapshot_path, "r", encoding="utf-8") as stream:
                return json.load(stream)
        except json.JSONDecodeError as exc:
            raise StoreError(
                f"corrupt snapshot {self.snapshot_path}") from exc

    def _replay(self) -> Tuple[RestoredState, int]:
        """Snapshot + journal tail; returns the state and newest seq."""
        document = self._read_snapshot()
        state, snapshot_seq = state_from_snapshot(document)
        newest_seq = snapshot_seq
        for record in self._journal_records():
            seq = int(record.get("seq", 0))
            newest_seq = max(newest_seq, seq)
            if seq > snapshot_seq:  # else already in the snapshot
                replay_record(state, str(record.get("kind")),
                              record.get("row", {}))
        return state, newest_seq

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def save_enrollment(self, enrollment: Enrollment) -> None:
        self._append(ENROLLMENT, enrollment.to_row())
        self._enrolled.add(enrollment.device_id)

    def append_report(self, report: VerificationReport) -> None:
        self._append(REPORT, report.to_row())

    def checkpoint(self, enrollments: Mapping[str, Enrollment],
                   health: Any,
                   last_collection_times: Mapping[str, float],
                   rounds_completed: int = 0) -> None:
        if self._closed:
            raise StoreError(f"JSONL store {self.directory} is closed")
        self._opened_state = None
        document = snapshot_document(
            enrollments, health, last_collection_times,
            rounds_completed, journal_seq=self._seq)
        payload = encode_snapshot(document)
        temp_path = self.snapshot_path.with_suffix(".json.tmp")
        with open(temp_path, "wb") as stream:
            stream.write(payload)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, self.snapshot_path)
        # The rename must hit stable storage before the journal is
        # truncated — otherwise a power loss could persist the truncate
        # but not the replace, losing the whole checkpointed round.
        self._fsync_directory()
        # Everything up to self._seq is now durable in the snapshot;
        # truncate the journal so recovery stays O(one round).  A crash
        # between the replace and the truncate is harmless: replay
        # skips records at or below the snapshot's journal_seq.
        if self._journal is not None:
            self._journal.close()
        self._journal = open(self.journal_path, "w", encoding="utf-8")
        self._enrolled = set(enrollments)

    def _fsync_directory(self) -> None:
        """Flush the directory entry (rename durability); best effort."""
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return  # platforms without directory fds (e.g. Windows)
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def has_enrollment(self, device_id: str) -> bool:
        # Seeded from snapshot + journal at open, kept current by every
        # save_enrollment and checkpoint since.
        return device_id in self._enrolled

    def restore_state(self) -> RestoredState:
        # The open-time replay is handed out once, if nothing was
        # written since; otherwise the files are replayed afresh.
        state, self._opened_state = self._opened_state, None
        if state is None:
            self._flush()
            state, _ = self._replay()
        return state

    def state_rows(self) -> Optional[Row]:
        return self._read_snapshot()

    def state_bytes(self) -> bytes:
        """The snapshot file's literal bytes (empty before a checkpoint)."""
        if not self.snapshot_path.exists():
            return b""
        return self.snapshot_path.read_bytes()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        # Reads (restore_state, state_rows) keep working on a closed
        # store — they reopen the files — but writes raise.
        self._closed = True
        if self._journal is not None:
            self._journal.flush()
            self._journal.close()
            self._journal = None
