"""In-memory state store: the zero-overhead default backend.

The same design as the durable backends — a canonical snapshot plus
one ordered journal of ``enrollment`` and ``report`` records — kept in
process memory, so the same code path runs whether or not durability
was asked for.  ``restore_state`` works (tests exercise the contract
uniformly across backends) but of course survives nothing: the
"medium" dies with the process.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Mapping, Optional, Set, Tuple

from repro.core.verification import Enrollment, VerificationReport
from repro.store.base import (
    ENROLLMENT,
    REPORT,
    RestoredState,
    Row,
    StateStore,
    StoreError,
    replay_record,
    snapshot_document,
    state_from_snapshot,
)

#: Journal records retained by default between two checkpoints.
DEFAULT_MAX_REPORTS = 10_000


class MemoryStore(StateStore):
    """Keep the snapshot and the journal in plain process memory.

    A checkpoint drops the records it folded in, the way
    :class:`~repro.store.jsonl.JsonlStore` truncates its journal file.
    Between two checkpoints the journal keeps at most ``max_reports``
    records of both kinds, enrollments and reports (``None`` keeps
    everything): a continuously collecting verifier must not grow
    without bound just because the default store keeps a journal.
    The window is far larger than one collection round, and rounds
    checkpoint on completion; if records age out before a checkpoint
    anyway, :meth:`restore_state` refuses rather than resume from a
    partial journal.
    """

    def __init__(self, max_reports: Optional[int] = DEFAULT_MAX_REPORTS
                 ) -> None:
        if max_reports is not None and max_reports <= 0:
            raise ValueError("max_reports must be positive")
        # Flat rows only — keeping the report object would pin its
        # whole verdict/Measurement graph in memory.
        self._records: Deque[Tuple[str, Row]] = deque(maxlen=max_reports)
        self._appended = 0
        self._snapshot: Optional[Row] = None
        self._enrolled: Set[str] = set()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def save_enrollment(self, enrollment: Enrollment) -> None:
        self._records.append((ENROLLMENT, enrollment.to_row()))
        self._appended += 1
        self._enrolled.add(enrollment.device_id)

    def append_report(self, report: VerificationReport) -> None:
        self._records.append((REPORT, report.to_row()))
        self._appended += 1

    def checkpoint(self, enrollments: Mapping[str, Enrollment],
                   health: Any,
                   last_collection_times: Mapping[str, float],
                   rounds_completed: int = 0) -> None:
        self._snapshot = snapshot_document(
            enrollments, health, last_collection_times,
            rounds_completed, journal_seq=self._appended)
        self._records.clear()
        self._enrolled = set(enrollments)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def has_enrollment(self, device_id: str) -> bool:
        return device_id in self._enrolled

    def restore_state(self) -> RestoredState:
        state, journal_seq = state_from_snapshot(self._snapshot)
        lost = self._appended - len(self._records) - journal_seq
        if lost:
            raise StoreError(
                f"{lost} un-checkpointed journal record(s) aged out of "
                f"the in-memory window; checkpoint more often or raise "
                f"max_reports")
        for kind, row in self._records:
            replay_record(state, kind, row)
        return state

    def state_rows(self) -> Optional[Row]:
        return self._snapshot
