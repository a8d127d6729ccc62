"""In-memory state store: the zero-overhead default backend.

Keeps the exact state a plain-dict verifier kept before stores existed,
behind the :class:`~repro.store.base.StateStore` contract, so the same
code path runs whether or not durability was asked for.  ``restore_state``
works (tests exercise the contract uniformly across backends) but of
course survives nothing: the "medium" dies with the process.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any, Deque, Dict, List, Mapping, Optional

from repro.core.verification import Enrollment, VerificationReport
from repro.store.base import (
    RestoredState,
    Row,
    StateStore,
    StoreError,
    _check_limit,
    _drop_reset_collection_times,
    apply_report_row,
    snapshot_document,
    state_from_snapshot,
)

#: Reports retained by default; old ones age out once checkpointed.
DEFAULT_MAX_REPORTS = 10_000


class MemoryStore(StateStore):
    """Keep enrollments and reports in plain process memory.

    Report retention is bounded by ``max_reports`` (``None`` retains
    everything): a continuously collecting verifier must not grow
    without bound just because the default store keeps a journal.  The
    window is far larger than one collection round, and rounds
    checkpoint on completion, so aged-out reports are always already
    folded into the snapshot.
    """

    def __init__(self, max_reports: Optional[int] = DEFAULT_MAX_REPORTS
                 ) -> None:
        if max_reports is not None and max_reports <= 0:
            raise ValueError("max_reports must be positive")
        self._enrollments: Dict[str, Enrollment] = {}
        # Report-sequence number at each device's newest enrollment
        # write: replay must not advance past a deliberate reset.
        self._enrollment_seq: Dict[str, int] = {}
        self._reports: Deque[Row] = deque(maxlen=max_reports)
        self._appended = 0
        self._snapshot: Optional[Row] = None

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def save_enrollment(self, enrollment: Enrollment) -> None:
        self._enrollments[enrollment.device_id] = enrollment
        self._enrollment_seq[enrollment.device_id] = self._appended

    def append_report(self, report: VerificationReport) -> None:
        # Only the flat row is retained — keeping the report object
        # would pin its whole verdict/Measurement graph in memory for
        # up to max_reports collections.
        self._reports.append(report.to_row())
        self._appended += 1

    def checkpoint(self, health: Any,
                   last_collection_times: Mapping[str, float],
                   rounds_completed: int = 0) -> None:
        self._snapshot = snapshot_document(
            self._enrollments, health, last_collection_times,
            rounds_completed, journal_seq=self._appended)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def has_enrollment(self, device_id: str) -> bool:
        return device_id in self._enrollments

    def restore_state(self) -> RestoredState:
        state, journal_seq = state_from_snapshot(self._snapshot)
        # Enrollments are live (write-through), so prefer them over the
        # snapshot copies; the replay below then only rebuilds the
        # health aggregate and collection times for the journal tail.
        state.enrollments = dict(self._enrollments)
        first_retained = self._appended - len(self._reports)
        if journal_seq < first_retained:
            raise StoreError(
                f"{first_retained - journal_seq} un-checkpointed report(s) "
                f"aged out of the in-memory window; checkpoint more often "
                f"or raise max_reports")
        last_report_seq: Dict[str, int] = {}
        for offset, row in enumerate(
                islice(self._reports, journal_seq - first_retained, None)):
            seq = journal_seq + offset + 1
            device_id = str(row["device_id"])
            if int(row.get("measurements", 0)):
                last_report_seq[device_id] = seq
            advance = seq > self._enrollment_seq.get(device_id, 0)
            apply_report_row(row, state, advance=advance)
        _drop_reset_collection_times(state, self._enrollment_seq,
                                     last_report_seq)
        return state

    def device_history(self, device_id: str,
                       limit: Optional[int] = None) -> List[Row]:
        _check_limit(limit)
        # History is bounded by the retention window (``max_reports``).
        rows = [dict(row) for row in self._reports
                if row["device_id"] == device_id]
        if limit is not None:
            rows = rows[max(len(rows) - limit, 0):]
        return rows

    def state_rows(self) -> Optional[Row]:
        return self._snapshot
