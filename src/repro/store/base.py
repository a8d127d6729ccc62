"""The durable-verifier-state contract: snapshots plus a report journal.

For a long-lived unattended deployment the verifier's record of each
device — enrollment key, healthy digests, newest-seen timestamp — *is*
the security state: lose it and a rebooted verifier cannot be told
apart from a rolled-back one.  A :class:`StateStore` is the seam that
makes that state durable without the verifier caring how:

* :meth:`StateStore.save_enrollment` — write-through for every
  enrollment change (new device, digest whitelist, last-seen advance);
* :meth:`StateStore.append_report` — a write-ahead journal of finished
  :class:`~repro.core.verification.VerificationReport` rows;
* :meth:`StateStore.checkpoint` — fold everything accepted so far into
  one canonical snapshot (enrollments, :class:`FleetHealth` aggregate,
  last collection times, journal position);
* :meth:`StateStore.restore_state` — snapshot plus journal tail
  replayed into a :class:`RestoredState`, from which
  :meth:`repro.fleet.FleetVerifier.restore` resumes a deployment.

What is durable when: outside a :meth:`StateStore.batch`, a write is
durable (on the backend's medium) when its call returns.  Inside one,
the batch's writes become durable together when the outermost batch
exits, whether it exits normally or by an exception.  The verifier
commits each shard batch of a round as one such unit, and hands a
report to its sinks only after that unit's exit has returned.

The snapshot document is canonical: enrollments sorted by device id,
digest sets sorted, JSON emitted with sorted keys.  Checkpointing the
same logical state therefore always produces the same bytes
(:meth:`StateStore.state_bytes`), which is what the kill-and-restore
tests assert.
"""

from __future__ import annotations

import abc
import contextlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.verification import Enrollment, VerificationReport

#: Version tag written into every snapshot document.
SNAPSHOT_VERSION = 1

Row = Dict[str, object]


class StoreError(RuntimeError):
    """A state store could not read or write its backing medium."""


def _new_health():
    # Imported lazily: repro.fleet.sinks imports repro.core.verification,
    # and importing it at module scope here would close an import cycle
    # through repro.fleet.service.
    from repro.fleet.sinks import FleetHealth
    return FleetHealth()


@dataclass
class RestoredState:
    """Everything a verifier needs to resume a deployment."""

    enrollments: Dict[str, Enrollment] = field(default_factory=dict)
    health: Any = None
    last_collection_times: Dict[str, float] = field(default_factory=dict)
    rounds_completed: int = 0
    replayed_reports: int = 0

    def __post_init__(self) -> None:
        if self.health is None:
            self.health = _new_health()


def snapshot_document(enrollments: Mapping[str, Enrollment],
                      health: Any,
                      last_collection_times: Mapping[str, float],
                      rounds_completed: int,
                      journal_seq: int) -> Row:
    """Build the canonical snapshot document for one checkpoint."""
    return {
        "version": SNAPSHOT_VERSION,
        "journal_seq": journal_seq,
        "rounds_completed": rounds_completed,
        "enrollments": [enrollment.to_row() for _, enrollment
                        in sorted(enrollments.items())],
        "health": None if health is None else health.to_row(),
        "last_collection_times": dict(sorted(
            last_collection_times.items())),
    }


def encode_snapshot(document: Row) -> bytes:
    """Serialize a snapshot document to its canonical bytes."""
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


def state_from_snapshot(document: Optional[Mapping[str, object]]
                        ) -> Tuple[RestoredState, int]:
    """Parse a snapshot document; returns the state and its journal seq."""
    state = RestoredState()
    if document is None:
        return state, 0
    version = int(document.get("version", 0))
    if version != SNAPSHOT_VERSION:
        raise StoreError(
            f"unsupported snapshot version {version} (this build reads "
            f"version {SNAPSHOT_VERSION}); refusing to misparse verifier "
            f"state")
    for row in document.get("enrollments", ()):
        enrollment = Enrollment.from_row(row)
        state.enrollments[enrollment.device_id] = enrollment
    health_row = document.get("health")
    if health_row is not None:
        from repro.fleet.sinks import FleetHealth
        state.health = FleetHealth.from_row(health_row)
    state.last_collection_times = {
        str(device_id): float(value) for device_id, value
        in dict(document.get("last_collection_times", {})).items()}
    state.rounds_completed = int(document.get("rounds_completed", 0))
    return state, int(document.get("journal_seq", 0))


def apply_report_row(row: Mapping[str, object], state: RestoredState,
                     advance: bool = True) -> None:
    """Replay one journaled report row into a restored state.

    Mirrors exactly what ``FleetVerifier._commit`` did when the report
    was first accepted: fold it into the health aggregate and, when it
    carried measurements, advance the device's last-seen timestamp and
    last collection time.

    ``advance=False`` skips the last-seen advance; backends that keep
    enrollments as an unsequenced live table (SQLite, memory) pass it
    for reports older than the device's newest enrollment write, so a
    deliberate re-enrollment reset is never resurrected by replay.
    """
    report = VerificationReport.from_row(row)
    state.health.record(report)
    if report.measurement_count:
        state.last_collection_times[report.device_id] = \
            report.collection_time
        newest = report.newest_timestamp
        enrollment = state.enrollments.get(report.device_id)
        if advance and newest is not None and enrollment is not None:
            state.enrollments[report.device_id] = \
                enrollment.advanced(newest)
    state.replayed_reports += 1


def _check_limit(limit: Optional[int]) -> None:
    """Reject a negative ``device_history`` limit on every backend."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")


def _drop_reset_collection_times(state: RestoredState,
                                 enrollment_seq: Mapping[str, int],
                                 last_report_seq: Mapping[str, int]) -> None:
    """Clear collection times voided by a re-enrollment reset.

    For backends whose enrollments live in an unsequenced table (SQLite,
    memory): a device whose newest enrollment write carries no
    ``last_seen`` and postdates every replayed report was deliberately
    reset — its last collection time belongs to the decommissioned unit
    and must not survive the restore (the live verifier popped it too).
    ``last_report_seq`` must only count reports that carried
    measurements, mirroring which reports actually set a collection
    time in :func:`apply_report_row`.
    """
    for device_id, seq in enrollment_seq.items():
        enrollment = state.enrollments.get(device_id)
        if enrollment is not None and enrollment.last_seen is None \
                and seq >= last_report_seq.get(device_id, 0):
            state.last_collection_times.pop(device_id, None)


class StateStore(abc.ABC):
    """Durable backing for a verifier's per-device and aggregate state."""

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def save_enrollment(self, enrollment: Enrollment) -> None:
        """Upsert one enrollment record (key, digests, last-seen)."""

    @abc.abstractmethod
    def append_report(self, report: VerificationReport) -> None:
        """Journal one finished verification report."""

    @abc.abstractmethod
    def checkpoint(self, health: Any,
                   last_collection_times: Mapping[str, float],
                   rounds_completed: int = 0) -> None:
        """Fold all state accepted so far into one durable snapshot."""

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Group the writes made inside into one durable unit.

        The writes become durable together when the outermost batch
        exits — normally or by an exception, so writes made before a
        failing one still land.  If that final commit fails, none of
        the batch's writes is durable and the error propagates.
        Batches nest; inner exits commit nothing.  This default makes
        every write durable as it is made, which is already what a
        batch promises.
        """
        yield

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def has_enrollment(self, device_id: str) -> bool:
        """True when the backing medium holds an enrollment for the device.

        Consulted by duplicate-enrollment guards: a freshly constructed
        verifier attached to a non-empty durable store must not let a
        careless re-provision silently overwrite persisted enrollments
        (and with them the rollback-detecting ``last_seen`` state).
        """

    @abc.abstractmethod
    def restore_state(self) -> RestoredState:
        """Snapshot plus journal tail, replayed into a resumable state."""

    @abc.abstractmethod
    def device_history(self, device_id: str,
                       limit: Optional[int] = None) -> List[Row]:
        """Retained report rows for one device, oldest first.

        ``limit`` keeps only the newest ``limit`` rows (``0`` keeps
        none; a negative limit raises :class:`ValueError`).  How much
        history is retained is backend-defined: :class:`SqliteStore`
        keeps everything (indexed), :class:`MemoryStore` keeps a
        bounded in-RAM window (``max_reports``, 10,000 by default),
        :class:`JsonlStore` keeps only the journal tail since the last
        checkpoint.
        """

    @abc.abstractmethod
    def state_rows(self) -> Optional[Row]:
        """The last checkpoint's snapshot document (``None`` before one)."""

    def state_bytes(self) -> bytes:
        """Canonical bytes of the last checkpoint (empty before one)."""
        document = self.state_rows()
        return b"" if document is None else encode_snapshot(document)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Push buffered writes to the backing medium (default: no-op)."""

    def close(self) -> None:
        """Flush and release any resources (default: nothing to do)."""

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
